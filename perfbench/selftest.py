#!/usr/bin/env python3
"""Self-test of the rcons benchmark (about a minute):

    python3 perfbench/selftest.py

1. One command per mode prints every metric BENCHMARK.json names, with its
   unit, for every workload: `run.py --workload all --trace 0` the
   end-to-end ones, `--trace 1` the per-layer ones.
2. Another seed reorders spec-sweep but leaves every visited count the same.
3. The stage-isolation pass reports engine.stage_coverage on both large
   instances (exhaustive-auto2 and symmetric-dfs).
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ beside run.py
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
failures = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_all(trace):
    """Runs the one command over every workload; returns (stdout lines, result)."""
    command = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "all",
               "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=run.ROOT)
    lines = result.stdout.strip().splitlines()
    expect(result.returncode == 0, f"run.py --workload all --trace {trace} exits 0")
    return lines, json.loads(lines[-1])


def check_metrics_printed(trace, key):
    lines, summary = run_all(trace)
    expect(summary["correct"] and summary["failed"] == 0,
           f"trace {trace}: every check matches its pinned result")
    for workload in run.WORKLOADS:
        for metric in SPEC[key]:
            got = summary["metrics"].get(f"{workload}/{metric['name']}")
            printed = any(line.split()[:1] == [metric["name"]] and
                          line.split()[-1] == metric["unit"] for line in lines)
            expect(got is not None and got["unit"] == metric["unit"] and printed,
                   f"{workload}: {metric['name']} printed in {metric['unit']}")
    return summary


def check_seed_reorders():
    binary = run.build()
    raws = []
    for seed in (1, 2):
        measured = run.measure(binary, "spec-sweep", seed, 0.5, False)
        expect(measured is not None, f"spec-sweep seed {seed} runs")
        raws.append(measured[0])
    expect(raws[0]["first_order"] != raws[1]["first_order"],
           "seeds 1 and 2 check the spec-sweep scenarios in different orders")
    counts = []
    for raw in raws:
        seen = {}
        for p in raw["passes"]:
            for item, _, visited, _ in p["checks"]:
                seen.setdefault(raw["items"][item]["label"], set()).add(visited)
        counts.append(seen)
    expect(counts[0] == counts[1] and all(len(v) == 1 for v in counts[0].values()),
           "both seeds visit the same number of states in every scenario")


def main():
    check_metrics_printed(0, "end_to_end")
    traced = check_metrics_printed(1, "per_layer")
    check_seed_reorders()
    for workload in ("exhaustive-auto2", "symmetric-dfs"):
        coverage = traced["metrics"][f"{workload}/engine.stage_coverage"]["value"]
        expect(0.25 < coverage < 4.0,
               f"{workload}: stage isolation covers the measured cost "
               f"(engine.stage_coverage = {coverage:.3f})")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
