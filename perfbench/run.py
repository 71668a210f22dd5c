#!/usr/bin/env python3
"""The rcons benchmark: build, run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload spec-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload in turn

The first call builds the library and the measuring program (rcons_bench)
from this source tree with CMake into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. rcons_bench does the
measuring and prints raw samples; this script turns them into the metrics
listed in BENCHMARK.json, prints each by name with its unit and sample
count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the Chrome trace to .bench_out/). Exit code 0 when every check
matched its pinned result, 1 when one did not, 2 when the build or the run
itself failed (then no result line is printed).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["exhaustive-auto2", "symmetric-dfs", "spec-sweep"]
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rcons_bench; returns its path or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(build_dir, "rcons_bench")


def measure(binary, workload, seed, seconds, trace):
    """Runs rcons_bench once; returns (raw samples, trace events) or None."""
    trace_path = None
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--root", ROOT]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
        command += ["--trace-out", trace_path]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"{workload}: rcons_bench did not finish within {RUN_TIMEOUT_S} s")
        return None
    if result.returncode != 0:
        log(f"{workload}: rcons_bench exited with code {result.returncode}")
        return None
    raw = json.loads(result.stdout)
    events = []
    if trace_path is not None:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
    return raw, events


# --- statistics --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def trimmed_mean(values, trim=0.1):
    """Mean of `values` without the lowest and highest `trim` share.

    The end-to-end times of a run use this rather than the median: the host
    switches between two speed levels about 1.6x apart every few tens of
    milliseconds, so short passes fall into two clusters. The median of such
    a sample jumps from one cluster to the other when the share of fast
    passes crosses one half; the mean moves only in proportion to it."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_rank(count):
    """The percentile reported as the tail: 99, or when fewer than 1,000
    samples cannot support it, the highest one with ten samples beyond it
    (never below the median)."""
    return min(99.0, max(50.0, 100.0 * (count - 10) / count))


# --- metrics -----------------------------------------------------------------

def pass_checks(passes):
    """(item, seconds, visited, strategy used) of every check in `passes`."""
    return [tuple(check) for p in passes for check in p["checks"]]


def is_replay(raw, item):
    return raw["items"][item]["strategy"] == "replay"


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus sample counts."""
    passes = raw["passes"]
    checks = pass_checks(passes)
    check_ms = [seconds * 1e3 for _, seconds, _, _ in checks]
    # Every pass checks the same items, so it visits the same states.
    explored = [[(s, v) for item, s, v, _ in p["checks"] if not is_replay(raw, item)]
                for p in passes]
    visited_per_pass = sum(v for _, v in explored[0])
    explore_s = [sum(s for s, _ in p) for p in explored]
    metrics = {
        "setup_s": (trimmed_mean(raw["setup"]["pass_s"]), "s"),
        "verdict_s": (trimmed_mean([p["seconds"] for p in passes]), "s"),
        "states_per_s": (visited_per_pass / trimmed_mean(explore_s), "1/s"),
        "check_ms.p50": (median(check_ms), "ms"),
        "check_ms.p99": (percentile(check_ms, tail_rank(len(check_ms))), "ms"),
        "peak_rss_mb": (raw["peak_rss_mib"], "MiB"),
    }
    samples = {
        "setup passes": len(raw["setup"]["pass_s"]),
        "measured passes": len(passes),
        "checks (check_ms samples)": len(check_ms),
        "percentile reported as check_ms.p99": round(tail_rank(len(check_ms)), 1),
    }
    return metrics, samples


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(raw, events):
    """The per-layer metrics of a traced run."""
    traced = [p for p in raw["passes"] if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    checks = pass_checks(traced)
    explored = [c for c in checks if not is_replay(raw, c[0])]
    sequential = [c for c in explored if c[3] == "sequential-dfs"]
    probe_us = [e["dur"] for e in events if e.get("ph") == "X" and e["name"] == "probe"]

    probe_shares = []
    probe_visited = []
    for p in traced:
        reg = p["registry"]
        states = [(item, v, used) for item, _, v, used in p["checks"]
                  if not is_replay(raw, item)]
        escalated = reg.get("check.probe_visited", 0)
        probe_visited.append(escalated)
        by_probe = sum(v for item, v, used in states
                       if raw["items"][item]["strategy"] == "auto" and used == "sequential-dfs")
        probe_shares.append(ratio(escalated + by_probe, sum(v for _, v, _ in states)))

    if sequential:
        dfs_ns = ratio(sum(c[1] for c in sequential) * 1e9, sum(c[2] for c in sequential))
    else:  # only the kAuto probe ran on sim::Explorer
        dfs_ns = ratio(median(probe_us) * 1e3, median(probe_visited))

    def registry_median(fn):
        return median([fn(p["registry"]) for p in traced])

    stages = raw["stages"]
    stage_ns = stages["ns_per_call"]
    metrics = {
        "check.parse_us": (median(raw["setup"]["parse_us"]), "us"),
        "check.build_us": (median(raw["setup"]["build_us"]), "us"),
        "check.probe_s": (median(probe_us) / 1e6, "s"),
        "check.probe_share": (median(probe_shares), "ratio"),
        "check.small_check_us": (median([c[1] * 1e6 for c in explored if c[2] < 1000]), "us"),
        "check.minimize_us": (median([m[1] * 1e6 for p in traced for m in p["minimize"]]), "us"),
        "check.minimize_replays": (median([m[2] for p in traced for m in p["minimize"]]), "count"),
        "sim.replay_us": (median([c[1] * 1e6 for c in checks if is_replay(raw, c[0])]), "us"),
        "sim.dfs_ns_per_state": (dfs_ns, "ns"),
    }
    for stage in ["decode", "restore", "enumerate", "apply", "encode", "intern_hit",
                  "intern_miss", "frontier", "canonicalize", "orbit_mask"]:
        metrics[f"engine.{stage}_ns"] = (stage_ns[stage], "ns")
    metrics["engine.stage_sum_ns"] = (stages["stage_sum_ns"], "ns")
    metrics["engine.stage_coverage"] = (
        ratio(stages["stage_sum_ns"], median(stages["reference_ns_per_state"])), "ratio")
    metrics.update({
        "engine.transitions_per_state": (registry_median(
            lambda r: ratio(r.get("engine.transitions", 0), r.get("engine.visited_states", 0))),
            "ratio"),
        "engine.dup_ratio": (registry_median(
            lambda r: ratio(r.get("engine.duplicates", 0), r.get("engine.transitions", 0))),
            "ratio"),
        "engine.dedup_cache_hit_rate": (registry_median(
            lambda r: ratio(r.get("engine.dedup_cache_hits", 0),
                            r.get("engine.dedup_cache_probes", 0))), "ratio"),
        "engine.orbit_skip_ratio": (registry_median(
            lambda r: ratio(r.get("engine.orbit_skipped", 0), r.get("engine.transitions", 0))),
            "ratio"),
        "engine.steals": (registry_median(lambda r: r.get("engine.steals", 0)), "count"),
        "engine.cas_retries": (registry_median(lambda r: r.get("engine.cas_retries", 0)),
                               "count"),
        "store.bytes_per_node": (registry_median(
            lambda r: ratio(r.get("store.value_bytes", 0), r.get("store.nodes", 0))), "B"),
        "obs.overhead": (ratio(trimmed_mean([p["seconds"] for p in traced]),
                               trimmed_mean([p["seconds"] for p in untraced])) - 1.0, "ratio"),
        "bench.host_calib_ms": (median(raw["host_calib_ms"]), "ms"),
    })
    samples = {
        "traced passes": len(traced),
        "untraced passes": len(untraced),
        "probe spans": len(probe_us),
        "stage sample (expanded states)": stages["sampled_parents"],
        "stage walk (states)": stages["walk_visited"],
    }
    return metrics, samples


def run_workload(binary, workload, seed, seconds, trace):
    """Measures one workload; returns the result object or None on error."""
    measured = measure(binary, workload, seed, seconds, trace)
    if measured is None:
        return None
    raw, events = measured
    if trace:
        metrics, samples = per_layer(raw, events)
    else:
        metrics, samples = end_to_end(raw)

    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print(f"   host_calib_ms: start {raw['host_calib_ms'][0]:.3f}, "
          f"end {raw['host_calib_ms'][-1]:.3f}")
    for name, count in samples.items():
        print(f"   samples: {name} = {count}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:32s} {value:16.6g} {unit}")
    for failure in raw["failures"]:
        print(f"   FAILED {failure}")
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result = run_workload(binary, workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 2
        results[workload] = result
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
