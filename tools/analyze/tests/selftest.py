#!/usr/bin/env python3
"""Self-test for tools/analyze/lint.py against the fixture corpus.

For every rule directory under fixtures/ there is one `good` mini-tree and
one or more `bad*` mini-trees. The good tree must lint clean for that rule
(exit 0, no output); each bad tree must produce at least one finding OF THAT
RULE and exit 1. A tree's src/ and, when present, examples/ are linted.
Registered as the `analyze_selftest` ctest so tier-1 catches linter
regressions.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, os.pardir, "lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(root, rule):
    paths = [p for p in ("src", "examples") if os.path.isdir(os.path.join(root, p))]
    return subprocess.run(
        [sys.executable, LINT, "--root", root, "--rules", rule] + paths,
        capture_output=True, text=True)


def main():
    rules = sorted(os.listdir(FIXTURES))
    if not rules:
        print("selftest: no fixtures found", file=sys.stderr)
        return 1
    failures = []
    for rule in rules:
        good = run_lint(os.path.join(FIXTURES, rule, "good"), rule)
        if good.returncode != 0:
            failures.append(
                f"[{rule}] good fixture should be clean, got exit "
                f"{good.returncode}:\n{good.stdout}{good.stderr}")
        bad_trees = sorted(d for d in os.listdir(os.path.join(FIXTURES, rule))
                           if d.startswith("bad"))
        for tree in bad_trees:
            bad = run_lint(os.path.join(FIXTURES, rule, tree), rule)
            if bad.returncode != 1:
                failures.append(
                    f"[{rule}] {tree} fixture should exit 1, got "
                    f"{bad.returncode}:\n{bad.stdout}{bad.stderr}")
            elif f"[{rule}]" not in bad.stdout:
                failures.append(
                    f"[{rule}] {tree} fixture findings do not mention the rule:\n"
                    f"{bad.stdout}")
            else:
                print(f"ok {rule}: good clean, {tree} caught "
                      f"({bad.stdout.count('[' + rule + ']')} finding(s))")
    # The allow grammar itself: a reason-less allow and a stale allow must
    # both be rejected even though they name a real rule.
    meta_root = os.path.join(FIXTURES, "atomics-discipline", "good")
    meta = subprocess.run(
        [sys.executable, LINT, "--root", meta_root, "src"],
        capture_output=True, text=True)
    if meta.returncode != 0:
        failures.append(
            f"[meta] full-rule run over the atomics good fixture should pass:\n"
            f"{meta.stdout}{meta.stderr}")
    else:
        print("ok meta: allow annotation accepted under the full rule set")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"selftest: {len(rules)} rules verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
