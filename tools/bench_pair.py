"""Run the benchmark on two source trees in alternating order and compare medians.

    python3 tools/bench_pair.py --parent DIR [--change DIR] --seeds 1 2 3 4
                                [--seconds 25] [--workloads diag rand3]

For each seed, `perfbench/run.py --workload W` runs once in each tree for
every workload W of `--workloads` (default: all of `BENCHMARK.json`'s),
each from its own checkout (its own `perfbench/` and `src/`); the order
alternates, parent first on the first seed and change first on the next,
so a drift in machine speed falls on both sides alike. `--change` defaults
to the tree this script sits in. Before every run, `src/pabr/__pycache__`
is removed from the tree it runs in, so both trees' runs set up from the
same bytecode state, compiling pabr from source: `setup_s` includes that
compile, and a cache left in one tree would read as a set-up gain.

Per workload and end-to-end metric of `BENCHMARK.json` (read from the
change tree) one line is printed: the parent's and the change's median
over the seeds, their ratio, on how many seeds the change was better, and
the interquartile range of the parent's runs. A metric worse than its
bound (relative to the parent's median, in the direction the metric calls
worse) is flagged `WORSE`, and so is a run that was not correct. A line
per workload gives each side's `failed/attempted` op counts per seed and
names the seeds whose two runs attempted different op counts (a run stops
at a session boundary, so a different count is a different number of
sessions); it is flagged `MORE FAILURES` when the change's summed share of
failed ops is above the parent's. The exit code is 1 when anything was
flagged.

Only the standard library is used; `BENCHMARK.json` and `perfbench/` are
read and never written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_tree(tree: str, seed: int, seconds: float, workloads: list[str]) -> dict:
    """The results of one run of each of `workloads` in `tree`, by workload,
    each started with no bytecode cache of pabr in `tree`."""
    results = {}
    for workload in workloads:
        shutil.rmtree(os.path.join(tree, "src", "pabr", "__pycache__"), ignore_errors=True)
        argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
                "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: no {workload} result from {tree}, seed {seed}, "
                  f"exit {done.returncode}", file=sys.stderr)
    return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def failure_line(workload: str, results: dict, seeds: list[int]) -> tuple[str, bool]:
    """Each side's `failed/attempted` per seed, the seeds whose attempted
    counts differ, and whether the change's summed share of failed ops is
    above the parent's."""
    text, share = [f"{workload:6} failed/attempted"], {}
    for side in SIDES:
        text.append(f"{side} " + " ".join(f"{r['failed']}/{r['attempted']}" if r else "-"
                                          for r in results[side]))
        failed = sum(r["failed"] for r in results[side] if r)
        attempted = sum(r["attempted"] for r in results[side] if r)
        share[side] = failed / attempted if attempted else 0.0
    more = share["change"] > share["parent"]
    text.append(f"share parent {share['parent']:.4g} change {share['change']:.4g}")
    differ = [str(seed) for seed, p, c in zip(seeds, *(results[side] for side in SIDES))
              if p and c and p["attempted"] != c["attempted"]]
    if differ:
        text.append(f"attempted differs on seed(s) {' '.join(differ)}")
    return "  ".join(text) + ("  MORE FAILURES" if more else ""), more


def compare(runs: dict, spec: dict, workloads: list[str], seeds: list[int]) -> tuple[list[str], bool]:
    """Report lines and whether any metric or run was flagged."""
    lines, flagged = [], False
    for workload in workloads:
        results = {side: [run.get(workload) for run in runs[side]] for side in SIDES}
        for side in SIDES:
            bad = sum(not (r and r["correct"]) for r in results[side])
            if bad:
                lines.append(f"{workload}: {bad} {side} run(s) missing or not correct  WORSE")
                flagged = True
        line, more = failure_line(workload, results, seeds)
        lines.append(line)
        flagged |= more
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in zip(results["parent"], results["change"])
                if p and c and name in p["metrics"] and name in c["metrics"]
            ]
            if not pairs:
                continue
            parent = statistics.median(p for p, _ in pairs)
            change = statistics.median(c for _, c in pairs)
            wins = sum(c < p if lower else c > p for p, c in pairs)
            q1, q3 = quartiles([p for p, _ in pairs])
            ratio = change / parent if parent else 1.0 if change == parent else float("inf")
            worse = ratio > 1 + metric["bound"] if lower else ratio < 1 - metric["bound"]
            flagged |= worse
            lines.append(
                f"{workload:6} {name:16} parent {parent:10.4g}  change {change:10.4g}  "
                f"x{ratio:.3f}  better {wins}/{len(pairs)}  parent IQR {q3 - q1:.3g} "
                f"{metric['unit']}{'  WORSE' if worse else ''}"
            )
    return lines, flagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=ROOT, help="checkout of the change (default: this tree)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", nargs="+", help="workloads to run (default: all)")
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {' '.join(unknown)}; choose from {' '.join(known)}")

    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(args.seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_tree(trees[side], seed, args.seconds, workloads))

    lines, flagged = compare(runs, spec, workloads, args.seeds)
    print(f"medians over seeds {' '.join(map(str, args.seeds))}, ratio change/parent")
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
