"""pabr benchmark: one workload run in a fresh child process.

    python3 perfbench/run.py --workload alarm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its `src/`.
The child (worker.py) prints a readable summary and, as its last line, the
result object; with --workload all every workload runs in turn and the last
line maps each workload to its result. The exit code is non-zero when an
answer was wrong, the child failed, or the run overran its deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("alarm", "chain", "rand3", "diag")
DEADLINE_S = 170.0  # the whole run, set-up and checking included


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=DEADLINE_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} run exceeded {DEADLINE_S:g} s", file=sys.stderr)
        return 3, ""
    return done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "pabr")):
        print(f"error: no pabr sources under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        if code not in (0, 1) or not out.strip():
            print(out, end="", file=sys.stderr)
            return code or 3
        print(out, end="")
        return code

    results, worst = {}, 0
    for workload in WORKLOADS:
        started = time.perf_counter()
        code, out = run_one(workload, args.seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        print(f"== {workload} ({time.perf_counter() - started:.1f} s, exit {code})")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if code in (0, 1) and lines else None
        worst = max(worst, code if results[workload] else 3)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
