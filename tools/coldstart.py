"""Time what one pabr command costs from a cold process, start-up included.

    python3 tools/coldstart.py [--runs N] [--src DIR]

pabr answers one command per process, so every answer pays the
interpreter's start-up and pabr's imports before any reasoning runs; the
benchmark's in-process loop never sees that cost. This script runs
`python -m pabr query <burglar KB> -q burglary` (pabr imported from
`--src`, default this tree's `src`) and a bare interpreter (`python -c
pass`) N times each, as child processes, and prints one JSON line with
the median wall time of each in milliseconds:

    query_ms / bare_ms               pabr's bytecode cache absent: every
                                     run compiles pabr from source, as
                                     under PYTHONDONTWRITEBYTECODE=1
    query_cached_ms / bare_cached_ms pabr's bytecode cache present

The bare interpreter runs under the same two settings, so each query
figure has its own floor. The four kinds run in a rotating order within
each round, so a drift in machine speed falls on all of them alike. The
cache lives in `<src>/pabr/__pycache__`; it is moved aside for the
uncached runs and removed at the end unless it was there at the start.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BURGLAR_KB = """\
assumption a1 0.95
assumption a2 0.01
prop burglary alarm
clause -burglary | -a1 | alarm
clause -a2 | -a1 | alarm
clause burglary | a2 | -alarm
fact alarm
"""


def timed_run(argv: list[str], env: dict[str, str], cwd: str) -> float:
    """Wall time of one child run in milliseconds; a failed run raises."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=40, help="child runs of each kind")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the pabr package (default: this tree's src)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    cache = os.path.join(src, "pabr", "__pycache__")
    aside = cache + ".coldstart"
    shutil.rmtree(aside, ignore_errors=True)  # left by an interrupted run
    had_cache = os.path.isdir(cache)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    uncached_env = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as workdir:
        kb = os.path.join(workdir, "alarm.pabr")
        with open(kb, "w", encoding="ascii") as fh:
            fh.write(BURGLAR_KB)
        query = [sys.executable, "-m", "pabr", "query", kb, "-q", "burglary"]
        bare = [sys.executable, "-c", "pass"]
        timed_run(query, env, workdir)  # writes the bytecode cache
        kinds = {
            "query_ms": (query, uncached_env, False),
            "query_cached_ms": (query, env, True),
            "bare_ms": (bare, uncached_env, False),
            "bare_cached_ms": (bare, env, True),
        }
        times: dict[str, list[float]] = {name: [] for name in kinds}
        order = list(kinds)
        try:
            for i in range(args.runs):
                for name in order[i % 4:] + order[:i % 4]:
                    child, child_env, cached = kinds[name]
                    if not cached:
                        os.rename(cache, aside)
                    try:
                        times[name].append(timed_run(child, child_env, workdir))
                    finally:
                        if not cached:
                            os.rename(aside, cache)
        finally:
            if not had_cache:
                shutil.rmtree(cache, ignore_errors=True)
    result = {"runs": args.runs, "src": src}
    result.update({name: round(statistics.median(t), 2) for name, t in times.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
