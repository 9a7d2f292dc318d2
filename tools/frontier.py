"""Find how large some knowledge base shapes grow before pabr misses the op budget.

    python3 tools/frontier.py [--src DIR]

Shapes, each with its size parameter:

    chain   a fault chain of n links (`perfbench.workloads.chain_kb`),
            hypothesis p_n
    chain-pi
            the same chain compiled with `--pi`, then p_n asked with
            `--snapshot` on that snapshot
    rand3   random width-3 CNF over k assumptions and k propositions with
            round(2.4 k) clauses and one fact (`workloads.rand3_kb`),
            hypothesis a random clause of one or two literals
    union   n lines `clause -x_i | h` over n assumptions, hypothesis h
    union-oracle
            the same union, h asked with `--method oracle`
    causes-auto, causes-incexc, causes-sdp, causes-oracle
            r independent causes, lines `clause -x_i | -y_i | -z_i | h`
            over 3r assumptions, hypothesis h asked with `--method` auto,
            incexc, sdp or oracle: r disjoint three-literal support terms

A size is answered when, for every seed of SEEDS, `pabr compile` and
then `pabr query` without a snapshot (chain-pi: with it) both finish
within the benchmark's per-op budgets (`perfbench/worker.py`: 1 s and a
32 MB rise in resident memory, enforced by its `Runner`) with exit code
0, or 3 for a knowledge base that is inconsistent on its own. Each (size, seed) runs in a child
process of its own, one at a time, with pabr imported from `--src`
(default: this tree's `src`). Sizes double from the shape's smallest
until one is not answered, then bisect between the last answered size
and it, so `largest` is answered and `largest + 1` is not. A shape whose
cost is not monotone in size (rand3) may still miss at some smaller size.

One JSON line is printed per shape: the largest size answered (null when
not even the smallest is) and what stopped the next size (its seed, op,
status or exit code, and wall time), or null when MAX_SIZE was
answered. The `perfbench` modules are imported and never written. Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
# each shape with its smallest size; a `causes-M` shape queries with `--method M`
SMALLEST = {"chain": 1, "chain-pi": 1, "rand3": 2, "union": 1, "union-oracle": 1,
            "causes-auto": 1, "causes-incexc": 1, "causes-sdp": 1, "causes-oracle": 1}
# the largest size tried, so that a shape that never stops still ends
MAX_SIZE = 4096
# exit codes that are answers: a result, or "inconsistent without assumptions"
ANSWERED = (0, 3)
# a child that overruns both op budgets by this much is killed
CHILD_TIMEOUT_S = 60


def make_kb(shape: str, size: int, seed: int, workdir: str):
    """The knowledge base file of `shape` at `size` and the hypothesis to ask."""
    rng = random.Random(seed)
    path = os.path.join(workdir, f"{shape}{size}.pabr")
    if shape.startswith("chain"):
        return workloads.chain_kb(path, size, rng), ("v", f"p{size}")
    if shape == "rand3":
        kb = workloads.rand3_kb(path, rng, size, size, round(2.4 * size))
        return kb, workloads.clause_formula(workloads.random_clause(rng, kb))
    letters = "xyz" if shape.startswith("causes") else "x"
    names = [[f"{v}{i}" for v in letters] for i in range(size)]
    assumptions = [(name, round(rng.uniform(0.05, 0.95), 3)) for line in names for name in line]
    clauses = [tuple((True, name) for name in line) + ((False, "h"),) for line in names]
    return workloads.Kb(path, assumptions, ["h"], clauses).write(), ("v", "h")


def child(src: str, shape: str, size: int, seed: int) -> None:
    """Run compile, then query, under the budgets; print one JSON list of
    {op, status, rc, seconds}, stopping after the first op not answered."""
    sys.path.insert(0, src)
    from pabr import cli

    runner = worker.Runner()
    results = []
    suffix = shape.partition("-")[2]
    with_pi = suffix == "pi"
    method = "auto" if with_pi else suffix or "auto"
    with tempfile.TemporaryDirectory() as workdir:
        kb, hypothesis = make_kb(shape, size, seed, workdir)
        snap = kb.path + ".snap"
        query = workloads.query_op(kb, hypothesis, snap if with_pi else None, method)
        for op in (workloads.compile_op(kb, snap, with_pi), query):
            record = runner.run(cli.main, op)
            results.append({"op": op.kind, "status": record.status, "rc": record.rc,
                            "seconds": round(record.latency, 3)})
            if record.status != "done" or record.rc not in ANSWERED:
                break
    print(json.dumps(results))


def probe(src: str, shape: str, size: int) -> dict | None:
    """None when every seed's ops are answered at `size`, else what stopped one."""
    for seed in SEEDS:
        argv = [sys.executable, os.path.abspath(__file__), "--src", src,
                "--child", shape, str(size), str(seed)]
        stop = {"size": size, "seed": seed}
        try:
            done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {**stop, "status": f"killed after {CHILD_TIMEOUT_S} s"}
        try:
            results = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {**stop, "status": f"child exited {done.returncode} with no result"}
        last = results[-1]
        if last["status"] != "done" or last["rc"] not in ANSWERED:
            return {**stop, **last}
    return None


def frontier(src: str, shape: str) -> dict:
    """The largest answered size of `shape` and what stopped the next one."""
    largest, size = None, SMALLEST[shape]
    while True:
        stop = probe(src, shape, size)
        if stop:
            break
        largest = size
        if size >= MAX_SIZE:
            return {"shape": shape, "seeds": list(SEEDS), "largest": largest, "stopped": None}
        size = min(2 * size, MAX_SIZE)
    if largest is not None:
        low, high = largest, size
        while high - low > 1:
            mid = (low + high) // 2
            found = probe(src, shape, mid)
            if found:
                high, stop = mid, found
            else:
                low = mid
        largest = low
    return {"shape": shape, "seeds": list(SEEDS), "largest": largest, "stopped": stop}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the pabr package (default: this tree's src)")
    parser.add_argument("--child", nargs=3, metavar=("SHAPE", "SIZE", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if args.child:
        shape, size, seed = args.child
        child(src, shape, int(size), int(seed))
        return
    for shape in SMALLEST:
        print(json.dumps(frontier(src, shape)), flush=True)


if __name__ == "__main__":
    main()
