"""Replay the benchmark's generated ops through pabr and print what each produced.

    python3 tools/replay_ops.py [--src DIR] [--ops N] [--seed S] [--workdir DIR]

The `perfbench.workloads` generators (imported, never changed) make the
same `pabr compile`/`query` command lines as a benchmark run with that seed.
Each op runs in process through `pabr.cli.main`, imported from `--src`
(default: this tree's `src`), until N ops per workload have run. Ops that
exceed the benchmark's time budget on purpose are skipped and reported to
the generator as unfinished: rand3's heavy instances and fault chains of
20 links or more.

For each op one block is printed: workload, op number, the argv with paths
cut to their basenames, the exit code, stdout and stderr with the work
directory masked, and for a compile a hash of the snapshot it wrote.
Running the script once against each of two source trees and `diff`ing the
outputs shows every op whose answer changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def skipped(op: workloads.Op) -> bool:
    """Ops the benchmark expects to run past its budget."""
    if op.kb.chain_n is not None:
        return op.kb.chain_n >= workloads.CHAIN_FAILING[0]
    na, _, m = workloads.RAND3_HEAVY
    return len(op.kb.assumptions) == na and len(op.kb.clauses) == m


def run_op(main, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a result worth diffing too
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def snapshot_hash(argv: list[str]) -> str | None:
    if argv[0] != "compile":
        return None
    path = argv[argv.index("-o") + 1]
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def replay(main, name: str, n_ops: int, seed: int, workdir: str) -> None:
    ops = workloads.WORKLOADS[name](random.Random(seed), workdir)
    op = next(ops)
    done = 0
    while done < n_ops:
        if op is None:
            op = next(ops)
            continue
        if skipped(op):
            op = ops.send(False)
            continue
        done += 1
        rc, out, err = run_op(main, op.argv)
        print(f"== {name} {done}: {' '.join(os.path.basename(a) for a in op.argv)}")
        print(f"rc: {rc}")
        print(out.replace(workdir, "<work>"), end="")
        print(err.replace(workdir, "<work>"), end="")
        snap = snapshot_hash(op.argv)
        if snap is not None:
            print(f"snapshot: {snap}")
        op = ops.send(rc == 0)
    ops.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the pabr package")
    parser.add_argument("--ops", type=int, default=300, help="ops run per workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workdir", help="where the KB and snapshot files go (default: a temp dir)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from pabr import cli

    print(f"pabr from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for name in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"replay-{name}-", dir=args.workdir)
        try:
            replay(cli.main, name, args.ops, args.seed, workdir)
        finally:
            shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
