"""A slice of `tools/replay_ops.py`'s replay, pinned byte for byte.

The first OPS benchmark ops of each workload at seed 3 (compiles with and
without `--pi`, queries with and without `--snapshot`, `sdp` and `oracle`
queries) run in process through `pabr.cli.main`, and the printed blocks
must equal `tests/golden/replay_seed3.txt`. A change meant to keep every
answer keeps this file; a deliberate output change regenerates it with

    python3 tools/replay_ops.py --ops 40 --seed 3 > tests/golden/replay_seed3.txt

and says why. The full replay (300 ops, seeds 3 and 5, against a parent
tree) is still the gate for such changes; see README "Testing".
"""

import contextlib
import importlib.util
import io
import pathlib

from pabr.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "replay_seed3.txt"
OPS = 40
SEED = 3


def _replay_ops():
    spec = importlib.util.spec_from_file_location("replay_ops", ROOT / "tools" / "replay_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _blocks(text):
    return ["== " + b for b in ("\n" + text).split("\n== ")[1:]]


def test_replay_slice_matches_the_golden_file(tmp_path):
    replay_ops = _replay_ops()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for name in replay_ops.workloads.WORKLOADS:
            workdir = tmp_path / name
            workdir.mkdir()
            replay_ops.replay(main, name, OPS, SEED, str(workdir))
    got, want = out.getvalue(), GOLDEN.read_text()
    if got != want:
        pairs = zip(_blocks(got), _blocks(want))
        first = next(((g, w) for g, w in pairs if g != w), None)
        if first is None:
            message = f"{len(_blocks(got))} blocks printed, {len(_blocks(want))} expected"
        else:
            message = f"first differing op:\n--- got\n{first[0]}\n--- expected\n{first[1]}"
        raise AssertionError(message)
