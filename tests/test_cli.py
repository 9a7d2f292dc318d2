"""End-to-end command line behavior, run in process."""

import contextlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabr import errors
from pabr.cli import main
from pabr.consequence import fingerprint, read_snapshot
from pabr.kbfile import build_kb, parse_kb_text
from pabr.logic import parse_formula
from pabr.support import minimal_quasi_supports

import helpers

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

THREE_SUPPORTERS = """\
assumption a1 0.5
assumption a2 0.5
assumption a3 0.5
prop p
clause -a1 | p
clause -a2 | p
clause -a3 | p
"""


@pytest.fixture()
def kb_path(tmp_path):
    def write(text, name="kb.pabr"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compile ---------------------------------------------------------------------


def test_compile_burglar_snapshot_is_trivial(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, err = run(capsys, "compile", path)
    assert code == 0 and err == ""
    assert "snapshot written" in out
    kb, _table = build_kb(parse_kb_text(helpers.BURGLAR_TEXT))
    state = read_snapshot(path + ".snap", kb.alphabet, kb.sigma_k)
    # R1-R3 alone admit every configuration, so only the seeds survive
    assert all(c.is_tautology for c in state.carc)
    assert len(state.carc) == 2


def test_compile_custom_output_and_derived_clause(kb_path, tmp_path, capsys):
    text = "assumption a1 0.5\nprop p\nclause -a1 | p\nclause -p\n"
    path = kb_path(text)
    out_path = str(tmp_path / "custom.snap")
    code, out, _err = run(capsys, "compile", path, "-o", out_path)
    assert code == 0
    kb, _table = build_kb(parse_kb_text(text))
    state = read_snapshot(out_path, kb.alphabet, kb.sigma_k)
    a1 = kb.alphabet.lookup("a1")
    assert helpers.clause((a1, False)) in state.carc


def test_compile_with_prime_implicates(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, _err = run(capsys, "compile", path, "--pi")
    assert code == 0
    assert "prime implicate" in out
    snap = (path + ".snap")
    assert "[pi]" in open(snap).read()


def test_compile_parse_error(kb_path, capsys):
    path = kb_path("assumption a1 1.5\n")
    code, _out, err = run(capsys, "compile", path)
    assert code == 2
    assert "error:" in err and "line 1" in err


def test_compile_plain_inconsistency(kb_path, capsys):
    path = kb_path("prop p\nclause p\nclause -p\n")
    code, _out, err = run(capsys, "compile", path)
    assert code == 3
    assert "inconsistent" in err


# --- query -----------------------------------------------------------------------


def test_query_burglar_golden(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, err = run(capsys, "query", path, "-q", "burglary")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "hypothesis": "burglary",
        "mqs": [["-a2"]],
        "mc": [],
        "qs_prob": 0.99,
        "contradiction_prob": 0.0,
        "support": 0.99,
        "method": "shannon_expansion",
    }


def test_query_in_a_fresh_interpreter_loads_neither_dataclasses_nor_inspect(kb_path):
    # each command runs in its own process, so every module pabr imports is
    # part of every answer's cost
    script = (
        "import sys\n"
        "from pabr.cli import main\n"
        f"code = main(['query', {kb_path(helpers.BURGLAR_TEXT)!r}, '-q', 'burglary'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = str(README.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    *answer, modules = done.stdout.splitlines()
    assert json.loads("\n".join(answer))["support"] == 0.99
    assert modules == "0 []"


def _readme_kb_text():
    readme = README.read_text()
    kb_text = readme.split("A knowledge base file (`alarm.pabr`):\n\n```\n", 1)[1]
    return kb_text.split("```", 1)[0]


def test_query_readme_burglar_example_prints_the_documented_line(kb_path, capsys):
    readme = README.read_text()
    path = kb_path(_readme_kb_text(), name="alarm.pabr")
    documented = readme.split("$ pabr query alarm.pabr -q burglary\n", 1)[1].splitlines()[0]
    code, out, err = run(capsys, "query", path, "-q", "burglary")
    assert code == 0 and err == ""
    assert out == documented + "\n"


def test_query_output_is_byte_stable(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    _, first, _ = run(capsys, "query", path, "-q", "burglary | alarm")
    _, second, _ = run(capsys, "query", path, "-q", "burglary | alarm")
    assert first == second


def test_query_via_snapshot_matches_direct(kb_path, capsys):
    # the burglar fact folds into [carc], or through [pi] with --pi
    path = kb_path(helpers.BURGLAR_TEXT)
    _, direct, _ = run(capsys, "query", path, "-q", "burglary")
    for compile_flags in ((), ("--pi",)):
        assert run(capsys, "compile", path, *compile_flags)[0] == 0
        _, snapped, _ = run(
            capsys, "query", path, "-q", "burglary", "--snapshot", path + ".snap"
        )
        assert direct == snapped


def test_query_snapshot_must_share_the_kb_clause_set(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    _, direct, _ = run(capsys, "query", path, "-q", "burglary")
    assert run(capsys, "compile", path)[0] == 0
    lines = helpers.BURGLAR_TEXT.splitlines(keepends=True)
    clauses = [line for line in lines if line.startswith("clause ")]
    rest = [line for line in lines if not line.startswith("clause ")]
    # reversed order plus a duplicate line: the same clause set, accepted
    kb_path("".join(rest + clauses[::-1] + clauses[:1]))
    code, snapped, err = run(capsys, "query", path, "-q", "burglary", "--snapshot", path + ".snap")
    assert code == 0 and err == "" and snapped == direct
    # a deleted clause line: the snapshot is stale
    kb_path(helpers.BURGLAR_TEXT.replace("clause burglary | a2 | -alarm\n", ""))
    code, out, err = run(capsys, "query", path, "-q", "burglary", "--snapshot", path + ".snap")
    assert code == 2
    assert out == "" and err.startswith("error:") and "kb.pabr.snap" in err
    # the same clause line under flipped symbol kinds: prop b redeclared as
    # an assumption (the stale snapshot answered 0.5 where the KB gives
    # 0.333333333333), and assumption b redeclared as a prop
    b_decl = {"prop": "prop b\n", "assumption": "assumption b 0.5\n"}
    for compiled, queried in (("prop", "assumption"), ("assumption", "prop")):
        path = kb_path("assumption a1 0.5\n" + b_decl[compiled] + "clause -b | -a1\n")
        assert run(capsys, "compile", path)[0] == 0
        kb_path("assumption a1 0.5\n" + b_decl[queried] + "clause -b | -a1\n")
        code, out, err = run(capsys, "query", path, "-q", "a1", "--snapshot", path + ".snap")
        assert code == 2
        assert out == "" and err.startswith("error:") and "kb.pabr.snap" in err


TWO_CAUSES = """\
assumption a1 0.5
assumption a2 0.5
prop p
clause -a1 | p
clause -a2 | -p
"""


def _edit_line(section, line, *replacement):
    """An edit that replaces `line` of snapshot section `section` (deletes it by default)."""

    def edit(lines):
        start = lines.index(f"[{section}]")
        at = lines.index(line, start)
        assert not any(l.startswith("[") for l in lines[start + 1 : at])
        lines[at : at + 1] = replacement

    return edit


SNAPSHOT_EDITS = {
    # the carc line -a1 | -a2 (contradiction a1 & a2) gone: without the
    # fingerprint this answered support 0.5 where the KB gives 0.333333333333
    "carc_line_deleted": ((), _edit_line("carc", "-a1 | -a2")),
    "pi_line_edited": (("--pi",), _edit_line("pi", "-a1 | -a2", "-a1")),
    "fingerprint_line_deleted": ((), lambda lines: lines.pop(0)),
    "comment_added": (("--pi",), lambda lines: lines.append("# note")),
}


@pytest.mark.parametrize("edit", sorted(SNAPSHOT_EDITS))
def test_query_refuses_an_edited_snapshot(kb_path, capsys, edit):
    flags, change = SNAPSHOT_EDITS[edit]
    path = kb_path(TWO_CAUSES)
    _, direct, _ = run(capsys, "query", path, "-q", "p")
    assert json.loads(direct)["support"] == 0.333333333333
    assert run(capsys, "compile", path, *flags)[0] == 0
    snap = pathlib.Path(path + ".snap")
    lines = snap.read_text().splitlines()
    assert lines[0].startswith("# fingerprint sha256 ")
    change(lines)
    snap.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "query", path, "-q", "p", "--snapshot", str(snap))
    assert code == 2 and out == ""
    assert err.startswith("error: snapshot ") and "kb.pabr.snap" in err
    assert "compile it again" in err


KB_EDITS = {
    "clause_line_changed": ("clause -a2 | -p\n", "clause -a2 | p\n"),
    "symbol_declared": ("prop p\n", "prop p q\n"),
}


@pytest.mark.parametrize("edit", sorted(KB_EDITS))
def test_query_refuses_a_snapshot_of_another_kb(kb_path, capsys, edit):
    path = kb_path(TWO_CAUSES)
    assert run(capsys, "compile", path, "--pi")[0] == 0
    kb_path(TWO_CAUSES.replace(*KB_EDITS[edit]))
    code, out, err = run(capsys, "query", path, "-q", "p", "--snapshot", path + ".snap")
    assert code == 2 and out == ""
    assert err.startswith("error: snapshot ") and "kb.pabr.snap" in err


KB_KEEPING_EDITS = {
    "declarations_reordered": "assumption a2 0.5\nassumption a1 0.5\nprop p\n"
    "clause -a1 | p\nclause -a2 | -p\n",
    "clauses_respelled": "assumption a1 0.5\nassumption a2 0.5\nprop p\n"
    "clause p | -a1 | p\nclause !p | -a2\n",
    "probabilities_changed": TWO_CAUSES.replace("a1 0.5", "a1 0.25").replace("a2 0.5", "a2 0.9"),
    "fact_added": TWO_CAUSES + "fact -a2\n",
}


@pytest.mark.parametrize("flags", [(), ("--pi",)])
@pytest.mark.parametrize("edit", sorted(KB_KEEPING_EDITS))
def test_query_accepts_a_snapshot_of_the_same_clauses(kb_path, capsys, edit, flags):
    path = kb_path(TWO_CAUSES)
    assert run(capsys, "compile", path, *flags)[0] == 0
    kb_path(KB_KEEPING_EDITS[edit])
    _, direct, _ = run(capsys, "query", path, "-q", "p")
    code, snapped, err = run(capsys, "query", path, "-q", "p", "--snapshot", path + ".snap")
    assert code == 0 and err == "" and snapped == direct


# What `compile` wrote for the README burglar KB when the fingerprint line
# was introduced. The fingerprint bytes are part of the file format: a
# snapshot written then must keep being accepted.
README_SNAPSHOTS = {
    "plain": """\
# fingerprint sha256 83ff67d93c64d5ada24ed1df4a39d469a9c56c8eafd43e79073fcf54a65f5f8c
[carc]
a1 | -a1
a2 | -a2
[processed]
-a1 | -burglary | alarm
-a1 | -a2 | alarm
a2 | burglary | -alarm
""",
    "pi": """\
# fingerprint sha256 70af856808fe758ceace64e6ad95a454cecb72a7b53c5f30fa28bc4842cfbf40
[carc]
a1 | -a1
a2 | -a2
[pi]
a1 | -a1
-a1 | -a2 | alarm
-a1 | -burglary | alarm
a2 | -a2
a2 | burglary | -alarm
burglary | -burglary
alarm | -alarm
[processed]
-a1 | -burglary | alarm
-a1 | -a2 | alarm
a2 | burglary | -alarm
""",
}


@pytest.mark.parametrize("kind", sorted(README_SNAPSHOTS))
def test_readme_snapshot_is_byte_stable_and_accepted(kb_path, tmp_path, capsys, kind):
    path = kb_path(_readme_kb_text(), name="alarm.pabr")
    out_path = tmp_path / "alarm.snap"
    flags = ("--pi",) if kind == "pi" else ()
    assert run(capsys, "compile", path, "-o", str(out_path), *flags)[0] == 0
    assert out_path.read_text() == README_SNAPSHOTS[kind]
    stored = tmp_path / "stored.snap"
    stored.write_text(README_SNAPSHOTS[kind])
    _, direct, _ = run(capsys, "query", path, "-q", "burglary")
    code, snapped, err = run(capsys, "query", path, "-q", "burglary", "--snapshot", str(stored))
    assert code == 0 and err == "" and snapped == direct


def test_query_on_a_resigned_snapshot_with_a_proposition_literal_exits_2(kb_path, capsys):
    # a forged [carc] line with a correct fingerprint gets past the check;
    # reading quasi-supports off it fails and must not end in a traceback
    path = kb_path(TWO_CAUSES)
    assert run(capsys, "compile", path)[0] == 0
    snap = pathlib.Path(path + ".snap")
    _, sections = snap.read_text().split("\n", 1)
    sections = sections.replace("[carc]\n", "[carc]\n-a1 | p\n", 1)
    # the fingerprinted text of TWO_CAUSES, as the README describes it
    source = (
        "a1 assumption\na2 assumption\np proposition\n"
        "clause -a1 | p\nclause -a2 | -p"
    )
    snap.write_text(f"# fingerprint sha256 {fingerprint(source, sections)}\n{sections}")
    code, out, err = run(capsys, "query", path, "-q", "p", "--snapshot", str(snap))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "proposition p" in err


@pytest.mark.parametrize("method", ["auto", "oracle"])
@pytest.mark.parametrize(
    "deep, shallow",
    [
        ("(" * 600 + "burglary" + ")" * 600, "burglary"),
        ("(" * 100_000 + "burglary" + ")" * 100_000, "burglary"),
        (" & ".join(["burglary"] * 3000), "burglary"),
        ("!" * 3001 + "burglary", "!burglary"),
        (" -> ".join(["burglary"] * 3000), "burglary -> burglary"),
    ],
    ids=[
        "nested_parentheses",
        "nested_parentheses_100k",
        "flat_conjunction",
        "negations",
        "implication_chain",
    ],
)
def test_query_deep_formula_answers_like_its_shallow_equivalent(
    kb_path, capsys, deep, shallow, method
):
    # parse, clause form and evaluation run on explicit stacks, so nesting
    # far past the recursion limit answers; deep Formula trees are never
    # compared with ==, which recurses
    path = kb_path(helpers.BURGLAR_TEXT)
    start = time.perf_counter()
    code, out, err = run(capsys, "query", path, "-q", deep, "--method", method)
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    answer = json.loads(out)
    assert answer.pop("hypothesis") == deep
    code, out, _ = run(capsys, "query", path, "-q", shallow, "--method", method)
    assert code == 0
    expected = json.loads(out)
    expected.pop("hypothesis")
    assert answer == expected
    assert elapsed < 2


@pytest.mark.parametrize(
    "n, method",
    [(14, "auto"), (24, "auto"), (24, "sdp"), (30, "incexc")],
    ids=["14", "24", "24-sdp", "30-incexc"],
)
def test_query_union_of_independent_causes_stays_small(kb_path, capsys, n, method):
    # n causes of three assumptions each, over disjoint symbols: a sum of
    # disjoint products would split the last term into 3^(n-1) fragments,
    # and inclusion-exclusion walks 2^n subsets, so those two methods stop
    # at their work budget
    lines = [f"assumption x{i}_{k} 0.5" for i in range(n) for k in range(3)]
    lines.append("prop h")
    lines += [f"clause -x{i}_0 | -x{i}_1 | -x{i}_2 | h" for i in range(n)]
    path = kb_path("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "query", path, "-q", "h", "--method", method)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    if method != "auto":
        assert code == 1 and out == "" and err.startswith("error:")
        return
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert len(payload["mqs"]) == n
    assert payload["method"] == "shannon_expansion"
    assert payload["support"] == pytest.approx(1 - (7 / 8) ** n, abs=1e-11)


def test_query_auto_stops_at_the_shannon_budget(kb_path, capsys):
    # 100 causes of three assumptions each, drawn from 40: the union's
    # Shannon expansion needs far more split nodes than its budget
    rng = random.Random(40)
    triples = set()
    while len(triples) < 100:
        triples.add(tuple(sorted(rng.sample(range(40), 3))))
    lines = [f"assumption a{i} 0.5" for i in range(40)] + ["prop h"]
    lines += [f"clause -a{i} | -a{j} | -a{k} | h" for i, j, k in sorted(triples)]
    path = kb_path("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "query", path, "-q", "h")
    assert time.perf_counter() - start < 3
    assert code == 1 and out == ""
    assert err.startswith("error: Shannon expansion of 100 terms splits more than")


def test_query_sdp_on_eleven_independent_causes_stays_small(kb_path):
    # the splitter makes (3^11 - 1) / 2 fragments; summed as masks, not as
    # one term view each, they stay well under the budget and 64 MB
    lines = [f"assumption x_{i} 0.5" for i in range(33)] + ["prop h"]
    lines += [f"clause -x_{3 * i} | -x_{3 * i + 1} | -x_{3 * i + 2} | h" for i in range(11)]
    path = kb_path("\n".join(lines) + "\n")
    # a small parent process reports the child's peak: a child forked from
    # this test process would count this process's memory as its own
    measure = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run(sys.argv[1:]).returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = [sys.executable, "-m", "pabr", "query", path, "-q", "h", "--method", "sdp"]
    done = subprocess.run(
        [sys.executable, "-c", measure, *argv],
        env={**os.environ, "PYTHONPATH": str(README.parent / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    answer, last = done.stdout.splitlines()
    code, peak_kb = map(int, last.split())
    assert code == 0
    assert json.loads(answer)["support"] == 0.769808870857
    assert peak_kb < 64 * 1024


def _unit_causes(n):
    lines = [f"assumption x{i} 0.5" for i in range(n)]
    lines.append("prop h")
    lines += [f"clause -x{i} | h" for i in range(n)]
    return "\n".join(lines) + "\n"


def test_compile_many_unit_causes_merges_instead_of_reminimizing(kb_path, capsys):
    # no fold changes carc, so merging compares no two carc members and
    # the folds stay linear in the carc size each
    path = kb_path(_unit_causes(400))
    start = time.perf_counter()
    code, out, err = run(capsys, "compile", path)
    assert time.perf_counter() - start < 3.0
    assert code == 0 and err == ""
    assert out.startswith("compiled 400 clause(s): 400 characteristic clause(s)")


@pytest.mark.parametrize(
    "method", [["incexc"], ["bounds", "--l", "549"]], ids=["incexc", "bounds"]
)
def test_query_subset_walk_past_the_recursion_limit_hits_the_budget(kb_path, capsys, method):
    # 1 100 unit quasi-supports: the subset walk nests 1 100 deep
    path = kb_path(_unit_causes(1100))
    code, out, err = run(capsys, "query", path, "-q", "h", "--method", *method)
    assert code == 1 and out == "" and err.startswith("error:")


def test_query_oracle_method_agrees(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    _, engine_out, _ = run(capsys, "query", path, "-q", "burglary")
    code, oracle_out, _ = run(
        capsys, "query", path, "-q", "burglary", "--method", "oracle"
    )
    assert code == 0
    engine, oracle = json.loads(engine_out), json.loads(oracle_out)
    assert oracle["method"] == "oracle"
    assert oracle["support"] == engine["support"]
    assert oracle["mqs"] == engine["mqs"]


def test_query_tautology(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, _ = run(capsys, "query", path, "-q", "burglary | !burglary")
    assert code == 0
    payload = json.loads(out)
    assert payload["mqs"] == [[]]
    assert payload["support"] == 1.0


def test_query_bounds_method(kb_path, capsys):
    path = kb_path(THREE_SUPPORTERS)
    code, out, _ = run(capsys, "query", path, "-q", "p", "--method", "bounds")
    assert code == 0
    payload = json.loads(out)
    assert payload["bounds"] == [0.75, 0.875]
    assert payload["support"] == 0.875
    assert payload["method"] == "bounds"


def test_query_bounds_precondition_exit_code(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, _out, err = run(capsys, "query", path, "-q", "burglary", "--method", "bounds")
    assert code == 4
    assert "exact" in err


def test_query_formula_parse_error(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, _out, err = run(capsys, "query", path, "-q", "burglary &")
    assert code == 2 and "error:" in err
    code, _out, err = run(capsys, "query", path, "-q", "ghost")
    assert code == 2 and "ghost" in err


def test_query_total_inconsistency(kb_path, capsys):
    path = kb_path("assumption a1 0.5\nclause a1\nclause -a1\n")
    code, _out, err = run(capsys, "query", path, "-q", "a1")
    assert code == 3
    assert "every assumption configuration" in err


def test_query_oracle_enforces_enumeration_limit(kb_path, capsys):
    decls = "".join(f"assumption a{i} 0.5\n" for i in range(1, 12))
    decls += "prop " + " ".join(f"p{i}" for i in range(1, 11)) + "\n"
    path = kb_path(decls)
    code, _out, err = run(capsys, "query", path, "-q", "p1", "--method", "oracle")
    assert code == 1
    assert "limit" in err


def test_query_oracle_answers_at_the_symbol_limit(kb_path, capsys):
    # 19 lines `clause -x_i | h`: 20 symbols, 2^19 configurations, within
    # the benchmark's per-op memory budget of 32 MB
    qs = [round(0.05 + 0.045 * i, 3) for i in range(19)]
    lines = [f"assumption x{i} {q}" for i, q in enumerate(qs)] + ["prop h"]
    lines += [f"clause -x{i} | h" for i in range(19)]
    path = kb_path("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "query", path, "-q", "h", "--method", "oracle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert peak < 32 * 2**20
    payload = json.loads(out)
    assert payload["method"] == "oracle"
    assert payload["support"] == pytest.approx(1 - math.prod(1 - q for q in qs), abs=1e-9)


def _random_fact_kb(rng):
    """KB text over a1.. and p1..: width 1-3 `clause` lines, then `fact`
    lines that are mostly units; and clause hypotheses over the same symbols."""
    n_assum, n_props = rng.randint(1, 4), rng.randint(1, 4)
    names = [f"a{i}" for i in range(1, n_assum + 1)] + [f"p{i}" for i in range(1, n_props + 1)]
    lines = [f"assumption {a} {rng.choice(helpers.Q_CHOICES)}" for a in names[:n_assum]]
    lines.append("prop " + " ".join(names[n_assum:]))

    def literals(width):
        return [rng.choice(["", "-"]) + n for n in rng.sample(names, min(width, len(names)))]

    lines += ["clause " + " | ".join(literals(rng.randint(1, 3))) for _ in range(rng.randint(1, 6))]
    lines += [
        "fact " + " | ".join(literals(1 if rng.random() < 0.8 else 2))
        for _ in range(rng.randint(1, 4))
    ]
    hypotheses = [" | ".join(literals(rng.randint(1, 2))).replace("-", "!") for _ in range(3)]
    return "\n".join(lines) + "\n", hypotheses


def test_fact_queries_on_a_pi_snapshot_match_the_other_routes(kb_path, capsys):
    # unit facts and negated unit hypotheses fold into [pi] by conditioning:
    # the bytes printed must equal a plain query's and a carc-only snapshot's
    rng = random.Random(4099)
    codes = []
    for i in range(60):
        text, hypotheses = _random_fact_kb(rng)
        path = kb_path(text, name=f"kb{i}.pabr")
        if run(capsys, "compile", path, "-o", path + ".carc")[0] != 0:
            continue  # the knowledge alone is inconsistent: exit 3
        assert run(capsys, "compile", path, "--pi", "-o", path + ".pi")[0] == 0
        for h in hypotheses:
            plain = run(capsys, "query", path, "-q", h)
            for snap in (path + ".carc", path + ".pi"):
                assert run(capsys, "query", path, "-q", h, "--snapshot", snap) == plain, (text, h)
            codes.append(plain[0])
    assert codes.count(0) > 60 and codes.count(3) > 10


def test_facts_and_knowledge_clauses_are_interchangeable(kb_path, capsys):
    as_fact = kb_path(helpers.BURGLAR_TEXT, name="fact.pabr")
    as_clause = kb_path(
        helpers.BURGLAR_TEXT.replace("fact alarm", "clause alarm"), name="clause.pabr"
    )
    _, fact_out, _ = run(capsys, "query", as_fact, "-q", "burglary")
    _, clause_out, _ = run(capsys, "query", as_clause, "-q", "burglary")
    assert fact_out == clause_out


# --- check -----------------------------------------------------------------------


def test_check_consistent(kb_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out.strip() == "consistent"


def test_check_lists_contradictions(kb_path, capsys):
    path = kb_path("assumption a1 0.5\nprop p\nclause -a1 | p\nclause -p\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 1
    assert "a1" in out


def test_check_plain_inconsistency(kb_path, capsys):
    path = kb_path("prop p\nclause p\nclause -p\n")
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    assert "without any assumptions" in out


CONTRADICTING = """\
assumption a1 0.5
assumption a2 0.3
assumption a3 0.8
assumption a4 0.6
prop p q
clause -a1 | p
clause -a2 | p
clause -a3 | q
clause -a2 | -a4 | q
clause -p | -q | -a4
"""


def test_query_and_check_render_from_masks(kb_path, capsys, monkeypatch):
    # past the fold the commands compute and print from literal bitmasks:
    # with literal and term rendering and sorting disabled, every answer,
    # contradiction listing and error line is still the same bytes
    from pabr.logic import Literal, _LiteralSet

    runs = []
    for name, text, hypotheses in (
        ("burglar.pabr", helpers.BURGLAR_TEXT, ["burglary", "alarm | !burglary", "a1 & !a2"]),
        ("contra.pabr", CONTRADICTING, ["p", "p | q", "q & p", "!p"]),
    ):
        path = kb_path(text, name)
        runs.append(["check", path])
        for h in hypotheses:
            for method in ("auto", "incexc", "sdp", "bounds"):
                runs.append(["query", path, "-q", h, "--method", method])
    unpatched = [run(capsys, *argv) for argv in runs]

    def refuse(*_args):
        raise AssertionError("a literal view was rendered or sorted")

    monkeypatch.setattr(Literal, "__str__", refuse)
    monkeypatch.setattr(_LiteralSet, "sorted_literals", property(refuse))
    monkeypatch.setattr(_LiteralSet, "sort_key", property(refuse))
    assert [run(capsys, *argv) for argv in runs] == unpatched
    assert {code for code, _, _ in unpatched} == {0, 1, 4}


def test_query_builds_no_term_or_literal_view(kb_path, capsys, monkeypatch):
    # a query prints its terms from masks, so under every method it makes
    # no `Term` and no `Literal`; the library's sets still hold the views
    from pabr.logic import Literal, Term

    runs = []
    for name, text, hypotheses in (
        ("burglar.pabr", helpers.BURGLAR_TEXT, ["burglary", "alarm | !burglary", "a1 & !a2"]),
        ("chain.pabr", helpers.chain_text(6), ["p6", "p2 & !p3"]),
    ):
        path = kb_path(text, name)
        for h in hypotheses:
            for method in ("auto", "incexc", "sdp", "bounds"):
                runs.append(["query", path, "-q", h, "--method", method])
    built = []
    for cls in (Term, Literal):
        init = cls.__init__

        def counting(self, *args, _init=init):
            built.append(self)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    assert {run(capsys, *argv)[0] for argv in runs} == {0, 4}
    assert built == []
    kb, _table = build_kb(parse_kb_text(helpers.chain_text(6)))
    hypothesis = parse_formula("p6", kb.alphabet)
    sets = minimal_quasi_supports(kb, hypothesis)
    assert built == []
    assert sets.mqs == {kb.alphabet.term_of(m) for m in sets.mqs_masks} and len(sets.mqs) == 7
    assert sets.mc == frozenset()


def test_check_parse_error(kb_path, capsys):
    path = kb_path("prop p\nclause q\n")
    code, _out, err = run(capsys, "check", path)
    assert code == 2 and "q" in err


# --- exit codes ------------------------------------------------------------------


def _error_types(root):
    found = [root]
    for sub in root.__subclasses__():
        found += _error_types(sub)
    return found


EXIT_CODES = {
    errors.EnumerationLimitError: 1,
    errors.TotalInconsistencyError: 3,
    errors.BoundsPreconditionError: 4,
}
RAISED = {cls: cls("injected failure") for cls in _error_types(errors.PabrError)}
RAISED[OSError] = OSError("injected failure")
RAISED[UnicodeDecodeError] = UnicodeDecodeError("utf-8", b"\xe9", 0, 1, "injected failure")


@pytest.mark.parametrize("error_type", list(RAISED), ids=lambda cls: cls.__name__)
def test_every_failure_maps_to_its_exit_code(kb_path, capsys, monkeypatch, error_type):
    # every package error, wherever a command raises it, gets an exit code
    # and an error line instead of a traceback
    def fail(*args, **kwargs):
        raise RAISED[error_type]

    monkeypatch.setattr("pabr.support.minimal_quasi_supports", fail)
    path = kb_path(helpers.BURGLAR_TEXT)
    expected = next(
        (code for cls, code in EXIT_CODES.items() if issubclass(error_type, cls)), 2
    )
    code, out, err = run(capsys, "query", path, "-q", "burglary")
    assert code == expected and out == ""
    assert err == f"error: {RAISED[error_type]}\n"


# --- files -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv", [("compile",), ("query", "-q", "burglary"), ("check",)]
)
def test_missing_kb_file_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.pabr")
    code, _out, err = run(capsys, argv[0], missing, *argv[1:])
    assert code == 2
    assert err.startswith("error:") and "absent.pabr" in err


def test_undecodable_kb_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.pabr"
    path.write_bytes(b"prop caf\xe9\n")
    code, _out, err = run(capsys, "check", str(path))
    assert code == 2 and err.startswith("error:")


def test_kb_file_with_a_byte_order_mark_reads_as_without_one(kb_path, tmp_path, capsys):
    plain = kb_path(helpers.BURGLAR_TEXT)
    marked = tmp_path / "bom.pabr"
    marked.write_bytes(b"\xef\xbb\xbf" + helpers.BURGLAR_TEXT.encode())
    for argv in (("query", "-q", "burglary"), ("query", "-q", "!alarm | a1"), ("check",)):
        want = run(capsys, argv[0], plain, *argv[1:])
        assert want[0] == 0
        assert run(capsys, argv[0], str(marked), *argv[1:]) == want


def test_missing_snapshot_exits_2(kb_path, tmp_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    missing = str(tmp_path / "absent.snap")
    code, _out, err = run(capsys, "query", path, "-q", "burglary", "--snapshot", missing)
    assert code == 2
    assert err.startswith("error:") and "absent.snap" in err


def test_unwritable_snapshot_path_exits_2(kb_path, tmp_path, capsys):
    path = kb_path(helpers.BURGLAR_TEXT)
    out_path = str(tmp_path / "no_such_dir" / "kb.snap")
    code, out, err = run(capsys, "compile", path, "-o", out_path)
    assert code == 2
    assert out == "" and err.startswith("error:") and "kb.snap" in err


# --- fuzz ------------------------------------------------------------------------

FUZZ_PROLOGUE = ["assumption a1 0.5", "assumption a2 0.3", "prop p q"]
FUZZ_LITERALS = ["a1", "-a1", "a2", "!a2", "p", "-p", "q", "!q"]
FUZZ_JUNK = [")", "(", "&", "|", "->", "-", "!", "#", "p q", "|&", "é", "?", "zz"]
fuzz_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


def _clause_line(literals):
    return st.builds(
        lambda kind, ls: f"{kind} " + " | ".join(ls),
        st.sampled_from(["clause", "clause", "fact"]),
        st.lists(literals, max_size=3),
    )


fuzz_bad_line = st.one_of(
    st.builds(
        "assumption {} {}".format,
        st.sampled_from(["b", "a1"]),
        st.sampled_from(["1.5", "-0.1", "nan", "x", ""]),
    ),
    st.just("prop"),
    _clause_line(st.sampled_from(["zz", "-", "--p", "a1 a2", "", "é"])),
    fuzz_text,
)


@st.composite
def fuzz_kb_text(draw):
    """At most 8 lines: declarations, clause and fact lines, at most one bad line."""
    lines = FUZZ_PROLOGUE + draw(
        st.lists(st.sampled_from(["assumption b 0.5", "assumption c 1", "prop r s"]), max_size=1)
    )
    lines += draw(st.lists(_clause_line(st.sampled_from(FUZZ_LITERALS)), max_size=3))
    if draw(st.sampled_from([False, False, True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(fuzz_bad_line))
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_query_text(draw):
    """A formula of at most 12 leaves, sometimes with a junk token spliced in."""
    formula = draw(
        st.recursive(
            st.sampled_from(["a1", "a2", "p", "q"]),
            lambda child: st.one_of(
                child.map("!{}".format),
                st.builds("({} {} {})".format, child, st.sampled_from(["&", "|", "->"]), child),
                st.builds("{} {} {}".format, child, st.sampled_from(["&", "|", "->"]), child),
            ),
            max_leaves=12,
        )
    )
    junk = draw(st.one_of(st.just(""), st.sampled_from(FUZZ_JUNK)))
    at = draw(st.integers(0, len(formula)))
    return formula[:at] + junk + formula[at:]


fuzz_snapshot_edit = st.one_of(
    st.none(),
    st.tuples(st.just("drop"), st.integers(0, 40)),
    st.tuples(
        st.just("replace"),
        st.integers(0, 40),
        st.one_of(st.sampled_from(["<empty>", "-a1 | a2", "zz", "[pi]", "[carc]"]), fuzz_text),
    ),
    st.just(("section",)),
)


def _edit_snapshot(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if edit[0] == "section":
        lines.append("[unknown]")
    elif lines:
        at = edit[1] % len(lines)
        lines[at : at + 1] = [] if edit[0] == "drop" else [edit[2]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    kb_text=fuzz_kb_text(),
    with_pi=st.booleans(),
    use_snapshot=st.booleans(),
    edit=fuzz_snapshot_edit,
    query=fuzz_query_text(),
    method=st.sampled_from(["auto", "incexc", "sdp", "bounds", "oracle"]),
    l=st.integers(-1, 4),
)
def test_cli_fuzz_returns_a_documented_exit_code(
    kb_text, with_pi, use_snapshot, edit, query, method, l
):
    # arbitrary KB, snapshot and query text: cli.main returns an exit code
    # of 0-4 and raises nothing, and the two calls stay within the
    # benchmark's per-op budgets of 2 s and 32 MB
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kb.pabr")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(kb_text)
            code, _, _ = _quiet_main(["compile", path] + ["--pi"] * with_pi)
            assert code in range(5)
            argv = ["query", path, f"--query={query}", "--method", method, "--l", str(l)]
            if use_snapshot:
                if edit is not None and os.path.exists(path + ".snap"):
                    _edit_snapshot(path + ".snap", edit)
                argv += ["--snapshot", path + ".snap"]
            code, out, err = _quiet_main(argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 2 and peak < 32 * 2**20
    assert code in range(5)
    if code == 0:
        assert set(json.loads(out)) >= {"hypothesis", "mqs", "mc", "support", "method"}
    else:
        assert out == "" and err.startswith("error:")
