"""End-to-end command line behavior, run in process."""

import json
import pathlib
import time
import tracemalloc

import pytest

from pabr.cli import main
from pabr.consequence import read_snapshot
from pabr.kbfile import build_kb, parse_kb_text

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
    state = read_snapshot(path + ".snap", kb.alphabet)
    # R1-R3 alone admit every configuration, so only the seeds survive
    assert all(c.is_tautology for c in state.carc)
    assert len(state.carc) == 2


def test_compile_custom_output_and_derived_clause(kb_path, tmp_path, capsys):
    path = kb_path("assumption a1 0.5\nprop p\nclause -a1 | p\nclause -p\n")
    out_path = str(tmp_path / "custom.snap")
    code, out, _err = run(capsys, "compile", path, "-o", out_path)
    assert code == 0
    kb, _table = build_kb(parse_kb_text("assumption a1 0.5\nprop p\n"))
    state = read_snapshot(out_path, kb.alphabet)
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


def test_query_readme_burglar_example_prints_the_documented_line(kb_path, capsys):
    readme = README.read_text()
    kb_text = readme.split("A knowledge base file (`alarm.pabr`):\n\n```\n", 1)[1]
    path = kb_path(kb_text.split("```", 1)[0], name="alarm.pabr")
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


@pytest.mark.parametrize(
    "formula",
    ["(" * 600 + "burglary" + ")" * 600, " & ".join(["burglary"] * 3000)],
    ids=["nested_parentheses", "flat_conjunction"],
)
def test_query_formula_nested_too_deeply_exits_2(kb_path, capsys, formula):
    path = kb_path(helpers.BURGLAR_TEXT)
    code, out, err = run(capsys, "query", path, "-q", formula)
    assert code == 2
    assert out == "" and err == "error: formula nested too deeply\n"


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


def test_check_parse_error(kb_path, capsys):
    path = kb_path("prop p\nclause q\n")
    code, _out, err = run(capsys, "check", path)
    assert code == 2 and "q" in err


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
