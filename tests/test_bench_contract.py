"""The names the benchmark harness looks up in pabr still exist, and a
command-line query still runs through them.

`perfbench/tracing.py` wraps pabr functions by (module, name) and
`perfbench/worker.py` calls a few library entry points directly; a renamed
or deleted one would otherwise show up only as a crashed traced run, and
one the query no longer calls as a layer that reads 0.
"""

import importlib.util
import pathlib

import pabr
from pabr import cli, consequence
from pabr.logic import Clause

import helpers

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    wrapped = _tracing().WRAPPED
    assert wrapped
    for module_name, fn_name, _, _ in wrapped:
        module = importlib.import_module(f"pabr.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"pabr.{module_name}.{fn_name}"


def test_worker_entry_points_and_state_views(tmp_path):
    kb_path = tmp_path / "kb.pabr"
    kb_path.write_text("assumption a 0.5\nprop p\nclause -a | p\n")
    kb, _table = pabr.build_kb(pabr.parse_kb_file(kb_path))
    state = consequence.compile_clauses(
        kb.alphabet, kb.clauses, with_pi=True
    )
    state = pabr.parse_snapshot(consequence.snapshot_text(state), kb.alphabet)
    assert all(isinstance(c, Clause) for c in state.carc)
    assert all(isinstance(c, Clause) for c in state.pi)
    (p,) = [s for s in kb.alphabet.symbols if s.name == "p"]
    sets = pabr.compiled_mqs(state.pi, pabr.Clause.of(pabr.Literal(p, True)))
    assert [str(t) for t in sets.mqs] == ["a"]
    assert sets.mc == frozenset()


def test_extend_dispatches_to_pi_add_by_its_module_name(monkeypatch, burglar):
    kb, _table = burglar
    calls = []
    original = consequence.pi_add

    def traced(state, clause):
        calls.append(clause)
        return original(state, clause)

    monkeypatch.setattr(consequence, "pi_add", traced)
    state = consequence.compile_clauses(kb.alphabet, kb.clauses, with_pi=True)
    assert list(calls) == list(kb.clauses)
    assert state.pi is not None


def test_traced_query_lights_the_support_and_probability_layers(tmp_path, capsys):
    # the tracer sees a command-line query through the functions it wraps,
    # so a faster query path cannot quietly go around the harness
    kb_path = tmp_path / "burglar.pabr"
    kb_path.write_text(helpers.BURGLAR_TEXT)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        codes = [cli.main(["query", str(kb_path), "-q", h]) for h in ("burglary", "a1 | a2")]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    names = [span[0] for span in tracer.spans]
    assert names.count("support.minimal_quasi_supports") == 2
    assert names.count("probability.evaluate") == 2
    assert tracer.counts["support.mqs_terms"] == 3
    assert tracer.counts["support.mc_terms"] == 0
    assert tracer.counts["probability.union_terms"] == 3
