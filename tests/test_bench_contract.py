"""The names the benchmark harness looks up in pabr still exist.

`perfbench/tracing.py` wraps pabr functions by (module, name) and
`perfbench/worker.py` calls a few library entry points directly; a renamed
or deleted one would otherwise show up only as a crashed traced run.
"""

import importlib.util
import pathlib

import pabr
from pabr import consequence
from pabr.logic import Clause

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
