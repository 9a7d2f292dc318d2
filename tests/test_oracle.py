"""Enumeration ground truth: hint construction and direct support numbers."""

import importlib.util
import math
import pathlib
import random
import sys
from collections import Counter

import pytest

from pabr import oracle
from pabr.errors import EnumerationLimitError, TotalInconsistencyError
from pabr.kbfile import build_kb, parse_kb_file
from pabr.logic import PROPOSITION, And, Atom, Implies, Not, Or, parse_formula
from pabr.oracle import (
    build_hint,
    oracle_support,
    quasi_supporting_configs,
    term_configs,
)
from pabr.probability import AssumptionTable, evaluate
from pabr.support import KnowledgeBase, minimal_quasi_supports

import helpers


def test_burglar_hint(burglar):
    kb, table = burglar
    model = build_hint(kb)
    assert model.omega == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert model.prior[(0, 0)] == pytest.approx(0.05 * 0.99, abs=1e-15)
    assert math.fsum(model.prior.values()) == pytest.approx(1.0, abs=1e-12)


def test_burglar_support_triple(burglar):
    kb, _table = burglar
    model = build_hint(kb)
    h = parse_formula("burglary", kb.alphabet)
    qs_prob, contra_prob, sp = oracle_support(model, h)
    assert qs_prob == pytest.approx(0.99, abs=1e-12)
    assert contra_prob == 0.0
    assert sp == pytest.approx(0.99, abs=1e-12)


def test_omega_drops_contradictory_configurations():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    table = AssumptionTable(((a1, 0.5),))
    kb = KnowledgeBase(
        alphabet=alphabet,
        assumptions=table,
        sigma_k=(helpers.mask((a1, False), (p, True)), helpers.mask((p, False))),
    )
    model = build_hint(kb)
    assert model.omega == {(0,)}
    assert quasi_supporting_configs(model, parse_formula("p1", alphabet)) == {(1,)}
    triple = oracle_support(model, parse_formula("p1", alphabet))
    assert triple == (0.5, 0.5, 0.0)


def test_empty_knowledge_admits_every_extension():
    alphabet, (a1,), (p, q) = helpers.make_alphabet(1, 2)
    table = AssumptionTable(((a1, 0.5),))
    kb = KnowledgeBase(alphabet=alphabet, assumptions=table, sigma_k=())
    model = build_hint(kb)
    assert model.omega == {(0,), (1,)}
    for config, models in model.gamma.items():
        assert len(models) == 4
        assert all(bits[a1.index] == config[0] for bits in models)


def test_tautology_is_fully_supported():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    table = AssumptionTable(((a1, 0.5),))
    kb = KnowledgeBase(
        alphabet=alphabet,
        assumptions=table,
        sigma_k=(helpers.mask((a1, False), (p, True)), helpers.mask((p, False))),
    )
    model = build_hint(kb)
    qs_prob, contra_prob, sp = oracle_support(
        model, parse_formula("p1 | !p1", alphabet)
    )
    assert (qs_prob, sp) == (1.0, 1.0)
    assert contra_prob == 0.5


def test_enumeration_limit(monkeypatch):
    alphabet, assumptions, _ = helpers.make_alphabet(11, 10)
    table = AssumptionTable(tuple((s, 0.5) for s in assumptions))
    kb = KnowledgeBase(alphabet=alphabet, assumptions=table, sigma_k=())
    with pytest.raises(EnumerationLimitError):
        build_hint(kb)
    monkeypatch.setattr(oracle, "SYMBOL_LIMIT", 21)
    model = build_hint(kb)
    # the configurations, not `gamma`: its 2^21 interpretation tuples take ~480 MB
    assert len(model.configurations) == 2 ** 11


def test_total_inconsistency_raises():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    table = AssumptionTable(())
    kb = KnowledgeBase(
        alphabet=alphabet,
        assumptions=table,
        sigma_k=(helpers.mask((p, True)), helpers.mask((p, False))),
    )
    model = build_hint(kb)
    with pytest.raises(TotalInconsistencyError):
        oracle_support(model, parse_formula("p1", alphabet))


def test_normalization_identity_on_random_kbs():
    rng = random.Random(515)
    checked = 0
    while checked < 30:
        kb, table = helpers.small_random_kb(rng)
        model = build_hint(kb)
        h = helpers.random_clause(rng, list(kb.alphabet.symbols))
        try:
            qs_prob, contra_prob, sp = oracle_support(model, helpers.clause_to_formula(h))
        except TotalInconsistencyError:
            continue
        checked += 1
        assert sp == pytest.approx(
            (qs_prob - contra_prob) / (1.0 - contra_prob), abs=1e-12
        )


def test_support_monotone_under_weakening():
    rng = random.Random(616)
    checked = 0
    while checked < 30:
        kb, _table = helpers.small_random_kb(rng)
        wide = helpers.random_clause(rng, list(kb.alphabet.symbols))
        if len(wide.literals) < 2:
            continue
        dropped = sorted(wide.literals, key=lambda l: l.sort_key)[0]
        narrow = helpers.clause(
            *((l.symbol, l.positive) for l in wide.literals if l != dropped)
        )
        model = build_hint(kb)
        try:
            _, _, sp_narrow = oracle_support(model, helpers.clause_to_formula(narrow))
            _, _, sp_wide = oracle_support(model, helpers.clause_to_formula(wide))
        except TotalInconsistencyError:
            continue
        checked += 1
        assert sp_narrow <= sp_wide + 1e-12


def test_term_configs():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    assert term_configs(helpers.term((a1, True)), (a1, a2)) == {(1, 0), (1, 1)}
    assert term_configs(helpers.term(), (a1, a2)) == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    assert term_configs(helpers.term((a1, True), (a1, False)), (a1, a2)) == frozenset()
    alphabet2, (b1, b2, b3), _ = helpers.make_alphabet(3, 0)
    with pytest.raises(ValueError):
        term_configs(helpers.term((b3, True)), (a1, a2))


# --- the column oracle against the tuple-enumeration reference ----------------


def _random_formula(rng, symbols, depth):
    if depth == 0 or rng.random() < 0.2:
        return Atom(rng.choice(symbols))
    kind = rng.choice((Not, Not, And, Or, Implies))
    if kind is Not:
        return Not(_random_formula(rng, symbols, depth - 1))
    return kind(_random_formula(rng, symbols, depth - 1), _random_formula(rng, symbols, depth - 1))


def _shapes(f):
    """The connectives of `f`, with "!!" for a negation directly under another."""
    found, stack = set(), [f]
    while stack:
        node = stack.pop()
        found.add(type(node).__name__)
        if isinstance(node, Not):
            if isinstance(node.operand, Not):
                found.add("!!")
            stack.append(node.operand)
        elif not isinstance(node, Atom):
            stack += (node.left, node.right)
    return found


def _reference_cases(rng, count):
    """(kb, hypothesis, label) over random KBs; every fifth is an empty KB, a
    KB inconsistent on its own, or one whose table leaves out a declared
    assumption, in turn."""
    for i in range(count):
        kb, table = helpers.random_kb(rng, max_syms=5) if i % 2 else helpers.small_random_kb(rng)
        label = ("empty", "inconsistent", "untabled", None, None)[i % 5]
        if label == "empty":
            kb = KnowledgeBase(kb.alphabet, table, ())
        elif label == "inconsistent":
            p = next(s for s in kb.alphabet.symbols if s.kind == PROPOSITION)
            contradiction = (helpers.mask((p, True)), helpers.mask((p, False)))
            kb = KnowledgeBase(kb.alphabet, table, kb.sigma_k + contradiction, kb.sigma_f)
        elif label == "untabled":
            table = AssumptionTable(table.entries[1:])
            kb = KnowledgeBase(kb.alphabet, table, kb.sigma_k, kb.sigma_f)
        yield kb, _random_formula(rng, list(kb.alphabet.symbols), 4), label


def _outcome(support, model, hypothesis):
    try:
        return support(model, hypothesis)
    except TotalInconsistencyError as err:
        return type(err)


def test_column_oracle_equals_the_tuple_reference_on_random_kbs():
    rng = random.Random(3131)
    seen = Counter()
    for kb, h, label in _reference_cases(rng, 240):
        model, reference = build_hint(kb), helpers.reference_build_hint(kb)
        got = _outcome(oracle_support, model, h)
        assert got == _outcome(helpers.reference_oracle_support, reference, h)
        assert quasi_supporting_configs(model, h) == (
            helpers.reference_quasi_supporting_configs(reference, h)
        )
        assert (model.gamma, model.prior, model.omega) == tuple(reference)
        seen[label] += 1
        seen["raised" if got is TotalInconsistencyError else "answered"] += 1
        seen.update(_shapes(h))
    assert seen["empty"] and seen["inconsistent"] and seen["untabled"]
    assert seen["raised"] >= seen["inconsistent"] and seen["answered"] >= 100
    assert seen["Implies"] and seen["!!"]


# --- engine against oracle at the benchmark's shapes --------------------------

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_shape_queries(workdir):
    """(shape, KB file, hypothesis text) of the benchmark's shapes: one
    session of `diag` queries (each circuit under one observation), fault
    chains of 1-7 links, light `rand3` instances and `clause -x_i | h`
    unions of 1-19 lines."""
    wl = _workloads()
    rng = random.Random(31)
    diag = wl.diag(rng, str(workdir))
    op = diag.send(None)
    while op is not None:
        if op.kind == "query":
            yield "diag", op.kb.path, wl.render(op.hypothesis)
        op = diag.send(True)
    for n in range(1, 8):
        for seed in range(3 if n < 7 else 1):
            kb = wl.chain_kb(str(workdir / f"chain{n}-{seed}.pabr"), n, random.Random(seed))
            yield "chain", kb.path, f"p{n}"
    for i in range(40):
        kb = wl.rand3_kb(str(workdir / f"r{i}.pabr"), rng, *wl.RAND3_LIGHT)
        yield "rand3", kb.path, wl.render(wl.clause_formula(wl.random_clause(rng, kb)))
    for n in range(1, 20):
        lines = [f"assumption x{i} {rng.choice(helpers.Q_CHOICES)}" for i in range(n)]
        lines += ["prop h"] + [f"clause -x{i} | h" for i in range(n)]
        path = workdir / f"union{n}.pabr"
        path.write_text("\n".join(lines) + "\n")
        yield "union", str(path), "h"


def test_engine_matches_oracle_at_the_benchmark_shapes(tmp_path, monkeypatch):
    # a 7-link chain has 22 symbols, past the command line's limit
    monkeypatch.setattr(oracle, "SYMBOL_LIMIT", 22)
    shapes = Counter()
    for shape, path, text in _benchmark_shape_queries(tmp_path):
        kb, table = build_kb(parse_kb_file(path))
        h = parse_formula(text, kb.alphabet)
        try:
            report = evaluate(minimal_quasi_supports(kb, h), table)
            engine = (report.qs_prob, report.contra_prob, report.support)
        except TotalInconsistencyError as err:
            engine = type(err)
        expected = _outcome(oracle_support, build_hint(kb), h)
        assert engine == (expected if isinstance(expected, type) else pytest.approx(expected, abs=1e-9))
        shapes[shape] += 1
    assert shapes == {"diag": 24, "chain": 19, "rand3": 40, "union": 19}
