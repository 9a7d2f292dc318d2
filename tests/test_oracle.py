"""Enumeration ground truth: hint construction and direct support numbers."""

import math
import random

import pytest

from pabr import oracle
from pabr.errors import EnumerationLimitError, TotalInconsistencyError
from pabr.logic import clause_to_formula, parse_formula
from pabr.oracle import (
    build_hint,
    oracle_support,
    quasi_supporting_configs,
    term_configs,
)
from pabr.probability import AssumptionTable
from pabr.support import KnowledgeBase

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
    assert len(model.gamma) == 2 ** 11


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
            qs_prob, contra_prob, sp = oracle_support(model, clause_to_formula(h))
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
            _, _, sp_narrow = oracle_support(model, clause_to_formula(narrow))
            _, _, sp_wide = oracle_support(model, clause_to_formula(wide))
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
