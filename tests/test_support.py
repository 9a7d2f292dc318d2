"""Quasi-support and contradiction extraction, both routes."""

import random

import pytest

from pabr.errors import NonAssumptionLiteralError
from pabr.kbfile import build_kb, parse_kb_text
from pabr import consequence
from pabr.logic import Not, parse_formula, to_cnf
from pabr.support import (
    KnowledgeBase,
    compile_kb,
    compiled_mqs,
    minimal_contradictions,
    minimal_quasi_supports,
)

import helpers


def kb_of(alphabet, table, *clauses):
    return KnowledgeBase(alphabet=alphabet, assumptions=table, sigma_k=tuple(clauses))


def simple_table(assumptions):
    from pabr.probability import AssumptionTable

    return AssumptionTable(tuple((s, 0.5) for s in assumptions))


# --- literal-wise negation: `test_flipped_alarm_fact` (two literals),
# `test_unit_contradiction` (one), `test_assumption_free_inconsistency_is_the_empty_term`
# (none) and the next test (a proposition literal) pin it on the engine.


def test_state_with_a_proposition_literal_is_rejected():
    # only a hand-made snapshot can put a proposition literal into carc
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = consequence.parse_snapshot("[carc]\n-a1 | p1\n", alphabet)
    kb = kb_of(alphabet, simple_table([a1]))
    with pytest.raises(NonAssumptionLiteralError, match=f"proposition {p.name} "):
        minimal_contradictions(kb, state)


# --- minimal contradictions ------------------------------------------------------


def test_burglar_kb_has_no_contradictions(burglar):
    kb, _table = burglar
    assert minimal_contradictions(kb) == frozenset()


def test_unit_contradiction():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    kb = kb_of(
        alphabet,
        simple_table([a1]),
        helpers.mask((a1, False), (p, True)),
        helpers.mask((p, False)),
    )
    assert minimal_contradictions(kb) == {helpers.term((a1, True))}


def test_assumption_free_inconsistency_is_the_empty_term():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    kb = kb_of(
        alphabet,
        simple_table([a1]),
        helpers.mask((p, True)),
        helpers.mask((p, False)),
    )
    assert minimal_contradictions(kb) == {helpers.term()}


# --- interpretive route ----------------------------------------------------------


def test_burglar_query_golden(burglar):
    kb, _table = burglar
    a2 = kb.alphabet.lookup("a2")
    h = parse_formula("burglary", kb.alphabet)
    sets = minimal_quasi_supports(kb, h)
    assert sets.mqs == {helpers.term((a2, False))}
    assert sets.mc == frozenset()


def test_flipped_alarm_fact(burglar):
    # same rules with the observation negated: now a1 supports -burglary,
    # and the configuration a1&a2 forces alarm, contradicting the fact
    kb, _table = burglar
    alphabet = kb.alphabet
    a1, a2 = alphabet.lookup("a1"), alphabet.lookup("a2")
    alarm = alphabet.lookup("alarm")
    flipped = KnowledgeBase(
        alphabet=alphabet,
        assumptions=kb.assumptions,
        sigma_k=kb.sigma_k,
        sigma_f=(helpers.mask((alarm, False)),),
    )
    sets = minimal_quasi_supports(flipped, parse_formula("!burglary", alphabet))
    assert sets.mqs == {helpers.term((a1, True))}
    assert sets.mc == {helpers.term((a1, True), (a2, True))}
    # cross-check the contradiction by truth table
    nsyms = len(alphabet.symbols)
    units = helpers.term_units(helpers.term((a1, True), (a2, True)))
    assert not helpers.models_of(list(flipped.clauses) + units, nsyms)


def test_tautology_hypothesis_has_the_empty_quasi_support(burglar):
    kb, _table = burglar
    h = parse_formula("burglary | !burglary", kb.alphabet)
    sets = minimal_quasi_supports(kb, h)
    assert sets.mqs == {helpers.term()}


def test_query_does_not_disturb_the_session_state(burglar):
    kb, _table = burglar
    state = compile_kb(kb)
    before = state.carc
    minimal_quasi_supports(kb, parse_formula("burglary", kb.alphabet), state=state)
    assert state.carc == before and state.pi is None


# --- compiled route --------------------------------------------------------------


def test_compiled_route_burglar(burglar):
    kb, _table = burglar
    alphabet = kb.alphabet
    a2, burglary = alphabet.lookup("a2"), alphabet.lookup("burglary")
    state = compile_kb(kb, with_pi=True)
    assert helpers.clause((burglary, True), (a2, True)) in state.pi
    sets = compiled_mqs(state.pi, helpers.clause((burglary, True)))
    assert sets.mqs == {helpers.term((a2, False))}
    assert sets.mc == frozenset()


def test_compiled_route_empty_hypothesis_reduces_to_contradictions():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    kb = kb_of(
        alphabet,
        simple_table([a1]),
        helpers.mask((a1, False), (p, True)),
        helpers.mask((p, False)),
    )
    state = compile_kb(kb, with_pi=True)
    sets = compiled_mqs(state.pi, helpers.clause())
    assert sets.mqs == sets.mc == {helpers.term((a1, True))}


def test_compiled_route_hypothesis_already_proved():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    sets = compiled_mqs([helpers.clause((p, True))], helpers.clause((p, True)))
    assert sets.mqs == {helpers.term()}


# --- properties ------------------------------------------------------------------


def random_clause_hypothesis(rng, kb):
    return helpers.random_clause(rng, list(kb.alphabet.symbols))


def test_quasi_supports_are_sound():
    rng = random.Random(101)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        nsyms = len(kb.alphabet.symbols)
        h = random_clause_hypothesis(rng, kb)
        sets = minimal_quasi_supports(kb, helpers.clause_to_formula(h))
        for term in sets.mqs:
            units = helpers.term_units(term)
            assert helpers.entails(list(kb.clauses) + units, h, nsyms)


def test_quasi_supports_are_minimal():
    rng = random.Random(202)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        nsyms = len(kb.alphabet.symbols)
        h = random_clause_hypothesis(rng, kb)
        sets = minimal_quasi_supports(kb, helpers.clause_to_formula(h))
        for term in sets.mqs:
            for lit in term.literals:
                shrunk = helpers.term(
                    *((l.symbol, l.positive) for l in term.literals if l != lit)
                )
                units = helpers.term_units(shrunk)
                assert not helpers.entails(list(kb.clauses) + units, h, nsyms)


def test_contradictions_are_minimal_and_contradicting():
    rng = random.Random(303)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        nsyms = len(kb.alphabet.symbols)
        for term in minimal_contradictions(kb):
            units = helpers.term_units(term)
            assert not helpers.models_of(list(kb.clauses) + units, nsyms)
            for lit in term.literals:
                keep = [u for u in units if u.literals != frozenset([lit])]
                assert helpers.models_of(list(kb.clauses) + keep, nsyms)


def test_quasi_support_union_matches_brute_force():
    from pabr.oracle import term_configs

    rng = random.Random(404)
    for _ in range(25):
        kb, table = helpers.small_random_kb(rng)
        h = random_clause_hypothesis(rng, kb)
        sets = minimal_quasi_supports(kb, helpers.clause_to_formula(h))
        covered = frozenset().union(
            *(term_configs(t, table.symbols) for t in sets.mqs | sets.mc)
        )
        assert covered == helpers.brute_u_prime(kb, h)


def test_routes_agree_on_clause_hypotheses():
    rng = random.Random(505)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        state = compile_kb(kb, with_pi=True)
        h = random_clause_hypothesis(rng, kb)
        interpretive = minimal_quasi_supports(kb, helpers.clause_to_formula(h), state=state)
        compiled = compiled_mqs(state.pi, h)
        assert compiled == interpretive


def test_hypothesis_folds_through_the_prime_implicates(monkeypatch):
    calls = []
    pi_add = consequence.pi_add

    def counting(state, clause):
        calls.append(clause)
        return pi_add(state, clause)

    monkeypatch.setattr("pabr.consequence.pi_add", counting)
    rng = random.Random(707)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        h = helpers.clause_to_formula(random_clause_hypothesis(rng, kb))
        negated = to_cnf(Not(h))
        with_pi = compile_kb(kb, with_pi=True)
        calls.clear()
        sets = minimal_quasi_supports(kb, h, state=with_pi)
        views = sorted(map(kb.alphabet.clause_of, negated), key=lambda c: c.sort_key)
        assert calls == [c.mask for c in views]
        assert sets == minimal_quasi_supports(kb, h, state=compile_kb(kb))
        expected = helpers.batch_carc(list(kb.clauses) + list(negated), kb.alphabet)
        assert sets.mqs == helpers.negated_terms(c for c in expected if not c.is_tautology)


def test_contradictions_quasi_support_anything():
    rng = random.Random(606)
    kb, _table = helpers.small_random_kb(rng)
    nsyms = len(kb.alphabet.symbols)
    mc = minimal_contradictions(kb)
    for _ in range(5):
        h = random_clause_hypothesis(rng, kb)
        for term in mc:
            units = helpers.term_units(term)
            assert helpers.entails(list(kb.clauses) + units, h, nsyms)
