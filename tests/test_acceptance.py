"""Acceptance gate: one test per release criterion, at the stated tolerances.

The sweep fixture generates the shared corpus of 200 random knowledge bases
with clause hypotheses and runs both the symbolic engine and the enumeration
oracle over every instance; the criteria then check the recorded results
from their own angles.
"""

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

import pytest

from pabr.consequence import compile_clauses
from pabr.errors import TotalInconsistencyError
from pabr.kbfile import build_kb, parse_kb_text
from pabr.logic import parse_formula, Term
from pabr.oracle import (
    build_hint,
    oracle_support,
    quasi_supporting_configs,
    term_configs,
)
from pabr.probability import (
    bonferroni_bounds,
    disjoint_products,
    evaluate,
    inclusion_exclusion,
    term_prob,
)
from pabr.support import compiled_mqs, minimal_quasi_supports

import helpers

SWEEP_SEED = 20260817
SWEEP_SIZE = 200
EPS = 1e-12


@dataclass
class Record:
    kb: object
    table: object
    h_clause: object
    h_formula: object
    sets: object
    report: object = None
    engine_error: object = None
    triple: object = None
    oracle_error: object = None
    model: object = None


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    started = time.perf_counter()
    records = []
    for _ in range(SWEEP_SIZE):
        kb, table = helpers.random_kb(rng)
        h_clause = helpers.random_clause(rng, list(kb.alphabet.symbols))
        h_formula = helpers.clause_to_formula(h_clause)
        sets = minimal_quasi_supports(kb, h_formula)
        record = Record(
            kb=kb, table=table, h_clause=h_clause, h_formula=h_formula, sets=sets
        )
        try:
            record.report = evaluate(sets, table)
        except TotalInconsistencyError as err:
            record.engine_error = err
        record.model = build_hint(kb)
        try:
            record.triple = oracle_support(record.model, h_formula)
        except TotalInconsistencyError as err:
            record.oracle_error = err
        records.append(record)
    elapsed = time.perf_counter() - started
    return records, elapsed


def qs_terms_of(record):
    return sorted(set(record.sets.mqs) | set(record.sets.mc), key=lambda t: t.sort_key)


def test_criterion_1_burglar_alarm_golden():
    started = time.perf_counter()
    kb, table = build_kb(parse_kb_text(helpers.BURGLAR_TEXT))
    h = parse_formula("burglary", kb.alphabet)
    sets = minimal_quasi_supports(kb, h)
    report = evaluate(sets, table)
    elapsed = time.perf_counter() - started
    a2 = kb.alphabet.lookup("a2")
    assert sets.mqs == {helpers.term((a2, False))}
    assert sets.mc == frozenset()
    assert report.support == pytest.approx(0.99, abs=EPS)
    assert elapsed < 1.0


def test_criterion_2_engine_matches_oracle_on_sweep(sweep):
    records, elapsed = sweep
    assert len(records) == SWEEP_SIZE
    for record in records:
        if record.engine_error is not None or record.oracle_error is not None:
            # total inconsistency must be diagnosed identically on both sides
            assert type(record.engine_error) is type(record.oracle_error)
            continue
        qs_prob, contra_prob, support = record.triple
        assert record.report.qs_prob == pytest.approx(qs_prob, abs=1e-9)
        assert record.report.contra_prob == pytest.approx(contra_prob, abs=1e-9)
        assert record.report.support == pytest.approx(support, abs=1e-9)
    assert elapsed < 60.0


def test_criterion_3_probability_methods_cross_agree(sweep):
    records, _ = sweep
    for record in records:
        terms = qs_terms_of(record)
        fragments = disjoint_products(terms)
        by_sdp = sum(term_prob(t, record.table) for t in fragments)
        by_ie = inclusion_exclusion(terms, record.table)
        assert by_sdp == pytest.approx(by_ie, abs=EPS)
        for t1, t2 in combinations(fragments, 2):
            assert any(l.negate() in t2.literals for l in t1.literals)


def test_criterion_4_truncation_bounds_bracket(sweep):
    _, (a1, a2, a3), _ = helpers.make_alphabet(3, 0)
    from pabr.probability import AssumptionTable

    table = AssumptionTable(((a1, 0.5), (a2, 0.5), (a3, 0.5)))
    golden = [helpers.term((a, True)) for a in (a1, a2, a3)]
    assert bonferroni_bounds(golden, table, 1) == (0.75, 0.875)
    assert inclusion_exclusion(golden, table) == 0.875

    records, _ = sweep
    bracketed = 0
    for record in records:
        terms = qs_terms_of(record)
        r = len(terms)
        if r < 3:
            continue
        exact = inclusion_exclusion(terms, record.table)
        s1 = sum(term_prob(t, record.table) for t in terms)
        assert exact <= s1 + EPS
        for l in range(1, (r - 1) // 2 + 1):
            lower, upper = bonferroni_bounds(terms, record.table, l)
            assert lower <= exact + EPS
            assert exact <= upper + EPS
            bracketed += 1
    assert bracketed > 0


def test_criterion_5_compiled_route_matches_interpretive(sweep):
    records, _ = sweep
    for record in records:
        state = compile_clauses(record.kb.alphabet, record.kb.clauses, with_pi=True)
        assert compiled_mqs(state.pi, record.h_clause) == record.sets


def test_criterion_6_incremental_fold_matches_batch_enumeration():
    rng = random.Random(SWEEP_SEED + 1)
    for _ in range(20):
        kb, _table = helpers.small_random_kb(rng)
        clauses = list(kb.sigma_k)
        want_carc = helpers.batch_carc(clauses, kb.alphabet)
        want_pi = helpers.batch_pi(clauses, kb.alphabet)
        for _ in range(5):
            rng.shuffle(clauses)
            state = compile_clauses(kb.alphabet, clauses, with_pi=True)
            assert state.carc == want_carc
            assert state.pi == want_pi
            assert state.carc == frozenset(
                c for c in state.pi if helpers.is_assumption_only(c)
            )


def test_criterion_7_normalization_and_configuration_identities(sweep):
    records, _ = sweep
    for record in records:
        covered = frozenset().union(
            *(
                term_configs(t, record.table.symbols)
                for t in set(record.sets.mqs) | set(record.sets.mc)
            )
        )
        assert covered == quasi_supporting_configs(record.model, record.h_formula)
        if record.oracle_error is not None:
            continue
        qs_prob, contra_prob, support = record.triple
        assert support == pytest.approx(
            (qs_prob - contra_prob) / (1.0 - contra_prob), abs=EPS
        )
