"""Term probabilities, union probabilities, bounds, support normalization."""

import math
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabr import probability
from pabr.errors import (
    BoundsPreconditionError,
    InconsistentTermError,
    NonAssumptionLiteralError,
    TotalInconsistencyError,
)
from pabr.kbfile import build_kb, parse_kb_text
from pabr.logic import EMPTY_TERM, mu_minimize, parse_formula
from pabr.probability import (
    AUTO,
    BOUNDS,
    DISJOINT_PRODUCTS,
    INCLUSION_EXCLUSION,
    SHANNON_EXPANSION,
    AssumptionTable,
    bonferroni_bounds,
    degree_of_support,
    disjoint_products,
    evaluate,
    inclusion_exclusion,
    term_prob,
)
from pabr.support import SupportSets, minimal_quasi_supports

import helpers


def table_over(assumptions, qs):
    return AssumptionTable(tuple(zip(assumptions, qs)))


def halves(n):
    alphabet, assumptions, _ = helpers.make_alphabet(n, 0)
    return assumptions, table_over(assumptions, [0.5] * n)


# --- assumption table -------------------------------------------------------------


def test_table_rejects_bad_entries():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    with pytest.raises(ValueError):
        AssumptionTable(((a1, 1.5),))
    with pytest.raises(ValueError):
        AssumptionTable(((a1, 0.5), (a1, 0.5)))
    with pytest.raises(ValueError):
        AssumptionTable(((p, 0.5),))


def test_table_lookup():
    (a1, a2), table = halves(2)
    assert table.prob(a1) == 0.5
    assert len(table) == 2
    alphabet, (_, _, a3), _ = helpers.make_alphabet(3, 0)
    with pytest.raises(KeyError):
        table.prob(a3)


# --- single-term probability --------------------------------------------------------


def test_term_prob_examples():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    table = table_over([a1, a2], [0.95, 0.01])
    assert term_prob(helpers.term((a2, False)), table) == pytest.approx(0.99, abs=1e-15)
    assert term_prob(EMPTY_TERM, table) == 1.0
    assert term_prob(helpers.term((a1, True), (a2, False)), table) == pytest.approx(
        0.9405, abs=1e-15
    )


def test_term_prob_inconsistent_is_zero():
    (a1,), table = halves(1)
    assert term_prob(helpers.term((a1, True), (a1, False)), table) == 0.0


def test_term_prob_degenerate_certainty():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    table = table_over([a1, a2], [0.0, 1.0])
    assert term_prob(helpers.term((a1, False), (a2, True)), table) == 1.0
    assert term_prob(helpers.term((a1, True)), table) == 0.0


def test_term_prob_rejects_propositions():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    table = AssumptionTable(())
    with pytest.raises(NonAssumptionLiteralError):
        term_prob(helpers.term((p, True)), table)


# --- inclusion-exclusion -------------------------------------------------------------


def test_inclusion_exclusion_two_units():
    (a1, a2), table = halves(2)
    terms = [helpers.term((a1, True)), helpers.term((a2, True))]
    assert inclusion_exclusion(terms, table) == 0.75


def test_inclusion_exclusion_mixed_widths():
    (a1, a2, a3), table = halves(3)
    terms = [helpers.term((a1, True), (a2, True)), helpers.term((a3, True))]
    assert inclusion_exclusion(terms, table) == 0.625


def test_inclusion_exclusion_empty_union():
    _, table = halves(1)
    assert inclusion_exclusion([], table) == 0.0


def test_inclusion_exclusion_complementary_terms_cover_everything():
    (a1,), table = halves(1)
    terms = [helpers.term((a1, True)), helpers.term((a1, False))]
    assert inclusion_exclusion(terms, table) == 1.0


def test_inclusion_exclusion_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        alphabet, assumptions, _ = helpers.make_alphabet(n, 0)
        table = table_over(assumptions, [rng.choice(helpers.Q_CHOICES) for _ in range(n)])
        terms = helpers.random_assumption_terms(rng, assumptions)
        expected = helpers.union_prob_brute(terms, table)
        assert inclusion_exclusion(terms, table) == pytest.approx(expected, abs=1e-12)


# --- truncation bounds ---------------------------------------------------------------


def test_bounds_golden_three_units():
    (a1, a2, a3), table = halves(3)
    terms = [helpers.term((a, True)) for a in (a1, a2, a3)]
    assert bonferroni_bounds(terms, table, 1) == (0.75, 0.875)
    assert inclusion_exclusion(terms, table) == 0.875


def test_bounds_preconditions():
    (a1, a2, a3), table = halves(3)
    terms = [helpers.term((a, True)) for a in (a1, a2, a3)]
    with pytest.raises(BoundsPreconditionError):
        bonferroni_bounds(terms, table, 0)
    with pytest.raises(BoundsPreconditionError):
        bonferroni_bounds(terms[:2], table, 1)


def test_bounds_bracket_the_exact_value():
    rng = random.Random(22)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 6)
        alphabet, assumptions, _ = helpers.make_alphabet(n, 0)
        table = table_over(assumptions, [rng.choice(helpers.Q_CHOICES) for _ in range(n)])
        terms = helpers.random_assumption_terms(rng, assumptions)
        r = len(terms)
        if r < 3:
            continue
        checked += 1
        exact = inclusion_exclusion(terms, table)
        s1 = math.fsum(term_prob(t, table) for t in terms)
        assert exact <= s1 + 1e-12
        for l in range(1, (r - 1) // 2 + 1):
            lower, upper = bonferroni_bounds(terms, table, l)
            assert lower <= exact + 1e-12
            assert exact <= upper + 1e-12
            assert upper <= min(s1, 1.0) + 1e-12


# --- disjoint products ----------------------------------------------------------------


def test_disjoint_products_two_units():
    (a1, a2), _ = halves(2)
    out = disjoint_products([helpers.term((a1, True)), helpers.term((a2, True))])
    assert out == [helpers.term((a1, True)), helpers.term((a1, False), (a2, True))]


def test_disjoint_products_already_disjoint():
    (a1,), _ = halves(1)
    terms = [helpers.term((a1, True)), helpers.term((a1, False))]
    assert disjoint_products(terms) == terms


def test_disjoint_products_expansion_order():
    (a1, a2, a3), table = halves(3)
    out = disjoint_products(
        [helpers.term((a1, True), (a2, True)), helpers.term((a3, True))]
    )
    assert out == [
        helpers.term((a1, True), (a2, True)),
        helpers.term((a1, False), (a3, True)),
        helpers.term((a1, True), (a2, False), (a3, True)),
    ]
    assert math.fsum(term_prob(t, table) for t in out) == 0.625


def test_disjoint_products_drops_covered_fragments():
    (a1, a2, a3), table = halves(3)
    out = disjoint_products(
        [
            helpers.term((a1, True), (a2, True)),
            helpers.term((a1, False)),
            helpers.term((a2, True)),
        ]
    )
    assert out == [
        helpers.term((a1, True), (a2, True)),
        helpers.term((a1, False)),
    ]


def test_disjoint_products_empty_term_covers_all():
    (a1,), _ = halves(1)
    assert disjoint_products([EMPTY_TERM, helpers.term((a1, True))]) == [EMPTY_TERM]


def test_disjoint_products_rejects_inconsistent_terms():
    (a1,), _ = halves(1)
    with pytest.raises(InconsistentTermError):
        disjoint_products([helpers.term((a1, True), (a1, False))])


def test_disjoint_products_pairwise_complementary_and_exact():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(1, 6)
        alphabet, assumptions, _ = helpers.make_alphabet(n, 0)
        table = table_over(assumptions, [rng.choice(helpers.Q_CHOICES) for _ in range(n)])
        terms = sorted(
            mu_minimize(helpers.random_assumption_terms(rng, assumptions)),
            key=lambda t: t.sort_key,
        )
        out = disjoint_products(terms)
        for i, t1 in enumerate(out):
            for t2 in out[i + 1 :]:
                assert any(l.negate() in t2.literals for l in t1.literals)
        total = math.fsum(term_prob(t, table) for t in out)
        assert total == pytest.approx(inclusion_exclusion(terms, table), abs=1e-12)
        assert total == pytest.approx(helpers.union_prob_brute(terms, table), abs=1e-12)


# --- support normalization --------------------------------------------------------------


def test_degree_of_support_examples():
    assert degree_of_support(0.99, 0.0) == 0.99
    assert degree_of_support(0.5, 0.5) == 0.0
    assert degree_of_support(0.6, 0.2) == pytest.approx(0.5, abs=1e-12)


def test_degree_of_support_total_inconsistency():
    with pytest.raises(TotalInconsistencyError):
        degree_of_support(1.0, 1.0)


def test_degree_of_support_monotone_in_quasi_support():
    rng = random.Random(44)
    for _ in range(50):
        contra = rng.uniform(0.0, 0.9)
        lo = rng.uniform(contra, 1.0)
        hi = rng.uniform(lo, 1.0)
        assert degree_of_support(lo, contra) <= degree_of_support(hi, contra)


# --- evaluate -----------------------------------------------------------------------


def test_evaluate_burglar_golden(burglar):
    kb, table = burglar
    from pabr.logic import parse_formula

    sets = minimal_quasi_supports(kb, parse_formula("burglary", kb.alphabet))
    report = evaluate(sets, table)
    assert report.support == pytest.approx(0.99, abs=1e-12)
    assert report.contra_prob == 0.0
    assert report.method == SHANNON_EXPANSION
    assert report.bounds is None


def contradictory_unit_kb():
    """One assumption implying p, against the fact -p."""
    from pabr.support import KnowledgeBase

    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    table = table_over([a1], [0.5])
    kb = KnowledgeBase(
        alphabet=alphabet,
        assumptions=table,
        sigma_k=(helpers.clause((a1, False), (p, True)), helpers.clause((p, False))),
    )
    return kb, table, alphabet


def test_evaluate_support_swallowed_by_contradiction():
    kb, table, alphabet = contradictory_unit_kb()
    from pabr.logic import parse_formula

    sets = minimal_quasi_supports(kb, parse_formula("p1", alphabet))
    report = evaluate(sets, table)
    assert (report.qs_prob, report.contra_prob, report.support) == (0.5, 0.5, 0.0)


def test_evaluate_counts_contradictions_as_quasi_supports():
    kb, table, alphabet = contradictory_unit_kb()
    from pabr.logic import parse_formula

    sets = minimal_quasi_supports(kb, parse_formula("!p1", alphabet))
    report = evaluate(sets, table)
    assert (report.qs_prob, report.contra_prob, report.support) == (1.0, 0.5, 1.0)


def test_evaluate_unions_mqs_with_mc():
    # a contradiction missing from mqs must still enter the union
    (a1,), table = halves(1)
    sets = SupportSets(
        mqs=frozenset([helpers.term((a1, True))]),
        mc=frozenset([helpers.term((a1, False))]),
    )
    report = evaluate(sets, table)
    assert report.qs_prob == 1.0
    assert report.contra_prob == 0.5
    assert report.support == 1.0


def test_evaluate_bounds_method_reports_bracket_and_exact_points():
    (a1, a2, a3), table = halves(3)
    sets = SupportSets(
        mqs=frozenset(helpers.term((a, True)) for a in (a1, a2, a3)),
        mc=frozenset(),
    )
    report = evaluate(sets, table, method=BOUNDS, l=1)
    assert report.bounds == (0.75, 0.875)
    assert report.qs_prob == 0.875
    assert report.method == BOUNDS
    with pytest.raises(BoundsPreconditionError):
        evaluate(
            SupportSets(mqs=frozenset([helpers.term((a1, True))]), mc=frozenset()),
            table,
            method=BOUNDS,
        )


def test_evaluate_auto_switches_on_term_count():
    # 20 and 21 pairwise inconsistent terms: auto runs one routine at every
    # union size
    assumptions, table = halves(5)
    minterms = [
        helpers.term(*zip(assumptions, signs))
        for signs in product((True, False), repeat=len(assumptions))
    ]
    for count in (20, 21):
        sets = SupportSets(mqs=frozenset(minterms[:count]), mc=frozenset())
        report = evaluate(sets, table)
        assert report.method == SHANNON_EXPANSION
        assert report.qs_prob == pytest.approx(count / 32, abs=1e-12)


def chain_kb(n):
    """p0 holds; a_i with p_{i-1} gives p_i, and b_i gives p_i on its own."""
    rng = random.Random(n)
    lines = []
    for i in range(1, n + 1):
        lines.append(f"assumption a{i} {rng.choice(helpers.Q_CHOICES)}")
        lines.append(f"assumption b{i} {rng.choice(helpers.Q_CHOICES)}")
    lines.append("prop " + " ".join(f"p{i}" for i in range(n + 1)))
    for i in range(1, n + 1):
        lines.append(f"clause -a{i} | -p{i - 1} | p{i}")
        lines.append(f"clause -b{i} | p{i}")
    lines.append("fact p0")
    return build_kb(parse_kb_text("\n".join(lines) + "\n"))


def chain_supports(n):
    kb, table = chain_kb(n)
    sets = minimal_quasi_supports(kb, parse_formula(f"p{n}", kb.alphabet))
    assert len(sets.mqs) == n + 1 and not sets.mc
    return kb, table, sets


def test_evaluate_auto_chain_matches_closed_form():
    # P(p_i) = q(b_i) + (1 - q(b_i)) q(a_i) P(p_{i-1}), P(p_0) = 1
    n = 24
    kb, table, sets = chain_supports(n)
    expected = 1.0
    for i in range(1, n + 1):
        qa = table.prob(kb.alphabet.lookup(f"a{i}"))
        qb = table.prob(kb.alphabet.lookup(f"b{i}"))
        expected = qb + (1.0 - qb) * qa * expected
    report = evaluate(sets, table)
    assert report.method == SHANNON_EXPANSION
    assert report.qs_prob == pytest.approx(expected, abs=1e-12)


def test_disjoint_products_chain_shortest_first_is_linear():
    n = 12
    _, table, sets = chain_supports(n)
    terms = probability._shortest_first(sets.mqs)
    out = disjoint_products(terms)
    assert len(out) == n + 1
    total = math.fsum(term_prob(t, table) for t in out)
    assert total == pytest.approx(inclusion_exclusion(terms, table), abs=1e-12)


_, PROPERTY_ASSUMPTIONS, _ = helpers.make_alphabet(5, 0)
PROPERTY_TABLE = table_over(PROPERTY_ASSUMPTIONS, [0.1, 0.3, 0.5, 0.8, 0.95])
# consistent terms over five assumptions, the empty term included
property_terms = st.dictionaries(
    st.sampled_from(PROPERTY_ASSUMPTIONS), st.booleans(), max_size=5
).map(lambda lits: helpers.term(*lits.items()))


@settings(deadline=None, max_examples=200)
@given(st.lists(property_terms, max_size=9))
def test_disjoint_products_match_inclusion_exclusion_on_random_unions(terms):
    terms = terms + terms[: len(terms) // 3]  # duplicates
    sets = SupportSets(mqs=frozenset(terms), mc=frozenset())
    report = evaluate(sets, PROPERTY_TABLE, method=DISJOINT_PRODUCTS)
    expected = inclusion_exclusion(terms, PROPERTY_TABLE)
    assert report.qs_prob == pytest.approx(expected, abs=1e-12)
    auto = evaluate(sets, PROPERTY_TABLE)
    assert auto.qs_prob == pytest.approx(expected, abs=1e-12)
    fragments = disjoint_products(probability._shortest_first(terms))
    for i, t1 in enumerate(fragments):
        for t2 in fragments[i + 1 :]:
            assert any(l.negate() in t2.literals for l in t1.literals)
    total = math.fsum(term_prob(t, PROPERTY_TABLE) for t in fragments)
    assert total == pytest.approx(expected, abs=1e-12)


def test_evaluate_auto_expands_unions_deeper_than_the_recursion_limit():
    # every split of the first term keeps the second one beside it, so the
    # expansion runs one level per literal of the first term
    depth = sys.getrecursionlimit() + 100
    _, assumptions, _ = helpers.make_alphabet(2 * depth, 0)
    table = table_over(assumptions, [0.999] * len(assumptions))
    terms = [
        helpers.term(*((a, True) for a in assumptions[:depth])),
        helpers.term(*((a, True) for a in assumptions[depth:])),
    ]
    report = evaluate(SupportSets(mqs=frozenset(terms), mc=frozenset()), table)
    expected = 1.0 - (1.0 - 0.999**depth) ** 2
    assert report.method == SHANNON_EXPANSION
    assert report.qs_prob == pytest.approx(expected, abs=1e-12)


def test_evaluate_explicit_methods_agree():
    kb, table, alphabet = contradictory_unit_kb()
    from pabr.logic import parse_formula

    sets = minimal_quasi_supports(kb, parse_formula("p1", alphabet))
    by_ie = evaluate(sets, table, method=INCLUSION_EXCLUSION)
    by_sdp = evaluate(sets, table, method=DISJOINT_PRODUCTS)
    assert by_ie.support == pytest.approx(by_sdp.support, abs=1e-12)
    assert by_ie.method != by_sdp.method


def test_evaluate_total_inconsistency():
    (a1,), table = halves(1)
    sets = SupportSets(
        mqs=frozenset(),
        mc=frozenset([EMPTY_TERM]),
    )
    with pytest.raises(TotalInconsistencyError):
        evaluate(sets, table)
