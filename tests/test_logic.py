"""Logic core: parsing, clause form, subsumption, minimization, resolution."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabr.consequence import _contains_one_of
from pabr.errors import ParseError, UndeclaredSymbolError
from pabr.logic import (
    And,
    Atom,
    Clause,
    Implies,
    Literal,
    Not,
    Or,
    Term,
    even_bits,
    is_tautology,
    minimal_masks,
    parse_formula,
    resolvent_mask,
    swap,
    to_cnf,
)

import helpers
from helpers import clause_to_formula, clause_value, formula_value, mu_minimize

ALPHABET, (A1, A2), (P, Q, R) = helpers.make_alphabet(2, 3)
SYMS = [A1, A2, P, Q, R]
EVEN = even_bits(len(SYMS))


def cnf_value(masks, bits):
    return all(clause_value(ALPHABET.clause_of(m), bits) for m in masks)


# --- parsing -----------------------------------------------------------------


def test_parse_atom_and_connectives():
    assert parse_formula("p1", ALPHABET) == Atom(P)
    assert parse_formula("!p1", ALPHABET) == Not(Atom(P))
    assert parse_formula("p1 & p2", ALPHABET) == And(Atom(P), Atom(Q))
    assert parse_formula("p1 | p2", ALPHABET) == Or(Atom(P), Atom(Q))
    assert parse_formula("p1 -> p2", ALPHABET) == Implies(Atom(P), Atom(Q))


def test_parse_precedence():
    # ! binds tighter than &, & tighter than |, | tighter than ->
    assert parse_formula("!p1 & p2", ALPHABET) == And(Not(Atom(P)), Atom(Q))
    assert parse_formula("p1 | p2 & p3", ALPHABET) == Or(Atom(P), And(Atom(Q), Atom(R)))
    assert parse_formula("p1 & p2 | p3", ALPHABET) == Or(And(Atom(P), Atom(Q)), Atom(R))
    assert parse_formula("p1 -> p2 | p3", ALPHABET) == Implies(Atom(P), Or(Atom(Q), Atom(R)))


def test_parse_implication_right_associative():
    assert parse_formula("p1 -> p2 -> p3", ALPHABET) == Implies(
        Atom(P), Implies(Atom(Q), Atom(R))
    )


def test_parse_parens_and_double_negation():
    assert parse_formula("!(p1 & p2)", ALPHABET) == Not(And(Atom(P), Atom(Q)))
    assert parse_formula("!!p1", ALPHABET) == Not(Not(Atom(P)))


def test_parse_dangling_operator_position():
    alphabet, _, _ = helpers.make_alphabet(0, 2)
    b = alphabet.declare("b", helpers.PROPOSITION)
    with pytest.raises(ParseError) as err:
        parse_formula("b &", alphabet)
    assert err.value.offset == 3


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("", ALPHABET)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_formula("(p1", ALPHABET)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_formula("p1 p2", ALPHABET)
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_formula("p1 - p2", ALPHABET)
    assert err.value.offset == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("p1 & (p2 | ", "expected a formula at offset 11"),
        ("(p1 & p2 p3", "expected ')' at offset 9"),
        ("((p1)", "expected ')' at offset 5"),
        ("p1 & p2) | p3", "unexpected token ')' at offset 7"),
        ("p1 !p2", "unexpected token '!' at offset 3"),
        ("!(p1 -> ) p2", "expected a formula at offset 8"),
        ("p1 -> & p2", "expected a formula at offset 6"),
        ("p1 | ?", "unexpected character '?' at offset 5"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_formula(text, ALPHABET)
    assert str(err.value) == message


def test_parse_undeclared_identifier_named():
    with pytest.raises(UndeclaredSymbolError) as err:
        parse_formula("p1 & nonsense", ALPHABET)
    assert "nonsense" in str(err.value)
    assert err.value.offset == 5


# --- clause form ---------------------------------------------------------------


def test_cnf_negated_conjunction():
    f = parse_formula("!(p1 & p2)", ALPHABET)
    assert to_cnf(f) == {helpers.mask((P, False), (Q, False))}


def test_cnf_implication():
    f = parse_formula("p1 -> p2", ALPHABET)
    assert to_cnf(f) == {helpers.mask((P, False), (Q, True))}


def test_cnf_distribution_with_subsumption():
    f = parse_formula("p1 & (p2 | p3)", ALPHABET)
    assert to_cnf(f) == {helpers.mask((P, True)), helpers.mask((Q, True), (R, True))}
    g = parse_formula("p1 | (p1 & p2)", ALPHABET)
    assert to_cnf(g) == {helpers.mask((P, True))}


def test_cnf_tautology_is_empty_set():
    assert to_cnf(parse_formula("p1 | !p1", ALPHABET)) == frozenset()


def test_cnf_contradiction_stays_unsatisfiable():
    clauses = to_cnf(parse_formula("p1 & !p1", ALPHABET))
    for bits in product((0, 1), repeat=len(SYMS)):
        assert not cnf_value(clauses, bits)


formulas = st.recursive(
    st.sampled_from([Atom(s) for s in SYMS]),
    lambda child: st.one_of(
        st.builds(Not, child),
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Implies, child, child),
    ),
    max_leaves=10,
)


@settings(deadline=None, max_examples=200)
@given(formulas)
def test_cnf_preserves_truth_table(f):
    # helpers.render and helpers.reference_value recurse, so the stack-based
    # parser, formula_value and to_cnf are not checked against each other only
    assert parse_formula(helpers.render(f), ALPHABET) == f
    clauses = to_cnf(f)
    assert all(not is_tautology(c, EVEN) for c in clauses)
    assert set(minimal_masks(clauses)) == clauses
    for bits in product((0, 1), repeat=len(SYMS)):
        expected = helpers.reference_value(f, bits)
        assert formula_value(f, bits) == expected
        assert cnf_value(clauses, bits) == expected


# --- subsumption and minimization ----------------------------------------------
#
# On masks: a clause contains (is subsumed by) another when the other's bits
# are a subset of its own, `_contains_one_of(big, [small])`.


def test_subsumes_is_superset():
    big = helpers.mask((A1, False), (A2, False))
    small = helpers.mask((A1, False))
    assert _contains_one_of(big, [small])
    assert not _contains_one_of(small, [big])
    assert _contains_one_of(small, [small])


def test_mu_drops_tautology_above_unit():
    taut = helpers.clause((A1, True), (A1, False))
    unit = helpers.clause((A1, False))
    assert mu_minimize([taut, unit]) == {unit}


def test_mu_collapses_duplicates():
    c = helpers.clause((A1, True))
    assert mu_minimize([c, Clause(frozenset([Literal(A1, True)]))]) == {c}


clauses_st = st.lists(
    st.frozensets(
        st.builds(Literal, st.sampled_from(SYMS), st.booleans()), max_size=4
    ).map(Clause),
    max_size=8,
)


@settings(deadline=None, max_examples=200)
@given(clauses_st)
def test_mu_idempotent_and_minimal(cs):
    once = mu_minimize(cs)
    assert mu_minimize(once) == once
    assert mu_minimize(reversed(cs)) == once
    for x in once:
        for y in once:
            if x != y:
                assert not x.literals > y.literals
    # everything dropped is a strict superset of something kept
    for x in cs:
        if x not in once:
            assert any(x.literals > y.literals for y in once)


@settings(deadline=None, max_examples=200)
@given(clauses_st)
def test_subsumes_partial_order(cs):
    def subsumes(x, y):
        return _contains_one_of(x.mask, [y.mask])

    for x in cs:
        assert subsumes(x, x)
        for y in cs:
            if subsumes(x, y) and subsumes(y, x):
                assert x == y
            for z in cs:
                if subsumes(x, y) and subsumes(y, z):
                    assert subsumes(x, z)


# --- resolution ----------------------------------------------------------------
#
# On clause masks: the pivot is named by its literal's bit in the second parent.


def test_resolve_example():
    alphabet, (a1,), (burglary, alarm) = helpers.make_alphabet(1, 2)
    c1 = Clause(
        frozenset(
            [Literal(burglary, False), Literal(a1, False), Literal(alarm, True)]
        )
    )
    c2 = Clause(frozenset([Literal(alarm, False)]))
    out = resolvent_mask(c1.mask, c2.mask, Literal(alarm, False).bit, even_bits(len(alphabet)))
    assert alphabet.clause_of(out) == Clause(
        frozenset([Literal(burglary, False), Literal(a1, False)])
    )


def test_resolve_can_return_tautology():
    c1 = helpers.clause((P, True), (Q, True))
    c2 = helpers.clause((P, False), (Q, False))
    out = resolvent_mask(c1.mask, c2.mask, Literal(P, False).bit, EVEN)
    assert ALPHABET.clause_of(out).is_tautology


def test_resolve_to_empty_clause():
    c1, c2 = helpers.clause((P, True)), helpers.clause((P, False))
    out = resolvent_mask(c1.mask, c2.mask, Literal(P, False).bit, EVEN)
    assert ALPHABET.clause_of(out) == helpers.clause()


@settings(deadline=None, max_examples=200)
@given(
    st.frozensets(st.builds(Literal, st.sampled_from(SYMS), st.booleans()), max_size=4),
    st.frozensets(st.builds(Literal, st.sampled_from(SYMS), st.booleans()), max_size=4),
)
def test_resolvents_are_entailed(l1, l2):
    c1, c2 = Clause(l1), Clause(l2)
    clash = swap(c1.mask, EVEN) & c2.mask
    for lit in c2.sorted_literals:
        if lit.bit & clash:
            r = ALPHABET.clause_of(resolvent_mask(c1.mask, c2.mask, lit.bit, EVEN))
            assert helpers.entails([c1, c2], r, len(SYMS))


# --- misc types ------------------------------------------------------------------


def test_literal_negate_involution():
    lit = Literal(A1, True)
    assert lit.negate().negate() == lit
    assert lit.negate() == Literal(A1, False)


def test_empty_clause_and_term_flags():
    assert helpers.clause().is_empty
    assert not helpers.clause().is_tautology
    assert helpers.term((A1, True), (A1, False)).is_inconsistent
    assert not helpers.term((A1, True), (A2, False)).is_inconsistent


def test_clause_term_not_interchangeable():
    assert helpers.clause((A1, True)) != helpers.term((A1, True))


def test_clause_to_formula_round_trip():
    c = helpers.clause((A1, False), (P, True))
    f = clause_to_formula(c)
    for bits in product((0, 1), repeat=len(SYMS)):
        assert formula_value(f, bits) == clause_value(c, bits)
    with pytest.raises(ValueError):
        clause_to_formula(helpers.clause())


def test_sorted_literals_follow_declaration_order():
    c = Clause(frozenset([Literal(P, True), Literal(A2, False), Literal(A1, True)]))
    assert [str(l) for l in c.sorted_literals] == ["a1", "-a2", "p1"]
