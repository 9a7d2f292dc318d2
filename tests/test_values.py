"""Value semantics of pabr's record classes: equality, hashing, immutability,
validation and constructor signatures.

Equality is by class and by the compared fields, never by structure alone:
formula nodes of different connectives, or a clause and a term over the
same literals, are unequal even though their fields match.
"""

import copy
import pickle

import pytest

from pabr.consequence import CompiledState, ProductionField, compile_clauses
from pabr.kbfile import KbDocument
from pabr.logic import (
    ASSUMPTION,
    PROPOSITION,
    And,
    Atom,
    Clause,
    Implies,
    Literal,
    Not,
    Or,
    Symbol,
    Term,
    parse_formula,
)
from pabr.oracle import HintModel
from pabr.probability import AssumptionTable, SupportReport
from pabr.support import KnowledgeBase, SupportSets

import helpers

ALPHABET, (A1, A2), (P,) = helpers.make_alphabet(2, 1)


def test_formula_nodes_compare_by_connective():
    a, b = Atom(A1), Atom(P)
    nodes = [And(a, b), Or(a, b), Implies(a, b)]
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            assert (x == y) == (i == j)
            assert (x != y) == (i != j)
    assert And(a, b) != (a, b)
    assert Not(a) != a and Not(a) == Not(Atom(A1))
    assert parse_formula("a1 & p1", ALPHABET) == And(a, b)
    assert parse_formula("a1 | p1", ALPHABET) != And(a, b)
    assert len({And(a, b), And(Atom(A1), Atom(P)), Or(a, b)}) == 2


def test_clause_and_term_views_never_compare_equal():
    pairs = ((A1, True), (P, False))
    assert helpers.clause(*pairs) != helpers.term(*pairs)
    assert Clause.of() != Term.of()
    assert helpers.clause(*pairs) == ALPHABET.clause_of(helpers.mask(*pairs))
    assert helpers.term(*pairs) == ALPHABET.term_of(helpers.mask(*pairs))
    assert len({helpers.clause(*pairs), helpers.term(*pairs)}) == 2


def test_equal_views_hash_equal():
    other, _, _ = helpers.make_alphabet(2, 1)
    m = helpers.mask((A1, False), (A2, True), (P, True))
    for left, right in [
        (ALPHABET.clause_of(m), other.clause_of(m)),
        (ALPHABET.term_of(m), other.term_of(m)),
        (Literal(A1, False), Literal(Symbol("a1", ASSUMPTION, 0), False)),
        (Literal(A1), Literal(A1, True)),
        (A2, Symbol("a2", ASSUMPTION, 1)),
        (And(Atom(A1), Not(Atom(P))), And(Atom(A1), Not(Atom(P)))),
    ]:
        assert left is not right
        assert left == right and not left != right
        assert hash(left) == hash(right)
    assert Literal(A1) != Literal(A1, False)
    assert Symbol("a1", ASSUMPTION, 0) != Symbol("a1", PROPOSITION, 0)
    assert Symbol("a1", ASSUMPTION, 0) != ("a1", ASSUMPTION, 0)


def test_states_compare_by_their_fields_only():
    clauses = [helpers.mask((A1, False), (P, True)), helpers.mask((A2, False), (P, False))]
    x = compile_clauses(ALPHABET, clauses, with_pi=True)
    y = compile_clauses(ALPHABET, clauses, with_pi=True)
    assert x.carc and x.pi  # views built on one side only
    assert x == y and hash(x) == hash(y)
    assert x != compile_clauses(ALPHABET, clauses)
    field = ProductionField.assumption_only(ALPHABET)
    assert field == ProductionField(ALPHABET, field.outside)
    state = CompiledState(field=field, carc_masks=frozenset())
    assert state.processed_masks == () and state.pi_masks is None and state.pi is None
    assert state == CompiledState(field, frozenset(), (), None)


@pytest.mark.parametrize("name", ["symbol", "literal", "clause", "term", "state", "table"])
def test_value_attributes_are_read_only(name):
    table = AssumptionTable(((A1, 0.5),))
    obj, attr = {
        "symbol": (A1, "name"),
        "literal": (Literal(A1), "positive"),
        "clause": (helpers.clause((A1, True)), "literals"),
        "term": (helpers.term((A1, True)), "mask"),
        "state": (compile_clauses(ALPHABET, [helpers.mask((A1, True))]), "carc_masks"),
        "table": (table, "entries"),
    }[name]
    before = getattr(obj, attr)
    with pytest.raises(AttributeError):
        setattr(obj, attr, before)
    with pytest.raises(AttributeError):
        delattr(obj, attr)
    assert getattr(obj, attr) == before


def test_assumption_table_validates_its_entries():
    with pytest.raises(ValueError, match="not an assumption"):
        AssumptionTable(((P, 0.5),))
    with pytest.raises(ValueError, match="duplicate"):
        AssumptionTable(((A1, 0.5), (A1, 0.5)))
    for q in (-0.1, 1.5):
        with pytest.raises(ValueError, match="out of range"):
            AssumptionTable(((A1, q),))
    with pytest.raises(ValueError, match="unknown symbol kind"):
        Symbol("x", "belief", 0)
    table = AssumptionTable(entries=((A1, 0.25), (A2, 1.0)))
    assert table.bit_prob == {1: 0.25, 2: 0.75, 4: 1.0, 8: 0.0}
    assert table == AssumptionTable(((A1, 0.25), (A2, 1.0)))
    assert table != AssumptionTable(((A1, 0.25),))


def test_records_keep_their_signatures_and_reprs():
    assert KbDocument() == KbDocument((), (), (), ())
    assert KbDocument(facts=(((False, "p"),),)).facts == (((False, "p"),),)
    sets = SupportSets(mqs=frozenset(), mc=frozenset())
    assert sets == SupportSets(frozenset(), frozenset())
    report = SupportReport(frozenset(), frozenset(), 0.5, 0.0, 0.5, "auto")
    assert report.bounds is None
    assert report == SupportReport(
        mqs=frozenset(), mc=frozenset(), qs_prob=0.5, contra_prob=0.0, support=0.5,
        method="auto", bounds=None,
    )
    table = AssumptionTable(((A1, 0.5),))
    kb = KnowledgeBase(ALPHABET, table, (1,))
    assert kb.sigma_f == () and kb == KnowledgeBase(ALPHABET, table, sigma_k=(1,), sigma_f=())
    hint = HintModel(KnowledgeBase(ALPHABET, table, (0,)))
    assert hint.omega == frozenset()
    assert repr(A1) == "Symbol('a1', assumption, 0)"
    assert repr(Literal(A1, False)) == "Literal(-a1)"
    assert repr(helpers.clause((A1, True), (P, False))) == "Clause(a1 | -p1)"
    assert repr(Term.of()) == "Term(<true>)"
    assert repr(Atom(A1)) == "Atom(symbol=Symbol('a1', assumption, 0))"
    assert repr(table) == "AssumptionTable(entries=((Symbol('a1', assumption, 0), 0.5),))"


def test_values_copy_and_pickle_through_their_constructors():
    state = compile_clauses(ALPHABET, [helpers.mask((A1, False), (P, True))], with_pi=True)
    assert state.carc
    assert copy.copy(state) == state and copy.deepcopy(state.field).outside == state.field.outside
    for value in [
        A1,
        Literal(A1, False),
        helpers.clause((A1, True), (P, False)),
        helpers.term((A2, False)),
        And(Atom(A1), Not(Atom(P))),
        AssumptionTable(((A1, 0.25),)),
        SupportSets(frozenset([helpers.term((A1, True))]), frozenset()),
    ]:
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and clone is not value and repr(clone) == repr(value)
        assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(helpers.clause((A1, True)))).mask == helpers.mask((A1, True))
