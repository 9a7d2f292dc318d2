"""KB file parsing, serialization round-trips, resolution to clause masks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pabr.consequence import parse_snapshot
from pabr.errors import ParseError
from pabr.kbfile import (
    KbDocument,
    build_kb,
    parse_kb_text,
)
from pabr.logic import ASSUMPTION, PROPOSITION, Literal

import helpers
from helpers import serialize_kb


def test_parse_burglar_text():
    doc = parse_kb_text(helpers.BURGLAR_TEXT)
    assert doc.assumptions == (("a1", 0.95), ("a2", 0.01))
    assert doc.propositions == ("burglary", "alarm")
    assert len(doc.knowledge) == 3
    assert doc.facts == (((False, "alarm"),),)
    assert doc.knowledge[0] == ((True, "burglary"), (True, "a1"), (False, "alarm"))


def test_parse_ignores_comments_and_blanks():
    doc = parse_kb_text("# top\n\nassumption a 0.5  # trailing\n\nprop p\n")
    assert doc.assumptions == (("a", 0.5),)
    assert doc.propositions == ("p",)


def test_bang_negation_is_accepted():
    doc = parse_kb_text("prop p q\nclause !p | q\n")
    assert doc.knowledge == (((True, "p"), (False, "q")),)


def test_bare_clause_line_is_the_empty_clause():
    doc = parse_kb_text("prop p\nclause\n")
    assert doc.knowledge == ((),)
    kb, _table = build_kb(doc)
    assert kb.sigma_k == (0,)


def test_parse_error_probability_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_kb_text("assumption a 1.5\n")
    assert err.value.line == 1
    assert "1.5" in str(err.value)


def test_parse_error_malformed_probability():
    with pytest.raises(ParseError) as err:
        parse_kb_text("prop p\nassumption a high\n")
    assert err.value.line == 2


def test_parse_error_duplicate_declaration():
    with pytest.raises(ParseError) as err:
        parse_kb_text("prop p\nassumption p 0.5\n")
    assert err.value.line == 2
    assert "twice" in str(err.value)


def test_parse_error_undeclared_identifier():
    with pytest.raises(ParseError) as err:
        parse_kb_text("prop p\nclause p | q\n")
    assert err.value.line == 2
    assert "q" in str(err.value)


def test_parse_error_unknown_keyword():
    with pytest.raises(ParseError) as err:
        parse_kb_text("rule p -> q\n")
    assert err.value.line == 1
    assert "rule" in str(err.value)


def test_parse_error_empty_literal():
    with pytest.raises(ParseError) as err:
        parse_kb_text("prop p\nclause p |\n")
    assert err.value.line == 2


def test_parse_error_carries_column():
    with pytest.raises(ParseError) as err:
        parse_kb_text("prop p\nclause p | 0bad\n")
    assert err.value.line == 2
    assert err.value.column is not None


@pytest.mark.parametrize(
    "text, column",
    [
        ("prop a b b", 10),
        ("prop a 9x", 8),
        ("assumption a x", 14),
        ("assumption a 1.5", 14),
        ("assumption a1 0.5\nclause a1 | -x", 13),
    ],
)
def test_declaration_errors_point_at_the_bad_token(text, column):
    with pytest.raises(ParseError) as err:
        parse_kb_text(text + "\n")
    assert err.value.line == text.count("\n") + 1
    assert err.value.column == column


def test_serialize_round_trip_burglar():
    doc = parse_kb_text(helpers.BURGLAR_TEXT)
    assert parse_kb_text(serialize_kb(doc)) == doc


names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def documents(draw):
    assumption_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    prop_pool = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    prop_names = [n for n in prop_pool if n not in assumption_names]
    assumptions = tuple(
        (n, draw(st.sampled_from(helpers.Q_CHOICES))) for n in assumption_names
    )
    declared = assumption_names + prop_names

    def raw_clause():
        width = draw(st.integers(min_value=0, max_value=3))
        return tuple(
            (draw(st.booleans()), draw(st.sampled_from(declared)))
            for _ in range(width)
        )

    knowledge = tuple(raw_clause() for _ in range(draw(st.integers(0, 4))))
    facts = tuple(raw_clause() for _ in range(draw(st.integers(0, 2))))
    return KbDocument(
        assumptions=assumptions,
        propositions=tuple(prop_names),
        knowledge=knowledge,
        facts=facts,
    )


@settings(deadline=None, max_examples=100)
@given(documents())
def test_serialize_round_trip_random_documents(doc):
    assert parse_kb_text(serialize_kb(doc)) == doc
    kb, _table = build_kb(doc)
    alphabet = kb.alphabet
    raw = doc.knowledge + doc.facts
    masks = kb.sigma_k + kb.sigma_f
    assert len(masks) == len(raw)
    for clause, mask in zip(raw, masks):
        want = {Literal(alphabet.lookup(name), not negated) for negated, name in clause}
        assert alphabet.clause_of(mask).literals == want
    # the same literals as snapshot lines, negated by "!", "- " or "-" and
    # each written twice, read back to the same masks
    for sign in ("!", "- ", "-"):
        lines = [
            " | ".join(sign + name if negated else name for negated, name in clause * 2)
            or "<empty>"
            for clause in raw
        ]
        text = "[carc]\n[processed]\n" + "".join(line + "\n" for line in lines)
        assert parse_snapshot(text, alphabet).processed_masks == masks


def test_build_kb_symbol_layout(burglar):
    kb, table = burglar
    a1 = kb.alphabet.lookup("a1")
    burglary = kb.alphabet.lookup("burglary")
    assert a1.kind == ASSUMPTION and a1.index == 0
    assert burglary.kind == PROPOSITION and burglary.index == 2
    assert table.prob(a1) == 0.95
    assert [s.name for s in table.symbols] == ["a1", "a2"]
    assert kb.clauses == kb.sigma_k + kb.sigma_f


def test_build_kb_resolves_negation():
    doc = parse_kb_text("assumption a 0.3\nprop p\nclause -a | p\n")
    kb, _table = build_kb(doc)
    (clause,) = kb.sigma_k
    by_name = {l.symbol.name: l.positive for l in kb.alphabet.clause_of(clause).literals}
    assert by_name == {"a": False, "p": True}
