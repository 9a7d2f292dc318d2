"""Line-oriented knowledge base files.

Four line kinds, order free except that every symbol must be declared
before use:

    # comment, blank lines ignored
    assumption <name> <probability>
    prop <name> [<name> ...]
    clause <lit> | <lit> | ...      stable knowledge
    fact <lit> | <lit> | ...        session facts

Literals negate with a leading "-" or "!". A bare `clause`/`fact` line
asserts the empty clause. `parse_kb_text` keeps clause lines as literal
names; `build_kb` declares the symbols and resolves each line straight to
its clause mask (`logic.resolve_clause`), with no literal objects.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .logic import (
    ASSUMPTION,
    IDENT_RE,
    PROPOSITION,
    Alphabet,
    RawClause,
    Value,
    literal_columns,
    parse_clause_body,
    resolve_clause,
)
from .probability import AssumptionTable
from .support import KnowledgeBase


class KbDocument(Value):
    """Parsed but not yet symbol-resolved knowledge base text."""

    __slots__ = ("assumptions", "propositions", "knowledge", "facts")

    def __init__(self, assumptions: tuple[tuple[str, float], ...] = (),
                 propositions: tuple[str, ...] = (), knowledge: tuple[RawClause, ...] = (),
                 facts: tuple[RawClause, ...] = ()):
        self._freeze(assumptions, propositions, knowledge, facts)


def _check_new_name(name: str, declared: set[str], lineno: int, column: int) -> None:
    if not IDENT_RE.fullmatch(name):
        raise ParseError(f"malformed name {name!r}", line=lineno, column=column)
    if name in declared:
        raise ParseError(f"symbol declared twice: {name}", line=lineno, column=column)


def parse_kb_text(text: str) -> KbDocument:
    """Parse knowledge base text; errors carry the offending token's line and column."""
    assumptions: list[tuple[str, float]] = []
    propositions: list[str] = []
    knowledge: list[RawClause] = []
    facts: list[RawClause] = []
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        keyword, *rest = stripped.split(None, 1)
        column = len(line) - len(stripped) + 1
        body = rest[0] if rest else ""
        body_offset = len(line) - len(body) if body else column + len(keyword)

        if keyword in ("clause", "fact"):
            clause = parse_clause_body(body, lineno, body_offset)
            for i, (_, name) in enumerate(clause):
                if name not in declared:
                    at = literal_columns(body, body_offset)[i]
                    raise ParseError(f"undeclared identifier: {name}", line=lineno, column=at)
            (knowledge if keyword == "clause" else facts).append(clause)
        elif keyword == "assumption":
            words = body.split()
            if len(words) != 2:
                message = "expected: assumption <name> <probability>"
                raise ParseError(message, line=lineno, column=column)
            name, prob_text = words
            _check_new_name(name, declared, lineno, body_offset + 1)
            prob_column = body_offset + len(body) - len(prob_text) + 1
            try:
                prob = float(prob_text)
            except ValueError:
                message = f"malformed probability {prob_text!r}"
                raise ParseError(message, line=lineno, column=prob_column) from None
            if not 0.0 <= prob <= 1.0:
                message = f"probability out of range: {prob_text}"
                raise ParseError(message, line=lineno, column=prob_column)
            declared.add(name)
            assumptions.append((name, prob))
        elif keyword == "prop":
            if not body:
                raise ParseError("expected: prop <name> ...", line=lineno, column=column)
            for word in re.finditer(r"\S+", body):
                name = word.group()
                _check_new_name(name, declared, lineno, body_offset + word.start() + 1)
                declared.add(name)
                propositions.append(name)
        else:
            raise ParseError(f"unknown line keyword {keyword!r}", line=lineno, column=column)

    return KbDocument(
        assumptions=tuple(assumptions),
        propositions=tuple(propositions),
        knowledge=tuple(knowledge),
        facts=tuple(facts),
    )


def parse_kb_file(path) -> KbDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kb_text(fh.read())


def build_kb(doc: KbDocument) -> tuple[KnowledgeBase, AssumptionTable]:
    """Resolve names into symbols and clause lines into clause masks;
    assumptions take the low indices."""
    alphabet = Alphabet()
    entries = []
    for name, prob in doc.assumptions:
        entries.append((alphabet.declare(name, ASSUMPTION), prob))
    for name in doc.propositions:
        alphabet.declare(name, PROPOSITION)
    table = AssumptionTable(tuple(entries))
    kb = KnowledgeBase(
        alphabet=alphabet,
        assumptions=table,
        sigma_k=tuple(resolve_clause(c, alphabet) for c in doc.knowledge),
        sigma_f=tuple(resolve_clause(c, alphabet) for c in doc.facts),
    )
    return kb, table
