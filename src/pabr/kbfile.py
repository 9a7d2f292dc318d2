"""Line-oriented knowledge base files.

Four line kinds, order free except that every symbol must be declared
before use:

    # comment, blank lines ignored
    assumption <name> <probability>
    prop <name> [<name> ...]
    clause <lit> | <lit> | ...      stable knowledge
    fact <lit> | <lit> | ...        session facts

Literals negate with a leading "-" or "!". A bare `clause`/`fact` line
asserts the empty clause. `parse_kb_text` reads clause lines with
`logic.read_clause`, the snapshot files' reader, through the spellings of
the names declared so far, and keeps their literal names; `build_kb`
declares the symbols and resolves each line straight to its clause mask
(`logic.resolve_clause`), with no literal objects.
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
    RawLiteral,
    read_clause,
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


def _declare(name: str, spellings: dict[str, RawLiteral], lineno: int, column: int) -> None:
    """Add a new symbol name's spellings `a`, `-a` and `!a` to `spellings`."""
    if not IDENT_RE.fullmatch(name):
        raise ParseError(f"malformed name {name!r}", line=lineno, column=column)
    if name in spellings:
        raise ParseError(f"symbol declared twice: {name}", line=lineno, column=column)
    spellings[name] = (False, name)
    spellings["-" + name] = spellings["!" + name] = (True, name)


def parse_kb_text(text: str) -> KbDocument:
    """Parse knowledge base text; errors carry the offending token's line and column."""
    assumptions: list[tuple[str, float]] = []
    propositions: list[str] = []
    knowledge: list[RawClause] = []
    facts: list[RawClause] = []
    spellings: dict[str, RawLiteral] = {}  # of the names declared so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.lstrip()
        if not stripped:
            continue
        keyword, *rest = stripped.split(None, 1)
        column = len(line) - len(stripped) + 1
        if keyword in ("clause", "fact"):
            # the clause body starts after the keyword's one separating character
            after = column + len(keyword)
            clause = read_clause(line[after:], spellings, lineno, after)
            (knowledge if keyword == "clause" else facts).append(tuple(clause))
            continue

        body = rest[0] if rest else ""
        body_offset = len(line) - len(body) if body else column + len(keyword)
        if keyword == "assumption":
            words = body.split()
            if len(words) != 2:
                message = "expected: assumption <name> <probability>"
                raise ParseError(message, line=lineno, column=column)
            name, prob_text = words
            _declare(name, spellings, lineno, body_offset + 1)
            prob_column = body_offset + len(body) - len(prob_text) + 1
            try:
                prob = float(prob_text)
            except ValueError:
                message = f"malformed probability {prob_text!r}"
                raise ParseError(message, line=lineno, column=prob_column) from None
            if not 0.0 <= prob <= 1.0:
                message = f"probability out of range: {prob_text}"
                raise ParseError(message, line=lineno, column=prob_column)
            assumptions.append((name, prob))
        elif keyword == "prop":
            if not body:
                raise ParseError("expected: prop <name> ...", line=lineno, column=column)
            for word in re.finditer(r"\S+", body):
                name = word.group()
                _declare(name, spellings, lineno, body_offset + word.start() + 1)
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
    with open(path, "r", encoding="utf-8-sig") as fh:
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
