"""Line-oriented knowledge base files.

Four line kinds, order free except that every symbol must be declared
before use:

    # comment, blank lines ignored
    assumption <name> <probability>
    prop <name> [<name> ...]
    clause <lit> | <lit> | ...      stable knowledge
    fact <lit> | <lit> | ...        session facts

Literals negate with a leading "-" or "!". A bare `clause`/`fact` line
asserts the empty clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .logic import (
    ASSUMPTION,
    IDENT_RE,
    PROPOSITION,
    Alphabet,
    RawClause,
    parse_clause_body,
    resolve_clause,
)
from .probability import AssumptionTable
from .support import KnowledgeBase


@dataclass(frozen=True)
class KbDocument:
    """Parsed but not yet symbol-resolved knowledge base text."""

    assumptions: tuple[tuple[str, float], ...] = ()
    propositions: tuple[str, ...] = ()
    knowledge: tuple[RawClause, ...] = ()
    facts: tuple[RawClause, ...] = ()


def parse_kb_text(text: str) -> KbDocument:
    assumptions: list[tuple[str, float]] = []
    propositions: list[str] = []
    knowledge: list[RawClause] = []
    facts: list[RawClause] = []
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        parts = stripped.split(None, 1)
        keyword = parts[0]
        body = parts[1] if len(parts) > 1 else ""
        body_offset = indent + len(keyword) + (line[indent + len(keyword):].index(body[:1]) if body else 1)

        if keyword == "assumption":
            tokens = body.split()
            if len(tokens) != 2:
                raise ParseError(
                    "expected: assumption <name> <probability>", line=lineno, column=indent + 1
                )
            name, prob_text = tokens
            if not IDENT_RE.fullmatch(name):
                raise ParseError(f"malformed name {name!r}", line=lineno, column=body_offset + 1)
            if name in declared:
                raise ParseError(f"symbol declared twice: {name}", line=lineno, column=body_offset + 1)
            try:
                prob = float(prob_text)
            except ValueError:
                raise ParseError(
                    f"malformed probability {prob_text!r}", line=lineno, column=indent + 1
                ) from None
            if not 0.0 <= prob <= 1.0:
                raise ParseError(
                    f"probability out of range: {prob_text}", line=lineno, column=indent + 1
                )
            declared.add(name)
            assumptions.append((name, prob))
        elif keyword == "prop":
            names = body.split()
            if not names:
                raise ParseError("expected: prop <name> ...", line=lineno, column=indent + 1)
            for name in names:
                if not IDENT_RE.fullmatch(name):
                    raise ParseError(f"malformed name {name!r}", line=lineno, column=indent + 1)
                if name in declared:
                    raise ParseError(f"symbol declared twice: {name}", line=lineno, column=indent + 1)
                declared.add(name)
                propositions.append(name)
        elif keyword in ("clause", "fact"):
            clause = parse_clause_body(body, lineno, body_offset)
            for negated, name in clause:
                if name not in declared:
                    raise ParseError(f"undeclared identifier: {name}", line=lineno, column=indent + 1)
            (knowledge if keyword == "clause" else facts).append(clause)
        else:
            raise ParseError(f"unknown line keyword {keyword!r}", line=lineno, column=indent + 1)

    return KbDocument(
        assumptions=tuple(assumptions),
        propositions=tuple(propositions),
        knowledge=tuple(knowledge),
        facts=tuple(facts),
    )


def parse_kb_file(path) -> KbDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kb_text(fh.read())


def _raw_clause_text(clause: RawClause) -> str:
    return " | ".join(("-" if negated else "") + name for negated, name in clause)


def serialize_kb(doc: KbDocument) -> str:
    """Write a document back to text; parsing the result yields an equal document."""
    lines = []
    for name, prob in doc.assumptions:
        lines.append(f"assumption {name} {prob!r}")
    if doc.propositions:
        lines.append("prop " + " ".join(doc.propositions))
    for clause in doc.knowledge:
        lines.append(("clause " + _raw_clause_text(clause)).rstrip())
    for clause in doc.facts:
        lines.append(("fact " + _raw_clause_text(clause)).rstrip())
    return "\n".join(lines) + "\n"


def build_kb(doc: KbDocument) -> tuple[KnowledgeBase, AssumptionTable]:
    """Resolve names into symbols; assumptions take the low indices."""
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
