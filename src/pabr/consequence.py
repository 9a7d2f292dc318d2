"""Consequence finding restricted to a clause field, with incremental snapshots.

The central object is the set of minimal implicates of a clause set that
fall inside a production field (a subsumption-stable clause language).
Two fields matter here: clauses over assumption symbols only, and the
unrestricted field whose minimal implicates are the prime implicates.
A state folds each input clause once: into the prime implicates when it
tracks them, reading the assumption-only set off them (the field is
subsumption-stable, so its minimal implicates are exactly the prime
implicates inside it), and into the assumption-only set directly otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import ParseError, UndeclaredSymbolError
from .logic import (
    Alphabet,
    Clause,
    EMPTY_CLAUSE,
    Literal,
    mu_minimize,
    parse_clause_body,
    resolve_clause,
    resolvents,
)

ASSUMPTION_ONLY = "assumption_only"
ALL_CLAUSES = "all_clauses"


@dataclass(frozen=True)
class ProductionField:
    """A subsumption-stable clause language over one alphabet."""

    kind: str
    alphabet: Alphabet

    def __post_init__(self):
        if self.kind not in (ASSUMPTION_ONLY, ALL_CLAUSES):
            raise ValueError(f"unknown field kind: {self.kind!r}")

    @classmethod
    def assumption_only(cls, alphabet: Alphabet) -> ProductionField:
        return cls(ASSUMPTION_ONLY, alphabet)

    @classmethod
    def all_clauses(cls, alphabet: Alphabet) -> ProductionField:
        return cls(ALL_CLAUSES, alphabet)

    def contains(self, clause: Clause) -> bool:
        if self.kind == ALL_CLAUSES:
            return True
        return clause.is_assumption_only

    def seed_clauses(self) -> frozenset[Clause]:
        """Tautologies inside the field: the minimal implicates of nothing."""
        if self.kind == ASSUMPTION_ONLY:
            symbols = self.alphabet.assumptions
        else:
            symbols = self.alphabet.symbols
        return frozenset(
            Clause.of(Literal(s, True), Literal(s, False)) for s in symbols
        )


def produce(sigma: Sequence[Clause], clause: Clause, field: ProductionField) -> frozenset[Clause]:
    """Field members of the resolution closure seeded at `clause`.

    Saturates the set reachable from `clause` against the side clauses
    `sigma` and everything already derived (so ancestor steps are covered),
    drops tautologies, and prunes resolvents subsumed by a derived clause.
    The result is mu-minimized. Together with the previous minimal field
    implicates of `sigma` it yields, after one more mu pass, the minimal
    field implicates of sigma plus `clause`.
    """
    if clause.is_tautology:
        return frozenset()
    sides = [s for s in dict.fromkeys(sigma) if not s.is_tautology]
    kept: list[Clause] = []
    agenda: list[Clause] = [clause]
    while agenda:
        given = agenda.pop(0)
        if any(k.literals <= given.literals for k in kept):
            continue
        kept.append(given)
        for partner in sides + kept:
            for r in resolvents(given, partner):
                if r.is_tautology:
                    continue
                if any(k.literals <= r.literals for k in kept):
                    continue
                if any(a.literals <= r.literals for a in agenda):
                    continue
                agenda.append(r)
    return mu_minimize(c for c in kept if field.contains(c))


@dataclass(frozen=True)
class CompiledState:
    """Immutable snapshot of an incremental compilation.

    `carc` holds the minimal implicates of the processed clauses inside
    `field`; `pi`, when enabled, holds the full prime implicate set of the
    same clauses. Updates return fresh snapshots.
    """

    field: ProductionField
    carc: frozenset[Clause]
    processed: tuple[Clause, ...] = ()
    pi: frozenset[Clause] | None = None

    @classmethod
    def initial(cls, field: ProductionField, with_pi: bool = False) -> CompiledState:
        pi = ProductionField.all_clauses(field.alphabet).seed_clauses() if with_pi else None
        return cls(field=field, carc=field.seed_clauses(), processed=(), pi=pi)

    @property
    def is_plainly_inconsistent(self) -> bool:
        """True when the processed clauses are unsatisfiable outright."""
        return EMPTY_CLAUSE in self.carc


def carc_add(state: CompiledState, clause: Clause) -> CompiledState:
    """Fold one clause into the minimal field implicates."""
    processed = state.processed + (clause,)
    if clause.is_tautology:
        return replace(state, processed=processed)
    fresh = produce(state.processed, clause, state.field)
    carc = mu_minimize(state.carc | fresh)
    return replace(state, carc=carc, processed=processed)


def pi_add(state: CompiledState, clause: Clause) -> CompiledState:
    """Fold one clause into the prime implicates and read carc off them.

    The previous prime implicates stand in for the processed clauses as
    side clauses; they are equivalent to them and already minimal. The new
    carc is the part of the new prime implicate set inside `state.field`.
    """
    if state.pi is None:
        raise ValueError("state was compiled without prime implicates")
    processed = state.processed + (clause,)
    if clause.is_tautology:
        return replace(state, processed=processed)
    full = ProductionField.all_clauses(state.field.alphabet)
    pi = mu_minimize(state.pi | produce(tuple(state.pi), clause, full))
    carc = frozenset(c for c in pi if state.field.contains(c))
    return replace(state, carc=carc, processed=processed, pi=pi)


def extend(state: CompiledState, clause: Clause) -> CompiledState:
    """Fold one clause: pi_add when the state tracks prime implicates, else carc_add."""
    if state.pi is None:
        return carc_add(state, clause)
    return pi_add(state, clause)


def compile_clauses(
    alphabet: Alphabet, clauses: Iterable[Clause], with_pi: bool = False
) -> CompiledState:
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi)
    for c in clauses:
        state = extend(state, c)
    return state


# --- snapshot files ----------------------------------------------------------

_EMPTY_TOKEN = "<empty>"
_SECTIONS = ("carc", "pi", "processed")


def _clause_line(clause: Clause) -> str:
    return _EMPTY_TOKEN if clause.is_empty else str(clause)


def snapshot_text(state: CompiledState) -> str:
    """Render a snapshot as sectioned text, one clause per line.

    carc and pi are written in canonical order; the processed section keeps
    insertion order because it is the fold history.
    """
    lines = ["[carc]"]
    lines += [_clause_line(c) for c in sorted(state.carc, key=lambda c: c.sort_key)]
    if state.pi is not None:
        lines.append("[pi]")
        lines += [_clause_line(c) for c in sorted(state.pi, key=lambda c: c.sort_key)]
    lines.append("[processed]")
    lines += [_clause_line(c) for c in state.processed]
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str, alphabet: Alphabet) -> CompiledState:
    field = ProductionField.assumption_only(alphabet)
    sections: dict[str, list[Clause]] = {}
    current: str | None = None
    saw_pi = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", line=lineno)
            current = name
            sections.setdefault(name, [])
            if name == "pi":
                saw_pi = True
            continue
        if current is None:
            raise ParseError("clause before any section header", line=lineno)
        raw_clause = parse_clause_body("" if line == _EMPTY_TOKEN else raw, lineno)
        try:
            sections[current].append(resolve_clause(raw_clause, alphabet))
        except UndeclaredSymbolError as err:
            raise UndeclaredSymbolError(str(err), line=lineno) from None
    if "carc" not in sections:
        raise ParseError("missing [carc] section", line=1)
    return CompiledState(
        field=field,
        carc=frozenset(sections.get("carc", [])),
        processed=tuple(sections.get("processed", [])),
        pi=frozenset(sections["pi"]) if saw_pi else None,
    )


def write_snapshot(state: CompiledState, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(snapshot_text(state))


def read_snapshot(path, alphabet: Alphabet) -> CompiledState:
    with open(path, "r", encoding="ascii") as fh:
        return parse_snapshot(fh.read(), alphabet)
