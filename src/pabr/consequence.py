"""Consequence finding restricted to a clause field, with incremental snapshots.

The central object is the set of minimal implicates of a clause set that
fall inside a production field (a subsumption-stable clause language).
Two fields matter here: clauses over assumption symbols only, and the
unrestricted field whose minimal implicates are the prime implicates.
`extend` folds knowledge, facts and a query's negated hypothesis alike:
into the prime implicates when the state tracks them, reading the
assumption-only set off them (the field is subsumption-stable, so its
minimal implicates are the prime implicates inside it), and into the
assumption-only set directly otherwise.

Each fold is one given-clause saturation (`produce`) run on clause
bitmasks: a first-in first-out agenda of derived clauses, forward
subsumption of every resolvent by the kept and pending clauses, and
backward subsumption, which drops the kept clauses a newly kept one
subsumes, so kept clauses are never resolved against stale ones. Its
result is an antichain, merged into the old one by `_union`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field, replace
from itertools import chain
from typing import Iterable, Sequence

from .errors import ParseError, UndeclaredSymbolError
from .logic import (
    Alphabet,
    Clause,
    EMPTY_CLAUSE,
    Literal,
    even_bits,
    is_tautology,
    parse_clause_body,
    resolve_clause,
    resolvent_mask,
    swap,
)

ASSUMPTION_ONLY = "assumption_only"
ALL_CLAUSES = "all_clauses"


@dataclass(frozen=True)
class ProductionField:
    """A subsumption-stable clause language over one alphabet.

    `outside` holds the bits no member may carry: the complement of the
    assumption literals' bits, or nothing for the unrestricted field.
    """

    kind: str
    alphabet: Alphabet
    outside: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (ASSUMPTION_ONLY, ALL_CLAUSES):
            raise ValueError(f"unknown field kind: {self.kind!r}")
        outside = 0
        if self.kind == ASSUMPTION_ONLY:
            outside = ~sum(c.mask for c in self.seed_clauses())
        object.__setattr__(self, "outside", outside)

    @classmethod
    def assumption_only(cls, alphabet: Alphabet) -> ProductionField:
        return cls(ASSUMPTION_ONLY, alphabet)

    @classmethod
    def all_clauses(cls, alphabet: Alphabet) -> ProductionField:
        return cls(ALL_CLAUSES, alphabet)

    def contains(self, clause: Clause) -> bool:
        return not clause.mask & self.outside

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

    A given-clause loop on bitmasks: each clause popped from the agenda is
    dropped when a kept clause subsumes it; otherwise it is kept, the kept
    clauses it subsumes are dropped, and its resolvents with the side
    clauses `sigma` and with every kept clause (so ancestor steps are
    covered) join the agenda unless a kept or pending clause subsumes
    them. Tautologies never enter. The kept clauses stay pairwise
    incomparable, so the field members among them are mu-minimal. Merged
    with the previous minimal field implicates of `sigma` by `_union` they
    yield the minimal field implicates of sigma plus `clause`.
    """
    even = even_bits(len(field.alphabet))
    if is_tautology(clause.mask, even):
        return frozenset()
    sides = [m for m in dict.fromkeys(c.mask for c in sigma) if not is_tautology(m, even)]
    kept: list[int] = []
    agenda = deque([clause.mask])
    while agenda:
        given = agenda.popleft()
        if any(k & given == k for k in kept):
            continue
        kept = [k for k in kept if k & given != given]
        kept.append(given)
        complement = swap(given, even)
        for partner in chain(sides, kept):
            pivot = complement & partner
            # two or more clashing symbols leave only tautologies
            if not pivot or pivot & (pivot - 1):
                continue
            r = resolvent_mask(given, partner, pivot, even)
            if any(k & r == k for k in kept) or any(a & r == a for a in agenda):
                continue
            agenda.append(r)
    return frozenset(field.alphabet.clause_of(m) for m in kept if not m & field.outside)


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


def _union(old: frozenset[Clause], fresh: frozenset[Clause]) -> frozenset[Clause]:
    """`mu_minimize(old | fresh)` for two antichains, comparing only across them.

    A fresh clause goes when it contains an old one, an old clause when it
    contains a kept fresh one; a dropped fresh clause lies inside no old
    one, since old is an antichain.
    """
    old_masks = [c.mask for c in old]
    new = [c for c in fresh if not any(m & c.mask == m for m in old_masks)]
    if not new:
        return old
    new_masks = [c.mask for c in new]
    gone = [c for c in old if any(m & c.mask == m for m in new_masks)]
    return old.difference(gone).union(new)


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
    pi = _union(state.pi, produce(tuple(state.pi), clause, full))
    carc = frozenset(c for c in pi if state.field.contains(c))
    return replace(state, carc=carc, processed=processed, pi=pi)


def extend(state: CompiledState, clause: Clause) -> CompiledState:
    """Fold one clause: `pi_add` when the state tracks prime implicates,
    else resolve it against the processed clauses and merge into carc."""
    if state.pi is not None:
        return pi_add(state, clause)
    processed = state.processed + (clause,)
    if clause.is_tautology:
        return replace(state, processed=processed)
    carc = _union(state.carc, produce(state.processed, clause, state.field))
    return replace(state, carc=carc, processed=processed)


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
