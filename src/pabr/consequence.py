"""Consequence finding restricted to a clause field, with incremental snapshots.

The central object is the set of minimal implicates of a clause set that
fall inside a production field (a subsumption-stable clause language,
given by the literal bits its members may not carry). Two fields matter
here: clauses over assumption symbols only, and the unrestricted field
whose minimal implicates are the prime implicates.
`fold` folds a batch of clauses (the knowledge, the facts, a query's
negated hypothesis): into the prime implicates when the state tracks them,
reading the assumption-only set off them (the field is
subsumption-stable, so its minimal implicates are the prime implicates
inside it), and into the assumption-only set directly otherwise.
`extend` is the fold of a batch of one.

Everything here runs on clause bitmasks: the folds take and keep masks,
snapshot lines are read into masks (by `logic.read_clause`, the
clause-line reader KB files share) and written from them through the
alphabet's literal text tables, and `Clause` objects are built only on
demand, for the state's read-only `carc` and `pi` views.

A unit clause l folds into the prime implicates by conditioning, with no
resolution (`_condition`): PI(S & l) is the minimal clauses among l and
p - {-l} for the members p of PI(S) that do not hold l. Every other fold
is one given-clause saturation (`produce`): a first-in first-out agenda of
derived clauses, forward subsumption of every resolvent by the kept and
pending clauses, and backward subsumption, which drops the kept clauses a
newly kept one subsumes, so kept clauses are never resolved against stale
ones. The prime-implicate fold starts from the old prime implicates as its
kept set: they are closed under resolution up to subsumption, so only the
new clause's consequences need deriving, and what the loop keeps is the
new prime implicate set. Their tautology seeds (`s | -s`, the prime
implicates of nothing) stay out of the loop, as resolving with one only
copies the given clause, and come back at its end unless a unit on their
symbol or the empty clause was kept. The assumption-only fold resolves
against the processed clauses as side clauses instead, and `_union`
merges its result into the old set.

Before it saturates, the assumption-only fold applies Davis and Putnam's
(1960) affirmative-negative rule. A proposition literal whose complement
no clause of the set holds is pure: it is never resolved away, so no
field member derives from a clause that holds it. For a pure literal x,
forgetting x from a clause set leaves the set without its x clauses, so
the field implicates do not change. `fold` makes one such pass over the
processed clauses and the whole batch, setting aside every clause that
holds a pure literal, which can make more literals pure, until none is
left; only the batch's clauses left are resolved, each against the
clauses left before it. `produce` repeats the pass for its one clause
and sides, since a literal can be pure in the prefix a clause is folded
onto and not in the whole batch: a new clause holding one adds nothing,
and the sides holding one are set aside. Every later batch (facts, a
negated hypothesis) joins the scan, so a literal that was pure at compile
time is not once its complement arrives.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import Iterable, Sequence

from .errors import ParseError, StaleSnapshotError
from .logic import (
    Alphabet,
    Clause,
    Value,
    bits,
    canonical,
    even_bits,
    is_tautology,
    read_clause,
    resolvent_mask,
    swap,
)

# CPython's built-in SHA-256: importing hashlib loads OpenSSL's libcrypto,
# which adds about 3.6 MB to every command's resident memory.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

class ProductionField(Value):
    """A subsumption-stable clause language over one alphabet.

    `outside` holds the literal bits no member may carry: the complement of
    the assumption literals' bits, or nothing for the unrestricted field.
    """

    __slots__ = ("alphabet", "outside")

    def __init__(self, alphabet: Alphabet, outside: int):
        self._freeze(alphabet, outside)

    @classmethod
    def assumption_only(cls, alphabet: Alphabet) -> ProductionField:
        return cls(alphabet, ~sum(3 << 2 * s.index for s in alphabet.assumptions))

    @classmethod
    def all_clauses(cls, alphabet: Alphabet) -> ProductionField:
        return cls(alphabet, 0)

    def seed_masks(self) -> frozenset[int]:
        """Tautologies inside the field, s | -s per symbol: the minimal implicates of nothing."""
        pairs = (3 << 2 * i for i in range(len(self.alphabet)))
        return frozenset(m for m in pairs if not m & self.outside)


def _pure_literals(masks: Iterable[int], outside: int, even: int, start: int = 0) -> int:
    """The literal bits outside the field that occur in `masks` (or in
    `start`) while their complements do not: the pure literals."""
    occurring = reduce(or_, masks, start)
    return occurring & ~swap(occurring, even) & outside


def produce(
    sides: Sequence[int], clause: int, field: ProductionField, kept: Iterable[int] = ()
) -> list[int]:
    """Field members of the resolution closure of `kept`, `sides` and the mask `clause`.

    `kept` is an antichain closed under resolution up to subsumption (the
    prime implicates of the clauses folded so far, say), the loop's
    starting kept set. A given-clause loop on bitmasks: each clause popped
    from the agenda is dropped when a kept clause subsumes it; otherwise it
    is kept, the kept clauses it subsumes are dropped, and each resolvent
    it has with a side clause in `sides` or with a kept clause (so ancestor
    steps are covered) joins the agenda unless a kept or pending clause
    subsumes it. Tautologies never enter. The kept clauses stay pairwise
    incomparable, so the field members among them are mu-minimal.

    Seeded with the prime implicates of some clauses and no sides, it
    returns the prime implicates of those clauses plus `clause`. The
    tautology seeds among them (`s | -s`) stay out of the loop: a seed
    only resolves into a copy of the given clause, and no clause that can
    enter lies around it. Each comes back at the end unless a kept clause
    lies inside it (a unit on its symbol, or the empty clause). With no
    seed, it returns the new minimal field implicates of the sides plus
    `clause`, to be merged with those of the sides by `_union`.

    In a restricted field (`field.outside` non-zero), which only the
    unseeded assumption-only fold uses, the pure literals outside it are
    found first, in `sides` and `clause` together: when `clause` holds
    one, nothing new comes back; otherwise the sides holding one are
    dropped, until no literal is pure.
    """
    even = even_bits(len(field.alphabet))
    kept = list(kept)
    if is_tautology(clause, even):
        return [m for m in kept if not m & field.outside]
    if field.outside:
        # the affirmative-negative rule: a pure literal outside the field is
        # never resolved away, so no field member derives from its clauses
        while pure := _pure_literals(sides, field.outside, even, clause):
            if clause & pure:
                return []
            sides = [m for m in sides if not m & pure]
    sides = [m for m in dict.fromkeys(sides) if not is_tautology(m, even)]
    seeds = [m for m in kept if is_tautology(m, even)]
    if seeds:
        kept = [m for m in kept if not is_tautology(m, even)]
    agenda = deque([clause])
    while agenda:
        given = agenda.popleft()
        if _contains_one_of(given, kept):
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
            if _contains_one_of(r, kept) or _contains_one_of(r, agenda):
                continue
            agenda.append(r)
    if seeds and 0 not in kept:
        units = reduce(or_, (m for m in kept if not m & (m - 1)), 0)
        kept += [s for s in seeds if not s & units]
    return [m for m in kept if not m & field.outside]


class CompiledState(Value):
    """Immutable snapshot of an incremental compilation, on clause bitmasks.

    `carc_masks` holds the minimal implicates of the processed clauses
    inside `field`; `pi_masks`, when enabled, holds the full prime implicate
    set of the same clauses; `processed_masks` lists the folded clauses in
    fold order. `carc` and `pi` are the same sets as `Clause` views, built
    on first access. Updates return fresh snapshots.
    """

    # __dict__ holds the views, which equality and hashing leave out
    __slots__ = ("field", "carc_masks", "processed_masks", "pi_masks", "__dict__")

    def __init__(self, field: ProductionField, carc_masks: frozenset[int],
                 processed_masks: tuple[int, ...] = (), pi_masks: frozenset[int] | None = None):
        self._freeze(field, carc_masks, processed_masks, pi_masks)

    @classmethod
    def initial(cls, field: ProductionField, with_pi: bool = False) -> CompiledState:
        pi = ProductionField.all_clauses(field.alphabet).seed_masks() if with_pi else None
        return cls(field=field, carc_masks=field.seed_masks(), pi_masks=pi)

    @property
    def is_plainly_inconsistent(self) -> bool:
        """True when the processed clauses are unsatisfiable outright."""
        return 0 in self.carc_masks

    @cached_property
    def carc(self) -> frozenset[Clause]:
        return frozenset(map(self.field.alphabet.clause_of, self.carc_masks))

    @cached_property
    def pi(self) -> frozenset[Clause] | None:
        if self.pi_masks is None:
            return None
        return frozenset(map(self.field.alphabet.clause_of, self.pi_masks))


def _union(old: frozenset[int], fresh: Iterable[int]) -> frozenset[int]:
    """`minimal_masks(old | fresh)` for two antichains, comparing only across them.

    A fresh clause goes when it contains an old one, an old clause when it
    contains a kept fresh one; a dropped fresh clause lies inside no old
    one, since old is an antichain.
    """
    new = [c for c in fresh if not _contains_one_of(c, old)]
    if not new:
        return old
    gone = [c for c in old if _contains_one_of(c, new)]
    return old.difference(gone).union(new)


def _contains_one_of(mask: int, pool: Iterable[int]) -> bool:
    # a plain loop: about twice as fast as any() over a generator here
    for m in pool:
        if m & mask == m:
            return True
    return False


def _condition(pi: frozenset[int], lit: int, negated: int) -> frozenset[int]:
    """Prime implicates of the clauses behind `pi` plus the unit `lit`, by conditioning.

    PI(S & l) = mu({l} | {p - {-l} : p in PI(S), l not in p}): the members
    holding l go (the seed l | -l with them), those holding -l lose it,
    and l joins. A stripped member lies inside no other stripped one and
    holds no untouched one, since both came from an antichain, so the only
    subsumption left to test is a stripped member inside an untouched one;
    l itself is comparable to none of them.
    An empty stripped member, or an inconsistent `pi`, gives {empty}.
    """
    if 0 in pi:
        return pi
    untouched, stripped = [], []
    for p in pi:
        if p & lit:
            continue
        if p & negated:
            p ^= negated
            if not p:
                return frozenset((0,))
            stripped.append(p)
        else:
            untouched.append(p)
    if stripped:
        untouched = [u for u in untouched if not _contains_one_of(u, stripped)]
    return frozenset((*untouched, *stripped, lit))


def pi_add(state: CompiledState, clause: int) -> CompiledState:
    """Fold one clause mask into the prime implicates and read carc off them.

    A unit clause l conditions the prime implicates on l (`_condition`),
    with no resolution. Any other clause goes through `produce`, which
    starts from the previous prime implicates as its kept set, with no side
    clauses: they are equivalent to the processed clauses and closed under
    resolution up to subsumption, so what it keeps is the new prime
    implicate set. The new carc is the part of it inside `state.field`.
    """
    pi = state.pi_masks
    if pi is None:
        raise ValueError("state was compiled without prime implicates")
    field = state.field
    even = even_bits(len(field.alphabet))
    processed = state.processed_masks + (clause,)
    if is_tautology(clause, even):
        return CompiledState(field, state.carc_masks, processed, pi)
    if clause and not clause & (clause - 1):
        pi = _condition(pi, clause, swap(clause, even))
    else:
        full = ProductionField.all_clauses(field.alphabet)
        pi = frozenset(produce((), clause, full, pi))
    outside = field.outside
    carc = frozenset(m for m in pi if not m & outside)
    return CompiledState(field, carc, processed, pi)


def fold(state: CompiledState, clauses: Iterable[int]) -> CompiledState:
    """Fold a batch of clause masks, in order, into `state`.

    With prime implicates, each clause goes through `pi_add`. Otherwise the
    batch makes one affirmative-negative pass over the processed clauses
    and itself, repeated until nothing more is set aside: a clause holding
    a pure proposition literal derives no field member of the whole set.
    Each new clause left that is no tautology then goes through `produce`,
    with the processed and earlier new clauses left as its sides, and its
    result merges into carc by `_union`. `produce` keeps its own pass,
    because a literal that is not pure in the whole batch can be pure in
    the prefix a clause is folded onto; a batch of one goes straight to
    it, since its pass is then this one. One state is built per batch, and
    its `processed_masks` lists every clause of the batch, in order.
    """
    batch = tuple(clauses)
    if state.pi_masks is not None:
        for clause in batch:
            state = pi_add(state, clause)
        return state
    field = state.field
    even = even_bits(len(field.alphabet))
    aside = 0  # the pure literals found: a clause holding one is set aside
    if len(batch) > 1:
        left = state.processed_masks + batch
        while pure := _pure_literals(left, field.outside, even):
            aside |= pure
            left = [m for m in left if not m & pure]
    sides = [m for m in state.processed_masks if not m & aside]
    carc = state.carc_masks
    for clause in batch:
        if clause & aside or is_tautology(clause, even):
            continue
        carc = _union(carc, produce(sides, clause, field))
        sides.append(clause)
    return CompiledState(field, carc, state.processed_masks + batch)


def extend(state: CompiledState, clause: int) -> CompiledState:
    """Fold one clause mask: the `fold` of a batch of one."""
    return fold(state, (clause,))


def compile_clauses(
    alphabet: Alphabet, clauses: Iterable[int], with_pi: bool = False
) -> CompiledState:
    """Fold the clause masks, as one batch, into a fresh state over `alphabet`."""
    return fold(CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi), clauses)


# --- snapshot files ----------------------------------------------------------
#
# A written snapshot starts with a fingerprint line: a SHA-256 over the
# text of what it was compiled from (`_source`: the alphabet and the
# folded clauses) and the section lines below it. The reader checks it
# against the knowledge clauses it is given, so a snapshot of other clauses
# or symbol kinds, or an edited one, is refused. `parse_snapshot` reads
# section text without that check.

_EMPTY_TOKEN = "<empty>"
_SECTIONS = ("carc", "pi", "processed")
_FINGERPRINT = "# fingerprint sha256 "


def fingerprint(source: str, sections: str) -> str:
    return sha256(f"{source}\n{sections}".encode()).hexdigest()


def _source(alphabet: Alphabet, masks: Iterable[int]) -> str:
    """What a fingerprint covers of the knowledge: the declarations (names
    and kinds, not probabilities), then the distinct clauses as `clause`
    lines with their literals sorted as text, each part sorted, so
    reordered, repeated or respelled lines keep it."""
    text_of_bit = alphabet.text_of_bit
    declarations = sorted((s.name, s.kind) for s in alphabet.symbols)
    clauses = {"clause " + " | ".join(sorted(text_of_bit[b] for b in bits(m))) for m in masks}
    return "\n".join([f"{name} {kind}" for name, kind in declarations] + sorted(clauses))


def _clause_lines(masks: Iterable[int], text_of_bit: dict[int, str]) -> list[str]:
    return [" | ".join(text_of_bit[b] for b in bits(m)) or _EMPTY_TOKEN for m in masks]


def snapshot_text(state: CompiledState) -> str:
    """Render a snapshot's sections as text, one clause per line.

    carc and pi are written in canonical order; the processed section keeps
    insertion order because it is the fold history.
    """
    text_of_bit = state.field.alphabet.text_of_bit
    lines = ["[carc]"] + _clause_lines(canonical(state.carc_masks), text_of_bit)
    if state.pi_masks is not None:
        lines.append("[pi]")
        lines += _clause_lines(canonical(state.pi_masks), text_of_bit)
    lines.append("[processed]")
    lines += _clause_lines(state.processed_masks, text_of_bit)
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str, alphabet: Alphabet) -> CompiledState:
    """Read snapshot text into a state; `#` lines (the fingerprint too) are comments.

    Clause lines go through `logic.read_clause`, the KB files' reader, with
    the alphabet's literal text table, so they take the KB spellings and a
    bad literal is reported with its line and column.
    """
    bit_of_text = alphabet.bit_of_text
    sections: dict[str, list[int]] = {}
    current: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", line=lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ParseError("clause before any section header", line=lineno)
        clause = () if line == _EMPTY_TOKEN else read_clause(raw, bit_of_text, lineno)
        current.append(reduce(or_, clause, 0))
    if "carc" not in sections:
        raise ParseError("missing [carc] section", line=1)
    pi = sections.get("pi")
    return CompiledState(
        field=ProductionField.assumption_only(alphabet),
        carc_masks=frozenset(sections["carc"]),
        processed_masks=tuple(sections.get("processed", ())),
        pi_masks=None if pi is None else frozenset(pi),
    )


def write_snapshot(state: CompiledState, path) -> None:
    """Write a snapshot file: the fingerprint line over the state's
    alphabet, its processed clauses and the sections, then the sections."""
    sections = snapshot_text(state)
    source = _source(state.field.alphabet, state.processed_masks)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_FINGERPRINT}{fingerprint(source, sections)}\n{sections}")


def read_snapshot(path, alphabet: Alphabet, clauses: Iterable[int]) -> CompiledState:
    """Read a snapshot file, refusing one whose fingerprint line is missing
    or does not match `alphabet`, the knowledge clause masks `clauses` and
    the sections (StaleSnapshotError)."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    header, _, sections = text.partition("\n")
    if not header.startswith(_FINGERPRINT):
        raise StaleSnapshotError(f"snapshot {path} has no fingerprint line; compile it again")
    source = _source(alphabet, clauses)
    if header != _FINGERPRINT + fingerprint(source, sections):
        raise StaleSnapshotError(
            f"snapshot {path} was compiled from other declarations or clauses, "
            "or edited since; compile it again"
        )
    return parse_snapshot(text, alphabet)
