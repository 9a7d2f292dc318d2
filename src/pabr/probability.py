"""Probability of assumption-term unions and degrees of support.

Terms over independent assumptions have product probabilities; the
probability of a union of terms is computed exactly by inclusion-exclusion
or by a sum of disjoint products, bracketed by truncated alternating sums
when only a cheap estimate is wanted. The degree of support conditions the
quasi-support probability on consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    BoundsPreconditionError,
    InconsistentTermError,
    NonAssumptionLiteralError,
    TotalInconsistencyError,
)
from .logic import ASSUMPTION, Formula, Literal, Symbol, Term

if TYPE_CHECKING:
    from .support import SupportSets

INCLUSION_EXCLUSION = "inclusion_exclusion"
DISJOINT_PRODUCTS = "disjoint_products"
BOUNDS = "bounds"
AUTO = "auto"

# Above this many terms the auto selector switches from inclusion-exclusion
# (2^r subsets worst case) to the linear-memory disjoint-product sum.
AUTO_METHOD_THRESHOLD = 20


@dataclass(frozen=True)
class AssumptionTable:
    """Ordered assumption symbols with their independent probabilities."""

    entries: tuple[tuple[Symbol, float], ...]

    def __post_init__(self):
        seen = set()
        for sym, q in self.entries:
            if sym.kind != ASSUMPTION:
                raise ValueError(f"{sym.name} is not an assumption symbol")
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"probability out of range for {sym.name}: {q}")
            if sym in seen:
                raise ValueError(f"duplicate assumption entry: {sym.name}")
            seen.add(sym)
        object.__setattr__(self, "_probs", {sym: q for sym, q in self.entries})

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(sym for sym, _ in self.entries)

    def prob(self, symbol: Symbol) -> float:
        try:
            return self._probs[symbol]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"no probability for {symbol.name}") from None

    def literal_prob(self, literal: Literal) -> float:
        q = self.prob(literal.symbol)
        return q if literal.positive else 1.0 - q

    def __len__(self):
        return len(self.entries)


def _check_assumption_term(term: Term) -> None:
    for lit in term.literals:
        if lit.symbol.kind != ASSUMPTION:
            raise NonAssumptionLiteralError(
                f"term literal over proposition {lit.symbol.name}"
            )


def term_prob(term: Term, table: AssumptionTable) -> float:
    """Product probability of one assumption term.

    The empty term has probability 1, an inconsistent term probability 0.
    """
    _check_assumption_term(term)
    if term.is_inconsistent:
        return 0.0
    p = 1.0
    for lit in term.sorted_literals:
        p *= table.literal_prob(lit)
    return p


def _term_sort_key(term: Term):
    return term.sort_key


def _canonical(terms: Iterable[Term]) -> list[Term]:
    return sorted(set(terms), key=_term_sort_key)


def _subset_sums(terms: Sequence[Term], table: AssumptionTable, kmax: int) -> list[float]:
    """Per-cardinality sums of conjunction probabilities over term subsets.

    Entry k-1 sums term_prob over all consistent conjunctions of k distinct
    input terms; inconsistent conjunctions contribute 0 and their supersets
    are pruned outright since a complementary pair never goes away.
    """
    for t in terms:
        _check_assumption_term(t)
    lit_lists = [
        [(l.symbol, l.positive, table.literal_prob(l)) for l in t.sorted_literals]
        for t in terms
    ]
    buckets: list[list[float]] = [[] for _ in range(kmax)]
    r = len(terms)

    def walk(start: int, merged: dict, p: float, depth: int) -> None:
        if depth == kmax:
            return
        for j in range(start, r):
            extended = dict(merged)
            pj = p
            consistent = True
            for sym, positive, lp in lit_lists[j]:
                prior = extended.get(sym)
                if prior is None:
                    extended[sym] = positive
                    pj *= lp
                elif prior != positive:
                    consistent = False
                    break
            if not consistent:
                continue
            buckets[depth].append(pj)
            walk(j + 1, extended, pj, depth + 1)

    walk(0, {}, 1.0, 0)
    return [math.fsum(b) for b in buckets]


def inclusion_exclusion(terms: Iterable[Term], table: AssumptionTable) -> float:
    """Exact union probability via the alternating subset sums."""
    ordered = _canonical(terms)
    sums = _subset_sums(ordered, table, len(ordered))
    return math.fsum(s if k % 2 == 1 else -s for k, s in enumerate(sums, start=1))


def bonferroni_bounds(
    terms: Iterable[Term], table: AssumptionTable, l: int
) -> tuple[float, float]:
    """Alternating-sum truncation bracket of order l.

    Valid only while the truncation stays inside the term count; otherwise
    the exact methods apply and this raises instructing their use. The
    upper bound is also capped by the first subset sum and by 1.
    """
    ordered = _canonical(terms)
    r = len(ordered)
    if l < 1:
        raise BoundsPreconditionError(f"truncation order must be at least 1, got {l}")
    if 2 * l + 1 > r:
        raise BoundsPreconditionError(
            f"truncation order {l} needs at least {2 * l + 1} terms, got {r}; "
            "use an exact method instead"
        )
    sums = _subset_sums(ordered, table, 2 * l + 1)
    lower = math.fsum(s if k % 2 == 1 else -s for k, s in enumerate(sums[: 2 * l], start=1))
    upper = min(lower + sums[2 * l], sums[0], 1.0)
    return (lower, upper)


def _is_disjoint(frag: dict, term_lits: Sequence[tuple[Symbol, bool]]) -> bool:
    return any(frag.get(sym) == (not positive) for sym, positive in term_lits)


def disjoint_products(terms: Sequence[Term]) -> list[Term]:
    """Rewrite a term list into pairwise disjoint fragments with the same union.

    Each term is split against every earlier one: fragments already carrying
    a complementary literal stay, fragments covered by the earlier term are
    dropped, and the rest are expanded along the earlier term's missing
    literals so exactly one branch negates each. Fragment probabilities can
    then simply be added.
    """
    fragments_out: list[Term] = []
    term_lits = [
        [(l.symbol, l.positive) for l in t.sorted_literals] for t in terms
    ]
    for t in terms:
        if t.is_inconsistent:
            raise InconsistentTermError(f"inconsistent input term: {t}")
        _check_assumption_term(t)
    for j in range(len(terms)):
        frags: list[dict] = [dict(term_lits[j])]
        for i in range(j):
            earlier = term_lits[i]
            nxt: list[dict] = []
            for frag in frags:
                if _is_disjoint(frag, earlier):
                    nxt.append(frag)
                    continue
                missing = [
                    (sym, positive)
                    for sym, positive in earlier
                    if sym not in frag
                ]
                if not missing:
                    continue
                prefix: list[tuple[Symbol, bool]] = []
                for sym, positive in missing:
                    branch = dict(frag)
                    branch.update(prefix)
                    branch[sym] = not positive
                    nxt.append(branch)
                    prefix.append((sym, positive))
            frags = nxt
        fragments_out.extend(
            Term(frozenset(Literal(sym, pos) for sym, pos in frag.items()))
            for frag in frags
        )
    return fragments_out


def degree_of_support(qs_prob: float, contra_prob: float) -> float:
    """Condition the quasi-support probability on consistency."""
    if contra_prob >= 1.0:
        raise TotalInconsistencyError(
            "the knowledge base excludes every assumption configuration"
        )
    return (qs_prob - contra_prob) / (1.0 - contra_prob)


@dataclass(frozen=True)
class SupportReport:
    """Everything a query answer carries."""

    hypothesis: Formula | None
    mqs: frozenset[Term]
    mc: frozenset[Term]
    qs_prob: float
    contra_prob: float
    support: float
    method: str
    bounds: tuple[float, float] | None = None


def _union_prob(terms: Sequence[Term], table: AssumptionTable, method: str) -> float:
    if method == INCLUSION_EXCLUSION:
        return inclusion_exclusion(terms, table)
    if method == DISJOINT_PRODUCTS:
        return math.fsum(term_prob(d, table) for d in disjoint_products(terms))
    raise ValueError(f"unknown exact method: {method!r}")


def evaluate(
    sets: "SupportSets",
    table: AssumptionTable,
    method: str = AUTO,
    l: int | None = None,
    hypothesis: Formula | None = None,
) -> SupportReport:
    """Turn support sets into probabilities and a degree of support.

    The quasi-support probability runs over mqs united with mc: the
    contradictions quasi-support everything, and minimization may have
    removed them from mqs. With method "bounds" the report additionally
    carries the truncation bracket on the quasi-support probability; the
    point values always come from an exact method.
    """
    qs_terms = _canonical(set(sets.mqs) | set(sets.mc))
    mc_terms = _canonical(sets.mc)
    by_size = (
        INCLUSION_EXCLUSION if len(qs_terms) <= AUTO_METHOD_THRESHOLD else DISJOINT_PRODUCTS
    )
    chosen = by_size if method == AUTO else method
    exact = by_size if chosen == BOUNDS else chosen
    bounds = None
    if chosen == BOUNDS:
        bounds = bonferroni_bounds(qs_terms, table, 1 if l is None else l)
    qs_prob = _union_prob(qs_terms, table, exact)
    contra_prob = _union_prob(mc_terms, table, exact)
    # The union over mqs+mc covers the union over mc; guard the identity
    # against last-bit float drift between the two sums.
    if qs_prob < contra_prob:
        qs_prob = contra_prob
    support = degree_of_support(qs_prob, contra_prob)
    return SupportReport(
        hypothesis=hypothesis,
        mqs=frozenset(sets.mqs),
        mc=frozenset(sets.mc),
        qs_prob=qs_prob,
        contra_prob=contra_prob,
        support=support,
        method=chosen,
        bounds=bounds,
    )
