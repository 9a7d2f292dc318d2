"""Probability of assumption-term unions and degrees of support.

Terms over independent assumptions have product probabilities. A union of
terms is computed exactly by memoized Shannon expansion (an ordered BDD of
the union, Bryant 1986), inclusion-exclusion or a sum of disjoint products,
and bracketed cheaply by truncated alternating sums. The degree of support
conditions the quasi-support probability on consistency.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    BoundsPreconditionError,
    EnumerationLimitError,
    InconsistentTermError,
    NonAssumptionLiteralError,
    TotalInconsistencyError,
)
from .logic import ASSUMPTION, Formula, Literal, Symbol, Term, bits, even_bits_of, swap

if TYPE_CHECKING:
    from .support import SupportSets

INCLUSION_EXCLUSION = "inclusion_exclusion"
DISJOINT_PRODUCTS = "disjoint_products"
SHANNON_EXPANSION = "shannon_expansion"
BOUNDS = "bounds"
AUTO = "auto"

# Work budget of the explicit exponential methods: term subsets visited by
# inclusion-exclusion, fragments made by disjoint products. The tests reach
# 8 191 subsets and 13 fragments; the budget keeps a runaway union to about
# a second and, for disjoint products, some 15 MB of fragment masks.
ENUMERATION_BUDGET = 1 << 18


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


def _canonical(terms: Iterable[Term]) -> list[Term]:
    return sorted(set(terms), key=lambda t: t.sort_key)


def _shortest_first(terms: Iterable[Term]) -> list[Term]:
    """The order disjoint products take: an n-link chain needs n + 1 fragments."""
    return sorted(set(terms), key=lambda t: (len(t), t.sort_key))


def _subset_sums(terms: Sequence[Term], table: AssumptionTable, kmax: int) -> list[float]:
    """Per-cardinality sums of conjunction probabilities over term subsets.

    Entry k-1 sums term_prob over all consistent conjunctions of k distinct
    input terms; inconsistent conjunctions contribute 0 and their supersets
    are pruned outright since a complementary pair never goes away. The
    depth-first walk runs on an explicit stack, so no depth hits the recursion limit.
    """
    for t in terms:
        _check_assumption_term(t)
    lit_lists = [
        [(l.bit, l.negate().bit, table.literal_prob(l)) for l in t.sorted_literals]
        for t in terms
    ]
    buckets: list[list[float]] = [[] for _ in range(kmax)]
    r = len(terms)
    visited = 0
    stack = [[0, 0, 1.0]]  # per open subset: next term to add, literal mask, product
    while stack:
        frame = stack[-1]
        j, merged, p = frame
        if j == r or len(stack) > kmax:
            stack.pop()
            continue
        frame[0] = j + 1
        visited += 1
        if visited > ENUMERATION_BUDGET:
            raise EnumerationLimitError(
                f"inclusion-exclusion over {r} terms visits more than "
                f"{ENUMERATION_BUDGET} term subsets"
            )
        for bit, negated, lp in lit_lists[j]:
            if merged & negated:
                break
            if not merged & bit:
                merged |= bit
                p *= lp
        else:
            buckets[len(stack) - 1].append(p)
            stack.append([j + 1, merged, p])
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


def disjoint_products(terms: Sequence[Term]) -> list[Term]:
    """Rewrite a term list into pairwise disjoint fragments with the same union.

    Each term is split against every earlier one: fragments already carrying
    a complementary literal stay, fragments covered by the earlier term are
    dropped, and the rest are expanded along the earlier term's missing
    literals so exactly one branch negates each. Fragment probabilities can
    then simply be added. Fragments are literal bitmasks until the end;
    past ENUMERATION_BUDGET of them this raises EnumerationLimitError.
    """
    literal_of: dict[int, Literal] = {}
    for t in terms:
        if t.is_inconsistent:
            raise InconsistentTermError(f"inconsistent input term: {t}")
        _check_assumption_term(t)
        for lit in t.literals:
            literal_of[lit.bit] = lit
            literal_of[lit.negate().bit] = lit.negate()
    masks = [t.mask for t in terms]
    even = even_bits_of(0, *masks)
    made = 0
    out: list[int] = []
    for j, mask in enumerate(masks):
        frags = [mask]
        for earlier in masks[:j]:
            complement = swap(earlier, even)
            splits = [(bit, swap(bit, even)) for bit in bits(earlier)]
            nxt: list[int] = []
            for frag in frags:
                if frag & complement:
                    nxt.append(frag)
                    continue
                for bit, negated in splits:
                    if not frag & bit:
                        nxt.append(frag | negated)
                        frag |= bit
            made += len(nxt)
            if made > ENUMERATION_BUDGET:
                raise EnumerationLimitError(
                    f"disjoint products of {len(terms)} terms make more than "
                    f"{ENUMERATION_BUDGET} fragments"
                )
            frags = nxt
        out += frags
    return [Term(frozenset(literal_of[b] for b in bits(m))) for m in out]


def _shannon_expansion(terms: Sequence[Term], table: AssumptionTable) -> float:
    """Exact union probability by Shannon expansion, memoized on residual term sets.

    Each node splits on the symbol occurring in the most terms, lowest index
    first: P = q * P(terms with it true) + (1 - q) * P(terms with it false).
    An explicit stack replaces recursion, since a node's depth can reach the
    number of symbols. Inconsistent terms count 0.
    """
    for t in terms:
        _check_assumption_term(t)
    root = frozenset(t.literals for t in terms if not t.is_inconsistent)
    memo: dict[frozenset, float] = {}
    stack: list[tuple[frozenset, tuple | None]] = [(root, None)]
    while stack:
        node, split = stack.pop()
        if split:
            q, yes, no = split
            memo[node] = q * memo[yes] + (1.0 - q) * memo[no]
        elif node in memo:
            continue
        elif len(node) <= 1 or frozenset() in node:
            # impossible, certain (an empty term) or one term's product in literal order
            leaf = sorted(min(node, key=len, default=()), key=lambda l: l.sort_key)
            memo[node] = math.prod(map(table.literal_prob, leaf)) if node else 0.0
        else:
            counts = Counter(l.symbol for t in node for l in t)
            sym = min(counts, key=lambda s: (-counts[s], s.index))
            pos, neg = Literal(sym, True), Literal(sym, False)
            yes = frozenset(t - {pos} if pos in t else t for t in node if neg not in t)
            no = frozenset(t - {neg} if neg in t else t for t in node if pos not in t)
            stack += ((node, (table.prob(sym), yes, no)), (yes, None), (no, None))
    return memo[root]


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
    if method == SHANNON_EXPANSION:
        return _shannon_expansion(terms, table)
    if method == INCLUSION_EXCLUSION:
        return inclusion_exclusion(terms, table)
    if method == DISJOINT_PRODUCTS:
        return math.fsum(term_prob(t, table) for t in disjoint_products(_shortest_first(terms)))
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
    chosen = SHANNON_EXPANSION if method == AUTO else method
    exact = SHANNON_EXPANSION if chosen == BOUNDS else chosen
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
