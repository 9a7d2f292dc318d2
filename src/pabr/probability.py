"""Probability of assumption-term unions and degrees of support.

Terms over independent assumptions have product probabilities, read off
one table of literal probabilities indexed by literal bit. A union of
terms is computed exactly by memoized Shannon expansion (an ordered BDD of
the union, Bryant 1986), inclusion-exclusion or a sum of disjoint products,
and bracketed cheaply by truncated alternating sums. The degree of support
conditions the quasi-support probability on consistency.

The public union functions take `Term`s and check them once, on the way
in (`_check`); `evaluate` reads the term masks of its `SupportSets`, checked
when the sets were made, and builds no view. Every method computes on
masks, in `logic.canonical` order (fewest literals first for disjoint
products), multiplying literal probabilities in ascending bit order. Only
`disjoint_products` turns fragment masks back into `Term`s.
"""

from __future__ import annotations

import math
from typing import Collection, Iterable, Sequence

from .errors import (
    BoundsPreconditionError,
    EnumerationLimitError,
    InconsistentTermError,
    TotalInconsistencyError,
)
from .logic import (ASSUMPTION, Symbol, Term, Value, bits, canonical, even_bits_of,
                    is_tautology, swap, term_views)
from .support import SupportSets, assumption_mask

INCLUSION_EXCLUSION = "inclusion_exclusion"
DISJOINT_PRODUCTS = "disjoint_products"
SHANNON_EXPANSION = "shannon_expansion"
BOUNDS = "bounds"
AUTO = "auto"

# Work budget of the explicit exponential methods: term subsets visited by
# inclusion-exclusion, fragments made by disjoint products. The tests reach
# 8 191 subsets and 13 fragments. On unions of 100-1 000 width-3 terms (a
# 2-core VM) inclusion-exclusion reaches it in 0.15-0.3 s and disjoint
# products in under 0.05 s; disjoint products hold at most some 15 MB of
# fragment masks.
ENUMERATION_BUDGET = 1 << 18

# Split nodes of the Shannon expansion (the `auto` method). On unions of
# 100-1 000 width-3 terms over 40 assumptions (a 2-core VM) 2^14 nodes take
# 0.15-0.25 s and 19-33 MB (`tracemalloc` peak), 2^16 nodes 0.7-1.4 s and
# 89-167 MB. The largest union of the benchmark workloads (a 24-link chain)
# splits 47 nodes; every union the tests answer splits fewer than 2 048.
SHANNON_BUDGET = 1 << 14


class AssumptionTable(Value, compare="entries"):
    """Ordered assumption symbols with their independent probabilities.

    `bit_prob` maps each literal's mask bit to its probability: q at bit
    2i for assumption i, 1.0 - q at bit 2i+1 for its negation; equality
    and hashing stay on `entries`.
    """

    __slots__ = ("entries", "bit_prob")

    def __init__(self, entries: tuple[tuple[Symbol, float], ...]):
        bit_prob: dict[int, float] = {}
        for sym, q in entries:
            if sym.kind != ASSUMPTION:
                raise ValueError(f"{sym.name} is not an assumption symbol")
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"probability out of range for {sym.name}: {q}")
            positive = 1 << 2 * sym.index
            if positive in bit_prob:
                raise ValueError(f"duplicate assumption entry: {sym.name}")
            bit_prob[positive] = q
            bit_prob[positive << 1] = 1.0 - q
        self._freeze(entries, bit_prob)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(sym for sym, _ in self.entries)

    def prob(self, symbol: Symbol) -> float:
        try:
            return self.bit_prob[1 << 2 * symbol.index]
        except KeyError:
            raise KeyError(f"no probability for {symbol.name}") from None

    def __len__(self):
        return len(self.entries)


def _check(term: Term, consistent: bool = False) -> int:
    """`term`'s mask, once it holds only assumption literals (and no complementary pair)."""
    if consistent and term.is_inconsistent:
        raise InconsistentTermError(f"inconsistent input term: {term}")
    return assumption_mask(term)


def _masks(terms: Iterable[Term]) -> list[int]:
    """The distinct masks of `terms` in canonical order, each term `_check`ed."""
    return canonical({_check(t) for t in terms})


def _shortest_first(masks: Iterable[int]) -> list[int]:
    """The order disjoint products take: an n-link chain needs n + 1 fragments."""
    return sorted(canonical(masks), key=int.bit_count)


def _prob(mask: int, probs: dict[int, float]) -> float:
    return math.prod((probs[b] for b in bits(mask)), start=1.0)


def term_prob(term: Term, table: AssumptionTable) -> float:
    """Product probability of one assumption term.

    The empty term has probability 1, an inconsistent term probability 0.
    """
    mask = _check(term)
    return 0.0 if term.is_inconsistent else _prob(mask, table.bit_prob)


def _subset_sums(masks: Sequence[int], table: AssumptionTable, kmax: int) -> list[float]:
    """Per-cardinality sums of conjunction probabilities over term subsets.

    Entry k-1 sums the products of all consistent conjunctions of k distinct
    input terms; inconsistent conjunctions contribute 0 and their supersets
    are pruned outright since a complementary pair never goes away. The
    depth-first walk runs on an explicit stack, so no depth hits the recursion limit.
    """
    even = even_bits_of(0, *masks)
    lit_lists = [[(b, swap(b, even), table.bit_prob[b]) for b in bits(m)] for m in masks]
    buckets: list[list[float]] = [[] for _ in range(kmax)]
    r = len(masks)
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
    return _inclusion_exclusion(_masks(terms), table)


def _inclusion_exclusion(masks: Sequence[int], table: AssumptionTable) -> float:
    sums = _subset_sums(masks, table, len(masks))
    return math.fsum(s if k % 2 == 1 else -s for k, s in enumerate(sums, start=1))


def bonferroni_bounds(
    terms: Iterable[Term], table: AssumptionTable, l: int
) -> tuple[float, float]:
    """Alternating-sum truncation bracket of order l.

    Valid only while the truncation stays inside the term count; otherwise
    the exact methods apply and this raises instructing their use. The
    upper bound is also capped by the first subset sum and by 1.
    """
    return _bounds(_masks(terms), table, l)


def _bounds(masks: Sequence[int], table: AssumptionTable, l: int) -> tuple[float, float]:
    r = len(masks)
    if l < 1:
        raise BoundsPreconditionError(f"truncation order must be at least 1, got {l}")
    if 2 * l + 1 > r:
        raise BoundsPreconditionError(
            f"truncation order {l} needs at least {2 * l + 1} terms, got {r}; "
            "use an exact method instead"
        )
    sums = _subset_sums(masks, table, 2 * l + 1)
    lower = math.fsum(s if k % 2 == 1 else -s for k, s in enumerate(sums[: 2 * l], start=1))
    upper = min(lower + sums[2 * l], sums[0], 1.0)
    return (lower, upper)


def _fragments(masks: Sequence[int]) -> list[int]:
    """Pairwise disjoint fragment masks with the union of the consistent term `masks`.

    Each term is split against every earlier one: fragments already carrying
    a complementary literal stay, fragments covered by the earlier term are
    dropped, and the rest are expanded along the earlier term's missing
    literals so exactly one branch negates each. Fragment probabilities can
    then simply be added. Past ENUMERATION_BUDGET fragments made this raises
    EnumerationLimitError.
    """
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
                    f"disjoint products of {len(masks)} terms make more than "
                    f"{ENUMERATION_BUDGET} fragments"
                )
            frags = nxt
        out += frags
    return out


def disjoint_products(terms: Sequence[Term]) -> list[Term]:
    """Rewrite a term list into pairwise disjoint fragments with the same union.

    The fragments of `_fragments`, in its order, as terms; an inconsistent
    input term raises InconsistentTermError.
    """
    masks = [_check(t, consistent=True) for t in terms]
    return list(map(term_views(terms), _fragments(masks)))


def _shannon_expansion(masks: Collection[int], table: AssumptionTable) -> float:
    """Exact union probability by Shannon expansion, memoized on residual term sets.

    Each node splits on the symbol occurring in the most terms, lowest index
    first: P = q * P(terms with it true) + (1 - q) * P(terms with it false).
    The counts are bit-sliced: each term's symbol mask is added into count
    planes, then the candidates narrow from the top plane down to the
    symbols whose count is highest, and the lowest of them is taken.
    Nodes are sets of term bitmasks; a leaf multiplies its one term's literal
    probabilities (`table.bit_prob`) in literal order. An explicit stack
    replaces recursion, since a node's depth can reach the number of
    symbols. Inconsistent terms count 0. Past SHANNON_BUDGET split nodes
    this raises EnumerationLimitError.
    """
    probs = table.bit_prob
    even = even_bits_of(0, *masks)
    root = frozenset(m for m in masks if not is_tautology(m, even))
    memo: dict[frozenset[int], float] = {}
    stack: list[tuple[frozenset[int], tuple | None]] = [(root, None)]
    splits = 0
    while stack:
        node, split = stack.pop()
        if split:
            pos, yes, no = split
            memo[node] = probs[pos] * memo[yes] + probs[pos << 1] * memo[no]
        elif node in memo:
            continue
        elif len(node) <= 1 or 0 in node:
            # impossible, certain (an empty term) or one term's product
            memo[node] = _prob(min(node), probs) if node else 0.0
        else:
            splits += 1
            if splits > SHANNON_BUDGET:
                raise EnumerationLimitError(
                    f"Shannon expansion of {len(root)} terms splits more than "
                    f"{SHANNON_BUDGET} nodes"
                )
            # bit-sliced counts: planes[i] holds bit i of each symbol's
            # term count, at the symbol's positive bit
            planes: list[int] = []
            for m in node:
                carry = (m | m >> 1) & even
                for i, plane in enumerate(planes):
                    planes[i] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
            # the symbols of the highest count, read from the top plane
            # down, then the lowest of them
            pos = planes.pop()
            for plane in reversed(planes):
                pos = pos & plane or pos
            pos &= -pos
            neg = pos << 1
            yes = frozenset(m & ~pos for m in node if not m & neg)
            no = frozenset(m & ~neg for m in node if not m & pos)
            stack += ((node, (pos, yes, no)), (yes, None), (no, None))
    return memo[root]


def degree_of_support(qs_prob: float, contra_prob: float) -> float:
    """Condition the quasi-support probability on consistency."""
    if contra_prob >= 1.0:
        raise TotalInconsistencyError(
            "the knowledge base excludes every assumption configuration"
        )
    return (qs_prob - contra_prob) / (1.0 - contra_prob)


class SupportReport(Value, compare="mqs mc qs_prob contra_prob support method bounds"):
    """Everything a query answer carries.

    `sets` holds the support terms (their masks, and their views built on
    first access); `mqs` and `mc` are its views.
    """

    __slots__ = ("sets", "qs_prob", "contra_prob", "support", "method", "bounds")

    def __init__(self, mqs: frozenset[Term], mc: frozenset[Term], qs_prob: float,
                 contra_prob: float, support: float, method: str,
                 bounds: tuple[float, float] | None = None):
        self._freeze(SupportSets(mqs, mc), qs_prob, contra_prob, support, method, bounds)

    @classmethod
    def of_sets(cls, sets: SupportSets, qs_prob: float, contra_prob: float, support: float,
                method: str, bounds: tuple[float, float] | None = None) -> SupportReport:
        report = cls.__new__(cls)
        report._freeze(sets, qs_prob, contra_prob, support, method, bounds)
        return report

    mqs = property(lambda self: self.sets.mqs)
    mc = property(lambda self: self.sets.mc)


def _union_prob(masks: frozenset[int], table: AssumptionTable, method: str,
                sets: SupportSets) -> float:
    if method == INCLUSION_EXCLUSION:
        return _inclusion_exclusion(canonical(masks), table)
    if method == SHANNON_EXPANSION:
        return _shannon_expansion(masks, table)
    if method == DISJOINT_PRODUCTS:
        ordered = _shortest_first(masks)
        even = even_bits_of(0, *ordered)
        for m in ordered:
            if is_tautology(m, even):
                term = {t.mask: t for t in sets.mqs | sets.mc}[m]
                raise InconsistentTermError(f"inconsistent input term: {term}")
        return math.fsum(_prob(m, table.bit_prob) for m in _fragments(ordered))
    raise ValueError(f"unknown exact method: {method!r}")


def evaluate(
    sets: SupportSets,
    table: AssumptionTable,
    method: str = AUTO,
    l: int | None = None,
) -> SupportReport:
    """Turn support sets into probabilities and a degree of support.

    The quasi-support probability runs over mqs united with mc: the
    contradictions quasi-support everything, and minimization may have
    removed them from mqs. With method "bounds" the report additionally
    carries the truncation bracket on the quasi-support probability; the
    point values always come from an exact method.
    """
    qs_masks = sets.mqs_masks | sets.mc_masks
    chosen = SHANNON_EXPANSION if method == AUTO else method
    exact = SHANNON_EXPANSION if chosen == BOUNDS else chosen
    bounds = None
    if chosen == BOUNDS:
        bounds = _bounds(canonical(qs_masks), table, 1 if l is None else l)
    qs_prob = _union_prob(qs_masks, table, exact, sets)
    contra_prob = _union_prob(sets.mc_masks, table, exact, sets)
    # The union over mqs+mc covers the union over mc; guard the identity
    # against last-bit float drift between the two sums.
    if qs_prob < contra_prob:
        qs_prob = contra_prob
    support = degree_of_support(qs_prob, contra_prob)
    return SupportReport.of_sets(sets, qs_prob, contra_prob, support, chosen, bounds)
