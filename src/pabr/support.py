"""Minimal quasi-supports and minimal contradictions.

An assumption term quasi-supports a hypothesis when, conjoined with the
clause set, it entails the hypothesis; contradictions are the terms that
entail the inconsistency. Both sets fall out of the assumption-only
minimal implicates: negate each clause literal-wise to get a term. The
hypothesis enters by conjoining the clause form of its negation.

Both routes compute on clause masks; the negation is `swap`, and the
`SupportSets` returned to the caller hold term masks, whose `Term` views are
built on first access.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from .consequence import CompiledState, compile_clauses, fold
from .errors import NonAssumptionLiteralError
from .logic import (
    ASSUMPTION,
    Alphabet,
    Clause,
    Formula,
    Not,
    Term,
    Value,
    canonical,
    even_bits,
    even_bits_of,
    is_tautology,
    minimal_masks,
    swap,
    term_views,
    to_cnf,
)

if TYPE_CHECKING:
    from .probability import AssumptionTable


class KnowledgeBase(Value):
    """One reasoning problem: alphabet, assumption probabilities, clauses.

    sigma_k holds the stable knowledge, sigma_f the session facts, both as
    clause masks over `alphabet` (`alphabet.clause_of` gives a `Clause`
    view); their concatenation is what every query reasons over.
    """

    __slots__ = ("alphabet", "assumptions", "sigma_k", "sigma_f")

    def __init__(self, alphabet: Alphabet, assumptions: AssumptionTable,
                 sigma_k: tuple[int, ...], sigma_f: tuple[int, ...] = ()):
        self._freeze(alphabet, assumptions, sigma_k, sigma_f)

    @property
    def clauses(self) -> tuple[int, ...]:
        return self.sigma_k + self.sigma_f


def assumption_mask(term: Term) -> int:
    """`term`'s mask, once it holds only assumption literals."""
    for lit in term.literals:
        if lit.symbol.kind != ASSUMPTION:
            raise NonAssumptionLiteralError(f"term literal over proposition {lit.symbol.name}")
    return term.mask


class SupportSets(Value, compare="mqs mc"):
    """Minimal quasi-supports and minimal contradictions of one query.

    `mqs_masks` and `mc_masks` hold the terms as literal bitmasks, which
    `evaluate` and the command line read. `mqs` and `mc` are the same sets
    as `Term` views: given to the constructor, which rejects a term over a
    proposition, or built on first access by `term_of` for sets made by
    `of_masks`. Equality, hashing, repr and pickling go by the views.
    """

    # __dict__ holds the views
    __slots__ = ("mqs_masks", "mc_masks", "term_of", "__dict__")

    def __init__(self, mqs: frozenset[Term], mc: frozenset[Term]):
        masks = [frozenset(map(assumption_mask, terms)) for terms in (mqs, mc)]
        self._freeze(*masks, None)
        self.__dict__.update(mqs=mqs, mc=mc)

    @classmethod
    def of_masks(cls, mqs_masks: frozenset[int], mc_masks: frozenset[int],
                 term_of: Callable[[int], Term]) -> SupportSets:
        sets = cls.__new__(cls)
        sets._freeze(mqs_masks, mc_masks, term_of)
        return sets

    @cached_property
    def mqs(self) -> frozenset[Term]:
        return frozenset(map(self.term_of, self.mqs_masks))

    @cached_property
    def mc(self) -> frozenset[Term]:
        return frozenset(map(self.term_of, self.mc_masks))


def _negations(clauses: Iterable[int], even: int) -> frozenset[int]:
    """The literal-wise negations of the non-tautological `clauses`."""
    return frozenset(swap(m, even) for m in clauses if not is_tautology(m, even))


def _state_terms(state: CompiledState) -> frozenset[int]:
    """The support term masks of a state's carc: the tautology seeds
    stripped, the rest swapped literal-wise into assumption terms."""
    alphabet = state.field.alphabet
    even = even_bits(len(alphabet))
    for m in state.carc_masks:
        stray = m & state.field.outside
        if stray and not is_tautology(m, even):
            # a proposition literal, from a hand-made snapshot
            (lit,) = alphabet.literals_of(stray & -stray)
            raise NonAssumptionLiteralError(
                f"literal over proposition {lit.symbol.name} has no assumption-term reading"
            )
    return _negations(state.carc_masks, even)


def compile_kb(kb: KnowledgeBase, with_pi: bool = False) -> CompiledState:
    """Fold the whole clause set (knowledge, then facts) into a snapshot."""
    return compile_clauses(kb.alphabet, kb.clauses, with_pi=with_pi)


def minimal_contradictions(
    kb: KnowledgeBase, state: CompiledState | None = None
) -> frozenset[Term]:
    """Minimal assumption terms that are inconsistent with the clause set.

    When the clauses are unsatisfiable on their own, the empty term comes
    back alone: every configuration is contradictory.
    """
    if state is None:
        state = compile_kb(kb)
    return frozenset(map(state.field.alphabet.term_of, _state_terms(state)))


def minimal_quasi_supports(
    kb: KnowledgeBase, hypothesis: Formula, state: CompiledState | None = None
) -> SupportSets:
    """Minimal quasi-supports of `hypothesis` plus the minimal contradictions.

    The compiled state for the clause set is `fold`ed, query-locally, with
    the clause masks of the negated hypothesis in canonical order as one
    batch, just like the facts; the assumption-only minimal implicates of
    that extension negate into the quasi-support terms.
    """
    if state is None:
        state = compile_kb(kb)
    mc = _state_terms(state)
    query_state = fold(state, canonical(to_cnf(Not(hypothesis))))
    return SupportSets.of_masks(_state_terms(query_state), mc, state.field.alphabet.term_of)


def compiled_mqs(pi: Iterable[Clause], hypothesis: Clause) -> SupportSets:
    """Support sets read straight off a prime implicate set.

    For a clause hypothesis h, every prime implicate that is assumption-only
    outside h contributes its h-free remainder; minimizing and negating
    those remainders gives the quasi-supports. The assumption-only prime
    implicates themselves give the contradictions. With h empty the two
    coincide. Everything is computed on the clauses' masks; the terms are
    built from their literals' negations on first access.
    """
    pi = list(pi)
    masks = [f.mask for f in pi]
    even = even_bits_of(0, *masks)
    props = sum({l.bit for f in pi for l in f.literals if l.symbol.kind != ASSUMPTION})
    residues = (m & ~hypothesis.mask for m in masks)
    mqs = _negations(minimal_masks(r for r in residues if not r & props), even)
    mc = _negations((m for m in masks if not m & props), even)
    return SupportSets.of_masks(mqs, mc, term_views(pi))
