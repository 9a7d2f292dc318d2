"""Minimal quasi-supports and minimal contradictions.

An assumption term quasi-supports a hypothesis when, conjoined with the
clause set, it entails the hypothesis; contradictions are the terms that
entail the inconsistency. Both sets fall out of the assumption-only
minimal implicates: negate each clause literal-wise to get a term. The
hypothesis enters by conjoining the clause form of its negation.

Both routes compute on clause masks; the negation is `swap`, and `Term`
views are built once, as the `SupportSets` returned to the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .consequence import CompiledState, compile_clauses, extend
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


class SupportSets(Value):
    __slots__ = ("mqs", "mc")

    def __init__(self, mqs: frozenset[Term], mc: frozenset[Term]):
        self._freeze(mqs, mc)


def _negations(clauses: Iterable[int], even: int, term_of) -> frozenset[Term]:
    """The literal-wise negations of the non-tautological `clauses`, as terms."""
    return frozenset(term_of(swap(m, even)) for m in clauses if not is_tautology(m, even))


def _state_terms(state: CompiledState) -> frozenset[Term]:
    """The support terms of a state's carc: the tautology seeds stripped,
    the rest swapped literal-wise into assumption terms."""
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
    return _negations(state.carc_masks, even, alphabet.term_of)


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
    return _state_terms(state)


def minimal_quasi_supports(
    kb: KnowledgeBase, hypothesis: Formula, state: CompiledState | None = None
) -> SupportSets:
    """Minimal quasi-supports of `hypothesis` plus the minimal contradictions.

    The compiled state for the clause set is `extend`ed, query-locally, with
    the clause masks of the negated hypothesis in canonical order, just like
    the facts; the assumption-only minimal implicates of that extension
    negate into the quasi-support terms.
    """
    if state is None:
        state = compile_kb(kb)
    mc = _state_terms(state)
    query_state = state
    for clause in canonical(to_cnf(Not(hypothesis))):
        query_state = extend(query_state, clause)
    mqs = _state_terms(query_state)
    return SupportSets(mqs=mqs, mc=mc)


def compiled_mqs(pi: Iterable[Clause], hypothesis: Clause) -> SupportSets:
    """Support sets read straight off a prime implicate set.

    For a clause hypothesis h, every prime implicate that is assumption-only
    outside h contributes its h-free remainder; minimizing and negating
    those remainders gives the quasi-supports. The assumption-only prime
    implicates themselves give the contradictions. With h empty the two
    coincide. Everything is computed on the clauses' masks; the terms are
    built from their literals' negations at the end.
    """
    pi = list(pi)
    masks = [f.mask for f in pi]
    even = even_bits_of(0, *masks)
    props = sum({l.bit for f in pi for l in f.literals if l.symbol.kind != ASSUMPTION})
    term_of = term_views(pi)
    residues = (m & ~hypothesis.mask for m in masks)
    mqs = _negations(minimal_masks(r for r in residues if not r & props), even, term_of)
    return SupportSets(mqs=mqs, mc=_negations((m for m in masks if not m & props), even, term_of))
