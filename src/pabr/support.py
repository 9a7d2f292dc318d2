"""Minimal quasi-supports and minimal contradictions.

An assumption term quasi-supports a hypothesis when, conjoined with the
clause set, it entails the hypothesis; contradictions are the terms that
entail the inconsistency. Both sets fall out of the assumption-only
minimal implicates: negate each clause literal-wise to get a term. The
hypothesis enters by conjoining the clause form of its negation.
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
    is_tautology,
    mu_minimize,
    swap,
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


def negate_clauses(clauses: Iterable[Clause]) -> frozenset[Term]:
    """Literal-wise negation, mapping assumption clauses to assumption terms.

    The empty clause maps to the empty term. Clauses touching proposition
    symbols have no term reading and are rejected.
    """
    terms = []
    for c in clauses:
        for lit in c.literals:
            if lit.symbol.kind != ASSUMPTION:
                raise NonAssumptionLiteralError(
                    f"literal over proposition {lit.symbol.name} has no assumption-term reading"
                )
        terms.append(Term(frozenset(l.negate() for l in c.literals)))
    return frozenset(terms)


def _support_terms(carc: Iterable[Clause]) -> frozenset[Term]:
    """Tilde of the carc set with the tautology seeds stripped."""
    return negate_clauses(c for c in carc if not c.is_tautology)


def _state_terms(state: CompiledState) -> frozenset[Term]:
    """`_support_terms` of a state's carc, read off its masks: the
    tautology seeds stripped, the rest swapped into assumption terms."""
    alphabet = state.field.alphabet
    even = even_bits(len(alphabet))
    terms = []
    for m in state.carc_masks:
        if is_tautology(m, even):
            continue
        stray = m & state.field.outside
        if stray:
            # a proposition literal, from a hand-made snapshot
            (lit,) = alphabet.literals_of(stray & -stray)
            raise NonAssumptionLiteralError(
                f"literal over proposition {lit.symbol.name} has no assumption-term reading"
            )
        terms.append(alphabet.term_of(swap(m, even)))
    return frozenset(terms)


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
    coincide.
    """
    residues = []
    contradiction_clauses = []
    for f in pi:
        residue = f.minus(hypothesis)
        if residue.is_assumption_only:
            residues.append(residue)
        if f.is_assumption_only:
            contradiction_clauses.append(f)
    mqs = _support_terms(mu_minimize(residues))
    mc = _support_terms(contradiction_clauses)
    return SupportSets(mqs=mqs, mc=mc)
