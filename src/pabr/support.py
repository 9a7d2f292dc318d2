"""Minimal quasi-supports and minimal contradictions.

An assumption term quasi-supports a hypothesis when, conjoined with the
clause set, it entails the hypothesis; contradictions are the terms that
entail the inconsistency. Both sets fall out of the assumption-only
minimal implicates: negate each clause literal-wise to get a term. The
hypothesis enters by conjoining the clause form of its negation.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    mu_minimize,
    to_cnf,
)

if TYPE_CHECKING:
    from .probability import AssumptionTable


@dataclass(frozen=True)
class KnowledgeBase:
    """One reasoning problem: alphabet, assumption probabilities, clauses.

    sigma_k holds the stable knowledge, sigma_f the session facts; their
    concatenation is what every query reasons over.
    """

    alphabet: Alphabet
    assumptions: "AssumptionTable"
    sigma_k: tuple[Clause, ...]
    sigma_f: tuple[Clause, ...] = ()

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self.sigma_k + self.sigma_f


@dataclass(frozen=True)
class SupportSets:
    mqs: frozenset[Term]
    mc: frozenset[Term]


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
    return _support_terms(state.carc)


def minimal_quasi_supports(
    kb: KnowledgeBase, hypothesis: Formula, state: CompiledState | None = None
) -> SupportSets:
    """Minimal quasi-supports of `hypothesis` plus the minimal contradictions.

    The compiled state for the clause set is `extend`ed, query-locally, with
    the clause form of the negated hypothesis, just like the facts; the
    assumption-only minimal implicates of that extension negate into the
    quasi-support terms.
    """
    if state is None:
        state = compile_kb(kb)
    mc = _support_terms(state.carc)
    query_state = state
    negated = sorted(to_cnf(Not(hypothesis)), key=lambda c: c.sort_key)
    for clause in negated:
        query_state = extend(query_state, clause)
    mqs = _support_terms(query_state.carc)
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
