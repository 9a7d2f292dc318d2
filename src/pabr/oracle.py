"""Brute-force ground truth by enumerating every interpretation.

Completely independent of the symbolic engine: satisfying interpretations
are grouped by their assumption configuration, each configuration gets the
product prior, and hypothesis judgments reduce to set inclusion over the
grouped interpretations. Exponential in the alphabet, so guarded by a size
limit, and intended for cross-checking and small models only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Callable, Sequence

from .errors import EnumerationLimitError, TotalInconsistencyError
from .logic import Clause, Formula, Symbol, Term, clause_value, formula_value
from .probability import AssumptionTable
from .support import KnowledgeBase

DEFAULT_SYMBOL_LIMIT = 20

Configuration = tuple[int, ...]


@dataclass(frozen=True)
class HintModel:
    """All configurations with their priors and admitted interpretations."""

    assumptions: tuple[Symbol, ...]
    gamma: dict[Configuration, tuple[tuple[int, ...], ...]]
    prior: dict[Configuration, float]
    omega: frozenset[Configuration]


def _projection(indices: Sequence[int]) -> Callable[[tuple[int, ...]], Configuration]:
    """`bits -> tuple(bits[i] for i in indices)`, built once for every interpretation."""
    if len(indices) == 1:
        (i,) = indices
        return lambda bits: (bits[i],)
    if not indices:
        return lambda bits: ()
    return itemgetter(*indices)


def build_hint(
    kb: KnowledgeBase,
    table: AssumptionTable | None = None,
    limit: int = DEFAULT_SYMBOL_LIMIT,
) -> HintModel:
    """Enumerate all interpretations and group the satisfying ones.

    Every assumption configuration appears in gamma, possibly with an empty
    interpretation tuple; omega is the subset with at least one model.
    """
    if table is None:
        table = kb.assumptions
    symbols = kb.alphabet.symbols
    if len(symbols) > limit:
        raise EnumerationLimitError(
            f"{len(symbols)} symbols exceed the enumeration limit of {limit}"
        )
    assumption_syms = table.symbols
    project = _projection([s.index for s in assumption_syms])
    clauses = kb.clauses

    gamma: dict[Configuration, list[tuple[int, ...]]] = {}
    for config in product((0, 1), repeat=len(assumption_syms)):
        gamma[config] = []
    for bits in product((0, 1), repeat=len(symbols)):
        if all(clause_value(c, bits) for c in clauses):
            gamma[project(bits)].append(bits)

    prior: dict[Configuration, float] = {}
    for config in gamma:
        p = 1.0
        for sym, value in zip(assumption_syms, config):
            q = table.prob(sym)
            p *= q if value else 1.0 - q
        prior[config] = p

    return HintModel(
        assumptions=tuple(assumption_syms),
        gamma={config: tuple(models) for config, models in gamma.items()},
        prior=prior,
        omega=frozenset(config for config, models in gamma.items() if models),
    )


def quasi_supporting_configs(model: HintModel, hypothesis: Formula) -> frozenset[Configuration]:
    """Configurations whose admitted interpretations all satisfy the hypothesis.

    Contradictory configurations (no interpretations at all) qualify
    vacuously.
    """
    return frozenset(
        config
        for config, models in model.gamma.items()
        if all(formula_value(hypothesis, bits) for bits in models)
    )


def oracle_support(model: HintModel, hypothesis: Formula) -> tuple[float, float, float]:
    """(unnormalized support, contradiction mass, degree of support)."""
    supporting = quasi_supporting_configs(model, hypothesis)
    qs_prob = math.fsum(model.prior[c] for c in supporting)
    contra_prob = math.fsum(
        model.prior[c] for c in model.gamma if c not in model.omega
    )
    omega_mass = math.fsum(model.prior[c] for c in model.omega)
    if omega_mass <= 0.0:
        raise TotalInconsistencyError(
            "the knowledge base excludes every assumption configuration"
        )
    support = math.fsum(model.prior[c] for c in supporting & model.omega) / omega_mass
    return (qs_prob, contra_prob, support)


def term_configs(term: Term, assumptions: Sequence[Symbol]) -> frozenset[Configuration]:
    """Expand an assumption term into the configurations it covers."""
    if term.is_inconsistent:
        return frozenset()
    by_symbol = {l.symbol: l.positive for l in term.literals}
    unknown = set(by_symbol) - set(assumptions)
    if unknown:
        names = ", ".join(sorted(s.name for s in unknown))
        raise ValueError(f"term mentions symbols outside the assumption list: {names}")
    configs = []
    for config in product((0, 1), repeat=len(assumptions)):
        ok = True
        for sym, value in zip(assumptions, config):
            want = by_symbol.get(sym)
            if want is not None and want != bool(value):
                ok = False
                break
        if ok:
            configs.append(config)
    return frozenset(configs)
