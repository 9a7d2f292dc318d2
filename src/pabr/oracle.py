"""Brute-force ground truth by enumerating every interpretation.

Completely independent of the symbolic engine, and bit-parallel: the 2^N
interpretations of a knowledge base's N symbols are the bit positions of a
column, an int of 2^N bits. Bit x of a symbol's column is its value in
interpretation x; the assumption table's symbols take the low index bits,
in table order, so interpretation x extends configuration x mod 2^k of the
k assumptions. A clause's column is the OR of its literals' columns, the
knowledge base's the AND of its clauses', and a hypothesis's the value of
its formula over the columns. Folding the high halves of a column onto the
low ones ORs the interpretations of each configuration: the knowledge
base's column folds to the configurations with a model (omega), its models
that fail the hypothesis fold to the configurations that do not
quasi-support it. Each configuration has the product prior, and every
mass is a `math.fsum` of priors. Exponential in the alphabet, so guarded
by `SYMBOL_LIMIT`, and intended for cross-checking and small models only.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from itertools import compress, product, repeat
from operator import mul
from typing import Sequence

from .errors import EnumerationLimitError, TotalInconsistencyError
from .logic import And, Atom, Formula, Symbol, Term, Value, bits, polar_postorder
from .support import KnowledgeBase

SYMBOL_LIMIT = 20

Configuration = tuple[int, ...]

# `bin` digits to the bytes 0 and 1
_FLAG = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int, size: int) -> bytes:
    """Byte i is bit i of `mask`, for i < size."""
    return bin(mask)[:1:-1].ljust(size, "0").encode().translate(_FLAG)


def _fold(column: int, n: int, k: int) -> int:
    """The configurations of k assumptions that some interpretation in a
    column over n symbols extends: its high halves ORed onto the low ones."""
    size = 1 << n
    while size > 1 << k:
        size //= 2
        column = (column | column >> size) & ((1 << size) - 1)
    return column


def _columns(n: int) -> list[int]:
    """The column of each index bit 0 .. n-1 over 2^n interpretations: a
    run of ones past a run of zeros, doubled by shifts to the full width."""
    width = 1 << n
    columns = []
    for j in range(n):
        run = 1 << j
        column = ((1 << run) - 1) << run
        period = 2 * run
        while period < width:
            column |= column << period
            period *= 2
        columns.append(column)
    return columns


class HintModel(Value, compare="kb"):
    """A knowledge base's interpretations, as bit-parallel columns.

    `symbols` orders the index bits of an interpretation: the table's
    assumptions, then the alphabet's other symbols. `literals[b]` is the
    column of the literal of mask bit 2^b (`logic`'s layout), `models` that
    of the interpretations satisfying every clause. A configuration is a
    bit tuple in table order, and a set of them is a mask with bit a for
    the configuration of index a: `admitted` holds those with a model.
    The views `gamma` (each configuration to its models, bit tuples indexed
    by symbol index), `prior` (each configuration to its product prior)
    and `omega` (the configurations with a model) are built on first
    access. Equality, hashing, repr and pickling go by `kb`.
    """

    # __dict__ holds the views
    __slots__ = ("kb", "symbols", "literals", "models", "admitted", "__dict__")

    def __init__(self, kb: KnowledgeBase):
        listed = kb.assumptions.symbols
        symbols = listed + tuple(s for s in kb.alphabet.symbols if s not in listed)
        everything = (1 << (1 << len(symbols))) - 1
        column_of = dict(zip(symbols, _columns(len(symbols))))
        literals = []
        for sym in kb.alphabet.symbols:
            literals += (column_of[sym], everything ^ column_of[sym])
        models = everything
        for clause in kb.clauses:
            column = 0
            for bit in bits(clause):
                column |= literals[bit.bit_length() - 1]
            models &= column
        self._freeze(kb, symbols, literals, models, _fold(models, len(symbols), len(listed)))

    def supporting(self, hypothesis: Formula) -> int:
        """The configurations whose models all satisfy `hypothesis`."""
        values: list[int] = []
        for node, negated in polar_postorder(hypothesis):
            if isinstance(node, Atom):
                values.append(self.literals[2 * node.symbol.index + negated])
            elif isinstance(node, And) != negated:
                values.append(values.pop() & values.pop())
            else:
                values.append(values.pop() | values.pop())
        k = len(self.kb.assumptions)
        failing = _fold(self.models & ~values.pop(), len(self.symbols), k)
        return ((1 << (1 << k)) - 1) & ~failing

    def mass(self, configs: int) -> float:
        """The prior of the configurations `configs`, summed exactly."""
        return math.fsum(compress(self.priors, _flags(configs, len(self.priors))))

    def configs(self, mask: int) -> frozenset[Configuration]:
        """The configurations `mask` holds, as tuples."""
        return frozenset(compress(self.configurations, _flags(mask, len(self.configurations))))

    @cached_property
    def priors(self) -> array:
        """Each configuration's prior by index, multiplied in table order."""
        table = self.kb.assumptions
        priors = array("d", [1.0])
        for sym in table.symbols:
            q = table.prob(sym)
            priors = array("d", map(mul, priors, repeat(1.0 - q))) + array(
                "d", map(mul, priors, repeat(q))
            )
        return priors

    @cached_property
    def configurations(self) -> list[Configuration]:
        """Each configuration by index: bit j of the index is its value j."""
        return [c[::-1] for c in product((0, 1), repeat=len(self.kb.assumptions))]

    @cached_property
    def gamma(self) -> dict[Configuration, tuple[tuple[int, ...], ...]]:
        alphabet = self.kb.alphabet.symbols
        position = {sym: p for p, sym in enumerate(self.symbols)}
        # each interpretation's index, in the order `product` yields its tuple
        indices = map(sum, product(*((0, 1 << position[sym]) for sym in alphabet)))
        flags = _flags(self.models, 1 << len(self.symbols))
        models: list[list[tuple[int, ...]]] = [[] for _ in self.configurations]
        low = len(models) - 1
        for interpretation, x in zip(product((0, 1), repeat=len(alphabet)), indices):
            if flags[x]:
                models[x & low].append(interpretation)
        return {c: tuple(m) for c, m in zip(self.configurations, models)}

    @cached_property
    def prior(self) -> dict[Configuration, float]:
        return dict(zip(self.configurations, self.priors))

    @cached_property
    def omega(self) -> frozenset[Configuration]:
        return self.configs(self.admitted)


def build_hint(kb: KnowledgeBase) -> HintModel:
    """The columns of every interpretation and of the knowledge base's models."""
    symbols = kb.alphabet.symbols
    if len(symbols) > SYMBOL_LIMIT:
        raise EnumerationLimitError(
            f"{len(symbols)} symbols exceed the enumeration limit of {SYMBOL_LIMIT}"
        )
    return HintModel(kb)


def quasi_supporting_configs(model: HintModel, hypothesis: Formula) -> frozenset[Configuration]:
    """Configurations whose admitted interpretations all satisfy the hypothesis.

    Contradictory configurations (no interpretations at all) qualify
    vacuously.
    """
    return model.configs(model.supporting(hypothesis))


def oracle_support(model: HintModel, hypothesis: Formula) -> tuple[float, float, float]:
    """(unnormalized support, contradiction mass, degree of support)."""
    supporting = model.supporting(hypothesis)
    qs_prob = model.mass(supporting)
    contra_prob = model.mass(((1 << len(model.priors)) - 1) & ~model.admitted)
    omega_mass = model.mass(model.admitted)
    if omega_mass <= 0.0:
        raise TotalInconsistencyError(
            "the knowledge base excludes every assumption configuration"
        )
    support = model.mass(supporting & model.admitted) / omega_mass
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
