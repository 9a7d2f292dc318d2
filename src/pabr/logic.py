"""Propositional substrate: symbols, literals, clauses, terms, and formulas.

Symbols are split into two kinds. Propositions describe the domain;
assumptions are the uncertain symbols that later carry probabilities.
Clauses (disjunctions) and terms (conjunctions) are literal sets with
set semantics, so duplicate literals collapse and order is irrelevant
for equality. Every ordered view sorts literals by declaration index,
positive before negative, which keeps all downstream output deterministic.
Each literal set also carries a bitmask (bit 2i for symbol i, bit 2i+1 for
its negation), on which subsumption and resolution are integer operations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, PivotError, UndeclaredSymbolError

PROPOSITION = "proposition"
ASSUMPTION = "assumption"

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Symbol:
    """A named propositional symbol with a stable per-alphabet index."""

    name: str
    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (PROPOSITION, ASSUMPTION):
            raise ValueError(f"unknown symbol kind: {self.kind!r}")

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind}, {self.index})"


class Alphabet:
    """Symbol table for one knowledge base.

    Indices follow declaration order and never change afterwards; they are
    the canonical sort key for literals everywhere in the package.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}

    def declare(self, name: str, kind: str) -> Symbol:
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid symbol name: {name!r}")
        if name in self._by_name:
            raise ValueError(f"symbol declared twice: {name}")
        sym = Symbol(name, kind, len(self._by_name))
        self._by_name[name] = sym
        return sym

    def lookup(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UndeclaredSymbolError(f"undeclared identifier: {name}") from None

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(self._by_name.values())

    @property
    def propositions(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._by_name.values() if s.kind == PROPOSITION)

    @property
    def assumptions(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._by_name.values() if s.kind == ASSUMPTION)

    def __len__(self):
        return len(self._by_name)

    def __contains__(self, name: str):
        return name in self._by_name


@dataclass(frozen=True)
class Literal:
    symbol: Symbol
    positive: bool = True

    def negate(self) -> Literal:
        return Literal(self.symbol, not self.positive)

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.symbol.index, 0 if self.positive else 1)

    @property
    def bit(self) -> int:
        """This literal's mask bit; ascending bits follow `sort_key`."""
        return 1 << (2 * self.symbol.index + (not self.positive))

    def __str__(self):
        return self.symbol.name if self.positive else "-" + self.symbol.name

    def __repr__(self):
        return f"Literal({self})"


def _sorted_literals(literals: Iterable[Literal]) -> tuple[Literal, ...]:
    return tuple(sorted(literals, key=lambda l: l.sort_key))


@dataclass(frozen=True)
class _LiteralSet:
    """Common behaviour of clauses and terms: a frozenset of literals.

    `mask` is the OR of the literals' bits, fixed at construction; equality
    and hashing stay on `literals`.
    """

    literals: frozenset[Literal]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_ordered", _sorted_literals(self.literals))
        object.__setattr__(self, "mask", sum(l.bit for l in self.literals))

    @classmethod
    def of(cls, *literals: Literal):
        return cls(frozenset(literals))

    @property
    def sorted_literals(self) -> tuple[Literal, ...]:
        return self._ordered  # type: ignore[attr-defined]

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def has_complementary_pair(self) -> bool:
        return is_tautology(self.mask, even_bits_of(self.mask))

    @property
    def is_assumption_only(self) -> bool:
        return all(l.symbol.kind == ASSUMPTION for l in self.literals)

    def subsumes(self, other) -> bool:
        """True when this element is a superset of `other` (same kind and alphabet only)."""
        if type(self) is not type(other):
            raise TypeError(f"cannot compare {type(self).__name__} with {type(other).__name__}")
        return other.mask & self.mask == other.mask

    @property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(l.sort_key for l in self.sorted_literals)

    def symbols(self) -> frozenset[Symbol]:
        return frozenset(l.symbol for l in self.literals)

    def __len__(self):
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.sorted_literals)

    def __contains__(self, literal: Literal):
        return literal in self.literals


class Clause(_LiteralSet):
    """Disjunction of literals; the empty clause denotes plain inconsistency."""

    @property
    def is_tautology(self) -> bool:
        return self.has_complementary_pair

    def minus(self, other: Clause) -> Clause:
        """Drop every literal shared with `other`."""
        return Clause(self.literals - other.literals)

    def __str__(self):
        if self.is_empty:
            return "<empty>"
        return " | ".join(str(l) for l in self.sorted_literals)

    def __repr__(self):
        return f"Clause({self})"


class Term(_LiteralSet):
    """Conjunction of literals; the empty term is the trivially true assumption set."""

    @property
    def is_inconsistent(self) -> bool:
        return self.has_complementary_pair

    def __str__(self):
        if self.is_empty:
            return "<true>"
        return " & ".join(str(l) for l in self.sorted_literals)

    def __repr__(self):
        return f"Term({self})"


EMPTY_CLAUSE = Clause(frozenset())
EMPTY_TERM = Term(frozenset())


def mu_minimize(items: Iterable) -> frozenset:
    """Keep exactly the elements that strictly subsume no other element.

    Duplicates collapse by set semantics. Works on clauses and on terms;
    callers keep the input homogeneous and over one alphabet.
    """
    pool = list(dict.fromkeys(items))
    masks = [x.mask for x in pool]
    return frozenset(
        x for x, m in zip(pool, masks) if not any(n & m == n != m for n in masks)
    )


# --- bitmask kernel -----------------------------------------------------------
#
# `even` is the positive-literal bit of every symbol the masks can reach,
# 0b0101...01; callers that know their alphabet compute it once.


def even_bits(n_symbols: int) -> int:
    """The positive-literal bits of symbols 0 .. n_symbols - 1."""
    return ((1 << 2 * n_symbols) - 1) // 3


def even_bits_of(*masks: int) -> int:
    """`even_bits` wide enough for the given masks."""
    return even_bits((max(masks).bit_length() + 1) // 2)


def swap(mask: int, even: int) -> int:
    """Exchange each symbol's two bits: the literal-wise complement of `mask`."""
    return ((mask & even) << 1) | ((mask >> 1) & even)


def bits(mask: int) -> Iterator[int]:
    """The set bits of `mask` as powers of two, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def is_tautology(mask: int, even: int) -> bool:
    """True when some symbol has both of its bits set."""
    return bool(mask & (mask >> 1) & even)


def resolvent_mask(a: int, b: int, bit: int, even: int) -> int:
    """Resolvent of masks `a` and `b` on the pivot whose literal in `b` is `bit`.

    `bit` must be one bit of `swap(a, even) & b`. For non-tautological
    parents this is `(a | b)` without the pivot's two bits.
    """
    return (a & ~swap(bit, even)) | (b & ~bit)


def resolve(c1: Clause, c2: Clause, pivot: Symbol) -> Clause:
    """Resolvent of two clauses on `pivot`.

    The pivot must occur with opposite polarity in the parents; when it
    does so both ways (tautological parents), `c1`'s positive literal is
    resolved upon. The result may be tautological; detecting that is the
    caller's job.
    """
    even = even_bits_of(c1.mask, c2.mask)
    negative = Literal(pivot, False).bit
    clash = swap(c1.mask, even) & c2.mask & (Literal(pivot, True).bit | negative)
    if not clash:
        raise PivotError(f"pivot {pivot.name} is not complementary in the parents")
    r = resolvent_mask(c1.mask, c2.mask, clash & negative or clash, even)
    return Clause(frozenset(l for l in c1.literals | c2.literals if l.bit & r))


def resolvents(c1: Clause, c2: Clause) -> Iterator[Clause]:
    """All resolvents of two clauses, one per complementary symbol, in index order."""
    clash = swap(c1.mask, even_bits_of(c1.mask, c2.mask)) & c2.mask
    pivots = {l.symbol.index: l.symbol for l in c2.sorted_literals if l.bit & clash}
    for pivot in pivots.values():
        yield resolve(c1, c2, pivot)


# --- clause lines -----------------------------------------------------------

RawLiteral = tuple[bool, str]  # (negated, name)
RawClause = tuple[RawLiteral, ...]


def parse_clause_body(body: str, lineno: int, offset: int = 0) -> RawClause:
    """Literals of a `|`-separated clause line, names not yet resolved.

    Literals negate with a leading "-" or "!"; a blank body is the empty
    clause. `offset` is the 0-based column where `body` starts in its line,
    so errors carry the 1-based line and column of the bad literal.
    """
    if not body.strip():
        return ()
    literals = []
    column = offset + 1
    for piece in body.split("|"):
        token = piece.strip()
        negated = token[:1] in ("-", "!")
        name = token[1:].strip() if negated else token
        if not IDENT_RE.fullmatch(name):
            message = f"malformed literal {token!r}" if token else "empty literal"
            raise ParseError(message, line=lineno, column=column + piece.find(token))
        literals.append((negated, name))
        column += len(piece) + 1
    return tuple(literals)


def resolve_clause(raw: RawClause, alphabet: Alphabet) -> Clause:
    """The clause of `raw` over `alphabet`; an unknown name raises UndeclaredSymbolError."""
    return Clause(
        frozenset(Literal(alphabet.lookup(name), not negated) for negated, name in raw)
    )


# --- formulas ---------------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    symbol: Symbol


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


_TOKEN_CHARS = {"(": "(", ")": ")", "!": "!", "&": "&", "|": "|"}


def _tokenize(text: str) -> list[tuple[str, int, str]]:
    """Tokens as (kind, offset, value); kinds are the punctuation itself,
    'ident', and a final 'end' marker at len(text)."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, i, ch))
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                tokens.append(("->", i, "->"))
                i += 2
                continue
            raise ParseError("expected '->'", offset=i)
        m = IDENT_RE.match(text, i)
        if m:
            tokens.append(("ident", i, m.group()))
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", offset=i)
    tokens.append(("end", n, ""))
    return tokens


class _FormulaParser:
    """Recursive descent over the connective grammar.

    Precedence from loose to tight: -> (right associative), |, &, !.
    """

    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        node = self.implication()
        kind, offset, value = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", offset=offset)
        return node

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.peek()[0] == "|":
            self.advance()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.negation()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.negation())
        return node

    def negation(self) -> Formula:
        kind, offset, value = self.peek()
        if kind == "!":
            self.advance()
            return Not(self.negation())
        if kind == "(":
            self.advance()
            node = self.implication()
            k, off, v = self.peek()
            if k != ")":
                raise ParseError("expected ')'", offset=off)
            self.advance()
            return node
        if kind == "ident":
            self.advance()
            try:
                sym = self.alphabet.lookup(value)
            except UndeclaredSymbolError:
                raise UndeclaredSymbolError(
                    f"undeclared identifier: {value}", offset=offset
                ) from None
            return Atom(sym)
        raise ParseError("expected a formula", offset=offset)


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    return _FormulaParser(text, alphabet).parse()


def _nnf(f: Formula, negated: bool) -> Formula:
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, Not):
        return _nnf(f.operand, not negated)
    if isinstance(f, And):
        if negated:
            return Or(_nnf(f.left, True), _nnf(f.right, True))
        return And(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Or):
        if negated:
            return And(_nnf(f.left, True), _nnf(f.right, True))
        return Or(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Implies):
        if negated:
            return And(_nnf(f.left, False), _nnf(f.right, True))
        return Or(_nnf(f.left, True), _nnf(f.right, False))
    raise TypeError(f"not a formula: {f!r}")


def _simplify(clauses: Iterable[Clause]) -> frozenset[Clause]:
    return mu_minimize(c for c in clauses if not c.is_tautology)


def _cnf_clauses(f: Formula) -> frozenset[Clause]:
    if isinstance(f, Atom):
        return frozenset({Clause.of(Literal(f.symbol, True))})
    if isinstance(f, Not):
        # NNF guarantees the operand is an atom here.
        return frozenset({Clause.of(Literal(f.operand.symbol, False))})
    if isinstance(f, And):
        return _simplify(_cnf_clauses(f.left) | _cnf_clauses(f.right))
    if isinstance(f, Or):
        left = _cnf_clauses(f.left)
        right = _cnf_clauses(f.right)
        return _simplify(
            Clause(c1.literals | c2.literals) for c1 in left for c2 in right
        )
    raise TypeError(f"unexpected node after NNF: {f!r}")


def to_cnf(formula: Formula) -> frozenset[Clause]:
    """Equivalence-preserving clause form.

    No auxiliary symbols are introduced; distribution happens directly and
    tautologies plus subsumed clauses are dropped on the fly. A valid
    formula therefore yields the empty clause set.
    """
    return _cnf_clauses(_nnf(formula, False))


def clause_to_formula(clause: Clause) -> Formula:
    """Disjunction tree for a nonempty clause, literals in canonical order."""
    if clause.is_empty:
        raise ValueError("the empty clause has no formula rendering")
    node = None
    for lit in clause.sorted_literals:
        leaf = Atom(lit.symbol) if lit.positive else Not(Atom(lit.symbol))
        node = leaf if node is None else Or(node, leaf)
    return node


def formula_value(f: Formula, bits: Sequence[int]) -> bool:
    """Evaluate under an interpretation given as bits indexed by symbol index."""
    if isinstance(f, Atom):
        return bool(bits[f.symbol.index])
    if isinstance(f, Not):
        return not formula_value(f.operand, bits)
    if isinstance(f, And):
        return formula_value(f.left, bits) and formula_value(f.right, bits)
    if isinstance(f, Or):
        return formula_value(f.left, bits) or formula_value(f.right, bits)
    if isinstance(f, Implies):
        return (not formula_value(f.left, bits)) or formula_value(f.right, bits)
    raise TypeError(f"not a formula: {f!r}")


def clause_value(clause: Clause, bits: Sequence[int]) -> bool:
    return any(bool(bits[l.symbol.index]) == l.positive for l in clause.literals)


def term_value(term: Term, bits: Sequence[int]) -> bool:
    return all(bool(bits[l.symbol.index]) == l.positive for l in term.literals)
