"""Propositional substrate: symbols, literals, clauses, terms, and formulas.

Symbols are split into two kinds. Propositions describe the domain;
assumptions are the uncertain symbols that later carry probabilities.
A clause (disjunction) or term (conjunction) is a set of literals, kept as
a bitmask: bit 2i for symbol i, bit 2i+1 for its negation. Masks are the
only clause representation from a KB or snapshot line (`read_clause`, the
one reader of both) and a formula's clause form (`to_cnf`) to the folds,
where subsumption and resolution are integer operations. Ascending bits
follow declaration order, positive before negative, which keeps all
downstream output deterministic. `Literal`, `Clause` and `Term` are
read-only views of masks for callers that want objects;
`Alphabet.clause_of` and `term_of` build them, and `term_views` builds
term views without the alphabet.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ParseError, UndeclaredSymbolError

PROPOSITION = "proposition"
ASSUMPTION = "assumption"

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Value:
    """Base of the package's immutable value classes.

    A subclass lists its fields in `__slots__` and sets them once, in
    `__init__`, with `_freeze`; they are read-only afterwards. Values are
    equal, and hash alike, when of one class with equal compared fields:
    those the class keyword `compare` names (default: all slots), which are
    the constructor's arguments in order, so copy and pickle rebuild them.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare: str = ""):
        slots = [s for s in cls.__dict__.get("__slots__", ()) if s != "__dict__"]
        if slots:
            cls._setters = [cls.__dict__[s].__set__ for s in slots]
            cls._fields = compare.split() or slots
            cls._key = attrgetter(*cls._fields)

    def _freeze(self, *values):
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Symbol(Value):
    """A named propositional symbol with a stable per-alphabet index."""

    __slots__ = ("name", "kind", "index")

    def __init__(self, name: str, kind: str, index: int):
        if kind not in (PROPOSITION, ASSUMPTION):
            raise ValueError(f"unknown symbol kind: {kind!r}")
        self._freeze(name, kind, index)

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind}, {self.index})"


class Alphabet:
    """Symbol table for one knowledge base.

    Indices follow declaration order and never change afterwards; they are
    the canonical sort key for literals everywhere in the package.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}
        self._symbols: list[Symbol] = []
        self._literals: dict[int, Literal] = {}  # views made so far, by bit
        # literal text ("a", "-a", "!a") to its bit, and bit to canonical text
        self.bit_of_text: dict[str, int] = {}
        self.text_of_bit: dict[int, str] = {}

    def declare(self, name: str, kind: str) -> Symbol:
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid symbol name: {name!r}")
        if name in self._by_name:
            raise ValueError(f"symbol declared twice: {name}")
        sym = Symbol(name, kind, len(self._symbols))
        self._by_name[name] = sym
        self._symbols.append(sym)
        positive = 1 << 2 * sym.index
        self.text_of_bit[positive] = name
        self.text_of_bit[positive << 1] = "-" + name
        self.bit_of_text[name] = positive
        self.bit_of_text["-" + name] = self.bit_of_text["!" + name] = positive << 1
        return sym

    def lookup(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UndeclaredSymbolError(f"undeclared identifier: {name}") from None

    def clause_of(self, mask: int) -> Clause:
        """The clause view of the literal bits `mask`."""
        return Clause(self.literals_of(mask))

    def term_of(self, mask: int) -> Term:
        """The term view of the literal bits `mask`."""
        return Term(self.literals_of(mask))

    def literals_of(self, mask: int) -> frozenset[Literal]:
        return frozenset(map(self._literal, bits(mask)))

    def _literal(self, bit: int) -> Literal:
        lit = self._literals.get(bit)
        if lit is None:
            index, negated = divmod(bit.bit_length() - 1, 2)
            lit = self._literals[bit] = Literal(self._symbols[index], not negated)
        return lit

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(self._symbols)

    @property
    def assumptions(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self._symbols if s.kind == ASSUMPTION)

    def __len__(self):
        return len(self._symbols)


class Literal(Value):
    """A symbol or its negation: the view of one mask bit."""

    __slots__ = ("symbol", "positive")

    def __init__(self, symbol: Symbol, positive: bool = True):
        self._freeze(symbol, positive)

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


class _LiteralSet(Value, compare="literals"):
    """Common behaviour of clause and term views: a frozenset of literals.

    `mask` is the OR of the literals' bits, fixed at construction; equality
    and hashing stay on the class and `literals`.
    """

    __slots__ = ("literals", "mask", "_ordered")

    def __init__(self, literals: frozenset[Literal]):
        ordered = tuple(sorted(literals, key=attrgetter("sort_key")))
        self._freeze(literals, sum(l.bit for l in literals), ordered)

    @classmethod
    def of(cls, *literals: Literal):
        return cls(frozenset(literals))

    @property
    def sorted_literals(self) -> tuple[Literal, ...]:
        return self._ordered

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(l.sort_key for l in self.sorted_literals)

    def __len__(self):
        return len(self.literals)


class Clause(_LiteralSet):
    """Disjunction of literals; the empty clause denotes plain inconsistency."""

    __slots__ = ()

    @property
    def is_tautology(self) -> bool:
        return is_tautology(self.mask, even_bits_of(self.mask))

    def __str__(self):
        if self.is_empty:
            return "<empty>"
        return " | ".join(str(l) for l in self.sorted_literals)

    def __repr__(self):
        return f"Clause({self})"


class Term(_LiteralSet):
    """Conjunction of literals; the empty term is the trivially true assumption set."""

    __slots__ = ()

    @property
    def is_inconsistent(self) -> bool:
        return is_tautology(self.mask, even_bits_of(self.mask))

    def __str__(self):
        if self.is_empty:
            return "<true>"
        return " & ".join(str(l) for l in self.sorted_literals)

    def __repr__(self):
        return f"Term({self})"


def term_views(views: Iterable[_LiteralSet]) -> Callable[[int], Term]:
    """`term_of` without the alphabet, for masks over the literals of `views` and their negations."""
    literal_of = {}
    for view in views:
        for lit in view.literals:
            neg = lit.negate()
            literal_of[lit.bit], literal_of[neg.bit] = lit, neg
    return lambda mask: Term(frozenset(map(literal_of.__getitem__, bits(mask))))


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The distinct masks that contain no other mask."""
    pool = list(dict.fromkeys(masks))
    return [m for m in pool if not any(n & m == n != m for n in pool)]


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


def canonical(masks: Iterable[int]) -> list[int]:
    """Masks by ascending literal bits, lexicographically: the order of `Clause.sort_key`."""
    return sorted(masks, key=lambda m: [b.bit_length() for b in bits(m)])


def is_tautology(mask: int, even: int) -> bool:
    """True when some symbol has both of its bits set."""
    return bool(mask & (mask >> 1) & even)


def resolvent_mask(a: int, b: int, bit: int, even: int) -> int:
    """Resolvent of masks `a` and `b` on the pivot whose literal in `b` is `bit`.

    `bit` must be one bit of `swap(a, even) & b`. For non-tautological
    parents this is `(a | b)` without the pivot's two bits.
    """
    return (a & ~swap(bit, even)) | (b & ~bit)


# --- clause lines -----------------------------------------------------------

RawLiteral = tuple[bool, str]  # (negated, name)
RawClause = tuple[RawLiteral, ...]


def read_clause(body: str, table: Mapping, line: int, offset: int = 0) -> list:
    """The `table` value of each `|`-separated literal of a clause line.

    `table` maps the spellings `a`, `-a` and `!a` of every known symbol
    to a value: one dict lookup per literal reads a line written in them.
    A blank body is the empty clause. Any other line (`- a`, a malformed
    or unknown literal) is read again literal by literal, and an error
    carries the literal's 1-based line and column; `offset` is the 0-based
    column where `body` starts in its line.
    """
    values = []
    try:
        for piece in body.split("|"):
            values.append(table[piece.strip()])
        return values
    except KeyError:
        pass  # another spelling, a blank body or an error: read again
    if not body.strip():
        return []
    values = []
    column = offset + 1
    for piece in body.split("|"):
        token = piece.strip()
        at = column + piece.find(token)
        negated = token[:1] in ("-", "!")
        name = token[1:].strip() if negated else token
        if not IDENT_RE.fullmatch(name):
            message = f"malformed literal {token!r}" if token else "empty literal"
            raise ParseError(message, line=line, column=at)
        value = table.get("-" + name if negated else name)
        if value is None:
            raise UndeclaredSymbolError(f"undeclared identifier: {name}", line=line, column=at)
        values.append(value)
        column += len(piece) + 1
    return values


def resolve_clause(raw: RawClause, alphabet: Alphabet) -> int:
    """The clause mask of `raw` over `alphabet`; an unknown name raises UndeclaredSymbolError."""
    mask = 0
    for negated, name in raw:
        mask |= 1 << 2 * alphabet.lookup(name).index + negated
    return mask


# --- formulas ---------------------------------------------------------------


class Formula(Value):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        self._freeze(symbol)


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        self._freeze(operand)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self._freeze(left, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


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


# Binding strength of the binary connectives, loosest first.
_CONNECTIVES = {"->": (1, Implies), "|": (2, Or), "&": (3, And)}


def parse_formula(text: str, alphabet: Alphabet) -> Formula:
    """Parse a formula by operator precedence on explicit stacks.

    Precedence from loose to tight: -> (right associative), |, &, !.
    `pending` holds the open parentheses, negations and connectives still
    waiting for an operand, so no nesting depth reaches the recursion limit.
    """
    operands: list[Formula] = []
    pending: list[str] = []

    def reduce(floor: int) -> None:
        # apply the connectives binding at least `floor` above the innermost "("
        while pending and pending[-1] != "(" and _CONNECTIVES[pending[-1]][0] >= floor:
            right = operands.pop()
            operands.append(_CONNECTIVES[pending.pop()][1](operands.pop(), right))

    want_operand = True
    for kind, offset, value in _tokenize(text):
        if want_operand:
            if kind in ("!", "("):
                pending.append(kind)
                continue
            if kind != "ident":
                raise ParseError("expected a formula", offset=offset)
            try:
                operands.append(Atom(alphabet.lookup(value)))
            except UndeclaredSymbolError:
                raise UndeclaredSymbolError(
                    f"undeclared identifier: {value}", offset=offset
                ) from None
            want_operand = False
        elif kind in _CONNECTIVES:
            # a pending -> stays: the right operand of -> is an implication
            reduce(max(2, _CONNECTIVES[kind][0]))
            pending.append(kind)
            want_operand = True
            continue
        else:
            reduce(1)
            if kind == ")" and pending:
                pending.pop()
            elif kind == "end" and not pending:
                return operands.pop()
            elif pending:
                raise ParseError("expected ')'", offset=offset)
            else:
                raise ParseError(f"unexpected token {value!r}", offset=offset)
        # an operand is complete: apply the negations written before it
        while pending and pending[-1] == "!":
            pending.pop()
            operands.append(Not(operands.pop()))


def polar_postorder(f: Formula) -> list[tuple[Formula, bool]]:
    """The atoms and binary nodes of `f`, children before parents, with their polarity.

    A node is `negated` below an odd number of negations, the left side of
    each -> counting as one. Read at its polarity a binary node is a
    conjunction when `isinstance(node, And) != negated` (an And, a negated
    Or or a negated ->) and a disjunction otherwise: negation normal form
    without building it. The walk runs on an explicit stack.
    """
    order = []
    stack = [(f, False)]
    while stack:
        node, negated = stack.pop()
        while isinstance(node, Not):
            node, negated = node.operand, not negated
        order.append((node, negated))
        if isinstance(node, (And, Or, Implies)):
            stack.append((node.left, negated != isinstance(node, Implies)))
            stack.append((node.right, negated))
        elif not isinstance(node, Atom):
            raise TypeError(f"not a formula: {node!r}")
    order.reverse()
    return order


def to_cnf(formula: Formula) -> frozenset[int]:
    """Equivalence-preserving clause form, as clause masks.

    No auxiliary symbols are introduced: every disjunction distributes over
    its operands' clauses directly, so k alternations can give 2^k clauses.
    Tautologies and subsumed clauses are dropped at every node, so a valid
    formula yields the empty clause set.
    """
    order = polar_postorder(formula)
    even = even_bits(1 + max(n.symbol.index for n, _ in order if isinstance(n, Atom)))
    values: list[list[int]] = []
    for node, negated in order:
        if isinstance(node, Atom):
            values.append([1 << 2 * node.symbol.index + negated])
            continue
        right, left = values.pop(), values.pop()
        if isinstance(node, And) != negated:
            values.append(minimal_masks(left + right))
        else:
            merged = (a | b for a in left for b in right)
            values.append(minimal_masks(m for m in merged if not is_tautology(m, even)))
    return frozenset(values.pop())
