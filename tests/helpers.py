"""Brute-force oracles and random generators shared by the test modules.

Everything here recomputes expected results from first principles (truth
tables over bitmask interpretations, subset scans for minimization) and
stays independent of the engine algorithms under test; only the plain data
types are reused to build inputs and compare outputs.
"""

import importlib
import math
import random
from collections import Counter, namedtuple
from itertools import product
from operator import itemgetter

from pabr import probability
from pabr.errors import EnumerationLimitError, TotalInconsistencyError

from pabr.logic import (
    ASSUMPTION,
    PROPOSITION,
    Alphabet,
    And,
    Atom,
    Clause,
    Implies,
    Literal,
    Not,
    Or,
    Term,
    bits,
    even_bits_of,
    is_tautology,
    minimal_masks,
    polar_postorder,
)
from pabr.probability import AssumptionTable
from pabr.support import KnowledgeBase

BURGLAR_TEXT = """\
# burglar alarm example
assumption a1 0.95
assumption a2 0.01
prop burglary alarm
clause -burglary | -a1 | alarm
clause -a2 | -a1 | alarm
clause burglary | a2 | -alarm
fact alarm
"""

Q_CHOICES = [i / 10 for i in range(1, 10)]


def make_alphabet(n_assumptions, n_props):
    """Assumptions first (a1..), then propositions (p1..), like KB files."""
    alphabet = Alphabet()
    assumptions = [alphabet.declare(f"a{i + 1}", ASSUMPTION) for i in range(n_assumptions)]
    props = [alphabet.declare(f"p{i + 1}", PROPOSITION) for i in range(n_props)]
    return alphabet, assumptions, props


def lits(*pairs):
    return frozenset(Literal(sym, positive) for sym, positive in pairs)


def clause(*pairs):
    return Clause(lits(*pairs))


def term(*pairs):
    return Term(lits(*pairs))


def mask(*pairs):
    """The literal bitmask of `clause(*pairs)`: bit 2i for symbol i, 2i+1 for its negation."""
    out = 0
    for sym, positive in pairs:
        out |= 1 << 2 * sym.index + (not positive)
    return out


# --- formulas, recursively ------------------------------------------------------


def reference_value(f, bits):
    """Truth value of a formula under bits indexed by symbol index, by recursion."""
    if isinstance(f, Atom):
        return bool(bits[f.symbol.index])
    if isinstance(f, Not):
        return not reference_value(f.operand, bits)
    left, right = reference_value(f.left, bits), reference_value(f.right, bits)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    assert isinstance(f, Implies)
    return not left or right


def render(f):
    """Formula text with every binary node in parentheses, by recursion."""
    if isinstance(f, Atom):
        return f.symbol.name
    if isinstance(f, Not):
        return "!" + render(f.operand)
    op = {And: "&", Or: "|", Implies: "->"}[type(f)]
    return f"({render(f.left)} {op} {render(f.right)})"


# --- values and views that `pabr` no longer needs -------------------------------


def formula_value(f, bits):
    """Evaluate under an interpretation given as bits indexed by symbol index."""
    values = []
    for node, negated in polar_postorder(f):
        if isinstance(node, Atom):
            values.append(bool(bits[node.symbol.index]) != negated)
        elif isinstance(node, And) != negated:
            values.append(values.pop() & values.pop())
        else:
            values.append(values.pop() | values.pop())
    return values.pop()


def clause_value(clause, bits):
    return any(bool(bits[l.symbol.index]) == l.positive for l in clause.literals)


def clause_to_formula(clause):
    """Disjunction tree for a nonempty clause, literals in canonical order."""
    if clause.is_empty:
        raise ValueError("the empty clause has no formula rendering")
    node = None
    for lit in clause.sorted_literals:
        leaf = Atom(lit.symbol) if lit.positive else Not(Atom(lit.symbol))
        node = leaf if node is None else Or(node, leaf)
    return node


def mu_minimize(items):
    """Keep exactly the elements that strictly subsume no other element.

    Duplicates collapse by set semantics. Works on clauses and on terms;
    callers keep the input homogeneous and over one alphabet.
    """
    pool = {x.mask: x for x in items}
    return frozenset(pool[m] for m in minimal_masks(pool))


def is_assumption_only(view):
    """True when every literal of a clause or term view is over an assumption."""
    return all(l.symbol.kind == ASSUMPTION for l in view.literals)


# --- truth tables over bitmasks ----------------------------------------------


def clause_masks(c):
    """(positive, negative) symbol-index masks of a `Clause` or a clause's literal bitmask."""
    literal_bits = c if isinstance(c, int) else c.mask
    pos = neg = 0
    for i in range(0, literal_bits.bit_length(), 2):
        pos |= (literal_bits >> i & 1) << i // 2
        neg |= (literal_bits >> i + 1 & 1) << i // 2
    return pos, neg


def models_of(clauses, nsyms):
    """All satisfying interpretations as bitmasks (bit i = symbol index i)."""
    full = (1 << nsyms) - 1
    masks = [clause_masks(c) for c in clauses]
    return [
        m
        for m in range(1 << nsyms)
        if all((pos & m) | (neg & ~m & full) for pos, neg in masks)
    ]


def entails(clauses, candidate, nsyms):
    pos, neg = clause_masks(candidate)
    full = (1 << nsyms) - 1
    return all(
        (pos & m) | (neg & ~m & full) for m in models_of(clauses, nsyms)
    )


def mask_pair_to_clause(pos, neg, alphabet):
    out = []
    for sym in alphabet.symbols:
        bit = 1 << sym.index
        if pos & bit:
            out.append(Literal(sym, True))
        if neg & bit:
            out.append(Literal(sym, False))
    return Clause(frozenset(out))


def enumerate_min_implicates(clauses, alphabet, assumption_only):
    """Minimal implicates by scanning every clause over the chosen symbols.

    Candidates run over 3^k literal assignments; an unsatisfiable clause set
    yields exactly the empty clause.
    """
    nsyms = len(alphabet.symbols)
    full = (1 << nsyms) - 1
    mods = models_of(clauses, nsyms)
    if assumption_only:
        symbols = [s for s in alphabet.symbols if s.kind == ASSUMPTION]
    else:
        symbols = list(alphabet.symbols)
    implicates = []
    for assignment in product((0, 1, 2), repeat=len(symbols)):
        pos = neg = 0
        for sym, a in zip(symbols, assignment):
            if a == 1:
                pos |= 1 << sym.index
            elif a == 2:
                neg |= 1 << sym.index
        if all((pos & m) | (neg & ~m & full) for m in mods):
            implicates.append((pos, neg))
    implicates.sort(key=lambda pn: bin(pn[0] | pn[1]).count("1"))
    minimal = []
    for pos, neg in implicates:
        if not any((p & pos) == p and (n & neg) == n for p, n in minimal):
            minimal.append((pos, neg))
    return frozenset(mask_pair_to_clause(p, n, alphabet) for p, n in minimal)


def batch_carc(clauses, alphabet):
    """Batch ground truth: minimal assumption-only implicates plus seeds."""
    from pabr.consequence import ProductionField

    field = ProductionField.assumption_only(alphabet)
    found = enumerate_min_implicates(clauses, alphabet, assumption_only=True)
    return mu_minimize(found | set(map(alphabet.clause_of, field.seed_masks())))


def batch_pi(clauses, alphabet):
    from pabr.consequence import ProductionField

    field = ProductionField.all_clauses(alphabet)
    found = enumerate_min_implicates(clauses, alphabet, assumption_only=False)
    return mu_minimize(found | set(map(alphabet.clause_of, field.seed_masks())))


def brute_u_prime(kb, h_clause):
    """Configurations whose admitted models all satisfy the clause hypothesis.

    One pass over every interpretation, projecting onto the assumption
    symbols; contradictory configurations qualify vacuously.
    """
    nsyms = len(kb.alphabet.symbols)
    full = (1 << nsyms) - 1
    masks = [clause_masks(c) for c in kb.clauses]
    hpos, hneg = clause_masks(h_clause)
    assum = kb.assumptions.symbols
    bad = set()
    for m in range(1 << nsyms):
        if not all((pos & m) | (neg & ~m & full) for pos, neg in masks):
            continue
        if (hpos & m) | (hneg & ~m & full):
            continue
        bad.add(tuple((m >> s.index) & 1 for s in assum))
    return frozenset(
        config for config in product((0, 1), repeat=len(assum)) if config not in bad
    )


def union_prob_brute(terms, table):
    """Probability of the configurations covered by at least one term."""
    syms = list(table.symbols)
    lits_per_term = [[(l.symbol, l.positive) for l in t.literals] for t in terms]
    covered = []
    for config in product((0, 1), repeat=len(syms)):
        value = {s: bool(v) for s, v in zip(syms, config)}
        if any(
            all(value[sym] == positive for sym, positive in term_lits)
            for term_lits in lits_per_term
        ):
            p = 1.0
            for s, v in zip(syms, config):
                q = table.prob(s)
                p *= q if v else 1.0 - q
            covered.append(p)
    return math.fsum(covered)


def reference_shannon_expansion(masks, table):
    """`probability._shannon_expansion` as it was with a `Counter` split pick:
    each node splits on the symbol in the most terms, lowest index first,
    and stops past `probability.SHANNON_BUDGET` split nodes (read per call)."""
    probs = table.bit_prob
    even = even_bits_of(0, *masks)
    root = frozenset(m for m in masks if not is_tautology(m, even))
    memo = {}
    stack = [(root, None)]
    splits = 0
    while stack:
        node, split = stack.pop()
        if split:
            pos, yes, no = split
            memo[node] = probs[pos] * memo[yes] + probs[pos << 1] * memo[no]
        elif node in memo:
            continue
        elif len(node) <= 1 or 0 in node:
            memo[node] = math.prod((probs[b] for b in bits(min(node))), start=1.0) if node else 0.0
        else:
            splits += 1
            if splits > probability.SHANNON_BUDGET:
                raise EnumerationLimitError(f"{len(root)} terms split past the budget")
            counts = Counter(b & even or b >> 1 for m in node for b in bits(m))
            pos = min(counts, key=lambda b: (-counts[b], b))
            neg = pos << 1
            yes = frozenset(m & ~pos for m in node if not m & neg)
            no = frozenset(m & ~neg for m in node if not m & pos)
            stack += ((node, (pos, yes, no)), (yes, None), (no, None))
    return memo[root]


def chain_text(n):
    """A fault chain of n links: p0 holds; a_i with p_{i-1} gives p_i, and
    b_i gives p_i on its own."""
    rng = random.Random(n)
    lines = []
    for i in range(1, n + 1):
        lines.append(f"assumption a{i} {rng.choice(Q_CHOICES)}")
        lines.append(f"assumption b{i} {rng.choice(Q_CHOICES)}")
    lines.append("prop " + " ".join(f"p{i}" for i in range(n + 1)))
    for i in range(1, n + 1):
        lines.append(f"clause -a{i} | -p{i - 1} | p{i}")
        lines.append(f"clause -b{i} | p{i}")
    lines.append("fact p0")
    return "\n".join(lines) + "\n"


def term_units(t):
    return [Clause.of(lit) for lit in t.sorted_literals]


def shortest_first(terms):
    """Distinct terms, fewest literals first, ties in canonical order: the
    order `evaluate` hands disjoint products."""
    return sorted(set(terms), key=lambda t: (len(t), t.sort_key))


def negated_terms(clauses):
    """The literal-wise negations of `clauses`, as terms."""
    return frozenset(Term(frozenset(l.negate() for l in c.literals)) for c in clauses)


def count_calls(monkeypatch, target):
    """Record the arguments of every call to the function at the dotted
    path `target` (`"pabr.consequence.resolvent_mask"`, say) and pass the
    call on; returns the record list."""
    module, _, name = target.rpartition(".")
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(target, counting)
    return calls


# --- reference enumeration oracle ----------------------------------------------

ReferenceHint = namedtuple("ReferenceHint", "gamma prior omega")


def _projection(indices):
    """`bits -> tuple(bits[i] for i in indices)`, built once for every interpretation."""
    if len(indices) == 1:
        (i,) = indices
        return lambda bits: (bits[i],)
    if not indices:
        return lambda bits: ()
    return itemgetter(*indices)


def reference_build_hint(kb):
    """`oracle.build_hint` as it was, enumerating interpretations as tuples.

    Every assumption configuration appears in gamma, possibly with an empty
    interpretation tuple; omega is the subset with at least one model.
    """
    from pabr.oracle import SYMBOL_LIMIT

    table = kb.assumptions
    symbols = kb.alphabet.symbols
    if len(symbols) > SYMBOL_LIMIT:
        raise EnumerationLimitError(
            f"{len(symbols)} symbols exceed the enumeration limit of {SYMBOL_LIMIT}"
        )
    assumption_syms = table.symbols
    project = _projection([s.index for s in assumption_syms])
    clauses = [kb.alphabet.clause_of(m) for m in kb.clauses]

    gamma = {}
    for config in product((0, 1), repeat=len(assumption_syms)):
        gamma[config] = []
    for bits in product((0, 1), repeat=len(symbols)):
        if all(clause_value(c, bits) for c in clauses):
            gamma[project(bits)].append(bits)

    prior = {}
    for config in gamma:
        p = 1.0
        for sym, value in zip(assumption_syms, config):
            q = table.prob(sym)
            p *= q if value else 1.0 - q
        prior[config] = p

    return ReferenceHint(
        gamma={config: tuple(models) for config, models in gamma.items()},
        prior=prior,
        omega=frozenset(config for config, models in gamma.items() if models),
    )


def reference_quasi_supporting_configs(model, hypothesis):
    """Configurations whose admitted interpretations all satisfy the hypothesis."""
    return frozenset(
        config
        for config, models in model.gamma.items()
        if all(formula_value(hypothesis, bits) for bits in models)
    )


def reference_oracle_support(model, hypothesis):
    """(unnormalized support, contradiction mass, degree of support)."""
    supporting = reference_quasi_supporting_configs(model, hypothesis)
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


# --- reference consequence finding ---------------------------------------------


def _tautological(literals):
    return any(lit.negate() in literals for lit in literals)


def reference_produce(sigma, clause, field):
    """`consequence.produce` as a frozenset saturation loop, for comparison.

    List agenda, forward subsumption against the kept and pending clauses,
    no backward subsumption; resolution, tautology tests, field membership
    and minimization all on literal sets.
    """
    from pabr.consequence import ProductionField

    unrestricted = field == ProductionField.all_clauses(field.alphabet)
    if _tautological(clause.literals):
        return frozenset()
    sides = [s.literals for s in dict.fromkeys(sigma) if not _tautological(s.literals)]
    kept = []
    agenda = [clause.literals]
    while agenda:
        given = agenda.pop(0)
        if any(k <= given for k in kept):
            continue
        kept.append(given)
        for partner in sides + kept:
            for lit in given:
                if lit.negate() not in partner:
                    continue
                r = (given - {lit}) | (partner - {lit.negate()})
                if _tautological(r):
                    continue
                if any(k <= r for k in kept):
                    continue
                if any(a <= r for a in agenda):
                    continue
                agenda.append(r)
    inside = [
        k for k in kept
        if unrestricted or all(l.symbol.kind == ASSUMPTION for l in k)
    ]
    return frozenset(Clause(k) for k in inside if not any(j < k for j in inside))


def reference_produce_masks(sides, clause, field, kept=()):
    """`reference_produce` with `consequence.produce`'s mask signature.

    A seeded kept set joins the side clauses, and the result is merged
    with it by minimization; the seed's tautologies (`s | -s`) stay, as
    they do in `produce`, until a member subsumes them.
    """
    alphabet = field.alphabet
    sigma = [alphabet.clause_of(m) for m in (*sides, *kept)]
    fresh = reference_produce(sigma, alphabet.clause_of(clause), field)
    seed = [alphabet.clause_of(m) for m in kept if not m & field.outside]
    return [c.mask for c in mu_minimize([*seed, *fresh])]


def reference_pi_add(state, clause):
    """`consequence.pi_add` by the route it replaced: the old prime implicates
    as side clauses of an unseeded `produce`, merged into them by `_union`."""
    from pabr.consequence import CompiledState, ProductionField, _union, produce

    processed = state.processed_masks + (clause,)
    if state.field.alphabet.clause_of(clause).is_tautology:
        return CompiledState(state.field, state.carc_masks, processed, state.pi_masks)
    full = ProductionField.all_clauses(state.field.alphabet)
    pi = _union(state.pi_masks, produce(tuple(state.pi_masks), clause, full))
    carc = frozenset(m for m in pi if not m & state.field.outside)
    return CompiledState(state.field, carc, processed, pi)


def reference_extend(state, clause):
    """`consequence.extend` by the per-clause route `fold` replaced: `pi_add`
    with prime implicates, else one `produce` against every processed
    clause, merged into carc by `_union`."""
    from pabr.consequence import CompiledState, _union, pi_add, produce
    from pabr.logic import even_bits

    if state.pi_masks is not None:
        return pi_add(state, clause)
    processed = state.processed_masks + (clause,)
    if is_tautology(clause, even_bits(len(state.field.alphabet))):
        return CompiledState(state.field, state.carc_masks, processed)
    fresh = produce(state.processed_masks, clause, state.field)
    return CompiledState(state.field, _union(state.carc_masks, fresh), processed)


def reference_compile_clauses(alphabet, clauses, with_pi=False):
    """`consequence.compile_clauses` as a `reference_extend` per clause."""
    from pabr.consequence import CompiledState, ProductionField

    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi)
    for c in clauses:
        state = reference_extend(state, c)
    return state


# --- reference snapshot reader and writer -------------------------------------


def parse_clause_body(body, lineno, offset=0):
    """Literals of a `|`-separated clause line as (negated, name) pairs, names not resolved.

    The clause-line parser that `logic.read_clause` replaced. Literals
    negate with a leading "-" or "!"; a blank body is the empty clause.
    `offset` is the 0-based column where `body` starts in its line, so
    errors carry the 1-based line and column of the bad literal.
    """
    from pabr.errors import ParseError
    from pabr.logic import IDENT_RE

    if not body.strip():
        return ()
    literals = []
    for i, piece in enumerate(body.split("|")):
        token = piece.strip()
        negated = token[:1] in ("-", "!")
        name = token[1:].strip() if negated else token
        if not IDENT_RE.fullmatch(name):
            message = f"malformed literal {token!r}" if token else "empty literal"
            raise ParseError(message, line=lineno, column=literal_columns(body, offset)[i])
        literals.append((negated, name))
    return tuple(literals)


def literal_columns(body, offset=0):
    """The 1-based column of each `|`-separated literal (or blank piece) of a clause body."""
    columns = []
    column = offset + 1
    for piece in body.split("|"):
        columns.append(column + piece.find(piece.strip()))
        column += len(piece) + 1
    return columns


def reference_parse_snapshot(text, alphabet):
    """Snapshot sections as clause mask lists, every line through `parse_clause_body`.

    The line-by-line reader that `consequence.parse_snapshot` replaced, kept
    to compare masks, error types, messages, lines and columns against.
    """
    from pabr.errors import ParseError, UndeclaredSymbolError

    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in ("carc", "pi", "processed"):
                raise ParseError(f"unknown section {name!r}", line=lineno)
            current = name
            sections.setdefault(name, [])
            continue
        if current is None:
            raise ParseError("clause before any section header", line=lineno)
        body = "" if line == "<empty>" else raw
        mask = 0
        for (negated, name), column in zip(parse_clause_body(body, lineno), literal_columns(body)):
            try:
                mask |= 1 << 2 * alphabet.lookup(name).index + negated
            except UndeclaredSymbolError as err:
                raise UndeclaredSymbolError(str(err), line=lineno, column=column) from None
        sections[current].append(mask)
    if "carc" not in sections:
        raise ParseError("missing [carc] section", line=1)
    return sections


def reference_snapshot_text(carc, pi, processed):
    """Section text of `Clause` sets, rendered by `str` and sorted by `sort_key`."""

    def line(c):
        return "<empty>" if c.is_empty else str(c)

    lines = ["[carc]"] + [line(c) for c in sorted(carc, key=lambda c: c.sort_key)]
    if pi is not None:
        lines += ["[pi]"] + [line(c) for c in sorted(pi, key=lambda c: c.sort_key)]
    lines += ["[processed]"] + [line(c) for c in processed]
    return "\n".join(lines) + "\n"


def serialize_kb(doc):
    """Write a `KbDocument` back to text; parsing the result yields an equal document."""

    def text(clause):
        return " | ".join(("-" if negated else "") + name for negated, name in clause)

    lines = [f"assumption {name} {prob!r}" for name, prob in doc.assumptions]
    if doc.propositions:
        lines.append("prop " + " ".join(doc.propositions))
    lines += [("clause " + text(c)).rstrip() for c in doc.knowledge]
    lines += [("fact " + text(c)).rstrip() for c in doc.facts]
    return "\n".join(lines) + "\n"


# --- random instances ---------------------------------------------------------


def random_clause(rng, symbols, max_width=3):
    width = rng.randint(1, min(max_width, len(symbols)))
    chosen = rng.sample(symbols, width)
    return Clause(frozenset(Literal(s, rng.random() < 0.5) for s in chosen))


def random_kb(rng, min_syms=2, max_syms=6, min_clauses=3, max_clauses=10):
    n_assum = rng.randint(min_syms, max_syms)
    n_props = rng.randint(min_syms, max_syms)
    alphabet, assumptions, _props = make_alphabet(n_assum, n_props)
    table = AssumptionTable(tuple((s, rng.choice(Q_CHOICES)) for s in assumptions))
    symbols = list(alphabet.symbols)
    sigma_k, sigma_f = [], []
    for _ in range(rng.randint(min_clauses, max_clauses)):
        target = sigma_f if rng.random() < 0.25 else sigma_k
        target.append(random_clause(rng, symbols).mask)
    return (
        KnowledgeBase(
            alphabet=alphabet,
            assumptions=table,
            sigma_k=tuple(sigma_k),
            sigma_f=tuple(sigma_f),
        ),
        table,
    )


def small_random_kb(rng, max_total_syms=8, min_clauses=3, max_clauses=8):
    n_assum = rng.randint(1, max_total_syms // 2)
    n_props = rng.randint(1, max_total_syms - n_assum)
    alphabet, assumptions, _props = make_alphabet(n_assum, n_props)
    table = AssumptionTable(tuple((s, rng.choice(Q_CHOICES)) for s in assumptions))
    symbols = list(alphabet.symbols)
    sigma_k = tuple(
        random_clause(rng, symbols).mask for _ in range(rng.randint(min_clauses, max_clauses))
    )
    return (
        KnowledgeBase(alphabet=alphabet, assumptions=table, sigma_k=sigma_k),
        table,
    )


def random_assumption_terms(rng, assumptions, max_terms=8, max_width=3):
    """Consistent assumption terms, deduplicated, possibly overlapping."""
    count = rng.randint(1, max_terms)
    out = []
    for _ in range(count):
        width = rng.randint(1, min(max_width, len(assumptions)))
        chosen = rng.sample(list(assumptions), width)
        out.append(Term(frozenset(Literal(s, rng.random() < 0.5) for s in chosen)))
    return sorted(set(out), key=lambda t: t.sort_key)
