"""Brute-force oracles and random generators shared by the test modules.

Everything here recomputes expected results from first principles (truth
tables over bitmask interpretations, subset scans for minimization) and
stays independent of the engine algorithms under test; only the plain data
types are reused to build inputs and compare outputs.
"""

import math
import random
from itertools import product

from pabr.logic import ASSUMPTION, PROPOSITION, Alphabet, Clause, Literal, Term
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


# --- truth tables over bitmasks ----------------------------------------------


def clause_masks(c):
    pos = neg = 0
    for lit in c.literals:
        if lit.positive:
            pos |= 1 << lit.symbol.index
        else:
            neg |= 1 << lit.symbol.index
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
    from pabr.logic import mu_minimize

    field = ProductionField.assumption_only(alphabet)
    found = enumerate_min_implicates(clauses, alphabet, assumption_only=True)
    return mu_minimize(found | field.seed_clauses())


def batch_pi(clauses, alphabet):
    from pabr.consequence import ProductionField
    from pabr.logic import mu_minimize

    field = ProductionField.all_clauses(alphabet)
    found = enumerate_min_implicates(clauses, alphabet, assumption_only=False)
    return mu_minimize(found | field.seed_clauses())


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


def term_units(t):
    return [Clause.of(lit) for lit in t.sorted_literals]


# --- reference consequence finding ---------------------------------------------


def _tautological(literals):
    return any(lit.negate() in literals for lit in literals)


def reference_produce(sigma, clause, field):
    """`consequence.produce` as a frozenset saturation loop, for comparison.

    List agenda, forward subsumption against the kept and pending clauses,
    no backward subsumption; resolution, tautology tests, field membership
    and minimization all on literal sets.
    """
    from pabr.consequence import ALL_CLAUSES

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
        if field.kind == ALL_CLAUSES or all(l.symbol.kind == ASSUMPTION for l in k)
    ]
    return frozenset(Clause(k) for k in inside if not any(j < k for j in inside))


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
        target.append(random_clause(rng, symbols))
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
        random_clause(rng, symbols) for _ in range(rng.randint(min_clauses, max_clauses))
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
