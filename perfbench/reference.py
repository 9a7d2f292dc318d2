"""Independent reference answers, computed with bitsets and no pabr code.

A knowledge base over V <= 20 symbols (assumptions take indices 0..na-1)
is evaluated on all 2**V interpretations at once: every formula becomes a
Python int whose bit x is set when interpretation x satisfies it. The
assumption configuration of interpretation x is its low na bits, so
projecting a mask onto configurations is a fold of its high half onto its
low half, repeated.

A returned set of terms is checked to be exactly the set of prime
implicants of a Boolean function f (Blake's complete sum): every term is an
implicant of f, their union is f, no term absorbs another, and the
consensus of any two terms is absorbed by one of them.
"""

from __future__ import annotations

import math
from functools import lru_cache

MAX_SYMBOLS = 20
TOLERANCE = 1e-9


@lru_cache(maxsize=None)
def variable_masks(nvars: int) -> tuple[int, ...]:
    """mask[j] has bit x set iff bit j of x is set, over 2**nvars bits."""
    size = 1 << nvars
    masks = []
    for j in range(nvars):
        half = 1 << j
        pattern = ((1 << half) - 1) << half
        period = half << 1
        while period < size:
            pattern |= pattern << period
            period <<= 1
        masks.append(pattern)
    return tuple(masks)


def project(mask: int, nvars: int, nkeep: int) -> int:
    """Configurations (low nkeep bits) that some set bit of `mask` extends."""
    width = 1 << nvars
    while width > (1 << nkeep):
        width >>= 1
        mask = (mask | (mask >> width)) & ((1 << width) - 1)
    return mask


class Universe:
    """Symbol order and literal masks for one knowledge base."""

    def __init__(self, assumptions, props):
        self.names = [name for name, _ in assumptions] + list(props)
        if len(self.names) > MAX_SYMBOLS:
            raise ValueError(f"{len(self.names)} symbols exceed the reference limit")
        self.index = {name: i for i, name in enumerate(self.names)}
        self.na = len(assumptions)
        self.nvars = len(self.names)
        self.full = (1 << (1 << self.nvars)) - 1
        self.masks = variable_masks(self.nvars)
        self.config_full = (1 << (1 << self.na)) - 1
        self.config_masks = variable_masks(self.na)
        priors = [1.0] * (1 << self.na)
        for j, (_, q) in enumerate(assumptions):
            for c in range(1 << self.na):
                priors[c] *= q if (c >> j) & 1 else 1.0 - q
        self.priors = priors

    def literal(self, negated: bool, name: str) -> int:
        m = self.masks[self.index[name]]
        return self.full ^ m if negated else m

    def clause(self, lits) -> int:
        m = 0
        for negated, name in lits:
            m |= self.literal(negated, name)
        return m

    def cnf(self, clauses) -> int:
        m = self.full
        for lits in clauses:
            m &= self.clause(lits)
        return m

    def formula(self, f) -> int:
        op = f[0]
        if op == "v":
            return self.masks[self.index[f[1]]]
        if op == "!":
            return self.full ^ self.formula(f[1])
        a, b = self.formula(f[1]), self.formula(f[2])
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        return (self.full ^ a) | b

    def configs_without_model(self, mask: int) -> int:
        return self.config_full ^ project(mask, self.nvars, self.na)

    def mass(self, configs: int) -> float:
        return math.fsum(p for c, p in enumerate(self.priors) if (configs >> c) & 1)

    def term_key(self, literals) -> tuple[int, int]:
        """(positive bits, negative bits) of a term given as '-name' strings."""
        pos = neg = 0
        for text in literals:
            negated = text.startswith("-")
            bit = 1 << self.index[text.lstrip("-")]
            if negated:
                neg |= bit
            else:
                pos |= bit
        return pos, neg

    def cover(self, key, masks, full) -> int:
        pos, neg = key
        m = full
        j = 0
        while pos or neg:
            if pos & 1:
                m &= masks[j]
            if neg & 1:
                m &= full ^ masks[j]
            pos >>= 1
            neg >>= 1
            j += 1
        return m


def complete_sum_error(keys, f: int, cover) -> str | None:
    """None when `keys` is exactly the set of prime implicants of f."""
    keys = list(keys)
    union = 0
    for k in keys:
        c = cover(k)
        if c & ~f:
            return f"term {k} is not an implicant"
        union |= c
    if union != f:
        return "terms do not cover the function"

    def absorbs(a, b):
        return a[0] & ~b[0] == 0 and a[1] & ~b[1] == 0

    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            if i != j and absorbs(a, b):
                return f"term {b} is absorbed by {a}"
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            clash = (a[0] & b[1]) | (a[1] & b[0])
            if clash and clash & (clash - 1) == 0:
                consensus = ((a[0] | b[0]) & ~clash, (a[1] | b[1]) & ~clash)
                if not any(absorbs(k, consensus) for k in keys):
                    return f"consensus of {a} and {b} is missing"
    return None


class KbReference:
    """Reference answers for one knowledge base (a workloads.Kb)."""

    def __init__(self, kb):
        self.u = Universe(kb.assumptions, kb.props)
        self.clause_mask = self.u.cnf(kb.clauses)
        self.kb_mask = self.clause_mask & self.u.cnf(kb.facts)
        self.contra = self.u.configs_without_model(self.kb_mask)

    def config_cover(self, key) -> int:
        return self.u.cover(key, self.u.config_masks, self.u.config_full)

    def full_cover(self, key) -> int:
        return self.u.cover(key, self.u.masks, self.u.full)

    def query(self, payload: dict, hypothesis_mask: int) -> str | None:
        """Compare a `pabr query` JSON answer; None when it is right."""
        qs = self.u.configs_without_model(self.kb_mask & ~hypothesis_mask)
        qs_prob, contra_prob = self.u.mass(qs), self.u.mass(self.contra)
        support = (qs_prob - contra_prob) / (1.0 - contra_prob)
        for key, want in (
            ("qs_prob", qs_prob),
            ("contradiction_prob", contra_prob),
            ("support", support),
        ):
            if abs(payload[key] - want) > TOLERANCE:
                return f"{key} {payload[key]!r} != reference {want!r}"
        return self.support_sets(payload, self.kb_mask, hypothesis_mask)

    def support_sets(self, payload: dict, kb_mask: int, hypothesis_mask: int) -> str | None:
        """Check payload["mqs"] and payload["mc"] against the knowledge in kb_mask."""
        qs = self.u.configs_without_model(kb_mask & ~hypothesis_mask)
        contra = self.u.configs_without_model(kb_mask)
        for key, f in (("mqs", qs), ("mc", contra)):
            keys = [self.u.term_key(t) for t in payload[key]]
            err = complete_sum_error(keys, f, self.config_cover)
            if err:
                return f"{key}: {err}"
        return None

    def is_total_inconsistency(self) -> bool:
        return self.contra == self.u.config_full

    def snapshot(self, text: str, with_pi: bool) -> str | None:
        """Compare a compiled snapshot of the clause lines; None when right."""
        sections = parse_sections(text)
        if set(sections) != ({"carc", "pi", "processed"} if with_pi else {"carc", "processed"}):
            return f"unexpected sections {sorted(sections)}"
        contra_k = self.u.configs_without_model(self.clause_mask)
        err = implicate_set_error(
            self.u, sections["carc"], contra_k, self.config_cover, self.u.na
        )
        if err:
            return f"carc: {err}"
        if with_pi:
            err = implicate_set_error(
                self.u, sections["pi"], self.u.full ^ self.clause_mask,
                self.full_cover, self.u.nvars,
            )
            if err:
                return f"pi: {err}"
        return None


def parse_sections(text: str) -> dict[str, list[list[str]]]:
    """Snapshot sections as lists of clauses, each a list of literal strings."""
    sections: dict[str, list[list[str]]] = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line and current is not None:
            current.append([] if line == "<empty>" else [t.strip() for t in line.split("|")])
    return sections


def negated_key(u: Universe, clause: list[str]) -> tuple[int, int]:
    """Term key of the literal-wise negation of a clause."""
    pos, neg = u.term_key(clause)
    return neg, pos


def implicate_set_error(u, clauses, falsifying: int, cover, nsymbols: int) -> str | None:
    """Check a compiled clause section: prime implicates plus tautology seeds.

    `falsifying` is the set the section's implicates must exactly rule out.
    A seed `s | -s` must be present iff no unit clause over s (and no empty
    clause) is.
    """
    keys, seeded = [], set()
    for clause in clauses:
        pos, neg = negated_key(u, clause)
        if pos & neg:
            if pos != neg or pos & (pos - 1):
                return f"malformed tautology {clause}"
            seeded.add(pos)
        else:
            keys.append((pos, neg))
    err = complete_sum_error(keys, falsifying, cover)
    if err:
        return err
    units = set()
    for pos, neg in keys:
        if pos | neg == 0:
            units = {1 << j for j in range(nsymbols)}
            break
        if (pos | neg) & ((pos | neg) - 1) == 0:
            units.add(pos | neg)
    want = {1 << j for j in range(nsymbols)} - units
    if seeded != want:
        return "tautology seeds do not match the unit implicates"
    return None


def chain_support(a_probs, b_probs) -> float:
    """P(p_n) for the fault chain: P(p_i) = q(b_i) + (1 - q(b_i)) q(a_i) P(p_{i-1})."""
    p = 1.0
    for qa, qb in zip(a_probs, b_probs):
        p = qb + (1.0 - qb) * qa * p
    return p


def chain_mqs(n: int) -> list[list[str]]:
    """The n+1 quasi-supports of p_n: b_k with a_{k+1}..a_n, and a_1..a_n."""
    terms = []
    for k in range(n, 0, -1):
        terms.append([f"a{i}" for i in range(n, k, -1)] + [f"b{k}"])
    terms.append([f"a{i}" for i in range(n, 0, -1)])
    return terms
