"""Seeded workload generators.

Each workload is a generator of `Op`s: one `pabr` command line plus what the
checker needs to judge its output. The generator is told after every op
whether it finished (exit code 0, within budget), so a session never reads
a snapshot that a timed-out compile did not write. It yields None at the
end of each session; a run stops only there, so every run has the same mix
of whole sessions. Knowledge base files are written when an op is
generated, between timed ops.

Every workload mixes `compile` and `query` ops, and sends a small share of
ops down the side paths (`--pi`, `--method sdp`, `--method oracle`,
snapshot reads) so that every layer is measured on every workload; the
share is what the per-layer predictions call "no change".
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

Lit = tuple[bool, str]  # (negated, name)


@dataclass
class Kb:
    path: str
    assumptions: list[tuple[str, float]]
    props: list[str]
    clauses: list[tuple[Lit, ...]]
    facts: list[tuple[Lit, ...]] = field(default_factory=list)
    chain_n: int | None = None  # set for fault chains, which have a closed form

    def write(self) -> "Kb":
        lines = [f"assumption {name} {q!r}" for name, q in self.assumptions]
        lines.append("prop " + " ".join(self.props))
        lines += ["clause " + _clause_text(c) for c in self.clauses]
        lines += ["fact " + _clause_text(c) for c in self.facts]
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return self


def _clause_text(lits) -> str:
    return " | ".join(("-" if neg else "") + name for neg, name in lits)


@dataclass
class Op:
    kind: str  # "compile" or "query"
    argv: list[str]
    kb: Kb
    hypothesis: tuple | None = None  # formula tree, see render()
    with_pi: bool = False


def render(f) -> str:
    """pabr query text of a formula tree ('v', name) / ('!', f) / (op, f, g)."""
    if f[0] == "v":
        return f[1]
    if f[0] == "!":
        return "!" + render(f[1])
    return f"({render(f[1])} {f[0]} {render(f[2])})"


def literal_formula(neg: bool, name: str):
    return ("!", ("v", name)) if neg else ("v", name)


def clause_formula(lits):
    f = literal_formula(*lits[0])
    for lit in lits[1:]:
        f = ("|", f, literal_formula(*lit))
    return f


def random_formula(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return ("v", rng.choice(names))
    op = rng.choice(("!", "&", "|", "->"))
    if op == "!":
        return ("!", random_formula(rng, names, depth - 1))
    return (op, random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


def _prob(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


def compile_op(kb: Kb, snap: str, with_pi: bool = False) -> Op:
    argv = ["compile", kb.path, "-o", snap] + (["--pi"] if with_pi else [])
    return Op("compile", argv, kb, with_pi=with_pi)


def query_op(kb: Kb, hypothesis, snap: str | None = None, method: str = "auto") -> Op:
    argv = ["query", kb.path, "-q", render(hypothesis)]
    if method != "auto":
        argv += ["--method", method]
    if snap:
        argv += ["--snapshot", snap]
    return Op("query", argv, kb, hypothesis=hypothesis)


def side_method(rng: random.Random) -> str:
    """auto for most queries, sdp and oracle for 4% each (small alphabets only)."""
    r = rng.random()
    return "oracle" if r < 0.04 else "sdp" if r < 0.08 else "auto"


# --- alarm: the README burglar example -------------------------------------

def alarm_kb(path: str) -> Kb:
    return Kb(
        path,
        [("a1", 0.95), ("a2", 0.01)],
        ["burglary", "alarm"],
        [
            ((False, "burglary"), (True, "a1"), (False, "alarm")),
            ((True, "a2"), (True, "a1"), (False, "alarm")),
            ((False, "burglary"), (False, "a2"), (True, "alarm")),
        ],
        [((False, "alarm"),)],
    ).write()


def alarm(rng: random.Random, workdir: str):
    """Sessions of one compile (every other one with --pi) and 24 queries."""
    kb = alarm_kb(os.path.join(workdir, "alarm.pabr"))
    snap = kb.path + ".snap"
    names = [name for name, _ in kb.assumptions] + kb.props
    session = 0
    while True:
        have_snap = yield compile_op(kb, snap, with_pi=session % 2 == 1)
        session += 1
        for _ in range(24):
            h = random_formula(rng, names, 3)
            use_snap = have_snap and rng.random() < 0.5
            yield query_op(kb, h, snap if use_snap else None, side_method(rng))
        yield None


# --- chain: fault chains that straddle the auto method threshold ------------

# Lengths 17..19 are left out: their queries take 0.5-2 s on the seed code,
# too near the op budget to pass or fail steadily.
CHAIN_PASSING = tuple(range(2, 17))
# 21 and 25 union terms: auto switches from inclusion-exclusion to sdp,
# whose fragment count explodes; one of these per round, alternately.
CHAIN_FAILING = (20, 24)


def chain_kb(path: str, n: int, rng: random.Random) -> Kb:
    assumptions = []
    for i in range(1, n + 1):
        assumptions += [(f"a{i}", _prob(rng, 0.05, 0.95)), (f"b{i}", _prob(rng, 0.05, 0.95))]
    clauses = []
    for i in range(1, n + 1):
        clauses.append(((True, f"p{i - 1}"), (True, f"a{i}"), (False, f"p{i}")))
        clauses.append(((True, f"b{i}"), (False, f"p{i}")))
    return Kb(
        path,
        assumptions,
        [f"p{i}" for i in range(n + 1)],
        clauses,
        [((False, "p0"),)],
        chain_n=n,
    ).write()


def chain(rng: random.Random, workdir: str):
    """Rounds of every passing length plus one failing length, shuffled.

    Each chain is compiled, then p_n is queried. Lengths up to 7 also
    answer with --method sdp, lengths up to 3 also with --method oracle and
    compile with --pi.
    """
    count = 0
    for rounds in itertools.count():
        lengths = list(CHAIN_PASSING) + [CHAIN_FAILING[rounds % len(CHAIN_FAILING)]]
        rng.shuffle(lengths)
        for n in lengths:
            count += 1
            kb = chain_kb(os.path.join(workdir, f"chain{count}.pabr"), n, rng)
            snap = kb.path + ".snap"
            have_snap = yield compile_op(kb, snap)
            h = ("v", f"p{n}")
            yield query_op(kb, h, snap if have_snap and count % 2 else None)
            if n <= 7:
                yield query_op(kb, h, method="sdp")
            if n <= 3:
                yield query_op(kb, h, method="oracle")
                yield compile_op(kb, kb.path + ".pi.snap", with_pi=True)
        yield None


# --- rand3: random width-3 CNF ----------------------------------------------

# (assumptions, propositions, clauses). Light instances fold in milliseconds
# to a few hundred; heavy ones fold past the op budget on the seed code.
# A session is RAND3_SESSION instances with one heavy instance at a random
# place, so every run holds the same share of heavy instances. Both sizes
# stay within the reference's 20 symbols.
RAND3_LIGHT = (6, 6, 8)
RAND3_HEAVY = (10, 10, 24)
RAND3_SESSION = 100
RAND3_SMALL = (4, 4, 6)  # the --pi and oracle side ops use this size


def rand3_kb(path: str, rng: random.Random, na: int, np_: int, m: int) -> Kb:
    assumptions = [(f"a{i}", _prob(rng, 0.05, 0.95)) for i in range(na)]
    props = [f"x{i}" for i in range(np_)]
    names = [name for name, _ in assumptions] + props
    clauses = [
        tuple((rng.random() < 0.5, name) for name in rng.sample(names, 3)) for _ in range(m)
    ]
    facts = [((rng.random() < 0.5, rng.choice(props)),)]
    return Kb(path, assumptions, props, clauses, facts).write()


def random_clause(rng: random.Random, kb: Kb):
    names = [name for name, _ in kb.assumptions] + kb.props
    return tuple((rng.random() < 0.5, name) for name in rng.sample(names, rng.randint(1, 2)))


def rand3(rng: random.Random, workdir: str):
    """Per instance: compile, query without snapshot, query with snapshot.

    Every eighth instance queries with --method sdp; every fourth is
    followed by a small instance compiled with --pi and queried with
    --method oracle.
    """
    count = 0
    while True:
        heavy = rng.randrange(RAND3_SESSION)
        for k in range(RAND3_SESSION):
            count += 1
            size = RAND3_HEAVY if k == heavy else RAND3_LIGHT
            kb = rand3_kb(os.path.join(workdir, f"r{count}.pabr"), rng, *size)
            snap = kb.path + ".snap"
            have_snap = yield compile_op(kb, snap)
            h = clause_formula(random_clause(rng, kb))
            yield query_op(kb, h, method="sdp" if count % 8 == 0 else "auto")
            if have_snap:
                yield query_op(kb, h, snap)
            if count % 4 == 0:
                small = rand3_kb(os.path.join(workdir, f"r{count}s.pabr"), rng, *RAND3_SMALL)
                snap = small.path + ".snap"
                have_snap = yield compile_op(small, snap, with_pi=True)
                h = clause_formula(random_clause(rng, small))
                yield query_op(small, h, snap if have_snap else None, method="oracle")
        yield None


# --- diag: gate-level diagnosis ----------------------------------------------

# A fixed three-gate shape: two gates read the primary inputs, the third
# reads both of them, and the outputs of the second and third are observed.
# A session holds the circuit once with each assignment of AND/OR kinds to
# the gates, since the kinds set the fold's cost. Compile --pi takes ~50 ms;
# XOR gates or a fourth gate push folds towards the op budget.
DIAG_WIRING = (("i0", "i1", "w0"), ("i1", "i2", "w1"), ("w0", "w1", "w2"))
DIAG_INPUTS = ("i0", "i1", "i2")
DIAG_OUTPUTS = ("w1", "w2")
GATE_TYPES = ("and", "or")


def _gate_clauses(kind: str, ok: str, x: str, y: str, z: str):
    """Clauses of ok -> (z <-> kind(x, y))."""
    n = (True, ok)
    if kind == "and":
        return [(n, (True, z), (False, x)), (n, (True, z), (False, y)),
                (n, (False, z), (True, x), (True, y))]
    return [(n, (False, z), (True, x)), (n, (False, z), (True, y)),
            (n, (True, z), (False, x), (False, y))]


def _gate_value(kind: str, a: bool, b: bool) -> bool:
    return a and b if kind == "and" else a or b


def diag(rng: random.Random, workdir: str):
    """Compile a circuit with --pi, then ask `!ok_g` under an observation.

    The observation fixes every input and observed output; half the time
    one output is flipped so that some gate must be at fault. Queries read
    the compiled snapshot and fold in only the observation facts.
    """
    count = 0
    while True:
        kinds = list(itertools.product(GATE_TYPES, repeat=len(DIAG_WIRING)))
        rng.shuffle(kinds)
        for gate_kinds in kinds:
            count += 1
            circuit = [(kind, *wires) for kind, wires in zip(gate_kinds, DIAG_WIRING)]
            assumptions = [(f"ok{g}", _prob(rng, 0.9, 0.99)) for g in range(len(circuit))]
            props = list(DIAG_INPUTS) + [z for *_, z in circuit]
            clauses = []
            for g, (kind, x, y, z) in enumerate(circuit):
                clauses += _gate_clauses(kind, f"ok{g}", x, y, z)
            base = os.path.join(workdir, f"d{count}")
            kb = Kb(base + ".pabr", assumptions, props, clauses).write()
            snap = base + ".snap"
            have_snap = yield compile_op(kb, snap, with_pi=True)
            values = {i: rng.random() < 0.5 for i in DIAG_INPUTS}
            for kind, x, y, z in circuit:
                values[z] = _gate_value(kind, values[x], values[y])
            if rng.random() < 0.5:
                flip = rng.choice(DIAG_OUTPUTS)
                values[flip] = not values[flip]
            facts = [((not values[w], w),) for w in DIAG_INPUTS + DIAG_OUTPUTS]
            okb = Kb(base + "-obs.pabr", assumptions, props, clauses, facts).write()
            for g in range(len(circuit)):
                h = ("!", ("v", f"ok{g}"))
                yield query_op(okb, h, snap if have_snap else None, side_method(rng))
        yield None


WORKLOADS = {"alarm": alarm, "chain": chain, "rand3": rand3, "diag": diag}
