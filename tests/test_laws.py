"""Belief-function laws of the degree of support, checked without an oracle.

The degree of support is a normalized belief function over the assumption
configurations (Shafer 1976; Kohlas & Monney 1995), so it obeys laws that
need no ground truth. These tests check them on seeded random knowledge
bases of 8 to 24 symbols, sizes the enumeration oracle does not reach:

- dsp(h) + dsp(!h) <= 1;
- dsp(a | !a) = 1 wherever some configuration is consistent;
- qs_prob(l) >= P(l) for an assumption literal l, since every
  configuration where l holds quasi-supports l;
- 2-monotonicity: dsp(h | g) + dsp(h & g) >= dsp(h) + dsp(g);
- `auto`, `incexc` and `sdp` agree wherever all three answer (a budget
  stop, EnumerationLimitError, is allowed; a broken law is not);
- a state compiled with prime implicates gives the same mqs, mc and
  support as the characteristic-clause state (that route never applies
  the pure-literal rule, so the two check each other);
- a KB rewritten with its literals respelled (`-a`, `!a`, `- a`, `!  a`),
  repeated and shuffled within each line, and comment and blank lines
  added, prints the original's bytes through `pabr query` with no
  snapshot, a carc-only one and a `--pi` one, and `pabr compile` writes
  the original's snapshot bytes; with its clause lines also reordered it
  keeps its answers and still accepts the original's snapshots.

Each law holds exactly in real arithmetic; TOLERANCE absorbs float drift.
"""

import contextlib
import io
import random

import pytest

from pabr.cli import main
from pabr.errors import EnumerationLimitError, TotalInconsistencyError
from pabr.kbfile import build_kb, parse_kb_text
from pabr.logic import parse_formula
from pabr.probability import (
    DISJOINT_PRODUCTS,
    INCLUSION_EXCLUSION,
    SHANNON_EXPANSION,
    evaluate,
)
from pabr.support import compile_kb, minimal_quasi_supports

TOLERANCE = 1e-12
SEEDS = range(60)
METHODS = (SHANNON_EXPANSION, INCLUSION_EXCLUSION, DISJOINT_PRODUCTS)


def random_kb(rng):
    """KB text over 8-24 symbols in the argumentation shape: rules
    `-a.. | -p | q` whose head q is mostly positive; and the symbol names."""
    total = rng.randint(8, 24)
    n_assum = rng.randint(total // 3, 2 * total // 3)
    assums = [f"a{i}" for i in range(n_assum)]
    props = [f"p{i}" for i in range(total - n_assum)]
    lines = [f"assumption {a} {rng.choice([0.1, 0.25, 0.5, 0.7, 0.9])}" for a in assums]
    lines.append("prop " + " ".join(props))
    for _ in range(rng.randint(len(props), total)):
        body, head = rng.sample(props, 2)
        literals = ["-" + a for a in rng.sample(assums, rng.randint(1, 2))]
        literals += ["-" + body] if rng.random() < 0.5 else []
        literals.append(head if rng.random() < 0.75 else "-" + head)
        lines.append("clause " + " | ".join(literals))
    return "\n".join(lines) + "\n", assums, props


class Dsp:
    """Memoized support sets and degrees of support on one KB."""

    def __init__(self, text):
        self.kb, self.table = build_kb(parse_kb_text(text))
        self.state = compile_kb(self.kb)
        self.sets, self.memo = {}, {}

    def report(self, formula, method=SHANNON_EXPANSION):
        if formula not in self.sets:
            h = parse_formula(formula, self.kb.alphabet)
            self.sets[formula] = minimal_quasi_supports(self.kb, h, state=self.state)
        if (formula, method) not in self.memo:
            self.memo[formula, method] = evaluate(self.sets[formula], self.table, method=method)
        return self.memo[formula, method]

    def __call__(self, formula, method=SHANNON_EXPANSION):
        return self.report(formula, method).support


@pytest.fixture(scope="module")
def cases():
    """Per seed with some consistent configuration: the seed, its `Dsp`,
    and hypothesis pairs (h, g), h a literal or a disjunction of two."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        text, assums, props = random_kb(rng)
        dsp = Dsp(text)
        try:
            dsp(f"{assums[0]} | !{assums[0]}")
        except TotalInconsistencyError:
            continue

        def literal():
            return rng.choice(["", "!"]) + rng.choice(props if rng.random() < 0.8 else assums)

        pairs = []
        for _ in range(4):
            h = literal() if rng.random() < 0.5 else f"{literal()} | {literal()}"
            pairs.append((f"({h})", f"({literal()})"))
        out.append((seed, dsp, assums, pairs))
    assert len(out) > len(SEEDS) // 2
    return out


def test_support_of_a_hypothesis_and_of_its_negation_sum_to_at_most_one(cases):
    for seed, dsp, _, pairs in cases:
        for h, g in pairs:
            for f in (h, g):
                assert dsp(f) + dsp(f"!{f}") <= 1 + TOLERANCE, (seed, f)


def test_a_tautology_has_support_one(cases):
    for seed, dsp, assums, _ in cases:
        for a in assums:
            assert dsp(f"{a} | !{a}") == pytest.approx(1, abs=TOLERANCE), (seed, a)


def test_an_assumption_literal_quasi_supports_itself(cases):
    # the configurations where a literal l holds all quasi-support l, so
    # qs_prob(l) >= P(l): the law that ties the answers to the priors
    for seed, dsp, assums, _ in cases:
        for a in assums:
            q = dsp.table.prob(dsp.kb.alphabet.lookup(a))
            assert dsp.report(a).qs_prob >= q - TOLERANCE, (seed, a)
            assert dsp.report(f"!{a}").qs_prob >= 1 - q - TOLERANCE, (seed, a)


def test_support_is_2_monotone(cases):
    for seed, dsp, _, pairs in cases:
        for h, g in pairs:
            join, meet = dsp(f"{h} | {g}"), dsp(f"{h} & {g}")
            assert join + meet >= dsp(h) + dsp(g) - TOLERANCE, (seed, h, g)


def test_exact_methods_agree_wherever_all_answer(cases):
    for seed, dsp, _, pairs in cases:
        for h, g in pairs:
            for f in (h, f"{h} | {g}", f"{h} & {g}"):
                try:
                    values = [dsp(f, method) for method in METHODS]
                except EnumerationLimitError:
                    continue
                assert max(values) - min(values) <= TOLERANCE, (seed, f, values)


def test_the_prime_implicate_route_answers_as_the_carc_route(cases):
    for seed, dsp, _, pairs in cases:
        pi_state = compile_kb(dsp.kb, with_pi=True)
        assert pi_state.carc_masks == dsp.state.carc_masks, seed
        for h, g in pairs:
            for f in (h, g, f"!{h}", f"!{g}", f"{h} | {g}", f"{h} & {g}"):
                support = dsp(f)
                hypothesis = parse_formula(f, dsp.kb.alphabet)
                sets = minimal_quasi_supports(dsp.kb, hypothesis, state=pi_state)
                assert (sets.mqs, sets.mc) == (dsp.sets[f].mqs, dsp.sets[f].mc), (seed, f)
                assert evaluate(sets, dsp.table).support == support, (seed, f)


def respell(rng, text, reorder=False):
    """`text` with each `clause` line's literals respelled, one repeated and
    all shuffled, comment and blank lines added, and the clause lines
    themselves shuffled when `reorder`."""
    head, clauses = [], []
    for line in text.splitlines():
        if not line.startswith("clause "):
            head.append(line)
            continue
        literals = line.removeprefix("clause ").split(" | ")
        literals.append(rng.choice(literals))
        rng.shuffle(literals)
        signs = ["-", "!", "- ", "!  "]
        words = [rng.choice(signs) + lit[1:] if lit[0] == "-" else lit for lit in literals]
        clauses.append("clause " + " | ".join(words))
    if reorder:
        rng.shuffle(clauses)
    out = []
    for line in head + clauses:
        if rng.random() < 0.3:
            out.append(rng.choice(["", "   ", "# a comment | -x"]))
        out.append(line + rng.choice(["", "  # trailing | -x"]))
    return "\n".join(out) + "\n"


def cli(*argv):
    """Exit code, stdout and stderr of one `pabr` command run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_respelled_and_reordered_kbs_answer_as_the_original(cases, tmp_path):
    slow_spellings = 0
    for seed, _, _, pairs in cases:
        rng = random.Random(seed)
        text = random_kb(rng)[0]
        texts = {
            "original": text,
            "respelled": respell(rng, text),
            "reordered": respell(rng, text, reorder=True),
        }
        slow_spellings += "- " in texts["respelled"] or "!  " in texts["respelled"]
        kb, snapshot = {}, {}
        for name, kb_text in texts.items():
            kb[name] = tmp_path / f"{name}.pabr"
            kb[name].write_text(kb_text)
            for flags in ((), ("--pi",)):
                path = snapshot[name, flags] = tmp_path / f"{name}{''.join(flags)}.snap"
                assert cli("compile", str(kb[name]), "-o", str(path), *flags)[0] == 0, seed
                if name == "respelled":
                    original = snapshot["original", flags].read_bytes()
                    assert path.read_bytes() == original, (seed, flags)

        def query(name, formula, *snap):
            return cli("query", str(kb[name]), "-q", formula, *map(str, snap))

        for formula in [f for pair in pairs[:2] for f in pair]:
            want = query("original", formula)
            assert query("respelled", formula) == query("reordered", formula) == want, seed
            for flags in ((), ("--pi",)):
                want = query("original", formula, "--snapshot", snapshot["original", flags])
                got = query("respelled", formula, "--snapshot", snapshot["respelled", flags])
                assert got == want, (seed, formula, flags)
                # the fingerprint covers the clause set, not the lines' order or spelling
                got = query("reordered", formula, "--snapshot", snapshot["original", flags])
                assert got == want, (seed, formula, flags)
    assert slow_spellings > len(cases) // 2
