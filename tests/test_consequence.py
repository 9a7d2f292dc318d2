"""Production fields, produce, incremental carc/pi folds, snapshot files."""

import random
from itertools import combinations, permutations

import pytest

from pabr.consequence import (
    CompiledState,
    ProductionField,
    _union,
    compile_clauses,
    extend,
    fold,
    parse_snapshot,
    pi_add,
    produce,
    read_snapshot,
    snapshot_text,
    write_snapshot,
)
from pabr.errors import ParseError
from pabr.kbfile import build_kb, parse_kb_text
from pabr.logic import Not, parse_formula, to_cnf

import helpers


expected_carc = helpers.batch_carc
expected_pi = helpers.batch_pi


# --- fields --------------------------------------------------------------------


def contains(field, mask):
    """Field membership on masks: no literal bit outside the field."""
    return not mask & field.outside


def test_field_membership():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    pa = ProductionField.assumption_only(alphabet)
    assert contains(pa, helpers.mask((a1, False), (a2, False)))
    assert not contains(pa, helpers.mask((a1, False), (p, True)))
    assert contains(pa, 0)
    pn = ProductionField.all_clauses(alphabet)
    assert contains(pn, helpers.mask((a1, False), (p, True)))
    assert contains(pn, 0)


def test_seed_clauses():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    pa = ProductionField.assumption_only(alphabet)
    assert pa.seed_masks() == {
        helpers.mask((a1, True), (a1, False)),
        helpers.mask((a2, True), (a2, False)),
    }
    pn = ProductionField.all_clauses(alphabet)
    assert pn.seed_masks() == {
        helpers.mask((s, True), (s, False)) for s in (a1, a2, p)
    }


def test_field_stability_under_subclauses():
    alphabet, assumptions, props = helpers.make_alphabet(3, 3)
    rng = random.Random(7)
    for field in (
        ProductionField.assumption_only(alphabet),
        ProductionField.all_clauses(alphabet),
    ):
        for _ in range(40):
            c = helpers.random_clause(rng, list(alphabet.symbols))
            if not contains(field, c.mask):
                continue
            lits = [(l.symbol, l.positive) for l in c.literals]
            for k in range(len(lits) + 1):
                for sub in combinations(lits, k):
                    assert contains(field, helpers.mask(*sub))


# --- produce ---------------------------------------------------------------------


def produced(sigma, clause, field):
    """`produce` on clause masks, its distinct results as clauses."""
    out = produce(list(sigma), clause, field)
    assert len(set(out)) == len(out)
    return frozenset(map(field.alphabet.clause_of, out))


def reference_produced(sigma, clause, field):
    """`helpers.reference_produce` on the clause views of masks."""
    clause_of = field.alphabet.clause_of
    return helpers.reference_produce(list(map(clause_of, sigma)), clause_of(clause), field)


def test_produce_resolves_into_field():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    pa = ProductionField.assumption_only(alphabet)
    sigma = [helpers.mask((a1, False), (p, True))]
    out = produced(sigma, helpers.mask((p, False)), pa)
    assert out == {helpers.clause((a1, False))}


def test_produce_clause_already_in_field():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    pa = ProductionField.assumption_only(alphabet)
    c = helpers.clause((a1, False), (a2, False))
    assert produced([], c.mask, pa) == {c}


def test_produce_mixed_resolvents_filtered_out():
    alphabet = helpers.make_alphabet(1, 0)[0]
    a1 = alphabet.lookup("a1")
    burglary = alphabet.declare("burglary", helpers.PROPOSITION)
    alarm = alphabet.declare("alarm", helpers.PROPOSITION)
    pa = ProductionField.assumption_only(alphabet)
    sigma = [helpers.mask((burglary, False), (a1, False), (alarm, True))]
    assert produced(sigma, helpers.mask((alarm, False)), pa) == frozenset()


def test_produce_contract_against_enumeration():
    rng = random.Random(20260817)
    for _ in range(30):
        kb, _table = helpers.small_random_kb(rng, max_total_syms=6, max_clauses=6)
        alphabet = kb.alphabet
        pa = ProductionField.assumption_only(alphabet)
        clauses = list(kb.sigma_k)
        sigma, last = clauses[:-1], clauses[-1]
        fresh = produced(sigma, last, pa)
        merged = helpers.mu_minimize(expected_carc(sigma, alphabet) | fresh)
        assert merged == expected_carc(clauses, alphabet)
        # seeded with the prime implicates of sigma, no sides: those of sigma + [last]
        full = ProductionField.all_clauses(alphabet)
        out = produce((), last, full, masks(expected_pi(sigma, alphabet)))
        assert len(set(out)) == len(out)
        assert frozenset(map(alphabet.clause_of, out)) == expected_pi(clauses, alphabet)
        tautology = 3  # s | -s for the first symbol: adds nothing to the seed
        assert sorted(produce((), tautology, full, out)) == sorted(out)


def _messy_clauses(rng, symbols, count):
    """Width-2/3 clause masks with tautologies, duplicates and the empty clause mixed in."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1 and out:
            out.append(rng.choice(out))
        elif roll < 0.2:
            s, t = rng.choice(symbols), rng.choice(symbols)
            out.append(helpers.mask((s, True), (s, False), (t, rng.random() < 0.5)))
        elif roll < 0.25:
            out.append(0)
        else:
            chosen = rng.sample(symbols, rng.randint(2, min(3, len(symbols))))
            out.append(helpers.mask(*((s, rng.random() < 0.5) for s in chosen)))
    return out


def _one_polarity_shapes(rng):
    """Clause mask lists in which some proposition occurs in one sign only,
    with their alphabets: a fault chain, shuffled or not, with its fact
    `p1` or without; `-a_i | p1` lines with `-p1` or without; and
    `_messy_clauses` with one proposition's negative literals made positive."""
    n = rng.randint(1, 3)
    alphabet, assumptions, props = helpers.make_alphabet(2 * n, n + 1)
    chain = []
    for i in range(n):
        a, b, body, head = *assumptions[2 * i : 2 * i + 2], props[i], props[i + 1]
        chain.append(helpers.mask((a, False), (body, False), (head, True)))
        chain.append(helpers.mask((b, False), (head, True)))
    if rng.random() < 0.5:
        rng.shuffle(chain)
    yield alphabet, chain + [helpers.mask((props[0], True))] * rng.randint(0, 1)
    alphabet, assumptions, (h,) = helpers.make_alphabet(rng.randint(1, 4), 1)
    union = [helpers.mask((a, False), (h, True)) for a in assumptions]
    yield alphabet, union + [helpers.mask((h, False))] * rng.randint(0, 1)
    alphabet, _, props = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
    p = rng.choice(props)
    positive, negative = helpers.mask((p, True)), helpers.mask((p, False))
    clauses = _messy_clauses(rng, list(alphabet.symbols), rng.randint(1, 8))
    yield alphabet, [m ^ negative | positive if m & negative else m for m in clauses]


def test_produce_matches_the_frozenset_reference(monkeypatch):
    rng = random.Random(5150)
    shapes = []
    for _ in range(80):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
        shapes.append((alphabet, _messy_clauses(rng, list(alphabet.symbols), rng.randint(1, 8))))
    # shapes with pure literals, which the assumption-only field prunes
    for _ in range(40):
        shapes += _one_polarity_shapes(rng)
    cases = []
    for alphabet, clauses in shapes:
        sigma, last = clauses[:-1], clauses[-1]
        for field in (
            ProductionField.assumption_only(alphabet),
            ProductionField.all_clauses(alphabet),
        ):
            assert produced(sigma, last, field) == reference_produced(sigma, last, field)
        folds = [compile_clauses(alphabet, clauses, with_pi) for with_pi in (False, True)]
        cases.append((alphabet, clauses, folds))
    # the same folds with the reference in place of the kernel
    monkeypatch.setattr("pabr.consequence.produce", helpers.reference_produce_masks)
    for alphabet, clauses, folds in cases:
        assert [compile_clauses(alphabet, clauses, with_pi) for with_pi in (False, True)] == folds


def test_union_lines_compile_with_no_resolvent_and_no_side_scan(monkeypatch):
    # h occurs positive only, so each `-a_i | h` line adds no characteristic
    # clause, and its fold returns before it filters the earlier lines: one
    # tautology test in `extend` and one in `produce` per line
    n = 200
    alphabet, assumptions, (h,) = helpers.make_alphabet(n, 1)
    lines = [helpers.mask((a, False), (h, True)) for a in assumptions]
    made = helpers.count_calls(monkeypatch, "pabr.consequence.resolvent_mask")
    tested = helpers.count_calls(monkeypatch, "pabr.consequence.is_tautology")
    state = compile_clauses(alphabet, lines)
    assert made == [] and len(tested) <= 2 * n
    assert state.carc_masks == state.field.seed_masks()
    # the negated hypothesis -h makes h impure: one resolvent per line
    query = extend(state, helpers.mask((h, False)))
    assert len(made) == n
    assert query.carc_masks == {helpers.mask((a, False)) for a in assumptions}


def test_seeded_pi_fold_matches_the_side_clause_route(monkeypatch):
    rng = random.Random(6174)
    cases = []
    for _ in range(120):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
        clauses = _messy_clauses(rng, list(alphabet.symbols), rng.randint(1, 10))
        state = compile_clauses(alphabet, clauses, with_pi=True)
        assert state.carc_masks == compile_clauses(alphabet, clauses).carc_masks
        cases.append((alphabet, clauses, state))
    monkeypatch.setattr("pabr.consequence.pi_add", helpers.reference_pi_add)
    for alphabet, clauses, state in cases:
        want = compile_clauses(alphabet, clauses, with_pi=True)
        assert (state.pi_masks, state.carc_masks) == (want.pi_masks, want.carc_masks)


def _batch_fold_cases(rng):
    """Clause mask lists with their alphabets: `_messy_clauses` KBs, and
    `_one_polarity_shapes` with a repeated line, a tautology and now and
    then the empty clause inserted."""
    for _ in range(150):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
        yield alphabet, _messy_clauses(rng, list(alphabet.symbols), rng.randint(1, 10))
    for _ in range(60):
        for alphabet, clauses in _one_polarity_shapes(rng):
            clauses = list(clauses)
            extras = [rng.choice(clauses), 3 << 2 * rng.randrange(len(alphabet))]
            extras += [0] * (rng.random() < 0.1)
            for extra in extras:
                clauses.insert(rng.randint(0, len(clauses)), extra)
            yield alphabet, clauses


def test_batch_fold_matches_the_per_clause_route():
    rng = random.Random(3303)
    cases = list(_batch_fold_cases(rng))
    assert len(cases) >= 300
    for alphabet, clauses in cases:
        for with_pi in (False, True):
            want = helpers.reference_compile_clauses(alphabet, clauses, with_pi)
            split = rng.randint(0, len(clauses))
            onto = compile_clauses(alphabet, clauses[:split], with_pi)
            for got in (compile_clauses(alphabet, clauses, with_pi), fold(onto, clauses[split:])):
                # carc, pi and the processed clauses in fold order
                assert got == want
                assert snapshot_text(got) == snapshot_text(want)


def test_seeded_produce_matches_the_reference():
    rng = random.Random(1992)
    seeds_gone = inconsistent = 0
    for _ in range(150):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
        symbols = list(alphabet.symbols)
        full = ProductionField.all_clauses(alphabet)
        # units and the empty clause remove seeds, before the fold and in it
        state = compile_clauses(alphabet, _with_units(rng, symbols, rng.randint(0, 6)), True)
        seeds_gone += not full.seed_masks() <= state.pi_masks
        inconsistent += state.pi_masks == {0}
        for clause in _with_units(rng, symbols, 3):
            got = produce((), clause, full, state.pi_masks)
            want = helpers.reference_produce_masks((), clause, full, state.pi_masks)
            assert len(got) == len(set(got))
            assert set(got) == set(want)
    assert seeds_gone > inconsistent > 0


def test_chain_and_union_compile_with_no_produce_call(monkeypatch):
    # p_n and h occur positive only, and each p_i once the lines holding
    # p_{i+1} are set aside, so the batch pass sets every line aside
    calls = _count_produce(monkeypatch)
    n = 200
    kb, _table = build_kb(parse_kb_text(helpers.chain_text(n)))
    chain_state = compile_clauses(kb.alphabet, kb.clauses)
    alphabet, assumptions, (h,) = helpers.make_alphabet(n, 1)
    lines = [helpers.mask((a, False), (h, True)) for a in assumptions]
    union_state = compile_clauses(alphabet, lines)
    assert calls == []
    for state, clauses in ((chain_state, kb.clauses), (union_state, lines)):
        assert state.carc_masks == state.field.seed_masks()
        assert state.processed_masks == tuple(clauses)


def _with_units(rng, symbols, count):
    """`_messy_clauses` with unit clauses of either sign over any symbol mixed in."""
    out = _messy_clauses(rng, symbols, count)
    for _ in range(rng.randint(1, 4)):
        unit = helpers.mask((rng.choice(symbols), rng.random() < 0.5))
        out.insert(rng.randint(0, len(out)), unit)
    return out


def _pi_folds(alphabet, clauses):
    """Fold `clauses` through `pi_add` and through the reference route side
    by side, checking each step; returns the initial and every folded state."""
    state = want = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    states = [state]
    for c in clauses:
        state, want = pi_add(state, c), helpers.reference_pi_add(want, c)
        assert (state.pi_masks, state.carc_masks) == (want.pi_masks, want.carc_masks)
        assert state.processed_masks == want.processed_masks
        states.append(state)
    return states


def test_unit_conditioning_matches_the_resolution_route():
    rng = random.Random(1729)
    seen = {"assumption": 0, "proposition": 0, "on_empty": 0, "already_prime": 0}
    for _ in range(200):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 4), rng.randint(1, 4))
        clauses = _with_units(rng, list(alphabet.symbols), rng.randint(1, 8))
        for c, before in zip(clauses, _pi_folds(alphabet, clauses)):
            view = alphabet.clause_of(c)
            if len(view) == 1:
                (lit,) = view.literals
                seen[lit.symbol.kind] += 1
                seen["on_empty"] += 0 in before.pi_masks
                seen["already_prime"] += c in before.pi_masks
    assert all(seen.values()), seen


def _units(*pairs):
    return [helpers.mask(pair) for pair in pairs]


def test_unit_conditioning_edge_cases():
    alphabet, (a1, a2), (p, q, r) = helpers.make_alphabet(2, 3)
    cases = {
        # a unit on an already inconsistent state
        "on_empty": [helpers.mask((p, True)), helpers.mask((p, False)), helpers.mask((a1, True))],
        "on_empty_clause": [0, helpers.mask((q, False))],
        "complementary": _units((a1, True), (a1, False)),
        "complementary_props": [helpers.mask((a1, False), (p, True)), *_units((q, True), (q, False))],
        # p | a1 and -p | a1 make a1 prime before the unit a1 arrives
        "already_prime": [
            helpers.mask((p, True), (a1, True)),
            helpers.mask((p, False), (a1, True)),
            helpers.mask((a1, True)),
        ],
        # r occurs only in its tautology seed
        "seed_only": [helpers.mask((a1, False), (p, True)), helpers.mask((r, True))],
        "strips_to_units": [
            helpers.mask((a1, False), (p, True)),
            helpers.mask((a2, False), (p, False), (q, True)),
            *_units((a1, True), (a2, True)),
        ],
    }
    for name, clauses in cases.items():
        state = _pi_folds(alphabet, clauses)[-1]
        assert state.pi == expected_pi(clauses, alphabet), name
        assert state.carc == expected_carc(clauses, alphabet), name
    assert _pi_folds(alphabet, cases["on_empty"])[-1].pi == {helpers.clause()}
    assert _pi_folds(alphabet, cases["seed_only"])[-1].pi == {
        helpers.clause((a1, False), (p, True)),
        helpers.clause((r, True)),
        *(helpers.clause((s, True), (s, False)) for s in (a1, a2, p, q)),
    }


def _random_antichain(rng, alphabet):
    symbols = list(alphabet.symbols)
    clauses = _messy_clauses(rng, symbols, rng.randint(0, 6))
    clauses += [helpers.mask((s, rng.random() < 0.5)) for s in rng.sample(symbols, 1)]
    return helpers.mu_minimize(map(alphabet.clause_of, clauses))


def masks(clauses):
    return frozenset(c.mask for c in clauses)


def test_union_equals_mu_minimize_of_the_merged_antichains():
    rng = random.Random(8128)
    saw_equal = saw_empty = False
    for _ in range(300):
        alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 3), rng.randint(1, 3))
        old = _random_antichain(rng, alphabet)
        fresh = _random_antichain(rng, alphabet)
        if rng.random() < 0.3:
            # share members between the two sets
            fresh = helpers.mu_minimize(fresh | set(rng.sample(sorted(old, key=len), 1)))
        saw_equal |= bool(old & fresh)
        saw_empty |= helpers.clause() in old | fresh
        want = masks(helpers.mu_minimize(old | fresh))
        assert _union(masks(old), masks(fresh)) == want
        assert _union(masks(fresh), masks(old)) == want
    assert saw_equal and saw_empty


# --- incremental characteristic clauses -------------------------------------------


def test_initial_state_is_seeds():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    assert state.carc == {
        helpers.clause((a1, True), (a1, False)),
        helpers.clause((a2, True), (a2, False)),
    }
    assert state.processed_masks == ()
    assert state.pi is None


def test_extend_keeps_unrelated_tautologies():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    c = helpers.clause((a1, False), (a2, False))
    state = extend(state, c.mask)
    assert state.carc == {
        helpers.clause((a1, True), (a1, False)),
        helpers.clause((a2, True), (a2, False)),
        c,
    }
    assert state.processed_masks == (c.mask,)


def test_extend_tautology_is_a_no_op_on_carc():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(alphabet, [helpers.mask((a1, False), (p, True))])
    taut = helpers.mask((p, True), (p, False))
    after = extend(state, taut)
    assert after.carc == state.carc
    assert after.processed_masks == state.processed_masks + (taut,)


def test_inconsistent_clauses_collapse_to_empty_clause():
    alphabet, _, (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(
        alphabet, [helpers.mask((p, True)), helpers.mask((p, False))]
    )
    assert state.carc == {helpers.clause()}
    assert state.is_plainly_inconsistent


def test_unit_assumption_clause_subsumes_its_seed():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(
        alphabet, [helpers.mask((a1, False), (p, True)), helpers.mask((p, False))]
    )
    # the derived {-a1} evicts the a1 tautology seed
    assert state.carc == {helpers.clause((a1, False))}


# --- incremental prime implicates ---------------------------------------------


def test_pi_seed_and_unit_add():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    assert state.pi == {helpers.clause((p, True), (p, False))}
    state = pi_add(state, helpers.mask((p, True)))
    assert state.pi == {helpers.clause((p, True))}


def test_pi_chain_propagates_units():
    alphabet, _, (p, q) = helpers.make_alphabet(0, 2)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    state = pi_add(state, helpers.mask((p, True)))
    state = pi_add(state, helpers.mask((p, False), (q, True)))
    assert state.pi == {helpers.clause((p, True)), helpers.clause((q, True))}


def test_pi_contradiction_leaves_only_empty_clause():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    state = pi_add(state, helpers.mask((p, True)))
    state = pi_add(state, helpers.mask((p, False)))
    assert state.pi == {helpers.clause()}


def test_pi_add_requires_pi_tracking():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    with pytest.raises(ValueError):
        pi_add(state, helpers.mask((p, True)))


# --- incremental equals batch ---------------------------------------------------


def test_fold_matches_enumeration_on_random_kbs():
    rng = random.Random(4242)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        state = compile_clauses(kb.alphabet, kb.sigma_k, with_pi=True)
        assert state.carc == expected_carc(kb.sigma_k, kb.alphabet)
        assert state.pi == expected_pi(kb.sigma_k, kb.alphabet)


def test_fold_is_order_independent():
    rng = random.Random(99)
    kb, _table = helpers.small_random_kb(rng, max_total_syms=6, max_clauses=5)
    results = set()
    for perm in list(permutations(kb.sigma_k))[:24]:
        state = compile_clauses(kb.alphabet, perm, with_pi=True)
        results.add((state.carc, state.pi))
    assert len(results) == 1


def test_carc_equals_assumption_only_prime_implicates():
    # stable-field identity between the two routes
    rng = random.Random(17)
    for _ in range(15):
        kb, _table = helpers.small_random_kb(rng)
        state = compile_clauses(kb.alphabet, kb.sigma_k, with_pi=True)
        assert state.carc == frozenset(c for c in state.pi if helpers.is_assumption_only(c))


def test_facts_fold_through_pi_of_a_snapshot():
    # knowledge compiled with pi and round-tripped through snapshot text, then
    # facts folded by pi_add alone: carc must match the carc-only fold
    rng = random.Random(2718)
    for _ in range(25):
        kb, _table = helpers.small_random_kb(rng)
        split = rng.randint(0, len(kb.sigma_k))
        knowledge, facts = kb.sigma_k[:split], kb.sigma_k[split:]
        compiled = compile_clauses(kb.alphabet, knowledge, with_pi=True)
        state = parse_snapshot(snapshot_text(compiled), kb.alphabet)
        for c in facts:
            state = extend(state, c)
        carc_only = compile_clauses(kb.alphabet, kb.sigma_k)
        assert state.carc == carc_only.carc == expected_carc(kb.sigma_k, kb.alphabet)
        assert state.pi == expected_pi(kb.sigma_k, kb.alphabet)
        assert state.processed_masks == carc_only.processed_masks


def _count_produce(monkeypatch):
    """Record the clause of every `produce` call; returns the record list."""
    calls = []

    def counting(sides, clause, field, kept=()):
        calls.append(clause)
        return produce(sides, clause, field, kept)

    monkeypatch.setattr("pabr.consequence.produce", counting)
    return calls


@pytest.mark.parametrize("with_pi", [False, True])
def test_extend_runs_one_fold_per_clause(monkeypatch, with_pi):
    calls = _count_produce(monkeypatch)
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi)
    state = extend(state, helpers.mask((a1, False), (p, True)))
    second = helpers.mask((a1, False), (p, False))
    state = extend(state, second)
    state = extend(state, helpers.mask((p, True), (p, False)))
    assert calls == [helpers.mask((a1, False), (p, True)), second]
    assert len(state.processed_masks) == 3


def test_units_fold_into_prime_implicates_without_produce(monkeypatch):
    calls = _count_produce(monkeypatch)
    alphabet, (a1,), (p, q) = helpers.make_alphabet(1, 2)
    knowledge = [helpers.mask((a1, False), (p, True)), helpers.mask((p, False), (q, True))]
    state = compile_clauses(alphabet, knowledge, with_pi=True)
    assert calls == knowledge
    del calls[:]
    for unit in (helpers.mask((q, False)), helpers.mask((a1, True))):
        state = extend(state, unit)
    assert calls == []
    assert state.pi == {helpers.clause()}
    # the empty clause is no unit: it takes the resolution route
    fresh = compile_clauses(alphabet, knowledge, with_pi=True)
    del calls[:]
    assert extend(fresh, 0).pi == {helpers.clause()}
    assert calls == [0]
    # on a carc-only state every clause is resolved
    carc_only = compile_clauses(alphabet, knowledge)
    del calls[:]
    extend(carc_only, helpers.mask((q, False)))
    assert calls == [helpers.mask((q, False))]


# --- snapshots -------------------------------------------------------------------


def test_snapshot_round_trip_with_pi(tmp_path):
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    clauses = [helpers.mask((a1, False), (p, True)), helpers.mask((p, False))]
    state = compile_clauses(alphabet, clauses, with_pi=True)
    path = tmp_path / "kb.snap"
    write_snapshot(state, path)
    assert read_snapshot(path, alphabet, clauses) == state


def test_snapshot_round_trip_without_pi():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    state = compile_clauses(alphabet, [helpers.mask((a1, False), (p, True))])
    text = snapshot_text(state)
    assert parse_snapshot(text, alphabet) == state
    assert "[pi]" not in text


def test_snapshot_renders_empty_clause_token():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = compile_clauses(
        alphabet, [helpers.mask((p, True)), helpers.mask((p, False))]
    )
    text = snapshot_text(state)
    assert "<empty>" in text
    assert parse_snapshot(text, alphabet) == state


def test_snapshot_skips_comments_and_blanks():
    alphabet, (a1,), _ = helpers.make_alphabet(1, 0)
    text = "# header comment\n[carc]\n\n-a1\n"
    state = parse_snapshot(text, alphabet)
    assert state.carc == {helpers.clause((a1, False))}


def test_snapshot_parse_errors_carry_line_numbers():
    alphabet, (a1,), _ = helpers.make_alphabet(1, 0)
    with pytest.raises(ParseError) as err:
        parse_snapshot("[carc]\n[weird]\n", alphabet)
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_snapshot("-a1\n", alphabet)
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_snapshot("[carc]\n-zz\n", alphabet)
    assert err.value.line == 2
    assert "zz" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_snapshot("[processed]\n", alphabet)
    assert "carc" in str(err.value)


# --- mask reader and writer against the Clause-level references -----------------


def _random_state(rng, with_pi):
    alphabet, _, _ = helpers.make_alphabet(rng.randint(1, 3), rng.randint(1, 3))
    clauses = _messy_clauses(rng, list(alphabet.symbols), rng.randint(0, 6))
    return alphabet, compile_clauses(alphabet, clauses, with_pi=with_pi)


def _spelled(rng, clause):
    """A clause line in one of the spellings the clause parser accepts."""
    if clause.is_empty:
        return rng.choice(["<empty>", " <empty>", "<empty>\t"])
    words = []
    for lit in clause.sorted_literals:
        sign = "" if lit.positive else rng.choice(["-", "!", "- ", "!  ", "-\t"])
        words.append(sign + lit.symbol.name)
        if rng.random() < 0.15:
            words.append(words[-1])  # a | a
    rng.shuffle(words)
    seps = [rng.choice(["|", " | ", "|  ", "\t|", " |"]) for _ in words[1:]]
    line = words[0] + "".join(sep + word for sep, word in zip(seps, words[1:]))
    return rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "  "])


def _respell(rng, text, alphabet):
    """Snapshot text with every clause line respelled and comments, blanks added."""
    out = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "# a comment", "  # -a1 | zz"]))
        if line.startswith("["):
            out.append(line)
        else:
            section = helpers.reference_parse_snapshot("[carc]\n" + line + "\n", alphabet)
            out.append(_spelled(rng, alphabet.clause_of(section["carc"][0])))
    return "\n".join(out) + "\n"


def test_mask_reader_matches_the_clause_reader_on_valid_variants():
    rng = random.Random(3141)
    saw = set()
    for _ in range(150):
        alphabet, state = _random_state(rng, with_pi=rng.random() < 0.5)
        text = _respell(rng, snapshot_text(state), alphabet)
        saw |= {tok for tok in ("!", "- ", "<empty>", "#") if tok in text}
        ref = helpers.reference_parse_snapshot(text, alphabet)
        got = parse_snapshot(text, alphabet)
        assert got.carc_masks == frozenset(ref["carc"]) == state.carc_masks
        assert got.processed_masks == tuple(ref["processed"]) == state.processed_masks
        if "pi" in ref:
            assert got.pi_masks == frozenset(ref["pi"]) == state.pi_masks
        else:
            assert got.pi_masks is None is state.pi_masks
    assert saw == {"!", "- ", "<empty>", "#"}


BAD_LINES = [
    "a1 | 3x",
    "a1 & a2",
    "--a1",
    "-",
    "a1 |",
    "| a1",
    "a1 || -a2",
    "  |  ",
    "\t-a1 |  | a1",
    "zz",
    "-a1 | !zz",
    "a1 | <empty>",
    "[weird]",
    "[carc",
]


def _error_of(parse, text, alphabet):
    with pytest.raises(ParseError) as err:
        parse(text, alphabet)
    e = err.value
    return type(e), str(e), e.line, e.column


@pytest.mark.parametrize("bad", BAD_LINES)
def test_mask_reader_raises_like_the_clause_reader(bad):
    rng = random.Random(bad)
    for _ in range(20):
        alphabet, state = _random_state(rng, with_pi=rng.random() < 0.5)
        lines = snapshot_text(state).splitlines()
        lines.insert(rng.randint(1, len(lines)), bad)
        text = "\n".join(lines) + "\n"
        want = _error_of(helpers.reference_parse_snapshot, text, alphabet)
        assert _error_of(parse_snapshot, text, alphabet) == want
        assert want[2] == lines.index(bad) + 1


@pytest.mark.parametrize("bad", [line for line in BAD_LINES if not line.startswith("[")])
@pytest.mark.parametrize("keyword", ["clause", "fact"])
def test_kb_and_snapshot_lines_raise_alike(bad, keyword):
    # one clause-line reader: the same error at the same column of the body
    declarations = "assumption a1 0.5\nassumption a2 0.5\nprop p1\n"
    alphabet = build_kb(parse_kb_text(declarations))[0].alphabet
    with pytest.raises(ParseError) as in_kb:
        parse_kb_text(f"{declarations}{keyword} {bad}\n")
    with pytest.raises(ParseError) as in_snapshot:
        parse_snapshot(f"[carc]\n{bad}\n", alphabet)
    kb_error, snapshot_error = in_kb.value, in_snapshot.value
    assert (kb_error.line, snapshot_error.line) == (4, 2)
    assert type(kb_error) is type(snapshot_error)
    assert kb_error.args == snapshot_error.args
    assert kb_error.column - len(keyword) - 1 == snapshot_error.column


@pytest.mark.parametrize(
    "text",
    [
        "-a1\n[carc]\n",  # clause before any section
        "# comment\n\na1 | -a1\n",
        "[carc]\n-a1\n[unknown]\n",
        "[processed]\n-a1\n",  # missing [carc]
    ],
)
def test_mask_reader_raises_like_the_clause_reader_on_bad_structure(text):
    alphabet, _, _ = helpers.make_alphabet(1, 1)
    want = _error_of(helpers.reference_parse_snapshot, text, alphabet)
    assert _error_of(parse_snapshot, text, alphabet) == want


def test_snapshot_text_matches_the_clause_rendering():
    rng = random.Random(2024)
    for _ in range(150):
        alphabet, state = _random_state(rng, with_pi=rng.random() < 0.7)
        processed = map(alphabet.clause_of, state.processed_masks)
        want = helpers.reference_snapshot_text(state.carc, state.pi, processed)
        assert snapshot_text(state) == want


def test_clause_views_are_the_masks_through_the_alphabet():
    rng = random.Random(1618)
    for _ in range(60):
        alphabet, state = _random_state(rng, with_pi=rng.random() < 0.5)
        state = parse_snapshot(snapshot_text(state), alphabet)
        assert state.carc == frozenset(map(alphabet.clause_of, state.carc_masks))
        if state.pi_masks is None:
            assert state.pi is None
        else:
            assert state.pi == frozenset(map(alphabet.clause_of, state.pi_masks))
        assert state.carc is state.carc  # built once


# --- no literal objects from KB line to fold ----------------------------------


def test_kb_lines_fold_into_snapshots_without_literal_objects(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a Literal was made")

    monkeypatch.setattr("pabr.logic.Literal", refuse)
    kb, _table = build_kb(parse_kb_text(helpers.BURGLAR_TEXT))
    negated = to_cnf(Not(parse_formula("burglary", kb.alphabet)))
    states = []
    for with_pi in (False, True):
        state = compile_clauses(kb.alphabet, kb.sigma_k, with_pi=with_pi)
        path = tmp_path / f"pi{with_pi}.snap"
        write_snapshot(state, path)
        state = read_snapshot(path, kb.alphabet, kb.sigma_k)
        for clause in (*kb.sigma_f, *negated):
            state = extend(state, clause)
        states.append(state)
    monkeypatch.undo()
    # alarm and -burglary leave a2 from `burglary | a2 | -alarm`
    a2 = kb.alphabet.lookup("a2")
    for state in states:
        assert helpers.clause((a2, True)) in state.carc
