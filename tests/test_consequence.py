"""Production fields, produce, incremental carc/pi folds, snapshot files."""

import random
from itertools import combinations, permutations

import pytest

from pabr.consequence import (
    CompiledState,
    ProductionField,
    carc_add,
    compile_clauses,
    extend,
    parse_snapshot,
    pi_add,
    produce,
    read_snapshot,
    snapshot_text,
    write_snapshot,
)
from pabr.errors import ParseError
from pabr.logic import Clause, EMPTY_CLAUSE, Literal, mu_minimize

import helpers


expected_carc = helpers.batch_carc
expected_pi = helpers.batch_pi


# --- fields --------------------------------------------------------------------


def test_field_membership():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    pa = ProductionField.assumption_only(alphabet)
    assert pa.contains(helpers.clause((a1, False), (a2, False)))
    assert not pa.contains(helpers.clause((a1, False), (p, True)))
    assert pa.contains(EMPTY_CLAUSE)
    pn = ProductionField.all_clauses(alphabet)
    assert pn.contains(helpers.clause((a1, False), (p, True)))
    assert pn.contains(EMPTY_CLAUSE)


def test_field_rejects_unknown_kind():
    alphabet, _, _ = helpers.make_alphabet(1, 1)
    with pytest.raises(ValueError):
        ProductionField("anything_goes", alphabet)


def test_seed_clauses():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    pa = ProductionField.assumption_only(alphabet)
    assert pa.seed_clauses() == {
        helpers.clause((a1, True), (a1, False)),
        helpers.clause((a2, True), (a2, False)),
    }
    pn = ProductionField.all_clauses(alphabet)
    assert pn.seed_clauses() == {
        helpers.clause((s, True), (s, False)) for s in (a1, a2, p)
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
            if not field.contains(c):
                continue
            lits = list(c.literals)
            for k in range(len(lits) + 1):
                for sub in combinations(lits, k):
                    assert field.contains(Clause(frozenset(sub)))


# --- produce ---------------------------------------------------------------------


def test_produce_resolves_into_field():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    pa = ProductionField.assumption_only(alphabet)
    sigma = [helpers.clause((a1, False), (p, True))]
    out = produce(sigma, helpers.clause((p, False)), pa)
    assert out == {helpers.clause((a1, False))}


def test_produce_clause_already_in_field():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    pa = ProductionField.assumption_only(alphabet)
    c = helpers.clause((a1, False), (a2, False))
    assert produce([], c, pa) == {c}


def test_produce_mixed_resolvents_filtered_out():
    alphabet = helpers.make_alphabet(1, 0)[0]
    a1 = alphabet.lookup("a1")
    burglary = alphabet.declare("burglary", helpers.PROPOSITION)
    alarm = alphabet.declare("alarm", helpers.PROPOSITION)
    pa = ProductionField.assumption_only(alphabet)
    sigma = [helpers.clause((burglary, False), (a1, False), (alarm, True))]
    assert produce(sigma, helpers.clause((alarm, False)), pa) == frozenset()


def test_produce_contract_against_enumeration():
    rng = random.Random(20260817)
    for _ in range(30):
        kb, _table = helpers.small_random_kb(rng, max_total_syms=6, max_clauses=6)
        alphabet = kb.alphabet
        pa = ProductionField.assumption_only(alphabet)
        clauses = list(kb.sigma_k)
        sigma, last = clauses[:-1], clauses[-1]
        fresh = produce(sigma, last, pa)
        merged = mu_minimize(expected_carc(sigma, alphabet) | fresh)
        assert merged == expected_carc(clauses, alphabet)


# --- incremental characteristic clauses -------------------------------------------


def test_initial_state_is_seeds():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    assert state.carc == {
        helpers.clause((a1, True), (a1, False)),
        helpers.clause((a2, True), (a2, False)),
    }
    assert state.processed == ()
    assert state.pi is None


def test_carc_add_keeps_unrelated_tautologies():
    alphabet, (a1, a2), _ = helpers.make_alphabet(2, 0)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    c = helpers.clause((a1, False), (a2, False))
    state = carc_add(state, c)
    assert state.carc == {
        helpers.clause((a1, True), (a1, False)),
        helpers.clause((a2, True), (a2, False)),
        c,
    }
    assert state.processed == (c,)


def test_carc_add_tautology_is_a_no_op_on_carc():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(alphabet, [helpers.clause((a1, False), (p, True))])
    taut = helpers.clause((p, True), (p, False))
    after = carc_add(state, taut)
    assert after.carc == state.carc
    assert after.processed == state.processed + (taut,)


def test_inconsistent_clauses_collapse_to_empty_clause():
    alphabet, _, (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(
        alphabet, [helpers.clause((p, True)), helpers.clause((p, False))]
    )
    assert state.carc == {EMPTY_CLAUSE}
    assert state.is_plainly_inconsistent


def test_unit_assumption_clause_subsumes_its_seed():
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(
        alphabet, [helpers.clause((a1, False), (p, True)), helpers.clause((p, False))]
    )
    # the derived {-a1} evicts the a1 tautology seed
    assert state.carc == {helpers.clause((a1, False))}


# --- incremental prime implicates ---------------------------------------------


def test_pi_seed_and_unit_add():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    assert state.pi == {helpers.clause((p, True), (p, False))}
    state = pi_add(state, helpers.clause((p, True)))
    assert state.pi == {helpers.clause((p, True))}


def test_pi_chain_propagates_units():
    alphabet, _, (p, q) = helpers.make_alphabet(0, 2)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    state = pi_add(state, helpers.clause((p, True)))
    state = pi_add(state, helpers.clause((p, False), (q, True)))
    assert state.pi == {helpers.clause((p, True)), helpers.clause((q, True))}


def test_pi_contradiction_leaves_only_empty_clause():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet), with_pi=True)
    state = pi_add(state, helpers.clause((p, True)))
    state = pi_add(state, helpers.clause((p, False)))
    assert state.pi == {EMPTY_CLAUSE}


def test_pi_add_requires_pi_tracking():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = CompiledState.initial(ProductionField.assumption_only(alphabet))
    with pytest.raises(ValueError):
        pi_add(state, helpers.clause((p, True)))


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
        assert state.carc == frozenset(c for c in state.pi if c.is_assumption_only)


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
        assert state.processed == carc_only.processed


@pytest.mark.parametrize("with_pi", [False, True])
def test_extend_runs_one_fold_per_clause(monkeypatch, with_pi):
    calls = []

    def counting(sigma, clause, field):
        calls.append(clause)
        return produce(sigma, clause, field)

    monkeypatch.setattr("pabr.consequence.produce", counting)
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(alphabet, [helpers.clause((a1, False), (p, True))], with_pi)
    unit = helpers.clause((p, False))
    state = extend(state, unit)
    state = extend(state, helpers.clause((p, True), (p, False)))
    assert calls == [helpers.clause((a1, False), (p, True)), unit]
    assert len(state.processed) == 3


# --- snapshots -------------------------------------------------------------------


def test_snapshot_round_trip_with_pi(tmp_path):
    alphabet, (a1,), (p,) = helpers.make_alphabet(1, 1)
    state = compile_clauses(
        alphabet,
        [helpers.clause((a1, False), (p, True)), helpers.clause((p, False))],
        with_pi=True,
    )
    path = tmp_path / "kb.snap"
    write_snapshot(state, path)
    assert read_snapshot(path, alphabet) == state


def test_snapshot_round_trip_without_pi():
    alphabet, (a1, a2), (p,) = helpers.make_alphabet(2, 1)
    state = compile_clauses(alphabet, [helpers.clause((a1, False), (p, True))])
    text = snapshot_text(state)
    assert parse_snapshot(text, alphabet) == state
    assert "[pi]" not in text


def test_snapshot_renders_empty_clause_token():
    alphabet, _, (p,) = helpers.make_alphabet(0, 1)
    state = compile_clauses(
        alphabet, [helpers.clause((p, True)), helpers.clause((p, False))]
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
