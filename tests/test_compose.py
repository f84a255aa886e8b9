import random

import pytest

from dtk import figures
from dtk.compose import (
    coarsest_congruence_probe,
    congruence_counterexample,
    congruence_sample,
    distinguishing_completion_trace,
    fresh_action_context,
    merge,
    merged_pair_system,
)
from dtk.equivalences import EquivVariant, equivalent
from dtk.generators import random_lts
from dtk.linear import DEADLOCK, DIVERGENCE
from dtk.structures import Lts, TAU

DB = EquivVariant.DIVERGENCE_BLIND
DS = EquivVariant.DIVERGENCE_SENSITIVE
ED = EquivVariant.EXPLICIT_DIVERGENCE


def test_merge_deadlocked_with_action():
    l = figures.deadlock_merge_example_lts()
    prod, root = merge(l, "0", l, "a")
    assert root == "0|a"
    assert set(prod.states) == {"0|a", "0|x"}
    assert set(prod.transitions) == {("0|a", "a", "0|x")}


def test_merge_livelocked_with_action():
    l = figures.deadlock_merge_example_lts()
    prod, root = merge(l, "Delta0", l, "a")
    assert set(prod.states) == {"Delta0|a", "Delta0|x"}
    assert set(prod.transitions) == {
        ("Delta0|a", TAU, "Delta0|a"),
        ("Delta0|a", "a", "Delta0|x"),
        ("Delta0|x", TAU, "Delta0|x"),
    }


def test_merge_with_inert_partner_is_isomorphic_embedding():
    l = figures.branching_example_lts()
    partner = Lts(("idle",), (TAU,), ())
    prod, root = merge(l, "s", partner, "idle")
    reachable_states = {f"{u}|idle" for u in l.states}
    assert set(prod.states) == reachable_states
    assert {(u.split("|")[0], a, v.split("|")[0])
            for (u, a, v) in prod.transitions} == set(l.transitions)
    assert root == "s|idle"


def test_merge_rejects_unknown_roots():
    l = figures.deadlock_merge_example_lts()
    with pytest.raises(ValueError):
        merge(l, "nope", l, "a")


def test_merge_transitions_satisfy_two_clause_definition():
    rng = random.Random(61)
    for _ in range(30):
        l1 = random_lts(rng, max_states=4)
        l2 = random_lts(rng, max_states=4)
        s, t = rng.choice(l1.states), rng.choice(l2.states)
        prod, _ = merge(l1, s, l2, t)
        lefts = set(l1.transitions)
        rights = set(l2.transitions)
        for (u, a, v) in prod.transitions:
            (p, q) = u.split("|")
            (p2, q2) = v.split("|")
            left_move = (p, a, p2) in lefts and q == q2
            right_move = (q, a, q2) in rights and p == p2
            assert left_move or right_move
        # conversely every enabled component move appears
        prod_states = {tuple(x.split("|")) for x in prod.states}
        prod_trans = set(prod.transitions)
        for (p, q) in prod_states:
            for (x, a, y) in lefts:
                if x == p:
                    assert (f"{p}|{q}", a, f"{y}|{q}") in prod_trans
            for (x, a, y) in rights:
                if x == q:
                    assert (f"{p}|{q}", a, f"{p}|{y}") in prod_trans


def test_merge_size_bound():
    rng = random.Random(62)
    for _ in range(30):
        l1 = random_lts(rng, max_states=4)
        l2 = random_lts(rng, max_states=4)
        s, t = rng.choice(l1.states), rng.choice(l2.states)
        prod, _ = merge(l1, s, l2, t)
        assert len(prod.states) <= len(l1.states) * len(l2.states)


# --- the counterexample -------------------------------------------------------

def test_counterexample_reproduces_expected_verdicts():
    report = congruence_counterexample()
    assert report.components_ds_equivalent
    assert not report.products_ds_equivalent
    assert report.products_db_equivalent
    assert not report.components_ed_equivalent
    assert report.matches_expected


def test_counterexample_symmetry():
    l = figures.deadlock_merge_example_lts()
    union, a_root, b_root = merged_pair_system(
        l, "Delta0", l, "a", l, "0", l, "a")
    assert not equivalent(union, a_root, b_root, DS)
    assert equivalent(union, a_root, b_root, DB)


def test_distinguishing_trace_is_the_silent_completion():
    dead_traces, live_traces = distinguishing_completion_trace(bound=3)
    live_items = {(t.items, t.end) for t in live_traces}
    dead_items = {(t.items, t.end) for t in dead_traces}
    assert (("*",), DIVERGENCE) in live_items
    assert (("*",), DIVERGENCE) not in dead_items
    assert (("*", "a", "*"), DEADLOCK) in dead_items


# --- sampling -----------------------------------------------------------------

def test_congruence_sample_explicit_divergence():
    report = congruence_sample(ED, trials=200, max_states=5, seed=123)
    assert report.passed == report.trials
    assert report.failures == ()


def test_congruence_sample_divergence_blind():
    report = congruence_sample(DB, trials=200, max_states=5, seed=124)
    assert report.passed == report.trials


def test_congruence_sample_rejects_ds():
    with pytest.raises(ValueError):
        congruence_sample(DS, trials=1, max_states=3, seed=1)


def test_reflexive_pairs_trivially_pass():
    l = figures.branching_example_lts()
    union, a_root, b_root = merged_pair_system(
        l, "s", l, "x", l, "s", l, "x")
    for v in (DB, DS, ED):
        assert equivalent(union, a_root, b_root, v)


# --- coarsest-congruence probe ---------------------------------------------------

def test_probe_on_counterexample_pair():
    l = figures.deadlock_merge_example_lts()
    report = coarsest_congruence_probe(l, "0", "Delta0")
    assert not report.pair_ed_equivalent
    assert not report.fresh_context_ds
    assert report.biconditional_holds


def test_probe_identical_states():
    l = figures.deadlock_merge_example_lts()
    ctx = figures.branching_example_lts()
    report = coarsest_congruence_probe(l, "a", "a", contexts=[(ctx, "s")])
    assert report.pair_ed_equivalent
    assert report.fresh_context_ds
    assert all(report.context_ds_results)


def test_fresh_action_is_globally_fresh():
    l = figures.deadlock_merge_example_lts()
    ctx, root, action = fresh_action_context(l)
    assert action not in l.actions
    assert root in ctx.states


def test_probe_biconditional_random():
    rng = random.Random(63)
    for _ in range(40):
        l = random_lts(rng, max_states=4)
        s = rng.choice(l.states)
        t = rng.choice(l.states)
        report = coarsest_congruence_probe(l, s, t)
        assert report.biconditional_holds


def test_merge_names_each_product_state_once():
    l = random_lts(random.Random(3), max_states=6)
    prod, root = merge(l, l.states[0], l, l.states[-1])
    names = {s: s for s in prod.states}
    assert root is names[root]
    for (u, _, v) in prod.transitions:
        assert u is names[u] and v is names[v]
