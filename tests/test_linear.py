import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtk import figures
from dtk.compose import merge
from dtk.equivalences import (
    EquivVariant,
    coarsest_partition_lts,
)
from dtk.generators import random_acyclic_lts, random_ks
from dtk.linear import (
    DEADLOCK,
    DIVERGENCE,
    LASSO,
    OPEN,
    PREFIX,
    ColouredTrace,
    PInfinity,
    PNot,
    PProp,
    PUntil,
    P_TRUE,
    TraceVariant,
    _canonical_lasso,
    coloured_traces,
    complete_traces,
    distinguish_ltl,
    eval_path_formula,
    interleave_trace_sets,
    maximal_path_representatives,
    prefix_closure,
    trace_actions,
    trace_equiv,
    trace_from_actions,
)
from dtk.structures import KripkeStructure, Lts, Path, TAU
from tests_helpers import (
    every_colouring,
    path_search_traces,
    random_lasso_ks,
    random_path_formula,
    trace_graphs,
)


def lts_traces(l, s, bound=6):
    return complete_traces(l, s, "trivial", bound)


# --- complete trace enumeration ---------------------------------------------

def test_livelocked_product_traces():
    l = figures.deadlock_merge_example_lts()
    prod, root = merge(l, "Delta0", l, "a")
    traces, exhausted = complete_traces(prod, root, "trivial", 3)
    assert exhausted
    assert {(t.items, t.end) for t in traces} == {
        (("*",), DIVERGENCE),
        (("*", "a", "*"), DIVERGENCE),
    }


def test_deadlocked_product_traces():
    l = figures.deadlock_merge_example_lts()
    prod, root = merge(l, "0", l, "a")
    traces, exhausted = complete_traces(prod, root, "trivial", 4)
    assert exhausted
    assert {(t.items, t.end) for t in traces} == {
        (("*", "a", "*"), DEADLOCK),
    }


def test_single_deadlocked_state_trace():
    l = Lts(("only",), (TAU,), ())
    traces, exhausted = lts_traces(l, "only")
    assert exhausted
    assert {(t.items, t.end) for t in traces} == {(("*",), DEADLOCK)}


def test_visible_cycle_yields_lasso_and_truncation():
    l = Lts(("a",), (TAU, "x"), (("a", "x", "a"),))
    traces, exhausted = complete_traces(l, "a", "trivial", 3)
    assert not exhausted
    ends = {t.end for t in traces}
    assert LASSO in ends and OPEN in ends
    lasso = next(t for t in traces if t.end == LASSO)
    assert lasso.items == ("*",)
    assert lasso.cycle == ("x", "*")


def test_lasso_canonicalisation_deduplicates_unrollings():
    l = Lts(("a", "b"), (TAU, "x"), (("a", "x", "b"), ("b", "x", "a")))
    traces, _ = complete_traces(l, "a", "trivial", 6)
    lassos = [t for t in traces if t.end == LASSO]
    assert len(lassos) == 1
    assert lassos[0].items == ("*",)
    assert lassos[0].cycle == ("x", "*")


def _word_prefix(stem, cycle, n):
    """The first ``n`` letters of ``stem`` followed by ``cycle`` forever."""
    word = list(stem)
    while len(word) < n:
        word.extend(cycle)
    return tuple(word[:n])


def _same_word(a, b):
    """Two lassos spell one word iff they agree past both stems for a
    common multiple of both cycle lengths."""
    (s1, c1), (s2, c2) = a, b
    n = max(len(s1), len(s2)) + len(c1) * len(c2)
    return _word_prefix(s1, c1, n) == _word_prefix(s2, c2, n)


LASSOS = st.tuples(st.lists(st.integers(0, 1), max_size=4).map(tuple),
                   st.lists(st.integers(0, 1), min_size=1,
                            max_size=5).map(tuple))


@settings(max_examples=300, deadline=None)
@given(LASSOS, LASSOS, st.integers(0, 2), st.integers(0, 4),
       st.integers(1, 3))
def test_canonical_lasso_matches_brute_force(lasso, other, unroll, cut,
                                             repeat):
    stem, cycle = lasso
    form = _canonical_lasso(stem, cycle)
    assert _same_word(form, lasso)
    # every lasso of the word splits it after some stem of length k into a
    # cycle of length q; the canonical form has the least k, then the
    # least q
    word = _word_prefix(stem, cycle, len(stem) + len(cycle))
    k, q = min((k, q) for k in range(len(stem) + 1)
               for q in range(1, len(cycle) + 1)
               if _same_word((word[:k], word[k:k + q]), lasso))
    assert form == (word[:k], word[k:k + q])
    assert not any(len(form[1]) % d == 0
                   and form[1] == form[1][:d] * (len(form[1]) // d)
                   for d in range(1, len(form[1])))
    # an unrolled, rotated and repeated spelling of the word
    r = cut % len(cycle)
    rotated = (stem + cycle * unroll + cycle[:r],
               (cycle[r:] + cycle[:r]) * repeat)
    assert _canonical_lasso(*rotated) == form
    assert (_canonical_lasso(*other) == form) == _same_word(other, lasso)


def test_ks_traces_use_label_colours():
    k = figures.stuttering_example_ks()
    traces, exhausted = complete_traces(k, "t", "labelling", 4)
    assert exhausted
    assert {(t.items, t.end) for t in traces} == {
        ((frozenset({"p"}),), DIVERGENCE),
        ((frozenset({"p"}), frozenset({"q"})), DEADLOCK),
    }


def test_partition_colouring_traces():
    l = figures.branching_example_lts()
    part = coarsest_partition_lts(l, EquivVariant.DIVERGENCE_BLIND)
    traces, exhausted = complete_traces(l, "s", part, 4)
    assert exhausted
    b0 = part.block_of["s"]
    b1 = part.block_of["x"]
    assert {(t.items, t.end) for t in traces} == {
        ((b0,), DIVERGENCE),
        ((b0, "a", b1), DEADLOCK),
        ((b0, "a", b1), DIVERGENCE),
    }


def test_bound_must_be_positive():
    l = Lts(("a",), (TAU,), ())
    with pytest.raises(ValueError):
        complete_traces(l, "a", "trivial", 0)


def test_unknown_state_is_a_value_error():
    l = Lts(("a",), (TAU,), ())
    for search in (complete_traces, coloured_traces):
        with pytest.raises(ValueError, match="unknown state 'nope'"):
            search(l, "nope", "trivial", 3)
    k = KripkeStructure(("a",), {}, ())
    with pytest.raises(ValueError, match="unknown state 'nope'"):
        maximal_path_representatives(k, "nope")


# --- the search against a plain path search ---------------------------------

@settings(max_examples=300, deadline=None)
@given(trace_graphs(), st.data())
def test_complete_traces_match_path_search(g, data):
    s = data.draw(st.sampled_from(g.states))
    bound = data.draw(st.integers(1, 5))
    for colouring in every_colouring(g):
        assert (complete_traces(g, s, colouring, bound)
                == path_search_traces(g, s, colouring, bound))


# --- prefix property and completeness characterisation ------------------------

def test_traces_are_prefixes_of_complete_traces():
    rng = random.Random(71)
    for _ in range(40):
        l = random_acyclic_lts(rng, max_states=4)
        part = coarsest_partition_lts(l, EquivVariant.EXPLICIT_DIVERGENCE)
        for s in l.states:
            full, exhausted = complete_traces(l, s, part, 8)
            assert exhausted
            prefixes = set()
            for t in full:
                steps = t.items
                # prefixes on step boundaries: (c0), (c0,a1,c1), ...
                for i in range(1, len(steps) + 1, 2):
                    prefixes.add(steps[:i])
            assert coloured_traces(l, s, part, 8) == prefixes


def test_complete_traces_are_the_nonextendable_divergent_or_infinite():
    rng = random.Random(72)
    for _ in range(40):
        l = random_acyclic_lts(rng, max_states=4)
        part = coarsest_partition_lts(l, EquivVariant.EXPLICIT_DIVERGENCE)
        for s in l.states:
            full, exhausted = complete_traces(l, s, part, 8)
            assert exhausted
            all_items = coloured_traces(l, s, part, 8)
            complete_items = {t.items for t in full}
            divergent = {t.items for t in full if t.end == DIVERGENCE}
            nonextendable = {
                items for items in all_items
                if not any(other != items and other[:len(items)] == items
                           for other in all_items)
            }
            assert complete_items == divergent | nonextendable


# --- trace equivalences -----------------------------------------------------

def test_trace_equiv_on_merge_example_components():
    l = figures.deadlock_merge_example_lts()
    verdict = trace_equiv(l, "0", "Delta0", TraceVariant.COMPLETE)
    assert verdict.equal and verdict.exact

    verdict = trace_equiv(l, "0", "Delta0", TraceVariant.WITH_DEADLOCK)
    assert not verdict.equal
    state, witness = verdict.witness
    assert state in ("0", "Delta0")

    assert trace_equiv(l, "0", "0", TraceVariant.WITH_DEADLOCK).equal


def test_trace_equiv_products_differ_at_plain_level():
    l = figures.deadlock_merge_example_lts()
    dead_prod, dead_root = merge(l, "0", l, "a")
    live_prod, live_root = merge(l, "Delta0", l, "a")
    from dtk.structures import disjoint_union_lts
    union, m2 = disjoint_union_lts(dead_prod, live_prod)
    verdict = trace_equiv(union, dead_root, m2[live_root],
                          TraceVariant.COMPLETE)
    assert not verdict.equal
    assert verdict.exact


def test_trace_equiv_divergence_variant():
    l = Lts(("a", "b"), (TAU,), (("a", TAU, "a"),))
    # both have the empty completion; only a diverges
    assert trace_equiv(l, "a", "b", TraceVariant.COMPLETE).equal
    assert not trace_equiv(l, "a", "b", TraceVariant.WITH_DIVERGENCE).equal


def test_bisimulation_hierarchy_implies_trace_equalities():
    rng = random.Random(73)
    for _ in range(30):
        l = random_acyclic_lts(rng, max_states=4)
        ds = coarsest_partition_lts(l, EquivVariant.DIVERGENCE_SENSITIVE)
        ed = coarsest_partition_lts(l, EquivVariant.EXPLICIT_DIVERGENCE)
        for s, t in itertools.combinations(l.states, 2):
            if ds.same_block(s, t):
                assert trace_equiv(l, s, t, TraceVariant.COMPLETE).equal
            if ed.same_block(s, t):
                assert trace_equiv(l, s, t, TraceVariant.WITH_DIVERGENCE).equal
                assert trace_equiv(l, s, t, TraceVariant.WITH_DEADLOCK).equal


# --- path formulas ------------------------------------------------------------

def _chain_ks():
    return KripkeStructure(
        ("a", "b", "c"),
        {"a": {"p"}, "b": {"p"}, "c": {"q"}},
        (("a", "b"), ("b", "c")),
    )


def test_infinity_false_on_finite_maximal_path():
    k = _chain_ks()
    path = Path("finite", ("a", "b", "c"))
    assert not eval_path_formula(k, PInfinity(), path)


def test_until_on_finite_path():
    k = _chain_ks()
    path = Path("finite", ("a", "b", "c"))
    assert eval_path_formula(k, PUntil(PProp("p"), PProp("q")), path)
    # q never holds before the q-state is reached through p-states only
    assert not eval_path_formula(k, PUntil(PProp("q"), PProp("q")), path)
    assert not eval_path_formula(k, PUntil(P_TRUE, PProp("r")), path)


def test_infinity_true_on_lasso():
    k = KripkeStructure(("a",), {"a": {"p"}}, (("a", "a"),))
    path = Path("lasso", ("a",), ("a",))
    assert eval_path_formula(k, PInfinity(), path)
    assert eval_path_formula(k, PUntil(P_TRUE, PProp("p")), path)


def test_deeply_nested_path_formula():
    k = KripkeStructure(("a", "b"), {"a": {"p"}, "b": set()},
                        (("a", "b"), ("b", "a")))
    path = Path("lasso", ("a",), ("b", "a"))
    psi = PUntil(P_TRUE, PNot(PProp("p")))
    for _ in range(3000):
        psi = PNot(psi)
    assert eval_path_formula(k, psi, path)
    assert not eval_path_formula(k, PNot(psi), path)


def test_eval_rejects_non_maximal_paths():
    k = _chain_ks()
    with pytest.raises(ValueError):
        eval_path_formula(k, P_TRUE, Path("finite", ("a", "b")))
    with pytest.raises(ValueError):
        eval_path_formula(k, P_TRUE, Path("finite", ("a", "c")))


def test_stuttering_invariance_of_path_formulas():
    rng = random.Random(74)
    for _ in range(500):
        k, path = random_lasso_ks(rng)
        psi = random_path_formula(rng, ["p", "q"], rng.randint(1, 3))
        before = eval_path_formula(k, psi, path)
        # duplicating a stem state stutters the path without changing
        # its contraction
        i = rng.randrange(len(path.stem))
        dup = path.stem[:i] + (path.stem[i],) + path.stem[i:]
        k2 = KripkeStructure(
            k.states, dict(k.labelling),
            tuple(k.transitions) + ((path.stem[i], path.stem[i]),))
        after = eval_path_formula(k2, psi, Path("lasso", dup, path.cycle))
        assert before == after


# --- representatives ----------------------------------------------------------

def test_representatives_cover_stuttering_example():
    k = figures.stuttering_example_ks()
    reps = maximal_path_representatives(k, "t")
    kinds = {(p.kind, p.stem, p.cycle) for p in reps}
    assert ("lasso", ("t",), ("t",)) in kinds
    assert ("finite", ("t", "x"), ()) in kinds


def test_representatives_are_valid_maximal_paths():
    from dtk.structures import path_is_maximal, path_is_valid
    rng = random.Random(75)
    for _ in range(30):
        k = random_ks(rng, max_states=5)
        for s in k.states:
            for p in maximal_path_representatives(k, s):
                assert path_is_valid(k, p)
                assert path_is_maximal(k, p)


def test_representatives_of_a_long_chain():
    n = 3000
    states = tuple(f"k{i}" for i in range(n))
    k = KripkeStructure(states, {s: frozenset() for s in states},
                        tuple(zip(states, states[1:])))
    assert maximal_path_representatives(k, "k0") == [Path("finite", states)]


# --- linear distinguishing formulas ---------------------------------------------

def test_distinguish_ltl_deadlock_vs_livelock_needs_infinity():
    k = figures.deadlock_livelock_ks()
    assert distinguish_ltl(k, "d", "l", with_infinity=False) is None
    witness = distinguish_ltl(k, "d", "l", with_infinity=True)
    assert witness is not None
    assert witness.formula in (PInfinity(), PNot(PInfinity()))


_WITNESS_SCRIPT = """
import random
from dtk.generators import random_ks
from dtk.linear import distinguish_ltl
for seed in range(40):
    k = random_ks(random.Random(seed), max_states=5)
    for s in k.states:
        for t in k.states:
            for flag in (False, True):
                w = distinguish_ltl(k, s, t, flag, 5)
                if w is not None:
                    print(seed, s, t, flag, repr(w.formula))
"""


def test_distinguish_ltl_does_not_depend_on_hash_values():
    # taken in set order, the conjuncts differ at seeds 17 and 29
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    runs = [subprocess.Popen(
        [sys.executable, "-c", _WITNESS_SCRIPT], stdout=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=h))
        for h in ("0", "1")]
    outs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outs[0].count("\n") > 100
    assert outs[0] == outs[1]


def test_distinguish_ltl_same_state_is_none():
    k = figures.stuttering_example_ks()
    for flag in (False, True):
        assert distinguish_ltl(k, "t", "t", flag) is None


def test_distinguish_ltl_on_stuttering_example():
    k = figures.stuttering_example_ks()
    witness = distinguish_ltl(k, "t", "u", with_infinity=False)
    assert witness is not None
    assert {witness.holds_from, witness.fails_from} == {"t", "u"}
    holds = maximal_path_representatives(k, witness.holds_from)
    fails = maximal_path_representatives(k, witness.fails_from)
    assert all(eval_path_formula(k, witness.formula, p) for p in holds)
    assert any(not eval_path_formula(k, witness.formula, p) for p in fails)


def test_distinguish_ltl_random_verified():
    rng = random.Random(76)
    found = 0
    for _ in range(40):
        k = random_ks(rng, max_states=4)
        for s, t in itertools.combinations(k.states, 2):
            witness = distinguish_ltl(k, s, t, with_infinity=True, bound=6)
            if witness is None:
                continue
            found += 1
            holds = maximal_path_representatives(k, witness.holds_from)
            fails = maximal_path_representatives(k, witness.fails_from)
            assert all(eval_path_formula(k, witness.formula, p) for p in holds)
            assert any(not eval_path_formula(k, witness.formula, p)
                       for p in fails)
    assert found >= 30


# --- interleaving algebra --------------------------------------------------------

def test_two_singleton_shuffle():
    got = interleave_trace_sets({("a",)}, {("b",)})
    assert {trace_actions(t) for t in got} == {("a", "b"), ("b", "a")}
    assert all(t.end == PREFIX for t in got)


def test_divergence_absorbs_finite_prefix():
    diverging = {ColouredTrace(("*",), DIVERGENCE)}
    action = {trace_from_actions(("a",))}
    got = interleave_trace_sets(diverging, action)
    assert got == {ColouredTrace(("*", "a", "*"), DIVERGENCE)}


def test_deadlock_marker_combination():
    a = {ColouredTrace(("*", "a", "*"), DEADLOCK)}
    b = {ColouredTrace(("*",), DEADLOCK)}
    got = interleave_trace_sets(a, b)
    assert got == {ColouredTrace(("*", "a", "*"), DEADLOCK)}


def test_long_word_shuffle():
    got = interleave_trace_sets({("a",) * 2000}, {("b",)})
    assert len(got) == 2001
    assert {trace_actions(t).index("b") for t in got} == set(range(2001))


def test_interleave_rejects_lassos():
    lasso = ColouredTrace(("*",), LASSO, ("a", "*"))
    with pytest.raises(ValueError):
        interleave_trace_sets({lasso}, {("a",)})


def _merge_equation_sides(l1, s, l2, t, bound=10):
    prod, root = merge(l1, s, l2, t)
    left_traces, ok = complete_traces(prod, root, "trivial", bound)
    assert ok
    a_traces, ok_a = complete_traces(l1, s, "trivial", bound)
    b_traces, ok_b = complete_traces(l2, t, "trivial", bound)
    assert ok_a and ok_b
    return left_traces, a_traces, b_traces


def test_merge_trace_equations_on_example():
    l = figures.deadlock_merge_example_lts()
    prod_traces, a_traces, b_traces = _merge_equation_sides(l, "0", l, "a")
    completions = {t for t in prod_traces if t.end in (DEADLOCK, DIVERGENCE)}
    rhs = interleave_trace_sets(a_traces, b_traces)
    divergent_rhs = (
        interleave_trace_sets(
            {t for t in a_traces if t.end == DIVERGENCE},
            prefix_closure(b_traces))
        | interleave_trace_sets(
            prefix_closure(a_traces),
            {t for t in b_traces if t.end == DIVERGENCE}))
    assert completions == rhs | divergent_rhs


def test_merge_trace_equations_random_exhaustive():
    rng = random.Random(77)
    for _ in range(50):
        l1 = random_acyclic_lts(rng, max_states=3)
        l2 = random_acyclic_lts(rng, max_states=3)
        s, t = l1.states[0], l2.states[0]
        prod_traces, a_traces, b_traces = _merge_equation_sides(l1, s, l2, t)

        # completion traces: T-lambda equation
        lhs_complete = {tr for tr in prod_traces
                        if tr.end in (DEADLOCK, DIVERGENCE)}
        lamlam = interleave_trace_sets(a_traces, b_traces)
        a_div = {tr for tr in a_traces if tr.end == DIVERGENCE}
        b_div = {tr for tr in b_traces if tr.end == DIVERGENCE}
        div_part = (interleave_trace_sets(a_div, prefix_closure(b_traces))
                    | interleave_trace_sets(prefix_closure(a_traces), b_div))
        assert lhs_complete == lamlam | div_part

        # divergent traces: T-Delta equation
        lhs_div = {tr.items for tr in prod_traces if tr.end == DIVERGENCE}
        assert lhs_div == {tr.items for tr in div_part
                           if tr.end == DIVERGENCE}

        # plain traces: prefix sets interleave
        lhs_all = {trace_actions(tr) for tr in prefix_closure(prod_traces)}
        rhs_all = {trace_actions(tr) for tr in interleave_trace_sets(
            prefix_closure(a_traces), prefix_closure(b_traces))}
        assert lhs_all == rhs_all


def test_label_trace_agreement_on_consistent_l2ts():
    # states of a consistent doubly labelled system have equal label
    # traces iff they have equal labels and equal action traces
    from dtk.structures import associated_ks, associated_lts
    from dtk.transforms import ks_to_l2ts
    rng = random.Random(78)
    for _ in range(30):
        base = random_ks(rng, max_states=4, edge_bias=0.25)
        d = ks_to_l2ts(base)
        ks, lts = associated_ks(d), associated_lts(d)
        for s, t in itertools.combinations(d.states, 2):
            for level in (TraceVariant.COMPLETE, TraceVariant.WITH_DEADLOCK):
                ks_verdict = trace_equiv(ks, s, t, level, bound=8)
                lts_verdict = trace_equiv(lts, s, t, level, bound=8)
                if not (ks_verdict.exact and lts_verdict.exact):
                    continue
                same_labels = d.labelling[s] == d.labelling[t]
                assert ks_verdict.equal == (same_labels and lts_verdict.equal)


def _clone_state(l, s):
    """Add a fresh state with the same outgoing transitions as ``s``;
    the clone has the same trace sets by construction."""
    clone = s + "_clone"
    states = tuple(l.states) + (clone,)
    trans = tuple(l.transitions) + tuple(
        (clone, a, v) for (u, a, v) in l.transitions if u == s)
    return Lts(states, l.actions, trans), clone


def test_divergence_trace_equivalence_preserved_by_merge():
    from dtk.structures import disjoint_union_lts
    rng = random.Random(79)
    for _ in range(30):
        l = random_acyclic_lts(rng, max_states=3)
        s = rng.choice(l.states)
        l2, clone = _clone_state(l, s)
        assert trace_equiv(l2, s, clone, TraceVariant.WITH_DIVERGENCE).equal
        t = rng.choice(l2.states)
        prod_a, root_a = merge(l2, s, l2, t)
        prod_b, root_b = merge(l2, clone, l2, t)
        union, m2 = disjoint_union_lts(prod_a, prod_b)
        verdict = trace_equiv(union, root_a, m2[root_b],
                              TraceVariant.WITH_DIVERGENCE)
        assert verdict.equal


def test_divergence_trace_coarsest_congruence_probe():
    # equality with explicit divergence coincides with plain trace
    # equality of the compositions with a fresh-action context
    from dtk.compose import fresh_action_context
    from dtk.structures import disjoint_union_lts
    rng = random.Random(80)
    for _ in range(40):
        l = random_acyclic_lts(rng, max_states=3)
        s, t = rng.choice(l.states), rng.choice(l.states)
        direct = trace_equiv(l, s, t, TraceVariant.WITH_DIVERGENCE)
        ctx, root, _ = fresh_action_context(l)
        prod_a, root_a = merge(l, s, ctx, root)
        prod_b, root_b = merge(l, t, ctx, root)
        union, m2 = disjoint_union_lts(prod_a, prod_b)
        probed = trace_equiv(union, root_a, m2[root_b], TraceVariant.COMPLETE)
        assert direct.exact and probed.exact
        assert direct.equal == probed.equal
