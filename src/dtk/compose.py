"""Interleaving merge and the congruence experiment harness.

The merge of two root states is the reachable fragment of the product in
which either component moves independently.  Product states are rendered
``left|right``; the text renderers map ``|`` into the id charset when a
product is written out.
"""

from __future__ import annotations

import random
from collections import deque

# only merge runs on the command line; the experiments below reach the
# other engines through their modules, which load on first use
from . import equivalences, figures, generators, linear
from .structures import (Lts, TAU, Value, _Steps, disjoint_union_lts,
                         fresh_name)


def merge(l1: Lts, s, l2: Lts, t):
    """Reachable interleaving product from the pair (s, t).

    Returns (product LTS, root state id).  Transitions are exactly the
    left moves and the right moves; discovery order is breadth-first, so
    output is deterministic.
    """
    l1.check_state(s)
    l2.check_state(t)
    index1, index2 = l1.index, l2.index
    succ1, succ2 = index1.succ, index2.succ
    actions1, actions2 = index1.actions, index2.actions
    names1, names2 = l1.states, l2.states
    # the search runs on pairs of state ids and feeds the product's index
    # (``_Steps``) as it goes: each product state is named once, when found,
    # and every step is three integers.  A pair ``(p, q)`` is keyed by the
    # one int ``p * len(names2) + q``.  A component's steps are distinct,
    # so the product's are, except that a right self-loop repeats a left
    # one with its action; steps go in unchecked (``append``) until two
    # pairs get one name, which only ids outside the text charset allow
    steps = _Steps(kripke=False)
    action, out = steps.action, steps.succ
    put = steps.append
    width = len(names2)
    start = index1.number[s] * width + index2.number[t]
    root = f"{s}|{t}"
    ids = {start: steps.state(root)}
    queue = deque([start])

    def reach(p, q):
        nonlocal put
        key = p * width + q
        v = ids.get(key)
        if v is None:
            known = len(out)
            v = ids[key] = steps.state(f"{names1[p]}|{names2[q]}")
            if v < known:   # a name taken: its steps may repeat from here on
                put = steps.add
            queue.append(key)
        return v

    # a component's action id -> the product's, given at first occurrence
    act1, act2 = [None] * len(actions1), [None] * len(actions2)
    while queue:
        key = queue.popleft()
        here = ids[key]
        p, q = divmod(key, width)
        for (a, p2) in succ1[p]:
            b = act1[a]
            if b is None:
                b = act1[a] = action(actions1[a])
            v = reach(p2, q)
            put(here, b, v)
        for (a, q2) in succ2[q]:
            b = act2[a]
            if b is None:
                b = act2[a] = action(actions2[a])
            if q2 != q or (b, here) not in out[here]:
                v = reach(p, q2)
                put(here, b, v)
    product = Lts(steps.number, l1.actions + l2.actions, steps)
    return product, root


def merged_pair_system(l1: Lts, s, l2: Lts, t, l3: Lts, s2, l4: Lts, t2):
    """Two merges placed in one LTS so their roots can be compared.

    Returns (union LTS, root of the first merge, root of the second)."""
    left, root_left = merge(l1, s, l2, t)
    right, root_right = merge(l3, s2, l4, t2)
    union, map2 = disjoint_union_lts(left, right)
    return union, root_left, map2[root_right]


class CounterexampleReport(Value):
    """The four verdicts of the deadlock/livelock composition experiment."""

    __match_args__ = ("components_ds_equivalent", "products_ds_equivalent",
                      "products_db_equivalent", "components_ed_equivalent")

    @property
    def matches_expected(self) -> bool:
        return (self.components_ds_equivalent
                and not self.products_ds_equivalent
                and self.products_db_equivalent
                and not self.components_ed_equivalent)


def congruence_counterexample() -> CounterexampleReport:
    """Reproduce the failure of divergence-sensitive equivalence under
    merge: the deadlocked and livelocked components are equivalent, their
    compositions with a visible action are not."""
    l = figures.deadlock_merge_example_lts()
    union, dead_root, live_root = merged_pair_system(
        l, "0", l, "a", l, "Delta0", l, "a")
    equivalent, variant = equivalences.equivalent, equivalences.EquivVariant
    return CounterexampleReport(
        components_ds_equivalent=equivalent(
            l, "0", "Delta0", variant.DIVERGENCE_SENSITIVE),
        products_ds_equivalent=equivalent(
            union, dead_root, live_root, variant.DIVERGENCE_SENSITIVE),
        products_db_equivalent=equivalent(
            union, dead_root, live_root, variant.DIVERGENCE_BLIND),
        components_ed_equivalent=equivalent(
            l, "0", "Delta0", variant.EXPLICIT_DIVERGENCE),
    )


def distinguishing_completion_trace(bound: int = 3):
    """The completion-trace witness behind the counterexample: the
    livelocked product can stay silent forever, the deadlocked one
    cannot.  Returns (traces of deadlocked product, traces of livelocked
    product)."""
    l = figures.deadlock_merge_example_lts()
    dead_prod, dead_root = merge(l, "0", l, "a")
    live_prod, live_root = merge(l, "Delta0", l, "a")
    dead_traces, dead_exact = linear.complete_traces(
        dead_prod, dead_root, "trivial", bound)
    live_traces, live_exact = linear.complete_traces(
        live_prod, live_root, "trivial", bound)
    assert dead_exact and live_exact
    return dead_traces, live_traces


class SampleReport(Value):
    __match_args__ = ("variant", "trials", "passed", "failures", "seed")


def congruence_sample(variant: equivalences.EquivVariant, trials: int,
                      max_states: int, seed: int) -> SampleReport:
    """Random congruence probing: draw equivalent component pairs from
    coarsest partitions and check the merged pairs stay equivalent.

    Meaningful for the divergence-blind and explicit-divergence variants,
    where equivalence is a merge congruence; failures are reported with
    their trial index for reproduction."""
    if variant is equivalences.EquivVariant.DIVERGENCE_SENSITIVE:
        raise ValueError("divergence-sensitive equivalence is not a congruence")
    rng = random.Random(seed)
    failures = []
    passed = 0
    for trial in range(trials):
        l = generators.random_lts(rng, max_states=max_states)
        part = equivalences.coarsest_partition(l, variant)
        pairs = [sorted(b)[:2] for b in part.members() if len(b) >= 2]
        if pairs:
            s, s2 = pairs[rng.randrange(len(pairs))]
        else:
            s = s2 = rng.choice(l.states)
        t = rng.choice(l.states)
        t2_candidates = [u for u in l.states if part.same_block(t, u)]
        t2 = rng.choice(t2_candidates)
        union, left_root, right_root = merged_pair_system(
            l, s, l, t, l, s2, l, t2)
        if equivalences.equivalent(union, left_root, right_root, variant):
            passed += 1
        else:
            failures.append(f"trial {trial}: {s}|{t} vs {s2}|{t2}")
    return SampleReport(variant, trials, passed, tuple(failures), seed)


class ProbeReport(Value):
    __match_args__ = ("pair_ed_equivalent", "context_ds_results",
                      "fresh_action", "fresh_context_ds")

    @property
    def biconditional_holds(self) -> bool:
        return self.pair_ed_equivalent == self.fresh_context_ds


def fresh_action_context(l: Lts):
    """A two-state context performing one globally fresh action and then
    deadlocking."""
    action = fresh_name("fresh", set(l.actions))
    return Lts(("probe", "probe_end"), (TAU, action),
               (("probe", action, "probe_end"),)), "probe", action


def coarsest_congruence_probe(l: Lts, s, t, contexts=()) -> ProbeReport:
    """Probe the coarsest-congruence characterisation.

    Reports whether s and t are explicit-divergence equivalent, whether
    each supplied context preserves divergence-sensitive equivalence of
    the merged pairs, and whether the canonical fresh-action context
    does.  Expected: explicit-divergence equivalence implies all context
    checks pass, and its failure shows up at the fresh-action context.
    """
    equivalent, variant = equivalences.equivalent, equivalences.EquivVariant
    ed = equivalent(l, s, t, variant.EXPLICIT_DIVERGENCE)
    context_results = []
    for (lc, u) in contexts:
        union, left_root, right_root = merged_pair_system(
            l, s, lc, u, l, t, lc, u)
        context_results.append(equivalent(
            union, left_root, right_root, variant.DIVERGENCE_SENSITIVE))
    ctx, root, action = fresh_action_context(l)
    union, left_root, right_root = merged_pair_system(
        l, s, ctx, root, l, t, ctx, root)
    fresh_ds = equivalent(union, left_root, right_root,
                          variant.DIVERGENCE_SENSITIVE)
    return ProbeReport(ed, tuple(context_results), action, fresh_ds)
