"""The refinement engine against direct references.

``tests_helpers.bfs_signatures`` computes each state's signature the
naive way, with one breadth-first search of its inert closure per
state, and ``reference_history`` refines with it, recomputing every
state in every round.  Every round of ``refinement_history`` must match
that history, and each round's kernel sets must decode to its
signatures; so must ``check_colouring`` and ``divergent_states`` on
arbitrary colourings.  A round of the engine recomputes only the blocks
a split may have touched, so each of its rounds must also equal a round
that recomputes every state.  The scale test refines a 2000-state LTS
and compares the divergence-blind result with a refinement whose
observation sets are a plain least fixpoint.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtk.compose import merge
from dtk.equivalences import (
    COMPLETES,
    DIVERGES,
    EquivVariant,
    Partition,
    _block_kernels,
    _partition,
    check_colouring,
    coarsest_partition,
    divergent_states,
    equivalent,
    meet,
    refinement_history,
)
from dtk.linear import complete_traces
from dtk.logic import Semantics, distinguish, parse_formula, sat
from dtk.structures import KripkeStructure, Lts, TAU
from tests_helpers import bfs_signatures, reference_history

DB = EquivVariant.DIVERGENCE_BLIND
DS = EquivVariant.DIVERGENCE_SENSITIVE
ED = EquivVariant.EXPLICIT_DIVERGENCE


@st.composite
def inert_graphs(draw, kind):
    """About 40 states with silent cycles, self-loops and deadlocks."""
    n = draw(st.integers(30, 45))
    states = tuple(f"s{i}" for i in range(n))
    near = st.integers(-4, 4)   # short hops make cycles likely
    transitions = []
    for i, s in enumerate(states):
        shape = draw(st.sampled_from(("dead", "loop", "step", "step")))
        if shape == "dead":
            continue
        if shape == "loop":
            transitions.append((s, TAU, s))
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.sampled_from((TAU, TAU, "a", "b")))
            transitions.append((s, a, states[(i + draw(near)) % n]))
    if kind == "lts":
        return Lts(states, (TAU,), tuple(transitions))
    labelling = {s: draw(st.sampled_from((frozenset(), frozenset({"p"}))))
                 for s in states}
    return KripkeStructure(states, labelling,
                           tuple((u, v) for (u, _, v) in transitions))


def _decoded_signatures(g, part, variant):
    """Every state's kernel set over ``part``, decoded into the shape of
    ``bfs_signatures``."""
    actions = g.index.actions
    width = len(actions)
    return {g.states[u]: (frozenset((actions[c % width], c // width)
                                    for c in obs if c >= 0),
                          DIVERGES in obs if variant is ED else None,
                          COMPLETES in obs if variant is DS else None)
            for records in _block_kernels(g, part, variant)
            for u, obs in records.items()}


@settings(max_examples=40, deadline=None)
@given(st.one_of(inert_graphs("lts"), inert_graphs("ks")),
       st.sampled_from(list(EquivVariant)))
def test_every_round_matches_per_state_bfs(g, variant):
    rounds = [_partition(g.states, block)
              for block in refinement_history(g, variant)]
    expected = reference_history(g, variant)
    assert rounds == [p for (p, _) in expected]
    for before, (_, ref) in zip(rounds, expected[1:]):
        assert _decoded_signatures(g, before, variant) == ref


@settings(max_examples=40, deadline=None)
@given(inert_graphs("lts"))
def test_divergent_states_match_per_state_bfs(l):
    p = coarsest_partition(l, DB)
    ref = bfs_signatures(l, p, ED)
    assert divergent_states(l, p) == {s for s in l.states if ref[s][1]}


@settings(max_examples=60, deadline=None)
@given(st.one_of(inert_graphs("lts"), inert_graphs("ks")), st.data())
def test_arbitrary_colourings_match_per_state_bfs(g, data):
    # one to four blocks drawn at random, not a refinement round: they
    # often split an inert cycle, so a state's divergence depends on the
    # colouring and not only on the graph; beside them the coarsest
    # divergence-blind colouring, which the other variants accept only
    # where the marker agrees
    n = len(g.states)
    k = data.draw(st.integers(1, 4))
    drawn = _partition(g.states, data.draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    for p in (drawn, coarsest_partition(g, DB)):
        labelled = (not isinstance(g, KripkeStructure)
                    or len({(p.block_of[s], g.labelling[s])
                            for s in g.states}) == len(p))
        for variant in EquivVariant:
            ref = bfs_signatures(g, p, variant)
            uniform = len({(p.block_of[s], ref[s])
                           for s in g.states}) == len(p)
            assert check_colouring(g, p, variant) == (labelled and uniform)
        ref = bfs_signatures(g, p, ED)
        assert divergent_states(g, p) == {s for s in g.states if ref[s][1]}


@st.composite
def late_split_graphs(draw, kind):
    """A visible chain of 5-10 steps, which splits one block per round
    from its deadlocked end, beside a random part of mostly silent steps
    with cycles, self-loops and deadlocks that may step into the chain.
    The chain alternates two actions (two labels on a Kripke structure),
    so a round's split often lands in a block the previous round left
    whole."""
    k = draw(st.integers(5, 10))
    chain = [f"c{i}" for i in range(k + 1)]
    m = draw(st.integers(8, 20))
    rest = [f"r{i}" for i in range(m)]
    transitions = [(chain[i], "ab"[i % 2], chain[i + 1]) for i in range(k)]
    near = st.integers(-3, 3)
    for i, s in enumerate(rest):
        shape = draw(st.sampled_from(("dead", "loop", "step", "step")))
        if shape == "dead":
            continue
        if shape == "loop":
            transitions.append((s, TAU, s))
        for _ in range(draw(st.integers(1, 2))):
            a = draw(st.sampled_from((TAU, TAU, TAU, "a")))
            transitions.append((s, a, rest[(i + draw(near)) % m]))
        if draw(st.booleans()):
            transitions.append((s, draw(st.sampled_from((TAU, "a", "b"))),
                                draw(st.sampled_from(chain))))
    states = tuple(chain + rest)
    if kind == "lts":
        return Lts(states, (TAU,), tuple(transitions))
    labelling = {s: frozenset("pq"[i % 2]) for i, s in enumerate(chain)}
    for s in rest:
        labelling[s] = draw(st.sampled_from(
            (frozenset(), frozenset("p"), frozenset("q"))))
    return KripkeStructure(states, labelling,
                           tuple((u, v) for (u, _, v) in transitions))


@settings(max_examples=60, deadline=None)
@given(st.one_of(late_split_graphs("lts"), late_split_graphs("ks")),
       st.sampled_from(list(EquivVariant)))
def test_marked_rounds_match_full_rounds(g, variant):
    rounds = [_partition(g.states, block)
              for block in refinement_history(g, variant)]
    assert rounds == [p for (p, _) in reference_history(g, variant)]
    assert coarsest_partition(g, variant) == rounds[-1]


def _fixpoint_refinement(l):
    """Divergence-blind refinement of an LTS whose observation sets are
    the least solution of obs(s) = own(s) | obs(t) over inert s -> t,
    found by sweeping all states until nothing changes."""
    index = {s: i for i, s in enumerate(l.states)}
    steps = [[] for _ in l.states]
    for (u, a, v) in l.transitions:
        steps[index[u]].append((a == TAU, a, index[v]))
    block = [0] * len(steps)
    while True:
        bits = {}
        own = [0] * len(steps)
        inert = [[] for _ in steps]
        for u, out in enumerate(steps):
            for (silent, a, v) in out:
                if silent and block[v] == block[u]:
                    inert[u].append(v)
                else:
                    own[u] |= 1 << bits.setdefault((a, block[v]), len(bits))
        obs = list(own)
        changed = True
        while changed:
            changed = False
            for u in range(len(steps)):
                new = obs[u]
                for v in inert[u]:
                    new |= obs[v]
                if new != obs[u]:
                    obs[u] = new
                    changed = True
        ids = {}
        new_block = [ids.setdefault((block[u], obs[u]), len(ids))
                     for u in range(len(steps))]
        if len(ids) == len(set(block)):
            groups = {}
            for s in l.states:
                groups.setdefault(block[index[s]], []).append(s)
            return Partition.from_blocks(groups.values(), l.states)
        block = new_block


def test_refinement_scales_to_2000_states():
    # three out-edges per state, half of them silent: the random tau-graph
    # has a large strongly connected component that stays one block, so a
    # per-state closure costs O(n) for most states in every round
    rng = random.Random(7)
    states = tuple(f"s{i}" for i in range(2000))
    trans = tuple((u, TAU if rng.random() < 0.5 else rng.choice("ab"),
                   rng.choice(states)) for u in states for _ in range(3))
    l = Lts(states, (TAU,), trans)
    db, ds, ed = (coarsest_partition(l, v) for v in (DB, DS, ED))
    assert meet(ed, ds) == ed
    assert meet(ds, db) == ds
    assert db == _fixpoint_refinement(l)
    assert len(db) < len(states)


def _fresh_structures():
    """A new LTS and a new Kripke structure, so that nothing is cached."""
    return (Lts(("a", "b", "c"), (TAU,),
                (("a", TAU, "b"), ("b", TAU, "a"), ("b", "x", "c"))),
            KripkeStructure(("a", "b", "c"), {"a": {"p"}, "b": {"p"}},
                            (("a", "b"), ("b", "a"), ("b", "c"))))


BOTH = (Lts, KripkeStructure)


@pytest.mark.parametrize("use, kinds", [
    (lambda g: coarsest_partition(g, ED), BOTH),
    (lambda g: refinement_history(g, DS), BOTH),
    (lambda g: check_colouring(g, _partition(g.states, [0, 0, 1]), DS), BOTH),
    (lambda g: divergent_states(g, _partition(g.states, [0, 0, 1])), BOTH),
    (lambda g: equivalent(g, "a", "b", DB), BOTH),
    (lambda g: sat(g, parse_formula("EG p & E (p U ~p)"),
                   Semantics.MAXIMAL_PATH), (KripkeStructure,)),
    (lambda g: [distinguish(g, "a", t, DS) for t in "bc"],
     (KripkeStructure,)),
    (lambda g: merge(g, "a", g, "c"), (Lts,)),
    (lambda g: complete_traces(g, "a", "trivial", 3), BOTH),
], ids=["coarsest", "history", "check_colouring", "divergent", "equivalent",
        "sat", "distinguish", "merge", "complete_traces"])
def test_every_engine_reuses_the_one_cached_index(use, kinds):
    """Every use finds the one ``g.index``, built with the structure,
    and nothing else is cached on the structure."""
    for g in _fresh_structures():
        if not isinstance(g, kinds):
            continue
        fields = set(g.__dict__)
        use(g)
        index = g.__dict__["index"]     # built with the structure
        use(g)
        assert g.index is index
        assert set(g.__dict__) == fields | {"index"}
