import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtk import equivalences, figures
from dtk.equivalences import (
    COMPLETES,
    DIVERGES,
    EquivVariant,
    _block_signatures,
    _partition,
    _set_partitions,
    Partition,
    check_colouring,
    coarsest_partition_ks,
    coarsest_partition_lts,
    divergent_states,
    equivalent,
    join,
    meet,
    oracle_coarsest_partition,
    refinement_history,
)
from dtk.generators import random_ks, random_lts
from dtk.structures import DoublyLabelledTS, KripkeStructure, Lts, TAU

DB = EquivVariant.DIVERGENCE_BLIND
DS = EquivVariant.DIVERGENCE_SENSITIVE
ED = EquivVariant.EXPLICIT_DIVERGENCE

ALL_VARIANTS = (DB, DS, ED)


def blocks_of(p):
    return {frozenset(b) for b in p.blocks}


# --- the worked LTS example ------------------------------------------------

def test_branching_example_divergence_blind():
    p = coarsest_partition_lts(figures.branching_example_lts(), DB)
    assert blocks_of(p) == {frozenset("stuv"), frozenset("xyz")}


def test_branching_example_divergence_sensitive():
    p = coarsest_partition_lts(figures.branching_example_lts(), DS)
    assert blocks_of(p) == {
        frozenset("s"), frozenset("t"), frozenset("uv"), frozenset("xyz")}


def test_branching_example_explicit_divergence():
    p = coarsest_partition_lts(figures.branching_example_lts(), ED)
    assert blocks_of(p) == {
        frozenset("s"), frozenset("t"), frozenset("u"), frozenset("v"),
        frozenset("xy"), frozenset("z")}


def test_single_state_lts_is_one_block():
    l = Lts(("only",), (TAU,), ())
    for v in ALL_VARIANTS:
        assert len(coarsest_partition_lts(l, v)) == 1


# --- the worked Kripke example ---------------------------------------------

def test_stuttering_example_divergence_blind():
    p = coarsest_partition_ks(figures.stuttering_example_ks(), DB)
    assert blocks_of(p) == {frozenset("stu"), frozenset("xy")}


def test_stuttering_example_divergence_sensitive():
    p = coarsest_partition_ks(figures.stuttering_example_ks(), DS)
    assert blocks_of(p) == {
        frozenset("s"), frozenset("t"), frozenset("u"), frozenset("xy")}


def test_two_state_chain_merges_under_explicit_divergence():
    k = KripkeStructure(("a", "b"), {"a": set(), "b": set()}, (("a", "b"),))
    p = coarsest_partition_ks(k, ED)
    assert len(p) == 1


# --- colouring checks -------------------------------------------------------

def test_example_colouring_consistent_but_not_fully():
    l = figures.branching_example_lts()
    colouring = Partition.from_blocks(
        [list("stuv"), list("xyz")], l.states)
    assert check_colouring(l, colouring, DB)
    # t can stay silent forever inside its block, u cannot complete there
    assert not check_colouring(l, colouring, DS)


def test_discrete_partition_valid_for_all_variants():
    l = figures.branching_example_lts()
    discrete = Partition.from_blocks([[s] for s in l.states], l.states)
    for v in ALL_VARIANTS:
        assert check_colouring(l, discrete, v)


def test_check_colouring_rejects_label_mixing_on_ks():
    k = figures.stuttering_example_ks()
    universal = Partition.from_blocks([list(k.states)], k.states)
    for v in ALL_VARIANTS:
        assert not check_colouring(k, universal, v)


def test_check_colouring_rejects_mixed_labels_without_a_kernel_pass(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("a kernel pass over a label-mixing colouring")

    monkeypatch.setattr(equivalences, "_colouring_signatures", refuse)
    k = figures.stuttering_example_ks()
    mixed = 0
    for blocks in _set_partitions(k.states):
        if all(len({k.labelling[s] for s in b}) == 1 for b in blocks):
            continue
        mixed += 1
        p = Partition.from_blocks(blocks, k.states)
        for v in ALL_VARIANTS:
            assert not check_colouring(k, p, v)
    assert mixed == 52 - 5 * 2   # Bell(5), less Bell(3) * Bell(2) uniform
    # a colouring that misses a state is an error before its labels
    with pytest.raises(ValueError, match="cover"):
        check_colouring(k, Partition.from_blocks([["s"]], ["s"]), DB)


def test_colouring_readers_check_their_input_once(monkeypatch):
    l = figures.branching_example_lts()
    p = Partition.from_blocks([[s] for s in l.states], l.states)
    calls = []
    for name in ("_labels", "_check_cover"):
        def counted(*args, name=name, real=getattr(equivalences, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(equivalences, name, counted)
    check_colouring(l, p, ED)
    divergent_states(l, p)
    assert calls == ["_labels", "_check_cover"] * 2
    d = DoublyLabelledTS(("s",), {}, ())
    partial = Partition.from_blocks([[l.states[0]]], [l.states[0]])
    for read in (lambda g, q: check_colouring(g, q, ED), divergent_states):
        with pytest.raises(TypeError, match="unsupported structure"):
            read(d, Partition({"s": 0}))
        with pytest.raises(ValueError, match="cover"):
            read(l, partial)


# --- divergence -------------------------------------------------------------

def test_divergent_states_in_fully_consistent_colouring():
    l = figures.branching_example_lts()
    colouring = Partition.from_blocks(
        [["s"], ["t"], ["u", "v"], ["x", "y", "z"]], l.states)
    div = divergent_states(l, colouring)
    assert "z" in div
    assert "y" not in div
    assert "t" in div


def test_divergent_states_empty_on_acyclic():
    l = Lts(("a", "b"), (TAU,), (("a", TAU, "b"),))
    p = Partition.from_blocks([["a", "b"]], l.states)
    assert divergent_states(l, p) == set()


def _unrolled_divergence(g, p, state):
    """Independent oracle: in-block inert walk of length |S|+1 exists."""
    if isinstance(g, KripkeStructure):
        steps = [(u, None, v) for (u, v) in g.transitions]
        silent = lambda a: True
    else:
        steps = list(g.transitions)
        silent = lambda a: a == TAU
    inert = {s: [] for s in g.states}
    for (u, a, v) in steps:
        if silent(a) and p.block_of[u] == p.block_of[v]:
            inert[u].append(v)
    frontier = {state}
    for _ in range(len(g.states) + 1):
        frontier = {v for u in frontier for v in inert[u]}
        if not frontier:
            return False
    return True


def test_divergent_states_matches_bounded_unrolling():
    rng = random.Random(101)
    for _ in range(100):
        l = random_lts(rng, max_states=5)
        p = coarsest_partition_lts(l, ED)
        div = divergent_states(l, p)
        for s in l.states:
            assert (s in div) == _unrolled_divergence(l, p, s)


# --- pairwise equivalence ---------------------------------------------------

def test_merge_example_component_equivalences():
    l = figures.deadlock_merge_example_lts()
    assert equivalent(l, "0", "Delta0", DS)
    assert not equivalent(l, "0", "Delta0", ED)
    assert equivalent(l, "0", "0", DB)


def test_equivalent_rejects_unknown_states():
    l = figures.deadlock_merge_example_lts()
    with pytest.raises(ValueError):
        equivalent(l, "0", "nope", DB)


# --- oracle -----------------------------------------------------------------

def test_oracle_agrees_on_branching_example():
    l = figures.branching_example_lts()
    for v in ALL_VARIANTS:
        assert oracle_coarsest_partition(l, v) == coarsest_partition_lts(l, v)


def test_oracle_on_single_state():
    l = Lts(("only",), (TAU,), ())
    for v in ALL_VARIANTS:
        assert len(oracle_coarsest_partition(l, v)) == 1


def test_oracle_rejects_large_inputs():
    states = tuple(f"s{i}" for i in range(9))
    l = Lts(states, (TAU,), ())
    with pytest.raises(ValueError):
        oracle_coarsest_partition(l, DB)


@pytest.mark.parametrize("n, bell", enumerate(
    (1, 1, 2, 5, 15, 52, 203, 877, 4140)))
def test_oracle_enumerates_each_partition_once(n, bell):
    items = list(range(n))
    found = {frozenset(map(frozenset, blocks))
             for blocks in _set_partitions(items)}
    assert len(list(_set_partitions(items))) == len(found) == bell
    for blocks in found:
        assert all(blocks)
        assert sorted(x for b in blocks for x in b) == items


def test_oracle_agreement_random_sample():
    # the acceptance suite runs the full 200-instance sweep; keep a
    # smaller smoke version here
    rng = random.Random(7)
    for _ in range(25):
        l = random_lts(rng, max_states=5)
        k = random_ks(rng, max_states=5)
        for v in ALL_VARIANTS:
            assert oracle_coarsest_partition(l, v) == coarsest_partition_lts(l, v)
            assert oracle_coarsest_partition(k, v) == coarsest_partition_ks(k, v)


# --- structural invariants ----------------------------------------------

def _refines(fine, coarse):
    return all(
        coarse.same_block(s, t)
        for b in fine.blocks
        for s, t in itertools.combinations(sorted(b), 2)
    )


def test_refinement_chain_on_random_systems():
    rng = random.Random(8)
    for _ in range(50):
        l = random_lts(rng, max_states=6)
        p_db = coarsest_partition_lts(l, DB)
        p_ds = coarsest_partition_lts(l, DS)
        p_ed = coarsest_partition_lts(l, ED)
        assert _refines(p_ed, p_ds)
        assert _refines(p_ds, p_db)


def test_ds_and_ed_coincide_without_deadlock():
    rng = random.Random(9)
    seen = 0
    for _ in range(200):
        l = random_lts(rng, max_states=5)
        outgoing = {u for (u, _, _) in l.transitions}
        if set(l.states) - outgoing:
            continue
        seen += 1
        assert coarsest_partition_lts(l, DS) == coarsest_partition_lts(l, ED)
    assert seen >= 10


def test_computed_partition_always_passes_check():
    rng = random.Random(10)
    for _ in range(50):
        l = random_lts(rng, max_states=6)
        k = random_ks(rng, max_states=6)
        for v in ALL_VARIANTS:
            assert check_colouring(l, coarsest_partition_lts(l, v), v)
            assert check_colouring(k, coarsest_partition_ks(k, v), v)


def test_equivalence_laws_by_sampling():
    rng = random.Random(11)
    l = random_lts(rng, max_states=6)
    for v in ALL_VARIANTS:
        for s in l.states:
            assert equivalent(l, s, s, v)
        for s, t in itertools.product(l.states, repeat=2):
            assert equivalent(l, s, t, v) == equivalent(l, t, s, v)
        for s, t, u in itertools.islice(
                itertools.product(l.states, repeat=3), 200):
            if equivalent(l, s, t, v) and equivalent(l, t, u, v):
                assert equivalent(l, s, u, v)


def test_history_starts_trivial_and_refines():
    l = figures.branching_example_lts()
    history = refinement_history(l, ED)
    assert set(history[0]) == {0}
    for before, after in zip(history, history[1:]):
        # each round splits a block and refines the one before; the ids
        # stay dense, and a split block's id stays with one of its pieces
        assert len(set(after)) > len(set(before))
        assert len(set(zip(after, before))) == len(set(after))
        assert set(after) == set(range(len(set(after)))) >= set(before)
    assert _partition(l.states, history[-1]) == coarsest_partition_lts(l, ED)


def test_meet_and_join_are_lattice_bounds():
    l = figures.branching_example_lts()
    p = coarsest_partition_lts(l, ED)
    q = coarsest_partition_lts(l, DB)
    m = meet(p, q)
    j = join(p, q)
    assert _refines(m, p) and _refines(m, q)
    assert _refines(p, j) and _refines(q, j)


# --- one int per signature ------------------------------------------------

def test_block_signatures_share_equal_sets_and_records():
    # 60 states in one block, each with a visible step out of it: two
    # observation sets, and a silent self-loop on every third state adds
    # the variant's marker, so two more sets where the variant has one
    n = 60
    states = tuple(f"s{i}" for i in range(n)) + ("out",)
    trans = [(f"s{i}", "ab"[i % 2], "out") for i in range(n)]
    trans += [(f"s{i}", TAU, f"s{i}") for i in range(0, n, 3)]
    index = Lts(states, (TAU,), tuple(trans)).index
    block = [0] * n + [1]
    for variant, marker, distinct in ((DB, 0, 2), (ED, DIVERGES, 4),
                                      (DS, COMPLETES, 4)):
        # no silent step joins two states: each is a component of its own
        records = dict.fromkeys(range(n))
        bit = _block_signatures([[u] for u in range(n)], block, index,
                                variant, records)
        assert len(records) == n
        assert len(set(records.values())) == distinct
        # each signature as the round reads it, decoded: the marker
        # exactly on the loops
        for u in range(n):
            obs = records[u]
            real = {c for c, b in bit.items() if obs & b}
            assert real == {(1 if u % 2 == 0 else 2) + len(index.actions)}
            assert obs & (DIVERGES | COMPLETES) == (
                marker if u % 3 == 0 else 0)


# --- the id-based Partition against a frozenset reference ------------------

def _ref_valid(blocks, order):
    """Non-empty, pairwise disjoint blocks that cover exactly ``order``."""
    sets = [frozenset(b) for b in blocks]
    union = frozenset().union(*sets)
    return (all(sets) and sum(map(len, sets)) == len(union)
            and union == set(order))


def _ref_canonical(blocks, order):
    """The blocks as frozensets, ordered by their first state in ``order``."""
    pos = {s: i for i, s in enumerate(order)}
    return [b for b in sorted(map(frozenset, blocks),
                              key=lambda b: min(map(pos.__getitem__, b)))]


def _ref_join(p_blocks, q_blocks):
    merged = []
    for b in map(frozenset, p_blocks + q_blocks):
        touching = [m for m in merged if m & b]
        merged = [m for m in merged if not m & b] + [b.union(*touching)]
    return merged


def _assert_matches(part, blocks, order):
    canon = _ref_canonical(blocks, order)
    assert part.blocks == tuple(canon)
    assert len(part) == len(canon)
    assert list(part.block_of) == list(order)
    assert part.block_of == {s: i for i, b in enumerate(canon) for s in b}
    assert list(part.members()) == [[s for s in order if s in b]
                                    for b in canon]
    for s, t in itertools.product(order, repeat=2):
        assert part.same_block(s, t) == any(s in b and t in b for b in canon)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_matches_a_frozenset_reference(data):
    n = data.draw(st.integers(0, 7))
    order = data.draw(st.permutations([f"s{i}" for i in range(n)]))

    def colouring():
        colour = data.draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n))
        groups = {}
        # blocks listed by colour, members by name: not the canonical order
        for c, s in sorted(zip(colour, order)):
            groups.setdefault(c, []).append(s)
        return list(groups.values())

    p_blocks, q_blocks = colouring(), colouring()
    # every state order may be an iterator, read once; q's order is
    # reversed, and meet and join follow p's
    p = Partition.from_blocks(p_blocks, iter(order))
    q = Partition.from_blocks(q_blocks, order[::-1])
    _assert_matches(p, p_blocks, order)
    _assert_matches(meet(p, q),
                    [b & c for b in map(frozenset, p_blocks)
                     for c in map(frozenset, q_blocks) if b & c], order)
    _assert_matches(join(p, q), _ref_join(p_blocks, q_blocks), order)

    sub = data.draw(st.permutations(order))[:data.draw(st.integers(0, n))]
    _assert_matches(p.restrict(iter(sub)),
                    [b & set(sub) for b in map(frozenset, p_blocks)
                     if b & set(sub)], sub)
    with pytest.raises(ValueError):
        p.restrict(sub + ["x"])

    # an empty block, a state in two blocks, a missing or an unknown state
    broken = data.draw(st.sampled_from(["empty", "twice", "missing", "extra"]))
    blocks = [list(b) for b in p_blocks]
    if broken == "empty":
        blocks.insert(data.draw(st.integers(0, len(blocks))), [])
    elif broken == "twice" and n:
        blocks.append([data.draw(st.sampled_from(order))])
    elif broken == "missing" and n:
        gone = data.draw(st.sampled_from(order))
        blocks = [[s for s in b if s != gone] for b in blocks]
        blocks = [b for b in blocks if b]
    else:
        blocks.append(["x"])
    assert not _ref_valid(blocks, order)
    with pytest.raises(ValueError, match="do not partition"):
        Partition.from_blocks(blocks, order)
