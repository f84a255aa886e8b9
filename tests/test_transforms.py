import random

import pytest

from dtk import figures
from dtk.equivalences import (
    EquivVariant,
    coarsest_partition_ks,
    coarsest_partition_lts,
    meet,
)
from dtk.generators import random_formula, random_ks, random_lts
from dtk.logic import (
    And,
    ExistsG,
    ExistsGInf,
    Not,
    Prop,
    Semantics,
    check,
    sat,
)
from dtk.structures import (
    DELTA_PROP,
    KripkeStructure,
    Lts,
    StructureError,
    TAU,
    associated_ks,
    associated_lts,
    check_consistency,
    deadlock_states,
)
from dtk.transforms import (
    deadlock_extension,
    encode_D,
    encode_E,
    eta_midpoint,
    ks_to_l2ts,
    totalize_all_selfloops,
    totalize_deadlock_selfloops,
)

DB = EquivVariant.DIVERGENCE_BLIND
DS = EquivVariant.DIVERGENCE_SENSITIVE
ED = EquivVariant.EXPLICIT_DIVERGENCE
MAX = Semantics.MAXIMAL_PATH
BLIND = Semantics.DIVERGENCE_BLIND


# --- midpoint insertion -------------------------------------------------------

def test_eta_on_merge_example():
    l = figures.deadlock_merge_example_lts()
    d = eta_midpoint(l)
    assert len(d.states) == 5  # one midpoint for the single visible step
    assert check_consistency(d).consistent
    assert d.states[:len(l.states)] == l.states   # originals keep their ids


def test_eta_leaves_silent_systems_alone():
    l = Lts(("a", "b"), (TAU,), (("a", TAU, "b"), ("b", TAU, "b")))
    d = eta_midpoint(l)
    assert d.states == l.states
    assert d.transitions == l.transitions
    assert all(len(props) == 1 for props in d.labelling.values())


def test_eta_state_count():
    rng = random.Random(21)
    for _ in range(100):
        l = random_lts(rng, max_states=6)
        d = eta_midpoint(l)
        visible = sum(1 for (_, a, _) in l.transitions if a != TAU)
        assert len(d.states) == len(l.states) + visible
        assert check_consistency(d).consistent


def test_eta_preserves_and_reflects_equivalences():
    rng = random.Random(22)
    for _ in range(100):
        l = random_lts(rng, max_states=5)
        d = eta_midpoint(l)
        lifted = associated_lts(d)
        for v in (DB, DS, ED):
            original = coarsest_partition_lts(l, v)
            part = coarsest_partition_lts(lifted, v)
            projected = part.restrict(l.states)
            assert original == projected
            # a generator of the states is read once, like a tuple
            assert part.restrict(s for s in l.states) == projected


# --- Kripke-to-doubly-labelled --------------------------------------------------

def test_ks_to_l2ts_round_trips():
    k = figures.stuttering_example_ks()
    d = ks_to_l2ts(k)
    assert check_consistency(d).consistent
    assert associated_ks(d) == k


def test_ks_to_l2ts_uniform_labels_all_silent():
    k = KripkeStructure(("a", "b"), {"a": {"p"}, "b": {"p"}},
                        (("a", "b"), ("b", "a")))
    d = ks_to_l2ts(k)
    assert all(a == TAU for (_, a, _) in d.transitions)


def test_ks_to_l2ts_random_consistency():
    rng = random.Random(23)
    for _ in range(100):
        k = random_ks(rng, max_states=6)
        d = ks_to_l2ts(k)
        assert check_consistency(d).consistent
        assert associated_ks(d) == k


def test_agreement_theorem_on_consistent_l2ts():
    # label-refined LTS-side partitions match the KS-side partitions
    rng = random.Random(24)
    for i in range(100):
        if i % 2 == 0:
            d = ks_to_l2ts(random_ks(rng, max_states=5))
        else:
            d = eta_midpoint(random_lts(rng, max_states=4))
        assert check_consistency(d).consistent
        ks, lts = associated_ks(d), associated_lts(d)
        labels = {}
        for s in d.states:
            labels.setdefault(d.labelling[s], []).append(s)
        from dtk.equivalences import Partition
        label_part = Partition.from_blocks(labels.values(), d.states)
        for ks_variant, lts_variant in ((DB, DB), (DS, DS)):
            ks_part = coarsest_partition_ks(ks, ks_variant)
            lts_part = meet(coarsest_partition_lts(lts, lts_variant),
                            label_part)
            assert ks_part == lts_part


# --- deadlock extension -----------------------------------------------------------

def test_deadlock_extension_shape():
    k = figures.deadlock_extension_example_ks()
    d, sink = deadlock_extension(k)
    assert len(d.states) == 4
    assert d.delta_extended
    assert d.labelling[sink] == frozenset({DELTA_PROP})
    assert (sink, sink) in d.transitions
    assert ("q", sink) in d.transitions
    assert ("r", sink) in d.transitions
    assert ("p", sink) not in d.transitions


def test_deadlock_extension_on_total_structure():
    k = KripkeStructure(("a",), {"a": {"p"}}, (("a", "a"),))
    d, sink = deadlock_extension(k)
    assert set(d.states) == {"a", sink}
    assert d.transitions == (("a", "a"), (sink, sink))


def test_deadlock_extension_makes_total():
    rng = random.Random(25)
    for _ in range(100):
        k = random_ks(rng, max_states=6)
        d, _ = deadlock_extension(k)
        assert deadlock_states(d) == set()


def test_deadlock_extension_rejects_flagged_input():
    k = figures.stuttering_example_ks()
    d, _ = deadlock_extension(k)
    with pytest.raises(StructureError):
        deadlock_extension(d)


def test_explicit_divergence_partition_preserved_by_extension():
    rng = random.Random(26)
    for _ in range(100):
        k = random_ks(rng, max_states=6)
        d, sink = deadlock_extension(k)
        inner = coarsest_partition_ks(k, ED)
        outer = coarsest_partition_ks(d, ED)
        assert outer.restrict(k.states) == inner
        assert frozenset({sink}) in outer.blocks


def test_ds_and_ed_coincide_on_extensions():
    rng = random.Random(27)
    for _ in range(50):
        d, _ = deadlock_extension(random_ks(rng, max_states=5))
        assert coarsest_partition_ks(d, DS) == coarsest_partition_ks(d, ED)


def test_deadlock_livelock_separated_only_after_extension():
    k = figures.deadlock_livelock_ks()
    assert coarsest_partition_ks(k, DS).same_block("d", "l")
    d, _ = deadlock_extension(k)
    assert not coarsest_partition_ks(d, DB).same_block("d", "l")
    assert not coarsest_partition_ks(d, DS).same_block("d", "l")


# --- self-loop totalisations ---------------------------------------------------

def test_totalize_deadlocks_on_stuttering_example():
    k = figures.stuttering_example_ks()
    t = totalize_deadlock_selfloops(k)
    assert set(t.transitions) - set(k.transitions) == {("x", "x")}


def test_totalize_deadlocks_identity_on_total():
    k = KripkeStructure(("a",), {"a": set()}, (("a", "a"),))
    assert totalize_deadlock_selfloops(k) == k


def test_totalize_deadlocks_preserves_maximal_validity():
    rng = random.Random(28)
    for _ in range(100):
        k = random_ks(rng, max_states=5)
        t = totalize_deadlock_selfloops(k)
        phi = random_formula(rng, depth=2, include_infinity=False)
        assert sat(k, phi, MAX) == sat(t, phi, MAX)


def test_totalize_all_matches_blind_semantics():
    rng = random.Random(29)
    for _ in range(100):
        k = random_ks(rng, max_states=5)
        t = totalize_all_selfloops(k)
        phi = random_formula(rng, depth=2, include_infinity=False)
        assert sat(k, phi, BLIND) == sat(t, phi, MAX)


def test_totalize_all_shifts_blind_partition_to_sensitive():
    k = figures.stuttering_example_ks()
    assert (coarsest_partition_ks(k, DB)
            == coarsest_partition_ks(totalize_all_selfloops(k), DS))
    rng = random.Random(30)
    for _ in range(50):
        k = random_ks(rng, max_states=5)
        assert (coarsest_partition_ks(k, DB)
                == coarsest_partition_ks(totalize_all_selfloops(k), DS))


def test_totalize_all_on_edgeless_state():
    k = KripkeStructure(("a",), {"a": set()}, ())
    assert totalize_all_selfloops(k).transitions == (("a", "a"),)


# --- formula encodings -----------------------------------------------------------

def test_encode_D_examples():
    assert encode_D(Prop("p")) == Prop("p")
    got = encode_D(ExistsGInf(Prop("p")))
    assert got == ExistsG(And((Not(Prop(DELTA_PROP)), Prop("p"))))


def test_encode_D_rejects_delta():
    with pytest.raises(Exception):
        encode_D(Prop(DELTA_PROP))


def test_encode_E_examples():
    assert encode_E(Prop(DELTA_PROP)) == Not(And(()))
    assert encode_E(Prop("p")) == Prop("p")


def test_encode_D_semantic_round_trip():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        k = random_ks(rng, max_states=5)
        d, _ = deadlock_extension(k)
        phi = random_formula(rng, depth=2)
        img = encode_D(phi)
        for s in k.states:
            assert check(k, s, phi, MAX) == check(d, s, img, MAX)
            checked += 1


def test_encode_E_semantic_round_trip():
    rng = random.Random(32)
    checked = 0
    while checked < 200:
        k = random_ks(rng, max_states=5)
        d, sink = deadlock_extension(k)
        phi = random_formula(rng, depth=2, include_delta=True,
                             include_infinity=False)
        img = encode_E(phi)
        for s in k.states:
            assert check(d, s, phi, MAX) == check(k, s, img, MAX)
            checked += 1
