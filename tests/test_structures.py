import random

import pytest

from dtk import figures
from dtk.structures import (
    DoublyLabelledTS,
    FormatError,
    KripkeStructure,
    Lts,
    Path,
    StructureError,
    TAU,
    associated_ks,
    associated_lts,
    check_consistency,
    deadlock_states,
    disjoint_union_lts,
    parse_ks,
    parse_l2ts,
    parse_lts,
    path_is_maximal,
    render_ks,
    render_l2ts,
    render_lts,
)

STUTTER_KS_TEXT = """
# five states, two label classes
state s { p }
state t { p }
state u { p }
state x { q }
state y { q }
edge s t
edge s u
edge t t
edge t x
edge u y
edge y y
"""

BRANCHING_LTS_TEXT = """
state s
state t
state u
state v
state x
state y
state z
trans s tau t
trans s tau u
trans s tau v
trans t tau t
trans t a x
trans u a y
trans v a z
trans z tau z
"""


def test_parse_ks_matches_fixture():
    k = parse_ks(STUTTER_KS_TEXT)
    assert k == figures.stuttering_example_ks()
    assert k.states == ("s", "t", "u", "x", "y")
    assert k.labelling["s"] == frozenset({"p"})
    assert ("t", "x") in k.transitions


def test_parse_ks_single_state():
    k = parse_ks("state a {}")
    assert k.states == ("a",)
    assert k.transitions == ()
    assert k.labelling["a"] == frozenset()


@pytest.mark.parametrize("text, fragment", [
    ("state a { p }\nstate a { q }", "duplicate"),
    ("state a {}\nedge a b", "undeclared"),
    ("state a { delta }", "reserved"),
    ("state a {}\nnode a b", "unknown directive"),
    ("state a", "expected"),
    ("state a* {}", "bad identifier"),
])
def test_parse_ks_errors(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_ks(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_number():
    with pytest.raises(FormatError) as err:
        parse_ks("state a {}\nedge a b")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_parse_lts_matches_fixture():
    l = parse_lts(BRANCHING_LTS_TEXT)
    assert l == figures.branching_example_lts()
    assert ("t", TAU, "t") in l.transitions


def test_parse_lts_deadlocked_single_state():
    l = parse_lts("state only")
    assert l.states == ("only",)
    assert l.transitions == ()
    assert set(deadlock_states(l)) == {"only"}


def test_merge_example_fixture_shape():
    l = figures.deadlock_merge_example_lts()
    assert set(l.states) == {"0", "Delta0", "a", "x"}
    assert ("Delta0", TAU, "Delta0") in l.transitions
    assert ("a", "a", "x") in l.transitions
    assert set(deadlock_states(l)) == {"0", "x"}


def _random_ks(rng, max_states=7):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    labelling = {
        s: {p for p in ("p", "q") if rng.random() < 0.5} for s in states
    }
    edges = [
        (a, b) for a in states for b in states if rng.random() < 0.3
    ]
    return KripkeStructure(tuple(states), labelling, tuple(edges))


def _random_l2ts(rng, max_states=6):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    labelling = {
        s: {p for p in ("p", "q") if rng.random() < 0.5} for s in states
    }
    trans = [
        (a, rng.choice([TAU, "a", "b"]), b)
        for a in states for b in states if rng.random() < 0.3
    ]
    return DoublyLabelledTS(tuple(states), labelling, tuple(trans))


def test_ks_round_trip_100_random():
    rng = random.Random(42)
    for _ in range(100):
        k = _random_ks(rng)
        assert parse_ks(render_ks(k)) == k


def test_lts_round_trip_random():
    rng = random.Random(43)
    for _ in range(100):
        ks = _random_ks(rng)
        # the text format declares no actions, so only used ones round-trip
        l = Lts(ks.states, (),
                tuple((u, rng.choice([TAU, "a"]), v) for (u, v) in ks.transitions))
        assert parse_lts(render_lts(l)) == l


def test_l2ts_round_trip_random():
    rng = random.Random(44)
    for _ in range(100):
        d = _random_l2ts(rng)
        assert parse_l2ts(render_l2ts(d)) == d


def test_duplicate_transitions_collapse():
    k = KripkeStructure(("a", "b"), {"a": {"p"}, "b": set()},
                        (("a", "b"), ("a", "b")))
    assert k.transitions == (("a", "b"),)


def test_structure_rejects_stray_endpoints():
    with pytest.raises(StructureError):
        KripkeStructure(("a",), {"a": set()}, (("a", "b"),))
    with pytest.raises(StructureError):
        Lts(("a",), (TAU,), (("a", TAU, "b"),))


def test_structure_rejects_wrong_transition_arity():
    with pytest.raises(ValueError):
        KripkeStructure(("a",), {"a": set()}, (("a", "x", "a"),))
    with pytest.raises(ValueError):
        DoublyLabelledTS(("a",), {"a": set()}, (("a", "a"),))
    for step in (("a", "a"), ("a", "x", "a", "a")):
        with pytest.raises(StructureError,
                           match=r"^malformed transition"):
            Lts(("a",), (), (step,))


def test_delta_label_needs_flag():
    with pytest.raises(StructureError):
        KripkeStructure(("a",), {"a": {"delta"}}, ())
    k = KripkeStructure(("a",), {"a": {"delta"}}, (), delta_extended=True)
    assert k.labelling["a"] == frozenset({"delta"})


def test_labelled_structures_reject_empty_proposition():
    for cls in (KripkeStructure, DoublyLabelledTS):
        with pytest.raises(StructureError,
                           match=r"^bad proposition '' on state a$"):
            cls(("a",), {"a": {""}}, ())


def test_associated_projections_on_consistent_example():
    d = figures.consistent_l2ts_example()
    ks = associated_ks(d)
    assert len(ks.states) == 4
    assert len(ks.transitions) == 4
    lts = associated_lts(d)
    actions = sorted(a for (_, a, _) in lts.transitions)
    assert actions == ["a", "a", "b", TAU]


def test_associated_on_empty_transitions():
    d = DoublyLabelledTS(("a",), {"a": {"p"}}, ())
    assert associated_ks(d).transitions == ()
    assert associated_lts(d).transitions == ()


def test_associated_random_properties():
    rng = random.Random(45)
    for _ in range(100):
        d = _random_l2ts(rng)
        ks = associated_ks(d)
        lts = associated_lts(d)
        assert len(ks.transitions) <= len(d.transitions)
        assert ks.states == d.states == lts.states
        assert deadlock_states(ks) == deadlock_states(lts)


def test_consistency_violations_match_example_trio():
    d1, d2, d3 = figures.inconsistent_l2ts_examples()
    assert check_consistency(d1).violated_conditions() == ["i"]
    assert check_consistency(d2).violated_conditions() == ["ii"]
    assert check_consistency(d3).violated_conditions() == ["iii"]


def test_consistency_of_good_example():
    report = check_consistency(figures.consistent_l2ts_example())
    assert report.consistent
    assert report.violations == ()


def test_consistency_vacuous_without_transitions():
    d = DoublyLabelledTS(("a", "b"), {"a": {"p"}, "b": {"q"}}, ())
    assert check_consistency(d).consistent


def test_consistency_implies_tau_label_agreement():
    rng = random.Random(46)
    checked = 0
    for _ in range(200):
        d = _random_l2ts(rng)
        if not check_consistency(d).consistent:
            continue
        checked += 1
        for (s, a, t) in d.transitions:
            assert (d.labelling[s] == d.labelling[t]) == (a == TAU)
    assert checked > 0


def test_deadlock_states_examples():
    l = figures.deadlock_merge_example_lts()
    assert set(deadlock_states(l)) == {"0", "x"}
    total = KripkeStructure(("a",), {"a": set()}, (("a", "a"),))
    assert set(deadlock_states(total)) == set()


def test_deadlock_states_agrees_with_out_degree():
    rng = random.Random(47)
    for _ in range(100):
        k = _random_ks(rng)
        outdeg = {s: 0 for s in k.states}
        for (u, _) in k.transitions:
            outdeg[u] += 1
        # in declaration order, as ``outdeg`` holds the states
        assert deadlock_states(k) == [s for s, d in outdeg.items() if d == 0]


def test_path_is_maximal_reads_the_end_state():
    l = figures.deadlock_merge_example_lts()
    for s in l.states:
        assert path_is_maximal(l, Path("finite", (s,))) == (
            s in deadlock_states(l))
    assert not path_is_maximal(l, Path("finite", ("nope",)))
    assert path_is_maximal(l, Path("lasso", ("nope",), ("nope",)))


def test_disjoint_union_renames_clashes():
    l1 = parse_lts("state a\nstate b\ntrans a tau b")
    l2 = parse_lts("state a\ntrans a tau a")
    u, m2 = disjoint_union_lts(l1, l2)
    assert u.states[:2] == l1.states   # the left ids stay
    assert m2["a"] != "a"
    assert len(u.states) == 3
    assert (m2["a"], TAU, m2["a"]) in u.transitions


# --- one object per id ---------------------------------------------------------

# multi-character ids, so that every token read from the text is a new
# string object; "w1" is first read as a proposition, then declared
INTERNING_TEXTS = [
    (parse_lts, "state w0\nstate w1\ntrans w0 go w1\ntrans w1 go w0\n"
                "trans w1 tau w1\ntrans w0 tau w1\n"),
    (parse_ks, "state w0 { w1 }\nstate w1 { pq }\nedge w0 w1\nedge w1 w0\n"
               "edge w1 w1\n"),
    (parse_l2ts, "state w0 { w1 }\nstate w1 { pq }\ntrans w0 go w1\n"
                 "trans w1 tau w1\ntrans w1 go w0\n"),
]


@pytest.mark.parametrize("parse, text", INTERNING_TEXTS,
                         ids=["lts", "ks", "l2ts"])
def test_transitions_hold_the_declared_state_objects(parse, text):
    g = parse(text)
    declared = {s: s for s in g.states}
    actions = {}
    for t in g.transitions:
        assert t[0] is declared[t[0]] and t[-1] is declared[t[-1]]
        if len(t) == 3:
            assert actions.setdefault(t[1], t[1]) is t[1]


def test_index_shares_equal_successor_pairs():
    l = parse_lts("state a\nstate b\nstate c\n"
                  "trans a go c\ntrans b go c\ntrans b tau c\n")
    succ = l.index.succ
    assert succ[0] == [(1, 2)] and succ[1] == [(1, 2), (0, 2)]
    assert succ[0][0] is succ[1][0]
    k = parse_ks("state a { p }\nstate b { p }\nedge a b\nedge b b\n")
    assert k.index.succ[0][0] is k.index.succ[1][0]


def test_check_state_reads_the_index():
    l = parse_lts(BRANCHING_LTS_TEXT)
    l.check_state("z")
    with pytest.raises(ValueError, match="unknown state 'nope'"):
        l.check_state("nope")
    assert "transitions" not in l.__dict__
