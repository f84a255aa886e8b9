"""Property tests: text round trips of structures and formulas, the
state index, refinement against the brute-force oracle and across the
LTS-to-Kripke translation, ed and db as merge congruences, the
congruence probe's report, and the consistency check against a pairwise
reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dtk.compose import coarsest_congruence_probe, merged_pair_system
from dtk.equivalences import (
    ORACLE_STATE_BOUND,
    EquivVariant,
    coarsest_partition_ks,
    coarsest_partition_lts,
    equivalent,
    oracle_coarsest_partition,
)
from dtk.logic import (
    _KEYWORDS,
    TRUE,
    And,
    ExistsG,
    ExistsGInf,
    ExistsUntil,
    Not,
    Prop,
    parse_formula,
    render_formula,
)
from dtk.structures import (
    DoublyLabelledTS,
    KripkeStructure,
    Lts,
    TAU,
    associated_ks,
    check_consistency,
    deadlock_states,
    parse_ks,
    parse_l2ts,
    parse_lts,
    render_ks,
    render_l2ts,
    render_lts,
)
from dtk.transforms import eta_midpoint

IDS = ("a", "b", "s0", "s_1", "x.y", "Z9", "m.a.b", "t")
PROPS = ("p", "q", "r_1", "x.y")
ACTIONS = (TAU, "a", "b", "go.1")


@st.composite
def structures(draw, kind, max_states=6, props=PROPS):
    states = draw(st.lists(st.sampled_from(IDS), min_size=1,
                           max_size=max_states, unique=True))
    state = st.sampled_from(states)
    if kind == "ks":
        step = st.tuples(state, state)
    else:
        step = st.tuples(state, st.sampled_from(ACTIONS), state)
    transitions = tuple(draw(st.lists(step, max_size=12)))
    if kind == "lts":
        return Lts(tuple(states), (TAU,), transitions)
    labelling = {s: draw(st.frozensets(st.sampled_from(props)))
                 for s in states}
    cls = KripkeStructure if kind == "ks" else DoublyLabelledTS
    return cls(tuple(states), labelling, transitions)


ANY_STRUCTURE = st.one_of(structures("ks"), structures("lts"),
                          structures("l2ts"))


def _triples(g):
    return [(t[0], None, t[1]) if len(t) == 2 else t for t in g.transitions]


@settings(max_examples=100, deadline=None)
@given(structures("ks"))
def test_ks_text_round_trip(k):
    back = parse_ks(render_ks(k))
    assert (back.states, back.labelling, back.transitions) == (
        k.states, k.labelling, k.transitions)


@settings(max_examples=100, deadline=None)
@given(structures("lts"))
def test_lts_text_round_trip(l):
    back = parse_lts(render_lts(l))
    assert (back.states, back.transitions) == (l.states, l.transitions)


@settings(max_examples=100, deadline=None)
@given(structures("l2ts"))
def test_l2ts_text_round_trip(d):
    back = parse_l2ts(render_l2ts(d))
    assert (back.states, back.labelling, back.transitions) == (
        d.states, d.labelling, d.transitions)


@settings(max_examples=100, deadline=None)
@given(ANY_STRUCTURE)
def test_adjacency_index_agrees_with_transitions(g):
    """The state index, ``g.index``, read back against the transitions."""
    index = g.index
    steps = _triples(g)
    assert index.number == {s: i for i, s in enumerate(g.states)}
    assert index.actions[0] == (None if isinstance(g, KripkeStructure)
                                else TAU)
    assert len(set(index.actions)) == len(index.actions)
    for s, i in index.number.items():
        assert [(index.actions[a], g.states[v]) for (a, v) in index.succ[i]] \
            == [(a, v) for (u, a, v) in steps if u == s]
        assert [g.states[u] for u in index.preds[i]] == [
            u for (u, a, v) in steps if v == s]
    sources = {u for (u, _, _) in steps}
    assert set(deadlock_states(g)) == set(g.states) - sources
    assert g.index is index


# names the tokenizer reads as one word, keywords excluded; some look
# like keywords ("EGinf2", "Ux")
PROP_NAMES = st.from_regex(r"[A-Za-z0-9_.]{1,6}", fullmatch=True).filter(
    lambda name: name not in _KEYWORDS)

# sugar-free formulas: no one-item conjunctions, which print as a
# parenthesised conjunct and parse back as that conjunct
FORMULAS = st.recursive(
    st.one_of(PROP_NAMES.map(Prop), st.just(TRUE)),
    lambda sub: st.one_of(
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(tuple).map(And),
        st.builds(ExistsUntil, sub, sub),
        sub.map(ExistsG),
        sub.map(ExistsGInf)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(FORMULAS)
def test_formula_text_round_trip(phi):
    assert parse_formula(render_formula(phi)) == phi


VARIANTS = st.sampled_from(list(EquivVariant))


@settings(max_examples=30, deadline=None)
@given(structures("lts", max_states=ORACLE_STATE_BOUND), VARIANTS)
def test_lts_refinement_matches_oracle(l, variant):
    assert coarsest_partition_lts(l, variant) == oracle_coarsest_partition(
        l, variant)


@settings(max_examples=30, deadline=None)
@given(structures("ks", max_states=ORACLE_STATE_BOUND, props=("p", "q")),
       VARIANTS)
def test_ks_refinement_matches_oracle(k, variant):
    assert coarsest_partition_ks(k, variant) == oracle_coarsest_partition(
        k, variant)


@settings(max_examples=100, deadline=None)
@given(structures("lts"))
def test_lts_partition_matches_its_kripke_translation(l):
    """De Nicola and Vaandrager's translation (a labelled midpoint on every
    visible step, then the actions forgotten) keeps every variant: the
    translated structure's partition, restricted to the original states,
    is the LTS partition."""
    k = associated_ks(eta_midpoint(l))
    for variant in EquivVariant:
        assert coarsest_partition_lts(l, variant) == coarsest_partition_ks(
            k, variant).restrict(l.states)


@settings(max_examples=100, deadline=None)
@given(structures("lts"), structures("lts"),
       st.sampled_from([EquivVariant.DIVERGENCE_BLIND,
                        EquivVariant.EXPLICIT_DIVERGENCE]),
       st.data())
def test_ed_and_db_are_merge_congruences(l1, l2, variant, data):
    """For ``s`` and ``s2`` equivalent in ``l1`` and any ``t`` of ``l2``,
    the merges from ``(s, t)`` and ``(s2, t)`` are equivalent."""
    blocks = coarsest_partition_lts(l1, variant).blocks
    block = data.draw(st.sampled_from(
        [b for b in blocks if len(b) > 1] or blocks))
    s, s2 = (data.draw(st.sampled_from(sorted(block))) for _ in range(2))
    t = data.draw(st.sampled_from(l2.states))
    union, left, right = merged_pair_system(l1, s, l2, t, l1, s2, l2, t)
    assert equivalent(union, left, right, variant)


@settings(max_examples=100, deadline=None)
@given(structures("lts"), st.data())
def test_congruence_probe_verdicts_nest_and_survive_the_context(l, data):
    """Each verdict tuple is a prefix of (db, ds, ed): declaration order,
    and ed implies ds implies db.  db and ed of the pair survive the
    fresh-action context, and ds survives it exactly when ed holds."""
    s, t = (data.draw(st.sampled_from(l.states)) for _ in range(2))
    report = coarsest_congruence_probe(l, s, t)
    variants = tuple(EquivVariant)
    for verdicts in (report.pair, report.in_context):
        assert verdicts == variants[:len(verdicts)]
    for variant in (EquivVariant.DIVERGENCE_BLIND,
                    EquivVariant.EXPLICIT_DIVERGENCE):
        assert variant not in report.pair or variant in report.in_context
    assert report.biconditional_holds


def _pairwise_consistency(d):
    """Reference for ``check_consistency``: compare every pair."""
    lab = d.labelling
    violations = [("i", (t,)) for t in d.transitions
                  if (lab[t[0]] == lab[t[2]]) != (t[1] == TAU)]
    trans = list(d.transitions)
    for i, (s1, a1, v1) in enumerate(trans):
        for (s2, a2, v2) in trans[i + 1:]:
            if a1 == a2 and lab[s1] == lab[s2] and lab[v1] != lab[v2]:
                violations.append(("ii", ((s1, a1, v1), (s2, a2, v2))))
            if lab[s1] == lab[s2] and lab[v1] == lab[v2] and a1 != a2:
                violations.append(("iii", ((s1, a1, v1), (s2, a2, v2))))
    return tuple(violations)


@settings(max_examples=200, deadline=None)
@given(st.one_of(structures("l2ts"), structures("l2ts", props=("p",))))
def test_check_consistency_matches_pairwise(d):
    report = check_consistency(d)
    expected = _pairwise_consistency(d)
    assert report.violations == expected
    assert report.consistent == (not expected)
