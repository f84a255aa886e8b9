import itertools
import random
import tracemalloc

import pytest

from dtk import figures
from dtk.equivalences import EquivVariant, coarsest_partition_ks
from dtk.generators import random_formula, random_ks
from dtk.logic import (
    And,
    ExistsG,
    ExistsGInf,
    ExistsUntil,
    FALSE,
    FormulaError,
    Not,
    Or,
    Prop,
    Semantics,
    TRUE,
    check,
    distinguish,
    enumerate_formulas,
    parse_formula,
    render_formula,
    sat,
    sdelta_eval,
    semantics_for_variant,
)
from dtk.structures import KripkeStructure, deadlock_states
from dtk.transforms import deadlock_extension

DB = Semantics.DIVERGENCE_BLIND
MAX = Semantics.MAXIMAL_PATH


# --- parsing -----------------------------------------------------------------

def test_parse_until():
    assert parse_formula("E (p U q)") == ExistsUntil(Prop("p"), Prop("q"))


def test_parse_globally_forms():
    assert parse_formula("EGinf p") == ExistsGInf(Prop("p"))
    assert parse_formula("EG p") == ExistsG(Prop("p"))


def test_parse_sugar():
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE
    assert parse_formula("EF p") == ExistsUntil(TRUE, Prop("p"))
    assert parse_formula("AG p") == Not(ExistsUntil(TRUE, Not(Prop("p"))))
    assert parse_formula("AF p") == Not(ExistsG(Not(Prop("p"))))
    assert parse_formula("p | q") == Or(Prop("p"), Prop("q"))


def test_parse_precedence():
    assert parse_formula("~p & q") == And((Not(Prop("p")), Prop("q")))
    assert parse_formula("p & q | r") == Or(And((Prop("p"), Prop("q"))), Prop("r"))


# the last five read an operator token where an operand belongs
@pytest.mark.parametrize("text", ["E p U q", "EG", "(p", "p )", "p ~", "U p",
                                  ")", "p & )", "& p", "p | | q", "E (| U p)"])
def test_parse_errors_carry_position(text):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert "position" in str(err.value)


def test_deep_nesting_parses_and_renders():
    # deeper than Python's recursion limit
    n = 5000
    phi = parse_formula("~" * n + "(" * n + "p" + ")" * n)
    assert render_formula(phi) == "~" * n + "p"
    assert sdelta_eval(phi) is False


def test_rendering_a_deep_chain_holds_its_text_once():
    # a value per level that copied its child's text would hold n**2 / 2
    # characters: 200 MB at this depth
    n = 20000
    phi = Prop("p")
    for _ in range(n):
        phi = Not(phi)
    tracemalloc.start()
    try:
        text = render_formula(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "~" * n + "p"
    assert peak < 20 * 2**20


def test_sat_holds_a_bitset_per_subformula():
    # a set of state ids per subformula, held until the fold returns,
    # peaked near 3 MB here; a bitset costs n / 8 bytes
    n = 6000
    rng = random.Random(5)
    states = tuple(f"s{i}" for i in range(n))
    k = KripkeStructure(
        states, {s: rng.sample("pq", rng.randint(0, 2)) for s in states},
        tuple(sorted({(s, rng.choice(states)) for s in states
                      for _ in range(rng.randint(0, 2))})))
    phi = parse_formula("E ((p | q) U EGinf ~q) & AG (p | EG q)")
    assert _distinct_nodes(phi) >= 15
    k.index.preds   # built once per structure, not by the fold
    for semantics in Semantics:
        tracemalloc.start()
        try:
            sat(k, phi, semantics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("text", ["p", "~~~q", "p & ~q | true"])
def test_a_boolean_formula_builds_no_predecessor_lists(text):
    k = KripkeStructure(("a", "b"), {"a": {"p"}}, (("a", "b"), ("b", "b")))
    assert sat(k, parse_formula(text), MAX) == sat(k, parse_formula(text), DB)
    assert "preds" not in k.index.__dict__
    assert sat(k, parse_formula("EF p"), MAX) == {"a"}
    assert "preds" in k.index.__dict__


def _distinct_nodes(phi):
    """Node objects of a formula DAG; an equal copy counts apart."""
    seen, stack = {}, [phi]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            stack.extend(getattr(f, "items", ()))
            stack.extend(getattr(f, a) for a in ("sub", "lhs", "rhs")
                         if hasattr(f, a))
    return len(seen)


def test_parsing_interns_equal_subformulas():
    phi = parse_formula("(EF p & AG ~q | EF p & AG ~q) & E (~q U p)")
    assert _distinct_nodes(phi) == 14
    assert phi == And((Or(And((ExistsUntil(TRUE, Prop("p")),
                               Not(ExistsUntil(TRUE, Not(Not(Prop("q"))))))),
                          And((ExistsUntil(TRUE, Prop("p")),
                               Not(ExistsUntil(TRUE, Not(Not(Prop("q")))))))),
                       ExistsUntil(Not(Prop("q")), Prop("p"))))
    assert parse_formula("false & ~true").items[0] is FALSE
    assert parse_formula("false & ~true").items[1] is FALSE


def test_reparsed_distinguishing_formula_is_as_small_as_the_dag():
    # the text doubles with every refinement round; the DAG gains two nodes
    n = 16
    states = tuple(f"c{i}" for i in range(n))
    k = KripkeStructure(
        states, {s: {"pq"[i % 2]} for i, s in enumerate(states)},
        tuple(zip(states, states[1:])))
    phi = distinguish(k, "c0", "c2", EquivVariant.EXPLICIT_DIVERGENCE)
    text = render_formula(phi)
    assert len(text) > 100_000
    back = parse_formula(text)
    assert back == phi
    assert _distinct_nodes(back) == _distinct_nodes(phi) == 2 * n - 3


def test_render_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        phi = random_formula(rng, depth=3)
        assert parse_formula(render_formula(phi)) == phi


# --- satisfaction on the worked example --------------------------------------

def test_eg_on_stuttering_example_maximal():
    k = figures.stuttering_example_ks()
    got = sat(k, parse_formula("EG p"), MAX)
    assert got == frozenset({"s", "t"})
    assert check(k, "t", parse_formula("EG p"), MAX)
    assert not check(k, "u", parse_formula("EG p"), MAX)


def test_eg_divergence_blind_collapses_to_body():
    k = figures.stuttering_example_ks()
    got = sat(k, parse_formula("EG p"), DB)
    assert got >= frozenset({"s", "t", "u"})
    assert got == sat(k, parse_formula("p"), DB)


def test_true_and_trivial_until():
    k = figures.stuttering_example_ks()
    assert sat(k, TRUE, MAX) == frozenset(k.states)
    assert sat(k, parse_formula("E (true U true)"), MAX) == frozenset(k.states)
    for s in k.states:
        assert check(k, s, TRUE, DB)


def test_unknown_prop_is_everywhere_false():
    k = figures.stuttering_example_ks()
    assert sat(k, Prop("nosuch"), MAX) == frozenset()


def test_delta_requires_flagged_structure():
    k = figures.stuttering_example_ks()
    with pytest.raises(FormulaError):
        sat(k, Prop("delta"), MAX)
    d, _ = deadlock_extension(k)
    assert sat(d, Prop("delta"), MAX) != frozenset()


def test_check_unknown_state():
    k = figures.stuttering_example_ks()
    with pytest.raises(ValueError):
        check(k, "zz", TRUE, MAX)


def _has_infinite_path(k, s):
    # independent oracle: long-walk unrolling instead of SCC analysis
    succ = {u: [] for u in k.states}
    for (u, v) in k.transitions:
        succ[u].append(v)
    frontier = {s}
    for _ in range(len(k.states) + 1):
        frontier = {v for u in frontier for v in succ[u]}
        if not frontier:
            return False
    return True


def test_eginf_true_matches_infinite_path_oracle():
    rng = random.Random(2)
    phi = ExistsGInf(TRUE)
    for _ in range(100):
        k = random_ks(rng, max_states=6)
        got = sat(k, phi, MAX)
        for s in k.states:
            assert (s in got) == _has_infinite_path(k, s)


def test_eginf_same_in_both_semantics():
    rng = random.Random(3)
    for _ in range(50):
        k = random_ks(rng, max_states=5)
        phi = ExistsGInf(random_formula(rng, depth=1, include_infinity=False))
        assert sat(k, phi, MAX) == sat(k, phi, DB)


# --- semantic identities ------------------------------------------------------

def test_eg_decomposition_identity():
    # EG phi = EGinf phi | E(phi U AG phi) under maximal-path semantics
    rng = random.Random(4)
    for _ in range(60):
        k = random_ks(rng, max_states=6)
        phi = random_formula(rng, depth=1)
        eg = sat(k, ExistsG(phi), MAX)
        expanded = Or(ExistsGInf(phi),
                      ExistsUntil(phi, Not(ExistsUntil(TRUE, Not(phi)))))
        assert eg == sat(k, expanded, MAX)


def test_eginf_duality():
    rng = random.Random(5)
    for _ in range(60):
        k = random_ks(rng, max_states=6)
        phi = random_formula(rng, depth=1)
        inf = sat(k, ExistsGInf(phi), MAX)
        assert sat(k, Not(ExistsGInf(phi)), MAX) == frozenset(k.states) - inf


def test_eg_equals_eginf_on_total_structures():
    rng = random.Random(6)
    tested = 0
    for _ in range(300):
        k = random_ks(rng, max_states=5)
        if deadlock_states(k):
            continue
        tested += 1
        phi = random_formula(rng, depth=1)
        assert sat(k, ExistsG(phi), MAX) == sat(k, ExistsGInf(phi), MAX)
    assert tested >= 20


# --- enumeration ---------------------------------------------------------------

def test_enumeration_depth0():
    got = enumerate_formulas({"p"}, 0, 100)
    assert TRUE in got
    assert Prop("p") in got
    assert Not(Prop("p")) in got
    assert len(got) == 4


def test_enumeration_depth1_contains_until():
    got = enumerate_formulas({"p", "q"}, 1, 10000)
    assert ExistsUntil(Prop("p"), Prop("q")) in got


def test_enumeration_count_matches_grammar_size():
    for nprops, include_inf in [(1, True), (2, True), (1, False), (2, False)]:
        props = {f"p{i}" for i in range(nprops)}
        n0 = 2 * (1 + nprops)
        expected = n0 + 2 * n0 * n0 + 2 * n0 + (2 * n0 if include_inf else 0)
        got = enumerate_formulas(props, 1, 10 ** 6, include_infinity=include_inf)
        assert len(got) == expected
        assert len(set(got)) == len(got)


def test_enumeration_budget_truncates():
    assert len(enumerate_formulas({"p", "q"}, 2, 50)) == 50


def test_enumeration_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_formulas(("p",), 1, -1)


@pytest.mark.parametrize("depth", [-1, 5])
def test_enumeration_rejects_a_depth_out_of_range(depth):
    with pytest.raises(ValueError, match="depth"):
        enumerate_formulas(("p",), depth, 100)


def test_enumeration_is_deterministic():
    a = enumerate_formulas({"p", "q"}, 2, 300)
    b = enumerate_formulas({"p", "q"}, 2, 300)
    assert a == b


# --- sink-state evaluation ------------------------------------------------------

def test_sdelta_basics():
    assert sdelta_eval(Prop("delta"))
    assert not sdelta_eval(Prop("p"))
    assert sdelta_eval(ExistsUntil(Prop("p"), Prop("delta")))
    assert not sdelta_eval(ExistsG(Prop("p")))
    assert sdelta_eval(ExistsGInf(Prop("delta")))


def test_sdelta_agrees_with_model_checker_on_extension():
    rng = random.Random(7)
    k = figures.stuttering_example_ks()
    d, sink = deadlock_extension(k)
    for _ in range(100):
        phi = random_formula(rng, depth=2, include_delta=True,
                             include_infinity=False)
        assert sdelta_eval(phi) == check(d, sink, phi, MAX)


# --- distinguishing formulas -----------------------------------------------------

def test_distinguish_on_stuttering_example():
    k = figures.stuttering_example_ks()
    phi = distinguish(k, "t", "u", EquivVariant.DIVERGENCE_SENSITIVE)
    assert phi is not None
    assert check(k, "t", phi, MAX)
    assert not check(k, "u", phi, MAX)
    # the split is by the in-block completion bit: a globally formula on p
    assert isinstance(phi, ExistsG)
    assert sat(k, phi, MAX) == sat(k, parse_formula("EG p"), MAX)


def test_distinguish_equal_states_gives_none():
    k = figures.stuttering_example_ks()
    for v in EquivVariant:
        assert distinguish(k, "s", "s", v) is None
    assert distinguish(k, "t", "u", EquivVariant.DIVERGENCE_BLIND) is None


def test_distinguish_label_difference_is_literal():
    k = figures.stuttering_example_ks()
    phi = distinguish(k, "t", "x", EquivVariant.DIVERGENCE_BLIND)
    assert phi == Prop("p")


def test_distinguish_verified_on_random_ks():
    rng = random.Random(8)
    pairs_checked = {v: 0 for v in EquivVariant}
    for _ in range(60):
        k = random_ks(rng, max_states=6)
        for v in EquivVariant:
            part = coarsest_partition_ks(k, v)
            sem = semantics_for_variant(v)
            for s, t in itertools.combinations(k.states, 2):
                if part.same_block(s, t):
                    assert distinguish(k, s, t, v) is None
                else:
                    phi = distinguish(k, s, t, v)
                    assert phi is not None
                    assert check(k, s, phi, sem)
                    assert not check(k, t, phi, sem)
                    pairs_checked[v] += 1
    assert all(n >= 50 for n in pairs_checked.values())


def test_distinguish_on_a_long_chain():
    # one refinement round per state: deeper than Python's recursion limit
    n = 1200
    states = tuple(f"c{i}" for i in range(n))
    k = KripkeStructure(
        states, {s: {"pq"[i % 2]} for i, s in enumerate(states)},
        tuple(zip(states, states[1:])))
    phi = distinguish(k, "c0", "c2", EquivVariant.EXPLICIT_DIVERGENCE)
    holds = sat(k, phi, MAX)
    assert "c0" in holds and "c2" not in holds


def test_class_closure_smoke():
    rng = random.Random(9)
    for _ in range(10):
        k = random_ks(rng, max_states=5)
        p_ed = coarsest_partition_ks(k, EquivVariant.EXPLICIT_DIVERGENCE)
        p_db = coarsest_partition_ks(k, EquivVariant.DIVERGENCE_BLIND)
        for phi in enumerate_formulas({"p", "q"}, 1, 60):
            got = sat(k, phi, MAX)
            assert all(b <= got or not (b & got) for b in p_ed.blocks)
        for phi in enumerate_formulas({"p", "q"}, 1, 60,
                                      include_infinity=False):
            got = sat(k, phi, DB)
            assert all(b <= got or not (b & got) for b in p_db.blocks)
