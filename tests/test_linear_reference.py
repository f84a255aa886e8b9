"""Differential tests of the linear-time layer against recursive references.

The references below are the code that the one trace search and the
bottom-up path labelling replaced: a second search for coloured traces,
a recursive path-formula evaluator over suffix paths, and the tuple
trace forms that ``distinguish_ltl`` compared with their own sequence
equality.  ``trace_equiv`` is checked against its own steps run on the
recursive path search of ``tests_helpers``.  The references recurse, so
they only see small inputs here: generated cyclic and acyclic systems
under every colouring.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dtk.linear import (
    DEADLOCK,
    DIVERGENCE,
    LASSO,
    LtlWitness,
    PAnd,
    PInfinity,
    PNot,
    PProp,
    PUntil,
    TraceVariant,
    TraceVerdict,
    _colouring_fn,
    _completion_forms,
    _flatten,
    _prefix_formula,
    _step_key,
    coloured_traces,
    complete_traces,
    distinguish_ltl,
    eval_path_formula,
    maximal_path_representatives,
    trace_equiv,
)
from dtk.structures import (
    KripkeStructure, Lts, Path, TAU, path_is_maximal, path_is_valid)
from tests_helpers import (
    every_colouring, name_keyed_steps, path_search_traces, trace_graphs)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _coloured_traces(g, s, colouring, bound):
    """Every contracted trace of at most ``bound`` steps, by its own
    search over (state, trace so far) configurations."""
    colour = _colouring_fn(g, colouring)
    edges, _ = name_keyed_steps(g)
    is_lts = not isinstance(g, KripkeStructure)
    start = colour(s)
    seen_configs = set()
    out = set()
    stack = [(s, ())]
    while stack:
        (u, steps) = stack.pop()
        if (u, steps) in seen_configs:
            continue
        seen_configs.add((u, steps))
        out.add((start,) + _flatten(steps, is_lts))
        for (a, v) in edges[u]:
            cv = colour(v)
            silent = (a is None) or a == TAU
            if silent and cv == colour(u):
                stack.append((v, steps))
            elif len(steps) < bound:
                stack.append((v, steps + ((a, cv),)))
    return out


def _suffixes(path: Path):
    if path.kind == "finite":
        return [Path("finite", path.stem[i:]) for i in range(len(path.stem))]
    out = [Path("lasso", path.stem[i:], path.cycle)
           for i in range(len(path.stem))]
    cyc = list(path.cycle)
    for j in range(len(cyc)):
        rotated = tuple(cyc[j + 1:] + cyc[:j + 1])
        out.append(Path("lasso", (cyc[j],), rotated))
    return out


def _eval_path_formula(k, psi, path: Path) -> bool:
    assert path_is_valid(k, path) and path_is_maximal(k, path)

    def ev(f, p: Path):
        match f:
            case PProp(name):
                return name in k.labelling[p.stem[0]]
            case PNot(sub):
                return not ev(sub, p)
            case PAnd(items):
                return all(ev(g, p) for g in items)
            case PInfinity():
                return p.kind == "lasso"
            case PUntil(lhs, rhs):
                sufs = _suffixes(p)
                for i, suf in enumerate(sufs):
                    if ev(rhs, suf):
                        if all(ev(lhs, before) for before in sufs[:i]):
                            return True
                return False
        raise ValueError(f"not a path formula: {f!r}")

    return ev(psi, path)


def _seq_at(form, idx):
    kind = form[0]
    if kind == "fin":
        items = form[1]
        return items[idx] if idx < len(items) else None
    _, items, cycle = form
    if idx < len(items):
        return items[idx]
    return cycle[(idx - len(items)) % len(cycle)]


def _trace_form(trace):
    if trace.end == LASSO:
        return ("inf", trace.items, trace.cycle)
    return ("fin", trace.items)


def _is_infinite_path(trace) -> bool:
    return trace.end in (DIVERGENCE, LASSO)


def _sequences_equal(a, b) -> bool:
    la = len(a[1]) + (len(a[2]) if a[0] == "inf" else 0)
    lb = len(b[1]) + (len(b[2]) if b[0] == "inf" else 0)
    if (a[0] == "fin") != (b[0] == "fin"):
        return False
    if a[0] == "fin":
        return a[1] == b[1]
    cap = la + lb + len(a[2]) * len(b[2]) + 2
    return all(_seq_at(a, i) == _seq_at(b, i) for i in range(cap))


def _shortest_differing_prefix(r, p):
    r_len = None if r[0] == "inf" else len(r[1])
    cap = len(r[1]) + len(p[1]) + 2
    if r[0] == "inf" and p[0] == "inf":
        cap += len(r[2]) * len(p[2])
    idx = 0
    while True:
        if r_len is not None and idx >= r_len:
            return None
        rc = _seq_at(r, idx)
        pc = _seq_at(p, idx)
        if pc is None or rc != pc:
            return tuple(_seq_at(r, i) for i in range(idx + 1))
        idx += 1
        if idx > cap:
            return None


def _distinguish_ltl(k, s, t, with_infinity, bound):
    occurring = {k.labelling[x] for x in k.states}
    sides = {}
    for state in (s, t):
        traces, _ = complete_traces(k, state, "labelling", bound)
        # conjuncts follow the traces in this order, not in hash order
        sides[state] = sorted(traces, key=lambda tr: (
            len(tr.items), _step_key(tr.items), _step_key(tr.cycle), tr.end))

    def verified(formula, holds_from, fails_from):
        holds = maximal_path_representatives(k, holds_from)
        fails = maximal_path_representatives(k, fails_from)
        return (all(_eval_path_formula(k, formula, p) for p in holds)
                and any(not _eval_path_formula(k, formula, p) for p in fails))

    def witness_for(a_state, b_state):
        a_forms = {_trace_form(tr) for tr in sides[a_state]}
        for rho in sorted(sides[b_state],
                          key=lambda tr: (len(tr.items), _step_key(tr.items))):
            rho_form = _trace_form(rho)
            seq_match = [f for f in a_forms if _sequences_equal(f, rho_form)]
            if seq_match and not with_infinity:
                continue
            if seq_match:
                if any(_is_infinite_path(tr) == _is_infinite_path(rho)
                       and _sequences_equal(_trace_form(tr), rho_form)
                       for tr in sides[a_state]):
                    continue
            conjuncts = []
            ok = True
            for pi in sides[a_state]:
                pi_form = _trace_form(pi)
                if _sequences_equal(pi_form, rho_form):
                    if not with_infinity:
                        ok = False
                        break
                    conjuncts.append(
                        PInfinity() if _is_infinite_path(rho)
                        else PNot(PInfinity()))
                    continue
                prefix = _shortest_differing_prefix(rho_form, pi_form)
                if prefix is not None:
                    conjuncts.append(_prefix_formula(prefix, occurring))
                    continue
                prefix = _shortest_differing_prefix(pi_form, rho_form)
                if prefix is None:
                    ok = False
                    break
                conjuncts.append(PNot(_prefix_formula(prefix, occurring)))
            if not ok:
                continue
            conjuncts = list(dict.fromkeys(conjuncts))
            if not conjuncts:
                continue
            formula = PNot(conjuncts[0] if len(conjuncts) == 1
                           else PAnd(tuple(conjuncts)))
            if verified(formula, a_state, b_state):
                return LtlWitness(formula, a_state, b_state)
        return None

    return witness_for(s, t) or witness_for(t, s)


def _trace_equiv(g, s, t, variant, bound):
    colouring = "trivial" if isinstance(g, Lts) else "labelling"
    ta, ea = path_search_traces(g, s, colouring, bound)
    tb, eb = path_search_traces(g, t, colouring, bound)
    exact = ea and eb

    def views(traces):
        base = _completion_forms(traces)
        if variant is TraceVariant.COMPLETE:
            return (base,)
        div = frozenset(t.items for t in traces if t.end == DIVERGENCE)
        if variant is TraceVariant.WITH_DIVERGENCE:
            return (base, div)
        dl = frozenset(t.items for t in traces if t.end == DEADLOCK)
        return (base, div, dl)

    va, vb = views(ta), views(tb)
    if va == vb:
        return TraceVerdict(True, exact)
    for (mine, theirs), state in (((va, vb), s), ((vb, va), t)):
        for view_mine, view_theirs in zip(mine, theirs):
            diff = view_mine - view_theirs
            if diff:
                return TraceVerdict(False, exact,
                                    (state, min(diff, key=_step_key)))
    raise AssertionError("views differ without a witness")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_LABELS = st.sampled_from(
    (frozenset(), frozenset({"p"}), frozenset({"q"}), frozenset({"p", "q"})))


@st.composite
def kripke_structures(draw):
    """The shapes of ``trace_graphs`` as Kripke structures over p and q."""
    g = draw(trace_graphs())
    edges = tuple(dict.fromkeys((t[0], t[-1]) for t in g.transitions))
    return KripkeStructure(g.states, {s: draw(_LABELS) for s in g.states},
                           edges)


def _compound(kids):
    return st.one_of(
        kids.map(PNot),
        st.lists(kids, max_size=3).map(lambda items: PAnd(tuple(items))),
        st.tuples(kids, kids).map(lambda pair: PUntil(*pair)),
        # one node shared by three parents
        kids.map(lambda f: PAnd((f, PUntil(f, PNot(f))))))


path_formulas = st.recursive(
    st.sampled_from((PProp("p"), PProp("q"), PInfinity())), _compound,
    max_leaves=12)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(trace_graphs(), st.data())
def test_coloured_traces_match_reference(g, data):
    s = data.draw(st.sampled_from(g.states))
    bound = data.draw(st.integers(1, 5))
    for colouring in every_colouring(g):
        assert (coloured_traces(g, s, colouring, bound)
                == _coloured_traces(g, s, colouring, bound))


@settings(max_examples=300, deadline=None)
@given(kripke_structures(), st.lists(path_formulas, min_size=1, max_size=4))
def test_eval_path_formula_matches_reference(k, formulas):
    for s in k.states:
        for path in maximal_path_representatives(k, s):
            for psi in formulas:
                assert (eval_path_formula(k, psi, path)
                        == _eval_path_formula(k, psi, path))


@settings(max_examples=200, deadline=None)
@given(kripke_structures(), st.data())
def test_distinguish_ltl_matches_reference(k, data):
    s = data.draw(st.sampled_from(k.states))
    t = data.draw(st.sampled_from(k.states))
    bound = data.draw(st.integers(2, 7))
    for with_infinity in (False, True):
        assert (repr(distinguish_ltl(k, s, t, with_infinity, bound))
                == repr(_distinguish_ltl(k, s, t, with_infinity, bound)))


@settings(max_examples=300, deadline=None)
@given(trace_graphs(), st.data())
def test_trace_equiv_matches_reference(g, data):
    s = data.draw(st.sampled_from(g.states))
    t = data.draw(st.sampled_from(g.states))
    bound = data.draw(st.integers(1, 6))
    for variant in TraceVariant:
        assert (trace_equiv(g, s, t, variant, bound)
                == _trace_equiv(g, s, t, variant, bound))
