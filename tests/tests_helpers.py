"""Shared helpers for the test suites."""

from hypothesis import strategies as st

from dtk.equivalences import EquivVariant, Partition, coarsest_partition
from dtk.linear import (
    DEADLOCK, DIVERGENCE, LASSO, OPEN, ColouredTrace, PAnd, PInfinity, PNot,
    PProp, PUntil, _canonical_lasso, _colouring_fn, _flatten)
from dtk.logic import TRUE, ExistsG, ExistsGInf, ExistsUntil, Not, Prop
from dtk.structures import KripkeStructure, Lts, Path, TAU


def random_lasso_ks(rng):
    """A random lasso-shaped Kripke structure and its defining path."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 3)
    states = tuple(f"n{i}" for i in range(n + m))
    labelling = {
        s: {p for p in ("p", "q") if rng.random() < 0.5} for s in states
    }
    stem = states[:n]
    cycle = states[n:]
    edges = list(zip(states, states[1:])) + [(states[-1], cycle[0])]
    k = KripkeStructure(states, labelling, tuple(edges))
    return k, Path("lasso", stem, cycle)


def random_path_formula(rng, props, depth):
    if depth == 0:
        if rng.random() < 0.2:
            return PInfinity()
        return PProp(rng.choice(props))
    kind = rng.choice(["not", "and", "until", "atom"])
    if kind == "atom":
        return random_path_formula(rng, props, 0)
    if kind == "not":
        return PNot(random_path_formula(rng, props, depth - 1))
    if kind == "and":
        return PAnd((
            random_path_formula(rng, props, depth - 1),
            random_path_formula(rng, props, depth - 1)))
    return PUntil(
        random_path_formula(rng, props, depth - 1),
        random_path_formula(rng, props, depth - 1))


_LABELS = st.sampled_from((TAU, TAU, "a", "b"))


@st.composite
def trace_graphs(draw):
    """Up to 7 states with τ-cycles, self-loops and deadlocks, or an
    acyclic chain of diamonds; an LTS or a Kripke structure."""
    if draw(st.booleans()):
        states, transitions = ["d0"], []
        for j in range(draw(st.integers(1, 3))):
            start, left, right, join = (f"d{3 * j + k}" for k in range(4))
            states += [left, right, join]
            for mid in (left, right):
                transitions += [(start, draw(_LABELS), mid),
                                (mid, draw(_LABELS), join)]
    else:
        states = [f"s{i}" for i in range(draw(st.integers(1, 7)))]
        transitions = []
        for u in states:
            shape = draw(st.sampled_from(("dead", "loop", "step", "step")))
            if shape == "dead":
                continue
            if shape == "loop":
                transitions.append((u, TAU, u))
            for _ in range(draw(st.integers(1, 2))):
                v = draw(st.sampled_from(states))
                transitions.append((u, draw(_LABELS), v))
    transitions = list(dict.fromkeys(transitions))
    if draw(st.booleans()):
        return Lts(tuple(states), (TAU,), tuple(transitions))
    labelling = {u: draw(st.sampled_from((frozenset(), frozenset({"p"}))))
                 for u in states}
    return KripkeStructure(tuple(states), labelling, tuple(dict.fromkeys(
        (u, v) for (u, _, v) in transitions)))


def name_keyed_steps(g):
    """Reference successor and predecessor maps keyed by state name, built
    from ``g.transitions``: ``succ[s]`` holds the ``(action, target)``
    pairs of the steps from ``s`` (action None on a Kripke structure) and
    ``pred[s]`` the sources of the steps into ``s``, in transition order."""
    succ = {s: [] for s in g.states}
    pred = {s: [] for s in g.states}
    for t in g.transitions:
        (u, a, v) = (t[0], None, t[1]) if len(t) == 2 else t
        succ[u].append((a, v))
        pred[v].append(u)
    return succ, pred


def every_colouring(g):
    """The trivial colouring, the labelling of a Kripke structure, and
    the coarsest partition of every variant."""
    first = ["trivial"] if isinstance(g, Lts) else ["trivial", "labelling"]
    return first + [coarsest_partition(g, v) for v in EquivVariant]


def bfs_signatures(g, part, variant):
    """Reference signatures over the colouring ``part``, one breadth-first
    search of its inert closure per state: per state name the set of
    ``(action, block id)`` observations (action None on a Kripke
    structure), whether it is divergent (explicit divergence only, else
    None) and whether it is completable (divergence sensitivity only,
    else None)."""
    succ, _ = name_keyed_steps(g)
    block_of = part.block_of

    def inert(u):
        return [v for (a, v) in succ[u]
                if a in (None, TAU) and block_of[v] == block_of[u]]

    def closure(s):
        seen, frontier = {s}, [s]
        while frontier:
            for v in inert(frontier.pop()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    out = {}
    for s in g.states:
        reach = closure(s)
        obs = {(a, block_of[v]) for u in reach for (a, v) in succ[u]
               if not (a in (None, TAU) and block_of[v] == block_of[u])}
        on_cycle = any(u in closure(w) for u in reach for w in inert(u))
        completable = on_cycle or any(not succ[u] for u in reach)
        out[s] = (frozenset(obs),
                  on_cycle if variant is EquivVariant.EXPLICIT_DIVERGENCE
                  else None,
                  completable if variant is EquivVariant.DIVERGENCE_SENSITIVE
                  else None)
    return out


def reference_history(g, variant):
    """Reference refinement rounds, each recomputing every state's
    ``bfs_signatures``: ``(partition, signatures)`` pairs, the first the
    label classes (one block on an LTS) with signatures None, each later
    one a round that split a block, with the signatures over the
    partition before it.  Partitions are canonical."""
    if isinstance(g, KripkeStructure):
        groups = {}
        for s in g.states:
            groups.setdefault(g.labelling[s], []).append(s)
        part = Partition.from_blocks(groups.values(), g.states)
    else:
        part = Partition.from_blocks([g.states], g.states)
    history = [(part, None)]
    while True:
        sigs = bfs_signatures(g, part, variant)
        groups = {}
        for s in g.states:
            groups.setdefault((part.block_of[s], sigs[s]), []).append(s)
        new = Partition.from_blocks(groups.values(), g.states)
        if len(new) == len(part):
            return history
        history.append((new, sigs))
        part = new


def path_search_traces(g, s, colouring, bound):
    """Reference: a recursive search over every maximal path, which
    consults the current path at every state (no configuration is
    skipped)."""
    colour = _colouring_fn(g, colouring)
    edges, _ = name_keyed_steps(g)
    is_lts = isinstance(g, Lts)
    emitted = set()
    open_seen = [False]
    start = colour(s)

    def emit(steps, end, cycle=()):
        items = (start,) + _flatten(steps, is_lts)
        emitted.add(ColouredTrace(items, end, _flatten(cycle, is_lts)))

    def explore(u, steps, onpath):
        if u in onpath:
            prev = onpath[u]
            if prev == len(steps):
                emit(steps, DIVERGENCE)
                return
            stem, cycle = _canonical_lasso(steps[:prev], steps[prev:])
            emit(stem, LASSO, cycle)
        if not edges[u]:
            emit(steps, DEADLOCK)
            return
        saved = onpath.get(u)
        onpath[u] = len(steps)
        for (a, v) in edges[u]:
            cv = colour(v)
            if a in (None, TAU) and cv == colour(u):
                explore(v, steps, onpath)
            elif len(steps) >= bound:
                emit(steps, OPEN)
                open_seen[0] = True
            else:
                explore(v, steps + [(a, cv)], onpath)
        if saved is None:
            del onpath[u]
        else:
            onpath[u] = saved

    explore(s, [], {})
    return emitted, not open_seen[0]


def ref_enumerate_formulas(props, depth, budget, include_infinity=True):
    """Formulas to a temporal-operator depth (at most 4), in a fixed
    order, the first ``budget`` of them: depth 0 holds ``true``, the
    propositions and their negations; each further level adds every
    until over two formulas of the levels before, then every globally
    (and infinitely-globally) over one, each followed by its negation,
    skipping formulas already listed."""
    if depth > 4:
        raise ValueError("enumeration depth is capped at 4")
    atoms = [TRUE] + [Prop(p) for p in sorted(props)]
    level = atoms + [Not(f) for f in atoms]
    out = list(level[:budget])
    seen = set(out)

    def push(f, fresh):
        if len(out) >= budget:
            return False
        if f not in seen:
            seen.add(f)
            out.append(f)
            fresh.append(f)
        return len(out) < budget

    for _ in range(depth):
        fresh = []
        more = True
        for lhs in level:
            for rhs in level:
                more = (push(ExistsUntil(lhs, rhs), fresh)
                        and push(Not(ExistsUntil(lhs, rhs)), fresh))
                if not more:
                    break
            if not more:
                break
        if more:
            for f in level:
                more = push(ExistsG(f), fresh) and push(Not(ExistsG(f)), fresh)
                if more and include_infinity:
                    more = (push(ExistsGInf(f), fresh)
                            and push(Not(ExistsGInf(f)), fresh))
                if not more:
                    break
        level = level + fresh
        if not more:
            break
    return out
