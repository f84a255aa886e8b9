"""Linear-time machinery: coloured trace sets, bounded trace-equivalence
decisions, path-formula evaluation on finite maximal paths and lassos,
and the interleaving algebra on marked trace sets.

Path formulas are folded by ``logic._fold``, the walk that state
formulas use, with ``_path_children`` listing their subformulas.

A contracted trace records the colour changes (and, on an LTS, the
actions) along a path; runs of silent steps inside one colour disappear.
Completion markers tell how the underlying path ends:

* ``deadlock``   -- a finite maximal path (nothing is enabled at its end);
* ``divergence`` -- an infinite path whose contraction is finite;
* ``lasso``      -- an infinite path with an ultimately periodic
  contraction, stored canonically as stem + primitive cycle;
* ``open``       -- enumeration was truncated at the length bound;
* ``prefix``     -- an arbitrary (not necessarily complete) trace; used
  by the interleaving algebra.

``complete_traces`` is the one trace search; ``coloured_traces`` is the
step-prefix closure of its result.  A lasso's stem is as short as it can
be and its cycle is primitive, so two traces from one structure spell
the same sequence exactly when their ``items`` and ``cycle`` are equal.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from . import equivalences, logic
from .graphs import tarjan_cycle_states
from .structures import (
    KripkeStructure, Lts, Path, Value, path_is_maximal, path_is_valid)

OPEN = "open"
DEADLOCK = "deadlock"
DIVERGENCE = "divergence"
LASSO = "lasso"
PREFIX = "prefix"

TRIVIAL_COLOUR = "*"


class ColouredTrace(Value):
    """Alternating colour/action sequence with a completion marker.

    ``items`` is ``(c0, a1, c1, ...)`` for an LTS and ``(c0, c1, ...)``
    for a Kripke structure; ``cycle`` holds the repeating steps of a
    lasso in the same flattened form.
    """

    __match_args__ = ("items", "end", "cycle")

    def __init__(self, items, end, cycle=()):
        d = self.__dict__
        d["items"] = tuple(items)
        d["end"] = end
        d["cycle"] = cycle = tuple(cycle)
        if end not in (OPEN, DEADLOCK, DIVERGENCE, LASSO, PREFIX):
            raise ValueError(f"bad end marker {end!r}")
        if (end == LASSO) != bool(cycle):
            raise ValueError("cycle is present exactly on lasso traces")


def _step_key(step):
    return repr(_freeze(step))


def _trace_key(trace):
    return (len(trace.items), _step_key(trace.items), _step_key(trace.cycle),
            trace.end)


def _freeze(x):
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, tuple):
        return tuple(_freeze(i) for i in x)
    return x


def _primitive(cycle):
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def _canonical_lasso(stem, cycle):
    """Unique form of an ultimately periodic step word: shortest stem,
    primitive cycle."""
    # a rotation of a primitive word is primitive: reduce the cycle once
    cyc = list(_primitive(tuple(cycle)))
    stem = list(stem)
    while stem and stem[-1] == cyc[-1]:
        cyc.insert(0, cyc.pop())
        stem.pop()
    return tuple(stem), tuple(cyc)


def _colouring_fn(g, colouring):
    if colouring == "trivial":
        return lambda s: TRIVIAL_COLOUR
    if colouring == "labelling":
        if not isinstance(g, KripkeStructure):
            raise ValueError("labelling colouring needs a Kripke structure")
        return lambda s: g.labelling[s]
    if isinstance(colouring, equivalences.Partition):
        return lambda s: colouring.block_of[s]
    raise ValueError(f"unknown colouring {colouring!r}")


def _flatten(steps, is_lts):
    if is_lts:
        out = []
        for (a, c) in steps:
            out.extend((a, c))
        return tuple(out)
    return tuple(c for (_, c) in steps)


def complete_traces(g, s, colouring, bound: int):
    """All contracted traces of maximal paths from ``s``, up to ``bound``
    contracted steps.

    A repeat of a state with no trace progress in between yields a
    divergence-marked trace; a repeat with progress yields a canonical
    lasso and exploration continues into further unrollings until the
    bound cuts them off with an open-marked prefix.  Returns
    ``(trace set, exhausted)``; the set is exact iff ``exhausted``.

    The search runs on an explicit stack of enter frames ``(u, steps)``
    and leave frames, which restore ``onpath[u]``.  A configuration
    ``(u, steps)`` whose state lies on no cycle is explored once only.
    That is exact: if a state ``x`` on the current path were reachable
    from ``u``, then ``x`` reaches ``u`` along the path and ``u``
    reaches ``x``, so ``u`` would lie on a cycle.  Below a state on no
    cycle the search therefore never reads ``onpath`` entries made above
    it, and emits the same traces (and truncations) each time it gets
    there.  States on a cycle keep the path semantics above.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    g.check_state(s)
    index = g.index
    edges, actions = index.succ, index.actions
    # the search runs on state ids, and steps record action names
    colour = list(map(_colouring_fn(g, colouring), g.states))
    cyclic = tarjan_cycle_states(range(len(edges)), edges)
    is_lts = not isinstance(g, KripkeStructure)
    emitted = set()
    exhausted = True
    root = index.number[s]
    start = colour[root]

    def emit(steps, end, cycle=()):
        items = (start,) + _flatten(steps, is_lts)
        emitted.add(ColouredTrace(items, end, _flatten(cycle, is_lts)))

    explored = set()
    onpath = {}
    stack = [(False, root, ())]
    while stack:
        leave, u, steps = stack.pop()
        if leave:
            # ``steps`` holds the onpath entry saved on entering ``u``
            if steps is None:
                del onpath[u]
            else:
                onpath[u] = steps
            continue
        if u not in cyclic:
            if (u, steps) in explored:
                continue
            explored.add((u, steps))
            if not edges[u]:
                emit(steps, DEADLOCK)
                continue
        else:
            prev = onpath.get(u)
            if prev == len(steps):
                emit(steps, DIVERGENCE)
                continue
            if prev is not None:
                stem, cycle = _canonical_lasso(steps[:prev], steps[prev:])
                emit(stem, LASSO, cycle)
            stack.append((True, u, prev))
            onpath[u] = len(steps)
        cu = colour[u]
        for (a, v) in edges[u]:
            cv = colour[v]
            if not a and cv == cu:
                stack.append((False, v, steps))
            elif len(steps) >= bound:
                emit(steps, OPEN)
                exhausted = False
            else:
                stack.append((False, v, steps + ((actions[a], cv),)))
    return emitted, exhausted


def coloured_traces(g, s, colouring, bound: int) -> set:
    """All contracted traces (prefixes of complete ones) of at most
    ``bound`` steps, as plain item tuples: the step prefixes of
    ``complete_traces``, which unrolls every lasso up to the bound."""
    traces, _ = complete_traces(g, s, colouring, bound)
    width = 1 if isinstance(g, KripkeStructure) else 2
    return {t.items[:i] for t in traces
            for i in range(1, len(t.items) + 1, width)}


# ---------------------------------------------------------------------------
# Trace equivalences
# ---------------------------------------------------------------------------

class TraceVariant(Enum):
    COMPLETE = "l"
    WITH_DIVERGENCE = "dl"
    WITH_DEADLOCK = "dd"


class TraceVerdict(Value):
    __match_args__ = ("equal", "exact", "witness")

    def __init__(self, equal, exact, witness=()):
        d = self.__dict__
        d["equal"] = equal
        d["exact"] = exact
        d["witness"] = witness

    def __bool__(self):
        return self.equal


def _completion_forms(traces):
    """Marker-erased view: finite completions become one marker, lassos
    stay apart; open prefixes are dropped."""
    out = set()
    for t in traces:
        if t.end in (DEADLOCK, DIVERGENCE):
            out.add((t.items, "fin"))
        elif t.end == LASSO:
            out.add((t.items, "inf", t.cycle))
    return out


def trace_equiv(g, s, t, variant: TraceVariant, bound: int = 12) -> TraceVerdict:
    """Compare completion-trace sets of two states under the structure's
    natural colouring (trivial for an LTS, the labelling for a Kripke
    structure).

    The plain variant erases the deadlock/divergence distinction; the
    divergence variant additionally compares divergent traces; the
    deadlock variant keeps all markers apart.  Verdicts are exact only
    when both enumerations exhaust within the bound.
    """
    colouring = "trivial" if isinstance(g, Lts) else "labelling"
    ta, ea = complete_traces(g, s, colouring, bound)
    tb, eb = complete_traces(g, t, colouring, bound)
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
    for side, (mine, theirs), state in (("left", (va, vb), s),
                                        ("right", (vb, va), t)):
        for view_mine, view_theirs in zip(mine, theirs):
            diff = view_mine - view_theirs
            if diff:
                wit = min(diff, key=_step_key)
                return TraceVerdict(False, exact, (state, wit))
    raise AssertionError("views differ without a witness")


# ---------------------------------------------------------------------------
# Path formulas
# ---------------------------------------------------------------------------

class PProp(Value):
    __match_args__ = ("name",)


class PNot(Value):
    __match_args__ = ("sub",)


class PAnd(Value):
    __match_args__ = ("items",)

    def __init__(self, items):
        self.__dict__["items"] = tuple(items)


class PUntil(Value):
    __match_args__ = ("lhs", "rhs")


class PInfinity(Value):
    pass


P_TRUE = PAnd(())


def _path_children(f) -> tuple:
    """The subformulas of a path-formula node, in order."""
    match f:
        case PProp() | PInfinity():
            return ()
        case PNot(sub):
            return (sub,)
        case PAnd(items):
            return items
        case PUntil(lhs, rhs):
            return (lhs, rhs)
    raise ValueError(f"not a path formula: {f!r}")


def eval_path_formula(k: KripkeStructure, psi, path: Path) -> bool:
    """Suffix semantics on a maximal path.

    Every distinct subformula is labelled once at each position of the
    path, children first, by ``logic._fold``.  A lasso's last position
    steps back to its first cycle position, so an until is a backward
    scan that goes round the cycle twice: the first round settles the
    first cycle position.  The infinity modality holds exactly on lassos.
    """
    if not path_is_valid(k, path):
        raise ValueError("path does not follow the structure's transitions")
    if not path_is_maximal(k, path):
        raise ValueError("path is not maximal")
    seq = path.stem + path.cycle
    n = len(seq)
    lasso = path.kind == "lasso"
    # position i steps to nxt[i]; a finite path's last one steps to n,
    # past the end, and a lasso's back to its first cycle position
    nxt = [*range(1, n), len(path.stem) if lasso else n]
    scan = [*range(n - 1, len(path.stem) - 1, -1)] if lasso else []
    scan += range(n - 1, -1, -1)

    def label(f, kids):
        match f:
            case PProp(name):
                return [name in k.labelling[x] for x in seq]
            case PNot():
                return [not v for v in kids[0]]
            case PAnd():
                return [all(vs) for vs in zip([True] * n, *kids)]
            case PInfinity():
                return [lasso] * n
        lhs, rhs = kids
        out = [False] * (n + 1)     # out[n]: past a finite path's end
        for i in scan:
            out[i] = rhs[i] or (lhs[i] and out[nxt[i]])
        return out[:n]

    return logic._fold(psi, label, children=_path_children)[0]


def maximal_path_representatives(k: KripkeStructure, s) -> list:
    """Simple finite maximal paths and simple lassos from ``s``.

    Complete for the contracted-trace witnesses needed at small scale;
    paths revisiting a state beyond the lasso closure are not listed.
    """
    k.check_state(s)
    index = k.index
    succ = index.succ
    u = index.number[s]
    if not succ[u]:
        return [Path("finite", (s,))]

    def named(ids):
        return tuple(map(k.states.__getitem__, ids))

    out = []
    path, pos = [u], {u: 0}
    todo = [iter(succ[u])]
    while todo:
        for (_, v) in todo[-1]:
            if v in pos:
                i = pos[v]
                out.append(Path("lasso", named(path[:i] if i > 0 else path),
                                named(path[i:])))
            elif not succ[v]:
                out.append(Path("finite", named(path + [v])))
            else:
                pos[v] = len(path)
                path.append(v)
                todo.append(iter(succ[v]))
                break
        else:
            todo.pop()
            del pos[path.pop()]
    return out


# ---------------------------------------------------------------------------
# Linear-time distinguishing formulas
# ---------------------------------------------------------------------------

class LtlWitness(Value):
    """A separating path formula: every maximal path from ``holds_from``
    satisfies it, some maximal path from ``fails_from`` does not."""

    __match_args__ = ("formula", "holds_from", "fails_from")


def _colour_tester(colour, occurring):
    literals = []
    for other in sorted(occurring, key=_step_key):
        if other == colour:
            continue
        extra = sorted(colour - other)
        if extra:
            literals.append(PProp(extra[0]))
        else:
            literals.append(PNot(PProp(sorted(other - colour)[0])))
    # deduplicate; one literal can separate several colours
    literals = list(dict.fromkeys(literals))
    if len(literals) == 1:
        return literals[0]
    return PAnd(tuple(literals))


def _prefix_formula(colours, occurring):
    """Holds on exactly the paths whose contracted label sequence starts
    with ``colours``: anchored nested untils."""
    f = _colour_tester(colours[-1], occurring)
    for c in reversed(colours[:-1]):
        tester = _colour_tester(c, occurring)
        f = PAnd((tester, PUntil(tester, f)))
    return f


def _unrolled(trace: ColouredTrace, n: int) -> tuple:
    """The first ``n`` items of the trace's sequence, fewer when it is
    finite."""
    items = trace.items
    if trace.cycle and len(items) < n:
        items += trace.cycle * -(-(n - len(items)) // len(trace.cycle))
    return items[:n]


def _shortest_differing_prefix(r: ColouredTrace, p: ColouredTrace):
    """Shortest prefix of ``r``'s sequence that is not a prefix of
    ``p``'s, or None when ``r``'s is a prefix of (or equal to) ``p``'s."""
    cap = len(r.items) + len(p.items) + 2 + len(r.cycle) * len(p.cycle)
    rs, ps = _unrolled(r, cap + 1), _unrolled(p, cap + 1)
    for i, item in enumerate(rs):
        if i >= len(ps) or item != ps[i]:
            return rs[:i + 1]
    return None


def _rejector(pi: ColouredTrace, rho: ColouredTrace, occurring):
    """A path formula that holds on ``rho``'s paths and fails on
    ``pi``'s: an infinity literal when the two spell the same sequence
    and only one of them is infinite, else an anchored prefix."""
    if (pi.items, pi.cycle) == (rho.items, rho.cycle):
        return (PInfinity() if rho.end in (DIVERGENCE, LASSO)
                else PNot(PInfinity()))
    prefix = _shortest_differing_prefix(rho, pi)
    if prefix is not None:
        return _prefix_formula(prefix, occurring)
    return PNot(_prefix_formula(_shortest_differing_prefix(pi, rho),
                                occurring))


def distinguish_ltl(k: KripkeStructure, s, t, with_infinity: bool,
                    bound: int = 12):
    """A path formula separating two states by their complete
    label-coloured traces, or None when the bounded comparison finds no
    verified witness.

    The formula negates a conjunction of per-trace rejectors built from
    anchored nested untils over colour testers; infinity literals settle
    pure deadlock-versus-divergence differences when enabled.  Two traces
    have the same sequence exactly when their items and cycles are equal,
    as lassos are canonical.  The result is validated against enumerated
    maximal-path representatives before being returned.
    """
    occurring = {k.labelling[x] for x in k.states}
    # a total order that reads no hash value, so the formula is the same
    # in every process
    sides = {x: sorted(complete_traces(k, x, "labelling", bound)[0],
                       key=_trace_key) for x in (s, t)}

    def witness_for(a_state, b_state):
        # each sequence of a_state, with whether its paths are infinite
        kinds = {}
        for pi in sides[a_state]:
            kinds.setdefault((pi.items, pi.cycle), set()).add(
                pi.end in (DIVERGENCE, LASSO))
        for rho in sides[b_state]:
            infinite = rho.end in (DIVERGENCE, LASSO)
            same = kinds.get((rho.items, rho.cycle))
            if same is not None and (infinite in same or not with_infinity):
                continue
            conjuncts = list(dict.fromkeys(
                _rejector(pi, rho, occurring) for pi in sides[a_state]))
            formula = PNot(conjuncts[0] if len(conjuncts) == 1
                           else PAnd(tuple(conjuncts)))
            if _verify_witness(k, formula, a_state, b_state):
                return LtlWitness(formula, a_state, b_state)
        return None

    return witness_for(s, t) or witness_for(t, s)


def _verify_witness(k, formula, holds_from, fails_from) -> bool:
    holds_paths = maximal_path_representatives(k, holds_from)
    fail_paths = maximal_path_representatives(k, fails_from)
    if not all(eval_path_formula(k, formula, p) for p in holds_paths):
        return False
    return any(not eval_path_formula(k, formula, p) for p in fail_paths)


# ---------------------------------------------------------------------------
# Interleaving on marked trace sets
# ---------------------------------------------------------------------------

def trace_from_actions(actions, end: str = PREFIX) -> ColouredTrace:
    """A trivially coloured LTS trace from a visible action sequence."""
    items = [TRIVIAL_COLOUR]
    for a in actions:
        items.extend((a, TRIVIAL_COLOUR))
    return ColouredTrace(tuple(items), end)


def trace_actions(trace: ColouredTrace) -> tuple:
    return trace.items[1::2]


def prefix_closure(traces) -> set:
    """Every step-prefix of the given trivially coloured traces, marked
    as plain prefixes."""
    out = set()
    for t in traces:
        actions = trace_actions(t)
        for i in range(len(actions) + 1):
            out.add(trace_from_actions(actions[:i]))
    return out


def _combine_ends(e1: str, e2: str) -> str:
    for e in (e1, e2):
        if e in (LASSO, OPEN):
            raise ValueError(f"cannot interleave {e}-marked traces")
    if DIVERGENCE in (e1, e2):
        return DIVERGENCE
    if e1 == DEADLOCK and e2 == DEADLOCK:
        return DEADLOCK
    return PREFIX


def _shuffles(x: tuple, y: tuple):
    """Every interleaving of ``x`` and ``y``, one per choice of the
    positions that ``y``'s items take."""
    out = set()
    for ypos in combinations(range(len(x) + len(y)), len(y)):
        word, prev = [], 0
        for j, p in enumerate(ypos):
            word.extend(x[prev - j:p - j])
            word.append(y[j])
            prev = p + 1
        word.extend(x[prev - len(y):])
        out.add(tuple(word))
    return out


def interleave_trace_sets(a, b) -> set:
    """All interleavings of two finite sets of trivially coloured traces.

    Completion markers combine by: two deadlocks stay a deadlock, a
    divergence beside anything finite stays a divergence, and a deadlock
    beside a plain prefix is a plain prefix (the other side can still
    move).  Members may be ColouredTrace values or bare action tuples
    (read as prefixes).
    """
    def norm(x):
        return x if isinstance(x, ColouredTrace) else trace_from_actions(x)

    out = set()
    for ta in map(norm, a):
        for tb in map(norm, b):
            end = _combine_ends(ta.end, tb.end)
            for shuffled in _shuffles(trace_actions(ta), trace_actions(tb)):
                out.add(trace_from_actions(shuffled, end))
    return out
