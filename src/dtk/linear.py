"""Linear-time machinery: coloured trace sets, bounded trace-equivalence
decisions, path-formula evaluation on finite maximal paths and lassos,
and the interleaving algebra on marked trace sets.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from . import equivalences
from .graphs import tarjan_cycle_states
from .structures import (
    KripkeStructure, Lts, Path, TAU, path_is_maximal, path_is_valid)

OPEN = "open"
DEADLOCK = "deadlock"
DIVERGENCE = "divergence"
LASSO = "lasso"
PREFIX = "prefix"

TRIVIAL_COLOUR = "*"


@dataclass(frozen=True)
class ColouredTrace:
    """Alternating colour/action sequence with a completion marker.

    ``items`` is ``(c0, a1, c1, ...)`` for an LTS and ``(c0, c1, ...)``
    for a Kripke structure; ``cycle`` holds the repeating steps of a
    lasso in the same flattened form.
    """

    items: tuple
    end: str
    cycle: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if self.end not in (OPEN, DEADLOCK, DIVERGENCE, LASSO, PREFIX):
            raise ValueError(f"bad end marker {self.end!r}")
        if (self.end == LASSO) != bool(self.cycle):
            raise ValueError("cycle is present exactly on lasso traces")


def _step_key(step):
    return repr(_freeze(step))


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
    cyc = list(_primitive(tuple(cycle)))
    stem = list(stem)
    while stem and stem[-1] == cyc[-1]:
        cyc.insert(0, cyc.pop())
        stem.pop()
    return tuple(stem), tuple(_primitive(tuple(cyc)))


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
    states = set(g.states)
    if s not in states:
        raise ValueError(f"unknown state {s!r}")
    colour = _colouring_fn(g, colouring)
    edges = g.adjacency.succ
    cyclic = tarjan_cycle_states(states, edges)
    is_lts = not isinstance(g, KripkeStructure)
    emitted = set()
    exhausted = True
    start = colour(s)

    def emit(steps, end, cycle=()):
        items = (start,) + _flatten(steps, is_lts)
        emitted.add(ColouredTrace(items, end, _flatten(cycle, is_lts)))

    explored = set()
    onpath = {}
    stack = [(False, s, ())]
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
        cu = colour(u)
        for (a, v) in edges[u]:
            cv = colour(v)
            if (a is None or a == TAU) and cv == cu:
                stack.append((False, v, steps))
            elif len(steps) >= bound:
                emit(steps, OPEN)
                exhausted = False
            else:
                stack.append((False, v, steps + ((a, cv),)))
    return emitted, exhausted


def coloured_traces(g, s, colouring, bound: int) -> set:
    """All contracted traces (prefixes of complete ones) of at most
    ``bound`` steps, as plain item tuples."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    colour = _colouring_fn(g, colouring)
    edges = g.adjacency.succ
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


# ---------------------------------------------------------------------------
# Trace equivalences
# ---------------------------------------------------------------------------

class TraceVariant(Enum):
    COMPLETE = "l"
    WITH_DIVERGENCE = "dl"
    WITH_DEADLOCK = "dd"


@dataclass(frozen=True)
class TraceVerdict:
    equal: bool
    exact: bool
    witness: tuple = ()

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

@dataclass(frozen=True)
class PProp:
    name: str


@dataclass(frozen=True)
class PNot:
    sub: object


@dataclass(frozen=True)
class PAnd:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class PUntil:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class PInfinity:
    pass


P_TRUE = PAnd(())


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


def eval_path_formula(k: KripkeStructure, psi, path: Path) -> bool:
    """Suffix semantics on a maximal path.

    A lasso has finitely many distinct suffixes (stem drops plus cycle
    rotations), so untils are decided by a finite scan; the infinity
    modality holds exactly on lassos.
    """
    if not path_is_valid(k, path):
        raise ValueError("path does not follow the structure's transitions")
    if not path_is_maximal(k, path):
        raise ValueError("path is not maximal")

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


def maximal_path_representatives(k: KripkeStructure, s) -> list:
    """Simple finite maximal paths and simple lassos from ``s``.

    Complete for the contracted-trace witnesses needed at small scale;
    paths revisiting a state beyond the lasso closure are not listed.
    """
    succ = k.adjacency.succ
    if not succ[s]:
        return [Path("finite", (s,))]
    out = []
    path, pos = [s], {s: 0}
    todo = [iter(succ[s])]
    while todo:
        for (_, v) in todo[-1]:
            if v in pos:
                i = pos[v]
                stem = tuple(path[:i]) if i > 0 else tuple(path)
                out.append(Path("lasso", stem, tuple(path[i:])))
            elif not succ[v]:
                out.append(Path("finite", tuple(path) + (v,)))
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

@dataclass(frozen=True)
class LtlWitness:
    """A separating path formula: every maximal path from ``holds_from``
    satisfies it, some maximal path from ``fails_from`` does not."""

    formula: object
    holds_from: str
    fails_from: str


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


def _seq_at(form, idx):
    kind = form[0]
    if kind == "fin":
        items = form[1]
        return items[idx] if idx < len(items) else None
    _, items, cycle = form
    if idx < len(items):
        return items[idx]
    return cycle[(idx - len(items)) % len(cycle)]


def _trace_form(trace: ColouredTrace):
    if trace.end == LASSO:
        return ("inf", trace.items, trace.cycle)
    return ("fin", trace.items)


def _is_infinite_path(trace: ColouredTrace) -> bool:
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
    """Shortest prefix of sequence ``r`` that is not a prefix of ``p``,
    or None when ``r`` is a prefix of (or equal to) ``p``."""
    r_len = None if r[0] == "inf" else len(r[1])
    p_len = None if p[0] == "inf" else len(p[1])
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


def distinguish_ltl(k: KripkeStructure, s, t, with_infinity: bool,
                    bound: int = 12):
    """A path formula separating two states by their complete
    label-coloured traces, or None when the bounded comparison finds no
    verified witness.

    The formula negates a conjunction of per-trace rejectors built from
    anchored nested untils over colour testers; infinity literals settle
    pure deadlock-versus-divergence differences when enabled.  The
    result is validated against enumerated maximal-path representatives
    before being returned.
    """
    occurring = {k.labelling[x] for x in k.states}
    sides = {}
    for state in (s, t):
        traces, _ = complete_traces(k, state, "labelling", bound)
        sides[state] = traces

    def witness_for(a_state, b_state):
        a_forms = {_trace_form(tr) for tr in sides[a_state]}
        for rho in sorted(sides[b_state],
                          key=lambda tr: (len(tr.items), _step_key(tr.items))):
            rho_form = _trace_form(rho)
            seq_match = [f for f in a_forms if _sequences_equal(f, rho_form)]
            if seq_match and not with_infinity:
                continue
            if seq_match:
                # only the completion kind can differ; need matching kinds
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
