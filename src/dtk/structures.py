"""Core state-graph types: Kripke structures, LTSs, doubly labelled systems.

All values are immutable after construction and safe to share between
threads.  State ids are strings; declaration order is preserved and used
for every deterministic ordering in the toolkit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

TAU = "tau"
DELTA_PROP = "delta"
DUMMY_PROP = "st"

_ID_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


class FormatError(ValueError):
    """Raised for malformed model text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(ValueError):
    """Raised when a structure violates its invariants."""


def _dedup(seq):
    return tuple(dict.fromkeys(seq))


@dataclass(frozen=True)
class Adjacency:
    """Per-state successor and predecessor lists of a state graph.

    ``succ[s]`` holds ``(action, target)`` pairs and ``pred[s]`` holds
    ``(action, source)`` pairs, both in transition order, with action
    None on a Kripke structure.  ``deadlocks`` lists the states without
    successors in declaration order.  The lists are shared: read only.
    """

    succ: dict
    pred: dict
    deadlocks: tuple

    @staticmethod
    def build(states, transitions):
        succ = {s: [] for s in states}
        pred = {s: [] for s in states}
        for t in transitions:
            if len(t) == 2:
                (u, v), a = t, None
            else:
                (u, a, v) = t
            succ[u].append((a, v))
            pred[v].append((a, u))
        return Adjacency(succ, pred, tuple(s for s in states if not succ[s]))


class _StateGraph:
    """Validation and the cached adjacency index shared by the three
    structure types.  Subclasses set ``states`` and ``transitions``."""

    @cached_property
    def adjacency(self) -> Adjacency:
        return Adjacency.build(self.states, self.transitions)

    def _check_transitions(self):
        """Reject malformed steps and steps that leave the declared
        states; drop duplicates."""
        declared = set(self.states)
        trans = self.transitions
        if not ({self._step_width}.issuperset(map(len, trans))
                and declared.issuperset(map(itemgetter(0), trans))
                and declared.issuperset(map(itemgetter(-1), trans))):
            for t in trans:    # name the first offender
                if len(t) != self._step_width:
                    raise StructureError(f"malformed transition {t!r}")
                if t[0] not in declared or t[-1] not in declared:
                    raise StructureError(f"transition ({', '.join(map(str, t))})"
                                         " leaves declared states")
        object.__setattr__(self, "transitions", _dedup(trans))


class _LabelledGraph(_StateGraph):
    """A state graph with a proposition labelling; ``delta_extended``
    marks structures produced by the deadlock extension, and only those
    may carry the reserved proposition "delta"."""

    def __post_init__(self):
        object.__setattr__(self, "states", _dedup(self.states))
        labelling = {}
        for s in self.states:
            props = frozenset(self.labelling.get(s, ()))
            for p in props:
                if not isinstance(p, str) or not p:
                    raise StructureError(f"bad proposition {p!r} on state {s}")
                if p == DELTA_PROP and not self.delta_extended:
                    raise StructureError(
                        f"reserved proposition {DELTA_PROP!r} on state {s}")
            labelling[s] = props
        object.__setattr__(self, "labelling", labelling)
        self._check_transitions()

    def label(self, s):
        return self.labelling[s]


@dataclass(frozen=True)
class KripkeStructure(_LabelledGraph):
    """Finite state graph with atomic-proposition labels; may be non-total."""

    _step_width = 2
    states: tuple
    labelling: dict
    transitions: tuple
    delta_extended: bool = False

    def successors(self, s):
        return [t for (_, t) in self.adjacency.succ.get(s, ())]

    @property
    def propositions(self):
        props = set()
        for ps in self.labelling.values():
            props |= ps
        return props


@dataclass(frozen=True)
class Lts(_StateGraph):
    """Finite state graph with action-labelled transitions; "tau" is silent."""

    _step_width = 3
    states: tuple
    actions: tuple
    transitions: tuple

    def __post_init__(self):
        object.__setattr__(self, "states", _dedup(self.states))
        acts = [TAU, *self.actions, *(a for (_, a, _) in self.transitions)]
        object.__setattr__(self, "actions", _dedup(acts))
        self._check_transitions()

    def successors(self, s):
        return list(self.adjacency.succ.get(s, ()))


@dataclass(frozen=True)
class DoublyLabelledTS(_LabelledGraph):
    """State graph carrying both a state labelling and action labels."""

    _step_width = 3
    states: tuple
    labelling: dict
    transitions: tuple
    delta_extended: bool = False


@dataclass(frozen=True)
class Path:
    """A finite path or a lasso (stem + repeated cycle) of state ids.

    ``cycle`` is empty iff ``kind == "finite"``.  A finite path is maximal
    iff its last state has no outgoing transition in the host structure.
    """

    kind: str
    stem: tuple
    cycle: tuple = ()

    def __post_init__(self):
        if self.kind not in ("finite", "lasso"):
            raise StructureError(f"bad path kind {self.kind!r}")
        if not self.stem:
            raise StructureError("path stem must be nonempty")
        if (self.kind == "finite") != (len(self.cycle) == 0):
            raise StructureError("cycle must be nonempty exactly for lassos")
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "cycle", tuple(self.cycle))


def path_is_valid(g, path: Path) -> bool:
    """True iff consecutive states are related by transitions of ``g``."""
    succ = g.adjacency.succ
    seq = list(path.stem) + list(path.cycle)
    if any(s not in succ for s in seq):
        return False
    steps = list(zip(seq, seq[1:]))
    if path.kind == "lasso":
        steps.append((seq[-1], path.cycle[0]))
    return all(any(t == v for (_, t) in succ[u]) for (u, v) in steps)


def path_is_maximal(g, path: Path) -> bool:
    if path.kind == "lasso":
        return True
    return path.stem[-1] in deadlock_states(g)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the three-way label/action agreement check on a L2TS."""

    consistent: bool
    violations: tuple

    def violated_conditions(self):
        return sorted({cond for (cond, _) in self.violations})


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

def _check_id(token, line):
    if not _ID_RE.match(token):
        raise FormatError(f"bad identifier {token!r}", line)
    return token


def _check_new_ids(tokens, known, line):
    """Check, in order, the tokens not yet in ``known``, the set of ids
    already seen to be well formed, and add them to it."""
    for token in tokens:
        if token not in known:
            known.add(_check_id(token, line))


def _parse(text, edge_syntax, labelled, allow_delta=False):
    """Shared reader of the three formats, one pass over the text.

    ``edge_syntax`` is the edge directive with its operands, e.g.
    ``edge <src> <dst>``; ``labelled`` selects ``state <id> { ... }``
    over ``state <id>``.  Returns (states, labelling, edges, saw_delta).
    Each distinct id is checked against the id charset once: an edge
    whose tokens are declared states or known actions needs no check.
    """
    directive, width = edge_syntax.split()[0], len(edge_syntax.split())
    states, labelling, edges = [], {}, []
    known = set()
    saw_delta = False
    for i, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        if "{" in raw or "}" in raw:
            raw = raw.replace("{", " { ").replace("}", " } ")
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == directive:
            if len(tokens) != width:
                raise FormatError(f"expected: {edge_syntax}", i)
            edge = tuple(tokens[1:])
            if not (edge[0] in labelling and edge[-1] in labelling
                    and (width == 3 or edge[1] in known)):   # 3: no action
                _check_new_ids(edge, known, i)
                for endpoint in (edge[0], edge[-1]):
                    if endpoint not in labelling:
                        raise FormatError(f"undeclared state {endpoint!r}", i)
            edges.append(edge)
        elif tokens[0] == "state":
            if not labelled:
                if len(tokens) != 2:
                    raise FormatError("expected: state <id>", i)
                props = []
            elif len(tokens) < 4 or tokens[2] != "{" or tokens[-1] != "}":
                raise FormatError("expected: state <id> { <prop> ... }", i)
            else:
                props = tokens[3:-1]
            sid = tokens[1]
            if sid not in known or not known.issuperset(props):
                _check_new_ids([sid, *props], known, i)
            if sid in labelling:
                raise FormatError(f"duplicate state {sid!r}", i)
            if DELTA_PROP in props:
                if not allow_delta:
                    raise FormatError(
                        f"proposition {DELTA_PROP!r} is reserved", i)
                saw_delta = True
            states.append(sid)
            labelling[sid] = props
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", i)
    return tuple(states), labelling, tuple(edges), saw_delta


def parse_ks(text: str, allow_delta: bool = False) -> KripkeStructure:
    """Parse the line-oriented Kripke-structure format.

    Directives: ``state <id> { <prop> ... }`` and ``edge <src> <dst>``.
    '#' starts a comment.  The proposition "delta" is rejected unless
    ``allow_delta`` is set (for re-reading deadlock-extension output).
    """
    states, labelling, edges, saw_delta = _parse(
        text, "edge <src> <dst>", True, allow_delta)
    return KripkeStructure(states, labelling, edges, delta_extended=saw_delta)


def parse_lts(text: str) -> Lts:
    """Parse the LTS format: ``state <id>`` and ``trans <src> <action> <dst>``."""
    states, _, trans, _ = _parse(text, "trans <src> <action> <dst>", False)
    return Lts(states, (TAU,), trans)


def parse_l2ts(text: str, allow_delta: bool = False) -> DoublyLabelledTS:
    """Parse the doubly labelled format: labelled states plus ``trans`` lines."""
    states, labelling, trans, saw_delta = _parse(
        text, "trans <src> <action> <dst>", True, allow_delta)
    return DoublyLabelledTS(states, labelling, trans, delta_extended=saw_delta)


def _sanitize_ids(states):
    """Map arbitrary state ids onto the textual id charset, injectively."""
    mapping = {}
    taken = set()
    for s in states:
        candidate = re.sub(r"[^A-Za-z0-9_.]", ".", s) or "s"
        name = candidate
        k = 2
        while name in taken:
            name = f"{candidate}_{k}"
            k += 1
        taken.add(name)
        mapping[s] = name
    return mapping


def _render(g):
    """Text form: labelled or plain state lines, then an ``edge`` line per
    Kripke transition or a ``trans`` line per action transition."""
    ids = _sanitize_ids(g.states)
    labelling = getattr(g, "labelling", None)
    out = []
    for s in g.states:
        if labelling is None:
            out.append(f"state {ids[s]}")
            continue
        props = " ".join(sorted(labelling[s]))
        out.append(f"state {ids[s]} {{ {props} }}" if props
                   else f"state {ids[s]} {{}}")
    out += [f"edge {ids[t[0]]} {ids[t[1]]}" if len(t) == 2
            else f"trans {ids[t[0]]} {t[1]} {ids[t[2]]}"
            for t in g.transitions]
    return "\n".join(out) + "\n"


def render_ks(k: KripkeStructure) -> str:
    return _render(k)


def render_lts(l: Lts) -> str:
    return _render(l)


def render_l2ts(d: DoublyLabelledTS) -> str:
    return _render(d)


# ---------------------------------------------------------------------------
# Projections and checks
# ---------------------------------------------------------------------------

def associated_ks(d: DoublyLabelledTS) -> KripkeStructure:
    """Forget the action labels; duplicate edges collapse."""
    edges = tuple((u, v) for (u, a, v) in d.transitions)
    return KripkeStructure(d.states, d.labelling, edges,
                           delta_extended=d.delta_extended)


def associated_lts(d: DoublyLabelledTS) -> Lts:
    """Forget the state labelling."""
    return Lts(d.states, (TAU,), d.transitions)


def check_consistency(d: DoublyLabelledTS) -> ConsistencyReport:
    """Check the three agreement conditions between labellings.

    (i)   a step is silent iff it connects equally labelled states;
    (ii)  the source label plus the action determine the target label;
    (iii) the source and target labels determine the action.
    Every violated condition is reported with witness transitions.
    """
    lab = d.labelling
    trans = d.transitions
    violations = []
    # (ii) groups by action and source label, keyed further by target
    # label; (iii) groups by source and target label, keyed by action
    by_action = {}
    by_labels = {}
    for i, t in enumerate(trans):
        (s, a, v) = t
        if (lab[s] == lab[v]) != (a == TAU):
            violations.append(("i", (t,)))
        by_action.setdefault((a, lab[s]), {}).setdefault(lab[v], []).append(i)
        by_labels.setdefault((lab[s], lab[v]), {}).setdefault(a, []).append(i)
    pairs = [(i, j, "ii") for (i, j) in _split_pairs(by_action)]
    pairs += [(i, j, "iii") for (i, j) in _split_pairs(by_labels)]
    pairs.sort()
    violations += [(kind, (trans[i], trans[j])) for (i, j, kind) in pairs]
    return ConsistencyReport(not violations, tuple(violations))


def _split_pairs(groups):
    """Index pairs ``(i, j)``, ``i < j``, that share a group but not a
    subgroup; ``groups`` maps a key to a dict of index lists."""
    for sub in groups.values():
        parts = list(sub.values())
        for x, left in enumerate(parts):
            for right in parts[x + 1:]:
                for i in left:
                    for j in right:
                        yield (i, j) if i < j else (j, i)


def deadlock_states(g) -> set:
    """States with no outgoing transition at all."""
    return set(g.adjacency.deadlocks)


def fresh_name(base: str, taken) -> str:
    """First of base, base_0, base_1, ... not in ``taken``."""
    if base not in taken:
        return base
    i = 0
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def disjoint_union_lts(l1: Lts, l2: Lts):
    """Union of two LTSs; clashing right-hand ids get a fresh suffix.

    Returns (lts, map1, map2) where the maps send original ids to ids in
    the union.
    """
    map1 = {s: s for s in l1.states}
    taken = set(l1.states)
    map2 = {}
    for s in l2.states:
        name = fresh_name(s, taken)
        taken.add(name)
        map2[s] = name
    states = tuple(l1.states) + tuple(map2[s] for s in l2.states)
    trans = tuple(l1.transitions) + tuple(
        (map2[u], a, map2[v]) for (u, a, v) in l2.transitions)
    return Lts(states, l1.actions + l2.actions, trans), map1, map2
