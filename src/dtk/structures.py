"""Core state-graph types: Kripke structures, LTSs, doubly labelled systems.

All values are immutable after construction and safe to share between
threads.  State ids are strings; declaration order is preserved and used
for every deterministic ordering in the toolkit.

Model text is read and written a line at a time: ``_parse`` consumes
the lines of a text or any iterable of lines, such as a file being
read, and ``_render`` yields the lines of a structure's text form, so
the command line never holds a model's whole text.  ``parse_*`` and
``render_*`` are the library's string forms of the two.

A structure holds its steps once, in its ``StateIndex``, built with the
structure: the parser, ``compose.merge`` and the constructors feed one
assembler, ``_Steps``, that numbers the states and keeps each step as
integers, dropping a step its source already has.  ``transitions``, the
steps as tuples of ids, is derived from the index on first read; only
the consistency check, the disjoint union and equality, hashing and
printing read it.  The transformations and projections read the same
tuples one at a time (``iter_transitions``).
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import attrgetter

TAU = "tau"
DELTA_PROP = "delta"
DUMMY_PROP = "st"

_ID_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
_NON_ID_CHAR = re.compile(r"[^A-Za-z0-9_.]")


class FormatError(ValueError):
    """Raised for malformed model text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StructureError(ValueError):
    """Raised when a structure violates its invariants."""


class Value:
    """Base of the toolkit's immutable value types.

    A subclass names its fields once, in ``__match_args__``; the base
    ``__init__`` stores them, given by position or by name, in the
    instance ``__dict__``.  A subclass whose fields convert, validate or
    have defaults writes its own.  Instances are equal when their types
    and fields are, hash by type and fields, print as
    ``Name(field=value, ...)`` and refuse assignment.  The instance
    ``__dict__`` stays, so ``cached_property`` and ``copy.deepcopy`` work.
    """

    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__
        # one call reads every field (a bare value when there is one)
        cls._fields = (attrgetter(*names) if names
                       else staticmethod(lambda value: ()))
        cls._salt = hash(cls.__qualname__)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        # each field exactly once: no field missing, repeated or unknown
        if (len(args) + len(kwargs) != len(names)
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__qualname__}() takes the fields "
                            f"{', '.join(names) or 'none'}")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self)) ^ self._salt

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class StateIndex(Value):
    """A structure's states numbered ``0..n-1`` in declaration order and
    its steps over those ids: the structure's only copy of its steps.

    ``number`` maps a state to its id; ``succ[u]`` holds ``u``'s
    ``(action id, target)`` pairs without repeats, in the order they first
    occurred, and is empty iff ``u`` is a deadlock; ``actions`` lists the
    actions by id; ``sources`` lists the source of every step in the
    order the steps first occurred, so ``steps`` replays them in that
    order.  ``preds[v]``, the sources of the steps into ``v`` in that
    order, is built on first read: one flat list of sources grouped by
    target, and its offsets (``graphs.FlatLists``).  Id 0 is silent:
    "tau", or None on a Kripke structure, whose every step is silent.
    Equal pairs are one object, and so are equal ids.  ``_Steps`` builds
    the index; every engine only reads it."""

    __match_args__ = ("number", "succ", "actions", "sources")

    def steps(self):
        """Every step as ``(source, (action id, target))``, in the order
        the steps first occurred; the pairs are those of ``succ``.  The
        replay keeps a count per state, not an iterator per state."""
        succ = self.succ
        done = [0] * len(succ)
        for u in self.sources:
            i = done[u]
            done[u] = i + 1
            yield u, succ[u][i]

    @cached_property
    def preds(self):
        from .graphs import predecessors    # only the engines read preds
        return predecessors(self.succ, self.steps())


class _Steps:
    """The one assembler of a ``StateIndex``.  ``state`` numbers a state;
    ``add`` takes a step as integers and drops it when its source already
    has it, so the first occurrence stays.  The parser and the structure
    constructors (through ``extend``) feed it by ``add``, and ``merge``,
    which knows its steps are new, by ``append``."""

    # a source with this many steps checks repeats in a set, not its list
    _SCAN = 8

    def __init__(self, kripke, states=()):
        self.number = {s: u for u, s in enumerate(dict.fromkeys(states))}
        self.succ = [[] for _ in self.number]
        self.sources = []
        self.action_id = {None if kripke else TAU: 0}
        self._pairs = {}    # (action id, target) -> its one object
        self._many = {}     # source -> the set of its pairs

    def state(self, s):
        """The id of state ``s``, numbered next if it is new."""
        number = self.number
        u = number.get(s)
        if u is None:
            u = number[s] = len(number)
            self.succ.append([])
        return u

    def action(self, a):
        ids = self.action_id
        return ids.setdefault(a, len(ids))

    def append(self, u, a, v):
        """Add a step that ``u`` cannot have yet, unchecked; a source fed
        this way is never fed by ``add``."""
        pair = (a, v)
        self.succ[u].append(self._pairs.setdefault(pair, pair))
        self.sources.append(u)

    def add(self, u, a, v):
        pair = (a, v)
        pair = self._pairs.setdefault(pair, pair)
        out = self.succ[u]
        if len(out) < self._SCAN:
            if pair in out:
                return
        else:
            seen = self._many.get(u)
            if seen is None:
                seen = self._many[u] = set(out)
            if pair in seen:
                return
            seen.add(pair)
        out.append(pair)
        self.sources.append(u)

    def extend(self, transitions, width):
        """Add ``transitions``, tuples of ids; reject the first that is
        malformed or leaves the numbered states."""
        number, action, add = self.number, self.action, self.add
        for t in transitions:
            if len(t) != width:
                raise StructureError(f"malformed transition {t!r}")
            u, v = number.get(t[0]), number.get(t[-1])
            if u is None or v is None:
                raise StructureError(f"transition ({', '.join(map(str, t))})"
                                     " leaves declared states")
            add(u, 0 if width == 2 else action(t[1]), v)


class _StateGraph(Value):
    """The state index and the transitions read from it, shared by the
    three structure types.  Subclasses set ``states`` and ``index``
    through ``_index``."""

    def _index(self, states, transitions):
        """Set ``states``, repeats dropped, and the ``index`` of
        ``transitions`` over them.  ``transitions`` may instead be the
        ``_Steps`` that the parser or ``merge`` built over ``states``."""
        steps = transitions
        if not isinstance(steps, _Steps):
            steps = _Steps(self._step_width == 2, states)
            steps.extend(transitions, self._step_width)
        d = self.__dict__
        d["states"] = tuple(steps.number)
        d["index"] = StateIndex(steps.number, steps.succ,
                                list(steps.action_id), steps.sources)

    def iter_transitions(self):
        """The transitions one at a time, as ``transitions`` lists them,
        without building or keeping that tuple."""
        states, index = self.states, self.index
        if self._step_width == 2:
            return ((states[u], states[v]) for u, (_, v) in index.steps())
        actions = index.actions
        return ((states[u], actions[a], states[v])
                for u, (a, v) in index.steps())

    @cached_property
    def transitions(self):
        """Every step as a tuple of ids, ``(source, target)`` on a Kripke
        structure and ``(source, action, target)`` otherwise, in the order
        the steps first occurred.  Built from the index on first read and
        kept; the engines read the index instead."""
        return tuple(self.iter_transitions())

    def check_state(self, x):
        """Raise ValueError unless ``x`` is a declared state."""
        if x not in self.index.number:
            raise ValueError(f"unknown state {x!r}")


class _LabelledGraph(_StateGraph):
    """A state graph with a proposition labelling, one frozenset per
    distinct label set; ``delta_extended`` marks structures produced by
    the deadlock extension, and only those may carry the reserved
    proposition "delta"."""

    __match_args__ = ("states", "labelling", "transitions", "delta_extended")

    def __init__(self, states, labelling, transitions, delta_extended=False):
        self._index(states, transitions)
        props_of = {}
        shared = {}     # each distinct label set, checked once, one object
        for s in self.states:
            props = frozenset(labelling.get(s, ()))
            if props not in shared:
                for p in props:
                    if not isinstance(p, str) or not p:
                        raise StructureError(
                            f"bad proposition {p!r} on state {s}")
                    if p == DELTA_PROP and not delta_extended:
                        raise StructureError(
                            f"reserved proposition {DELTA_PROP!r} on state {s}")
                shared[props] = props
            props_of[s] = shared[props]
        d = self.__dict__
        d["labelling"] = props_of
        d["delta_extended"] = delta_extended


class KripkeStructure(_LabelledGraph):
    """Finite state graph with atomic-proposition labels; may be non-total."""

    _step_width = 2


class Lts(_StateGraph):
    """Finite state graph with action-labelled transitions; "tau" is silent."""

    _step_width = 3
    __match_args__ = ("states", "actions", "transitions")

    def __init__(self, states, actions, transitions):
        self._index(states, transitions)
        self.__dict__["actions"] = tuple(dict.fromkeys(
            [TAU, *actions, *self.index.actions]))


class DoublyLabelledTS(_LabelledGraph):
    """State graph carrying both a state labelling and action labels."""

    _step_width = 3


class Path(Value):
    """A finite path or a lasso (stem + repeated cycle) of state ids.

    ``cycle`` is empty iff ``kind == "finite"``.  A finite path is maximal
    iff its last state has no outgoing transition in the host structure.
    """

    __match_args__ = ("kind", "stem", "cycle")

    def __init__(self, kind, stem, cycle=()):
        if kind not in ("finite", "lasso"):
            raise StructureError(f"bad path kind {kind!r}")
        if not stem:
            raise StructureError("path stem must be nonempty")
        if (kind == "finite") != (len(cycle) == 0):
            raise StructureError("cycle must be nonempty exactly for lassos")
        d = self.__dict__
        d["kind"] = kind
        d["stem"] = tuple(stem)
        d["cycle"] = tuple(cycle)


def path_is_valid(g, path: Path) -> bool:
    """True iff consecutive states are related by transitions of ``g``."""
    number, succ = g.index.number, g.index.succ
    seq = path.stem + path.cycle
    if any(s not in number for s in seq):
        return False
    seq = [number[s] for s in seq]
    if path.kind == "lasso":    # the last state steps back into the cycle
        seq.append(seq[len(path.stem)])
    return all(any(t == v for (_, t) in succ[u])
               for (u, v) in zip(seq, seq[1:]))


def path_is_maximal(g, path: Path) -> bool:
    if path.kind == "lasso":
        return True
    index = g.index
    u = index.number.get(path.stem[-1])
    return u is not None and not index.succ[u]


class ConsistencyReport(Value):
    """Outcome of the three-way label/action agreement check on a L2TS."""

    __match_args__ = ("consistent", "violations")

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
    """Check, in order, the tokens not yet in ``known``, which maps every
    id already seen to be well formed to its first string object, and
    add them to it."""
    for token in tokens:
        if token not in known:
            known[token] = _check_id(token, line)


# kind -> (edge directive with its operands, labelled state lines)
_FORMATS = {"ks": ("edge <src> <dst>", True),
            "lts": ("trans <src> <action> <dst>", False),
            "l2ts": ("trans <src> <action> <dst>", True)}


def _parse(text, kind, allow_delta=False):
    """Shared reader of the three formats, one pass over the lines.

    ``text`` is the whole model text, split here by ``str.splitlines``,
    or an iterable of its lines as that split gives them, with or without
    their line breaks, so a file can be read as it is parsed.  Line
    numbers count the lines.  ``kind`` names the format; its edge syntax
    is e.g. ``edge <src> <dst>``, and a labelled format reads
    ``state <id> { ... }`` where the others read ``state <id>``.  Each
    distinct id is checked against the id charset once: an edge whose
    tokens are declared states or known actions needs no check.  A
    declared state is numbered at once, and every edge goes straight
    into the structure's ``StateIndex`` as integers; no edge tuple is
    built.  Ids are interned: a state is its declared string object, an
    action its first.
    """
    edge_syntax, labelled = _FORMATS[kind]
    directive, width = edge_syntax.split()[0], len(edge_syntax.split())
    steps = _Steps(kind == "ks")
    labelling = {}
    known = {}      # every well-formed id seen -> its first string object
    number = steps.number       # every declared state id -> its number
    state, action, add = number.get, steps.action_id.get, steps.add
    saw_delta = False
    lines = text.splitlines() if isinstance(text, str) else text
    for i, raw in enumerate(lines, start=1):
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
            # None marks an undeclared state or an action not seen yet
            u, v = state(tokens[1]), state(tokens[-1])
            a = action(tokens[2]) if width == 4 else 0
            if u is None or v is None or a is None:
                _check_new_ids(tokens[1:], known, i)
                for endpoint in (tokens[1], tokens[-1]):
                    if endpoint not in number:
                        raise FormatError(f"undeclared state {endpoint!r}", i)
                u, v = number[tokens[1]], number[tokens[-1]]
                if a is None:
                    a = steps.action(known[tokens[2]])
            add(u, a, v)
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
            if sid not in known or not all(map(known.__contains__, props)):
                _check_new_ids([sid, *props], known, i)
            if sid in number:
                raise FormatError(f"duplicate state {sid!r}", i)
            if DELTA_PROP in props:
                if not allow_delta:
                    raise FormatError(
                        f"proposition {DELTA_PROP!r} is reserved", i)
                saw_delta = True
            sid = known[sid]
            steps.state(sid)
            if labelled:
                labelling[sid] = props
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", i)
    if kind == "lts":
        return Lts(number, (TAU,), steps)
    graph = KripkeStructure if kind == "ks" else DoublyLabelledTS
    return graph(number, labelling, steps, delta_extended=saw_delta)


def parse_ks(text, allow_delta: bool = False) -> KripkeStructure:
    """Parse the line-oriented Kripke-structure format.

    Directives: ``state <id> { <prop> ... }`` and ``edge <src> <dst>``.
    '#' starts a comment.  The proposition "delta" is rejected unless
    ``allow_delta`` is set (for re-reading deadlock-extension output).
    ``text`` is the model text or an iterable of its lines.
    """
    return _parse(text, "ks", allow_delta)


def parse_lts(text) -> Lts:
    """Parse the LTS format: ``state <id>`` and ``trans <src> <action> <dst>``."""
    return _parse(text, "lts")


def parse_l2ts(text, allow_delta: bool = False) -> DoublyLabelledTS:
    """Parse the doubly labelled format: labelled states plus ``trans`` lines."""
    return _parse(text, "l2ts", allow_delta)


def _sanitize_ids(states):
    """Map arbitrary state ids onto the textual id charset, injectively:
    the mapped ids, in the order of ``states``."""
    names = []
    taken = {}  # the names given: a dict, whose table is a set's half
    for s in states:
        candidate = _NON_ID_CHAR.sub(".", s) or "s"
        name = candidate
        k = 2
        while name in taken:
            name = f"{candidate}_{k}"
            k += 1
        taken[name] = None
        names.append(name)
    return names


def _render(g):
    """Yield the text form line by line, each line with its line break:
    labelled or plain state lines, then an ``edge`` line per Kripke
    transition or a ``trans`` line per action transition, read off the
    index in transition order.  A structure without states is one empty
    line.  The CLI writes the lines as they come; ``render_*`` join
    them."""
    names = _sanitize_ids(g.states)     # by state id
    labelling = getattr(g, "labelling", None)
    if not g.states:
        yield "\n"
    for s, name in zip(g.states, names):
        if labelling is None:
            yield f"state {name}\n"
            continue
        props = " ".join(sorted(labelling[s]))
        yield (f"state {name} {{ {props} }}\n" if props
               else f"state {name} {{}}\n")
    actions = g.index.actions    # by id
    edges = g._step_width == 2
    for u, (a, v) in g.index.steps():
        yield (f"edge {names[u]} {names[v]}\n" if edges
               else f"trans {names[u]} {actions[a]} {names[v]}\n")


def render_ks(g) -> str:
    """The text form of any structure, as one string."""
    return "".join(_render(g))


# the names of the structure kinds, which the benchmark's tracer wraps
render_lts = render_l2ts = render_ks


# ---------------------------------------------------------------------------
# Projections and checks
# ---------------------------------------------------------------------------

def associated_ks(d: DoublyLabelledTS) -> KripkeStructure:
    """Forget the action labels; duplicate edges collapse."""
    edges = ((u, v) for (u, _, v) in d.iter_transitions())
    return KripkeStructure(d.states, d.labelling, edges,
                           delta_extended=d.delta_extended)


def associated_lts(d: DoublyLabelledTS) -> Lts:
    """Forget the state labelling."""
    return Lts(d.states, (TAU,), d.iter_transitions())


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


def deadlock_states(g) -> list:
    """States with no outgoing transition at all, in declaration order."""
    return [s for s, out in zip(g.states, g.index.succ) if not out]


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

    Returns (lts, map2): the left ids stay, and ``map2`` sends each
    right-hand id to its id in the union.
    """
    taken = set(l1.states)
    map2 = {}
    for s in l2.states:
        name = fresh_name(s, taken)
        taken.add(name)
        map2[s] = name
    states = tuple(l1.states) + tuple(map2[s] for s in l2.states)
    trans = tuple(l1.transitions) + tuple(
        (map2[u], a, map2[v]) for (u, a, v) in l2.transitions)
    return Lts(states, l1.actions + l2.actions, trans), map2
