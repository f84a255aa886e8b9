"""Reference computations the benchmark checks dtk's answers against.

Nothing here imports dtk.  The parsers read the same line formats dtk
writes; the checks are deliberately naive (per-state breadth-first
search, brute force, textbook fixpoints) so that they share no code and
as little design as possible with the program under test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

TAU = "tau"


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """A state graph: LTS (``labels`` None), Kripke structure (actions
    None) or doubly labelled system (both present)."""

    states: list
    succ: dict            # state -> list of (action or None, target)
    labels: dict | None   # state -> frozenset of propositions

    @property
    def transitions(self):
        return [(u, a, v) for u in self.states for (a, v) in self.succ[u]]

    def dead(self):
        return {s for s in self.states if not self.succ[s]}


def _tokens(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.replace("{", " { ").replace("}", " } ").split()


def parse_model(text: str) -> Graph:
    """Read any of the three text formats into a Graph."""
    states, succ, labels = [], {}, {}
    for tok in _tokens(text):
        if tok[0] == "state":
            s = tok[1]
            states.append(s)
            succ[s] = []
            if len(tok) > 2:
                labels[s] = frozenset(tok[3:-1])
        elif tok[0] == "trans":
            succ[tok[1]].append((tok[2], tok[3]))
        elif tok[0] == "edge":
            succ[tok[1]].append((None, tok[2]))
        else:
            raise ValueError(f"unknown directive {tok[0]!r}")
    for s in states:   # dtk drops duplicate transitions
        succ[s] = list(dict.fromkeys(succ[s]))
    if labels and len(labels) != len(states):
        raise ValueError("only some states carry labels")
    return Graph(states, succ, labels or None)


def write_lts(states, trans) -> str:
    return "".join([f"state {s}\n" for s in states]
                   + [f"trans {u} {a} {v}\n" for (u, a, v) in trans])


def write_ks(states, labels, edges) -> str:
    out = []
    for s in states:
        props = " ".join(sorted(labels[s]))
        out.append(f"state {s} {{ {props} }}\n" if props else f"state {s} {{}}\n")
    out += [f"edge {u} {v}\n" for (u, v) in edges]
    return "".join(out)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def parse_partition(stdout: str):
    """check-equiv prints one block per line, states separated by spaces."""
    return [line.split() for line in stdout.splitlines() if line.strip()]


def block_map(blocks) -> dict:
    out = {}
    for i, b in enumerate(blocks):
        for s in b:
            if s in out:
                raise ValueError(f"state {s} in two blocks")
            out[s] = i
    return out


def refines(fine, coarse) -> bool:
    """Every block of ``fine`` lies inside one block of ``coarse``."""
    of = block_map(coarse)
    return all(len({of[s] for s in b}) == 1 for b in fine)


def _silent(a):
    return a is None or a == TAU


def signatures(g: Graph, block_of: dict, variant: str) -> dict:
    """Per-state signature over a partition, one breadth-first search per
    state: the observations (action, target block) that leave the
    state's inert closure, plus the divergence bit (``ed``) or the
    completion bit (``ds``).  A step is inert when it is silent (every
    Kripke step is) and stays in the block."""
    def inert(u):
        return [v for (a, v) in g.succ[u]
                if _silent(a) and block_of[v] == block_of[u]]

    closure = {}
    for s in g.states:
        seen = {s}
        queue = deque([s])
        while queue:
            for v in inert(queue.popleft()):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        closure[s] = seen
    # u lies on an inert cycle iff an inert successor reaches u back
    on_cycle = {u for u in g.states
                if any(u in closure[v] for v in inert(u))}
    dead = g.dead()
    out = {}
    for s in g.states:
        obs = frozenset((a, block_of[v]) for u in closure[s]
                        for (a, v) in g.succ[u]
                        if not (_silent(a) and block_of[v] == block_of[s]))
        div = any(u in on_cycle for u in closure[s])
        if variant == "db":
            out[s] = (obs,)
        elif variant == "ds":
            out[s] = (obs, div or any(u in dead for u in closure[s]))
        else:
            out[s] = (obs, div)
    return out


def stable(g: Graph, blocks, variant: str) -> bool:
    """True iff the partition covers the states and every block agrees
    on labels (Kripke) and on signatures."""
    block_of = block_map(blocks)
    if set(block_of) != set(g.states):
        return False
    if g.labels is not None:
        if any(len({g.labels[s] for s in b}) > 1 for b in blocks):
            return False
    sig = signatures(g, block_of, variant)
    return all(len({sig[s] for s in b}) == 1 for b in blocks)


def naive_refinement(g: Graph, variant: str):
    """Split by signatures from the label classes (or one block) until
    nothing changes.  Returns the list of partitions, first to last."""
    if g.labels is None:
        blocks = [list(g.states)]
    else:
        groups = {}
        for s in g.states:
            groups.setdefault(g.labels[s], []).append(s)
        blocks = list(groups.values())
    history = [blocks]
    while True:
        block_of = block_map(blocks)
        sig = signatures(g, block_of, variant)
        groups = {}
        for s in g.states:
            groups.setdefault((block_of[s], sig[s]), []).append(s)
        new = list(groups.values())
        if len(new) == len(blocks):
            return history
        blocks = new
        history.append(blocks)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def brute_force_coarsest(g: Graph, variant: str):
    """Enumerate every partition of a small system and keep the coarsest
    stable one; every other stable partition must refine it."""
    if len(g.states) > 7:
        raise ValueError("brute force is meant for at most 7 states")
    found = [p for p in _set_partitions(list(g.states)) if stable(g, p, variant)]
    best = min(found, key=len)
    if not all(refines(p, best) for p in found):
        raise AssertionError("stable partitions are not closed under join")
    return best


# ---------------------------------------------------------------------------
# State formulas
# ---------------------------------------------------------------------------

_KEYWORDS = {"true", "false", "E", "EG", "EGinf", "EF", "AG", "AF", "U"}


def _lex(text):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()~&|":
            out.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_."):
                j += 1
            if j == i:
                raise ValueError(f"bad character {c!r} in formula")
            out.append(text[i:j])
            i = j
    return out


def parse_formula(text: str):
    """Formula text to nested tuples.  Sugar is expanded: EF f = E(true
    U f), AG f = ~E(true U ~f), AF f = ~EG ~f, f | g = ~(~f & ~g)."""
    toks = _lex(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take(want=None):
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r}, got {tok!r}")
        pos[0] += 1
        return tok

    def disj():
        f = conj()
        while peek() == "|":
            take()
            f = ("not", ("and", ("not", f), ("not", conj())))
        return f

    def conj():
        f = unary()
        while peek() == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = take()
        if tok == "~":
            return ("not", unary())
        if tok == "(":
            f = disj()
            take(")")
            return f
        if tok == "true":
            return ("true",)
        if tok == "false":
            return ("not", ("true",))
        if tok == "E":
            take("(")
            lhs = disj()
            take("U")
            rhs = disj()
            take(")")
            return ("EU", lhs, rhs)
        if tok == "EG":
            return ("EG", unary())
        if tok == "EGinf":
            return ("EGinf", unary())
        if tok == "EF":
            return ("EU", ("true",), unary())
        if tok == "AG":
            return ("not", ("EU", ("true",), ("not", unary())))
        if tok == "AF":
            return ("not", ("EG", ("not", unary())))
        if tok in _KEYWORDS:
            raise ValueError(f"misplaced keyword {tok!r}")
        return ("prop", tok)

    f = disj()
    if peek() is not None:
        raise ValueError(f"trailing input {peek()!r}")
    return f


class Evaluator:
    """Satisfaction sets by the textbook fixpoint characterisations.

    EU:            E(f U g) = mu Z. g | (f & EX Z)
    EG, maximal:   EG f     = nu Z. f & (dead | EX Z)
    EG, blind:     EG f     = f  (the one-state path is a path)
    EGinf:         EGinf f  = nu Z. f & EX Z
    """

    def __init__(self, g: Graph, semantics: str):
        self.g = g
        self.maximal = semantics == "max"
        self.all = frozenset(g.states)
        self.pred = {s: [] for s in g.states}
        for u in g.states:
            for (_, v) in g.succ[u]:
                self.pred[v].append(u)
        self.dead = g.dead()
        self.memo = {}

    def sat(self, f) -> frozenset:
        if f not in self.memo:
            self.memo[f] = self._sat(f)
        return self.memo[f]

    def _sat(self, f):
        op = f[0]
        if op == "true":
            return self.all
        if op == "prop":
            return frozenset(s for s in self.g.states if f[1] in self.g.labels[s])
        if op == "not":
            return self.all - self.sat(f[1])
        if op == "and":
            return self.sat(f[1]) & self.sat(f[2])
        if op == "EU":
            return self._lfp_until(self.sat(f[1]), self.sat(f[2]))
        if op == "EG":
            if not self.maximal:
                return self.sat(f[1])
            return self._gfp(self.sat(f[1]), allow_dead=True)
        if op == "EGinf":
            return self._gfp(self.sat(f[1]), allow_dead=False)
        raise ValueError(f"unknown operator {op!r}")

    def _lfp_until(self, lhs, rhs):
        found = set(rhs)
        work = list(rhs)
        while work:
            v = work.pop()
            for u in self.pred[v]:
                if u in lhs and u not in found:
                    found.add(u)
                    work.append(u)
        return frozenset(found)

    def _gfp(self, body, allow_dead):
        z = set(body)
        count = {s: sum(1 for (_, v) in self.g.succ[s] if v in z) for s in z}
        work = [s for s in z if count[s] == 0
                and not (allow_dead and s in self.dead)]
        while work:
            s = work.pop()
            if s not in z:
                continue
            z.discard(s)
            for u in self.pred[s]:
                if u in z:
                    count[u] -= 1
                    if count[u] == 0 and not (allow_dead and u in self.dead):
                        work.append(u)
        return frozenset(z)


# ---------------------------------------------------------------------------
# Doubly labelled systems
# ---------------------------------------------------------------------------

def consistency_violations(g: Graph) -> int:
    """Number of transition groups breaking the three agreement
    conditions, found by grouping rather than by comparing pairs."""
    bad = 0
    by_src_act, by_labels = {}, {}
    for (u, a, v) in g.transitions:
        lu, lv = g.labels[u], g.labels[v]
        if (lu == lv) != (a == TAU):
            bad += 1
        by_src_act.setdefault((lu, a), set()).add(lv)
        by_labels.setdefault((lu, lv), set()).add(a)
    bad += sum(1 for t in by_src_act.values() if len(t) > 1)
    bad += sum(1 for t in by_labels.values() if len(t) > 1)
    return bad


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def action_words(g: Graph, root) -> set:
    """Visible-action words of the maximal paths of an acyclic LTS."""
    memo = {}

    def words(u):
        if u not in memo:
            if not g.succ[u]:
                memo[u] = {()}
            else:
                out = set()
                for (a, v) in g.succ[u]:
                    head = () if a == TAU else (a,)
                    out |= {head + w for w in words(v)}
                memo[u] = out
        return memo[u]

    return words(root)


def shuffle(left: set, right: set) -> set:
    """All interleavings of a word of ``left`` with a word of ``right``."""
    memo = {}

    def mix(x, y):
        if not x or not y:
            return {x + y}
        key = (x, y)
        if key not in memo:
            memo[key] = ({x[:1] + w for w in mix(x[1:], y)}
                         | {y[:1] + w for w in mix(x, y[1:])})
        return memo[key]

    return {w for x in left for y in right for w in mix(x, y)}
