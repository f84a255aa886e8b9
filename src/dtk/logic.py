"""State formulas and their fixpoint model checking.

The formula language is the until/always fragment without a next-state
operator, extended with an "infinite globally" quantifier that demands a
genuinely infinite witness path.  Two semantics are supported:

* ``MAXIMAL_PATH``: path quantifiers range over maximal paths, so a
  deadlocking finite path can witness an always-formula;
* ``DIVERGENCE_BLIND``: quantifiers range over arbitrary paths; since
  the one-state path always qualifies, ``EG phi`` collapses to ``phi``.

Existential until has the same least-fixpoint semantics either way
(every finite path extends to a maximal one).

Every walk over a formula is one ``_fold``: a post-order walk on an
explicit stack that calls a per-node ``visit`` once per distinct
subformula, shared or an equal copy, with the values of its children.
``_children`` alone lists the subformulas of each state-formula kind;
``linear`` folds its path formulas with the same walk and its own
children function.  The parser is one loop over the tokens, so no
formula is too deep for either.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import reduce
from itertools import chain, islice

from . import equivalences
from .graphs import backward_reach, tarjan_cycle_states
from .structures import DELTA_PROP, KripkeStructure, Value


class FormulaError(ValueError):
    pass


class Prop(Value):
    __match_args__ = ("name",)


class _Unary(Value):
    __match_args__ = ("sub",)


class Not(_Unary):
    pass


class And(Value):
    __match_args__ = ("items",)

    def __init__(self, items):
        self.__dict__["items"] = tuple(items)


class ExistsUntil(Value):
    __match_args__ = ("lhs", "rhs")


class ExistsG(_Unary):
    pass


class ExistsGInf(_Unary):
    pass


TRUE = And(())
FALSE = Not(TRUE)


def _new(kind, *args):
    """A new node: ``args`` are an And's items, else its fields."""
    return kind(args) if kind is And else kind(*args)


# the sugar, over a node constructor such as ``_new``
def _or(node, a, b):
    return node(Not, node(And, node(Not, a), node(Not, b)))


def _all_g(node, sub):
    return node(Not, node(ExistsUntil, TRUE, node(Not, sub)))


def Or(a, b):
    return _or(_new, a, b)


class Semantics(Enum):
    DIVERGENCE_BLIND = "db"
    MAXIMAL_PATH = "max"


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------

def _children(f) -> tuple:
    """The subformulas of a node, in order."""
    match f:
        case Prop():
            return ()
        case And(items):
            return items
        case ExistsUntil(lhs, rhs):
            return (lhs, rhs)
        case Not(sub) | ExistsG(sub) | ExistsGInf(sub):
            return (sub,)
    raise FormulaError(f"not a state formula: {f!r}")


def _fold(phi, visit, memo=None, children=_children):
    """``visit(node, values of its children)`` at ``phi``, children first;
    ``children`` lists a node's subformulas.

    A node's key is its kind and its children's numbers (a leaf's is its
    kind and its fields, so a proposition's is its name), so ``visit``
    runs once per distinct subformula and no lookup hashes a formula.
    ``memo`` maps a key to ``(number, value)`` and ``id(node)`` to
    ``(number, value, node)``; holding the node keeps its id from being
    reused.  Folds with one ``visit`` may share a memo.
    """
    memo = {} if memo is None else memo
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in memo:
            stack.pop()
            continue
        kids = children(f)
        todo = [c for c in kids if id(c) not in memo]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        key = ((type(f), *(memo[id(c)][0] for c in kids)) if kids
               else (type(f), f._fields(f)))
        found = memo.get(key)
        if found is None:
            found = memo[key] = (
                len(memo), visit(f, [memo[id(c)][1] for c in kids]))
        memo[id(f)] = found + (f,)
    return memo[id(phi)][1]


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([()~&|]|[\w.]+)|\S")   # a token, or a bad character
_KEYWORDS = {"true", "false", "E", "EG", "EGinf", "EF", "AG", "AF", "U"}
_CONSTANTS = {"true": TRUE, "false": FALSE}
_PREFIXES = {
    "~": lambda node, f: node(Not, f),
    "EG": lambda node, f: node(ExistsG, f),
    "EGinf": lambda node, f: node(ExistsGInf, f),
    "AG": _all_g,
    "EF": lambda node, f: node(ExistsUntil, TRUE, f),
    "AF": lambda node, f: node(Not, node(ExistsG, node(Not, f))),
}


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[1] is None:
            raise FormulaError(
                f"unexpected character {m[0]!r} at position {m.start()}")
        tokens.append((m[1], m.start()))
    tokens.append((None, len(text)))
    return tokens


def _shown(tok):
    """A token as an error message names it; None ends the input."""
    return "end of input" if tok is None else repr(tok)


class _Group:
    """An open group: the whole text, ``( ... )``, or one side of
    ``E ( ... U ... )``."""

    def __init__(self, closer, lhs=None):
        self.closer = closer    # the token that ends it; None: the end
        self.lhs = lhs          # set on the right side of an until
        self.terms = [[]]       # the conjuncts of each disjunct
        self.prefixes = []      # operators awaiting their operand


def parse_formula(text: str):
    """Parse the ASCII grammar; EF/AG/AF, "false" and "|" are sugar.

    ``&`` binds tighter than ``|``, which groups to the left; a prefix
    operator applies to the operand after it.  The result is a DAG: equal
    subformulas are one node, found as they are built by their kind and
    their children's ids (a proposition by its name).
    """
    made = {(And,): TRUE, (Not, id(TRUE)): FALSE}
    props = {}

    def node(kind, *kids):
        key = ((kind, id(kids[0])) if len(kids) == 1
               else (kind, *map(id, kids)))
        found = made.get(key)
        if found is None:
            found = made[key] = _new(kind, *kids)
        return found

    tokens = iter(_tokenize(text))
    stack = [_Group(None)]
    phi = None          # an operand read, waiting for the token after it
    for tok, at in tokens:
        group = stack[-1]
        if phi is None:
            if tok in _PREFIXES:
                group.prefixes.append(_PREFIXES[tok])
            elif tok == "(":
                stack.append(_Group(")"))
            elif tok == "E":
                tok, at = next(tokens)
                if tok != "(":
                    raise FormulaError(
                        f"expected '(' at position {at}, got {_shown(tok)}")
                stack.append(_Group("U"))
            elif tok in _CONSTANTS:
                phi = _CONSTANTS[tok]
            elif tok is None:
                raise FormulaError(f"unexpected end of input at position {at}")
            elif tok in _KEYWORDS:
                raise FormulaError(f"misplaced keyword {tok!r} at position {at}")
            elif tok in (")", "&", "|"):
                raise FormulaError(f"unexpected {tok!r} at position {at}")
            else:
                phi = props.get(tok)
                if phi is None:
                    phi = props[tok] = Prop(tok)
            continue
        while group.prefixes:
            phi = group.prefixes.pop()(node, phi)
        group.terms[-1].append(phi)
        phi = None
        if tok == "&":
            continue
        if tok == "|":
            group.terms.append([])
            continue
        if tok != group.closer:
            if group.closer is None:
                raise FormulaError(f"trailing input at position {at}: {tok!r}")
            raise FormulaError(
                f"expected {group.closer!r} at position {at}, "
                f"got {_shown(tok)}")
        stack.pop()
        phi = reduce(lambda a, b: _or(node, a, b),
                     (c[0] if len(c) == 1 else node(And, *c)
                      for c in group.terms))
        if group.closer is None:
            return phi
        if group.closer == "U":
            stack.append(_Group(")", lhs=phi))
            phi = None
        elif group.lhs is not None:
            phi = node(ExistsUntil, group.lhs, phi)


def _render(f, kids):
    """A node's text as a rope: a string, or a tuple of strings and the
    ropes of its children, so no value copies a child's text."""
    match f:
        case Prop(name):
            return name
        case And():
            pieces = [p for kid in kids for p in (" & ", kid)]
            return ("(", *pieces[1:], ")") if kids else "true"
        case Not():
            return ("~", kids[0])
        case ExistsUntil():
            return ("E (", kids[0], " U ", kids[1], ")")
    # EG or EGinf; an until or globally body is parenthesised
    body = (kids[0] if isinstance(f.sub, (Prop, And, Not))
            else ("(", kids[0], ")"))
    return ("EG " if type(f) is ExistsG else "EGinf ", body)


def _flatten(rope) -> str:
    """The text of a rope.  A rope met more than once is joined once and
    its text reused, as the shared subformula it renders; any other is
    expanded into its parent's pieces, so no text is copied into every
    ancestor's.  One walk lists the ropes, each after the ropes inside
    it, and counts each rope's uses."""
    if type(rope) is str:
        return rope
    uses = {}   # id of a rope -> how often the distinct ropes hold it
    order, seen, stack = [], set(), [(rope, False)]
    while stack:
        r, done = stack.pop()
        if done:
            order.append(r)
        elif id(r) not in seen:
            seen.add(id(r))
            stack.append((r, True))
            for part in r:
                if type(part) is not str:
                    uses[id(part)] = uses.get(id(part), 0) + 1
                    stack.append((part, False))
    texts = {}   # id of a shared rope -> its text

    def join(r):
        pieces, todo = [], list(reversed(r))
        while todo:
            part = todo.pop()
            if type(part) is str:
                pieces.append(part)
            elif id(part) in texts:
                pieces.append(texts[id(part)])
            else:
                todo.extend(reversed(part))
        return "".join(pieces)

    for r in order:
        if uses.get(id(r), 0) > 1:
            texts[id(r)] = join(r)
    return join(rope)


def render_formula(phi) -> str:
    """Deterministic text form; re-parses to the same tree for sugar-free
    formulas.  A shared subformula is rendered once and its text reused."""
    return _flatten(_fold(phi, _render))


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def _evaluator(k: KripkeStructure, semantics: Semantics):
    """The ``visit`` that computes satisfaction sets on ``k``, as sets of
    the state ids of its index."""
    index = k.index
    succ, preds = index.succ, index.preds
    states = frozenset(range(len(k.states)))
    dead = frozenset(u for u in states if not succ[u])

    def inf_globally(sat_s):
        cyc = tarjan_cycle_states(sat_s, succ)
        return frozenset(backward_reach(cyc, preds, sat_s))

    def visit(f, kids):
        match f:
            case Prop(name):
                if name == DELTA_PROP and not k.delta_extended:
                    raise FormulaError(f"proposition {DELTA_PROP!r} only "
                                       f"applies to deadlock extensions")
                return frozenset(u for u, s in enumerate(k.states)
                                 if name in k.labelling[s])
            case Not():
                return states - kids[0]
            case And():
                return states.intersection(*kids)
            case ExistsUntil():
                return frozenset(backward_reach(kids[1], preds, kids[0]))
            case ExistsGInf():
                return inf_globally(kids[0])
        # EG: an infinite witness, or a finite one that ends in a deadlock
        if semantics is Semantics.DIVERGENCE_BLIND:
            return kids[0]
        dead_part = backward_reach(dead & kids[0], preds, kids[0])
        return frozenset(inf_globally(kids[0]) | dead_part)

    return visit


def sat(k: KripkeStructure, phi, semantics: Semantics) -> frozenset:
    """The set of states where ``phi`` is valid.

    Unknown propositions are everywhere-false; the reserved deadlock
    proposition may only be used against deadlock-extended structures.
    """
    return sat_many(k, [phi], semantics)[0]


def sat_many(k: KripkeStructure, formulas, semantics: Semantics) -> list:
    """Satisfaction sets for many formulas, sharing subformula results;
    the fixpoints run on state ids, named only here."""
    visit, memo = _evaluator(k, semantics), {}
    name = k.states.__getitem__
    return [frozenset(map(name, _fold(phi, visit, memo))) for phi in formulas]


def check(k: KripkeStructure, state, phi, semantics: Semantics) -> bool:
    k.check_state(state)
    return state in sat(k, phi, semantics)


def _at_sink(f, kids):
    match f:
        case Prop(name):
            return name == DELTA_PROP
        case Not():
            return not kids[0]
        case And():
            return all(kids)
    return kids[-1]     # an until's right argument, a globally's body


def sdelta_eval(phi) -> bool:
    """Truth of a formula at the sink state of any deadlock extension.

    The sink satisfies exactly the deadlock proposition and its unique
    maximal path has only itself as a suffix, so untils collapse to
    their right argument and globals to their body.
    """
    return _fold(phi, _at_sink)


# ---------------------------------------------------------------------------
# Formula enumeration
# ---------------------------------------------------------------------------

def enumerate_formulas(props, depth: int, budget: int,
                       include_infinity: bool = True) -> list:
    """Deterministic enumeration to a given temporal-operator depth.

    Depth 0 holds the positive atoms and their negations; each further
    level adds every until/always combination over the previous level
    (and their negations), deduplicated, truncated to ``budget`` (>= 0).
    """
    if not 0 <= depth <= 4:
        raise ValueError("enumeration depth must be between 0 and 4")
    if budget < 0:
        raise ValueError("budget must not be negative")
    atoms = [TRUE] + [Prop(p) for p in sorted(props)]
    unary = (ExistsG, ExistsGInf) if include_infinity else (ExistsG,)

    def candidates(level):
        for f in chain((ExistsUntil(a, b) for a in level for b in level),
                       (op(sub) for sub in level for op in unary)):
            yield f
            yield Not(f)

    def formulas():
        seen = {}   # each formula yielded so far, in order: the levels
        batch = atoms + [Not(f) for f in atoms]
        for _ in range(depth + 1):
            for f in batch:
                if f not in seen:
                    seen[f] = None
                    yield f
            batch = candidates(list(seen))

    return list(islice(formulas(), budget))


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------

def distinguish(k: KripkeStructure, s, t,
                variant: equivalences.EquivVariant):
    """A formula valid at ``s`` but not at ``t``, or None when the states
    are equivalent under the variant.

    The construction walks the refinement rounds, each a tuple of block
    ids by state id: a label difference yields a literal; a block split
    by an observation yields an existential until over
    block-characterising formulas; a split by the ``DIVERGES`` or
    ``COMPLETES`` marker alone yields an infinite-globally or globally
    formula.  A state's signature is computed only when a split needs
    it.  Blocks are taken in the order of their first-declared members,
    the order of canonical block ids.  Check divergence-blind formulas under the divergence-blind
    semantics and the others under maximal-path semantics.  The
    characterising formulas are built on an explicit stack, so no number
    of rounds is too deep.
    """
    k.check_state(s)
    k.check_state(t)
    rounds = equivalences.refinement_history(k, variant)
    index = k.index
    # an observation is the integer ``block id * width + action id``
    width = len(index.actions)
    s, t = index.number[s], index.number[t]
    if rounds[-1][s] == rounds[-1][t]:
        return None
    # one int object per state id, shared by every round's ``firsts``
    ids = list(range(len(k.states)))
    levels = {}

    def level_index(level):
        """The first-declared member of each block of a round, by block
        id, and the blocks inside each block of the round before that
        split, by first member: one pass over the states."""
        found = levels.get(level)
        if found is None:
            block = rounds[level]
            before = rounds[level - 1] if level else block
            firsts = [None] * (max(block) + 1)   # block ids are dense
            inside = {}
            for x, b, a in zip(ids, block, before):
                if firsts[b] is None:
                    firsts[b] = x
                    inside.setdefault(a, []).append(b)
            # most blocks do not split; only the index of those that do
            # is kept for the rest of the run
            split = {a: bs for a, bs in inside.items() if len(bs) > 1}
            found = levels[level] = firsts, split
        return found

    def label_literal(u, w):
        lu, lw = k.labelling[k.states[u]], k.labelling[k.states[w]]
        extra = sorted(lu - lw)
        if extra:
            return Prop(extra[0])
        missing = sorted(lw - lu)
        return Not(Prop(missing[0]))

    def charf(u, level):
        """True exactly on the states of u's block at the given round.

        This and ``split_formula`` are generators: each ``yield (x, l)``
        asks ``build`` for ``charf(x, l)`` and receives the formula."""
        block = rounds[level]
        firsts, split = level_index(level)
        if level == 0:
            conj = [label_literal(u, w)
                    for w in sorted(firsts) if block[w] != block[u]]
        else:
            conj = [(yield u, level - 1)]
            # only blocks split off u's block of the round before differ;
            # a block that did not split holds only u's own
            for b in split.get(rounds[level - 1][u], ()):
                if b != block[u]:
                    conj.append((yield from split_formula(
                        u, firsts[b], level)))
        return conj[0] if len(conj) == 1 else And(tuple(conj))

    def split_formula(u, w, level):
        """True at u's sub-block, false at w's, for a round-``level``
        split of their shared earlier block."""
        firsts = level_index(level - 1)[0]

        def rep(observations):
            """The first-declared member of the least observation's
            block; observations order by action id, then by block in
            canonical order."""
            return min((c % width, firsts[c // width])
                       for c in observations)[1]

        # u and w share a block of the round before, so one pass from
        # both covers every state either reaches by inert steps
        records = equivalences._block_signatures(
            [u, w], rounds[level - 1], index, variant)
        ou, ow = records[u], records[w]
        # real observations first: a marker is negative, and would make
        # ``rep`` read ``firsts[-1]``
        extra = [c for c in ou - ow if c >= 0]
        if extra:
            return ExistsUntil((yield u, level - 1),
                               (yield rep(extra), level - 1))
        extra = [c for c in ow - ou if c >= 0]
        if extra:
            return Not(ExistsUntil((yield w, level - 1),
                                   (yield rep(extra), level - 1)))
        if ou != ow:   # they differ in the variant's one marker
            op = (ExistsGInf if equivalences.DIVERGES in ou ^ ow
                  else ExistsG)
            if ou > ow:
                return op((yield u, level - 1))
            return Not(op((yield w, level - 1)))
        raise AssertionError("states split without a signature difference")

    def build(gen):
        """Run ``gen`` on an explicit stack of generators, each running
        ``charf`` for one ``(level, block)`` key, whose formula is kept."""
        char_cache = {}
        stack = [(gen, None)]
        value = None
        while stack:
            top, key = stack[-1]
            try:
                u, level = top.send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
                if key is not None:
                    char_cache[key] = value
                continue
            key = (level, rounds[level][u])
            value = char_cache.get(key)
            if value is None:
                stack.append((charf(u, level), key))
        return value

    level = next(i for i, block in enumerate(rounds) if block[s] != block[t])
    if level == 0:
        return label_literal(s, t)
    return build(split_formula(s, t, level))


def semantics_for_variant(variant: equivalences.EquivVariant) -> Semantics:
    if variant is equivalences.EquivVariant.DIVERGENCE_BLIND:
        return Semantics.DIVERGENCE_BLIND
    return Semantics.MAXIMAL_PATH
