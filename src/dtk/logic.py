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

Model checking labels bottom-up: each distinct subformula gets its set
of satisfying states as a bitset, one int whose bit ``u`` stands for
state id ``u``, so the boolean operators are int operations and a held
set costs n/8 bytes.  Rendering yields the text in pieces; a shared
subformula's text is joined once, and a writer can stream the rest.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import reduce
from itertools import compress

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


def _flatten(rope):
    """The text of a rope, as a stream of pieces.  A rope met more than
    once is joined once and its text reused, as the shared subformula it
    renders; any other is expanded in place, so no text is copied into
    every ancestor's, and the whole text is never joined.  One walk lists
    the ropes, each after the ropes inside it, and counts each rope's
    uses."""
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

    def pieces(r):
        todo = list(reversed(r))
        while todo:
            part = todo.pop()
            if type(part) is str:
                yield part
            elif id(part) in texts:
                yield texts[id(part)]
            else:
                todo.extend(reversed(part))

    for r in order:
        if uses.get(id(r), 0) > 1:
            texts[id(r)] = "".join(pieces(r))
    yield from pieces(rope)


def formula_pieces(phi):
    """The text of ``render_formula`` as a stream of pieces, so a writer
    need not hold it whole."""
    return _flatten(_fold(phi, _render))


def render_formula(phi) -> str:
    """Deterministic text form; re-parses to the same tree for sugar-free
    formulas.  A shared subformula is rendered once and its text reused;
    the rest is joined from ``formula_pieces``."""
    return "".join(formula_pieces(phi))


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

_FLAG = bytes.maketrans(b"01", b"\0\1")    # binary digits -> flag bytes


def _flags(mask, n):
    """One byte per state id ``u``, in id order: 1 iff bit ``u`` of
    ``mask`` is set."""
    return format(mask, f"0{n}b").encode()[::-1].translate(_FLAG)


def _evaluator(k: KripkeStructure, semantics: Semantics):
    """The ``visit`` that computes satisfaction sets on ``k`` as bitsets:
    one int per subformula, whose bit ``u`` is set iff state id ``u`` of
    the index satisfies it, so a held value costs n/8 bytes.  A fixpoint
    reads its arguments' members as a set made for the call, and the
    predecessor lists are first read by a fixpoint."""
    index, n = k.index, len(k.states)
    everywhere = (1 << n) - 1

    def members(bits):
        return set(compress(range(n), _flags(bits, n)))

    def mask(ids):
        digits = bytearray(b"0") * n
        for u in ids:
            digits[~u] = 49     # the digit "1" of bit u
        return int(digits or b"0", 2)   # 0 states: no digits

    def reach(targets, inside):
        return backward_reach(targets, index.preds, inside)

    def inf_globally(inside):
        return reach(tarjan_cycle_states(inside, index.succ), inside)

    def visit(f, kids):
        match f:
            case Prop(name):
                if name == DELTA_PROP and not k.delta_extended:
                    raise FormulaError(f"proposition {DELTA_PROP!r} only "
                                       f"applies to deadlock extensions")
                return mask(u for u, s in enumerate(k.states)
                            if name in k.labelling[s])
            case Not():
                return everywhere ^ kids[0]
            case And():
                return reduce(int.__and__, kids, everywhere)
            case ExistsUntil():
                return mask(reach(members(kids[1]), members(kids[0])))
            case ExistsG() if semantics is Semantics.DIVERGENCE_BLIND:
                return kids[0]
        # an infinite witness; for EG also a finite one ending in a deadlock
        inside = members(kids[0])
        found = inf_globally(inside)
        if type(f) is ExistsG:
            found |= reach([u for u in inside if not index.succ[u]], inside)
        return mask(found)

    return visit


def sat(k: KripkeStructure, phi, semantics: Semantics) -> frozenset:
    """The set of states where ``phi`` is valid.

    Unknown propositions are everywhere-false; the reserved deadlock
    proposition may only be used against deadlock-extended structures.
    """
    return sat_many(k, [phi], semantics)[0]


def sat_many(k: KripkeStructure, formulas, semantics: Semantics) -> list:
    """Satisfaction sets for many formulas, sharing subformula results;
    the fixpoints run on bitsets of state ids, named only here."""
    visit, memo, n = _evaluator(k, semantics), {}, len(k.states)
    return [frozenset(compress(k.states, _flags(_fold(phi, visit, memo), n)))
            for phi in formulas]


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
    s, t = k.index.number[s], k.index.number[t]
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
        x, found = equivalences.split_difference(
            k, u, w, rounds[level - 1], variant)
        if found == equivalences.DIVERGES:
            f = ExistsGInf((yield x, level - 1))
        elif found == equivalences.COMPLETES:
            f = ExistsG((yield x, level - 1))
        else:
            # the first-declared member of the least observation's block:
            # by action id, then by block in canonical order
            firsts = level_index(level - 1)[0]
            rep = min((a, firsts[b]) for a, b in found)[1]
            f = ExistsUntil((yield x, level - 1), (yield rep, level - 1))
        return f if x == u else Not(f)

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
