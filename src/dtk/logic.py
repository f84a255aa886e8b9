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
``_children`` alone lists the subformulas of each node kind.  The parser
is one loop over the tokens, so no formula is too deep for either.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from . import equivalences
from .graphs import backward_reach, tarjan_cycle_states
from .structures import DELTA_PROP, KripkeStructure


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class Prop:
    name: str


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class ExistsUntil:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class ExistsG:
    sub: object


@dataclass(frozen=True)
class ExistsGInf:
    sub: object


TRUE = And(())
FALSE = Not(TRUE)


def Or(a, b):
    return Not(And((Not(a), Not(b))))


def AllG(sub):
    """No maximal path escapes ``sub``: ~E(true U ~sub)."""
    return Not(ExistsUntil(TRUE, Not(sub)))


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


def _fold(phi, visit, memo=None):
    """``visit(node, values of its children)`` at ``phi``, children first.

    A node's key is its kind and its children's numbers (a proposition's
    is its name), so ``visit`` runs once per distinct subformula and no
    lookup hashes a formula.  ``memo`` maps a key to ``(number, value)``
    and ``id(node)`` to ``(number, value, node)``; holding the node keeps
    its id from being reused.  Folds with one ``visit`` may share a memo.
    """
    memo = {} if memo is None else memo
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in memo:
            stack.pop()
            continue
        kids = _children(f)
        todo = [c for c in kids if id(c) not in memo]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        key = ((Prop, f.name) if type(f) is Prop
               else (type(f), *(memo[id(c)][0] for c in kids)))
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
    "~": Not, "EG": ExistsG, "EGinf": ExistsGInf, "AG": AllG,
    "EF": lambda f: ExistsUntil(TRUE, f),
    "AF": lambda f: Not(ExistsG(Not(f))),
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
    operator applies to the operand after it.
    """
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
                        f"expected '(' at position {at}, got {tok!r}")
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
                phi = Prop(tok)
            continue
        while group.prefixes:
            phi = group.prefixes.pop()(phi)
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
                f"expected {group.closer!r} at position {at}, got {tok!r}")
        stack.pop()
        phi = reduce(Or, (c[0] if len(c) == 1 else And(tuple(c))
                          for c in group.terms))
        if group.closer is None:
            return phi
        if group.closer == "U":
            stack.append(_Group(")", lhs=phi))
            phi = None
        elif group.lhs is not None:
            phi = ExistsUntil(group.lhs, phi)


def _render(f, kids):
    match f:
        case Prop(name):
            return name
        case And():
            return "(" + " & ".join(kids) + ")" if kids else "true"
        case Not():
            return "~" + kids[0]
        case ExistsUntil():
            return f"E ({kids[0]} U {kids[1]})"
    # EG or EGinf; an until or globally body is parenthesised
    text = kids[0] if isinstance(f.sub, (Prop, And, Not)) else f"({kids[0]})"
    return ("EG " if type(f) is ExistsG else "EGinf ") + text


def render_formula(phi) -> str:
    """Deterministic text form; re-parses to the same tree for sugar-free
    formulas.  A shared subformula is rendered once and its text reused."""
    return _fold(phi, _render)


def formula_propositions(phi) -> set:
    return _fold(phi, lambda f, kids: (
        {f.name} if type(f) is Prop else set().union(*kids)))


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def _evaluator(k: KripkeStructure, semantics: Semantics):
    """The ``visit`` that computes satisfaction sets on ``k``."""
    adj = k.adjacency
    states = frozenset(k.states)
    dead = frozenset(adj.deadlocks)

    def inf_globally(sat_s):
        cyc = tarjan_cycle_states(sat_s, adj.succ)
        return frozenset(backward_reach(cyc, adj.pred, sat_s))

    def visit(f, kids):
        match f:
            case Prop(name):
                if name == DELTA_PROP and not k.delta_extended:
                    raise FormulaError(f"proposition {DELTA_PROP!r} only "
                                       f"applies to deadlock extensions")
                return frozenset(s for s in k.states if name in k.labelling[s])
            case Not():
                return states - kids[0]
            case And():
                return states.intersection(*kids)
            case ExistsUntil():
                return frozenset(backward_reach(kids[1], adj.pred, kids[0]))
            case ExistsGInf():
                return inf_globally(kids[0])
        # EG: an infinite witness, or a finite one that ends in a deadlock
        if semantics is Semantics.DIVERGENCE_BLIND:
            return kids[0]
        dead_part = backward_reach(dead & kids[0], adj.pred, kids[0])
        return frozenset(inf_globally(kids[0]) | dead_part)

    return visit


def sat(k: KripkeStructure, phi, semantics: Semantics) -> frozenset:
    """The set of states where ``phi`` is valid.

    Unknown propositions are everywhere-false; the reserved deadlock
    proposition may only be used against deadlock-extended structures.
    """
    return sat_many(k, [phi], semantics)[0]


def sat_many(k: KripkeStructure, formulas, semantics: Semantics) -> list:
    """Satisfaction sets for many formulas, sharing subformula results."""
    visit, memo = _evaluator(k, semantics), {}
    return [_fold(phi, visit, memo) for phi in formulas]


def check(k: KripkeStructure, state, phi, semantics: Semantics) -> bool:
    if state not in set(k.states):
        raise ValueError(f"unknown state {state!r}")
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
    (and their negations), deduplicated, truncated to ``budget``.
    """
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


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------

def distinguish(k: KripkeStructure, s, t,
                variant: equivalences.EquivVariant):
    """A formula valid at ``s`` but not at ``t``, or None when the states
    are equivalent under the variant.

    The construction walks the refinement history: a label difference
    yields a literal; a block split by an observation yields an
    existential until over block-characterising formulas; splits by the
    divergence or completion bit yield an infinite-globally or globally
    formula.  Check divergence-blind formulas under the divergence-blind
    semantics and the others under maximal-path semantics.
    """
    for x in (s, t):
        if x not in set(k.states):
            raise ValueError(f"unknown state {x!r}")
    history = equivalences.refinement_history(k, variant)
    final, _ = history[-1]
    if final.same_block(s, t):
        return None

    order = {st: i for i, st in enumerate(k.states)}
    char_cache = {}

    def rep(level, bid):
        return min(history[level][0].blocks[bid], key=order.get)

    def label_literal(u, w):
        lu, lw = k.labelling[u], k.labelling[w]
        extra = sorted(lu - lw)
        if extra:
            return Prop(extra[0])
        missing = sorted(lw - lu)
        return Not(Prop(missing[0]))

    def charf(u, level):
        """True exactly on the states of u's block at the given round."""
        part = history[level][0]
        key = (level, part.block_of[u])
        if key in char_cache:
            return char_cache[key]
        if level == 0:
            conj = []
            for bid, block in enumerate(part.blocks):
                if bid != part.block_of[u]:
                    conj.append(label_literal(u, rep(0, bid)))
            out = conj[0] if len(conj) == 1 else And(tuple(conj))
        else:
            prev = history[level - 1][0]
            conj = [charf(u, level - 1)]
            for bid, block in enumerate(part.blocks):
                w = rep(level, bid)
                if bid != part.block_of[u] and prev.same_block(u, w):
                    conj.append(split_formula(u, w, level))
            out = conj[0] if len(conj) == 1 else And(tuple(conj))
        char_cache[key] = out
        return out

    def split_formula(u, w, level):
        """True at u's sub-block, false at w's, for a round-``level``
        split of their shared earlier block."""
        sigs = history[level][1]
        su, sw = sigs[u], sigs[w]
        extra = sorted(su.observations - sw.observations,
                       key=lambda o: (str(o[0]), o[1]))
        if extra:
            _, bid = extra[0]
            return ExistsUntil(charf(u, level - 1),
                               charf(rep(level - 1, bid), level - 1))
        missing = sorted(sw.observations - su.observations,
                         key=lambda o: (str(o[0]), o[1]))
        if missing:
            _, bid = missing[0]
            return Not(ExistsUntil(charf(w, level - 1),
                                   charf(rep(level - 1, bid), level - 1)))
        if su.divergent != sw.divergent:
            if su.divergent:
                return ExistsGInf(charf(u, level - 1))
            return Not(ExistsGInf(charf(w, level - 1)))
        if su.completable != sw.completable:
            if su.completable:
                return ExistsG(charf(u, level - 1))
            return Not(ExistsG(charf(w, level - 1)))
        raise AssertionError("states split without a signature difference")

    for level in range(len(history)):
        part = history[level][0]
        if not part.same_block(s, t):
            if level == 0:
                return label_literal(s, t)
            return split_formula(s, t, level)
    raise AssertionError("unreachable: states differ in the final partition")


def semantics_for_variant(variant: equivalences.EquivVariant) -> Semantics:
    if variant is equivalences.EquivVariant.DIVERGENCE_BLIND:
        return Semantics.DIVERGENCE_BLIND
    return Semantics.MAXIMAL_PATH
