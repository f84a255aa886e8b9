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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


StateFormula = (Prop, Not, And, ExistsUntil, ExistsG, ExistsGInf)

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
# Parsing and rendering
# ---------------------------------------------------------------------------

_KEYWORDS = {"true", "false", "E", "EG", "EGinf", "EF", "AG", "AF", "U"}


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()~&|":
            tokens.append((c, i))
            i += 1
            continue
        if c.isalnum() or c in "_.":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise FormulaError(f"unexpected character {c!r} at position {i}")
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want):
        tok, at = self.next()
        if tok != want:
            raise FormulaError(f"expected {want!r} at position {at}, got {tok!r}")

    def fail(self, message):
        _, at = self.tokens[self.pos]
        raise FormulaError(f"{message} at position {at}")

    def parse(self):
        phi = self.parse_or()
        tok, at = self.tokens[self.pos]
        if tok is not None:
            raise FormulaError(f"trailing input at position {at}: {tok!r}")
        return phi

    def parse_or(self):
        phi = self.parse_and()
        while self.peek() == "|":
            self.next()
            phi = Or(phi, self.parse_and())
        return phi

    def parse_and(self):
        phi = self.parse_unary()
        items = [phi]
        while self.peek() == "&":
            self.next()
            items.append(self.parse_unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_unary(self):
        tok = self.peek()
        if tok == "~":
            self.next()
            return Not(self.parse_unary())
        if tok == "(":
            self.next()
            phi = self.parse_or()
            self.expect(")")
            return phi
        if tok == "true":
            self.next()
            return TRUE
        if tok == "false":
            self.next()
            return FALSE
        if tok == "E":
            self.next()
            self.expect("(")
            lhs = self.parse_or()
            self.expect("U")
            rhs = self.parse_or()
            self.expect(")")
            return ExistsUntil(lhs, rhs)
        if tok == "EG":
            self.next()
            return ExistsG(self.parse_unary())
        if tok == "EGinf":
            self.next()
            return ExistsGInf(self.parse_unary())
        if tok == "EF":
            self.next()
            return ExistsUntil(TRUE, self.parse_unary())
        if tok == "AG":
            self.next()
            return AllG(self.parse_unary())
        if tok == "AF":
            self.next()
            return Not(ExistsG(Not(self.parse_unary())))
        if tok is None:
            self.fail("unexpected end of input")
        if tok in _KEYWORDS:
            self.fail(f"misplaced keyword {tok!r}")
        self.next()
        return Prop(tok)


def parse_formula(text: str):
    """Parse the ASCII grammar; EF/AG/AF, "false" and "|" are sugar."""
    return _Parser(text).parse()


def render_formula(phi) -> str:
    """Deterministic text form; re-parses to the same tree for sugar-free
    formulas."""
    match phi:
        case Prop(name):
            return name
        case And(items) if not items:
            return "true"
        case And(items):
            return "(" + " & ".join(render_formula(f) for f in items) + ")"
        case Not(sub):
            return "~" + render_formula(sub)
        case ExistsUntil(lhs, rhs):
            return f"E ({render_formula(lhs)} U {render_formula(rhs)})"
        case ExistsG(sub):
            return "EG " + _wrap(sub)
        case ExistsGInf(sub):
            return "EGinf " + _wrap(sub)
    raise FormulaError(f"not a state formula: {phi!r}")


def _wrap(phi):
    text = render_formula(phi)
    if isinstance(phi, (Prop, And, Not)) or text.startswith("("):
        return text
    return f"({text})"


def formula_propositions(phi) -> set:
    match phi:
        case Prop(name):
            return {name}
        case Not(sub) | ExistsG(sub) | ExistsGInf(sub):
            return formula_propositions(sub)
        case And(items):
            out = set()
            for f in items:
                out |= formula_propositions(f)
            return out
        case ExistsUntil(lhs, rhs):
            return formula_propositions(lhs) | formula_propositions(rhs)
    raise FormulaError(f"not a state formula: {phi!r}")


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def _evaluator(k: KripkeStructure, semantics: Semantics):
    adj = k.adjacency
    dead = frozenset(adj.deadlocks)
    memo = {}

    def ev(f):
        if f in memo:
            return memo[f]
        out = _ev(f)
        memo[f] = out
        return out

    def _ev(f):
        match f:
            case Prop(name):
                return frozenset(s for s in k.states if name in k.labelling[s])
            case Not(sub):
                return frozenset(k.states) - ev(sub)
            case And(items):
                out = frozenset(k.states)
                for g in items:
                    out &= ev(g)
                return out
            case ExistsUntil(lhs, rhs):
                sat_l = ev(lhs)
                return frozenset(backward_reach(ev(rhs), adj.pred, sat_l))
            case ExistsGInf(sub):
                return _sat_inf_globally(ev(sub))
            case ExistsG(sub):
                sat_s = ev(sub)
                if semantics is Semantics.DIVERGENCE_BLIND:
                    return sat_s
                inf_part = _sat_inf_globally(sat_s)
                dead_part = backward_reach(dead & sat_s, adj.pred, sat_s)
                return frozenset(inf_part | dead_part)
        raise FormulaError(f"not a state formula: {f!r}")

    def _sat_inf_globally(sat_s):
        cyc = tarjan_cycle_states(sat_s, adj.succ)
        return frozenset(backward_reach(cyc, adj.pred, sat_s))

    return ev


def sat(k: KripkeStructure, phi, semantics: Semantics) -> frozenset:
    """The set of states where ``phi`` is valid.

    Unknown propositions are everywhere-false; the reserved deadlock
    proposition may only be used against deadlock-extended structures.
    """
    if DELTA_PROP in formula_propositions(phi) and not k.delta_extended:
        raise FormulaError(
            f"proposition {DELTA_PROP!r} only applies to deadlock extensions")
    return _evaluator(k, semantics)(phi)


def sat_many(k: KripkeStructure, formulas, semantics: Semantics) -> list:
    """Satisfaction sets for many formulas, sharing subformula results."""
    ev = _evaluator(k, semantics)
    out = []
    for phi in formulas:
        if DELTA_PROP in formula_propositions(phi) and not k.delta_extended:
            raise FormulaError(
                f"proposition {DELTA_PROP!r} only applies to deadlock extensions")
        out.append(ev(phi))
    return out


def check(k: KripkeStructure, state, phi, semantics: Semantics) -> bool:
    if state not in set(k.states):
        raise ValueError(f"unknown state {state!r}")
    return state in sat(k, phi, semantics)


def sdelta_eval(phi) -> bool:
    """Truth of a formula at the sink state of any deadlock extension.

    The sink satisfies exactly the deadlock proposition and its unique
    maximal path has only itself as a suffix, so untils collapse to
    their right argument and globals to their body.
    """
    match phi:
        case Prop(name):
            return name == DELTA_PROP
        case Not(sub):
            return not sdelta_eval(sub)
        case And(items):
            return all(sdelta_eval(f) for f in items)
        case ExistsUntil(_, rhs):
            return sdelta_eval(rhs)
        case ExistsG(sub) | ExistsGInf(sub):
            return sdelta_eval(sub)
    raise FormulaError(f"not a state formula: {phi!r}")


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
