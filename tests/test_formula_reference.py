"""Differential tests of the formula layer against recursive references.

The references below are the recursive descent parser and the recursive
walkers that the single fold replaced: one function per walk, each
restating every node kind.  They recurse once per nesting level, so
they only see small formulas here.  On generated token strings, on
generated formulas whose subformulas are shared or repeated as equal
copies, and on generated Kripke structures, the two must agree.  The
one intended difference: the reference reads ``)``, ``&`` and ``|`` in
operand position as proposition names, and the parser now rejects them.

``ref_distinguish`` is the distinguishing-formula construction on the
reference refinement of ``tests_helpers.reference_history``: a canonical
partition and every state's breadth-first signature per round, with no
part of the engine.  ``distinguish`` reads the integer rounds of
``refinement_history`` and computes a signature only where a split needs
one; its formulas must be the same.

``ref_enumerate_formulas`` is the enumeration as a loop driven by
``push``/``more`` flags; the generator that replaced it must return the
same formulas in the same order on a grid of propositions, depths,
budgets and both ``include_infinity`` values.

The last tests check the deadlock-extension theorems on generated
inputs (the fixed-seed versions are in ``test_transforms.py``).
"""

import copy
import itertools

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dtk import equivalences
from dtk.equivalences import EquivVariant
from dtk.logic import (
    _KEYWORDS,
    enumerate_formulas,
    TRUE,
    And,
    ExistsG,
    ExistsGInf,
    ExistsUntil,
    FormulaError,
    Not,
    Or,
    Prop,
    Semantics,
    distinguish,
    parse_formula,
    render_formula,
    sat,
    sat_many,
    sdelta_eval,
)
from dtk.graphs import backward_reach, tarjan_cycle_states
from dtk.structures import DELTA_PROP, KripkeStructure
from dtk.transforms import deadlock_extension, encode_D, encode_E
from tests_helpers import name_keyed_steps, reference_history

MAX = Semantics.MAXIMAL_PATH
ED = EquivVariant.EXPLICIT_DIVERGENCE

# ---------------------------------------------------------------------------
# Reference parser and walkers
# ---------------------------------------------------------------------------


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
            got = "end of input" if tok is None else repr(tok)
            raise FormulaError(f"expected {want!r} at position {at}, got {got}")

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
            return Not(TRUE)
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
            return Not(ExistsUntil(TRUE, Not(self.parse_unary())))
        if tok == "AF":
            self.next()
            return Not(ExistsG(Not(self.parse_unary())))
        if tok is None:
            self.fail("unexpected end of input")
        if tok in _KEYWORDS:
            self.fail(f"misplaced keyword {tok!r}")
        self.next()
        return Prop(tok)


class _NoteOperatorNames(_Parser):
    """The reference, noting the first operator token it reads as a name."""
    misread = None

    def parse_unary(self):
        tok, at = self.tokens[self.pos]
        if tok in (")", "&", "|") and self.misread is None:
            self.misread = (tok, at)
        return super().parse_unary()


def ref_render(phi):
    match phi:
        case Prop(name):
            return name
        case And(items) if not items:
            return "true"
        case And(items):
            return "(" + " & ".join(ref_render(f) for f in items) + ")"
        case Not(sub):
            return "~" + ref_render(sub)
        case ExistsUntil(lhs, rhs):
            return f"E ({ref_render(lhs)} U {ref_render(rhs)})"
        case ExistsG(sub):
            return "EG " + _wrap(sub)
        case ExistsGInf(sub):
            return "EGinf " + _wrap(sub)
    raise FormulaError(f"not a state formula: {phi!r}")


def _wrap(phi):
    text = ref_render(phi)
    if isinstance(phi, (Prop, And, Not)) or text.startswith("("):
        return text
    return f"({text})"


def ref_propositions(phi):
    match phi:
        case Prop(name):
            return {name}
        case Not(sub) | ExistsG(sub) | ExistsGInf(sub):
            return ref_propositions(sub)
        case And(items):
            out = set()
            for f in items:
                out |= ref_propositions(f)
            return out
        case ExistsUntil(lhs, rhs):
            return ref_propositions(lhs) | ref_propositions(rhs)
    raise FormulaError(f"not a state formula: {phi!r}")


def ref_sat(k, phi, semantics):
    if DELTA_PROP in ref_propositions(phi) and not k.delta_extended:
        raise FormulaError(
            f"proposition {DELTA_PROP!r} only applies to deadlock extensions")
    succ, pred = name_keyed_steps(k)
    dead = frozenset(s for s in k.states if not succ[s])
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
                return frozenset(backward_reach(ev(rhs), pred, sat_l))
            case ExistsGInf(sub):
                return _sat_inf_globally(ev(sub))
            case ExistsG(sub):
                sat_s = ev(sub)
                if semantics is Semantics.DIVERGENCE_BLIND:
                    return sat_s
                inf_part = _sat_inf_globally(sat_s)
                dead_part = backward_reach(dead & sat_s, pred, sat_s)
                return frozenset(inf_part | dead_part)
        raise FormulaError(f"not a state formula: {f!r}")

    def _sat_inf_globally(sat_s):
        cyc = tarjan_cycle_states(sat_s, succ)
        return frozenset(backward_reach(cyc, pred, sat_s))

    return ev(phi)


def ref_sdelta(phi):
    match phi:
        case Prop(name):
            return name == DELTA_PROP
        case Not(sub):
            return not ref_sdelta(sub)
        case And(items):
            return all(ref_sdelta(f) for f in items)
        case ExistsUntil(_, rhs):
            return ref_sdelta(rhs)
        case ExistsG(sub) | ExistsGInf(sub):
            return ref_sdelta(sub)
    raise FormulaError(f"not a state formula: {phi!r}")


def ref_encode_D(phi):
    if DELTA_PROP in ref_propositions(phi):
        raise FormulaError(f"input may not mention {DELTA_PROP!r}")
    return _ref_encode_D(phi)


def _ref_encode_D(phi):
    not_delta = Not(Prop(DELTA_PROP))
    match phi:
        case Prop(_):
            return phi
        case Not(sub):
            return And((not_delta, Not(_ref_encode_D(sub))))
        case And(items):
            return And(tuple(_ref_encode_D(f) for f in items))
        case ExistsUntil(lhs, rhs):
            return ExistsUntil(_ref_encode_D(lhs), _ref_encode_D(rhs))
        case ExistsGInf(sub):
            return ExistsG(And((not_delta, _ref_encode_D(sub))))
        case ExistsG(sub):
            all_g = Not(ExistsUntil(TRUE, Not(sub)))
            return _ref_encode_D(
                Or(ExistsGInf(sub), ExistsUntil(sub, all_g)))
    raise FormulaError(f"not a state formula: {phi!r}")


def ref_encode_E(phi):
    match phi:
        case Prop(name):
            return Not(TRUE) if name == DELTA_PROP else phi
        case Not(sub):
            return Not(ref_encode_E(sub))
        case And(items):
            return And(tuple(ref_encode_E(f) for f in items))
        case ExistsUntil(lhs, rhs):
            base = ExistsUntil(ref_encode_E(lhs), ref_encode_E(rhs))
            if ref_sdelta(rhs):
                via_deadlock = ExistsUntil(
                    ref_encode_E(lhs),
                    And((Not(ExistsGInf(TRUE)), ExistsG(ref_encode_E(lhs)))))
                return Or(base, via_deadlock)
            return base
        case ExistsG(sub):
            if ref_sdelta(sub):
                return ExistsG(ref_encode_E(sub))
            return ExistsGInf(ref_encode_E(sub))
        case ExistsGInf(sub):
            return ref_encode_E(ExistsG(sub))
    raise FormulaError(f"not a state formula: {phi!r}")


def ref_distinguish(k, s, t, variant):
    """The construction on the reference rounds: a canonical
    ``Partition`` per round and every state's signature over the round
    before."""
    k.check_state(s)
    k.check_state(t)
    history = reference_history(k, variant)
    final, _ = history[-1]
    if final.same_block(s, t):
        return None

    levels = {}

    def level_index(level):
        found = levels.get(level)
        if found is None:
            block_of = history[level][0].block_of
            before = history[level - 1][0].block_of if level else block_of
            firsts, inside = [], {}
            for x in k.states:
                if block_of[x] == len(firsts):
                    inside.setdefault(before[x], []).append(len(firsts))
                    firsts.append(x)
            split = {b: ids for b, ids in inside.items() if len(ids) > 1}
            found = levels[level] = firsts, split
        return found

    def rep(level, bid):
        return level_index(level)[0][bid]

    def label_literal(u, w):
        lu, lw = k.labelling[u], k.labelling[w]
        extra = sorted(lu - lw)
        if extra:
            return Prop(extra[0])
        missing = sorted(lw - lu)
        return Not(Prop(missing[0]))

    def charf(u, level):
        own = history[level][0].block_of[u]
        if level == 0:
            firsts = level_index(0)[0]
            conj = [label_literal(u, w)
                    for bid, w in enumerate(firsts) if bid != own]
        else:
            firsts, split = level_index(level)
            conj = [(yield u, level - 1)]
            for bid in split.get(history[level - 1][0].block_of[u], ()):
                if bid != own:
                    conj.append((yield from split_formula(
                        u, firsts[bid], level)))
        return conj[0] if len(conj) == 1 else And(tuple(conj))

    def split_formula(u, w, level):
        sigs = history[level][1]
        (obs_u, div_u, comp_u), (obs_w, div_w, comp_w) = sigs[u], sigs[w]
        extra = sorted(obs_u - obs_w, key=lambda o: (str(o[0]), o[1]))
        if extra:
            _, bid = extra[0]
            return ExistsUntil((yield u, level - 1),
                               (yield rep(level - 1, bid), level - 1))
        missing = sorted(obs_w - obs_u, key=lambda o: (str(o[0]), o[1]))
        if missing:
            _, bid = missing[0]
            return Not(ExistsUntil((yield w, level - 1),
                                   (yield rep(level - 1, bid), level - 1)))
        if div_u != div_w:
            if div_u:
                return ExistsGInf((yield u, level - 1))
            return Not(ExistsGInf((yield w, level - 1)))
        if comp_u != comp_w:
            if comp_u:
                return ExistsG((yield u, level - 1))
            return Not(ExistsG((yield w, level - 1)))
        raise AssertionError("states split without a signature difference")

    def build(gen):
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
            key = (level, history[level][0].block_of[u])
            value = char_cache.get(key)
            if value is None:
                stack.append((charf(u, level), key))
        return value

    for level in range(len(history)):
        part = history[level][0]
        if not part.same_block(s, t):
            if level == 0:
                return label_literal(s, t)
            return build(split_formula(s, t, level))
    raise AssertionError("unreachable: states differ in the final partition")


def ref_enumerate_formulas(props, depth, budget, include_infinity=True):
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
# Strategies
# ---------------------------------------------------------------------------

TOKENS = ("(", ")", "~", "&", "|", "true", "false", "E", "EG", "EGinf",
          "EF", "AG", "AF", "U", "p", "q", "x.1", "EGp", "!")

# token strings; an empty separator glues words into one ("EG" "p")
TEXTS = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(("", " "))),
                 max_size=14).map(lambda parts: "".join(a + b for a, b in parts))


@st.composite
def formula_dags(draw, props=("p", "q"), delta=False, infinity=True,
                 max_nodes=8):
    """A formula whose nodes may be shared by several parents or repeated
    as equal copies (a deep copy of an earlier node)."""
    atoms = list(props) + ([DELTA_PROP] if delta else [])
    kinds = ["prop", "true", "not", "and", "until", "eg", "copy"]
    kinds += ["eginf"] if infinity else []
    pool = []
    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(kinds if pool else ["prop", "true"]))
        sub = st.sampled_from(pool) if pool else None
        if kind == "prop":
            node = Prop(draw(st.sampled_from(atoms)))
        elif kind == "true":
            node = draw(st.sampled_from([TRUE, And(())]))
        elif kind == "not":
            node = Not(draw(sub))
        elif kind == "and":
            node = And(tuple(draw(st.lists(sub, max_size=3))))
        elif kind == "until":
            node = ExistsUntil(draw(sub), draw(sub))
        elif kind == "eg":
            node = ExistsG(draw(sub))
        elif kind == "eginf":
            node = ExistsGInf(draw(sub))
        else:
            node = copy.deepcopy(draw(sub))
        pool.append(node)
    return pool[-1]


@st.composite
def kripke_structures(draw, props=("p", "q"), max_states=5):
    n = draw(st.integers(1, max_states))
    states = tuple(f"s{i}" for i in range(n))
    labelling = {s: draw(st.frozensets(st.sampled_from(props))) for s in states}
    edge = st.tuples(st.sampled_from(states), st.sampled_from(states))
    return KripkeStructure(states, labelling,
                           tuple(draw(st.lists(edge, max_size=8, unique=True))))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FormulaError as err:
        return ("error", str(err))


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(TEXTS)
def test_parser_matches_reference(text):
    readers = []

    def reference():
        readers.append(_NoteOperatorNames(text))
        return readers[0].parse()

    want = _outcome(reference)
    got = _outcome(parse_formula, text)
    if not readers or readers[0].misread is None:
        assert got == want
    else:
        tok, at = readers[0].misread
        assert got == ("error", f"unexpected {tok!r} at position {at}")


@settings(max_examples=200, deadline=None)
@given(formula_dags())
def test_parser_reads_rendered_text_as_reference_does(phi):
    text = ref_render(phi)
    assert parse_formula(text) == _Parser(text).parse()


# ---------------------------------------------------------------------------
# The walkers
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(formula_dags(delta=True))
def test_walkers_match_reference(phi):
    assert render_formula(phi) == ref_render(phi)
    assert sdelta_eval(phi) == ref_sdelta(phi)
    assert encode_E(phi) == ref_encode_E(phi)
    assert _outcome(encode_D, phi) == _outcome(ref_encode_D, phi)


@settings(max_examples=300, deadline=None)
@given(formula_dags())
def test_encode_D_matches_reference(phi):
    image = encode_D(phi)
    assert image == ref_encode_D(phi)
    assert render_formula(image) == ref_render(image)


@settings(max_examples=200, deadline=None)
@given(kripke_structures(), st.lists(formula_dags(delta=True), min_size=1,
                                     max_size=3),
       st.sampled_from(list(Semantics)))
def test_sat_matches_reference(k, formulas, semantics):
    for g in (k, deadlock_extension(k)[0]):
        want = [_outcome(ref_sat, g, phi, semantics) for phi in formulas]
        assert [_outcome(sat, g, phi, semantics) for phi in formulas] == want
        if all(isinstance(w, frozenset) for w in want):
            assert sat_many(g, formulas, semantics) == want


# ---------------------------------------------------------------------------
# Distinguishing formulas
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(kripke_structures())
def test_distinguish_matches_reference(k):
    for variant in EquivVariant:
        for s, t in itertools.product(k.states, repeat=2):
            assert (repr(distinguish(k, s, t, variant))
                    == repr(ref_distinguish(k, s, t, variant)))


def test_distinguish_builds_no_partition_per_round(monkeypatch):
    # an alternating chain splits one block per round
    states = tuple(f"c{i}" for i in range(12))
    k = KripkeStructure(
        states, {s: {"pq"[i % 2]} for i, s in enumerate(states)},
        tuple(zip(states, states[1:])))
    want = repr(ref_distinguish(k, "c0", "c2", ED))

    def refuse(*args):
        raise AssertionError("a canonical partition or whole round was built")

    monkeypatch.setattr(equivalences, "_partition", refuse)
    monkeypatch.setattr(equivalences, "_block_kernels", refuse)
    assert repr(distinguish(k, "c0", "c2", ED)) == want


# ---------------------------------------------------------------------------
# Deadlock-extension theorems
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(kripke_structures(), formula_dags())
def test_encode_D_is_exact_across_the_extension(k, phi):
    d, _ = deadlock_extension(k)
    assert sat(k, phi, MAX) == sat(d, encode_D(phi), MAX) & set(k.states)


@settings(max_examples=200, deadline=None)
@given(kripke_structures(), formula_dags(delta=True))
def test_encode_E_is_exact_across_the_extension(k, phi):
    d, _ = deadlock_extension(k)
    assert sat(d, phi, MAX) & set(k.states) == sat(k, encode_E(phi), MAX)


@settings(max_examples=200, deadline=None)
@given(kripke_structures(), formula_dags(delta=True))
def test_sdelta_eval_is_truth_at_the_sink(k, phi):
    d, sink = deadlock_extension(k)
    assert sdelta_eval(phi) == (sink in sat(d, phi, MAX))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("props", [(), ("q",), ("q", "p"), ("q", "p", "r")])
@pytest.mark.parametrize("include_infinity", [True, False])
def test_enumerate_formulas_matches_reference(props, include_infinity):
    for depth in range(5):
        for budget in (0, 1, 3, 8, 30, 200, 1000, 3000):
            args = (props, depth, budget, include_infinity)
            got = enumerate_formulas(*args)
            assert repr(got) == repr(ref_enumerate_formulas(*args)), args
