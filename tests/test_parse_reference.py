"""Differential tests of the model-text parsers and the transition checks.

The reference below is the straightforward reader the one-pass parser
replaced: it checks every token against the id charset and tokenises
every line the same way.  On generated texts, good and faulty, both must
give equal structures or raise the same error with the same message.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from dtk.structures import (
    DELTA_PROP,
    DoublyLabelledTS,
    FormatError,
    KripkeStructure,
    Lts,
    StructureError,
    TAU,
    parse_ks,
    parse_l2ts,
    parse_lts,
)

# ---------------------------------------------------------------------------
# Reference reader
# ---------------------------------------------------------------------------

_ID_RE = re.compile(r"[A-Za-z0-9_.]+\Z")


def _check_id(token, line):
    if not _ID_RE.match(token):
        raise FormatError(f"bad identifier {token!r}", line)
    return token


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield i, line.replace("{", " { ").replace("}", " } ").split()


def _parse_state_with_props(tokens, i):
    # state <id> { <prop> ... }
    if len(tokens) < 4 or tokens[2] != "{" or tokens[-1] != "}":
        raise FormatError("expected: state <id> { <prop> ... }", i)
    sid = _check_id(tokens[1], i)
    props = [_check_id(p, i) for p in tokens[3:-1]]
    return sid, props


def _parse(text, edge_syntax, labelled, allow_delta=False):
    directive, width = edge_syntax.split()[0], len(edge_syntax.split())
    states, labelling, edges = [], {}, []
    saw_delta = False
    for i, tokens in _lines(text):
        if tokens[0] == "state":
            if labelled:
                sid, props = _parse_state_with_props(tokens, i)
            elif len(tokens) != 2:
                raise FormatError("expected: state <id>", i)
            else:
                sid, props = _check_id(tokens[1], i), []
            if sid in labelling:
                raise FormatError(f"duplicate state {sid!r}", i)
            if DELTA_PROP in props:
                if not allow_delta:
                    raise FormatError(
                        f"proposition {DELTA_PROP!r} is reserved", i)
                saw_delta = True
            states.append(sid)
            labelling[sid] = props
        elif tokens[0] == directive:
            if len(tokens) != width:
                raise FormatError(f"expected: {edge_syntax}", i)
            edge = tuple(tokens[1:])
            for token in edge:
                _check_id(token, i)
            for endpoint in (edge[0], edge[-1]):
                if endpoint not in labelling:
                    raise FormatError(f"undeclared state {endpoint!r}", i)
            edges.append(edge)
        else:
            raise FormatError(f"unknown directive {tokens[0]!r}", i)
    return tuple(states), labelling, tuple(edges), saw_delta


def reference_parse(kind, text, allow_delta):
    if kind == "ks":
        states, labelling, edges, saw_delta = _parse(
            text, "edge <src> <dst>", True, allow_delta)
        return KripkeStructure(states, labelling, edges,
                               delta_extended=saw_delta)
    if kind == "lts":
        states, _, trans, _ = _parse(text, "trans <src> <action> <dst>", False)
        return Lts(states, (TAU,), trans)
    states, labelling, trans, saw_delta = _parse(
        text, "trans <src> <action> <dst>", True, allow_delta)
    return DoublyLabelledTS(states, labelling, trans, delta_extended=saw_delta)


def reference_check_transitions(states, transitions, width):
    """The per-transition check: the first offender's message, or the
    transitions without duplicates."""
    declared = set(states)
    for t in transitions:
        if len(t) != width:
            return f"malformed transition {t!r}"
        if t[0] not in declared or t[-1] not in declared:
            return f"transition ({', '.join(map(str, t))}) leaves declared states"
    seen, out = set(), []
    for t in transitions:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Generated texts
# ---------------------------------------------------------------------------

GOOD_IDS = ("a", "b", "c", "s_1", "x.y", "0", "tau", "p", "q", DELTA_PROP)
BAD_IDS = ("a!", "b-c", "é", "x|y", "{", "}", "a}", "{b")
ANY_ID = st.sampled_from(GOOD_IDS + BAD_IDS)
COMMENT = st.sampled_from(("", "", " # note", "# {a} b", "  #"))


@st.composite
def state_line(draw, sid, labelled, prop=st.sampled_from(GOOD_IDS)):
    if not labelled:
        return f"state {sid}"
    props = draw(st.lists(prop, max_size=3))
    glue = draw(st.sampled_from(("", " ")))
    space = draw(st.sampled_from(("", " ")))
    return f"state {sid}{space}{{{glue}{' '.join(props)}{glue}}}"


@st.composite
def noise_line(draw, directive):
    """A blank or comment line, or a directive with arbitrary tokens:
    bad ids, wrong widths, undeclared endpoints, duplicate states, stray
    or glued braces and unknown directives."""
    head = draw(st.sampled_from(
        ("", "#", "state", "state", directive, directive, "edge", "trans",
         "node")))
    tokens = draw(st.lists(ANY_ID, max_size=5))
    glue = draw(st.sampled_from((" ", "  ", "\t")))
    return head + (glue + glue.join(tokens) if tokens else "")


@st.composite
def faulty_edge(draw, directive, endpoints, operands):
    tokens = draw(st.lists(endpoints, min_size=operands, max_size=operands))
    tokens[draw(st.integers(0, operands - 1))] = draw(ANY_ID)
    return " ".join([directive, *tokens])


@st.composite
def model_text(draw, kind):
    labelled = kind != "lts"
    directive = "edge" if kind == "ks" else "trans"
    pool = draw(st.lists(st.sampled_from(GOOD_IDS[:6]), min_size=1,
                         max_size=5, unique=True))
    lines = [draw(state_line(sid, labelled)) for sid in pool]
    endpoints = st.sampled_from(pool * 4 + ["undeclared"])
    for _ in range(draw(st.integers(0, 8))):
        ends = draw(st.lists(endpoints, min_size=2, max_size=2))
        action = [] if kind == "ks" else [draw(st.sampled_from(GOOD_IDS))]
        lines.append(" ".join([directive, ends[0], *action, ends[1]]))
    # faulty lines: arbitrary directives, states with any id and props
    # (duplicates among them), edges with one token replaced by any id
    faulty = st.one_of(
        noise_line(directive),
        ANY_ID.flatmap(lambda sid: state_line(sid, labelled, ANY_ID)),
        faulty_edge(directive, endpoints, 2 if kind == "ks" else 3))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty))
    lines = [draw(st.sampled_from(("", " ", "\t"))) + line + draw(COMMENT)
             for line in lines]
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except (FormatError, StructureError) as err:
        return type(err).__name__, str(err), getattr(err, "line", None)


PARSERS = {"ks": lambda text, delta: parse_ks(text, allow_delta=delta),
           "lts": lambda text, _: parse_lts(text),
           "l2ts": lambda text, delta: parse_l2ts(text, allow_delta=delta)}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(PARSERS)).flatmap(
           lambda kind: st.tuples(st.just(kind), model_text(kind))),
       st.booleans())
def test_parsers_match_the_reference(kind_text, allow_delta):
    kind, text = kind_text
    assert (_outcome(PARSERS[kind], text, allow_delta)
            == _outcome(reference_parse, kind, text, allow_delta))


STEP_IDS = st.sampled_from(("a", "b", "c", "z"))


@settings(max_examples=300, deadline=None)
@given(st.booleans(),
       st.lists(st.one_of(st.tuples(STEP_IDS, STEP_IDS),
                          st.tuples(STEP_IDS, STEP_IDS, STEP_IDS),
                          st.lists(STEP_IDS, max_size=4).map(tuple)),
                max_size=8))
def test_transition_checks_match_the_reference(labelled_steps, transitions):
    states = ("a", "b", "c")
    labelling = {s: {"p"} for s in states}
    if labelled_steps:
        make, width = DoublyLabelledTS, 3
    else:
        make, width = KripkeStructure, 2
    expected = reference_check_transitions(states, transitions, width)
    try:
        got = make(states, labelling, tuple(transitions)).transitions
    except StructureError as err:
        got = str(err)
    assert got == expected
