"""The state index is a structure's only copy of its steps: ``_Steps``
against a reference built as tuples, and a check that the command line's
analysis paths never rebuild ``transitions``."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtk import cli, structures
from dtk.compose import merge
from dtk.structures import (
    DoublyLabelledTS,
    KripkeStructure,
    Lts,
    TAU,
    _render,
    parse_ks,
    parse_l2ts,
    parse_lts,
)
from tests_helpers import name_keyed_steps

IDS = ("a", "b", "s0", "x.y", "Z9")
ACTIONS = (TAU, "a", "b", "go.1")
PARSE = {KripkeStructure: parse_ks, Lts: parse_lts,
         DoublyLabelledTS: parse_l2ts}


@st.composite
def step_lists(draw):
    """A structure type, its states (possibly repeated) and a step list
    over a few states and actions, so that steps repeat and sources
    interleave, and a source can outgrow ``_Steps``' list scan."""
    cls = draw(st.sampled_from(sorted(PARSE, key=lambda c: c.__name__)))
    states = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=8))
    state = st.sampled_from(states)
    if cls is KripkeStructure:
        step = st.tuples(state, state)
    else:
        step = st.tuples(state, st.sampled_from(ACTIONS), state)
    return cls, states, draw(st.lists(step, max_size=40))


def _build(cls, states, steps):
    if cls is Lts:
        return Lts(states, (TAU,), steps)
    return cls(states, {s: {"p"} for s in states[::2]}, steps)


def _text(cls, states, steps):
    """Model text of ``steps`` over the declared ``states``, in order,
    each step written as soon as its endpoints are declared."""
    labelled = cls is not Lts
    directive = "edge" if cls is KripkeStructure else "trans"
    lines, declared, pending = [], set(), list(steps)
    for s in dict.fromkeys(states):
        props = " p " if labelled and s in states[::2] else ""
        lines.append(f"state {s} {{{props}}}" if labelled else f"state {s}")
        declared.add(s)
        while pending and {pending[0][0], pending[0][-1]} <= declared:
            lines.append(" ".join((directive, *pending.pop(0))))
    return "\n".join(lines) + "\n"


def _reference(cls, states, steps):
    """What the index held when a structure kept its steps as tuples:
    first occurrences, actions in the order they first occur."""
    order = tuple(dict.fromkeys(states))
    trans = tuple(dict.fromkeys(steps))
    number = {s: i for i, s in enumerate(order)}
    kripke = cls is KripkeStructure
    actions = {None if kripke else TAU: 0}
    succ = [[] for _ in order]
    preds = [[] for _ in order]
    for t in trans:
        u, v = number[t[0]], number[t[-1]]
        a = 0 if kripke else actions.setdefault(t[1], len(actions))
        succ[u].append((a, v))
        preds[v].append(u)
    return order, trans, list(actions), succ, preds


@settings(max_examples=200, deadline=None)
@given(step_lists(), st.sampled_from((0, 1, 2, structures._Steps._SCAN)))
def test_index_matches_tuple_reference(case, scan):
    """``scan`` is the step count from which a source checks repeats in
    a set rather than in its list; the small ones reach that branch."""
    cls, states, steps = case
    order, trans, actions, succ, preds = _reference(*case)
    default, structures._Steps._SCAN = structures._Steps._SCAN, scan
    try:
        built = (_build(*case), PARSE[cls](_text(*case)))
    finally:
        structures._Steps._SCAN = default
    for g in built:
        index = g.index
        assert g.states == order
        assert index.actions == actions
        assert index.succ == succ
        assert [sorted(p) for p in index.preds] == [sorted(p) for p in preds]
        assert len(index.sources) == len(trans)
        assert g.transitions == trans
        if cls is Lts:
            assert g.actions == tuple(dict.fromkeys([TAU, *actions]))
        text = "".join(_render(g))
        assert "".join(_render(PARSE[cls](text))) == text


@st.composite
def graphs(draw):
    """An LTS or a Kripke structure of up to 6 states, none included,
    whose steps may loop and repeat."""
    states = draw(st.lists(st.sampled_from(IDS), max_size=6, unique=True))
    kripke = draw(st.booleans())
    state = st.sampled_from(states or ["none"])
    step = (st.tuples(state, state) if kripke
            else st.tuples(state, st.sampled_from(ACTIONS), state))
    steps = draw(st.lists(step, max_size=30 if states else 0))
    if kripke:
        return KripkeStructure(states, {}, steps)
    return Lts(states, (TAU,), steps)


@settings(max_examples=300, deadline=None)
@given(graphs())
@example(KripkeStructure((), {}, ()))
@example(Lts(("a", "b"), (TAU,), [("a", "x", "a"), ("b", "x", "a"),
                                  ("a", "x", "a"), ("a", TAU, "b")]))
def test_flat_preds_reverse_the_steps_in_step_order(g):
    naive = [[] for _ in g.states]
    for u, (_, v) in g.index.steps():
        naive[v].append(u)
    preds = g.index.preds
    assert len(preds) == len(naive)
    assert [preds[v] for v in range(len(naive))] == naive
    assert list(preds) == naive


def test_a_source_past_the_list_scan_keeps_first_occurrences():
    steps = [("a", f"l{i % 12}", "b") for i in range(40)]
    l = Lts(("a", "b"), (TAU,), steps)
    assert l.transitions == tuple(dict.fromkeys(steps))
    assert len(l.index.sources) == 12


# --- merge feeds the index ------------------------------------------------------

# ids with "|", so that two pairs of states can get one product name
PIPE_IDS = ("a", "b", "c", "a|b", "b|c")


@st.composite
def pipe_ltss(draw):
    states = draw(st.lists(st.sampled_from(PIPE_IDS), min_size=1,
                           max_size=5, unique=True))
    state = st.sampled_from(states)
    steps = st.tuples(state, st.sampled_from((TAU, "x", "y")), state)
    return Lts(states, (TAU,), draw(st.lists(steps, max_size=10)))


def _reference_merge(l1, s, l2, t):
    """The product as ``merge`` built it as tuples: breadth first, left
    moves then right moves, a product state per name."""
    names = {(s, t): f"{s}|{t}"}
    states, trans, queue = [names[(s, t)]], [], deque([(s, t)])
    (succ1, _), (succ2, _) = name_keyed_steps(l1), name_keyed_steps(l2)

    def reach(pair):
        if pair not in names:
            names[pair] = f"{pair[0]}|{pair[1]}"
            states.append(names[pair])
            queue.append(pair)
        return names[pair]

    while queue:
        (p, q) = pair = queue.popleft()
        for (a, p2) in succ1[p]:
            trans.append((names[pair], a, reach((p2, q))))
        for (a, q2) in succ2[q]:
            trans.append((names[pair], a, reach((p, q2))))
    return Lts(states, l1.actions + l2.actions, trans)


@settings(max_examples=200, deadline=None)
@given(pipe_ltss(), pipe_ltss())
# (a|b, c) and (a, b|c) are both "a|b|c", each reached from (a, c) by "x"
@example(Lts(("a", "a|b"), (), [("a", "x", "a|b")]),
         Lts(("c", "b|c"), (), [("c", "x", "b|c")]))
def test_merge_matches_tuple_reference(l1, l2):
    s, t = l1.states[0], l2.states[0]
    product, root = merge(l1, s, l2, t)
    reference = _reference_merge(l1, s, l2, t)
    assert root == f"{s}|{t}"
    assert product == reference
    assert product.index == reference.index


# --- no analysis path rebuilds the transitions ---------------------------------

def _lts_file(path, n, seed):
    rng = random.Random(seed)
    lines = [f"state s{i}" for i in range(n)]
    for i in range(n):
        lines.append(f"trans s{i} {rng.choice(ACTIONS)} s{(i + 1) % n}")
        lines.append(f"trans s{i} {rng.choice(ACTIONS)} s{rng.randrange(n)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _ks_file(path, n, seed):
    rng = random.Random(seed)
    lines = [f"state s{i} {{ {rng.choice('pq')} }}" for i in range(n)]
    for i in range(n):
        lines.append(f"edge s{i} s{(i + 1) % n}")
        lines.append(f"edge s{i} s{rng.randrange(n)}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def built(monkeypatch):
    """Every structure built while the test runs."""
    made = []
    index = structures._StateGraph._index

    def record(self, steps, transitions):
        made.append(self)
        index(self, steps, transitions)

    monkeypatch.setattr(structures._StateGraph, "_index", record)
    return made


def _commands(tmp_path):
    lts = _lts_file(tmp_path / "big.lts", 2000, 1)
    small = _lts_file(tmp_path / "small.lts", 3, 2)
    ks = _ks_file(tmp_path / "big.ks", 2000, 3)
    return {
        "check-equiv": ["check-equiv", "--model", str(lts), "--kind", "lts",
                        "--variant", "ed"],
        "compose": ["compose", "--left", f"{lts}:s0", "--right", f"{small}:s0",
                    "-o", str(tmp_path / "product.lts")],
        "model-check": ["model-check", "--model", str(ks),
                        "--formula", "E (p U EGinf q)"],
        "distinguish": ["distinguish", "--model", str(ks), "--variant", "ds",
                        "--state-a", "s0", "--state-b", "s1"],
        "traces": ["traces", "--model", str(lts), "--kind", "lts",
                   "--state", "s0", "--bound", "3"],
    }


@pytest.mark.parametrize("command", ["check-equiv", "compose", "model-check",
                                     "distinguish", "traces"])
def test_analysis_commands_never_build_transitions(command, tmp_path, built,
                                                   capsys):
    argv = _commands(tmp_path)[command]
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert len(built) == (3 if command == "compose" else 1)
    for g in built:
        assert "transitions" not in g.__dict__
