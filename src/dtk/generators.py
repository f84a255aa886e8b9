"""Seeded random structure and formula generators.

Used by the congruence sampler and by the test/acceptance suites.
Every generator takes a ``random.Random``, not a seed, and is a
deterministic function of it.
"""

from __future__ import annotations

from . import logic
from .structures import DELTA_PROP, KripkeStructure, Lts, TAU


def random_ks(rng, max_states: int = 6, props=("p", "q"),
              edge_bias: float = 0.3) -> KripkeStructure:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    labelling = {
        s: {p for p in props if rng.random() < 0.5} for s in states
    }
    edges = tuple(
        (u, v) for u in states for v in states if rng.random() < edge_bias
    )
    return KripkeStructure(states, labelling, edges)


def random_lts(rng, max_states: int = 6, actions=("a", "b"),
               edge_bias: float = 0.25, tau_bias: float = 0.4) -> Lts:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    palette = (TAU,) + tuple(actions)
    trans = []
    for u in states:
        for v in states:
            if rng.random() < edge_bias:
                act = TAU if rng.random() < tau_bias else rng.choice(actions)
                trans.append((u, act, v))
    return Lts(states, palette, tuple(trans))


def random_acyclic_lts(rng, max_states: int = 4, actions=("a", "b"),
                       edge_bias: float = 0.5,
                       tau_loop_bias: float = 0.3) -> Lts:
    """Forward edges only, plus optional silent self-loops.

    Such systems (and their merges) have finitely many complete traces,
    so bounded trace enumeration exhausts on them.
    """
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    trans = []
    for i, u in enumerate(states):
        for v in states[i + 1:]:
            if rng.random() < edge_bias:
                act = TAU if rng.random() < 0.25 else rng.choice(actions)
                trans.append((u, act, v))
        if rng.random() < tau_loop_bias:
            trans.append((u, TAU, u))
    return Lts(states, (TAU,) + tuple(actions), tuple(trans))


def random_formula(rng, props=("p", "q"), depth: int = 2,
                   include_infinity: bool = True,
                   include_delta: bool = False):
    """A random state formula of the model-checked fragment."""
    atoms = list(props)
    if include_delta:
        atoms.append(DELTA_PROP)

    def atom():
        r = rng.random()
        if r < 0.15:
            return logic.TRUE
        if r < 0.25:
            return logic.Not(logic.TRUE)
        return logic.Prop(rng.choice(atoms))

    def build(d):
        if d == 0:
            return atom()
        choices = ["atom", "not", "and", "until", "eg"]
        if include_infinity:
            choices.append("eginf")
        kind = rng.choice(choices)
        if kind == "atom":
            return atom()
        if kind == "not":
            return logic.Not(build(d - 1))
        if kind == "and":
            return logic.And((build(d - 1), build(d - 1)))
        if kind == "until":
            return logic.ExistsUntil(build(d - 1), build(d - 1))
        if kind == "eg":
            return logic.ExistsG(build(d - 1))
        return logic.ExistsGInf(build(d - 1))

    return build(depth)
