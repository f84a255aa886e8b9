"""Interleaving merge and the congruence probe.

The merge of two root states is the reachable fragment of the product in
which either component moves independently.  Product states are rendered
``left|right``, and a pair whose name an earlier pair took (ids holding
``|`` allow it) gets a fresh one; the text renderers map ``|`` into the
id charset when a product is written out.

The probe reproduces the paper's two congruence results on one pair of
states: it reads the pair's verdict under each equivalence variant, and
again after merging both states with a context that performs one fresh
action.
"""

from __future__ import annotations

from collections import deque

# only merge runs on the command line; the probe below reaches the
# refinement engine through its module, which loads on first use
from . import equivalences
from .structures import (Lts, TAU, Value, _Steps, disjoint_union_lts,
                         fresh_name)


def merge(l1: Lts, s, l2: Lts, t):
    """Reachable interleaving product from the pair (s, t).

    Returns (product LTS, root state id).  Transitions are exactly the
    left moves and the right moves; discovery order is breadth-first, so
    output is deterministic.
    """
    l1.check_state(s)
    l2.check_state(t)
    index1, index2 = l1.index, l2.index
    succ1, succ2 = index1.succ, index2.succ
    actions1, actions2 = index1.actions, index2.actions
    names1, names2 = l1.states, l2.states
    # the search runs on pairs of state ids and feeds the product's index
    # (``_Steps``) as it goes: each product state is named once, when found,
    # and every step is three integers.  A pair ``(p, q)`` is keyed by the
    # one int ``p * len(names2) + q``.  Ids holding "|" can give two pairs
    # one name; the later pair then gets a fresh one, so each pair is one
    # product state.  A component's steps are distinct, so the product's
    # are, except that a right self-loop repeats a left one with its
    # action; steps go in unchecked (``append``)
    steps = _Steps(kripke=False)
    action, out, put = steps.action, steps.succ, steps.append
    width = len(names2)
    start = index1.number[s] * width + index2.number[t]
    root = f"{s}|{t}"
    ids = {start: steps.state(root)}
    queue = deque([start])

    def reach(p, q):
        key = p * width + q
        v = ids.get(key)
        if v is None:
            name = f"{names1[p]}|{names2[q]}"
            if name in steps.number:
                name = fresh_name(name, steps.number)
            v = ids[key] = steps.state(name)
            queue.append(key)
        return v

    # a component's action id -> the product's, given at first occurrence
    act1, act2 = [None] * len(actions1), [None] * len(actions2)
    while queue:
        key = queue.popleft()
        here = ids[key]
        p, q = divmod(key, width)
        for (a, p2) in succ1[p]:
            b = act1[a]
            if b is None:
                b = act1[a] = action(actions1[a])
            v = reach(p2, q)
            put(here, b, v)
        for (a, q2) in succ2[q]:
            b = act2[a]
            if b is None:
                b = act2[a] = action(actions2[a])
            if q2 != q or (b, here) not in out[here]:
                v = reach(p, q2)
                put(here, b, v)
    product = Lts(steps.number, l1.actions + l2.actions, steps)
    return product, root


def merged_pair_system(l1: Lts, s, l2: Lts, t, l3: Lts, s2, l4: Lts, t2):
    """Two merges placed in one LTS so their roots can be compared.

    Returns (union LTS, root of the first merge, root of the second)."""
    left, root_left = merge(l1, s, l2, t)
    right, root_right = merge(l3, s2, l4, t2)
    union, map2 = disjoint_union_lts(left, right)
    return union, root_left, map2[root_right]


class ProbeReport(Value):
    """The verdicts of one congruence probe: the variants, in declaration
    order, under which the pair is equivalent, and those under which its
    merges with the fresh-action context are.  They are tuples, not sets,
    so a report prints the same under every ``PYTHONHASHSEED``."""

    __match_args__ = ("pair", "in_context", "fresh_action")

    @property
    def biconditional_holds(self) -> bool:
        """Explicit-divergence equivalence of the pair exactly when the
        fresh context keeps divergence-sensitive equivalence."""
        variant = equivalences.EquivVariant
        return ((variant.EXPLICIT_DIVERGENCE in self.pair)
                == (variant.DIVERGENCE_SENSITIVE in self.in_context))


def fresh_action_context(l: Lts):
    """A two-state context performing one globally fresh action and then
    deadlocking."""
    action = fresh_name("fresh", set(l.actions))
    return Lts(("probe", "probe_end"), (TAU, action),
               (("probe", action, "probe_end"),)), "probe", action


def _verdicts(g, s, t):
    """The variants, in declaration order, under which s and t are
    equivalent in g."""
    return tuple(v for v in equivalences.EquivVariant
                 if equivalences.equivalent(g, s, t, v))


def coarsest_congruence_probe(l: Lts, s, t) -> ProbeReport:
    """Compare s and t under each variant, and again after merging each
    with the fresh-action context.

    Divergence-sensitive equivalence can hold of the pair and fail in
    the context, so it is not a merge congruence; explicit divergence
    holds of the pair exactly when the context keeps divergence-sensitive
    equivalence (``biconditional_holds``), so it is the coarsest
    congruence inside it.
    """
    ctx, root, action = fresh_action_context(l)
    union, left_root, right_root = merged_pair_system(
        l, s, ctx, root, l, t, ctx, root)
    return ProbeReport(_verdicts(l, s, t),
                       _verdicts(union, left_root, right_root), action)
