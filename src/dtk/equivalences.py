"""Partition refinement for the branching/stuttering equivalence family.

The same signature-refinement engine serves LTSs and Kripke structures.
A round computes, per state, the set of observations reachable through a
run of inert steps inside the state's own block:

  * on an LTS a step ``s -a-> t`` is inert iff ``a`` is silent and ``t``
    lies in the block of ``s``; the observation is ``(a, block(t))``;
  * on a Kripke structure every step to a same-block state is inert and
    the observation is the target block.

Depending on the variant the signature also carries an in-block
divergence bit (an infinite inert run exists) and/or an in-block
completion bit (an inert run reaches a deadlock state or diverges).

A round does not explore each state's inert closure separately.  One
Tarjan pass over the inert graph finds its strongly connected
components, which never cross a block, and finishes each component
after every component it reaches.  A component's observations are its
members' non-inert steps plus the observations of the components its
inert steps enter; it diverges when it has an internal inert step (a
cycle or a self-loop) or enters a divergent component, and it can
complete when it diverges, holds a deadlock state or enters a
component that can complete.  All members share one signature.  A
round visits each state and transition a bounded number of times, plus
one set union per inert step between components.

Blocks are split by signature until the partition is stable.  The
fixpoint, started from the coarsest admissible partition, is the
coarsest consistent colouring of the respective kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import strongly_connected_components
from .structures import KripkeStructure, Lts, TAU


class EquivVariant(Enum):
    DIVERGENCE_BLIND = "db"
    DIVERGENCE_SENSITIVE = "ds"
    EXPLICIT_DIVERGENCE = "ed"


@dataclass(frozen=True)
class Partition:
    """A colouring of states, canonicalised: block ids are dense and
    assigned by first occurrence in state declaration order."""

    block_of: dict
    blocks: tuple

    @staticmethod
    def from_blocks(blocks, state_order):
        order = {s: i for i, s in enumerate(state_order)}
        keyed = sorted(blocks, key=lambda b: min(order[s] for s in b))
        block_of = {}
        out = []
        for i, b in enumerate(keyed):
            members = tuple(sorted(b, key=lambda s: order[s]))
            out.append(frozenset(members))
            for s in members:
                block_of[s] = i
        covered = set(block_of)
        if covered != set(state_order) or sum(len(b) for b in out) != len(order):
            raise ValueError("blocks do not partition the state set")
        return Partition(block_of, tuple(out))

    def same_block(self, s, t) -> bool:
        return self.block_of[s] == self.block_of[t]

    def block_sets(self):
        return set(self.blocks)

    def restrict(self, states):
        """The induced partition on a subset of the states."""
        keep = set(states)
        blocks = [b & keep for b in self.blocks if b & keep]
        return Partition.from_blocks(blocks, [s for s in states])

    def __len__(self):
        return len(self.blocks)


def meet(p: Partition, q: Partition, state_order) -> Partition:
    """Coarsest partition refining both arguments."""
    groups = {}
    for s in state_order:
        groups.setdefault((p.block_of[s], q.block_of[s]), []).append(s)
    return Partition.from_blocks(groups.values(), state_order)


def join(p: Partition, q: Partition, state_order) -> Partition:
    """Finest partition coarsened by both arguments (union-find)."""
    parent = {s: s for s in state_order}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (p, q):
        for b in part.blocks:
            members = list(b)
            for s in members[1:]:
                union(members[0], s)
    groups = {}
    for s in state_order:
        groups.setdefault(find(s), []).append(s)
    return Partition.from_blocks(groups.values(), state_order)


def _labels(g):
    """The labelling a colouring must respect (None for an LTS)."""
    if isinstance(g, KripkeStructure):
        return g.labelling
    if isinstance(g, Lts):
        return None
    raise TypeError(f"unsupported structure {type(g).__name__}")


# every Kripke step (action None) is silent; on an LTS only tau
_SILENT = frozenset((None, TAU))


@dataclass(frozen=True)
class Signature:
    """One refinement-round summary of a state."""

    observations: frozenset
    divergent: bool | None
    completable: bool | None


def _signatures(g, part, variant):
    """Per-state signatures over the given partition, from one pass over
    the strongly connected components of the inert graph."""
    need_div = variant is EquivVariant.EXPLICIT_DIVERGENCE
    need_comp = variant is EquivVariant.DIVERGENCE_SENSITIVE
    succ = g.adjacency.succ
    block_of = part.block_of

    def inert(u):
        own = block_of[u]
        return [v for (a, v) in succ[u] if a in _SILENT and block_of[v] == own]

    summary = {}   # state -> (observations, divergent, completable) of its SCC
    sigs = {}
    for scc in strongly_connected_components(g.states, inert):
        obs = set()
        largest = frozenset()   # the largest observation set taken over
        div = comp = False
        own = block_of[scc[0]]   # inert steps never leave a block
        for u in scc:
            steps = succ[u]
            if not steps:
                comp = True
            for (a, v) in steps:
                if a in _SILENT and block_of[v] == own:
                    below = summary.get(v)
                    if below is None:   # v is in this SCC: an inert cycle
                        div = True
                    else:
                        if len(below[0]) > len(largest):
                            largest = below[0]
                        obs |= below[0]
                        div = div or below[1]
                        comp = comp or below[2]
                else:
                    obs.add((a, block_of[v]))
        comp = comp or div
        # ``largest`` is a subset of ``obs``; reuse it when they are equal
        obs = largest if len(obs) == len(largest) else frozenset(obs)
        sig = Signature(obs, div if need_div else None,
                        comp if need_comp else None)
        rec = (obs, div, comp)
        for u in scc:
            summary[u] = rec
            sigs[u] = sig
    return sigs


def _initial_partition(g) -> Partition:
    labels = _labels(g)
    if labels is None:
        return Partition.from_blocks([list(g.states)], g.states)
    groups = {}
    for s in g.states:
        groups.setdefault(labels[s], []).append(s)
    return Partition.from_blocks(groups.values(), g.states)


def _rounds(g, variant: EquivVariant):
    """Yield the refinement rounds as (partition, signatures) pairs.

    The first entry is the initial partition with no signatures; each
    later entry holds the signatures (computed over the previous
    partition) that produced it.  The last partition is the coarsest
    consistent colouring for the variant.
    """
    states = g.states
    order = {s: i for i, s in enumerate(states)}
    part = _initial_partition(g)
    yield part, None
    while True:
        sigs = _signatures(g, part, variant)
        new_blocks = []
        for block in part.blocks:
            buckets = {}
            for s in sorted(block, key=order.get):
                buckets.setdefault(sigs[s], []).append(s)
            new_blocks.extend(buckets.values())
        new_part = Partition.from_blocks(new_blocks, states)
        if len(new_part) == len(part):
            return
        yield new_part, sigs
        part = new_part


def refinement_history(g, variant: EquivVariant):
    """All refinement rounds as (partition, signatures) pairs, as
    ``distinguish`` reads them; see ``_rounds``."""
    return list(_rounds(g, variant))


def _coarsest(g, variant: EquivVariant) -> Partition:
    """The last partition of the refinement, keeping one round at a time."""
    for part, _ in _rounds(g, variant):
        pass
    return part


def coarsest_partition_lts(l: Lts, variant: EquivVariant) -> Partition:
    """Coarsest partition whose colouring is consistent (all variants),
    divergence preserving (explicit divergence) or fully consistent
    (divergence sensitive)."""
    return _coarsest(l, variant)


def coarsest_partition_ks(k: KripkeStructure, variant: EquivVariant) -> Partition:
    """As for LTSs, but colourings must also respect the labelling; the
    refinement starts from the label classes."""
    return _coarsest(k, variant)


def check_colouring(g, p: Partition, variant: EquivVariant) -> bool:
    """Decide validity of a colouring through the finite per-block
    conditions: equal observation sets (length-three coloured traces),
    plus a uniform divergence or completion bit where the variant asks
    for one; on a Kripke structure blocks must also be label-uniform."""
    labels = _labels(g)
    if set(p.block_of) != set(g.states):
        raise ValueError("partition does not cover the state set")
    if labels is not None:
        for block in p.blocks:
            labs = {labels[s] for s in block}
            if len(labs) > 1:
                return False
    sigs = _signatures(g, p, variant)
    for block in p.blocks:
        if len({sigs[s] for s in block}) > 1:
            return False
    return True


def _set_partitions(items):
    """All partitions of ``items``, via restricted growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def emit():
        blocks = {}
        for idx, b in enumerate(rgs):
            blocks.setdefault(b, []).append(items[idx])
        return list(blocks.values())

    while True:
        yield emit()
        i = n - 1
        while i > 0:
            limit = max(rgs[:i]) + 1
            if rgs[i] < limit:
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


ORACLE_STATE_BOUND = 8


def oracle_coarsest_partition(g, variant: EquivVariant) -> Partition:
    """Brute-force reference: enumerate every partition of the states,
    keep the valid colourings, and fold them with ``join``.

    Validity is closed under join, so the result is the unique coarsest
    valid colouring.  Only meant for small instances."""
    _labels(g)
    states = g.states
    if len(states) > ORACLE_STATE_BOUND:
        raise ValueError(
            f"oracle limited to {ORACLE_STATE_BOUND} states, got {len(states)}")
    result = None
    for blocks in _set_partitions(list(states)):
        cand = Partition.from_blocks(blocks, states)
        if check_colouring(g, cand, variant):
            result = cand if result is None else join(result, cand, states)
    if result is None or not check_colouring(g, result, variant):
        raise AssertionError("no valid colouring found; identity must be valid")
    return result


def divergent_states(g, p: Partition) -> set:
    """States that start an infinite run of inert steps inside their own
    block (silent steps for an LTS, any steps for a Kripke structure)."""
    _labels(g)
    if set(p.block_of) != set(g.states):
        raise ValueError("partition does not cover the state set")
    sigs = _signatures(g, p, EquivVariant.EXPLICIT_DIVERGENCE)
    return {s for s, sig in sigs.items() if sig.divergent}


def equivalent(g, s, t, variant: EquivVariant) -> bool:
    """Same block of the coarsest partition for the variant."""
    for x in (s, t):
        if x not in g.states:
            raise ValueError(f"unknown state {x!r}")
    if isinstance(g, KripkeStructure):
        part = coarsest_partition_ks(g, variant)
    else:
        part = coarsest_partition_lts(g, variant)
    return part.same_block(s, t)
