"""Partition refinement for the branching/stuttering equivalence family.

The same signature-refinement engine serves LTSs and Kripke structures.
A round computes, per state, the set of observations reachable through a
run of inert steps inside the state's own block:

  * on an LTS a step ``s -a-> t`` is inert iff ``a`` is silent and ``t``
    lies in the block of ``s``; the observation is ``(a, block(t))``;
  * on a Kripke structure every step to a same-block state is inert and
    the observation is the target block.

Divergence and completion are observed the way the deadlock extension
observes deadlock: as marker observations.  Under explicit divergence a
state that starts an infinite inert run observes ``DIVERGES``; under
divergence sensitivity a state whose inert runs can complete (reach a
deadlock state or diverge) observes ``COMPLETES``; divergence blindness
observes neither.  A state's signature is one set, and a variant
compares signatures by set equality.

The signatures of one block are folded over the strongly connected
components of the block's inert graph, successors first.  A component
is finished after every component it reaches, so its observations are
its members' non-inert steps, its marker (when it has an internal inert
step, a cycle or a self-loop, or under divergence sensitivity holds a
deadlock state), and the observations of the components its inert
steps enter: the markers travel upstream with the rest.  All members
share one set, and within one pass equal sets are one shared object,
so a block holds one set per distinct signature, not one per state.

Blocks are split by signature until the partition is stable.  The
fixpoint, started from the coarsest admissible partition, is the
coarsest consistent colouring of the respective kind.  A refinement
reads the structure's integer state index (``g.index``: ``(action id,
target)`` successor pairs, predecessor lists); an observation is one
non-negative integer, a marker a negative one.  The inert components
are found once, by one Tarjan pass over the initial partition, whose
index and link values sit in lists indexed by state id.  No round
splits a component (Groote and Vaandrager): its members share one
signature.  And a block's inert graph only loses steps as blocks split,
so its components stay those of the pass and that pass's order stays
successors-first.  So a block lists its members in that order, a
component's members side by side, a piece of a split keeps the order,
and no later round searches for components.  A refinement keeps a
block id per state, a member list per block of more than one state,
and one list of per-state signatures, which a block's pass fills and
its split empties again; state and block ids are the index's own int
objects.  The first round computes every block.  When a block splits,
its largest piece keeps the block id and the other pieces move to new
ids.  A later round computes only the dirty blocks: the pieces of a
split, and the blocks that hold a predecessor of a moved state.
Any other block has the same steps into the same block ids as in the
round before, so its members' signatures are still equal and a full
round would not split it either; every round therefore yields the same
partition as one that recomputes all states.  A block of one state
never splits and is never computed.  The result is canonicalised once,
at the end, into one block id per state: no block holds a member set.

One kernel, ``_block_signatures``, folds every signature, over
components that ``_components`` finds; only this module reads its
integer observations.  ``check_colouring`` (once the labels agree) and
``divergent_states`` read one pass over the whole colouring.
``refinement_history`` lists the rounds as they are, one tuple of block
ids per round; ``logic.distinguish`` reads that list, and for a split
``split_difference``: one pass from the two states the split separates,
over the round before, which covers exactly the states they reach by
inert steps, all that their signatures depend on.  It returns what one
of them observes and the other does not, decoded into ``(action id,
block id)`` pairs, or the variant's marker.
"""

from __future__ import annotations

from enum import Enum
from itertools import groupby

from .graphs import strongly_connected_components
from .structures import KripkeStructure, Lts, Value


class EquivVariant(Enum):
    DIVERGENCE_BLIND = "db"
    DIVERGENCE_SENSITIVE = "ds"
    EXPLICIT_DIVERGENCE = "ed"


class Partition(Value):
    """A colouring of states, canonicalised: ``block_of`` maps each state,
    in declaration order, to a block id; ids are dense, by first use."""

    __match_args__ = ("block_of",)

    @staticmethod
    def from_blocks(blocks, state_order):
        state_order = list(state_order)   # read once: it may be an iterator
        index = {}
        for i, b in enumerate(blocks):
            if not b:
                raise ValueError("blocks do not partition the state set")
            for s in b:
                if index.setdefault(s, i) != i:
                    raise ValueError("blocks do not partition the state set")
        if index.keys() != set(state_order):
            raise ValueError("blocks do not partition the state set")
        return _partition(state_order, [index[s] for s in state_order])

    def members(self):
        """Each block's states in declaration order, one list at a time."""
        block_of = self.block_of
        order = sorted(block_of, key=block_of.__getitem__)   # stable
        for _, group in groupby(order, block_of.__getitem__):
            yield list(group)

    @property
    def blocks(self):
        """The blocks as frozensets, in id order."""
        return tuple(map(frozenset, self.members()))

    def same_block(self, s, t) -> bool:
        return self.block_of[s] == self.block_of[t]

    def restrict(self, states):
        """The induced partition on a subset of the states."""
        states = list(states)   # read once: it may be an iterator
        if not self.block_of.keys() >= set(states):
            raise ValueError("blocks do not partition the state set")
        return _partition(states, map(self.block_of.__getitem__, states))

    def __len__(self):
        return len(set(self.block_of.values()))


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest partition refining both arguments, in ``p``'s order."""
    return _partition(p.block_of, [(b, q.block_of[s])
                                   for s, b in p.block_of.items()])


def join(p: Partition, q: Partition) -> Partition:
    """Finest partition coarsened by both arguments, in ``p``'s order."""
    state_order = list(p.block_of)
    parent = {s: s for s in state_order}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (p, q):
        first = {}   # block id -> the block's first state
        for s in state_order:
            parent[find(first.setdefault(part.block_of[s], s))] = find(s)
    return _partition(state_order, [find(s) for s in state_order])


def _labels(g):
    """The labelling a colouring must respect (None for an LTS)."""
    if isinstance(g, KripkeStructure):
        return g.labelling
    if isinstance(g, Lts):
        return None
    raise TypeError(f"unsupported structure {type(g).__name__}")


# marker observations; a real one, ``block * width + action``, is >= 0
DIVERGES = -1
COMPLETES = -2

# per variant: the markers of a component with an internal inert step,
# and of one that holds a deadlock state
_MARKERS = {
    EquivVariant.DIVERGENCE_BLIND: ((), ()),
    EquivVariant.DIVERGENCE_SENSITIVE: ((COMPLETES,), (COMPLETES,)),
    EquivVariant.EXPLICIT_DIVERGENCE: ((DIVERGES,), ()),
}


def _components(index, block, nodes, size=None):
    """The strongly connected components of the inert graph reached from
    ``nodes``, successors first, each a list of state ids.  A step is
    inert iff it is silent (action id 0) and stays in its source's block.
    With ``size`` the search keeps its scratch in lists of that length."""
    succ = index.succ

    def inert(u):
        own = block[u]
        return [v for (a, v) in succ[u] if not a and block[v] == own]

    return strongly_connected_components(nodes, inert, size)


def _block_signatures(sccs, block, index, variant, records):
    """Fill ``records`` with the signatures of the states of ``sccs``,
    components of the inert graph listed successors first, as
    observation sets folded over the components.  ``records`` maps
    every state of the pass to None (a list by state id or a dict), and
    equal sets are one shared object.  An observation ``(a, block(v))``
    is encoded as the integer ``block(v) * len(actions) + a``; the
    variant's marker is added where it applies."""
    succ = index.succ
    width = len(index.actions)
    on_cycle, on_deadlock = _MARKERS[variant]
    shared = {}    # each distinct observation set -> itself
    for scc in sccs:
        own = block[scc[0]]
        obs = set()
        largest = frozenset()   # the largest observation set taken over
        for u in scc:
            if not succ[u]:
                obs.update(on_deadlock)
            for (a, v) in succ[u]:
                b = block[v]
                if a or b != own:
                    obs.add(b * width + a)
                    continue
                below = records[v]
                if below is None:   # v is in this SCC: an inert cycle
                    obs.update(on_cycle)
                else:
                    if len(below) > len(largest):
                        largest = below
                    obs |= below
        # ``largest`` is a subset of ``obs``; reuse it when they are equal
        obs = largest if len(obs) == len(largest) else frozenset(obs)
        obs = shared.setdefault(obs, obs)
        for u in scc:
            records[u] = obs


def _initial_blocks(g):
    """Per-state block ids of the coarsest admissible partition."""
    labels = _labels(g)
    if labels is None:
        return [0] * len(g.states)
    ids = {}
    return [ids.setdefault(labels[s], len(ids)) for s in g.states]


def _partition(states, block) -> Partition:
    """The canonical ``Partition`` of per-state block ids: a block's
    canonical id is the number of blocks met before its first member."""
    canonical = {}
    return Partition({s: canonical.setdefault(b, len(canonical))
                      for s, b in zip(states, block)})


def _rounds(g, variant: EquivVariant):
    """Yield the per-state block ids (a tuple, states in declaration
    order) of the initial partition and of every round that split a
    block; the last is the coarsest consistent colouring for the variant.

    Block ids are not canonical.  A round computes only the dirty blocks
    of more than one member (every block in the first round), and applies
    all splits after all of them are computed, so each round refines the
    partition the previous one left.  A block's inert components are
    read off its member list, in the order of one Tarjan pass made
    before the first round (see the module docstring).
    """
    index = g.index
    ids = list(index.number.values())   # the index's int object per id
    block = _initial_blocks(g)
    n = len(block)
    members = [[] for _ in set(block)]
    cycle_of = {}   # a member of an inert cycle -> its component's last
    for scc in _components(index, block, ids, n):
        members[block[scc[0]]] += scc
        if len(scc) > 1:
            cycle_of.update(dict.fromkeys(scc, scc[-1]))

    def components(group):
        return (list(scc) for _, scc in
                groupby(group, lambda u: cycle_of.get(u, u)))

    # a block of one state never splits and keeps no member list
    members = [group if len(group) > 1 else None for group in members]
    records = [None] * n    # the pass over a block fills, its split empties
    yield tuple(block)
    dirty = range(len(members))
    while True:
        splits = []
        for b in dirty:
            group = members[b]
            if group is None:
                continue
            _block_signatures(components(group), block, index, variant,
                              records)
            buckets = {}
            for u in group:
                buckets.setdefault(records[u], []).append(u)
                records[u] = None
            if len(buckets) > 1:
                # the largest piece keeps the block id, the others move;
                # members are in component order, so equal sizes go by
                # least state id, as declaration order had them
                splits.append((b, sorted(buckets.values(),
                                         key=lambda p: (-len(p), min(p)))))
        if not splits:
            return
        dirty = set()
        for b, (kept, *moved) in splits:
            members[b] = kept if len(kept) > 1 else None
            dirty.add(b)
            for piece in moved:
                b = ids[len(members)]
                members.append(piece if len(piece) > 1 else None)
                dirty.add(b)
                for u in piece:
                    block[u] = b
        # a block with a step into a moved state may split next
        preds = index.preds
        for _, (_, *moved) in splits:
            for piece in moved:
                for v in piece:
                    for u in preds[v]:
                        dirty.add(block[u])
        yield tuple(block)


def refinement_history(g, variant: EquivVariant) -> list:
    """Every round of ``_rounds`` as a list: the per-state block ids (a
    tuple, states in declaration order) of the initial partition and of
    every round that split a block.  Ids are dense but not canonical,
    and the piece of a split that keeps its block keeps the block's id."""
    return list(_rounds(g, variant))


def coarsest_partition(g, variant: EquivVariant) -> Partition:
    """Coarsest partition whose colouring is consistent (all variants),
    divergence preserving (explicit divergence) or fully consistent
    (divergence sensitive).  On a Kripke structure a colouring must also
    respect the labelling, and the refinement starts from the label
    classes.  The last round is canonicalised once."""
    for block in _rounds(g, variant):
        pass
    return _partition(g.states, block)


def split_difference(g, u, w, block, variant: EquivVariant):
    """What tells apart the states with ids ``u`` and ``w``, which share
    a block of the per-state block ids ``block`` but not a signature over
    them: ``(x, found)``, where ``x`` is the one of the two that observes
    what the other does not.  ``found`` lists those observations as
    ``(action id, block id)`` pairs, ``u``'s before ``w``'s, or, when
    only the variant's marker differs, is that marker.  One pass from
    both states covers every state either reaches by inert steps, all
    that their signatures depend on, and its records hold only those."""
    index = g.index
    sccs = list(_components(index, block, (u, w)))
    records = dict.fromkeys(v for scc in sccs for v in scc)
    _block_signatures(sccs, block, index, variant, records)
    width = len(index.actions)
    ou, ow = records[u], records[w]
    for x, extra in ((u, ou - ow), (w, ow - ou)):
        found = [(c % width, c // width) for c in extra if c >= 0]
        if found:
            return x, found
    (marker,) = ou ^ ow     # the variant's one marker
    return (u if marker in ou else w), marker


# the names of the structure kinds, which the benchmark's tracer wraps
coarsest_partition_ks = coarsest_partition_lts = coarsest_partition


def _check_cover(g, p: Partition):
    if set(p.block_of) != set(g.states):
        raise ValueError("partition does not cover the state set")


def _colouring_signatures(g, p: Partition, variant: EquivVariant):
    """Every state's signature over ``p``, one kernel pass over all
    states: the per-state block ids and signatures, as lists by state
    id; ``p`` must cover the states."""
    _labels(g)
    _check_cover(g, p)
    index, n = g.index, len(g.states)
    block = [p.block_of[s] for s in g.states]
    records = [None] * n
    _block_signatures(_components(index, block, range(n), n), block, index,
                      variant, records)
    return block, records


def check_colouring(g, p: Partition, variant: EquivVariant) -> bool:
    """Decide validity of a colouring through the finite per-block
    conditions: equal observation sets (length-three coloured traces),
    the variant's divergence or completion marker included; on a Kripke
    structure blocks must also be label-uniform, which is tested first,
    without a kernel pass."""
    labelling = _labels(g)
    _check_cover(g, p)
    block_of, blocks = p.block_of, len(p)
    if labelling is not None and len(
            {(block_of[s], labelling[s]) for s in g.states}) != blocks:
        return False
    block, records = _colouring_signatures(g, p, variant)
    return len(set(zip(block, records))) == blocks


def _set_partitions(items):
    """All partitions of ``items``: each item joins each block of every
    partition of the items before it, or starts a block of its own."""
    partitions = [[]]
    for x in items:
        partitions = [p[:i] + [p[i] + [x]] + p[i + 1:] if i < len(p)
                      else p + [[x]]
                      for p in partitions for i in range(len(p) + 1)]
    return partitions


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
    for blocks in _set_partitions(states):
        cand = Partition.from_blocks(blocks, states)
        if check_colouring(g, cand, variant):
            result = cand if result is None else join(result, cand)
    if result is None or not check_colouring(g, result, variant):
        raise AssertionError("no valid colouring found; identity must be valid")
    return result


def divergent_states(g, p: Partition) -> set:
    """States that start an infinite run of inert steps inside their own
    block (silent steps for an LTS, any steps for a Kripke structure)."""
    _, records = _colouring_signatures(g, p, EquivVariant.EXPLICIT_DIVERGENCE)
    return {s for s, obs in zip(g.states, records) if DIVERGES in obs}


def equivalent(g, s, t, variant: EquivVariant) -> bool:
    """Same block of the coarsest partition for the variant."""
    g.check_state(s)
    g.check_state(t)
    return coarsest_partition(g, variant).same_block(s, t)
