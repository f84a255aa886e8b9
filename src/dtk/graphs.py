"""Internal graph helpers shared by the equivalence, logic and linear
engines.

The cycle and reachability walks run over the integer state ids of a
structure's ``StateIndex``, restricted to the subgraph induced by a node
set: the cycle search reads its ``(action id, target)`` successor pairs,
the backward search its predecessor lists, which ``predecessors`` keeps
flat in one ``FlatLists``.  The component search takes any successor
function, which may lead out of its start nodes: it then finds the
components of everything the start nodes reach.  Given the node count,
it keeps its per-node scratch in lists indexed by node, not in dicts.
"""

from __future__ import annotations

import sys


class FlatLists:
    """Lists of items held as one flat list and its offsets: list ``v``,
    for ``v`` in ``0..len(lists)-1``, is ``flat[start[v]:start[v + 1]]``,
    read as a new list by ``lists[v]``.  The offsets are machine
    integers in a memoryview, 8 bytes each with no int object behind
    them."""

    __slots__ = ("flat", "start")

    def __init__(self, flat, start):
        self.flat, self.start = flat, start

    def __len__(self):
        return len(self.start) - 1

    def __getitem__(self, v):
        start = self.start
        return self.flat[start[v]:start[v + 1]]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def predecessors(succ, steps) -> FlatLists:
    """The sources of the steps into each node, in the order ``steps``
    lists them as ``(source, (label, target))``; ``succ[u]`` holds
    ``u``'s ``(label, target)`` pairs.  Built by counting: the steps per
    target fix the offsets, and one pass over ``steps`` places every
    source."""
    n = len(succ)
    start = memoryview(bytearray(8 * (n + 1))).cast("q")
    for out in succ:
        for _, v in out:
            start[v + 1] += 1
    for v in range(n):
        start[v + 1] += start[v]
    flat = [None] * start[n]
    slot = memoryview(bytearray(start)).cast("q")   # the next free place
    for u, (_, v) in steps:
        flat[slot[v]] = u
        slot[v] += 1
    return FlatLists(flat, start)


def strongly_connected_components(nodes, follow, size=None):
    """Yield the strongly connected components of the graph reached from
    ``nodes``, whose edges from ``v`` go to the nodes in ``follow(v)``
    (which may leave ``nodes``), each as a list.

    Iterative Tarjan: a component is yielded only after every component
    it reaches, so a consumer can fold results successors-first.  The
    members of a yielded component get index ``sys.maxsize``, above
    every real one, so an edge into it never lowers a link value.  With
    ``size``, the nodes are the ids ``0..size-1`` and the index and link
    values are kept in two lists of that length.
    """
    if size is None:
        index, low = {}, {}
        index_of = index.get
    else:
        index, low = [None] * size, [None] * size
        index_of = index.__getitem__
    count = 0
    stack = []
    done = sys.maxsize
    for root in nodes:
        if index_of(root) is not None:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(follow(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                i = index_of(w)
                if i is None:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(follow(w))))
                    break
                if i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        scc.append(w)
                        if w == v:
                            break
                    yield scc


def tarjan_cycle_states(nodes, succ) -> set:
    """States of ``nodes`` on a nontrivial cycle (or with a self-loop) of
    the induced subgraph; ``succ`` maps a node to its ``(action,
    target)`` pairs."""
    loops = set()

    def follow(v):
        out = [w for (_, w) in succ[v] if w in nodes]
        if v in out:
            loops.add(v)
        return out

    cyc = set()
    for scc in strongly_connected_components(nodes, follow):
        if len(scc) > 1 or scc[0] in loops:
            cyc.update(scc)
    return cyc


def backward_reach(targets, pred, inside) -> set:
    """``targets`` plus the states of ``inside`` that reach them inside
    ``inside``; ``pred`` maps a node to the sources of its steps."""
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in pred[v]:
            if u in inside and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen
