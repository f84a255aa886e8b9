"""Internal graph helpers shared by the equivalence, logic and linear
engines.

The cycle and reachability walks run over the integer state ids of a
structure's ``StateIndex``, restricted to the subgraph induced by a node
set: the cycle search reads its ``(action id, target)`` successor pairs,
the backward search its plain predecessor lists.  The component search
takes any successor function, which may lead out of its start nodes:
it then finds the components of everything the start nodes reach.
"""

from __future__ import annotations

import sys


def strongly_connected_components(nodes, follow):
    """Yield the strongly connected components of the graph reached from
    ``nodes``, whose edges from ``v`` go to the nodes in ``follow(v)``
    (which may leave ``nodes``), each as a list.

    Iterative Tarjan: a component is yielded only after every component
    it reaches, so a consumer can fold results successors-first.  The
    members of a yielded component get index ``sys.maxsize``, above
    every real one, so an edge into it never lowers a link value.
    """
    index = {}
    low = {}
    stack = []
    done = sys.maxsize
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(follow(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(follow(w))))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
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
