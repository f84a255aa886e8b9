"""Internal graph helpers shared by the equivalence and logic engines.

Both walk the subgraph induced by a node set, over the ``(action,
node)`` lists of a structure's adjacency index, following only steps
whose action is in ``actions`` (every step when it is None).
"""

from __future__ import annotations


def tarjan_cycle_states(nodes, succ, actions=None) -> set:
    """States of ``nodes`` on a nontrivial cycle (or with a self-loop) of
    the induced subgraph.  Iterative Tarjan; ``succ`` maps a node to its
    ``(action, target)`` pairs.
    """
    index = {}
    low = {}
    on_stack = set()
    stack = []
    cyc = set()
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for (a, w) in it:
                if w not in nodes or (actions is not None and a not in actions):
                    continue
                if w == v:
                    cyc.add(v)
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    cyc.update(scc)
    return cyc


def backward_reach(targets, pred, inside, actions=None) -> set:
    """``targets`` plus the states of ``inside`` that reach them inside
    ``inside``; ``pred`` maps a node to its ``(action, source)`` pairs."""
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for (a, u) in pred[v]:
            if (u in inside and u not in seen
                    and (actions is None or a in actions)):
                seen.add(u)
                frontier.append(u)
    return seen
