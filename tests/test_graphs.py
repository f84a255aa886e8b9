"""The component search against a mutual-reachability reference.

``strongly_connected_components`` is started from one root whose
successor function leads out of the start nodes, as the one-state
signature search in ``equivalences`` uses it: the components must be
those of everything the root reaches, each yielded after every
component it reaches.
"""

import random

from dtk.graphs import strongly_connected_components


def _reach(edges, start):
    seen, frontier = {start}, [start]
    while frontier:
        for w in edges[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def _random_graph(rng):
    n = rng.randint(1, 8)
    p = rng.random()
    return {v: [w for w in range(n) if rng.random() < p] for v in range(n)}


def test_components_from_one_root_beyond_the_start_nodes():
    rng = random.Random(7)
    for _ in range(2000):
        edges = _random_graph(rng)
        root = rng.randrange(len(edges))
        reach = {v: _reach(edges, v) for v in edges}
        found = list(strongly_connected_components([root], edges.__getitem__))
        expected = {frozenset(w for w in reach[v] if v in reach[w])
                    for v in reach[root]}
        assert {frozenset(c) for c in found} == expected, (edges, root)
        assert sum(map(len, found)) == len(reach[root])
        # successors first: whatever a component reaches came out before it
        done = set()
        for scc in found:
            done.update(scc)
            assert all(reach[v] <= done for v in scc), (edges, root)
