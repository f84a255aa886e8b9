"""Allocation guards for the compose → check-equiv path.

The product is built the way the compose-traces benchmark builds its
own: three random 10-state DAGs (a visible backbone, three silent and
two visible forward shortcuts) and a 10-step chain on an action of its
own, folded by ``merge`` into 10⁴ states and 51 000 steps.  tracemalloc
measures what refinement, the merge and the renderer allocate.

Each bound lies between two layouts, as measured on CPython 3.10-3.13.
Refinement peaked at 3.0 MB with a member list per block, a
predecessor list per state and dicts of per-state scratch, and peaks
at 1.6 MB with them flat.  The merge held 2.0 MB beyond the product
it returns with its found pairs keyed by tuples, and 1.8 MB keyed by
one int.  Rendering held 1.3-1.5 MB beyond the product with a dict of
renamed ids and a set of taken names, and 0.8-0.9 MB with a list and a
dict.
"""

import random
import tracemalloc

import pytest

from dtk.compose import merge
from dtk.equivalences import EquivVariant, coarsest_partition
from dtk.structures import Lts, TAU, _render

MB = 2**20


def _dag(rng, prefix, n=10):
    """States p0..p9 on a visible backbone, plus three silent and two
    visible forward shortcuts between random states."""
    st = [f"{prefix}{i}" for i in range(n)]
    steps = [(st[i], rng.choice("ab"), st[i + 1]) for i in range(n - 1)]
    shortcuts = set()
    while len(shortcuts) < 5:
        i = rng.randrange(n - 2)
        shortcuts.add((i, rng.randrange(i + 2, n)))
    for k, (i, j) in enumerate(sorted(shortcuts)):
        steps.append((st[i], TAU if k < 3 else rng.choice("ab"), st[j]))
    return Lts(st, (TAU,), steps)


@pytest.fixture(scope="module")
def last_fold():
    """The 10³-state product of the three DAGs, its root, and the chain
    that the last fold adds."""
    rng = random.Random(2)
    g, root = _dag(rng, "a"), "a0"
    for prefix in "bc":
        g, root = merge(g, root, _dag(rng, prefix), f"{prefix}0")
    chain = [f"d{i}" for i in range(10)]
    return g, root, Lts(chain, (TAU,), [(chain[i], "d", chain[i + 1])
                                        for i in range(9)])


def _peak(run):
    """What ``run()`` returns, and its allocation peak in MB above what
    was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = run()
        return value, (tracemalloc.get_traced_memory()[1] - before) / MB
    finally:
        tracemalloc.stop()


def test_refining_a_product_keeps_its_scratch_flat(last_fold):
    left, root, chain = last_fold
    product, _ = merge(left, root, chain, "d0")
    assert len(product.states) == 10**4
    assert "preds" not in product.index.__dict__   # built by the refinement
    partition, peak = _peak(lambda: coarsest_partition(
        product, EquivVariant.EXPLICIT_DIVERGENCE))
    assert len(partition) > 9000
    assert peak < 2.25


def test_merge_then_render_hold_little_beyond_the_product(last_fold):
    left, root, chain = last_fold
    tracemalloc.start()
    try:
        product, _ = merge(left, root, chain, "d0")
        size, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lines = sum(1 for _ in _render(product))
        render_peak = tracemalloc.get_traced_memory()[1] - size
    finally:
        tracemalloc.stop()
    assert lines == 10**4 + 51000
    assert (peak - size) / MB < 1.9
    assert render_peak / MB < 1.15
