"""Allocation guards for the compose → check-equiv path, and for
refinement at scale.

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

At scale the LTS is ``bench/baseline.py``'s shape: 8000 states, three
out-steps each, half of them silent, from seed 1.  Its giant inert
components make the observation set the cost: as Python sets, shared
between equal signatures, ed refinement peaked at 13.7 MB and db at
19.9 MB; as one int per signature, each peaks at 1.4 MB.
"""

import importlib.util
import random
import tracemalloc
from pathlib import Path

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


def _baseline_lts(n, seed):
    """The random LTS of ``bench/baseline.py``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "baseline.py"
    spec = importlib.util.spec_from_file_location("bench_baseline", path)
    baseline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(baseline)
    return baseline.random_lts(random.Random(seed), n)


@pytest.mark.parametrize("variant", [EquivVariant.EXPLICIT_DIVERGENCE,
                                     EquivVariant.DIVERGENCE_BLIND])
def test_refinement_at_scale_holds_one_int_per_signature(variant):
    lts = _baseline_lts(8000, 1)
    lts.index.preds   # the index is the structure's, not the refinement's
    partition, peak = _peak(lambda: coarsest_partition(lts, variant))
    assert len(partition) > 3000
    assert peak < 4
