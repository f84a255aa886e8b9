"""Library-level timings of the hot paths named in ROADMAP.md's baseline.

    python3 bench/baseline.py

Random LTSs with three out-edges per state, half of them silent, through
``coarsest_partition_lts`` under each variant; a random Kripke structure
of 2000 states through ``coarsest_partition_ks`` and ``sat``; and
``check_consistency`` on a doubly labelled system with 4000 transitions.
One run each, in this process, printed as text.  Not part of the
benchmark's result; the README quotes its output.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dtk import (DoublyLabelledTS, EquivVariant, KripkeStructure, Lts,  # noqa: E402
                 Semantics, check_consistency, coarsest_partition_ks,
                 coarsest_partition_lts, parse_formula, sat)

SEED = 1
SIZES = (500, 2000)


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def random_lts(rng, n):
    states = tuple(f"s{i}" for i in range(n))
    trans = tuple((u, "tau" if rng.random() < 0.5 else rng.choice("ab"),
                   rng.choice(states)) for u in states for _ in range(3))
    return Lts(states, ("tau",), trans)


def random_ks(rng, n):
    states = tuple(f"s{i}" for i in range(n))
    labels = {s: {p for p in "pq" if rng.random() < 0.5} for s in states}
    edges = tuple((u, rng.choice(states)) for u in states for _ in range(2))
    return KripkeStructure(states, labels, edges)


def consistent_l2ts(rng, n, m):
    """Labels are state classes; each transition's action is fixed by its
    end labels, so the system is consistent and every pair is compared."""
    states = tuple(f"s{i}" for i in range(n))
    labels = {s: {f"c{rng.randrange(8)}"} for s in states}
    trans = set()
    while len(trans) < m:
        u, v = rng.choice(states), rng.choice(states)
        lu, lv = min(labels[u]), min(labels[v])
        trans.add((u, "tau" if lu == lv else f"{lu}_{lv}", v))
    return DoublyLabelledTS(states, labels, tuple(sorted(trans)))


def main():
    rng = random.Random(SEED)
    for n in SIZES:
        lts = random_lts(rng, n)
        for variant in EquivVariant:
            part, secs = timed(coarsest_partition_lts, lts, variant)
            print(f"coarsest_partition_lts n={n} m={len(lts.transitions)} "
                  f"{variant.value}: {secs:.3f} s, {len(part)} blocks")
    ks = random_ks(rng, 2000)
    part, secs = timed(coarsest_partition_ks, ks, EquivVariant.DIVERGENCE_SENSITIVE)
    print(f"coarsest_partition_ks n=2000 m={len(ks.transitions)} ds: "
          f"{secs:.3f} s, {len(part)} blocks")
    phi = parse_formula("E ((p | q) U EGinf ~q)")
    _, secs = timed(sat, ks, phi, Semantics.MAXIMAL_PATH)
    print(f"sat n=2000 max: {secs:.3f} s")
    d = consistent_l2ts(rng, 2000, 4000)
    report, secs = timed(check_consistency, d)
    print(f"check_consistency n=2000 m={len(d.transitions)}: {secs:.3f} s, "
          f"consistent={report.consistent}")


if __name__ == "__main__":
    main()
