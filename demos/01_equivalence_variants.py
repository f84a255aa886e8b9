"""Tour of the three equivalence variants on the worked examples.

The same system can look identical, subtly different, or sharply
different depending on whether silent divergence and completion
potential are observable.
"""

from dtk import figures
from dtk.equivalences import (
    EquivVariant,
    check_colouring,
    coarsest_partition_ks,
    coarsest_partition_lts,
    divergent_states,
    oracle_coarsest_partition,
)

VARIANTS = [
    (EquivVariant.DIVERGENCE_BLIND, "divergence blind"),
    (EquivVariant.DIVERGENCE_SENSITIVE, "divergence sensitive"),
    (EquivVariant.EXPLICIT_DIVERGENCE, "explicit divergence"),
]


def show_partition(partition):
    return "  ".join("{" + " ".join(sorted(b)) + "}"
                     for b in partition.members())


print("== seven-state LTS: one silent loop, one silent sink ==")
l = figures.branching_example_lts()
for variant, label in VARIANTS:
    part = coarsest_partition_lts(l, variant)
    print(f"{label:22s} -> {show_partition(part)}")

print()
print("the divergence-sensitive split separates t (which can stay silent")
print("forever) from u and v; explicit divergence also tells z's silent")
print("self-loop apart from the deadlocked x and y.")

print()
print("== five-state Kripke structure ==")
k = figures.stuttering_example_ks()
for variant, label in VARIANTS:
    part = coarsest_partition_ks(k, variant)
    print(f"{label:22s} -> {show_partition(part)}")

print()
print("== colouring checks ==")
part_db = coarsest_partition_lts(l, EquivVariant.DIVERGENCE_BLIND)
print("blind partition is a consistent colouring:",
      check_colouring(l, part_db, EquivVariant.DIVERGENCE_BLIND))
print("...but not a fully consistent one:",
      check_colouring(l, part_db, EquivVariant.DIVERGENCE_SENSITIVE))
print("divergent states inside the blind colouring:",
      sorted(divergent_states(l, part_db)))

print()
print("== exhaustive oracle cross-check ==")
for variant, label in VARIANTS:
    agrees = (oracle_coarsest_partition(l, variant)
              == coarsest_partition_lts(l, variant))
    print(f"{label:22s} oracle agrees: {agrees}")
