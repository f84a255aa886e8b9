"""Interleaving composition and the congruence story.

Divergence-sensitive equivalence identifies a deadlocked state with a
livelocked one, but composing each with the same partner produces
distinguishable systems.  Explicit-divergence equivalence repairs this
and is exactly as coarse as compositionality allows.
"""

from dtk import figures
from dtk.compose import coarsest_congruence_probe, merge
from dtk.equivalences import EquivVariant

l = figures.deadlock_merge_example_lts()
print("component LTS:")
for (u, a, v) in l.transitions:
    print(f"    {u} -{a}-> {v}")
print("state 0 deadlocks; Delta0 loops silently; a acts once then stops")
print()

print("== the two compositions ==")
for root in ("0", "Delta0"):
    prod, start = merge(l, root, l, "a")
    print(f"from {start}:")
    for (u, a, v) in prod.transitions:
        print(f"    {u} -{a}-> {v}")
print()

print("== congruence probe: 0 vs Delta0 ==")
probe = coarsest_congruence_probe(l, "0", "Delta0")
DS = EquivVariant.DIVERGENCE_SENSITIVE
print(f"the context performs the fresh action {probe.fresh_action!r} once, "
      f"then deadlocks")
print("variant  components  merged with the context")
for variant in EquivVariant:
    print(f"{variant.value:<9}{str(variant in probe.pair):<12}"
          f"{variant in probe.in_context}")
print("ds lost in the context (not a congruence):",
      DS in probe.pair and DS not in probe.in_context)
print("ed on the components iff ds in the context:",
      probe.biconditional_holds)
