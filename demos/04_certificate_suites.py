#!/usr/bin/env python3
"""Run the full unimodality certificates at a small size and show the one
place where the published construction needs a repair.

For the base family every negative weight map falls into exactly one of 30
classes, 29 of which are paired injectively with positive partners so that
each pair's shadow sum is nonnegative, while the final class only touches
the top diagonal coefficient.  The extended family reduces to the same
machinery through four classes.  The batteries below recheck every claim on
concrete maps; the extended family's class-19 corner falsifies the published
pairing and passes once the marking is moved to position 1.
"""

from treepoly.proofcheck import verify_base, verify_chain, verify_star

print("base family at (2, 2):")
for rep in verify_base(2, 2):
    print(f"  {rep.lemma:28s} cases={rep.cases:8d} violations={rep.violation_count}")

print("\nextended family at (1, 1), published injections verbatim:")
for rep in verify_star(1, 1):
    flag = "" if rep.ok else "   <-- falsified"
    print(f"  {rep.lemma:32s} cases={rep.cases:8d} violations={rep.violation_count}{flag}")

print("\nsame battery with the repaired class-19 marking:")
for rep in verify_star(1, 1, repair_corner=True):
    print(f"  {rep.lemma:32s} cases={rep.cases:8d} violations={rep.violation_count}")

print("\ntheorem-level chain on a few cells:")
for family in ("t3mn", "t3mn_star"):
    for m, n in [(1, 1), (4, 4)]:
        s = verify_chain(m, n, family)
        print(
            f"  {family}({m},{n}): prefix_log_concave={s.prefix_log_concave} "
            f"tail_ok={s.tail_ok} unimodal={s.direct_unimodal} "
            f"log_concave={s.direct_log_concave}"
        )
