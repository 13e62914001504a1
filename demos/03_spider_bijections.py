#!/usr/bin/env python3
"""The spider combinatorics that powers the pairing certificates.

On a spider with legs of length two, a weight map anchored at the center
with k bare legs (head weighted, foot empty) can be traded for a vacated
map: clear the center and promote any chosen bare heads to weight 2.  The
trade is a bijection, negative maps always arise anchored with at least
three bare legs, and map plus traded partner always has a nonnegative
shadow.  These are the moves the big tree certificates are assembled from.
"""

from treepoly.alphamaps import (
    anchored_bare,
    classify_spider,
    mark_legs,
    spider_suite,
    unmark_legs,
    vacated_signature,
)
from treepoly.graphs import spider2
from treepoly.shadow import ForestShadow, add_expansions, min_coefficient

n = 3
g = spider2(n)
ctx = ForestShadow(g)

w = (1, 1, 1, 1, 0, 0, 0)  # center and all three heads weighted, feet empty
print("anchored map:", w, " bare legs:", anchored_bare(w))
print("  shadow:", dict(ctx.expansion(w)), " (negative)")

image = mark_legs(w, (1,))
print("\nafter marking position 1:", image)
print("  vacated class:", vacated_signature(image))
print("  roundtrip restores the original:", unmark_legs(image) == w)

total = add_expansions(ctx.expansion(w), ctx.expansion(image))
print("  pair sum:", total, " nonnegative:", min_coefficient(total) >= 0)

print("\nclassification of a few maps:")
for sample in [w, image, (0,) * g.n, (1,) * g.n]:
    print(f"  {sample} -> {classify_spider(sample)}")

print("\nthe full exhaustive battery at desk scale:")
for rep in spider_suite(max_legs=4):
    print(f"  {rep.lemma:32s} cases={rep.cases:5d} ok={rep.ok}")
