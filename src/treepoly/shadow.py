"""Fast two-row shadow evaluation for admissible weight maps on forests.

For an admissible weight map (values at most 2, no edge carrying total
weight 3 or more) the normalized clan shadow factors over components: each
connected group of weight-1 vertices with parts (p, q) contributes
x1^p x2^q + x1^q x2^p, and each weight-2 vertex contributes x1 x2 after the
factorial normalization.  The multiset of part pairs plus the count of
weight-2 vertices therefore determines the shadow, and expansions are cached
by that signature, which is what makes exhaustive verification runs cheap.
Its sign depends on the imbalances alone, and every question that reads only
the sign asks imbalances_negative: the spider classes (classify_spider),
prop3's negative-spider pairing and no-singleton checks, the negative-map
enumeration and count, and the coverage audit.  An expansion is built only
where its coefficients are read.

ForestShadow.expansion is the one shadow query for a map on a forest: it
decides admissibility in the same fold that finds the signature, and every
inadmissible map, whose clan shadow vanishes, gets ZERO_EXPANSION.  The
two-variable term arithmetic (sums, products, pair terms) is symfunc's.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, rooted_forest
from .symfunc import add_terms, expand_terms, mul_terms, pair_terms

Signature = tuple[tuple[tuple[int, int], ...], int]

# The expansion of every map with zero shadow: one shared, read-only object,
# like the cached expansion of a signature.
ZERO_EXPANSION: Mapping[tuple[int, int], int] = MappingProxyType({})

# Term-dict addition is symfunc's; the shadow layer names it for expansions.
add_expansions = add_terms


def _poly_from_components(comps: Sequence[tuple[int, int]], twos: int) -> dict:
    """The shadow polynomial of a signature: one pair term per component,
    times (x1 x2)^twos."""
    out: dict[tuple[int, int], int] = {(twos, twos): 1}
    for p, q in comps:
        out = mul_terms(out, pair_terms(p, q))
    return out


@cache
def expansion_from_signature(sig: Signature) -> Mapping[tuple[int, int], int]:
    """Two-row expansion for a component signature (cached; do not mutate)."""
    return expand_terms(_poly_from_components(*sig))


def min_coefficient(expansion: Mapping[tuple[int, int], int]) -> int:
    return min(expansion.values(), default=0)


def imbalances(comps: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The sorted imbalances |p - q| of the unbalanced (p, q) components."""
    return tuple(sorted(abs(p - q) for p, q in comps if p != q))


@cache
def imbalances_negative(ds: tuple[int, ...]) -> bool:
    """Whether a shadow whose components have the sorted imbalances ds has a
    negative two-row coefficient.  Exact: pair_terms(p, q) is
    (x1 x2)^q (x1^d + x2^d) with d = p - q, and 2 (x1 x2)^p when d = 0, so a
    signature's shadow is 2^b (x1 x2)^Q times the product of x1^d + x2^d
    over ds (b balanced components, Q its twos plus the sum of the q).  As
    s_(a,c) x1 x2 = s_(a+1,c+1), its expansion is 2^b times the one of the
    components (d, 0), shifted by (Q, Q): the signs are the same.  That
    reduced expansion is built here and dropped, so the cache holds one bool
    per multiset and expansion_from_signature only what callers read.

    With one imbalance d >= 2 and a imbalance-1 components, the shadow is
    negative exactly when a < T(d) = d^2 - 3: checked for 2 <= d <= 14, not
    proved."""
    return min_coefficient(expand_terms(_poly_from_components(tuple((d, 0) for d in ds), 0))) < 0


def part_pairs(comps: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Component (c0, c1) counts as sorted (larger, smaller) part pairs."""
    return tuple(sorted((c0, c1) if c0 >= c1 else (c1, c0) for c0, c1 in comps))


class ForestShadow:
    """Shadow evaluator bound to one forest; reuses a global 2-coloring, the
    depth parity from each component's smallest vertex (colored 0).

    In a forest the edges are exactly the parent edges of rooted_forest, so
    every question about one map is a single fold over the rooted order:
    each vertex meets its one edge up, and its parent has been seen first.
    """

    __slots__ = ("graph", "colors", "steps", "n")

    def __init__(self, g: Graph):
        order, parent = rooted_forest(g)
        colors = [0] * g.n
        for u in order:
            if parent[u] != -1:
                colors[u] = 1 - colors[parent[u]]
        self.graph = g
        self.colors = tuple(colors)
        self.steps = tuple((u, parent[u]) for u in order)
        self.n = g.n

    def _fold(self, weights: Sequence[int]) -> tuple[list[list[int]], int, bool]:
        """The weight-1 components as [color-0, color-1] counts, in the
        rooted order of their first vertex, the number of weight-2 vertices,
        and whether the map is admissible.

        A weight-1 vertex whose parent has weight 1 joins the parent's
        component, and any other opens a new one.  A value outside 0..2, or
        a parent edge with both ends positive and total 3 or more, makes the
        map inadmissible; the components and the count are taken either
        way."""
        colors = self.colors
        comp = [0] * self.n
        counts: list[list[int]] = []
        twos = 0
        ok = True
        for u, p in self.steps:
            a = weights[u]
            if not a:
                continue
            b = weights[p] if p >= 0 else 0
            if a == 1:
                if b == 1:
                    k = comp[p]
                else:
                    k = len(counts)
                    counts.append([0, 0])
                    if b >= 2:
                        ok = False
                comp[u] = k
                counts[k][colors[u]] += 1
            elif a == 2:
                twos += 1
                if b:
                    ok = False
            else:
                ok = False
        return counts, twos, ok

    def components(self, weights: Sequence[int]) -> list[tuple[int, int]]:
        """(color-0, color-1) vertex counts of each weight-1 component, in
        the rooted order of each component's first vertex: a component that
        holds vertex 0 comes first."""
        return [(c0, c1) for c0, c1 in self._fold(weights)[0]]

    def signature(self, weights: Sequence[int]) -> Signature:
        """Component part-pairs plus weight-2 count of an admissible map."""
        counts, twos, _ = self._fold(weights)
        return part_pairs(counts), twos

    def expansion(self, weights: Sequence[int]) -> Mapping[tuple[int, int], int]:
        """Two-row expansion of any weight map: the signature's for an
        admissible map, and ZERO_EXPANSION for any other, whose clan shadow
        vanishes."""
        counts, twos, ok = self._fold(weights)
        if not ok:
            return ZERO_EXPANSION
        return expansion_from_signature((part_pairs(counts), twos))

    def negative(self, weights: Sequence[int]) -> bool:
        """Whether the map's expansion has a negative coefficient, from its
        imbalances alone: never for an inadmissible map."""
        counts, _, ok = self._fold(weights)
        return ok and imbalances_negative(imbalances(counts))
