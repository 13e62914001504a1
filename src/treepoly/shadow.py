"""Fast two-row shadow evaluation for admissible weight maps on forests.

For an admissible weight map (values at most 2, no edge carrying total
weight 3 or more) the normalized clan shadow factors over components: each
connected group of weight-1 vertices with parts (p, q) contributes
x1^p x2^q + x1^q x2^p, and each weight-2 vertex contributes x1 x2 after the
factorial normalization.  The multiset of part pairs plus the count of
weight-2 vertices therefore determines the shadow, and expansions are cached
by that signature, which is what makes exhaustive verification runs cheap.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .graphs import Graph, rooted_forest
from .symfunc import expand_terms

Signature = tuple[tuple[tuple[int, int], ...], int]

_SIG_EXPANSION: dict[Signature, dict[tuple[int, int], int]] = {}
_SIG_POLY: dict[Signature, dict[tuple[int, int], int]] = {}


def _poly_from_components(comps: Sequence[tuple[int, int]], twos: int) -> dict:
    out: dict[tuple[int, int], int] = {(twos, twos): 1}
    for p, q in comps:
        nxt: dict[tuple[int, int], int] = {}
        for (d1, d2), c in out.items():
            for e1, e2 in ((p, q), (q, p)):
                key = (d1 + e1, d2 + e2)
                val = nxt.get(key, 0) + c
                if val:
                    nxt[key] = val
                elif key in nxt:
                    del nxt[key]
        out = nxt
    return out


def poly_from_signature(sig: Signature) -> Mapping[tuple[int, int], int]:
    """Two-variable shadow for a component signature (cached; do not mutate)."""
    cached = _SIG_POLY.get(sig)
    if cached is None:
        comps, twos = sig
        cached = _poly_from_components(comps, twos)
        _SIG_POLY[sig] = cached
    return cached


def expansion_from_signature(sig: Signature) -> Mapping[tuple[int, int], int]:
    """Two-row expansion for a component signature (cached; do not mutate)."""
    cached = _SIG_EXPANSION.get(sig)
    if cached is None:
        comps, twos = sig
        base = expand_terms(_poly_from_components(comps, 0))
        if twos:
            base = {(a + twos, b + twos): c for (a, b), c in base.items()}
        cached = base
        _SIG_EXPANSION[sig] = cached
    return cached


def min_coefficient(expansion: Mapping[tuple[int, int], int]) -> int:
    return min(expansion.values(), default=0)


def add_expansions(
    a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    out = dict(a)
    for key, c in b.items():
        val = out.get(key, 0) + c
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out


def part_pairs(comps: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Component (c0, c1) counts as sorted (larger, smaller) part pairs."""
    return tuple(sorted((c0, c1) if c0 >= c1 else (c1, c0) for c0, c1 in comps))


def is_admissible(g: Graph, weights: Sequence[int]) -> bool:
    """True when no value exceeds 2 and every edge with two positive ends
    carries weight 1 on both; all other maps have zero shadow.  A walk over
    the adjacency lists of any graph, kept as the reference for the forest
    fold of ForestShadow."""
    if any(a < 0 or a > 2 for a in weights):
        return False
    for v in range(g.n):
        av = weights[v]
        if av == 0:
            continue
        for w in g.adj[v]:
            if weights[w] and av + weights[w] >= 3:
                return False
    return True


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
        return expansion_from_signature(self.signature(weights))

    def any_expansion(self, weights: Sequence[int]) -> Mapping[tuple[int, int], int]:
        """Expansion of any weight map: the signature path is only sound on
        admissible maps, and every other map has zero shadow."""
        counts, twos, ok = self._fold(weights)
        if ok:
            return expansion_from_signature((part_pairs(counts), twos))
        return {}

    def poly(self, weights: Sequence[int]) -> Mapping[tuple[int, int], int]:
        return poly_from_signature(self.signature(weights))
