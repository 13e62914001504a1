"""Reference implementations the tests compare the package against.

Nothing in treepoly calls these: they are the literal definitions (the clan
graph, brute-force colorings, an adjacency-walk admissibility test, the
shadow polynomial of a signature) and small graph helpers that only the
tests use.  They share with the package only its types (Graph, SymPoly2),
the clan numbering of graphs.clan_offsets and, for the signature
polynomial, shadow's product of pair terms.  The signature-table count is
the one exception: it joins slice patterns with proofcheck's own _join, the
full signature fold that the package's imbalance fold replaced.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping, Optional, Sequence

from treepoly.alphamaps import Weights
from treepoly.graphs import Graph, clan_offsets
from treepoly.proofcheck import _ROOT_STATE, _TAU_ALLOWED, _close, _join
from treepoly.shadow import (
    ForestShadow,
    Signature,
    _poly_from_components,
    expansion_from_signature,
    min_coefficient,
)
from treepoly.symfunc import SymPoly2


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class Bipartition:
    """Color class sizes of a connected bipartite graph, ordered p >= q.

    The result type of bipartition_of, the tests' per-component oracle for
    the one coloring walk in symfunc.
    """

    p: int
    q: int


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], [f"k{i}" for i in range(n)])


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    seen = bytearray(g.n)
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        stack = [start]
        comp = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
                    comp.append(w)
        out.append(tuple(sorted(comp)))
    return out


def bipartition_of(g: Graph, component: Iterable[int]) -> Optional[Bipartition]:
    """Bipartition sizes of one connected component, or None on an odd cycle.

    The result is swap stable: it does not depend on which side the coloring
    starts from.  Nothing in the package calls it: the tests keep it as the
    per-component oracle for symfunc's coloring walk.
    """
    comp = sorted(component)
    if not comp:
        return None
    color = {comp[0]: 0}
    stack = [comp[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return None
    if set(color) != set(comp):
        raise ValueError("vertex set is not a connected component")
    ones = sum(color[v] for v in comp)
    zeros = len(comp) - ones
    return Bipartition(max(zeros, ones), min(zeros, ones))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Induced subgraph on the given vertices, order and labels inherited."""
    verts = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(verts)}
    edges = [
        (pos[u], pos[w]) for u in verts for w in g.adj[u] if u < w and w in pos
    ]
    return Graph(len(verts), edges, [g.labels[v] for v in verts])


def clan_graph(g: Graph, weights: Sequence[int]) -> Graph:
    """The clan graph: each vertex v blown up into a clique of size
    weights[v], the cliques of adjacent vertices joined completely.  Copy i
    of v is clan vertex clan_offsets(g, weights)[v] + i.

    Clan vertices are labeled "<owner label>^(i)" so ownership is
    recoverable from the label.
    """
    offsets = clan_offsets(g, weights)
    edges: list[tuple[int, int]] = []
    for v, nbrs in enumerate(g.adj):
        copies = range(offsets[v], offsets[v + 1])
        edges.extend(combinations(copies, 2))
        for u in nbrs:
            if u > v:
                edges.extend(product(copies, range(offsets[u], offsets[u + 1])))
    labels = [
        f"{g.labels[v]}^({i + 1})" for v in range(g.n) for i in range(weights[v])
    ]
    return Graph(offsets[-1], edges, labels)


def clan_owners(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    """Owner vertex of each clan vertex, in clan order."""
    return tuple(v for v in range(g.n) for _ in range(weights[v]))


# ---------------------------------------------------------------------------
# weight maps


def mask_outside(weights: Sequence[int], vertices: Iterable[int]) -> Weights:
    """Keep values on the given vertices, zero everywhere else."""
    keep = set(vertices)
    return tuple(a if v in keep else 0 for v, a in enumerate(weights))


@dataclass(frozen=True)
class CoreSplit:
    """Vertices whose clan copies lie inside one clan component (core) and
    the complementary vertices (rest)."""

    core: tuple[int, ...]
    rest: tuple[int, ...]


def split_by_clan_component(
    g: Graph, weights: Sequence[int], component: Sequence[int]
) -> CoreSplit:
    owners = clan_owners(g, weights)
    comp = set(component)
    core = sorted({owners[cv] for cv in comp})
    for v in core:
        copies = [i for i, o in enumerate(owners) if o == v]
        if not all(c in comp for c in copies):
            raise ValueError("component splits the clan copies of a vertex")
    rest = sorted(set(range(g.n)) - set(core))
    return CoreSplit(tuple(core), tuple(rest))


# ---------------------------------------------------------------------------
# shadows


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


_SIG_POLY: dict[Signature, dict[tuple[int, int], int]] = {}


def poly_from_signature(sig: Signature) -> Mapping[tuple[int, int], int]:
    """Two-variable shadow for a component signature (cached; do not mutate)."""
    cached = _SIG_POLY.get(sig)
    if cached is None:
        comps, twos = sig
        cached = _poly_from_components(comps, twos)
        _SIG_POLY[sig] = cached
    return cached


def shadow_poly(shadow: ForestShadow, weights: Sequence[int]) -> Mapping[tuple[int, int], int]:
    """The two-variable shadow polynomial of a map, through its signature."""
    return poly_from_signature(shadow.signature(weights))


def sym_zero() -> SymPoly2:
    return SymPoly2()


def sym_one() -> SymPoly2:
    return SymPoly2({(0, 0): 1})


def monomial_pair(p: int, q: int) -> SymPoly2:
    """x1^p x2^q + x1^q x2^p (collapsing to 2 x1^p x2^p when p == q)."""
    return SymPoly2({(p, q): 1, (q, p): 1} if p != q else {(p, p): 2})


# The most vertices chromatic_2var_bruteforce enumerates the colorings of.
COLORING_LIMIT = 16


def chromatic_2var_bruteforce(g: Graph) -> SymPoly2:
    """Direct enumeration over all 2-colorings; cross-check oracle only."""
    if g.n > COLORING_LIMIT:
        raise ValueError(f"coloring enumeration limited to {COLORING_LIMIT} vertices")
    edges = g.edges()
    out: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.n):
        if any((mask >> i & 1) == (mask >> j & 1) for i, j in edges):
            continue
        ones = mask.bit_count()
        key = (g.n - ones, ones)
        out[key] = out.get(key, 0) + 1
    return SymPoly2(out)


# ---------------------------------------------------------------------------
# the signature-table count


def count_by_signature(slices: Sequence[Mapping[Weights, object]]) -> dict[Signature, int]:
    """Number of admissible maps per shadow signature, folded over v0 and
    the full slice-pattern keys of every slice with proofcheck's _join and
    _close: one state per partial signature."""
    counts: dict[Signature, int] = {}
    for v0val in (0, 1, 2):
        states = {_ROOT_STATE[v0val]: 1}
        for patterns in slices:
            sizes = Counter(p.key for p in patterns.values() if p.tau in _TAU_ALLOWED[v0val])
            folded: dict[tuple, int] = {}
            for pkey, size in sizes.items():
                for acc, c in states.items():
                    key = _join(v0val, acc, pkey)
                    folded[key] = folded.get(key, 0) + c * size
            states = folded
        for acc, c in states.items():
            sig = _close(acc)
            counts[sig] = counts.get(sig, 0) + c
    return counts


def signature_table_counts(slices: Sequence[Mapping[Weights, object]]) -> tuple[int, int]:
    """(admissible, negative) from the signature table, each signature's
    sign read from its full expansion."""
    counts = count_by_signature(slices)
    negative = sum(c for sig, c in counts.items() if min_coefficient(expansion_from_signature(sig)) < 0)
    return sum(counts.values()), negative
