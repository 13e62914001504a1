"""Labeled graphs with a fixed vertex order: tree families, spiders, the
forest walk, and the clan offsets that number a clan's vertices (the clan
graph itself is never built: symfunc walks it in place).

Everything downstream (weight-map enumeration, serialization, the class
partition audits) depends on the canonical vertex order of these builders,
so the order is part of each builder's contract and never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class NotAForestError(ValueError):
    """Raised when a forest-only routine receives a graph with a cycle."""


class Graph:
    """Immutable simple graph with sorted neighbor lists and unique labels."""

    __slots__ = ("n", "adj", "labels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is None:
            labels = tuple(f"u{i}" for i in range(n))
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValueError("label count does not match vertex count")
        if len(set(labels)) != n:
            raise ValueError("labels must be unique")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, j in edges:
            if i == j:
                raise ValueError("loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            nbrs[i].add(j)
            nbrs[j].add(i)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self.labels = labels

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, sorted lexicographically."""
        return [(i, j) for i in range(self.n) for j in self.adj[i] if i < j]

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n, self.adj, self.labels) == (other.n, other.adj, other.labels)

    def __hash__(self) -> int:
        return hash((self.n, self.adj, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "labels": list(self.labels), "edges": [list(e) for e in self.edges()]}


# ---------------------------------------------------------------------------
# family builders


def t3mn(m: int, n: int) -> Graph:
    """Tree on 2m+2n+10 vertices: root v0 with branches v1 (3 legs), v2 (m legs),
    v3 (n legs), every leg a path head-foot.

    Canonical order: v0; v1,v2,v3; heads of branch 1; feet of branch 1;
    heads of branch 2; feet of branch 2; heads of branch 3; feet of branch 3.
    """
    return family_graph("t3mn", m, n)


def t3mn_star(m: int, n: int) -> Graph:
    """t3mn(m, n) with the third leg of branch 1 extended by a path of two
    extra vertices x, y appended last in the order."""
    return family_graph("t3mn_star", m, n)


def spider2(n: int) -> Graph:
    """Spider with n legs of length two: order v0; v1..vn; v1'..vn'."""
    if n < 0:
        raise ValueError("leg count must be nonnegative")
    edges = []
    labels = ["v0"]
    for j in range(1, n + 1):
        labels.append(f"v{j}")
        edges.append((0, j))
    for j in range(1, n + 1):
        labels.append(f"v{j}'")
        edges.append((j, n + j))
    return Graph(2 * n + 1, edges, labels)


def spider12(k: int, r: int) -> Graph:
    """Spider with k legs of length one and r legs of length two.

    Order: center; the k pendant vertices; the r leg heads; the r leg feet.
    """
    if k < 0 or r < 0:
        raise ValueError("leg counts must be nonnegative")
    edges = []
    labels = ["v0"]
    for j in range(1, k + 1):
        labels.append(f"u{j}")
        edges.append((0, j))
    for j in range(1, r + 1):
        labels.append(f"w{j}")
        edges.append((0, k + j))
    for j in range(1, r + 1):
        labels.append(f"w{j}'")
        edges.append((k + j, k + r + j))
    return Graph(k + 2 * r + 1, edges, labels)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], [f"p{i}" for i in range(n)])


@dataclass(frozen=True)
class FamilyLayout:
    """Index bookkeeping for the two tree families.

    Branch i has leg_count(i) legs; head(i, j) and foot(i, j) use 1-based j.
    For the star variant the extra path vertices x, y sit at the end.
    """

    m: int
    n: int
    star: bool

    @property
    def size(self) -> int:
        return 2 * self.m + 2 * self.n + (12 if self.star else 10)

    @property
    def v0(self) -> int:
        return 0

    def branch(self, i: int) -> int:
        return i

    def leg_count(self, i: int) -> int:
        return (3, self.m, self.n)[i - 1]

    def _head_base(self, i: int) -> int:
        """Index of head(i, 1); branch i's heads follow it, then its feet."""
        return (4, 10, 10 + 2 * self.m)[i - 1]

    def head(self, i: int, j: int) -> int:
        return self._head_base(i) + (j - 1)

    def foot(self, i: int, j: int) -> int:
        return self.head(i, j) + self.leg_count(i)

    @property
    def x(self) -> int:
        if not self.star:
            raise AttributeError("x exists only in the star family")
        return 2 * self.m + 2 * self.n + 10

    @property
    def y(self) -> int:
        return self.x + 1

    def slice_vertices(self, i: int) -> tuple[int, ...]:
        """Branch slice in spider order: center, heads ascending, feet ascending."""
        lc = self.leg_count(i)
        return (self.branch(i),) + tuple(self.head(i, j) for j in range(1, lc + 1)) + tuple(
            self.foot(i, j) for j in range(1, lc + 1)
        )

    def core_vertices(self) -> tuple[int, ...]:
        """All vertices except the star extension (the whole graph when not star)."""
        return tuple(range(2 * self.m + 2 * self.n + 10))

    def edge_list(self) -> list[tuple[int, int]]:
        edges = []
        for i in (1, 2, 3):
            b, lc, base = self.branch(i), self.leg_count(i), self._head_base(i)
            edges.append((self.v0, b))
            for h in range(base, base + lc):
                edges += ((b, h), (h, h + lc))
        if self.star:
            edges.append((self.foot(1, 3), self.x))
            edges.append((self.x, self.y))
        return edges

    def label_list(self) -> list[str]:
        labels = ["v0", "v1", "v2", "v3"]
        for i in (1, 2, 3):
            legs = range(1, self.leg_count(i) + 1)
            labels += [f"v{i}{j}" for j in legs]
            labels += [f"v{i}{j}'" for j in legs]
        if self.star:
            labels.extend(["x", "y"])
        return labels


def family_layout(family: str, m: int, n: int) -> FamilyLayout:
    """The layout of a family member: the one place that turns a family name
    (t3mn or t3mn_star) and (m, n) into a tree."""
    if family not in ("t3mn", "t3mn_star"):
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    return FamilyLayout(m, n, star=family == "t3mn_star")


def family_graph(family: str, m: int, n: int) -> Graph:
    """The tree of a family member, built from its layout."""
    lay = family_layout(family, m, n)
    return Graph(lay.size, lay.edge_list(), lay.label_list())


# ---------------------------------------------------------------------------
# structural operations


def rooted_forest(g: Graph) -> tuple[list[int], list[int]]:
    """The one walk every forest question folds over: all vertices with each
    parent before its children, and each vertex's parent.  parent[v] is -1
    for each component's smallest vertex, which is that component's root.

    Raises NotAForestError on the first edge that reaches an already reached
    vertex other than the parent: a forest's edges all join a vertex to its
    parent.
    """
    adj = g.adj
    parent = [-2] * g.n  # -2 not reached yet
    order: list[int] = []
    for root in range(g.n):
        if parent[root] != -2:
            continue
        parent[root] = -1
        order.append(root)
        stack = [root]
        while stack:
            u = stack.pop()
            pu = parent[u]
            for w in adj[u]:
                if parent[w] == -2:
                    parent[w] = u
                    order.append(w)
                    stack.append(w)
                elif w != pu:
                    raise NotAForestError("input graph contains a cycle")
    return order, parent


def is_forest(g: Graph) -> bool:
    try:
        rooted_forest(g)
    except NotAForestError:
        return False
    return True


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; labels get a per-part prefix to stay unique."""
    edges: list[tuple[int, int]] = []
    labels: list[str] = []
    offset = 0
    for idx, g in enumerate(parts):
        labels.extend(f"c{idx}.{s}" for s in g.labels)
        edges.extend((offset + i, offset + j) for i, j in g.edges())
        offset += g.n
    return Graph(offset, edges, labels)


def clan_offsets(g: Graph, weights: Sequence[int]) -> list[int]:
    """First clan vertex of each vertex, then the clan size: copy i of v is
    clan vertex offsets[v] + i."""
    if len(weights) != g.n:
        raise ValueError("weight map length does not match vertex count")
    total = 0
    offsets = [0]
    for a in weights:
        if a < 0:
            raise ValueError("weights must be nonnegative")
        total += a
        offsets.append(total)
    return offsets


