import heapq
import random

import pytest

from treepoly import intpoly, proofcheck
from treepoly.graphs import Graph, disjoint_union


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform labeled tree on n vertices via a random code sequence."""
    if n <= 1:
        return Graph(n, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)


def random_forest(rng: random.Random, n: int, max_parts: int = 3) -> Graph:
    parts = []
    left = n
    while left and len(parts) < max_parts - 1:
        take = rng.randint(1, left)
        parts.append(take)
        left -= take
    if left:
        parts.append(left)
    return disjoint_union([random_tree(rng, p) for p in parts])


def shuffled_forest(rng: random.Random, n: int) -> Graph:
    """random_forest with its vertices relabelled at random, so that a
    component need not occupy a contiguous block of indices."""
    f = random_forest(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[i], perm[j]) for i, j in f.edges()])


def clear_cell_cache() -> None:
    """Empty family_poly's cell and diagonal caches, so the next call of
    every cell computes its closed form afresh."""
    intpoly._cell_poly.cache_clear()
    intpoly._diagonal_poly.cache_clear()


def clear_slice_patterns() -> None:
    """Empty proofcheck's process-wide slice-pattern table, so the next
    context walks the admissible maps of every slice shape afresh."""
    proofcheck._slice_patterns.cache_clear()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
