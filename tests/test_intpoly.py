import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treepoly.alphamaps import count_admissible
from treepoly.graphs import (
    Graph,
    complete_graph,
    disjoint_union,
    induced_subgraph,
    is_forest,
    path_graph,
    spider2,
    spider12,
    t3mn,
    t3mn_star,
)
from treepoly.intpoly import (
    ONE,
    GuardLimitError,
    IntPoly,
    NotAForestError,
    analyze,
    indpoly_bruteforce,
    indpoly_tree,
    scan_families,
    scan_row,
    tail_start,
)
from treepoly.shadow import ForestShadow

from conftest import random_forest, random_tree


def test_intpoly_basics():
    p = IntPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p[5] == 0
    q = IntPoly([0, 1])
    assert (p * q).coeffs == (0, 1, 2)
    assert (p + q).coeffs == (1, 3)
    assert p(10) == 21
    assert IntPoly([]).degree == -1


def test_bruteforce_small():
    assert indpoly_bruteforce(path_graph(1)).coeffs == (1, 1)
    assert indpoly_bruteforce(path_graph(4)).coeffs == (1, 4, 3)
    assert indpoly_bruteforce(complete_graph(3)).coeffs == (1, 3)
    assert indpoly_bruteforce(path_graph(0)).coeffs == (1,)
    with pytest.raises(GuardLimitError):
        indpoly_bruteforce(path_graph(31))


def test_tree_dp_requires_forest():
    with pytest.raises(NotAForestError):
        indpoly_tree(complete_graph(3))
    assert indpoly_tree(path_graph(0)).coeffs == (1,)


def binary_tree(depth: int) -> Graph:
    """Complete binary tree with 2**(depth+1) - 1 vertices, heap order."""
    n = 2 ** (depth + 1) - 1
    return Graph(n, [((v - 1) // 2, v) for v in range(1, n)])


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v moved to position perm[v]."""
    return Graph(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


@st.composite
def trees(draw):
    """A tree with parent[v] < v, so every shape of rooted tree can occur."""
    n = draw(st.integers(min_value=1, max_value=9))
    return Graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])


# Parts with many isomorphic siblings or components: spider legs, binary
# subtrees, the family legs, repeated isolated vertices.
FOREST_PARTS = st.one_of(
    st.just(Graph(1, [])),
    st.builds(path_graph, st.integers(0, 4)),
    st.builds(spider2, st.integers(0, 6)),
    st.builds(spider12, st.integers(0, 5), st.integers(0, 4)),
    st.builds(binary_tree, st.integers(0, 3)),
    st.sampled_from([t3mn(0, 0), t3mn(1, 0), t3mn(0, 1), t3mn(1, 1), t3mn_star(0, 0)]),
    trees(),
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_shared_shape_dp_matches_bruteforce(data):
    parts = data.draw(st.lists(FOREST_PARTS, min_size=1, max_size=4))
    parts += [Graph(1, [])] * data.draw(st.integers(0, 3))
    forest = disjoint_union(data.draw(st.permutations(parts)))
    assume(forest.n <= 20)
    perm = data.draw(st.permutations(range(forest.n)))
    forest = relabel(forest, perm)
    assert indpoly_tree(forest) == indpoly_bruteforce(forest)


def test_shared_shape_dp_on_wide_spiders():
    for g in (spider2(8), spider12(12, 0), spider12(6, 6), binary_tree(3)):
        assert indpoly_tree(g) == indpoly_bruteforce(g)


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize(
    "g",
    [
        disjoint_union([cycle_graph(4), path_graph(3), spider2(2)]),
        disjoint_union([path_graph(3), spider2(2), Graph(1, []), cycle_graph(5)]),
        # a 4-cycle through a foot of spider2(2): 5, 6, 7 are new
        Graph(8, spider2(2).edges() + [(3, 5), (5, 6), (6, 7), (7, 3)]),
        disjoint_union([spider2(3), complete_graph(3)]),
    ],
    ids=["first-component", "last-component", "hanging-4-cycle", "triangle"],
)
def test_tree_dp_rejects_any_cycle(g):
    assert not is_forest(g)
    for forest_only in (indpoly_tree, count_admissible, ForestShadow):
        with pytest.raises(NotAForestError, match="contains a cycle"):
            forest_only(g)


def test_intpoly_power():
    for p in (IntPoly([1, 2]), IntPoly([0, 1]), IntPoly([3, 0, -1, 5]), ONE, IntPoly([])):
        assert p**0 == ONE
        acc = ONE
        for k in range(1, 10):
            acc = acc * p
            assert p**k == acc
    with pytest.raises(ValueError):
        IntPoly([1, 1]) ** -1


def test_oracle_equivalence(rng):
    for _ in range(60):
        f = random_forest(rng, rng.randint(1, 14))
        assert indpoly_tree(f) == indpoly_bruteforce(f)


def test_degree_law():
    for m in range(0, 9):
        for n in range(0, 9):
            assert indpoly_tree(t3mn(m, n)).degree == m + n + 6
            assert indpoly_tree(t3mn_star(m, n)).degree == m + n + 7


def test_spider_degree():
    assert indpoly_tree(spider2(3)).degree == 4
    assert indpoly_tree(spider2(3)) == indpoly_bruteforce(spider2(3))


def test_deletion_identity(rng):
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 12))
        v = rng.randrange(t.n)
        without_v = induced_subgraph(t, [u for u in range(t.n) if u != v])
        closed = {v, *t.adj[v]}
        without_nbhd = induced_subgraph(t, [u for u in range(t.n) if u not in closed])
        lhs = indpoly_tree(t)
        rhs = indpoly_tree(without_v) + indpoly_tree(without_nbhd).shifted(1)
        assert lhs == rhs


def test_coefficient_bounds(rng):
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 12))
        p = indpoly_tree(t)
        for k in range(p.degree + 1):
            assert 0 < p[k] <= math.comb(t.n, k)


def test_analyze_examples():
    rep = analyze(IntPoly([1, 4, 3]))
    assert rep.unimodal and rep.log_concave and rep.breaks == ()
    rep = analyze(IntPoly([1, 1, 1]))
    assert rep.unimodal and rep.log_concave
    rep = analyze(IntPoly([1, 3, 2, 4]))
    assert not rep.unimodal
    rep = analyze(indpoly_tree(t3mn(4, 4)))
    assert rep.unimodal and not rep.log_concave and rep.breaks == (13,)
    with pytest.raises(ValueError):
        analyze(IntPoly([1, -1, 2]))


def test_mode_range():
    assert analyze(IntPoly([1, 5, 5, 2])).mode_range == (1, 2)
    assert analyze(IntPoly([3])).mode_range == (0, 0)


def test_tail_start():
    assert tail_start(0) == 0
    assert tail_start(1) == 1
    assert tail_start(6) == 4
    # the tail always reaches back far enough to chain with the prefix
    for deg in range(2, 40):
        assert tail_start(deg) <= deg - 1


def test_tail_ok_on_trees(rng):
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 14))
        assert analyze(indpoly_tree(t)).tail_ok


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_log_concave_implies_unimodal(coeffs):
    rep = analyze(IntPoly(coeffs))
    assert rep.log_concave == (not rep.breaks)
    if rep.log_concave:
        assert rep.unimodal


def test_scan_families():
    rows = scan_families("t3mn", range(1, 4), range(1, 4))
    assert len(rows) == 9
    assert [(r.m, r.n) for r in rows] == [(m, n) for m in range(1, 4) for n in range(1, 4)]
    assert all(r.report.unimodal for r in rows)
    diag = scan_families("t3mn_star", [], [], cells=[(k, k + 1) for k in range(3, 6)])
    assert all(not r.report.log_concave for r in diag)
    row = scan_row("t3mn", 1, 1)
    assert row.report.log_concave
    data = row.to_json_dict()
    assert data["family"] == "t3mn" and data["coeffs"][0] == "1"
    with pytest.raises(ValueError):
        scan_row("nope", 1, 1)
