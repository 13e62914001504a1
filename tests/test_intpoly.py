import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treepoly import intpoly
from treepoly.cli import MAX_FAMILY_VERTICES
from treepoly.alphamaps import count_admissible
from treepoly.graphs import (
    Graph,
    disjoint_union,
    family_layout,
    is_forest,
    path_graph,
    spider2,
    spider12,
    t3mn,
    t3mn_star,
)
from treepoly.intpoly import (
    GuardLimitError,
    IntPoly,
    NotAForestError,
    analyze,
    family_graph,
    family_poly,
    indpoly_bruteforce,
    indpoly_tree,
    scan_row,
    spider_poly,
    tail_start,
)
from treepoly.shadow import ForestShadow

from conftest import clear_cell_cache, random_forest, random_tree
from oracles import complete_graph, induced_subgraph


def test_intpoly_basics():
    p = IntPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p[5] == 0
    q = IntPoly([0, 1])
    assert (p * q).coeffs == (0, 1, 2)
    assert (p + q).coeffs == (1, 3)
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


@st.composite
def forests(draw):
    """Up to four parts and three isolated vertices, at most 20 vertices,
    shuffled into one vertex order."""
    parts = draw(st.lists(FOREST_PARTS, min_size=1, max_size=4))
    parts += [Graph(1, [])] * draw(st.integers(0, 3))
    forest = disjoint_union(draw(st.permutations(parts)))
    assume(forest.n <= 20)
    return relabel(forest, draw(st.permutations(range(forest.n))))


@given(forests())
@settings(max_examples=80, deadline=None)
def test_shared_shape_dp_matches_bruteforce(forest):
    assert indpoly_tree(forest) == indpoly_bruteforce(forest)


FAMILY_CELLS = st.builds(
    lambda family, m, n: family(m, n),
    st.sampled_from([t3mn, t3mn_star]),
    st.integers(0, 3),
    st.integers(0, 3),
)


@given(st.lists(st.one_of(forests(), FAMILY_CELLS), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_tree_dp_repeated_calls_are_exact(graphs):
    # every result must equal the oracle (all graphs drawn have at most 24
    # vertices) and a second call on the same graph
    first = [indpoly_tree(g) for g in graphs]
    for g, p in zip(graphs, first):
        assert p == indpoly_bruteforce(g)
        assert indpoly_tree(g) == p


@pytest.mark.parametrize("family", [t3mn, t3mn_star])
def test_mirrored_cell_adds_no_shape(family):
    # the cell cache is keyed by the tree's shape, and (n, m) is the tree of
    # (m, n) with branches 2 and 3 swapped
    clear_cell_cache()
    for m, n in [(0, 3), (2, 5), (7, 4), (1, 12)]:
        before = intpoly._cell_poly.cache_info().currsize
        p = family_poly(family.__name__, m, n)
        size = intpoly._cell_poly.cache_info().currsize
        assert size == before + 1
        assert family_poly(family.__name__, n, m) is p
        assert intpoly._cell_poly.cache_info().currsize == size
        assert indpoly_tree(family(n, m)) == p


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
def test_family_poly_matches_the_graph_dp(family, rng):
    # every cell of the 13x13 grid, in shuffled order from emptied caches:
    # a cell's diagonal part, cached by m + n, is right whichever cell of
    # the diagonal built it, and is built once per diagonal
    cells = [(m, n) for m in range(13) for n in range(13)]
    rng.shuffle(cells)
    clear_cell_cache()
    for m, n in cells:
        assert family_poly(family, m, n) == indpoly_tree(family_graph(family, m, n))
    info = intpoly._diagonal_poly.cache_info()
    assert info.currsize == info.misses == 25


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
@pytest.mark.parametrize("m,n", [(40, 25), (25, 40), (60, 7), (0, 90)])
def test_family_poly_matches_the_graph_dp_past_the_grid(family, m, n):
    assert family_poly(family, m, n) == indpoly_tree(family_graph(family, m, n))


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
def test_family_poly_reaches_no_dp_code(monkeypatch, family):
    # the closed forms are built from coefficient rows: no forest walk and
    # no tree DP, for the family cells and for the spiders
    def refuse(*args):
        raise AssertionError("a closed form reached the tree DP")

    cells = [(0, 0), (3, 1), (2, 5), (12, 7), (101, 103)]
    spiders = [(0, 0), (3, 0), (0, 4), (5, 7), (40, 31)]
    clear_cell_cache()
    with monkeypatch.context() as patched:
        patched.setattr(intpoly, "rooted_forest", refuse)
        patched.setattr(intpoly, "indpoly_tree", refuse)
        polys = [family_poly(family, m, n) for m, n in cells]
        spider_polys = [spider_poly(k, r) for k, r in spiders]
    assert polys == [indpoly_tree(family_graph(family, m, n)) for m, n in cells]
    assert spider_polys == [indpoly_tree(spider12(k, r)) for k, r in spiders]


def test_spider_poly_matches_bruteforce():
    for k in range(20):
        for r in range((20 - k - 1) // 2 + 1):
            assert spider_poly(k, r) == indpoly_bruteforce(spider12(k, r)), (k, r)


def test_spider_poly_matches_the_graph_dp_on_long_spiders():
    assert spider_poly(0, 300) == indpoly_tree(spider2(300))
    assert spider_poly(600, 0) == indpoly_tree(spider12(600, 0))


def test_closed_forms_multiply_no_two_long_polynomials(monkeypatch):
    # every product of the closed forms is a factor of at most 6
    # coefficients times a long row, at the vertex limit of
    # MAX_FAMILY_VERTICES as at every other size
    real = IntPoly.__mul__

    def short_factor(a, b):
        if len(a) > 6 and len(b) > 6:
            raise AssertionError(f"product of {len(a)} by {len(b)} coefficients")
        return real(a, b)

    cells = [("t3mn", 1247, 1248), ("t3mn_star", 1247, 1247), ("t3mn", 2494, 1), ("t3mn_star", 2494, 0)]
    for family, m, n in cells:
        assert family_layout(family, m, n).size == MAX_FAMILY_VERTICES
    clear_cell_cache()
    monkeypatch.setattr(IntPoly, "__mul__", short_factor)
    for family, m, n in cells:
        assert family_poly(family, m, n).degree == m + n + (7 if family == "t3mn_star" else 6)
    assert spider_poly(4999, 0).degree == 4999
    with pytest.raises(AssertionError, match="product of"):
        IntPoly([1] * 7) * IntPoly([1] * 7)


def _binomial_power(c: int, k: int) -> IntPoly:
    """(1 + c x)^k from its binomial coefficients."""
    coeffs = [1]
    for i in range(k):
        coeffs.append(coeffs[-1] * (k - i) * c // (i + 1))
    return IntPoly(coeffs)


def closed_form_family_poly(family: str, m: int, n: int) -> IntPoly:
    """I(T_{3,m,n}) = B_3 B_m B_n + x (1+2x)^(3+m+n), with B_k = (1+2x)^k +
    x (1+x)^k: a set avoids the root (one factor per branch, each branch
    spider avoiding or holding its centre) or holds it (every centre out,
    each leg a path of two with its head free).  In the star, branch 1's
    third leg is a path of four, so its B_3 becomes (1+2x)^2 (1+4x+3x^2) +
    x (1+x)^2 (1+3x+x^2), and the root term x (1+2x)^(2+m+n) (1+4x+3x^2).
    Polynomial arithmetic only, with no shape table."""

    def b(k: int) -> IntPoly:
        return _binomial_power(2, k) + _binomial_power(1, k).shifted()

    if family == "t3mn":
        b1 = b(3)
        root = _binomial_power(2, 3 + m + n).shifted()
    else:
        path4 = IntPoly([1, 4, 3])
        b1 = _binomial_power(2, 2) * path4 + (_binomial_power(1, 2) * IntPoly([1, 3, 1])).shifted()
        root = (_binomial_power(2, 2 + m + n) * path4).shifted()
    return b1 * b(m) * b(n) + root


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
def test_family_poly_matches_the_closed_form(family):
    # on the 30x30 scan grid, on the balanced cell (600, 600), where the
    # oracle's B_m B_n is a long product, and on cells at the vertex limit of
    # MAX_FAMILY_VERTICES (5,000): t3mn(2494, 1) and t3mn_star(2494, 0),
    # which share their largest spider, and their mirror images
    for m in range(1, 31):
        for n in range(1, 31):
            assert family_poly(family, m, n) == closed_form_family_poly(family, m, n)
    assert family_poly(family, 600, 600) == closed_form_family_poly(family, 600, 600)
    m = 2494
    n = 1 if family == "t3mn" else 0
    assert family_layout(family, m, n).size == MAX_FAMILY_VERTICES
    for cell in ((m, n), (n, m)):
        p = family_poly(family, *cell)
        assert p.degree == 2501 and p == closed_form_family_poly(family, *cell)


@pytest.mark.parametrize("m,n", [(-1, 0), (2, -1), (-3, -3)])
def test_family_poly_rejects_negative_counts(m, n):
    for family in ("t3mn", "t3mn_star"):
        with pytest.raises(ValueError, match="must be nonnegative"):
            family_poly(family, m, n)
    with pytest.raises(ValueError, match="unknown family"):
        family_poly("t4mn", 1, 1)
    with pytest.raises(ValueError, match="leg counts must be nonnegative"):
        spider_poly(m, n)


@pytest.mark.parametrize("op", ["__mul__", "__add__"])
def test_dp_raising_mid_run_leaves_a_usable_table(monkeypatch, op):
    # make IntPoly's op raise at each call of one DP run, then of one
    # uncached family_poly cell, in turn: later calls stay exact, and the
    # cell cache keeps no entry for the failed cell
    victim = t3mn_star(3, 2)
    later = [t3mn(2, 3), t3mn_star(1, 2), binary_tree(3), spider12(3, 2), victim]
    real = getattr(IntPoly, op)
    calls = 0

    def failing(a, b):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise RuntimeError("arithmetic failed")
        return real(a, b)

    def victim_dp():
        indpoly_tree(victim)

    def victim_cell():
        clear_cell_cache()
        family_poly("t3mn_star", 3, 2)

    for run in (victim_dp, victim_cell):
        budget = math.inf
        calls = 0
        monkeypatch.setattr(IntPoly, op, failing)
        run()
        monkeypatch.setattr(IntPoly, op, real)
        total = calls
        assert total > 0
        for budget in range(total):
            calls = 0
            monkeypatch.setattr(IntPoly, op, failing)
            with pytest.raises(RuntimeError, match="arithmetic failed"):
                run()
            monkeypatch.setattr(IntPoly, op, real)
            if run is victim_cell:
                assert intpoly._cell_poly.cache_info().currsize == 0
            for g in later:
                assert indpoly_tree(g) == indpoly_bruteforce(g)
            assert family_poly("t3mn_star", 3, 2) == indpoly_bruteforce(victim)


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
    rows = [scan_row("t3mn", m, n) for m in range(1, 4) for n in range(1, 4)]
    assert [(r.m, r.n) for r in rows] == [(m, n) for m in range(1, 4) for n in range(1, 4)]
    assert all(r.family == "t3mn" and r.report.unimodal for r in rows)
    diag = [scan_row("t3mn_star", k, k + 1) for k in range(3, 6)]
    assert all(not r.report.log_concave for r in diag)
    row = scan_row("t3mn", 1, 1)
    assert row.report.log_concave
    data = row.to_json_dict()
    assert data["family"] == "t3mn" and data["coeffs"][0] == "1"
    with pytest.raises(ValueError):
        scan_row("nope", 1, 1)
