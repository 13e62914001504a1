import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepoly.graphs import (
    Graph,
    bipartition_of,
    clan_adjacency,
    clan_graph,
    complete_graph,
    connected_components,
    disjoint_union,
    path_graph,
    spider12,
    spider2,
    t3mn,
)
from treepoly.intpoly import IntPoly, indpoly_tree
from treepoly.symfunc import (
    AsymmetricInputError,
    SymPoly2,
    TwoRowExpansion,
    chromatic_2var,
    chromatic_2var_bruteforce,
    chromatic_multicolor_2var,
    f_p_2var,
    monomial_pair,
    schur_expand,
    schur_sym,
    sym_one,
    sym_zero,
    y_g_2var,
)

from conftest import random_tree


def lr_coefficient(mu, nu, lam):
    """Littlewood-Richardson coefficient for two-row shapes by direct
    enumeration of lattice semistandard fillings; independent oracle."""
    l1, l2 = lam
    m1, m2 = mu
    if not (l1 >= l2 >= 0 and m1 >= m2 >= 0 and l1 >= m1 and l2 >= m2):
        return 0
    if (l1 - m1) + (l2 - m2) != nu[0] + nu[1]:
        return 0
    row1 = l1 - m1
    row2 = l2 - m2
    count = 0
    for ones1 in range(row1 + 1):
        for ones2 in range(row2 + 1):
            if (ones1 + ones2, row1 - ones1 + row2 - ones2) != tuple(nu):
                continue
            # entries: row r has ones then twos, positions are columns
            def entry(row, col):
                if row == 1:
                    return 1 if col - m1 <= ones1 else 2
                return 1 if col - m2 <= ones2 else 2

            if any(
                m1 < col and entry(1, col) >= entry(2, col)
                for col in range(m2 + 1, l2 + 1)
            ):
                continue
            word = [entry(1, col) for col in range(l1, m1, -1)]
            word += [entry(2, col) for col in range(l2, m2, -1)]
            seen1 = seen2 = 0
            good = True
            for letter in word:
                if letter == 1:
                    seen1 += 1
                else:
                    seen2 += 1
                if seen2 > seen1:
                    good = False
                    break
            if good:
                count += 1
    return count


def two_row_shapes(total):
    return [(a, total - a) for a in range((total + 1) // 2, total + 1)]


def test_schur_polynomials():
    assert schur_sym(1, 1) == SymPoly2({(1, 1): 1})
    assert schur_sym(2, 0) == SymPoly2({(2, 0): 1, (1, 1): 1, (0, 2): 1})
    with pytest.raises(ValueError):
        schur_sym(1, 2)


def test_schur_expand_examples():
    assert schur_expand(SymPoly2({(1, 1): 1})).coeffs == {(1, 1): 1}
    square = schur_sym(1, 0) * schur_sym(1, 0)
    assert schur_expand(square).coeffs == {(2, 0): 1, (1, 1): 1}
    f = SymPoly2({(3, 1): 1, (1, 3): 1, (2, 2): 1})
    assert schur_expand(f).coeffs == {(3, 1): 1}
    with pytest.raises(AsymmetricInputError):
        schur_expand(SymPoly2({(2, 1): 1}))


def test_expansion_container():
    e = TwoRowExpansion({(2, 1): 3, (1, 1): -1})
    assert e[(2, 1)] == 3 and e.diagonal(1) == -1
    assert e.min_coefficient() == -1
    assert e.items_sorted() == [((2, 1), 3), ((1, 1), -1)]
    with pytest.raises(ValueError):
        TwoRowExpansion({(1, 2): 1})


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).map(
            lambda ab: (max(ab), min(ab))
        ),
        st.integers(-50, 50),
        max_size=8,
    )
)
@settings(max_examples=500, deadline=None)
def test_bialternant_roundtrip(coeffs):
    exp = TwoRowExpansion(coeffs)
    total = SymPoly2()
    for (a, b), c in coeffs.items():
        total = total + c * schur_sym(a, b)
    assert schur_expand(total) == exp


def test_product_shadow_matches_lr_oracle(rng):
    shapes = [(a, b) for a in range(0, 7) for b in range(0, a + 1)]
    for _ in range(100):
        mu = rng.choice(shapes)
        nu = rng.choice(shapes)
        got = schur_expand(schur_sym(*mu) * schur_sym(*nu))
        total = sum(mu) + sum(nu)
        expected = {
            lam: lr_coefficient(mu, nu, lam)
            for lam in two_row_shapes(total)
            if lr_coefficient(mu, nu, lam)
        }
        assert got.coeffs == expected, (mu, nu)


def test_marked_pair_product_identity():
    # one doubled pair block and two loose vertices: 2 s11 (s2 + s11)
    lhs = schur_expand(
        2 * schur_sym(1, 1) * schur_sym(1, 0) * schur_sym(1, 0)
    )
    assert lhs[(3, 1)] == 2
    assert lhs[(2, 2)] == 2


def test_chromatic_examples():
    assert schur_expand(chromatic_2var(spider12(3, 0))).coeffs == {(3, 1): 1, (2, 2): -1}
    assert chromatic_2var(complete_graph(3)).is_zero
    assert chromatic_2var(Graph(1, [])) == schur_sym(1, 0)
    assert chromatic_2var(Graph(0, [])) == sym_one()


def random_cyclic_graph(rng, n):
    """A random tree on n vertices plus one to three chords, vertices shuffled,
    so every draw with n >= 3 has a cycle (odd or even), and a random edge
    of the result dropped half the time so some draws are disconnected."""
    t = random_tree(rng, n)
    edges = set(t.edges())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(1, 3))))
    edges = sorted(edges)
    if edges and rng.random() < 0.5:
        edges.remove(rng.choice(edges))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[i], perm[j]) for i, j in edges])


def test_chromatic_against_bruteforce(rng):
    for _ in range(25):
        g = random_tree(rng, rng.randint(1, 9))
        assert chromatic_2var(g) == chromatic_2var_bruteforce(g)
    assert chromatic_2var(complete_graph(3)) == chromatic_2var_bruteforce(complete_graph(3))
    cycle4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert chromatic_2var(cycle4) == chromatic_2var_bruteforce(cycle4)
    odd = 0
    for _ in range(40):
        g = random_cyclic_graph(rng, rng.randint(1, 9))
        walk = chromatic_2var(g)
        assert walk == chromatic_2var_bruteforce(g)
        odd += walk.is_zero
    assert 5 <= odd <= 35


def test_multicolor_basics(rng):
    g = spider2(2)
    for _ in range(10):
        w = tuple(rng.randint(0, 2) for _ in range(g.n))
        direct = chromatic_multicolor_2var(g, w)
        assert direct.is_symmetric()
    assert chromatic_multicolor_2var(Graph(1, []), (2,)) == schur_sym(1, 1)
    t = random_tree(rng, 6)
    assert chromatic_multicolor_2var(t, (1,) * 6) == chromatic_2var(t)
    # an edge with total weight 3 or more has zero shadow
    p2 = path_graph(2)
    assert chromatic_multicolor_2var(p2, (1, 2)).is_zero
    assert chromatic_multicolor_2var(p2, (2, 2)).is_zero


def test_f_p_examples():
    f = f_p_2var(IntPoly([1, 1]))
    assert schur_expand(f).coeffs == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert f_p_2var(IntPoly([1])) == sym_one()
    with pytest.raises(ValueError):
        f_p_2var(IntPoly([2, 1]))


def test_diagonal_coefficients_are_defects(rng):
    for _ in range(100):
        deg = rng.randint(1, 12)
        coeffs = [1] + [rng.randint(1, 60) for _ in range(deg)]
        p = IntPoly(coeffs)
        exp = schur_expand(f_p_2var(p))
        for k in range(1, deg + 1):
            assert exp.diagonal(k) == p[k] * p[k] - p[k - 1] * p[k + 1]


def test_y_g(rng):
    g = Graph(1, [])
    assert y_g_2var(g) == f_p_2var(IntPoly([1, 1]))
    t = random_tree(rng, 8)
    poly = indpoly_tree(t)
    exp = schur_expand(y_g_2var(t))
    for k in range(1, poly.degree + 1):
        assert exp.diagonal(k) == poly[k] ** 2 - poly[k - 1] * poly[k + 1]
    # non-forest oracle fallback
    assert y_g_2var(complete_graph(3)) == f_p_2var(IntPoly([1, 3]))


def test_disjoint_union_multiplies(rng):
    a = random_tree(rng, 5)
    b = random_tree(rng, 4)
    u = disjoint_union([a, b])
    assert chromatic_2var(u) == chromatic_2var(a) * chromatic_2var(b)


@st.composite
def cycles_and_paths(draw):
    """A graph of up to three components, each a cycle (odd or even) or a
    path, plus up to two random chords, with the vertices shuffled (at most
    15 vertices), and a weight map on it with values 0..2."""
    parts = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just(True), st.integers(3, 5)),
                st.tuples(st.just(False), st.integers(1, 5)),
            ),
            max_size=3,
        )
    )
    edges = []
    n = 0
    for closed, size in parts:
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        if closed:
            edges.append((n + size - 1, n))
        n += size
    if n:
        vertex = st.integers(0, n - 1)
        chords = draw(st.lists(st.tuples(vertex, vertex), max_size=2))
        edges += [(i, j) for i, j in chords if i != j]
    perm = draw(st.permutations(range(n)))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return Graph(n, [(perm[i], perm[j]) for i, j in edges]), tuple(weights)


@given(cycles_and_paths())
@example((Graph(0, []), ()))
@settings(max_examples=120, deadline=None)
def test_coloring_walk_matches_oracles(graph_and_weights):
    g, w = graph_and_weights
    walk = chromatic_2var(g)
    assert walk == chromatic_2var_bruteforce(g)
    per_component = sym_one()
    for comp in connected_components(g):
        parts = bipartition_of(g, comp)
        factor = sym_zero() if parts is None else monomial_pair(parts.p, parts.q)
        per_component = per_component * factor
    assert walk == per_component
    assert clan_graph(g, w).adj == tuple(tuple(sorted(nbrs)) for nbrs in clan_adjacency(g, w))


@pytest.mark.parametrize("build", [clan_adjacency, clan_graph, chromatic_multicolor_2var])
def test_clan_rejects_bad_weights(build):
    g = path_graph(3)
    with pytest.raises(ValueError, match="weight map length does not match vertex count"):
        build(g, (1, 1))
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        build(g, (1, -1, 0))


def test_factorization_when_no_cross_edges(rng):
    # weight maps vanishing on a separator factor across the two sides
    g = t3mn(1, 1)
    for _ in range(40):
        w = [rng.randint(0, 2) for _ in range(g.n)]
        w[0] = 0
        w[1] = 0
        full = tuple(w)
        side = [v for v in (1, 4, 5, 6, 7, 8, 9)]
        wa = tuple(a if v in side else 0 for v, a in enumerate(full))
        wb = tuple(0 if v in side else a for v, a in enumerate(full))
        assert chromatic_multicolor_2var(g, full) == chromatic_multicolor_2var(
            g, wa
        ) * chromatic_multicolor_2var(g, wb)


def test_multicolor_matches_coloring_enumeration(rng):
    # dual route: clan coloring enumeration, then the exact normalization
    from math import factorial, prod

    for _ in range(20):
        g = random_tree(rng, rng.randint(1, 5))
        w = tuple(rng.randint(0, 2) for _ in range(g.n))
        clan = clan_graph(g, w)
        if clan.n > 10:
            continue
        raw = chromatic_2var_bruteforce(clan)
        d = 1
        for a in w:
            d *= factorial(a)
        expected = SymPoly2({k: c // d for k, c in raw.terms.items()})
        assert all(c % d == 0 for c in raw.terms.values())
        assert chromatic_multicolor_2var(g, w) == expected
    # graphs with cycles and weights up to 3, against the literal clan graph
    checked = nonzero = 0
    while checked < 150:
        g = random_cyclic_graph(rng, rng.randint(1, 7))
        w = tuple(rng.randint(0, 3) for _ in range(g.n))
        clan = clan_graph(g, w)
        if clan.n > 12:
            continue
        raw = chromatic_2var_bruteforce(clan)
        d = prod(factorial(a) for a in w)
        assert all(c % d == 0 for c in raw.terms.values())
        expected = SymPoly2({k: c // d for k, c in raw.terms.items()})
        assert chromatic_multicolor_2var(g, w) == expected
        checked += 1
        nonzero += not expected.is_zero
    assert nonzero >= 15


def test_clan_walk_stops_at_first_conflict():
    # one vertex of weight a is a clique of a clan vertices: the walk meets
    # a triangle among the first three and stops, where building the clan's
    # neighbor lists would take a^2 entries
    import time

    t0 = time.perf_counter()
    assert chromatic_multicolor_2var(Graph(1, []), (10**6,)).is_zero
    assert time.perf_counter() - t0 < 5
