import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepoly.graphs import (
    Graph,
    NotAForestError,
    spider2,
    t3mn,
    t3mn_star,
)
from treepoly.alphamaps import admissible_maps
from treepoly.shadow import (
    ForestShadow,
    add_expansions,
    expansion_from_signature,
    imbalances,
    imbalances_negative,
    min_coefficient,
    part_pairs,
)
from treepoly.proofcheck import FamilyContext
from treepoly.symfunc import chromatic_multicolor_2var, schur_expand

from conftest import random_tree, shuffled_forest
from oracles import (
    complete_graph,
    connected_components,
    count_by_signature,
    is_admissible,
    poly_from_signature,
    shadow_poly,
)


def test_engine_requires_bipartite():
    with pytest.raises(ValueError):
        ForestShadow(complete_graph(3))


def test_forest_shadow_colors(rng):
    graphs = [t3mn(2, 3), t3mn_star(1, 2)]
    graphs += [shuffled_forest(rng, rng.randint(1, 12)) for _ in range(12)]
    for g in graphs:
        colors = ForestShadow(g).colors
        assert len(colors) == g.n and set(colors) <= {0, 1}
        assert all(colors[i] != colors[j] for i, j in g.edges())
        # _pattern in proofcheck relies on each component's smallest vertex
        # having color 0
        assert all(colors[comp[0]] == 0 for comp in connected_components(g))
    with pytest.raises(NotAForestError):
        ForestShadow(complete_graph(3))
    # bipartite but not a forest
    with pytest.raises(NotAForestError):
        ForestShadow(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_admissibility_predicate():
    g = spider2(1)
    assert is_admissible(g, (0, 0, 2))
    assert is_admissible(g, (2, 0, 1))
    assert is_admissible(g, (1, 1, 1))
    assert not is_admissible(g, (0, 1, 2))
    assert not is_admissible(g, (1, 2, 0))
    assert not is_admissible(g, (0, 3, 0))
    assert not is_admissible(g, (0, -1, 0))


def test_signature_matches_literal_shadow(rng):
    for _ in range(12):
        t = random_tree(rng, rng.randint(1, 8))
        ctx = ForestShadow(t)
        for w in admissible_maps(t):
            literal = schur_expand(chromatic_multicolor_2var(t, w)).coeffs
            assert dict(ctx.expansion(w)) == literal
            assert dict(shadow_poly(ctx, w)) == chromatic_multicolor_2var(t, w).terms


def test_expansion_of_any_map_matches_literal_shadow(rng):
    # every map, admissible or not, including values above 2
    for _ in range(4):
        t = random_tree(rng, rng.randint(1, 5))
        ctx = ForestShadow(t)
        for w in itertools.product((0, 1, 2, 3), repeat=t.n):
            literal = schur_expand(chromatic_multicolor_2var(t, w)).coeffs
            assert dict(ctx.expansion(w)) == literal
            assert ctx.negative(w) == (min(literal.values(), default=0) < 0)


def walk_components(g, colors, weights):
    """(color-0, color-1) counts of each weight-1 component, found by a
    stack walk over the adjacency lists."""
    seen = set()
    comps = []
    for v in range(g.n):
        if weights[v] != 1 or v in seen:
            continue
        seen.add(v)
        counts = [0, 0]
        stack = [v]
        while stack:
            u = stack.pop()
            counts[colors[u]] += 1
            for x in g.adj[u]:
                if weights[x] == 1 and x not in seen:
                    seen.add(x)
                    stack.append(x)
        comps.append(tuple(counts))
    return comps


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_pass_fold_matches_adjacency_walk(data):
    # expansion decides admissibility and finds the components in one
    # pass over the rooted order; is_admissible and a separate walk are the
    # reference, on maps with values outside 0..2 too
    n = data.draw(st.integers(1, 12))
    g = shuffled_forest(random.Random(data.draw(st.integers(0, 2**32))), n)
    w = tuple(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
    ctx = ForestShadow(g)
    comps = walk_components(g, ctx.colors, w)
    assert sorted(ctx.components(w)) == sorted(comps)
    if w[0] == 1:  # vertex 0 is a root, so its component comes first
        assert ctx.components(w)[0] == comps[0]
    expected = {}
    if is_admissible(g, w):
        expected = expansion_from_signature((part_pairs(comps), w.count(2)))
    assert dict(ctx.expansion(w)) == dict(expected)


def test_signature_structure():
    g = t3mn(1, 1)
    ctx = ForestShadow(g)
    comps, twos = ctx.signature((0,) * g.n)
    assert comps == () and twos == 0
    all_one = (1,) * g.n
    comps, twos = ctx.signature(all_one)
    assert twos == 0 and len(comps) == 1
    p, q = comps[0]
    assert p + q == g.n and p >= q
    # components are raw (color-0, color-1) counts, in the rooted order of
    # their first vertex
    spider = ForestShadow(spider2(2))
    assert spider.components((0, 1, 0, 0, 1)) == [(0, 1), (1, 0)]
    assert spider.signature((0, 1, 0, 0, 1)) == (((1, 0), (1, 0)), 0)


def test_balanced_signatures_are_positive(rng):
    # every component with nearly equal parts gives a nonnegative expansion
    for _ in range(200):
        comps = []
        for _ in range(rng.randint(0, 4)):
            q = rng.randint(0, 5)
            comps.append((q + rng.randint(0, 1), q))
        comps = tuple(sorted((max(p, q), min(p, q)) for p, q in comps))
        twos = rng.randint(0, 3)
        exp = expansion_from_signature((comps, twos))
        assert min_coefficient(exp) >= 0, (comps, twos)


@pytest.mark.parametrize("family,m,n", [("t3mn", 2, 2), ("t3mn_star", 1, 2)])
def test_expansion_factors_through_the_imbalances(family, m, n):
    # pair_terms(p, q) = (x1 x2)^q (x1^d + x2^d): every signature's
    # expansion is 2^b times that of its imbalances alone, shifted by (Q, Q)
    sigs = count_by_signature(FamilyContext(family, m, n).slice_patterns)
    assert len(sigs) == {"t3mn": 1517, "t3mn_star": 1812}[family]
    for comps, twos in sigs:
        ds = imbalances(comps)
        reduced = expansion_from_signature((tuple((d, 0) for d in ds), 0))
        b = sum(p == q for p, q in comps)
        shift = twos + sum(q for _, q in comps)
        expected = {(x + shift, y + shift): 2**b * c for (x, y), c in reduced.items()}
        exp = expansion_from_signature((comps, twos))
        assert exp == expected
        assert imbalances_negative(ds) == (min_coefficient(exp) < 0)


def test_caches_are_stable():
    sig = (((2, 1), (1, 1)), 1)
    first = expansion_from_signature(sig)
    again = expansion_from_signature(sig)
    assert first is again
    assert poly_from_signature(sig) is poly_from_signature(sig)


def test_add_expansions():
    a = {(2, 1): 1, (1, 1): -1}
    b = {(1, 1): 1}
    total = add_expansions(a, b)
    assert total == {(2, 1): 1}
    assert a == {(2, 1): 1, (1, 1): -1}
