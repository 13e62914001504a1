import itertools
import json

import pytest

from treepoly.graphs import (
    Graph,
    disjoint_union,
    family_layout,
    is_forest,
    path_graph,
    rooted_forest,
    spider2,
    spider12,
    t3mn,
    t3mn_star,
)

from conftest import random_tree, shuffled_forest
from oracles import (
    Bipartition,
    bipartition_of,
    clan_graph,
    clan_owners,
    complete_graph,
    connected_components,
    induced_subgraph,
)


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation search; test helper only, fine for up to ~8 vertices."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    ge = set(g.edges())
    for perm in itertools.permutations(range(g.n)):
        if all((min(perm[i], perm[j]), max(perm[i], perm[j])) in ge for i, j in h.edges()):
            return True
    return False


def test_graph_invariants():
    g = Graph(3, [(0, 1), (1, 2), (2, 1)])
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.edge_count == 2
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [], ["a", "a"])


def test_t3mn_counts():
    assert t3mn(4, 4).n == 26
    assert t3mn(0, 0).n == 10
    g = t3mn(1, 2)
    assert g.n == 16
    assert g.edge_count == 15
    # the leaves are exactly the m+n+3 feet once m, n >= 1
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    assert len(leaves) == 6
    lay = family_layout("t3mn", 1, 2)
    assert sorted(leaves) == sorted(
        lay.foot(i, j) for i in (1, 2, 3) for j in range(1, lay.leg_count(i) + 1)
    )


def test_t3mn_star_counts():
    assert t3mn_star(3, 4).n == 26
    assert t3mn_star(0, 0).n == 12
    g = t3mn_star(2, 2)
    lay = family_layout("t3mn_star", 2, 2)
    assert g.degree(lay.foot(1, 3)) == 2
    assert g.labels[lay.x] == "x" and g.labels[lay.y] == "y"
    core = induced_subgraph(g, lay.core_vertices())
    assert core == t3mn(2, 2)


def walked_family_graph(family: str, m: int, n: int) -> Graph:
    """The family graph built edge by edge and label by label from the
    layout's head/foot indices: the oracle for the range arithmetic of
    t3mn and t3mn_star."""
    lay = family_layout(family, m, n)
    labels = [""] * lay.size
    labels[:4] = ["v0", "v1", "v2", "v3"]
    edges = []
    for i in (1, 2, 3):
        edges.append((lay.v0, lay.branch(i)))
        for j in range(1, lay.leg_count(i) + 1):
            head, foot = lay.head(i, j), lay.foot(i, j)
            edges += [(lay.branch(i), head), (head, foot)]
            labels[head], labels[foot] = f"v{i}{j}", f"v{i}{j}'"
    if lay.star:
        edges += [(lay.foot(1, 3), lay.x), (lay.x, lay.y)]
        labels[lay.x], labels[lay.y] = "x", "y"
    return Graph(lay.size, edges, labels)


@pytest.mark.parametrize("m,n", [(-1, 0), (2, -1), (-3, -3)])
def test_family_layout_rejects_bad_cells(m, n):
    for family in ("t3mn", "t3mn_star"):
        with pytest.raises(ValueError, match="^m and n must be nonnegative$"):
            family_layout(family, m, n)
    with pytest.raises(ValueError, match="^unknown family 't4mn'$"):
        family_layout("t4mn", 1, 1)
    assert family_layout("t3mn_star", 0, 0).star and not family_layout("t3mn", 0, 0).star


def test_family_graphs_match_the_head_foot_walk():
    for m in range(7):
        for n in range(7):
            assert t3mn(m, n) == walked_family_graph("t3mn", m, n)
            assert t3mn_star(m, n) == walked_family_graph("t3mn_star", m, n)


def test_every_foot_is_a_pendant_of_its_head():
    for m in range(0, 9):
        for n in range(0, 9):
            g = t3mn(m, n)
            lay = family_layout("t3mn", m, n)
            assert is_forest(g) and len(connected_components(g)) == 1
            assert g.edge_count == g.n - 1
            for i in (1, 2, 3):
                for j in range(1, lay.leg_count(i) + 1):
                    foot = lay.foot(i, j)
                    assert g.adj[foot] == (lay.head(i, j),)


def test_spiders():
    assert spider2(0).n == 1
    assert brute_isomorphic(spider2(2), path_graph(5))
    g1 = spider2(3)
    assert g1.n == 7 and g1.degree(0) == 3
    assert spider12(1, 0).n == 2 and spider12(1, 0).edge_count == 1
    assert bipartition_of(spider12(3, 0), range(4)) == Bipartition(3, 1)
    assert bipartition_of(spider12(3, 2), range(8)) == Bipartition(5, 3)


def test_spider12_bipartition_rule():
    for k in range(1, 6):
        for r in range(0, 6):
            g = spider12(k, r)
            parts = bipartition_of(g, range(g.n))
            assert parts == Bipartition(r + k, r + 1)


def test_bipartition_swap_stable():
    g = spider12(3, 2)
    comp = connected_components(g)[0]
    direct = bipartition_of(g, comp)
    relabeled = Graph(g.n, [(g.n - 1 - i, g.n - 1 - j) for i, j in g.edges()])
    flipped = bipartition_of(relabeled, range(g.n))
    assert direct == flipped == Bipartition(5, 3)
    assert bipartition_of(complete_graph(3), range(3)) is None
    assert bipartition_of(Graph(1, []), [0]) == Bipartition(1, 0)


def test_clan_graph_example():
    g = clan_graph(path_graph(4), (2, 0, 1, 3))
    assert g.n == 6
    assert g.edge_count == 7
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [2, 4]
    assert clan_owners(path_graph(4), (2, 0, 1, 3)) == (0, 0, 2, 3, 3, 3)
    assert g.labels[0] == "p0^(1)"


def test_clan_identity_and_empty(rng):
    for _ in range(20):
        t = random_tree(rng, rng.randint(1, 9))
        c = clan_graph(t, (1,) * t.n)
        assert c.n == t.n
        assert c.adj == t.adj
        assert all(cl == f"{tl}^(1)" for cl, tl in zip(c.labels, t.labels))
    assert clan_graph(path_graph(3), (0, 0, 0)).n == 0


def test_clan_counts(rng):
    for _ in range(25):
        t = random_tree(rng, rng.randint(1, 8))
        w = [rng.randint(0, 3) for _ in range(t.n)]
        c = clan_graph(t, w)
        assert c.n == sum(w)
        expected_edges = sum(a * (a - 1) // 2 for a in w) + sum(
            w[i] * w[j] for i, j in t.edges()
        )
        assert c.edge_count == expected_edges


def test_components_and_subgraph():
    assert connected_components(Graph(0, [])) == []
    assert len(connected_components(t3mn(2, 2))) == 1
    g = t3mn_star(1, 1)
    lay = family_layout("t3mn_star", 1, 1)
    core = induced_subgraph(g, lay.core_vertices())
    assert core == t3mn(1, 1)
    assert induced_subgraph(g, range(g.n)) == g
    assert induced_subgraph(g, []).n == 0


def test_rooted_forest(rng):
    for _ in range(15):
        g = shuffled_forest(rng, rng.randint(0, 12))
        order, parent = rooted_forest(g)
        assert sorted(order) == list(range(g.n))
        roots = [v for v in range(g.n) if parent[v] == -1]
        assert roots == [comp[0] for comp in connected_components(g)]
        assert g.n - len(roots) == g.edge_count  # every edge joins a vertex to its parent
        pos = {v: i for i, v in enumerate(order)}
        for v in range(g.n):
            if parent[v] != -1:
                assert parent[v] in g.adj[v] and pos[parent[v]] < pos[v]


def test_json_roundtrip():
    g = t3mn_star(1, 2)
    payload = json.dumps(g.to_json_dict())
    data = json.loads(payload)
    back = Graph(data["n"], [tuple(e) for e in data["edges"]], data["labels"])
    assert back == g
    data = g.to_json_dict()
    assert data["edges"] == sorted(data["edges"])


def test_disjoint_union():
    u = disjoint_union([spider2(1), spider2(2)])
    assert u.n == 3 + 5
    assert len(connected_components(u)) == 2
    assert len(set(u.labels)) == u.n
