import hashlib
import itertools
import json

import pytest

from treepoly import alphamaps, shadow
from treepoly.alphamaps import (
    EnumerationGuardError,
    admissible_maps,
    anchored_bare,
    bare_leg_count,
    check_forest_multi_marking,
    check_forest_pairing,
    check_leaf_spider_pairing,
    check_marking_bijection,
    check_negative_spider_pairing,
    check_no_singleton_when_deficient,
    check_spider_shadow_formula,
    classify_spider,
    count_admissible,
    has_isolated_clan_vertex,
    mark_legs,
    marked_slice,
    spider_legs,
    spider_map,
    spider_suite,
    unmark_legs,
    vacated_signature,
)
from treepoly.graphs import path_graph, spider2
from treepoly.shadow import ForestShadow, imbalances_negative, min_coefficient
from treepoly.symfunc import chromatic_multicolor_2var, schur_expand, y_g_2var

from conftest import random_forest, random_tree
from oracles import (
    clan_graph,
    clan_owners,
    connected_components,
    is_admissible,
    mask_outside,
    split_by_clan_component,
)


def test_restrict_extend_roundtrip():
    w = (1, 2, 0, 1, 0)
    verts = (1, 3, 4)
    back = mask_outside(w, verts)
    assert back == (0, 2, 0, 1, 0)
    assert [back[v] for v in verts] == [w[v] for v in verts] == [2, 1, 0]
    assert mask_outside(w, ()) == (0, 0, 0, 0, 0)


def test_admissible_k2_and_k1():
    k2 = path_graph(2)
    assert set(admissible_maps(k2)) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}
    k1 = path_graph(1)
    assert list(admissible_maps(k1)) == [(0,), (1,), (2,)]
    assert list(admissible_maps(path_graph(0))) == [()]


def test_admissible_stream_properties(rng):
    graphs = [random_tree(rng, rng.randint(1, 9)) for _ in range(10)]
    graphs += [random_forest(rng, rng.randint(1, 9)) for _ in range(10)]
    for t in graphs:
        maps = list(admissible_maps(t))
        assert len(maps) == len(set(maps)) == count_admissible(t)
        assert maps == sorted(maps)  # canonical depth-first order
        brute = [
            w
            for w in itertools.product((0, 1, 2), repeat=t.n)
            if is_admissible(t, w)
        ]
        assert set(maps) == set(brute)


def test_admissible_guard():
    with pytest.raises(EnumerationGuardError):
        list(admissible_maps(path_graph(20), guard=10))


def test_every_omitted_map_has_zero_shadow(rng):
    # the admissible stream is exactly the support of the shadow sum
    t = random_tree(rng, 6)
    admissible = set(admissible_maps(t))
    for w in itertools.product((0, 1, 2), repeat=t.n):
        if w not in admissible:
            assert chromatic_multicolor_2var(t, w).is_zero


def test_weight_sum_matches_product(rng):
    for _ in range(8):
        t = random_tree(rng, rng.randint(1, 9))
        total = None
        for w in admissible_maps(t):
            part = chromatic_multicolor_2var(t, w)
            total = part if total is None else total + part
        assert total == y_g_2var(t)


def test_bare_and_anchored():
    w = (1, 1, 1, 0, 0, 0, 2)
    assert spider_legs(w) == ((1, 0), (1, 0), (0, 2))
    assert spider_map(1, spider_legs(w)) == w
    assert bare_leg_count(w) == 2
    assert anchored_bare(w) == 2
    assert anchored_bare((0,) * 7) is None
    assert anchored_bare((1, 2, 0, 0, 0, 0, 0)) is None
    assert bare_leg_count((0,) * 7) == 0


def test_vacated_signature():
    assert vacated_signature((0, 2, 1, 0, 0)) == ((1,), 2)
    cls = classify_spider((0, 2, 1, 0, 0))
    assert cls.vac_is((1,), 2) and not cls.vac_is((1,), 1)
    assert cls.in_family((1,)) and not cls.in_family(())
    assert vacated_signature((1, 1, 1, 0, 0)) is None
    assert vacated_signature((0, 2, 1, 1, 0)) is None  # leg total above 2
    assert vacated_signature((0, 0, 0, 0, 0)) == ((), 0)


def test_mark_unmark_roundtrip_exhaustive():
    for n in range(1, 5):
        leg_options = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
        for legs in itertools.product(leg_options, repeat=n):
            w = spider_map(1, legs)
            k = anchored_bare(w)
            for size in range(k + 1):
                for marks in itertools.combinations(range(1, k + 1), size):
                    image = mark_legs(w, marks)
                    assert unmark_legs(image) == w
                    assert vacated_signature(image) == (marks, k)


def test_marked_slice_matches_mark_legs():
    # every map with values 0..2 on spider2(1..4), under every marks tuple
    # the pairing injections pass: the same image, or the same refusal text
    for n in range(1, 5):
        for w in itertools.product((0, 1, 2), repeat=2 * n + 1):
            for marks in ((), (1,), (2,), (3,), (4,), (1, 2), (1, 2, 3)):
                try:
                    expected = mark_legs(w, marks)
                except ValueError as exc:
                    expected = str(exc)
                assert marked_slice(w, marks) == expected


def test_mark_rejects_bad_input():
    # the refusal texts reach the verify JSON through PartnerError reasons
    with pytest.raises(ValueError, match=r"^map is not anchored on this spider$"):
        mark_legs((0, 1, 1, 0, 0), (1,))
    with pytest.raises(ValueError, match=r"^mark positions \[3\] out of range for 2 bare legs$"):
        mark_legs((1, 1, 1, 0, 0), (3,))


def test_classify_spider():
    n = 3
    g = spider2(n)
    negative = (1, 1, 1, 1, 0, 0, 0)
    cls = classify_spider(negative)
    assert cls.local == negative and cls.k == 3
    assert cls.total == 4 and cls.heads == 3 and cls.legs == ((1, 0),) * 3
    assert not cls.positive and not cls.settled
    assert cls.vac is None and cls.family_index is None
    marked = mark_legs(negative, (1,))
    cls = classify_spider(marked)
    assert cls.local == marked and cls.k == 2
    assert cls.total == 4 and cls.heads == 2 and cls.legs == ((2, 0), (1, 0), (1, 0))
    assert cls.positive and not cls.settled  # the two bare heads are isolated
    assert cls.vac == ((1,), 3) and cls.family_index == 1
    zero = (0,) * g.n
    cls = classify_spider(zero)
    assert cls.positive and cls.settled and cls.k == 0
    assert cls.vac == ((), 0) and cls.family_index == 0
    anchored = (1, 1, 1, 1, 1, 1, 1)
    cls = classify_spider(anchored)
    assert cls.positive and cls.settled and cls.k == 0
    assert cls.vac is None and cls.family_index == 0


def test_classify_exclusive_families():
    # one map sits in at most one singleton family, the one family_index
    # names, and a negative map has no vacated signature
    for n in range(1, 5):
        ctx = ForestShadow(spider2(n))
        for w in admissible_maps(ctx.graph):
            cls = classify_spider(w)
            assert cls.vac == vacated_signature(w)
            assert cls.k == bare_leg_count(w)
            if not cls.positive:
                assert cls.vac is None and cls.family_index is None
            singles = [j for j in range(1, n + 1) if cls.in_family((j,))]
            assert singles == ([cls.family_index] if cls.family_index else [])
            if cls.vac is not None:
                assert cls.in_family(cls.vac[0]) and cls.vac_is(*cls.vac)


def test_classify_spider_sign_is_the_literal_shadow_sign(rng):
    # on any map, admissible or not: an inadmissible map's clan shadow
    # vanishes, so its class is positive whatever its admissible part would
    # score; the foot of 3 below three weight-1 heads is such a map
    maps = [(1, 1, 1, 1, 3, 0, 0)]
    for _ in range(300):
        n = rng.randint(1, 4)
        maps.append(tuple(rng.randint(0, 3) for _ in range(2 * n + 1)))
    # and exactly: every map with values 0..3 on the spiders of up to two
    # legs, and every admissible map of the three- and four-leg spiders
    for n in range(3):
        maps.extend(itertools.product(range(4), repeat=2 * n + 1))
    for n in (3, 4):
        maps.extend(admissible_maps(spider2(n)))
    assert len(maps) == 301 + 3462
    for local in maps:
        n = (len(local) - 1) // 2
        literal = schur_expand(chromatic_multicolor_2var(spider2(n), local)).coeffs
        assert classify_spider(local).positive == (min_coefficient(literal) >= 0), local


@pytest.fixture
def fresh_sign_caches():
    """Empty the spider-class and sign caches before and after a test, so
    that every class and sign it asks for is computed while it runs."""
    classify_spider.cache_clear()
    imbalances_negative.cache_clear()
    yield
    classify_spider.cache_clear()
    imbalances_negative.cache_clear()


def test_sign_questions_build_no_expansion(monkeypatch, fresh_sign_caches):
    # the spider classes and the no-singleton check read only shadow signs,
    # which the imbalance rule decides without any signature's expansion
    expansions = shadow.expansion_from_signature

    def refuse(sig):
        raise AssertionError(f"expansion of {sig} built for a sign")

    monkeypatch.setattr(shadow, "expansion_from_signature", refuse)
    for n in range(5):
        for local in admissible_maps(spider2(n)):
            classify_spider(local)
    assert check_no_singleton_when_deficient().cases == 463
    monkeypatch.undo()
    # and the sign cache stores nothing in the signature cache
    before = expansions.cache_info().currsize
    for d in range(2, 8):
        for a in range(d * d):
            imbalances_negative((1,) * a + (d,))
    assert expansions.cache_info().currsize == before


def test_isolated_clan_vertices():
    g = spider2(2)
    assert has_isolated_clan_vertex(g, (0, 1, 0, 0, 0))
    assert not has_isolated_clan_vertex(g, (0, 2, 0, 0, 0))
    assert not has_isolated_clan_vertex(g, (1, 1, 0, 0, 0))
    assert not has_isolated_clan_vertex(g, (0, 0, 0, 0, 0))


def test_split_by_clan_component(rng):
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 9))
        ctx = ForestShadow(t)
        for w in admissible_maps(t):
            clan = clan_graph(t, w)
            for comp in connected_components(clan):
                split = split_by_clan_component(t, w, comp)
                assert set(split.core) | set(split.rest) == set(range(t.n))
                assert not set(split.core) & set(split.rest)
                # the shadow factors across the split
                wc = mask_outside(w, split.core)
                wr = mask_outside(w, split.rest)
                assert chromatic_multicolor_2var(t, w) == chromatic_multicolor_2var(
                    t, wc
                ) * chromatic_multicolor_2var(t, wr)


def test_split_factorization_with_agreeing_rest(rng):
    # any map agreeing with the original outside the core factors through the
    # original rest shadow
    for _ in range(6):
        t = random_tree(rng, rng.randint(2, 7))
        for w in admissible_maps(t):
            clan = clan_graph(t, w)
            comps = connected_components(clan)
            if not comps:
                continue
            comp = comps[0]
            split = split_by_clan_component(t, w, comp)
            other = list(w)
            for v in split.core:
                other[v] = rng.randint(0, 2)
            other = tuple(other)
            lhs = chromatic_multicolor_2var(t, other)
            rhs = chromatic_multicolor_2var(t, mask_outside(other, split.core)) * (
                chromatic_multicolor_2var(t, mask_outside(w, split.rest))
            )
            assert lhs == rhs, (w, other, split)


def test_component_with_doubled_vertex_is_a_pair(rng):
    # a nonzero shadow forces every weight-2 vertex into its own pair block
    for _ in range(6):
        t = random_tree(rng, rng.randint(1, 8))
        for w in admissible_maps(t):
            if chromatic_multicolor_2var(t, w).is_zero:
                continue
            clan = clan_graph(t, w)
            owners = clan_owners(t, w)
            for comp in connected_components(clan):
                if any(w[owners[cv]] == 2 for cv in comp):
                    assert len(comp) == 2


def test_spider_checks_all_pass():
    reports = spider_suite(max_legs=4)
    for rep in reports:
        assert rep.ok, (rep.lemma, rep.violations[:3])
    # sha256 of the sorted-key JSON of the reports.  For fixed inputs the
    # reports stay byte-identical, so a new digest here must come with the
    # reason the reports changed.
    dump = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    assert (
        hashlib.sha256(dump.encode()).hexdigest()
        == "364dba717bf11125389b013d860845f0b417dc73559bfd4217407a3058bb6a1b"
    )


def test_check_cases_nonempty():
    assert check_marking_bijection(3).cases == 216
    assert check_spider_shadow_formula(3).cases == 1
    assert check_negative_spider_pairing(4).cases == 13
    assert check_leaf_spider_pairing(2).cases > 0
    assert check_forest_pairing(2).cases == 9
    assert check_forest_multi_marking(3).cases == 84
    # spiders with at most two legs can never go negative
    assert check_no_singleton_when_deficient(max_legs=2, max_components=2).cases == 0
    assert check_no_singleton_when_deficient(max_legs=3, max_components=2).cases > 0


def test_no_singleton_check_counts_maps(monkeypatch):
    # with every shadow made negative, the component walk must count the
    # cases and violations a walk over the forests' maps counts, and report
    # maps as its examples
    monkeypatch.setattr(alphamaps, "imbalances_negative", lambda ds: True)
    rep = check_no_singleton_when_deficient(max_legs=3, max_components=2)
    cases, violations = 0, []
    shadows = [ForestShadow(spider2(legs)) for legs in (1, 2, 3)]
    for count in (1, 2):
        for parts in itertools.combinations_with_replacement(shadows, count):
            for ws in itertools.product(*(list(admissible_maps(s.graph)) for s in parts)):
                comps = sorted(c for s, w in zip(parts, ws) for c in s.signature(w)[0])
                unbalanced = [(p, q) for p, q in comps if p - q >= 2]
                if len(unbalanced) == 1 and unbalanced[0][1] >= 1 and unbalanced[0][0] == unbalanced[0][1] + 2:
                    cases += 1
                    if (1, 0) in comps:
                        violations.append(sum(ws, ()))
    assert rep.cases == cases
    assert rep.violation_count == len(violations) > 0
    assert {v.weights for v in rep.violations} <= set(violations)
