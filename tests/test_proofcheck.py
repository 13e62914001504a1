import functools
import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepoly import alphamaps, proofcheck
from treepoly.alphamaps import (
    EnumerationGuardError,
    admissible_maps,
    classify_spider,
    count_admissible,
)
from treepoly.graphs import family_layout
from treepoly.intpoly import analyze, family_graph, indpoly_tree
from treepoly.proofcheck import (
    FamilyContext,
    PartnerError,
    analyze_map,
    check_path_append_identities,
    is_full_weight_class,
    marks_head_13,
    negative_class_matches,
    negative_members,
    only_gap_at_leg_13,
    partner,
    partner_star,
    POSITIVE_CLASS_PREDICATES,
    star_class_matches,
    verify_base,
    verify_chain,
    verify_star,
)
from treepoly.reports import CheckReport, all_ok
from treepoly.shadow import ForestShadow, min_coefficient
from treepoly.symfunc import chromatic_multicolor_2var, schur_expand

from conftest import clear_slice_patterns
from oracles import (
    connected_components,
    induced_subgraph,
    is_admissible,
    signature_table_counts,
    sym_one,
)


def brute_negatives(ctx):
    out = set()
    for w in admissible_maps(ctx.graph):
        if min_coefficient(ctx.shadow.expansion(w)) < 0:
            out.add(w)
    return out


@pytest.mark.parametrize("family,m,n", [("t3mn", 1, 1), ("t3mn", 2, 1), ("t3mn_star", 1, 1)])
def test_negative_enumeration_matches_bruteforce(family, m, n):
    ctx = FamilyContext(family, m, n)
    engine = {w for w, _, _ in negative_members(ctx)}
    brute = brute_negatives(ctx)
    assert engine == brute
    # the coverage audit's map counts, against the exhaustive sweep
    admissible, negative = proofcheck._count_maps(ctx.slice_patterns)
    assert admissible == count_admissible(ctx.graph)
    assert negative == len(brute)


@pytest.mark.parametrize(
    "family,m,n",
    [("t3mn", 1, 1), ("t3mn", 2, 1), ("t3mn", 2, 2), ("t3mn", 3, 3),
     ("t3mn_star", 1, 1), ("t3mn_star", 1, 2), ("t3mn_star", 2, 2)],
)
def test_imbalance_fold_matches_the_signature_table(family, m, n):
    # the fold keeps one state per imbalance summary, the oracle one per
    # partial signature joined with _join; both count every combination
    slices = FamilyContext(family, m, n).slice_patterns
    assert proofcheck._count_maps(slices) == signature_table_counts(slices)


@pytest.mark.parametrize(
    "family,m,n,negatives",
    [("t3mn_star", 3, 4, 23_760_992), ("t3mn", 5, 5, 1_636_513_548), ("t3mn_star", 5, 5, 8_424_169_172)],
)
def test_negative_counts_past_the_limit(family, m, n, negatives):
    assert FamilyContext(family, m, n).negative_count == negatives > proofcheck.MAX_NEGATIVES


def test_negative_expansions_are_exact():
    ctx = FamilyContext("t3mn", 1, 1)
    for w, exp, _ in negative_members(ctx):
        literal = schur_expand(chromatic_multicolor_2var(ctx.graph, w)).coeffs
        assert dict(exp) == literal


def test_class_examples():
    ctx = FamilyContext("t3mn", 2, 2)
    lay = ctx.layout

    # branch 1 fully bare, everything else empty: class 1
    w = [0] * ctx.graph.n
    w[lay.branch(1)] = 1
    for j in (1, 2, 3):
        w[lay.head(1, j)] = 1
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (1,)

    # root plus fully bare branch 1: class 11
    w[lay.v0] = 1
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (11,)

    # all spine vertices, every leg full or doubled: class 30
    w = [0] * ctx.graph.n
    for v in (lay.v0, lay.branch(1), lay.branch(2), lay.branch(3)):
        w[v] = 1
    pairs = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]
    for idx, (i, j) in enumerate(pairs):
        if idx % 2 == 0:
            w[lay.head(i, j)] = 1
            w[lay.foot(i, j)] = 1
        else:
            w[lay.foot(i, j)] = 2
    a = analyze_map(ctx, tuple(w))
    assert sum(w) == ctx.graph.n
    assert is_full_weight_class(a)
    assert negative_class_matches(a) == (30,)

    # same shape with one leg emptied: class 28
    w[lay.head(1, 1)] = 0
    w[lay.foot(1, 1)] = 0
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (28,)
    assert not only_gap_at_leg_13(a)

    # empty only at leg (1,3) marks the excluded class-28 corner
    w[lay.head(1, 1)] = 1
    w[lay.foot(1, 1)] = 1
    w[lay.head(1, 3)] = 0
    w[lay.foot(1, 3)] = 0
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (28,)
    assert only_gap_at_leg_13(a)

    # all heads empty: class 29
    w = [0] * ctx.graph.n
    for v in (lay.v0, lay.branch(1), lay.branch(2), lay.branch(3)):
        w[v] = 1
    w[lay.foot(2, 1)] = 2
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (29,)


def test_partner_examples():
    ctx = FamilyContext("t3mn", 2, 2)
    lay = ctx.layout
    # class 11 witness: partner raises the first foot and clears the third head
    w = [0] * ctx.graph.n
    w[lay.v0] = 1
    w[lay.branch(1)] = 1
    for j in (1, 2, 3):
        w[lay.head(1, j)] = 1
    a = analyze_map(ctx, tuple(w))
    beta = partner(ctx, a, 11)
    assert beta[lay.foot(1, 1)] == 1 and beta[lay.head(1, 3)] == 0
    b = analyze_map(ctx, beta)
    assert POSITIVE_CLASS_PREDICATES[10](b)
    # the paired sum leaves a single off-diagonal positive term
    pair_sum = dict(ctx.shadow.expansion(tuple(w)))
    for key, c in ctx.shadow.expansion(beta).items():
        pair_sum[key] = pair_sum.get(key, 0) + c
    assert {k: v for k, v in pair_sum.items() if v} == {(4, 1): 1}

    # class 29 witness: the partner doubles branch 1 and clears the root
    w = [0] * ctx.graph.n
    for v in (lay.v0, lay.branch(1), lay.branch(2), lay.branch(3)):
        w[v] = 1
    w[lay.foot(3, 1)] = 2
    a = analyze_map(ctx, tuple(w))
    assert negative_class_matches(a) == (29,)
    beta = partner(ctx, a, 29)
    assert beta[lay.branch(1)] == 2 and beta[lay.v0] == 0
    h = 1
    pair_sum = dict(ctx.shadow.expansion(tuple(w)))
    for key, c in ctx.shadow.expansion(beta).items():
        pair_sum[key] = pair_sum.get(key, 0) + c
    assert {k: v for k, v in pair_sum.items() if v} == {(h + 3, h + 1): 2}

    with pytest.raises(PartnerError):
        partner(ctx, a, 30)


def test_verify_base_small_grid():
    for m, n in [(1, 1), (1, 2)]:
        reports = verify_base(m, n)
        assert all_ok(reports), [
            (r.lemma, r.violations[:2]) for r in reports if not r.ok
        ]
        by_name = {r.lemma: r for r in reports}
        assert by_name["class-partition"].cases > 0
        assert by_name["final-class-vanishing"].cases > 0
        assert by_name["negative-coverage"].cases > 0


def test_slice_patterns_are_built_once_per_slice_shape(monkeypatch):
    clear_slice_patterns()
    calls = []
    real = proofcheck.admissible_maps

    def counting(g, guard):
        calls.append(g.n)
        return real(g, guard)

    monkeypatch.setattr(proofcheck, "admissible_maps", counting)
    verify_base(1, 1)
    # spider2(3) for branch 1, then spider2(1) once for branches 2 and 3,
    # shared by the enumeration, the partner lookups and the audit
    assert calls == [7, 3]
    assert proofcheck._slice_patterns.cache_info().misses == 2
    verify_star(1, 1)
    assert calls == [7, 3, 9]  # only the star's branch 1, with x and y, is new
    assert proofcheck._slice_patterns.cache_info().misses == 3
    verify_star(2, 2, repair_corner=True)
    assert calls == [7, 3, 9, 5]  # only spider2(2) is new
    assert proofcheck._slice_patterns.cache_info().misses == 4
    # each slice map keys its own pattern
    ctx = FamilyContext("t3mn_star", 2, 2)
    for table in ctx.slice_patterns:
        assert all(table[p.values] is p for p in table.values())

    def no_pattern(*args):
        raise AssertionError("pattern built before the guard check")

    clear_slice_patterns()
    monkeypatch.setattr(proofcheck, "PATTERN_GUARD", 10)
    monkeypatch.setattr(proofcheck, "_pattern", no_pattern)
    with pytest.raises(EnumerationGuardError, match="guard of 10 maps"):
        FamilyContext("t3mn", 1, 1).slice_patterns


def test_joined_expansions_are_shared_by_every_context():
    # The join cache is keyed by the root value and the three pattern keys,
    # which is all a joined expansion depends on, so a second context of a
    # cell finds every partner's expansion joined by the first.
    def realized_partners(ctx):
        out = []
        for _, _, a in negative_members(ctx):
            (cls,) = negative_class_matches(a)
            if cls != 30:
                out.append(partner(ctx, a, cls))
        return out

    first = FamilyContext("t3mn", 2, 2)
    partners = realized_partners(first)
    assert len(partners) == 15070
    looked_up = [first.pattern_expansion(beta)[0] for beta in partners]
    misses = proofcheck._joined_expansion.cache_info().misses
    second = FamilyContext("t3mn", 2, 2)
    assert realized_partners(second) == partners
    again = [second.pattern_expansion(beta)[0] for beta in partners]
    assert proofcheck._joined_expansion.cache_info().misses == misses
    assert all(a is b for a, b in zip(again, looked_up))


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
def test_pattern_expansion_matches_the_family_shadow(family):
    # On every admissible map at (1, 1), the expansion joined from the
    # pattern table equals the family ForestShadow's: 121,165 base and
    # 616,769 star maps.
    ctx = FamilyContext(family, 1, 1)
    seen = 0
    for w in admissible_maps(ctx.graph):
        exp, pats = ctx.pattern_expansion(w)
        assert pats is not None and exp == ctx.shadow.expansion(w)
        seen += 1
    assert seen == count_admissible(ctx.graph)


def _zero_shadow_maps():
    """(name, family, map) of maps with zero shadow, one per way a map
    leaves the pattern table, at (1, 1)."""
    base = family_layout("t3mn", 1, 1)
    star = family_layout("t3mn_star", 1, 1)

    def at(lay, **values):
        w = [0] * lay.size
        for name, value in values.items():
            w[{"v0": lay.v0, "v1": lay.branch(1), "v2": lay.branch(2), "v3": lay.branch(3),
               "h11": lay.head(1, 1), "h21": lay.head(2, 1), "f13": lay.foot(1, 3),
               "x": lay.x if lay.star else None}[name]] = value
        return tuple(w)

    return [
        ("root value 3", "t3mn", at(base, v0=3)),
        ("slice value 3", "t3mn", at(base, h21=3)),
        ("slice map not admissible", "t3mn", at(base, v1=2, h11=1)),
        ("root 2, centre 1", "t3mn", at(base, v0=2, v2=1)),
        ("root 1, centre 2", "t3mn", at(base, v0=1, v3=2)),
        ("star tail not admissible", "t3mn_star", at(star, f13=1, x=2)),
    ]


ZERO_SHADOW_MAPS = _zero_shadow_maps()


@pytest.mark.parametrize("name,family,w", ZERO_SHADOW_MAPS, ids=[c[0] for c in ZERO_SHADOW_MAPS])
def test_pattern_expansion_of_a_zero_shadow_map(name, family, w):
    ctx = FamilyContext(family, 1, 1)
    assert ctx.shadow.expansion(w) == {}
    assert ctx.pattern_expansion(w) == ({}, None)
    # the same map with the offending values at 1 or 0 is in the table
    fixed = tuple(min(v, 1) for v in w)
    exp, pats = ctx.pattern_expansion(fixed)
    assert pats is not None and exp == ctx.shadow.expansion(fixed)


def test_zero_shadow_partner_breaks_the_pair_sum(monkeypatch):
    # A class-1 injection that puts 3 on the root: its partners leave the
    # pattern table, so their shadow is zero, and every class-1 pair sum
    # is the negative map's own expansion.
    ctx = FamilyContext("t3mn", 1, 1)
    class1 = sum(1 for _, _, a in negative_members(ctx) if negative_class_matches(a) == (1,))
    assert class1 > 0
    real_partner = proofcheck.partner

    def faulty(c, a, cls):
        beta = real_partner(c, a, cls)
        return (3, *beta[1:]) if cls == 1 else beta

    zero = []
    real_lookup = FamilyContext.pattern_expansion

    def lookup(c, w):
        out = real_lookup(c, w)
        if out[1] is None:
            zero.append(w)
        return out

    monkeypatch.setattr(proofcheck, "partner", faulty)
    monkeypatch.setattr(FamilyContext, "pattern_expansion", lookup)
    reports = {r.lemma: r for r in verify_base(1, 1)}
    rep = reports["pairing-positivity"]
    assert len(zero) == rep.violation_count == class1
    assert all(v.reason == "class 1: pair sum has a negative coefficient" for v in rep.violations)
    # the target analysis falls back to analyze_map, and a root of 3 is in
    # no target class
    image = reports["image-in-target"]
    assert image.violation_count == class1
    assert all(v.reason == "class 1: partner misses its target class" for v in image.violations)


@pytest.mark.parametrize(
    "family,verify,partners,zero",
    [("t3mn", verify_base, 15070, 0), ("t3mn_star", verify_star, 69270, 288)],
    ids=["base", "star-published"],
)
def test_partner_lookups_match_the_family_shadow(monkeypatch, family, verify, partners, zero):
    # Every realized partner at (2, 2), with the published injections, so
    # the star's 288 inadmissible corner partners are among them: the looked
    # up expansion is the family ForestShadow's, and the analysis joined
    # from the looked-up records is analyze_map's.
    seen = []
    real = FamilyContext.pattern_expansion

    def recording(ctx, w):
        out = real(ctx, w)
        seen.append((ctx, w, out))
        return out

    monkeypatch.setattr(FamilyContext, "pattern_expansion", recording)
    verify(2, 2)
    assert len(seen) == partners
    assert sum(1 for _, _, (_, pats) in seen if pats is None) == zero
    for ctx, beta, (exp, pats) in seen:
        assert ctx.family == family
        assert exp == ctx.shadow.expansion(beta)
        if pats is not None:
            joined = proofcheck._join_analysis(beta, *(p.record for p in pats))
            assert joined == analyze_map(ctx, beta)


def test_pair_sums_are_decided_once_per_signature_pair(monkeypatch):
    # One add_expansions call per distinct (negative signature, partner
    # signature) pair, counted here with the family ForestShadow: 275 at
    # base (2, 2) for 15,070 partners.
    calls = []
    real = proofcheck.add_expansions

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(proofcheck, "add_expansions", counting)
    assert all_ok(verify_base(2, 2))
    ctx = FamilyContext("t3mn", 2, 2)
    pairs = set()
    for w, _, a in negative_members(ctx):
        (cls,) = negative_class_matches(a)
        if cls != 30:
            pairs.add((ctx.shadow.signature(w), ctx.shadow.signature(partner(ctx, a, cls))))
    assert len(calls) == len(pairs) == 275


@pytest.mark.parametrize("family", ["t3mn", "t3mn_star"])
def test_slice_patterns_match_the_family_graph_slices(family):
    """The table against the derivation it replaced: without its root the
    family graph falls into the branch slices, ordered by smallest vertex,
    and each slice's patterns come from its own induced subgraph, with the
    record taken on the slice's core vertices."""
    for m in range(4):
        for n in range(4):
            ctx = FamilyContext(family, m, n)
            g = ctx.graph
            below = induced_subgraph(g, range(1, g.n))
            slices = [tuple(v + 1 for v in comp) for comp in connected_components(below)]
            assert len(slices) == 3
            for verts, core, table in zip(slices, ctx.slice_vertices, ctx.slice_patterns):
                sub = induced_subgraph(g, verts)
                shadow = ForestShadow(sub)
                derived = []
                for values in admissible_maps(sub):
                    local = dict(zip(verts, values))
                    record = classify_spider(tuple(local[v] for v in core))
                    derived.append((values, proofcheck._pattern(shadow, values, 1).key, record))
                assert [(p.values, p.key, p.record) for p in table.values()] == derived


def test_signatures_are_counted_once_per_context(monkeypatch):
    calls = []
    real = proofcheck._count_maps

    def counting(slices):
        calls.append(len(slices))
        return real(slices)

    monkeypatch.setattr(proofcheck, "_count_maps", counting)
    verify_base(1, 1)
    assert calls == [3]  # shared by the negative-map guard and the audit


class Reached(Exception):
    pass


@pytest.mark.parametrize("verify,family,m,n", [(verify_base, "t3mn", 1, 1), (verify_star, "t3mn_star", 1, 2)])
def test_negative_map_guard_binds_past_its_limit(monkeypatch, verify, family, m, n):
    def reached(ctx):
        raise Reached

    monkeypatch.setattr(proofcheck, "negative_members", reached)
    count = FamilyContext(family, m, n).negative_count
    monkeypatch.setattr(proofcheck, "MAX_NEGATIVES", count)
    with pytest.raises(Reached):
        verify(m, n)
    monkeypatch.setattr(proofcheck, "MAX_NEGATIVES", count - 1)
    with pytest.raises(EnumerationGuardError, match=f"has {count:,} negative maps"):
        verify(m, n)


def test_negative_map_limit_admits_star_3_3():
    assert FamilyContext("t3mn_star", 3, 3).negative_count == 3_178_818 <= proofcheck.MAX_NEGATIVES
    assert FamilyContext("t3mn", 3, 4).negative_count == 4_692_665 > proofcheck.MAX_NEGATIVES


@pytest.mark.parametrize("fault", ["drop", "not-negative", "duplicate"])
def test_coverage_audit_catches_a_faulty_enumeration(monkeypatch, fault):
    real = proofcheck.negative_members

    def faulty(ctx):
        members = list(real(ctx))
        if fault == "drop":
            members.pop()
        elif fault == "not-negative":
            zero = (0,) * ctx.graph.n
            members.insert(0, (zero, {}, analyze_map(ctx, zero)))
        else:
            members.append(members[0])
        return iter(members)

    monkeypatch.setattr(proofcheck, "negative_members", faulty)
    rep = {r.lemma: r for r in verify_base(1, 1)}["negative-coverage"]
    assert rep.cases == count_admissible(FamilyContext("t3mn", 1, 1).graph)
    reasons = [v.reason for v in rep.violations]
    expected = {
        "drop": "enumerated 595 negative maps, counted 596",
        "not-negative": "enumerated map is not negative",
        "duplicate": "map enumerated twice",
    }[fault]
    assert expected in reasons


def test_coverage_audit_names_the_pattern_table_count(monkeypatch):
    real = proofcheck.count_admissible
    monkeypatch.setattr(proofcheck, "count_admissible", lambda g: real(g) + 1)
    rep = {r.lemma: r for r in verify_base(1, 1)}["negative-coverage"]
    reasons = [v.reason for v in rep.violations]
    assert reasons == ["the pattern table counts 121165 admissible maps, count_admissible 121166"]


@pytest.fixture
def fresh_joins():
    """Empty the process-wide joined-expansion cache before and after, so
    a patched _join neither reads nor leaves joined expansions."""
    proofcheck._joined_expansion.cache_clear()
    yield
    proofcheck._joined_expansion.cache_clear()


def test_coverage_audit_catches_a_join_that_loses_negatives(monkeypatch, fresh_joins):
    # a join that balances every imbalance-2 slice-center component standing
    # on its own loses negative maps from the enumeration; the count folds
    # the pattern keys without _join, so it keeps them
    real = proofcheck._join

    def mutant(v0val, acc, key):
        tau, comps, twos, cc0, cc1 = key
        if tau == 1 and v0val != 1 and abs(cc0 - cc1) == 2:
            key = (tau, comps, twos, min(cc0, cc1), min(cc0, cc1))
        return real(v0val, acc, key)

    monkeypatch.setattr(proofcheck, "_join", mutant)
    rep = {r.lemma: r for r in verify_base(2, 2)}["negative-coverage"]
    assert "enumerated 14521 negative maps, counted 15197" in [v.reason for v in rep.violations]


@pytest.mark.parametrize("verify,m,n", [(verify_base, 2, 2), (verify_star, 1, 2)])
def test_pairing_stores_negative_maps_packed(monkeypatch, verify, m, n):
    # the battery keeps each negative map as bytes(map), and the coverage
    # audit receives that list itself
    real = proofcheck._coverage_report
    received = []

    def spy(ctx, negatives):
        received.append((ctx, negatives))
        return real(ctx, negatives)

    monkeypatch.setattr(proofcheck, "_coverage_report", spy)
    verify(m, n)
    ((ctx, negatives),) = received
    assert all(type(w) is bytes and len(w) == ctx.layout.size for w in negatives)
    assert len(negatives) == ctx.negative_count
    # a packed map the audit records serializes as a list of ints
    (v,) = real(ctx, [*negatives, negatives[0]]).violations
    assert v.reason == "map enumerated twice"
    assert v.to_json_dict()["alpha"] == list(negatives[0])


def test_a_repeated_map_meets_its_own_stored_partner(monkeypatch):
    # every map enumerated twice: the second pass finds each partner stored
    # with the same class and map, so only the coverage audit records the
    # repeats, not injectivity or disjointness
    real = proofcheck.negative_members
    monkeypatch.setattr(proofcheck, "negative_members", lambda ctx: [*real(ctx), *real(ctx)])
    by_name = {r.lemma: r for r in verify_base(1, 1)}
    assert by_name["class-partition"].cases == 2 * 596
    assert by_name["negative-coverage"].violation_count == 596
    assert by_name["pair-injectivity"].cases > 0
    for lemma in ("pair-injectivity", "target-disjointness"):
        assert by_name[lemma].violation_count == 0


def test_recorded_violations_serialize_maps_as_lists_of_ints():
    # the published class-19 corner at star (1,1): six negative maps whose
    # pair sum has a negative coefficient
    rep = {r.lemma: r for r in verify_star(1, 1)}["star-pairing-positivity"]
    assert rep.violation_count == len(rep.violations) == 6
    size = family_layout("t3mn_star", 1, 1).size
    for v in rep.violations:
        alpha = v.to_json_dict()["alpha"]
        assert type(alpha) is list and len(alpha) == size
        assert all(type(x) is int for x in alpha)


# Both (3,3) certificates, deselected by default: `python -m pytest -m slow`.
@pytest.mark.slow
@pytest.mark.parametrize(
    "verify,kwargs,prefix,negatives",
    [(verify_base, {}, "", 644_015), (verify_star, dict(repair_corner=True), "star-", 3_178_818)],
    ids=["base", "star-repaired"],
)
def test_3_3_certificate_holds(verify, kwargs, prefix, negatives):
    reports = verify(3, 3, **kwargs)
    assert [r.lemma for r in reports if r.violation_count] == []
    assert {r.lemma: r for r in reports}[prefix + "class-partition"].cases == negatives


def test_star_partition_covers_xy_patterns():
    ctx = FamilyContext("t3mn_star", 1, 1)
    for w, _, core in negative_members(ctx):
        assert len(star_class_matches(ctx, w, core)) == 1


def test_verify_star_faithful_records_corner():
    reports = verify_star(1, 1)
    by_name = {r.lemma: r for r in reports}
    offending = by_name["star-pairing-positivity"]
    assert not offending.ok
    # every violation is the published class-19 corner
    core_ctx = FamilyContext("t3mn", 1, 1)
    lay = family_layout("t3mn_star", 1, 1)
    for v in offending.violations:
        w = v.weights
        gamma = list(w[: core_ctx.graph.n])
        gamma[lay.foot(1, 3)] = 0
        a = analyze_map(core_ctx, tuple(gamma))
        assert negative_class_matches(a) == (19,)
        assert marks_head_13(a)
        assert w[lay.head(1, 3)] == 1 and w[lay.foot(1, 3)] == 1
    assert not by_name["partner-monotone-head13"].ok
    clean = [
        r
        for r in reports
        if r.lemma not in ("star-pairing-positivity", "partner-monotone-head13")
    ]
    assert all_ok(clean)


def test_verify_star_repaired_is_clean():
    reports = verify_star(1, 1, repair_corner=True)
    assert all_ok(reports), [(r.lemma, r.violations[:2]) for r in reports if not r.ok]


def test_corner_partner_is_admissible_when_repaired():
    ctx = FamilyContext("t3mn_star", 1, 1)
    core_ctx = FamilyContext("t3mn", 1, 1)
    lay = ctx.layout
    alpha = (1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 2, 0, 1, 0, 1, 0)
    assert min_coefficient(ctx.shadow.expansion(alpha)) < 0
    faithful = partner_star(ctx, core_ctx, alpha, 3, repair_corner=False)
    assert not is_admissible(ctx.graph, faithful)
    repaired = partner_star(ctx, core_ctx, alpha, 3, repair_corner=True)
    assert is_admissible(ctx.graph, repaired)
    assert repaired[lay.head(1, 3)] == 1


def _cell_maps(family, m, n):
    """Every negative map of a cell with its class, and every partner."""
    ctx = FamilyContext(family, m, n)
    core_ctx = FamilyContext("t3mn", m, n) if family == "t3mn_star" else ctx
    negatives, partners = [], []
    for w, _, _ in negative_members(ctx):
        a = analyze_map(core_ctx, w[: core_ctx.graph.n])
        if family == "t3mn":
            matches = negative_class_matches(a)
        else:
            matches = star_class_matches(ctx, w, a)
        negatives.append((w, matches))
        if len(matches) != 1:
            continue
        try:
            if family == "t3mn":
                partners.append(partner(ctx, a, matches[0]))
            else:
                partners.append(partner_star(ctx, core_ctx, w, matches[0]))
        except PartnerError:
            pass
    return ctx, core_ctx, negatives, partners


@pytest.mark.parametrize("family,m,n", [("t3mn", 2, 1), ("t3mn_star", 1, 1)])
def test_cached_slice_record_matches_uncached(family, m, n):
    _, core_ctx, negatives, partners = _cell_maps(family, m, n)
    lay = core_ctx.layout
    maps = [w for w, _ in negatives] + partners
    assert len(partners) > 100
    for w in partners:  # the battery analyzes partners to audit their targets
        analyze_map(core_ctx, w[: core_ctx.graph.n])
    misses = classify_spider.cache_info().misses
    for w in maps:
        core_w = w[: core_ctx.graph.n]
        for i in (1, 2, 3):
            verts = core_ctx.slice_vertices[i - 1]
            local = tuple(core_w[v] for v in verts)
            legs = range(1, lay.leg_count(i) + 1)
            record = classify_spider(local)
            assert record == classify_spider.__wrapped__(local)
            assert record.total == sum(core_w[v] for v in verts)
            assert record.heads == sum(1 for j in legs if core_w[lay.head(i, j)] == 1)
            assert record.legs == tuple(
                (core_w[lay.head(i, j)], core_w[lay.foot(i, j)]) for j in legs
            )
    assert classify_spider.cache_info().misses == misses  # all served from the cache


@pytest.mark.parametrize(
    "family,m,n,negatives",
    [("t3mn", 1, 1, 596), ("t3mn", 2, 1, 2897), ("t3mn", 2, 2, 15197), ("t3mn_star", 1, 2, 12811)],
)
def test_joined_analysis_matches_analyze_map(family, m, n, negatives):
    # The analysis negative_members joins from slice-pattern records equals
    # the one a separate context computes from the (core) map itself, and
    # its sums match the ones taken over the whole core map.
    ctx = FamilyContext(family, m, n)
    fresh = FamilyContext("t3mn", m, n)
    core_n = fresh.graph.n
    seen = 0
    for w, _, a in negative_members(ctx):
        assert a == analyze_map(fresh, w[:core_n])
        assert a.total == sum(w[:core_n])
        assert a.weighted_heads == sum(
            1
            for i in (1, 2, 3)
            for j in range(1, ctx.layout.leg_count(i) + 1)
            if w[ctx.layout.head(i, j)] == 1
        )
        seen += 1
    assert seen == negatives


@pytest.mark.parametrize("family,m,n", [("t3mn", 2, 1), ("t3mn", 2, 2), ("t3mn_star", 1, 2)])
def test_leg_facts_match_a_layout_walk(family, m, n):
    # The leg facts the class predicates and the class-28 injection read from
    # the slice records equal a walk over the core map's heads and feet, on
    # every negative map and every realized partner.
    _, core_ctx, negatives, partners = _cell_maps(family, m, n)
    assert len(partners) > 1000
    lay = core_ctx.layout
    core_n = core_ctx.graph.n
    legs = [(i, j) for i in (1, 2, 3) for j in range(1, lay.leg_count(i) + 1)]
    for w in [w for w, _ in negatives] + partners:
        a = analyze_map(core_ctx, w[:core_n])
        values = {ij: (w[lay.head(*ij)], w[lay.foot(*ij)]) for ij in legs}
        for leg in ((0, 0), (1, 1), (0, 1)):
            assert proofcheck._legs_with(a, leg) == [ij for ij in legs if values[ij] == leg]
        assert proofcheck._heads_all_zero(a) == all(h == 0 for h, _ in values.values())
        assert a.weighted_heads == sum(1 for h, _ in values.values() if h == 1)
        assert a.full_weight == core_n


# sha256 of the sequence negative_members yields: each map, its sorted
# expansion and its analysis fields, in yield order.  The first two were
# recorded before the enumerator visited only the members that close a
# prefix negative, the next two (which cover the v0 = 1 spine groups and the
# star's x, y tail) before it listed the closing pairs once per first-slice
# signature, and the last two (a one-vertex slice, read through
# _tuple_getter's single-index path) before the partial signatures came
# sorted out of _join and the slice placement moved into FamilyContext; the
# sequence, order included, must not change with how it is produced.
@pytest.mark.parametrize(
    "family,m,n,digest",
    [
        ("t3mn", 2, 2, "e0486fb9ac27d78a52414ca5c7f41e3ac178636e64714101961c04a797ffb670"),
        ("t3mn_star", 1, 2, "fd1e34013d2ac5b9b4b6637ae7bc074f31b27c4c1c59e15da4cb40f65d2d5db2"),
        ("t3mn", 2, 1, "ce4c227eb3be671aa94b35fb69f8fe60f34ca671639a3aa4b0a799319ba184d9"),
        ("t3mn_star", 1, 1, "20b7b934da04110aa3866a996d45c294bf48de29a7cc15fd00fd22cfa5dd449c"),
        ("t3mn", 0, 2, "9db9448a401e3df4ec73de4904f96b81e7a20b9dec2403acfb8735cb2beb9587"),
        ("t3mn_star", 2, 0, "f199ff1e46cf0fe3d862a68e222204ef319e9e330cfc6428e682cfa3efb60585"),
    ],
)
def test_negative_members_order_is_pinned(family, m, n, digest):
    h = hashlib.sha256()
    for w, exp, a in negative_members(FamilyContext(family, m, n)):
        info = tuple((s.local, s.k, s.positive, s.settled, s.vac) for s in a.info)
        row = (
            w, sorted(exp.items()), a.w, a.a0, a.branch, info,
            a.total, a.full_weight, a.weighted_heads,
        )
        h.update(repr(row).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("family,m,n", [("t3mn", 2, 2), ("t3mn_star", 1, 2)])
def test_class_dispatch_matches_full_scan(family, m, n):
    # negative_class_matches evaluates only the predicates whose guard can
    # hold; the scan over all 30 is the reference, also with the root value
    # replaced, which moves maps between the guard groups
    def full_scan(a):
        return tuple(
            i + 1 for i, pred in enumerate(proofcheck.NEGATIVE_CLASS_PREDICATES) if pred(a)
        )

    seen = set()
    for _, _, a in negative_members(FamilyContext(family, m, n)):
        for b in (a, a._replace(a0=0), a._replace(a0=1), a._replace(a0=2)):
            matches = negative_class_matches(b)
            assert matches == full_scan(b)
            seen.update(matches)
    assert {1, 10, 16, 30} <= seen  # both guard groups, several branch patterns


@functools.lru_cache(maxsize=None)
def _paired_maps(family, m, n):
    """A cell's contexts and its negative maps outside the final class, each
    with its class."""
    ctx = FamilyContext(family, m, n)
    core_ctx = FamilyContext("t3mn", m, n) if family == "t3mn_star" else ctx
    final = 30 if family == "t3mn" else 4
    maps = []
    for w, _, a in negative_members(ctx):
        if family == "t3mn":
            (cls,) = negative_class_matches(a)
        else:
            (cls,) = star_class_matches(ctx, w, a)
        if cls != final:
            maps.append((w, cls))
    return ctx, core_ctx, maps


@functools.lru_cache(maxsize=None)
def _fresh_contexts(family, m, n):
    """A second context pair for a cell, never used through _paired_maps."""
    return FamilyContext(family, m, n), FamilyContext("t3mn", m, n)


def _pair(family, m, n, w, cls, repair_corner=False, fresh=False):
    """The partner of w, from the cell's shared contexts or from the cell's
    second pair; repair_corner applies to the extended family only."""
    ctx, core_ctx, _ = _paired_maps(family, m, n)
    if fresh:
        ctx, core_ctx = _fresh_contexts(family, m, n)
    if family == "t3mn":
        return partner(ctx, analyze_map(ctx, w), cls)
    return partner_star(ctx, core_ctx, w, cls, repair_corner)


PROPERTY_CELLS = [("t3mn", 1, 2), ("t3mn", 2, 1), ("t3mn_star", 1, 1)]


@pytest.mark.parametrize("cell", PROPERTY_CELLS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_partner_is_deterministic(cell, data):
    w, cls = data.draw(st.sampled_from(_paired_maps(*cell)[2]))
    for repair in (False, True):
        first = _pair(*cell, w, cls, repair)
        assert _pair(*cell, w, cls, repair) == first
        assert _pair(*cell, w, cls, repair, fresh=True) == first


@pytest.mark.parametrize("cell", PROPERTY_CELLS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_partner_is_admissible(cell, data):
    ctx, _, maps = _paired_maps(*cell)
    w, cls = data.draw(st.sampled_from(maps))
    assert is_admissible(ctx.graph, _pair(*cell, w, cls, repair_corner=True))


def test_repair_changes_only_the_six_inadmissible_corner_partners():
    # Exhaustive at star (1, 1): the published partners that are not
    # admissible, the partners repair_corner changes, and the class-19
    # corner maps are the same six maps.  The corner is star class 3 whose
    # core map gamma (the core restriction with foot (1, 3) vacated, as
    # partner_star builds it) is class 19 with marks_head_13.
    cell = ("t3mn_star", 1, 1)
    ctx, core_ctx, maps = _paired_maps(*cell)
    inadmissible, changed, corner = [], [], []
    for w, cls in maps:
        published = _pair(*cell, w, cls)
        if not is_admissible(ctx.graph, published):
            inadmissible.append(w)
        if _pair(*cell, w, cls, repair_corner=True) != published:
            changed.append(w)
        if cls == 3:
            gamma = list(w[: core_ctx.graph.n])
            gamma[ctx.layout.foot(1, 3)] = 0
            g = analyze_map(core_ctx, tuple(gamma))
            if negative_class_matches(g) == (19,) and marks_head_13(g):
                corner.append(w)
    assert len(inadmissible) == 6
    assert inadmissible == changed == corner


def _direct_partner_star(ctx, core_ctx, w, cls, repair_corner):
    """partner_star computed from the core map itself, without the core-step
    table: shadow sign, class analysis, corner refusal, injection."""
    lay = ctx.layout
    gamma = list(w[: core_ctx.graph.n])
    if cls == 3:
        gamma[lay.foot(1, 3)] = 0
    elif cls not in (1, 2):
        return f"star class {cls} has no pairing injection"
    gamma = tuple(gamma)
    if min_coefficient(core_ctx.shadow.expansion(gamma)) >= 0:
        return "core restriction is not negative"
    a = analyze_map(core_ctx, gamma)
    matches = negative_class_matches(a)
    if len(matches) != 1:
        return f"core restriction matches classes {matches}"
    (core_cls,) = matches
    if core_cls == 30:
        return "core restriction falls in the final class"
    if cls == 3 and core_cls == 28 and only_gap_at_leg_13(a):
        return "core restriction falls in the excluded corner case"
    try:
        if repair_corner and cls == 3 and core_cls == 19 and marks_head_13(a):
            mu = partner(core_ctx, a, core_cls, low_mark=True)
        else:
            mu = partner(core_ctx, a, core_cls)
    except PartnerError as exc:
        return str(exc)
    out = [*mu, *w[core_ctx.graph.n :]]
    if cls == 3:
        out[lay.foot(1, 3)] = w[lay.foot(1, 3)]
    return tuple(out)


def test_partner_star_memo_is_transparent():
    # partner_star reads its core step from the core context's table; every
    # outcome, partner or refusal, equals the one computed from the core map
    # on a separate context
    ctx, core_ctx, negatives, _ = _cell_maps("t3mn_star", 1, 1)
    reference = FamilyContext("t3mn", 1, 1)

    def outcome(w, cls, repair):
        try:
            return partner_star(ctx, core_ctx, w, cls, repair_corner=repair)
        except PartnerError as exc:
            return str(exc)

    seen = set()
    for repair in (False, True):
        for w, matches in negatives:
            for cls in matches:
                got = outcome(w, cls, repair)
                assert got == _direct_partner_star(ctx, reference, w, cls, repair)
                seen.add(type(got))
    assert seen == {tuple, str}  # both partners and refusals came from the table


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_core_step_table_matches_fresh_analysis(m, n):
    # (1, 2) is the core of star (1, 2).  Every base negative has one entry,
    # in enumeration order, equal to what the predicates and injections give
    # on a separate context's analyze_map.
    table = FamilyContext("t3mn", m, n).core_steps
    fresh = FamilyContext("t3mn", m, n)
    assert list(table) == [bytes(w) for w, _, _ in negative_members(fresh)]

    def attempt(*args, **kwargs):
        try:
            return bytes(partner(*args, **kwargs))
        except PartnerError as exc:
            return str(exc)

    kinds = set()
    for key, step in table.items():
        a = analyze_map(fresh, tuple(key))
        matches = negative_class_matches(a)
        if len(matches) != 1:
            assert step == f"core restriction matches classes {matches}"
            continue
        (cls,) = matches
        if cls == 30:
            assert step == "core restriction falls in the final class"
            kinds.add("final")
            continue
        published = attempt(fresh, a, cls)
        corner19 = cls == 19 and marks_head_13(a)
        repaired = attempt(fresh, a, cls, low_mark=True) if corner19 else published
        corner28 = cls == 28 and only_gap_at_leg_13(a)
        assert step == (cls, corner28, published, repaired)
        if not corner19:
            assert step.repaired is step.published
        kinds.update(k for k, on in (("corner19", corner19), ("corner28", corner28)) if on)
        kinds.add(type(published))
    assert {"final", "corner19", bytes} <= kinds


def test_partner_star_refuses_a_positive_core():
    ctx, core_ctx = FamilyContext("t3mn_star", 1, 1), FamilyContext("t3mn", 1, 1)
    zero = (0,) * ctx.layout.size
    for cls in (1, 2, 3):
        with pytest.raises(PartnerError, match="^core restriction is not negative$"):
            partner_star(ctx, core_ctx, zero, cls)
    # the refusal reads the core map's shadow from the pattern table
    assert "graph" not in vars(core_ctx) and "shadow" not in vars(core_ctx)


def test_partner_star_refuses_a_negative_core_the_table_misses(monkeypatch):
    # The star battery does not trust the core enumeration it does not audit:
    # a negative core map missing from the table gets its own refusal.
    real = proofcheck.negative_members
    dropped = []

    def drop_first(c):
        members = real(c)
        if c.family == "t3mn":
            dropped.append(next(members)[0])
        return members

    monkeypatch.setattr(proofcheck, "negative_members", drop_first)
    ctx, core_ctx = FamilyContext("t3mn_star", 1, 1), FamilyContext("t3mn", 1, 1)
    assert core_ctx.core_steps and len(dropped) == 1
    (gamma,) = dropped
    assert bytes(gamma) not in core_ctx.core_steps
    w = gamma + (0,) * (ctx.layout.size - core_ctx.layout.size)  # x at 0: star class 1
    with pytest.raises(PartnerError, match="^core restriction is negative but not enumerated$"):
        partner_star(ctx, core_ctx, w, 1)
    assert "graph" not in vars(core_ctx) and "shadow" not in vars(core_ctx)


def test_core_steps_built_before_star_pairing(monkeypatch):
    # verify_star builds the core's table before its pairing loop, so no
    # partner_star call pays for the core enumeration
    seen = []
    real = proofcheck.partner_star

    def checking(ctx, core_ctx, *args):
        seen.append("core_steps" in vars(core_ctx))
        return real(ctx, core_ctx, *args)

    monkeypatch.setattr(proofcheck, "partner_star", checking)
    verify_star(1, 1)
    assert seen and all(seen)


def test_slice_record_is_computed_once(monkeypatch):
    # classify_spider is cached by the slice map alone, so across both
    # batteries, their star and core contexts and their slices, no slice map
    # is classified twice; the body's vacated_signature call counts the
    # classifications the cache did not serve.  The pattern table is emptied
    # too: its patterns carry their records, so a table built by an earlier
    # test would leave nothing to classify.
    computed = []
    real = alphamaps.vacated_signature

    def counting(weights):
        computed.append(tuple(weights))
        return real(weights)

    monkeypatch.setattr(alphamaps, "vacated_signature", counting)
    classify_spider.cache_clear()
    clear_slice_patterns()
    verify_star(1, 1)
    verify_base(1, 1)
    assert computed and len(computed) == len(set(computed))


def test_slice_marking_is_computed_once(monkeypatch):
    # the injections mark slices through marked_slice, cached by the slice
    # map and the marks, so across two batteries mark_legs runs once per
    # distinct pair and the table serves every repeat
    calls = []
    real = alphamaps.mark_legs

    def counting(weights, marks):
        calls.append((tuple(weights), tuple(marks)))
        return real(weights, marks)

    monkeypatch.setattr(alphamaps, "mark_legs", counting)
    alphamaps.marked_slice.cache_clear()
    verify_base(1, 1)
    verify_base(1, 1)
    assert calls and len(calls) == len(set(calls))
    assert alphamaps.marked_slice.cache_info().hits > len(calls)


# cases of each path-append identity; the weight-2 identity is checked only
# where the appended shadow is nonzero
PATH_APPEND_SPLIT = {"weight-0": 3951, "weight-2": 210, "full-path": 439, "detached-path": 439}


def _path_append_shape(g, w):
    """The identity that reads chromatic_multicolor_2var(g, w), or None for the
    base and single-vertex shadows the identities multiply."""
    if g.labels[-2:] != ("c*", "d*"):
        return None
    c, d = g.n - 2, g.n - 1
    v = next(u for u in g.adj[c] if u != d)
    if w[c] == 0:
        return "weight-0"
    if w[c] == 2:
        return "weight-2"
    if w[d] == 1 and w[v] == 1:
        return "full-path"
    if w[d] == 1 and w[v] == 0:
        return "detached-path"
    return None


def test_path_append_identities(monkeypatch):
    calls = []
    real = proofcheck.chromatic_multicolor_2var

    def counting(g, w):
        shape = _path_append_shape(g, w)
        calls.append(shape or g.labels)
        return real(g, w)

    monkeypatch.setattr(proofcheck, "chromatic_multicolor_2var", counting)
    rep = check_path_append_identities()
    assert rep.ok and rep.cases == sum(PATH_APPEND_SPLIT.values()) == 5039
    # each shadow is computed once, and only where an identity reads it: 282
    # base maps, the pair, 3 d-vertex shadows and 8,780 left-hand sides (every
    # weight-2 map is computed, the identity reads the nonzero ones)
    counts = Counter(calls)
    assert len(calls) == 9066
    assert counts.pop(("c",)) == 1 and counts.pop(("d",)) == 3
    lhs = {shape: counts.pop(shape) for shape in PATH_APPEND_SPLIT}
    assert lhs == {**PATH_APPEND_SPLIT, "weight-2": 3951}
    assert sum(lhs.values()) == 8780
    # the four bases' 3 + 9 + 27 + 243 = 282 maps
    assert sorted(counts.values()) == [3, 9, 27, 243]


@pytest.mark.parametrize("shape", sorted(PATH_APPEND_SPLIT))
def test_path_append_identities_are_not_vacuous(monkeypatch, shape):
    real = proofcheck.chromatic_multicolor_2var

    def wrong_on_shape(g, w):
        value = real(g, w)
        if _path_append_shape(g, w) != shape:
            return value
        # the weight-2 identity only reads nonzero shadows, so keep zero at zero
        return 2 * value if shape == "weight-2" else value + sym_one()

    monkeypatch.setattr(proofcheck, "chromatic_multicolor_2var", wrong_on_shape)
    rep = check_path_append_identities()
    assert rep.cases == 5039
    assert rep.violation_count == PATH_APPEND_SPLIT[shape]
    assert all(v.reason.startswith(f"{shape} factorization fails") for v in rep.violations)


def test_verify_chain():
    for family in ("t3mn", "t3mn_star"):
        for m, n in [(1, 1), (2, 3), (4, 4)]:
            summary = verify_chain(m, n, family)
            assert summary.consistent
            direct = analyze(indpoly_tree(family_graph(family, m, n)))
            assert summary.direct_unimodal == direct.unimodal
            assert summary.direct_log_concave == direct.log_concave
    assert not verify_chain(4, 4, "t3mn").direct_log_concave
    assert verify_chain(1, 1, "t3mn").direct_log_concave


def test_verify_chain_prefix_is_the_diagonal_report(monkeypatch):
    # the chain's prefix verdict is the certificate's diagonal report, not
    # a second expansion over a range of its own
    def failing(family, m, n):
        rep = CheckReport("y-diagonal-nonnegative", m, n)
        rep.record(None, "diagonal coefficient at 1 is negative")
        return rep

    monkeypatch.setattr(proofcheck, "_diagonal_report", failing)
    for family in ("t3mn", "t3mn_star"):
        summary = verify_chain(2, 3, family)
        assert not summary.prefix_log_concave
        assert summary.tail_ok and summary.direct_unimodal


def test_reports_serialize_deterministically():
    a = verify_base(1, 1)
    b = verify_base(1, 1)
    dump_a = json.dumps([r.to_json_dict() for r in a], sort_keys=True)
    dump_b = json.dumps([r.to_json_dict() for r in b], sort_keys=True)
    assert dump_a == dump_b


@pytest.mark.parametrize(
    "family,verify,final,prefix",
    [("t3mn", verify_base, (30,), ""), ("t3mn_star", verify_star, (4,), "star-")],
    ids=["base", "star"],
)
def test_final_class_stray_diagonal_is_recorded(monkeypatch, family, verify, final, prefix):
    ctx = FamilyContext(family, 1, 1)
    for w, exp, core in negative_members(ctx):
        if family == "t3mn":
            matches = negative_class_matches(core)
        else:
            matches = star_class_matches(ctx, w, core)
        if matches == final:
            break
    else:
        pytest.fail(f"no final-class map for {family} at (1, 1)")
    real = proofcheck.negative_members

    def one_stray_member(c):
        if c.family != family:
            return real(c)
        return iter([(w, {**exp, (1, 1): 7}, core)])

    monkeypatch.setattr(proofcheck, "negative_members", one_stray_member)
    reports = verify(1, 1)
    rep = {r.lemma: r for r in reports}[prefix + "final-class-vanishing"]
    assert rep.cases == 1
    assert [v.reason for v in rep.violations] == ["diagonal coefficient at 1 is nonzero"]


def test_star_final_class_diagonals_start_at_the_bound():
    # Each class-4 map of star (1, 2) has one diagonal term, and every one
    # is negative: 96 at m + n + 5 = 8 and 95 at m + n + 6 = 9.  The bound
    # leaves both unchecked; one taken from the star's degree, m + n + 7,
    # would check diagonal 8 and record 96 violations.
    ctx = FamilyContext("t3mn_star", 1, 2)
    split = Counter()
    for w, exp, core in negative_members(ctx):
        if star_class_matches(ctx, w, core) == (4,):
            (term,) = [(x, c < 0) for (x, y), c in exp.items() if c and x == y]
            split[term] += 1
    assert split == {(8, True): 96, (9, True): 95}
    reports = {r.lemma: r for r in verify_star(1, 2)}
    vanish = reports["star-final-class-vanishing"]
    assert (vanish.cases, vanish.violation_count) == (191, 0)
    assert reports["y-diagonal-nonnegative"].cases == 7


# sha256 of the sorted-key JSON of each battery's reports.  For fixed inputs
# the verify JSON stays byte-identical, so a new digest here must come with
# the reason the reports changed.  Re-pinned twice when the coverage audit
# became an exact count: that change alone left the base digest as it was
# (2d52f985...) and changed the star ones (40632e55..., b4acede3...) only in
# negative-coverage.cases, 300 sampled maps -> all 616,769 admissible maps;
# the per-report violation_count key is the only further difference.  The
# base (2, 1) cell pins the pattern order on slices with two legs.  The
# star (1, 2) cell was recorded before slice classifications and
# partner_star's core steps were cached; star classes 1/2 and 3 read the
# same core-step table.  The base (0, 2) and star (2, 0) cells, whose
# branch 2 or 3 is a slice of one vertex, were recorded before the partial
# signatures came sorted out of _join.
@pytest.mark.parametrize(
    "verify,m,n,kwargs,digest",
    [
        (
            verify_base,
            1,
            1,
            {},
            "425a4e3c39d58ca80e7d93d53f811f86065f485751fdb7b73bde2131f7218ee1",
        ),
        (
            verify_base,
            2,
            1,
            {},
            "eb7082ab314c0d0938b4d7f08cf702fd1b6c3c84a8485320ed46469a49c601f4",
        ),
        (
            verify_star,
            1,
            1,
            dict(repair_corner=False),
            "9f727762945dee91027b652a28608c3bf23a76aac87a0be58a53e1290bdf612e",
        ),
        (
            verify_star,
            1,
            1,
            dict(repair_corner=True),
            "5941e3f1210acae57a0847c9df910a715138d0f6a6afa74b3aa5606517d1c1e3",
        ),
        (
            verify_star,
            1,
            2,
            dict(repair_corner=False),
            "91c6b3250030fde5e6a59cdc237b7fcd598ded9ab898e68f3d8209c9559eb55f",
        ),
        (
            verify_base,
            0,
            2,
            {},
            "3d82caf029155294efe37454d0b0410d5bb35200cf3c8bf4c153828d5ec0003b",
        ),
        (
            verify_star,
            2,
            0,
            dict(repair_corner=False),
            "ab42bb739089c5ab5f0dbca0f7cb51a5c0fca68e24d45bf727cb8764532ce562",
        ),
    ],
    ids=[
        "base", "base-2-1", "star-published", "star-repaired", "star-1-2-published",
        "base-0-2", "star-2-0-published",
    ],
)
def test_report_bytes_are_pinned(verify, m, n, kwargs, digest):
    reports = verify(m, n, **kwargs)
    dump = json.dumps([r.to_json_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest
