"""Weight maps on graphs: restriction, admissible enumeration, and the spider
classes behind the pairing arguments.

A weight map assigns a nonnegative integer to every vertex in canonical
order; it is stored as a plain tuple.  "Admissible" maps are the ones whose
clan shadow can be nonzero: values at most 2, any edge with two weighted
ends carries 1 on both, weight-2 vertices have only weight-0 neighbors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iproduct
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, clan_owners, disjoint_union, rooted_forest, spider2, spider12
from .reports import CheckReport
from .shadow import (
    ForestShadow,
    add_expansions,
    expansion_from_signature,
    min_coefficient,
)

Weights = tuple[int, ...]

ENUMERATION_GUARD = 2_000_000


class EnumerationGuardError(RuntimeError):
    """Raised when an admissible enumeration would exceed the size guard."""


# ---------------------------------------------------------------------------
# restriction and extension


def restrict(weights: Sequence[int], vertices: Sequence[int]) -> Weights:
    """Weight map over the induced subgraph on the given vertex order."""
    return tuple(weights[v] for v in vertices)


def mask_outside(weights: Sequence[int], vertices: Iterable[int]) -> Weights:
    """Keep values on the given vertices, zero everywhere else."""
    keep = set(vertices)
    return tuple(a if v in keep else 0 for v, a in enumerate(weights))


# ---------------------------------------------------------------------------
# admissible maps


def count_admissible(g: Graph) -> int:
    """Number of admissible maps of a forest, by rooted counting: z, o, t
    count the maps of a vertex's subtree that put 0, 1, 2 on the vertex."""
    order, parent = rooted_forest(g)
    z = [1] * g.n
    o = [1] * g.n
    t = [1] * g.n
    total = 1
    for u in reversed(order):
        pu = parent[u]
        if pu == -1:
            total *= z[u] + o[u] + t[u]
        else:
            z[pu] *= z[u] + o[u] + t[u]
            o[pu] *= z[u] + o[u]
            t[pu] *= z[u]
    return total


def admissible_maps(g: Graph, guard: int = ENUMERATION_GUARD) -> Iterator[Weights]:
    """All admissible maps, depth first over the canonical vertex order with
    values tried in order 0, 1, 2."""
    if g.n == 0:
        yield ()
        return
    if count_admissible(g) > guard:
        raise EnumerationGuardError(
            f"admissible enumeration exceeds guard of {guard} maps"
        )
    earlier = [tuple(w for w in g.adj[v] if w < v) for v in range(g.n)]
    values = [0] * g.n

    def walk(v: int) -> Iterator[Weights]:
        if v == g.n:
            yield tuple(values)
            return
        for a in (0, 1, 2):
            ok = True
            if a:
                for w in earlier[v]:
                    if values[w] and values[w] + a >= 3:
                        ok = False
                        break
            if ok:
                values[v] = a
                yield from walk(v + 1)
        values[v] = 0

    yield from walk(0)


# ---------------------------------------------------------------------------
# spider views and classes


@dataclass(frozen=True)
class SpiderView:
    """Index view of a spider with legs of length two inside a larger map:
    the center vertex plus (head, foot) index pairs in leg order."""

    center: int
    legs: tuple[tuple[int, int], ...]

    @property
    def leg_count(self) -> int:
        return len(self.legs)

    def vertices(self) -> tuple[int, ...]:
        return (self.center,) + tuple(h for h, _ in self.legs) + tuple(
            f for _, f in self.legs
        )


def spider_view(n: int) -> SpiderView:
    """View matching the canonical order of spider2(n)."""
    return SpiderView(0, tuple((j, n + j) for j in range(1, n + 1)))


def bare_leg_count(weights: Sequence[int], sp: SpiderView) -> int:
    """Number of legs with head weight 1 and foot weight 0."""
    return sum(1 for h, f in sp.legs if weights[h] == 1 and weights[f] == 0)


def anchored_bare(weights: Sequence[int], sp: SpiderView) -> Optional[int]:
    """Bare leg count when the map is anchored (center weight 1, head weights
    at most 1, per-leg totals at most 2); None otherwise."""
    if weights[sp.center] != 1:
        return None
    for h, f in sp.legs:
        if weights[h] > 1 or weights[h] + weights[f] > 2:
            return None
    return bare_leg_count(weights, sp)


def vacated_signature(
    weights: Sequence[int], sp: SpiderView
) -> Optional[tuple[tuple[int, ...], int]]:
    """For a vacated map (center weight 0, per-leg totals at most 2): the
    1-based positions, among legs with weighted head and bare foot, whose
    head carries weight 2, together with the count of such legs.

    Returns None when the vacated-map conditions fail.  The returned pair is
    the unique class of the map, so class membership tests reduce to tuple
    comparison.
    """
    if weights[sp.center] != 0:
        return None
    marks = []
    t = 0
    for h, f in sp.legs:
        if weights[h] + weights[f] > 2:
            return None
        if weights[h] >= 1 and weights[f] == 0:
            t += 1
            if weights[h] == 2:
                marks.append(t)
    return tuple(marks), t


def mark_legs(weights: Sequence[int], sp: SpiderView, marks: Iterable[int]) -> Weights:
    """Vacate the center and put weight 2 on the chosen bare-leg heads.

    marks are 1-based positions into the ascending list of bare legs; the
    input must be anchored with enough bare legs.
    """
    k = anchored_bare(weights, sp)
    if k is None:
        raise ValueError("map is not anchored on this spider")
    marks = sorted(set(marks))
    if marks and (marks[0] < 1 or marks[-1] > k):
        raise ValueError(f"mark positions {marks} out of range for {k} bare legs")
    bare = [h for h, f in sp.legs if weights[h] == 1 and weights[f] == 0]
    out = list(weights)
    out[sp.center] = 0
    for i in marks:
        out[bare[i - 1]] = 2
    return tuple(out)


def unmark_legs(weights: Sequence[int], sp: SpiderView) -> Weights:
    """Inverse of mark_legs: restore the center to 1 and every weight-2 head
    to 1.  Independent of which marks were used."""
    out = list(weights)
    out[sp.center] = 1
    for h, _ in sp.legs:
        if out[h] == 2:
            out[h] = 1
    return tuple(out)


def has_isolated_clan_vertex(g: Graph, weights: Sequence[int]) -> bool:
    """True when some weight-1 vertex has only weight-0 neighbors (its clan
    copy is an isolated vertex).  Weight-2 vertices give complete pairs."""
    return any(
        a == 1 and all(weights[w] == 0 for w in g.adj[v])
        for v, a in enumerate(weights)
    )


@dataclass(frozen=True)
class SpiderClass:
    """The class of a weight map on a spider with length-two legs: the map,
    its bare-leg count, its shadow sign, the settled flag (positive with no
    isolated clan vertex; the empty clan counts as settled) and its vacated
    signature.  A negative map has center weight 1, so it has no vacated
    signature."""

    local: Weights
    k: int
    positive: bool
    settled: bool
    vac: Optional[tuple[tuple[int, ...], int]]

    @property
    def family_index(self) -> Optional[int]:
        """j >= 1 when the map sits in the singleton-j marked family, 0 for
        any other positive map, None for a negative one."""
        if self.vac is not None and len(self.vac[0]) == 1:
            return self.vac[0][0]
        if self.positive:
            return 0
        return None

    def in_family(self, marks: tuple[int, ...]) -> bool:
        """Membership in the union over sizes of the classes with these marks."""
        return self.vac is not None and self.vac[0] == marks

    def vac_is(self, marks: tuple[int, ...], t: int) -> bool:
        return self.vac == (marks, t)


def classify_spider(
    weights: Sequence[int], sp: SpiderView, shadow: ForestShadow
) -> SpiderClass:
    """The spider class of a map on the spider the view and shadow describe."""
    local = tuple(weights)
    positive = min_coefficient(shadow.expansion(local)) >= 0
    return SpiderClass(
        local=local,
        k=bare_leg_count(local, sp),
        positive=positive,
        settled=positive and not has_isolated_clan_vertex(shadow.graph, local),
        vac=vacated_signature(local, sp),
    )


# ---------------------------------------------------------------------------
# core/rest split along a clan component


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
# spider verification checks


def _anchored_maps(n: int) -> Iterator[Weights]:
    """All maps on spider2(n) with center 1, head weights <= 1, leg totals <= 2."""
    leg_options = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    for legs in iproduct(leg_options, repeat=n):
        yield (1,) + tuple(h for h, _ in legs) + tuple(f for _, f in legs)


def _subsets(k: int) -> Iterator[tuple[int, ...]]:
    for mask in range(1 << k):
        yield tuple(i + 1 for i in range(k) if mask >> i & 1)


def check_marking_bijection(n: int) -> CheckReport:
    """Roundtrip, injectivity and class membership of the leg-marking maps on
    a spider with n legs, exhaustively over all anchored maps and mark sets."""
    t0 = time.perf_counter()
    rep = CheckReport("marking-bijection", n=n)
    sp = spider_view(n)
    images: dict[Weights, tuple[Weights, tuple[int, ...]]] = {}
    for w in _anchored_maps(n):
        k = anchored_bare(w, sp)
        for marks in _subsets(k):
            rep.cases += 1
            image = mark_legs(w, sp, marks)
            if unmark_legs(image, sp) != w:
                rep.record(w, f"roundtrip failed for marks {marks}")
            if vacated_signature(image, sp) != (marks, k):
                rep.record(w, f"image not in the vacated class {marks}, {k}")
            prev = images.get(image)
            if prev is not None and prev != (w, marks):
                rep.record(image, f"image collision: {prev} vs {(w, marks)}")
            images[image] = (w, marks)
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_spider_shadow_formula(n: int) -> CheckReport:
    """Exact shadow of a connected one-weight spider image and the lower bound
    after marking one leg: for k bare and r full legs the shadow is
    s(r+k, r+1) - s(r+k-1, r+2) and every single marking dominates
    s(r+k, r+1) + s(r+k-1, r+2)."""
    t0 = time.perf_counter()
    rep = CheckReport("spider-shadow-formula", n=n)
    g = spider2(n)
    ctx = ForestShadow(g)
    sp = spider_view(n)
    leg_options = ((0, 0), (1, 0), (1, 1))
    for legs in iproduct(leg_options, repeat=n):
        k = sum(1 for h, f in legs if (h, f) == (1, 0))
        r = sum(1 for h, f in legs if (h, f) == (1, 1))
        if k < 3:
            continue
        w = (1,) + tuple(h for h, _ in legs) + tuple(f for _, f in legs)
        rep.cases += 1
        expected = {(r + k, r + 1): 1, (r + k - 1, r + 2): -1}
        got = dict(ctx.expansion(w))
        if got != expected:
            rep.record(w, f"shadow {got} != {expected}")
        for j in range(1, k + 1):
            bound = add_expansions(
                ctx.expansion(mark_legs(w, sp, (j,))),
                {(r + k, r + 1): -1, (r + k - 1, r + 2): -1},
            )
            if min_coefficient(bound) < 0:
                rep.record(w, f"marked shadow bound fails at position {j}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_negative_spider_pairing(n: int) -> CheckReport:
    """Every admissible map with negative spider shadow is anchored with at
    least 3 bare legs, and adding the shadow of any single marking is
    nonnegative."""
    t0 = time.perf_counter()
    rep = CheckReport("negative-spider-pairing", n=n)
    g = spider2(n)
    ctx = ForestShadow(g)
    sp = spider_view(n)
    for w in admissible_maps(g):
        exp = ctx.expansion(w)
        if min_coefficient(exp) >= 0:
            continue
        rep.cases += 1
        k = anchored_bare(w, sp)
        if k is None or k < 3:
            rep.record(w, f"negative map not anchored with >=3 bare legs (k={k})")
            continue
        for j in range(1, k + 1):
            total = add_expansions(exp, ctx.expansion(mark_legs(w, sp, (j,))))
            if min_coefficient(total) < 0:
                rep.record(w, f"pair sum negative for mark {j}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_leaf_spider_pairing(n: int) -> CheckReport:
    """Pairing bound on the spider with one extra pendant leg: marking any
    bare leg of the length-two part (keeping the pendant) gives a
    nonnegative sum whenever the remainder map is anchored with k >= 2."""
    t0 = time.perf_counter()
    rep = CheckReport("leaf-spider-pairing", n=n)
    g = spider12(1, n)
    ctx = ForestShadow(g)
    inner = SpiderView(0, tuple((1 + j, 1 + n + j) for j in range(1, n + 1)))
    leg_options = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    for leaf in (0, 1, 2):
        for legs in iproduct(leg_options, repeat=n):
            w = (1, leaf) + tuple(h for h, _ in legs) + tuple(f for _, f in legs)
            k = anchored_bare(w, inner)
            if k is None or k < 2:
                continue
            exp_w = ctx.any_expansion(w)
            for j in range(1, k + 1):
                rep.cases += 1
                beta = mark_legs(w, inner, (j,))
                total = add_expansions(exp_w, ctx.any_expansion(beta))
                if min_coefficient(total) < 0:
                    rep.record(w, f"pair sum negative (leaf={leaf}, mark={j})")
    rep.elapsed = time.perf_counter() - t0
    return rep


_FOREST_LEGS = 3


def _bare_spider_forest(components: int) -> tuple[ForestShadow, list[SpiderView], Weights]:
    """The forest checks' input: the shadow of a disjoint union of spiders
    with _FOREST_LEGS legs, one view per spider, and the anchored map with
    every leg bare."""
    legs = _FOREST_LEGS
    size = 2 * legs + 1
    views = [
        SpiderView(
            i * size, tuple((i * size + j, i * size + legs + j) for j in range(1, legs + 1))
        )
        for i in range(components)
    ]
    w = ((1,) + (1,) * legs + (0,) * legs) * components
    return ForestShadow(disjoint_union([spider2(legs)] * components)), views, w


def check_forest_pairing(components: int) -> CheckReport:
    """Pairing bound on a forest of three-leg spiders, each carrying an
    anchored map with all legs bare, marking one leg per component."""
    t0 = time.perf_counter()
    rep = CheckReport("forest-pairing", n=components)
    ctx, views, w = _bare_spider_forest(components)
    for picks in iproduct(range(1, _FOREST_LEGS + 1), repeat=components):
        rep.cases += 1
        beta = w
        for view, pick in zip(views, picks):
            beta = mark_legs(beta, view, (pick,))
        total = add_expansions(ctx.expansion(w), ctx.expansion(beta))
        if min_coefficient(total) < 0:
            rep.record(w, f"pair sum negative for picks {picks}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_forest_multi_marking(components: int) -> CheckReport:
    """Same forest as check_forest_pairing but marking arbitrary sets with
    total size equal to the component count."""
    t0 = time.perf_counter()
    rep = CheckReport("forest-multi-marking", n=components)
    ctx, views, w = _bare_spider_forest(components)
    for sets in iproduct(list(_subsets(_FOREST_LEGS)), repeat=components):
        if sum(len(s) for s in sets) != components:
            continue
        rep.cases += 1
        gamma = w
        for view, marks in zip(views, sets):
            gamma = mark_legs(gamma, view, marks)
        total = add_expansions(ctx.expansion(w), ctx.expansion(gamma))
        if min_coefficient(total) < 0:
            rep.record(w, f"pair sum negative for mark sets {sets}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_no_singleton_when_deficient(max_legs: int = 3, max_components: int = 3) -> CheckReport:
    """When the shadow of an admissible forest map is negative and its unique
    unbalanced component has parts (q+2, q) with q >= 1, the clan graph has
    no isolated vertices.

    The forests are disjoint unions of up to max_components spiders with 1 to
    max_legs legs, at most 15 vertices.  A union's admissible maps are the
    products of its parts' maps, and its signature joins their signatures."""
    t0 = time.perf_counter()
    rep = CheckReport("no-singleton-when-deficient", n=max_legs)
    pool = []
    for legs in range(1, max_legs + 1):
        shadow = ForestShadow(spider2(legs))
        maps = [(w, *shadow.signature(w)) for w in admissible_maps(shadow.graph)]
        pool.append((shadow.n, maps))
    for count in range(1, max_components + 1):
        for shape in combinations_with_replacement(pool, count):
            if sum(size for size, _ in shape) > 15:
                continue
            for picks in iproduct(*(maps for _, maps in shape)):
                comps = tuple(sorted(c for _, part, _ in picks for c in part))
                unbalanced = [c for c in comps if c[0] - c[1] >= 2]
                if len(unbalanced) != 1:
                    continue
                p, q = unbalanced[0]
                if p != q + 2 or q < 1:
                    continue
                twos = sum(t for _, _, t in picks)
                if min_coefficient(expansion_from_signature((comps, twos))) >= 0:
                    continue
                rep.cases += 1
                if (1, 0) in comps:
                    w = sum((part_w for part_w, _, _ in picks), ())
                    rep.record(w, "deficient map left an isolated clan vertex")
    rep.elapsed = time.perf_counter() - t0
    return rep


def spider_suite(max_legs: int = 4, forest_components: int = 3) -> list[CheckReport]:
    """The complete spider check battery at the default desk-scale guards."""
    # check_negative_spider_pairing(max_legs) enumerates the largest spider's
    # admissible maps; apply its guard before the mark-case walks, which grow
    # as fast and have no guard of their own.
    if count_admissible(spider2(max_legs)) > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"admissible enumeration exceeds guard of {ENUMERATION_GUARD} maps"
        )
    reports = []
    for n in range(1, max_legs + 1):
        reports.append(check_marking_bijection(n))
    for n in sorted({3, max_legs}):
        if n >= 3:
            reports.append(check_spider_shadow_formula(n))
    for n in range(1, max_legs + 1):
        reports.append(check_negative_spider_pairing(n))
    for n in range(2, max_legs):
        reports.append(check_leaf_spider_pairing(n))
    for c in range(1, forest_components + 1):
        reports.append(check_forest_pairing(c))
        reports.append(check_forest_multi_marking(c))
    reports.append(check_no_singleton_when_deficient())
    return reports
