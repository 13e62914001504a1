"""Weight maps on graphs: admissible enumeration, and the spider classes
behind the pairing arguments.

A weight map assigns a nonnegative integer to every vertex in canonical
order; it is stored as a plain tuple.  "Admissible" maps are the ones whose
clan shadow can be nonzero: values at most 2, any edge with two weighted
ends carries 1 on both, weight-2 vertices have only weight-0 neighbors.

The spider functions take a map on spider2(n) in spider order, the order
spider2 numbers its vertices: the center, the n heads, the n feet, so n is
(len(local) - 1) // 2.  spider_legs reads its (head, foot) pairs and
spider_map builds one from a center value and legs.  A caller with a spider
inside a larger graph reads the spider's map out and writes it back.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, product as iproduct
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, disjoint_union, rooted_forest, spider2, spider12
from .reports import CheckReport
from .shadow import (
    ForestShadow,
    add_expansions,
    imbalances,
    imbalances_negative,
    min_coefficient,
)

Weights = tuple[int, ...]

ENUMERATION_GUARD = 2_000_000


class EnumerationGuardError(RuntimeError):
    """Raised when an admissible enumeration would exceed the size guard."""


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


def _check_guard(g: Graph, guard: int, name: str = "the graph") -> None:
    """Refuse to enumerate more than guard admissible maps of g, by count;
    the refusal calls g name and gives the count."""
    count = count_admissible(g)
    if count > guard:
        raise EnumerationGuardError(
            f"{name} has {count:,} admissible maps, more than the enumeration guard of {guard:,}"
        )


def admissible_maps(g: Graph, guard: int = ENUMERATION_GUARD) -> Iterator[Weights]:
    """All admissible maps, depth first over the canonical vertex order with
    values tried in order 0, 1, 2."""
    if g.n == 0:
        yield ()
        return
    _check_guard(g, guard)
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
# spider maps and classes


def spider_legs(local: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (head, foot) values of a spider map, leg by leg."""
    n = (len(local) - 1) // 2
    return tuple(zip(local[1 : n + 1], local[n + 1 :]))


def spider_map(center: int, legs: Iterable[tuple[int, int]]) -> Weights:
    """The spider map with this center value and these (head, foot) values."""
    legs = tuple(legs)
    return (center,) + tuple(h for h, _ in legs) + tuple(f for _, f in legs)


def bare_leg_count(local: Sequence[int]) -> int:
    """Number of legs with head weight 1 and foot weight 0."""
    return spider_legs(local).count((1, 0))


def anchored_bare(local: Sequence[int]) -> Optional[int]:
    """Bare leg count when the map is anchored (center weight 1, head weights
    at most 1, per-leg totals at most 2); None otherwise."""
    bare = _anchored_bare_heads(local)
    return None if bare is None else len(bare)


def _anchored_bare_heads(local: Sequence[int]) -> Optional[list[int]]:
    """Positions in local of the bare heads of an anchored map, in leg
    order; None when the map is not anchored."""
    if local[0] != 1:
        return None
    bare = []
    for j, (h, f) in enumerate(spider_legs(local), 1):
        if h > 1 or h + f > 2:
            return None
        if h == 1 and f == 0:
            bare.append(j)
    return bare


def vacated_signature(local: Sequence[int]) -> Optional[tuple[tuple[int, ...], int]]:
    """For a vacated map (center weight 0, per-leg totals at most 2): the
    1-based positions, among legs with weighted head and bare foot, whose
    head carries weight 2, together with the count of such legs.

    Returns None when the vacated-map conditions fail.  The returned pair is
    the unique class of the map, so class membership tests reduce to tuple
    comparison.
    """
    if local[0] != 0:
        return None
    marks = []
    t = 0
    for h, f in spider_legs(local):
        if h + f > 2:
            return None
        if h >= 1 and f == 0:
            t += 1
            if h == 2:
                marks.append(t)
    return tuple(marks), t


def mark_legs(local: Sequence[int], marks: Iterable[int]) -> Weights:
    """Vacate the center and put weight 2 on the chosen bare-leg heads.

    marks are 1-based positions into the ascending list of bare legs; the
    input must be anchored with enough bare legs.
    """
    bare = _anchored_bare_heads(local)
    if bare is None:
        raise ValueError("map is not anchored on this spider")
    marks = sorted(set(marks))
    if marks and (marks[0] < 1 or marks[-1] > len(bare)):
        raise ValueError(f"mark positions {marks} out of range for {len(bare)} bare legs")
    out = list(local)
    out[0] = 0
    for i in marks:
        out[bare[i - 1]] = 2
    return tuple(out)


def unmark_legs(local: Sequence[int]) -> Weights:
    """Inverse of mark_legs: restore the center to 1 and every weight-2 head
    to 1.  Independent of which marks were used."""
    return spider_map(1, ((1 if h == 2 else h, f) for h, f in spider_legs(local)))


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
    isolated clan vertex; the empty clan counts as settled), its vacated
    signature, its weight sum, its number of weight-1 heads and its
    (head, foot) values leg by leg.  A negative map has center weight 1, so
    it has no vacated signature."""

    local: Weights
    k: int
    positive: bool
    settled: bool
    vac: Optional[tuple[tuple[int, ...], int]]
    total: int
    heads: int
    legs: tuple[tuple[int, int], ...]

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


@cache
def classify_spider(local: Weights) -> SpiderClass:
    """The spider class of a map on spider2(n), given in spider order
    (center, heads, feet), so n is (len(local) - 1) // 2.  Cached for the
    process by the map alone, on which the class depends."""
    n = (len(local) - 1) // 2
    shadow = _spider_shadow(n)
    positive = not shadow.negative(local)
    return SpiderClass(
        local=local,
        k=bare_leg_count(local),
        positive=positive,
        settled=positive and not has_isolated_clan_vertex(shadow.graph, local),
        vac=vacated_signature(local),
        total=sum(local),
        heads=local[1 : n + 1].count(1),
        legs=spider_legs(local),
    )


@cache
def marked_slice(local: Weights, marks: tuple[int, ...]) -> Weights | str:
    """mark_legs of a map on spider2(n), given in spider order, or the
    message of its refusal.  Cached for the process by the map and the
    marks, as classify_spider is by the map."""
    try:
        return mark_legs(local, marks)
    except ValueError as exc:
        return str(exc)


@cache
def _spider_shadow(n: int) -> ForestShadow:
    return ForestShadow(spider2(n))


# ---------------------------------------------------------------------------
# spider verification checks


def _anchored_maps(n: int) -> Iterator[Weights]:
    """All maps on spider2(n) with center 1, head weights <= 1, leg totals <= 2."""
    leg_options = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))
    for legs in iproduct(leg_options, repeat=n):
        yield spider_map(1, legs)


def _subsets(k: int) -> Iterator[tuple[int, ...]]:
    for mask in range(1 << k):
        yield tuple(i + 1 for i in range(k) if mask >> i & 1)


def check_marking_bijection(n: int) -> CheckReport:
    """Roundtrip, injectivity and class membership of the leg-marking maps on
    a spider with n legs, exhaustively over all anchored maps and mark sets."""
    t0 = time.perf_counter()
    rep = CheckReport("marking-bijection", n=n)
    images: dict[Weights, tuple[Weights, tuple[int, ...]]] = {}
    for w in _anchored_maps(n):
        k = anchored_bare(w)
        for marks in _subsets(k):
            rep.cases += 1
            image = mark_legs(w, marks)
            if unmark_legs(image) != w:
                rep.record(w, f"roundtrip failed for marks {marks}")
            if vacated_signature(image) != (marks, k):
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
    ctx = _spider_shadow(n)
    leg_options = ((0, 0), (1, 0), (1, 1))
    for legs in iproduct(leg_options, repeat=n):
        k = legs.count((1, 0))
        r = legs.count((1, 1))
        if k < 3:
            continue
        w = spider_map(1, legs)
        rep.cases += 1
        expected = {(r + k, r + 1): 1, (r + k - 1, r + 2): -1}
        got = dict(ctx.expansion(w))
        if got != expected:
            rep.record(w, f"shadow {got} != {expected}")
        for j in range(1, k + 1):
            bound = add_expansions(
                ctx.expansion(mark_legs(w, (j,))),
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
    ctx = _spider_shadow(n)
    for w in admissible_maps(ctx.graph):
        if not ctx.negative(w):
            continue
        rep.cases += 1
        k = anchored_bare(w)
        if k is None or k < 3:
            rep.record(w, f"negative map not anchored with >=3 bare legs (k={k})")
            continue
        exp = ctx.expansion(w)
        for j in range(1, k + 1):
            total = add_expansions(exp, ctx.expansion(mark_legs(w, (j,))))
            if min_coefficient(total) < 0:
                rep.record(w, f"pair sum negative for mark {j}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_leaf_spider_pairing(n: int) -> CheckReport:
    """Pairing bound on the spider with one extra pendant leg: marking any
    bare leg of the length-two part (keeping the pendant) gives a
    nonnegative sum whenever the remainder map is anchored with k >= 2.

    spider12(1, n) orders the center, the pendant, the heads, the feet, so
    a map on it is a spider2(n) map with the pendant's value put second."""
    t0 = time.perf_counter()
    rep = CheckReport("leaf-spider-pairing", n=n)
    ctx = ForestShadow(spider12(1, n))
    for leaf in (0, 1, 2):
        for local in _anchored_maps(n):
            k = anchored_bare(local)
            if k < 2:
                continue
            w = local[:1] + (leaf,) + local[1:]
            exp_w = ctx.expansion(w)
            for j in range(1, k + 1):
                rep.cases += 1
                beta = mark_legs(local, (j,))
                beta = beta[:1] + (leaf,) + beta[1:]
                total = add_expansions(exp_w, ctx.expansion(beta))
                if min_coefficient(total) < 0:
                    rep.record(w, f"pair sum negative (leaf={leaf}, mark={j})")
    rep.elapsed = time.perf_counter() - t0
    return rep


# The forest checks' spiders have _FOREST_LEGS legs each; spider_suite runs
# them on forests of 1 to _FOREST_COMPONENTS spiders.
_FOREST_LEGS = 3
_FOREST_COMPONENTS = 3


def _forest_pair_sums(lemma: str, components: int, cases: Iterable) -> CheckReport:
    """The one driver of the forest checks: on a forest of `components`
    spiders with _FOREST_LEGS legs, each carrying the anchored map with
    every leg bare, each case is a label and one mark set per component.
    The forest map joins one spider map per component, and the bare map's
    shadow plus its marking's must be nonnegative."""
    t0 = time.perf_counter()
    rep = CheckReport(lemma, n=components)
    ctx = ForestShadow(disjoint_union([spider2(_FOREST_LEGS)] * components))
    bare = spider_map(1, [(1, 0)] * _FOREST_LEGS)
    w = bare * components
    exp_w = ctx.expansion(w)
    for label, sets in cases:
        rep.cases += 1
        marked = sum((mark_legs(bare, marks) for marks in sets), ())
        if min_coefficient(add_expansions(exp_w, ctx.expansion(marked))) < 0:
            rep.record(w, f"pair sum negative for {label}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def check_forest_pairing(components: int) -> CheckReport:
    """Pairing bound on a forest of three-leg spiders, each carrying an
    anchored map with all legs bare, marking one leg per component."""
    picks = iproduct(range(1, _FOREST_LEGS + 1), repeat=components)
    cases = ((f"picks {p}", tuple((j,) for j in p)) for p in picks)
    return _forest_pair_sums("forest-pairing", components, cases)


def check_forest_multi_marking(components: int) -> CheckReport:
    """Same forest as check_forest_pairing but marking arbitrary sets with
    total size equal to the component count."""
    choices = iproduct(list(_subsets(_FOREST_LEGS)), repeat=components)
    cases = ((f"mark sets {s}", s) for s in choices if sum(map(len, s)) == components)
    return _forest_pair_sums("forest-multi-marking", components, cases)


def check_no_singleton_when_deficient(max_legs: int = 3, max_components: int = 3) -> CheckReport:
    """When the shadow of an admissible forest map is negative and its unique
    unbalanced component has parts (q+2, q) with q >= 1, the clan graph has
    no isolated vertices.

    The forests are disjoint unions of up to max_components spiders with 1 to
    max_legs legs, at most 15 vertices.  A union's admissible maps are the
    products of its parts' maps, and its components join theirs.  The sign
    reads the imbalances alone, so the walk is over products of component
    tuples, each spider's maps grouped by theirs: a qualifying product
    counts the product of its group sizes as cases, and only a failing one
    is expanded back into its maps."""
    t0 = time.perf_counter()
    rep = CheckReport("no-singleton-when-deficient", n=max_legs)
    pool = []
    for legs in range(1, max_legs + 1):
        shadow = _spider_shadow(legs)
        groups: dict[tuple[tuple[int, int], ...], list[Weights]] = {}
        for w in admissible_maps(shadow.graph):
            groups.setdefault(shadow.signature(w)[0], []).append(w)
        pool.append((shadow.n, list(groups.items())))
    for count in range(1, max_components + 1):
        for shape in combinations_with_replacement(pool, count):
            if sum(size for size, _ in shape) > 15:
                continue
            for picks in iproduct(*(groups for _, groups in shape)):
                comps = tuple(sorted(c for part, _ in picks for c in part))
                unbalanced = [c for c in comps if c[0] - c[1] >= 2]
                if len(unbalanced) != 1:
                    continue
                p, q = unbalanced[0]
                if p != q + 2 or q < 1:
                    continue
                if not imbalances_negative(imbalances(comps)):
                    continue
                rep.cases += math.prod(len(maps) for _, maps in picks)
                if (1, 0) in comps:
                    for parts in iproduct(*(maps for _, maps in picks)):
                        rep.record(sum(parts, ()), "deficient map left an isolated clan vertex")
    rep.elapsed = time.perf_counter() - t0
    return rep


def spider_suite(max_legs: int = 4) -> list[CheckReport]:
    """The complete spider check battery at the default desk-scale guards."""
    # check_negative_spider_pairing(max_legs) enumerates the largest spider's
    # admissible maps; apply its guard before the mark-case walks, which grow
    # as fast and have no guard of their own.
    _check_guard(spider2(max_legs), ENUMERATION_GUARD, f"spider2({max_legs})")
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
    for c in range(1, _FOREST_COMPONENTS + 1):
        reports.append(check_forest_pairing(c))
        reports.append(check_forest_multi_marking(c))
    reports.append(check_no_singleton_when_deficient())
    return reports
