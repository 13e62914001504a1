"""Mechanical verification of the pairing certificates behind the unimodality
of the two tree families.

The certificate structure: partition the weight maps with negative two-row
shadow ("negative maps") into 30 classes (4 for the extended family), pair
every class but the last with a disjoint target class of positive maps via an
explicit injection, and check that each map-plus-partner shadow sum is
nonnegative while the final class contributes only to the top diagonal
coefficient.  Every piece of that argument is checked here on concrete (m, n)
rather than assumed: the classes are evaluated as independent predicates with
an exclusivity audit, the injections are applied and their images audited
against the target predicates, and all shadow inequalities are recomputed
exactly.

Negative maps are enumerated exactly for any (m, n) within the pattern guard:
a map can only have negative shadow if some clan component is unbalanced,
which pins the component either inside a branch slice or on the spine through
the root, so candidates are generated from per-slice pattern keys instead
of sweeping all admissible maps.  A separate coverage audit counts the
negative maps exactly, folding the slice-pattern keys by imbalance summary
without the generator's join, and confirms that the generator yields
exactly that many distinct maps, each negative under the family's own
shadow engine.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product as iproduct
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .alphamaps import (
    EnumerationGuardError,
    SpiderClass,
    Weights,
    admissible_maps,
    classify_spider,
    count_admissible,
    marked_slice,
)
from .graphs import Graph, family_graph, family_layout, path_graph, spider2
from .intpoly import analyze, family_poly
from .reports import CheckReport
from .shadow import (
    ZERO_EXPANSION,
    ForestShadow,
    Signature,
    add_expansions,
    expansion_from_signature,
    imbalances,
    imbalances_negative,
    min_coefficient,
    part_pairs,
)
from .symfunc import chromatic_multicolor_2var, f_p_2var, schur_expand

PATTERN_GUARD = 300_000

# The most negative maps a verify battery realizes.  The battery keeps every
# negative map and its partner packed as bytes: in process (2-CPU Xeon host)
# base (3,3), with 644,015 negatives, peaks at 230 MB and star (3,3), with
# 3,178,818, at 1,181 MB, about 375-390 B per negative.  One battery at the
# limit then needs some 1.6 GB, so two side by side fit a 7 GB host with
# room to spare, and the limit is kept at 4,000,000.  Star (3,4), at
# 23,760,992, would need about 9 GB and base (4,4), at 33,044,455, about
# 13 GB; both are refused from the exact count before any enumeration.
MAX_NEGATIVES = 4_000_000


class PartnerError(RuntimeError):
    """Raised when a pairing injection cannot be applied to a map; in a
    verification run this is falsification evidence, not a crash."""


# ---------------------------------------------------------------------------
# family context


class FamilyContext:
    """Everything needed to analyze weight maps on one family member.

    The enumerator, the partner shadows, the pair sums, the base target
    analysis and partner_star's refusal path all read the slice-pattern
    table: each map is the root value and three slice patterns, joined by
    _join; the map counts fold it without _join.  The family graph and its
    ForestShadow are built only on first use, and only the coverage audit
    reads them, to confirm the table independently."""

    def __init__(self, family: str, m: int, n: int):
        self.layout = family_layout(family, m, n)
        self.family = family
        self.m = m
        self.n = n
        lay = self.layout
        self.slice_vertices = tuple(lay.slice_vertices(i) for i in (1, 2, 3))
        self.slice_locals = tuple(_tuple_getter(verts) for verts in self.slice_vertices)
        # A slice map as the pattern table holds it: branch 1 of the star
        # reads x, y after its core vertices.  place is the inverse: the
        # family map from (v0, *p1.values, *p2.values, *p3.values).
        s1, s2, s3 = self.slice_vertices
        if lay.star:
            s1 += (lay.x, lay.y)
        self.pattern_locals = (_tuple_getter(s1), *self.slice_locals[1:])
        spots = [0] * lay.size
        for pos, v in enumerate((lay.v0, *s1, *s2, *s3)):
            spots[v] = pos
        self.place = itemgetter(*spots)

    @cached_property
    def graph(self) -> Graph:
        return family_graph(self.family, self.m, self.n)

    @cached_property
    def shadow(self) -> ForestShadow:
        return ForestShadow(self.graph)

    @cached_property
    def slice_patterns(self) -> tuple[dict[Weights, _SlicePattern], ...]:
        """The patterns of the branches 1, 2, 3 by slice map, read from the
        process-wide table by slice shape: the branch's leg count, and for
        branch 1 of the star the path x, y below its third foot.  A slice
        past the pattern guard is refused with the cell and the slice
        named."""
        lay = self.layout
        out = []
        for i in (1, 2, 3):
            legs = lay.leg_count(i)
            try:
                out.append(_slice_patterns(legs, lay.star and i == 1))
            except EnumerationGuardError:
                raise EnumerationGuardError(
                    f"{self.family}({self.m},{self.n}): slice spider2({legs}) has more"
                    f" admissible maps than the pattern guard of {PATTERN_GUARD:,} maps"
                ) from None
        return tuple(out)

    def pattern_expansion(
        self, w: Weights
    ) -> tuple[Mapping[tuple[int, int], int], Optional[tuple[_SlicePattern, ...]]]:
        """The shadow expansion of w and its three slice patterns, looked up
        in the pattern table, or an empty expansion and None when w has zero
        shadow: a root value outside 0..2, a slice map that is not an
        admissible map of its slice, or a positive root and branch center of
        total 3 or more.  Those are the family tree's edges, so the
        expansion is the family ForestShadow's expansion, joined once per
        process for each root value and three pattern keys
        (_joined_expansion)."""
        v0 = w[0]
        allowed = _TAU_ALLOWED.get(v0)
        if allowed is None:
            return ZERO_EXPANSION, None
        index1, index2, index3 = self.slice_patterns
        read1, read2, read3 = self.pattern_locals
        p1 = index1.get(read1(w))
        p2 = index2.get(read2(w))
        p3 = index3.get(read3(w))
        if (
            p1 is None or p2 is None or p3 is None
            or p1.tau not in allowed or p2.tau not in allowed or p3.tau not in allowed
        ):
            return ZERO_EXPANSION, None
        return _joined_expansion(v0, p1.key, p2.key, p3.key), (p1, p2, p3)

    @cached_property
    def map_counts(self) -> tuple[int, int]:
        """The numbers of admissible and of negative maps (_count_maps),
        counted once and shared by the negative-map guard and the audit."""
        return _count_maps(self.slice_patterns)

    @property
    def negative_count(self) -> int:
        return self.map_counts[1]

    @cached_property
    def core_steps(self) -> dict[bytes, CoreStep | str]:
        """The base pairing of every negative map of this base-family
        context, keyed by bytes(map) in negative_members order, from the
        analysis each map is yielded with.  A map the injections refuse
        outright (no single class, or the final class) holds the message."""
        steps: dict[bytes, CoreStep | str] = {}
        for w, _, a in negative_members(self):
            matches = negative_class_matches(a)
            if len(matches) != 1:
                steps[bytes(w)] = f"core restriction matches classes {matches}"
                continue
            (cls,) = matches
            if cls == 30:
                steps[bytes(w)] = "core restriction falls in the final class"
                continue
            published = repaired = _partner_or_refusal(self, a, cls)
            if cls == 19 and marks_head_13(a):
                repaired = _partner_or_refusal(self, a, cls, low_mark=True)
            corner = cls == 28 and only_gap_at_leg_13(a)
            steps[bytes(w)] = CoreStep(cls, corner, published, repaired)
        return steps


class CoreStep(NamedTuple):
    """A negative core map's class, whether it is the class-28 corner star
    class 3 refuses (see only_gap_at_leg_13), and its published and
    class-19-repaired partners (the same object outside the marks_head_13
    corner), each as bytes or as the message of the refusal that stopped it:
    a message keeps no traceback."""

    cls: int
    corner: bool
    published: bytes | str
    repaired: bytes | str


def _partner_or_refusal(
    ctx: FamilyContext, a: FamilyAnalysis, cls: int, low_mark: bool = False
) -> bytes | str:
    try:
        return bytes(partner(ctx, a, cls, low_mark))
    except PartnerError as exc:
        return str(exc)


def _tuple_getter(indices: Sequence[int]):
    """itemgetter that returns a tuple for any number of indices, one too:
    a slice without legs is the branch vertex alone."""
    if len(indices) == 1:
        (i,) = indices
        return lambda w: (w[i],)
    return itemgetter(*indices)


class FamilyAnalysis(NamedTuple):
    """Per-map data consumed by the class predicates: the core map, its root
    and branch values, and the spider class of each branch slice.  A named
    tuple: one is built for every negative map and every partner, and a
    tuple is the cheapest immutable record to build."""

    w: Weights
    a0: int
    branch: tuple[int, int, int]
    info: tuple[SpiderClass, SpiderClass, SpiderClass]
    total: int
    weighted_heads: int

    def k(self, i: int) -> int:
        return self.info[i - 1].k

    def pos(self, i: int) -> bool:
        return self.info[i - 1].positive

    def settled(self, i: int) -> bool:
        return self.info[i - 1].settled

    def slice(self, i: int) -> SpiderClass:
        return self.info[i - 1]

    @property
    def ksum(self) -> int:
        return self.info[0].k + self.info[1].k + self.info[2].k

    @property
    def full_weight(self) -> int:
        """The core vertex count: the root and the three slices."""
        s1, s2, s3 = self.info
        return 1 + len(s1.local) + len(s2.local) + len(s3.local)


def analyze_map(ctx: FamilyContext, w: Sequence[int]) -> FamilyAnalysis:
    """The class analysis of w, joined from its three slice records."""
    get1, get2, get3 = ctx.slice_locals
    return _join_analysis(
        tuple(w), classify_spider(get1(w)), classify_spider(get2(w)), classify_spider(get3(w))
    )


def _join_analysis(w: Weights, r1: SpiderClass, r2: SpiderClass, r3: SpiderClass) -> FamilyAnalysis:
    """The analysis of core map w from the records of its three slices: the
    core vertices are the root and the slices, so the core weight and the
    weighted heads are sums over the slices."""
    return FamilyAnalysis(
        w=w,
        a0=w[0],
        branch=(w[1], w[2], w[3]),
        info=(r1, r2, r3),
        total=w[0] + r1.total + r2.total + r3.total,
        weighted_heads=r1.heads + r2.heads + r3.heads,
    )


def _legs_with(a: FamilyAnalysis, leg: tuple[int, int]) -> list[tuple[int, int]]:
    """(branch, leg) of every leg whose (head, foot) values are leg, in leg
    order."""
    return [
        (i, j)
        for i, s in enumerate(a.info, 1)
        for j, values in enumerate(s.legs, 1)
        if values == leg
    ]


def _heads_all_zero(a: FamilyAnalysis) -> bool:
    return all(h == 0 for s in a.info for h, _ in s.legs)


# ---------------------------------------------------------------------------
# the 30 negative classes


def _branch_is(a: FamilyAnalysis, b1: int, b2: int, b3: int) -> bool:
    return a.branch == (b1, b2, b3)


def _negative_class_predicates():
    def n1(a):
        return a.a0 == 0 and not a.pos(1) and a.pos(2) and a.pos(3)

    def n2(a):
        return a.a0 == 0 and not a.pos(2) and a.pos(1) and a.pos(3) and a.k(2) == 3

    def n3(a):
        return a.a0 == 0 and not a.pos(3) and a.pos(1) and a.pos(2) and a.k(3) == 3

    def n4(a):
        return a.a0 == 0 and not a.pos(2) and a.pos(1) and a.pos(3) and a.k(2) >= 4

    def n5(a):
        return a.a0 == 0 and not a.pos(3) and a.pos(1) and a.pos(2) and a.k(3) >= 4

    def n6(a):
        return a.a0 == 0 and not a.pos(1) and not a.pos(2) and a.pos(3)

    def n7(a):
        return a.a0 == 0 and not a.pos(1) and not a.pos(3) and a.pos(2)

    def n8(a):
        return a.a0 == 0 and not a.pos(2) and not a.pos(3) and a.pos(1)

    def n9(a):
        return a.a0 == 0 and not a.pos(1) and not a.pos(2) and not a.pos(3)

    def n10(a):
        return a.a0 == 1 and _branch_is(a, 1, 0, 0) and a.k(1) == 2

    def n11(a):
        return a.a0 == 1 and _branch_is(a, 1, 0, 0) and a.k(1) == 3

    def n12(a):
        return a.a0 == 1 and _branch_is(a, 0, 1, 0) and a.k(2) == 2

    def n13(a):
        return a.a0 == 1 and _branch_is(a, 0, 1, 0) and a.k(2) >= 3

    def n14(a):
        return a.a0 == 1 and _branch_is(a, 0, 0, 1) and a.k(3) == 2

    def n15(a):
        return a.a0 == 1 and _branch_is(a, 0, 0, 1) and a.k(3) >= 3

    def n16(a):
        return a.a0 == 1 and _branch_is(a, 0, 1, 1)

    def n17(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 0, 1)
            and not a.slice(2).in_family((1,))
            and a.k(3) >= 1
        )

    def n18(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 0, 1)
            and not a.slice(2).in_family((1,))
            and a.k(3) == 0
        )

    def n19(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 0, 1)
            and a.slice(2).in_family((1,))
            and a.k(1) >= 2
        )

    def n20(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 0, 1)
            and a.slice(2).in_family((1,))
            and a.k(1) <= 1
        )

    def n21(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 0)
            and not a.slice(3).in_family((1,))
            and a.k(2) >= 2
        )

    def n22(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 0)
            and not a.slice(3).in_family((1,))
            and a.k(2) <= 1
            and a.k(1) == 2
        )

    def n23(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 0)
            and not a.slice(3).in_family((1,))
            and a.k(2) <= 1
            and a.k(1) == 3
        )

    def n24(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 0)
            and a.slice(3).in_family((1,))
            and a.k(2) >= 1
        )

    def n25(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 0)
            and a.slice(3).in_family((1,))
            and a.k(2) == 0
        )

    def n26(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 1)
            and a.ksum >= 4
            and (a.k(1) == 3 or a.k(2) >= 2 or a.k(3) >= 2)
        )

    def n27(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 1)
            and (a.k(1), a.k(2), a.k(3)) == (2, 1, 1)
        )

    def n28(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 1)
            and a.ksum == 0
            and a.weighted_heads > 0
            and a.total < a.full_weight
        )

    def n29(a):
        return a.a0 == 1 and _branch_is(a, 1, 1, 1) and a.weighted_heads == 0 and _heads_all_zero(a)

    def n30(a):
        return (
            a.a0 == 1
            and _branch_is(a, 1, 1, 1)
            and a.ksum == 0
            and a.weighted_heads > 0
            and a.total == a.full_weight
        )

    return (
        n1, n2, n3, n4, n5, n6, n7, n8, n9, n10,
        n11, n12, n13, n14, n15, n16, n17, n18, n19, n20,
        n21, n22, n23, n24, n25, n26, n27, n28, n29, n30,
    )


NEGATIVE_CLASS_PREDICATES = _negative_class_predicates()


def _guarded(classes: Sequence[int]) -> tuple:
    return tuple((c, NEGATIVE_CLASS_PREDICATES[c - 1]) for c in classes)


# The classes whose guard can hold: classes 1-9 need a0 == 0, and each class
# from 10 on needs a0 == 1 and one branch pattern.  Every predicate still
# checks its own guard, so this table can only prune.
_ROOT_ZERO_CLASSES = _guarded(range(1, 10))
_ROOT_ONE_CLASSES = {
    (1, 0, 0): _guarded((10, 11)),
    (0, 1, 0): _guarded((12, 13)),
    (0, 0, 1): _guarded((14, 15)),
    (0, 1, 1): _guarded((16,)),
    (1, 0, 1): _guarded((17, 18, 19, 20)),
    (1, 1, 0): _guarded((21, 22, 23, 24, 25)),
    (1, 1, 1): _guarded((26, 27, 28, 29, 30)),
}


def negative_class_matches(a: FamilyAnalysis) -> tuple[int, ...]:
    """All class predicates matching a map; exactly one is expected for a map
    with negative shadow.  Only the predicates whose guard can hold on a's
    root and branch values are evaluated."""
    if a.a0 == 0:
        group = _ROOT_ZERO_CLASSES
    elif a.a0 == 1:
        group = _ROOT_ONE_CLASSES.get(a.branch, ())
    else:
        return ()
    return tuple(c for c, pred in group if pred(a))


def is_full_weight_class(a: FamilyAnalysis) -> bool:
    """The predicate of class 30, evaluated structurally."""
    return NEGATIVE_CLASS_PREDICATES[29](a)


def only_gap_at_leg_13(a: FamilyAnalysis) -> bool:
    """Class-28 maps whose single empty leg is the third leg of branch 1."""
    return _legs_with(a, (0, 0)) == [(1, 3)]


def marks_head_13(a: FamilyAnalysis) -> bool:
    """Class-19 maps whose position-2 mark falls on the third head of branch
    1: exactly two bare legs on branch 1 with leg 3 among them.

    The published injection for class 19 puts weight 2 on that head.  When
    such a map arises inside the extended-family argument with the foot of
    that leg kept at weight 1, the partner's shadow vanishes and the pairing
    bound fails, so this corner needs the same special treatment the
    published argument gives the class-28 corner.
    """
    return a.k(1) == 2 and a.slice(1).legs[2] == (1, 0)


# ---------------------------------------------------------------------------
# the 29 pairing injections


def _apply_marks(ctx: FamilyContext, w: list[int], i: int, marks: tuple[int, ...]) -> None:
    marked = marked_slice(ctx.slice_locals[i - 1](w), marks)
    if isinstance(marked, str):
        raise PartnerError(f"marking slice {i} with {marks}: {marked}")
    for value, v in zip(marked, ctx.slice_vertices[i - 1]):
        w[v] = value


def _family_index_or_fail(a: FamilyAnalysis, i: int) -> int:
    idx = a.slice(i).family_index
    if idx is None:
        raise PartnerError(f"slice {i} has no marked-family index")
    return idx


def partner(ctx: FamilyContext, a: FamilyAnalysis, cls: int, low_mark: bool = False) -> Weights:
    """The explicit positive partner of a negative map in classes 1..29.

    With low_mark, class 19 marks the position-1 bare leg of branch 1
    instead of position 2: the repair of the corner where the published
    marking hits the third head (see marks_head_13)."""
    lay = ctx.layout
    w = list(a.w)
    if cls == 1:
        _apply_marks(ctx, w, 1, (1,))
    elif cls == 2:
        _apply_marks(ctx, w, 2, (1,))
    elif cls == 3:
        _apply_marks(ctx, w, 3, (1,))
    elif cls == 4:
        j = _family_index_or_fail(a, 3)
        _apply_marks(ctx, w, 2, (3,) if j % 2 == 0 else (4,))
    elif cls == 5:
        i = _family_index_or_fail(a, 2)
        _apply_marks(ctx, w, 3, (4,) if i % 2 == 0 else (3,))
    elif cls == 6:
        j = _family_index_or_fail(a, 3)
        _apply_marks(ctx, w, 1, (1,))
        _apply_marks(ctx, w, 2, (2,) if j % 2 == 1 else (1,))
    elif cls == 7:
        j = _family_index_or_fail(a, 2)
        _apply_marks(ctx, w, 1, (1,))
        _apply_marks(ctx, w, 3, (2,) if j % 2 == 0 else (1,))
    elif cls == 8:
        _apply_marks(ctx, w, 2, (1, 2))
        _apply_marks(ctx, w, 3, ())
    elif cls == 9:
        _apply_marks(ctx, w, 2, (1, 2, 3))
        _apply_marks(ctx, w, 1, ())
        _apply_marks(ctx, w, 3, ())
        w[lay.v0] = 0
    elif cls == 10:
        _apply_marks(ctx, w, 1, (1,))
    elif cls == 11:
        w[lay.foot(1, 1)] = 1
        w[lay.head(1, 3)] = 0
    elif cls == 12:
        _apply_marks(ctx, w, 2, (1,))
    elif cls == 13:
        j = _family_index_or_fail(a, 3)
        _apply_marks(ctx, w, 2, (2,) if j % 2 == 1 else (3,))
    elif cls == 14:
        _apply_marks(ctx, w, 3, (1,))
    elif cls == 15:
        i = _family_index_or_fail(a, 2)
        _apply_marks(ctx, w, 3, (3,) if i % 2 == 1 else (2,))
    elif cls == 16:
        if a.k(2) >= 2:
            _apply_marks(ctx, w, 2, (1, 2))
            _apply_marks(ctx, w, 3, ())
        else:
            _apply_marks(ctx, w, 3, (1, 2))
            _apply_marks(ctx, w, 2, ())
    elif cls == 17:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 1, ())
        _apply_marks(ctx, w, 3, (1,))
    elif cls == 18:
        w[lay.foot(1, 1)] = 1
        w[lay.foot(1, 2)] = 1
        w[lay.branch(3)] = 0
        w[lay.head(1, 3)] = 0
    elif cls == 19:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 1, (1,) if low_mark else (2,))
        _apply_marks(ctx, w, 3, ())
    elif cls == 20:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 3, (2,))
        _apply_marks(ctx, w, 1, ())
    elif cls == 21:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 2, (2,))
        _apply_marks(ctx, w, 1, ())
    elif cls == 22:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 2, (1,))
        _apply_marks(ctx, w, 1, ())
    elif cls == 23:
        w[lay.foot(1, 1)] = 1
        w[lay.foot(1, 2)] = 1
        w[lay.branch(2)] = 0
        w[lay.head(1, 2)] = 0
    elif cls == 24:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 1, ())
        _apply_marks(ctx, w, 2, (1,))
    elif cls == 25:
        w[lay.foot(1, 1)] = 1
        w[lay.foot(1, 2)] = 1
        w[lay.head(1, 1)] = 0
        w[lay.branch(2)] = 0
    elif cls == 26:
        w[lay.v0] = 2
        if a.k(1) == 3:
            _apply_marks(ctx, w, 1, (1, 2))
            _apply_marks(ctx, w, 2, ())
            _apply_marks(ctx, w, 3, ())
        elif a.k(2) >= 2:
            _apply_marks(ctx, w, 1, ())
            _apply_marks(ctx, w, 2, (1, 2))
            _apply_marks(ctx, w, 3, ())
        else:
            _apply_marks(ctx, w, 1, ())
            _apply_marks(ctx, w, 2, ())
            _apply_marks(ctx, w, 3, (1, 2))
    elif cls == 27:
        w[lay.v0] = 2
        _apply_marks(ctx, w, 1, (1,))
        _apply_marks(ctx, w, 2, ())
        _apply_marks(ctx, w, 3, (1,))
    elif cls == 28:
        gaps = _legs_with(a, (0, 0))
        pairs = _legs_with(a, (1, 1))
        if not gaps or not pairs:
            raise PartnerError("class-28 map without an empty leg or a full leg")
        # empty slot: largest branch first, then smallest leg index;
        # full slot: smallest branch, then smallest leg index.
        p, q = max(gaps, key=lambda ij: (ij[0], -ij[1]))
        i, j = min(pairs)
        w[lay.head(p, q)] = 1
        w[lay.head(i, j)] = 0
    elif cls == 29:
        w[lay.branch(1)] = 2
        w[lay.v0] = 0
    else:
        raise PartnerError(f"class {cls} has no pairing injection")
    return tuple(w)


# ---------------------------------------------------------------------------
# the 29 target classes


def _positive_class_predicates():
    def vac(a, i):
        return a.slice(i).vac

    def single(a, i, js, tmin):
        v = vac(a, i)
        return (
            v is not None
            and len(v[0]) == 1
            and v[0][0] in js
            and v[1] >= tmin
        )

    def fam(a, i):
        return a.slice(i).family_index

    def zeros123(a):
        return a.branch == (0, 0, 0)

    def m1(a):
        return a.a0 == 0 and a.slice(1).vac_is((1,), 3) and a.settled(2) and a.settled(3)

    def m2(a):
        return a.a0 == 0 and a.settled(1) and a.settled(3) and a.slice(2).vac_is((1,), 3)

    def m3(a):
        return a.a0 == 0 and a.settled(1) and a.settled(2) and a.slice(3).vac_is((1,), 3)

    def m4(a):
        j = fam(a, 3)
        if j is None or not single(a, 2, (3, 4), 4):
            return False
        return a.a0 == 0 and a.pos(1) and (vac(a, 2)[0][0] + j) % 2 == 1

    def m5(a):
        i = fam(a, 2)
        if i is None or not single(a, 3, (3, 4), 4):
            return False
        return a.a0 == 0 and a.pos(1) and (i + vac(a, 3)[0][0]) % 2 == 0

    def m6(a):
        j = fam(a, 3)
        if j is None or not single(a, 2, (1, 2), 3):
            return False
        return a.a0 == 0 and a.slice(1).vac_is((1,), 3) and (vac(a, 2)[0][0] + j) % 2 == 1

    def m7(a):
        i = fam(a, 2)
        if i is None or not single(a, 3, (1, 2), 3):
            return False
        return a.a0 == 0 and a.slice(1).vac_is((1,), 3) and (i + vac(a, 3)[0][0]) % 2 == 0

    def m8(a):
        v2, v3 = vac(a, 2), vac(a, 3)
        return (
            a.a0 == 0
            and a.pos(1)
            and v2 is not None
            and v2[0] == (1, 2)
            and v2[1] >= 3
            and v3 is not None
            and v3[0] == ()
            and v3[1] >= 3
        )

    def m9(a):
        v2, v3 = vac(a, 2), vac(a, 3)
        return (
            a.a0 == 0
            and a.slice(1).vac_is((), 3)
            and v2 is not None
            and v2[0] == (1, 2, 3)
            and v2[1] >= 3
            and v3 is not None
            and v3[0] == ()
            and v3[1] >= 3
        )

    def m10(a):
        return a.a0 == 1 and a.slice(1).vac_is((1,), 2) and a.settled(2) and a.settled(3)

    def m11(a):
        return _exact_slice1(a, ((1, 1), (1, 0), (0, 0))) and a.branch[1:] == (0, 0)

    def m12(a):
        return (
            a.a0 == 1
            and zeros123(a)
            and a.slice(2).vac_is((1,), 2)
            and a.settled(1)
            and a.settled(3)
        )

    def m13(a):
        j = fam(a, 3)
        if j is None or not single(a, 2, (2, 3), 3):
            return False
        return a.a0 == 1 and zeros123(a) and (vac(a, 2)[0][0] + j) % 2 == 1

    def m14(a):
        return (
            a.a0 == 1
            and zeros123(a)
            and a.settled(1)
            and a.settled(2)
            and a.slice(3).vac_is((1,), 2)
        )

    def m15(a):
        i = fam(a, 2)
        if i is None or not single(a, 3, (2, 3), 3):
            return False
        return a.a0 == 1 and zeros123(a) and (i + vac(a, 3)[0][0]) % 2 == 0

    def m16(a):
        return (
            a.a0 == 1
            and zeros123(a)
            and (
                (a.slice(2).in_family((1, 2)) and a.slice(3).in_family(()))
                or (a.slice(2).in_family(()) and a.slice(3).in_family((1, 2)))
            )
        )

    def m17(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family(())
            and not a.slice(2).in_family((1,))
            and a.slice(3).in_family((1,))
            and a.k(1) + a.k(3) >= 2
        )

    def m18(a):
        return (
            _exact_slice1(a, ((1, 1), (1, 1), (0, 0)))
            and a.branch[1] == 0
            and not a.slice(2).in_family((1,))
            and a.slice(3).in_family(())
        )

    def m19(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family((2,))
            and a.slice(2).in_family((1,))
            and a.slice(3).in_family(())
        )

    def m20(a):
        v3 = vac(a, 3)
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family(())
            and a.slice(2).in_family((1,))
            and v3 is not None
            and v3[0] == (2,)
            and v3[1] >= 2
        )

    def m21(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family(())
            and a.slice(2).in_family((2,))
            and not a.slice(3).in_family((1,))
        )

    def m22(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family(())
            and a.slice(2).vac_is((1,), 1)
            and not a.slice(3).in_family((1,))
            and not a.slice(3).in_family((2,))
        )

    def m23(a):
        return (
            _exact_slice1(a, ((1, 1), (0, 1), (1, 0)))
            and a.branch[1:] == (0, 0)
            and a.slice(2).in_family(())
            and not a.slice(3).in_family((1,))
        )

    def m24(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).in_family(())
            and a.slice(2).in_family((1,))
            and a.slice(3).in_family((1,))
        )

    def m25(a):
        return (
            _exact_slice1(a, ((0, 1), (1, 1), (1, 0)))
            and a.branch[1:] == (0, 0)
            and a.slice(2).in_family(())
            and a.slice(3).in_family((1,))
        )

    def m26(a):
        if not (a.a0 == 2 and zeros123(a)):
            return False
        s1, s2, s3 = a.slice(1), a.slice(2), a.slice(3)
        return (
            (s1.vac_is((1, 2), 3) and s2.in_family(()) and s3.in_family(()))
            or (s1.in_family(()) and s2.in_family((1, 2)) and s3.in_family(()))
            or (s1.in_family(()) and s2.in_family(()) and s3.in_family((1, 2)))
        )

    def m27(a):
        return (
            a.a0 == 2
            and zeros123(a)
            and a.slice(1).vac_is((1,), 2)
            and a.slice(2).vac_is((), 1)
            and a.slice(3).vac_is((1,), 1)
        )

    def m28(a):
        return (
            a.a0 == 1
            and a.branch == (1, 1, 1)
            and a.ksum == 1
            and len(_legs_with(a, (0, 1))) == 1
        )

    def m29(a):
        return (
            a.a0 == 0
            and a.branch == (2, 1, 1)
            and _heads_all_zero(a)
        )

    return (
        m1, m2, m3, m4, m5, m6, m7, m8, m9, m10,
        m11, m12, m13, m14, m15, m16, m17, m18, m19, m20,
        m21, m22, m23, m24, m25, m26, m27, m28, m29,
    )


def _exact_slice1(a: FamilyAnalysis, legs: tuple[tuple[int, int], ...]) -> bool:
    """Root and branch 1 at weight 1, and branch 1's (head, foot) values
    exactly legs."""
    return a.a0 == 1 and a.branch[0] == 1 and a.slice(1).legs == legs


POSITIVE_CLASS_PREDICATES = _positive_class_predicates()


# ---------------------------------------------------------------------------
# exact enumeration of negative maps


class _SlicePattern(NamedTuple):
    """One slice map, its key and the spider class of its core vertices (the
    slice without x, y).  The key (tau, comps, twos, cc0, cc1) is all that
    _join reads, so patterns with equal keys join every partial signature
    alike.  d = cc0 - cc1 is the center component's imbalance (0 unless tau
    is 1); solo_bad says it is unbalanced on its own, internal_bad that
    some other component is."""

    values: Weights
    record: SpiderClass
    tau: int
    key: tuple
    d: int
    solo_bad: bool
    internal_bad: bool


@cache
def _slice_patterns(legs: int, tail: bool) -> dict[Weights, _SlicePattern]:
    """The pattern of every admissible map of one branch slice, by slice map
    in admissible_maps order, built once per slice shape for the process and
    shared by every context: spider2(legs), and with tail the path x, y
    below its third foot, in that vertex order (branch 1 of the star)."""
    g = spider2(legs)
    if tail:
        x = g.n
        g = Graph(x + 2, [*g.edges(), (legs + 3, x), (x, x + 1)])
    shadow = ForestShadow(g)
    return {
        values: _pattern(shadow, values, 2 * legs + 1)
        for values in admissible_maps(g, PATTERN_GUARD)
    }


def _pattern(shadow: ForestShadow, values: Weights, core: int) -> _SlicePattern:
    """The pattern of one slice map, with the spider class of its first
    core values.  The slice center is vertex 0, the root of the slice
    graph's rooted order, so its component comes first."""
    parts = shadow.components(values)
    tau = values[0]
    cc0 = cc1 = 0
    if tau == 1:
        # _join adds the center component to the root's, so it keeps the
        # family graph's colors: the slice graph colors its center 0, the
        # family graph colors it 1.
        cc1, cc0 = parts.pop(0)
    comps = part_pairs(parts)
    d = cc0 - cc1
    return _SlicePattern(
        values, classify_spider(values[:core]), tau, (tau, comps, values.count(2), cc0, cc1),
        d, abs(d) >= 2, any(p - q >= 2 for p, q in comps),
    )


_TAU_ALLOWED = {0: (0, 1, 2), 1: (0, 1), 2: (0,)}


# Partial signature (comps, twos, c0, c1) of the root alone.  (c0, c1) is the
# root's open component: (1, 0) when v0 is 1 (the root has color 0), and
# (0, 0), never joined, otherwise.
_ROOT_STATE = {0: ((), 0, 0, 0), 1: ((), 0, 1, 0), 2: ((), 1, 0, 0)}


def _join(v0val: int, acc: tuple, key: tuple) -> tuple:
    """Attach a slice pattern, given by its key, below the root of a partial
    signature: the slice brings its own components and weight-2 vertices,
    and its center component merges into the root's when v0 is 1 and stands
    alone otherwise.  The result is canonical, its comps sorted, so equal
    partial signatures are equal tuples: the enumerator's memos and the
    signature counts key on it as it is."""
    tau, pcomps, ptwos, cc0, cc1 = key
    comps, twos, c0, c1 = acc
    comps += pcomps
    if tau == 1:
        if v0val == 1:
            c0 += cc0
            c1 += cc1
        else:
            comps += ((cc0, cc1) if cc0 >= cc1 else (cc1, cc0),)
    return tuple(sorted(comps)), twos + ptwos, c0, c1


def _close(acc: tuple) -> Signature:
    """The shadow signature of a partial signature with every slice joined."""
    comps, twos, c0, c1 = acc
    if c0:
        comps += ((c0, c1) if c0 >= c1 else (c1, c0),)
    return tuple(sorted(comps)), twos


@cache
def _joined_expansion(
    v0val: int, key1: tuple, key2: tuple, key3: tuple
) -> Mapping[tuple[int, int], int]:
    """The shadow expansion of root value v0val over slice patterns with
    these three keys, joined once per process for every context and cell:
    the process-wide cached object of its signature."""
    acc = _join(v0val, _join(v0val, _join(v0val, _ROOT_STATE[v0val], key1), key2), key3)
    return expansion_from_signature(_close(acc))


def _count_maps(slices: Sequence[Mapping[Weights, _SlicePattern]]) -> tuple[int, int]:
    """The numbers of admissible and of negative maps, folded over v0 and
    each slice's pattern keys by (tau, imbalances of comps, cc0 - cc1).  A
    sign needs only the imbalances, so the state is the sorted closed ones
    and the signed imbalance of the root's component, open at v0 = 1.  It
    counts every combination, not only those negative_members prunes to,
    and calls neither _join nor _close, so it shares no step with it."""
    groups = [
        Counter(
            (tau, imbalances(comps), cc0 - cc1)
            for tau, comps, _, cc0, cc1 in (p.key for p in patterns.values())
        )
        for patterns in slices
    ]
    admissible = negative = 0
    for v0val, allowed in _TAU_ALLOWED.items():
        states = {((), int(v0val == 1)): 1}
        for sizes in groups:
            folded: dict[tuple, int] = {}
            for (tau, ds, d), size in sizes.items():
                if tau not in allowed:
                    continue
                if v0val != 1 and d:  # the center component closes alone
                    ds, d = (*ds, abs(d)), 0
                for (closed, root), c in states.items():
                    key = (tuple(sorted(closed + ds)), root + d)
                    folded[key] = folded.get(key, 0) + c * size
            states = folded
        for (closed, root), c in states.items():
            admissible += c
            if imbalances_negative(tuple(sorted((*closed, abs(root)))) if root else closed):
                negative += c
    return admissible, negative


def negative_members(ctx: FamilyContext) -> Iterator[tuple[Weights, dict, FamilyAnalysis]]:
    """All weight maps with negative two-row shadow, with their expansions
    and the class analysis of their core restriction.

    Exact for every (m, n) within the pattern guard: candidates require an
    unbalanced component, which must either sit inside one slice or on the
    spine through the root.  The analysis is joined from the records the
    map's three slice patterns carry.
    """
    slices = ctx.slice_patterns
    core_n = len(ctx.layout.core_vertices())
    place = ctx.place

    def emit(v0val: int, pools) -> Iterator[tuple[Weights, dict, FamilyAnalysis]]:
        """The negative maps among pools[0] x pools[1] x pools[2], in that
        product's order.

        Whether p3 closes a prefix to a negative map depends only on the
        prefix's sorted partial signature and on p3's key, so the
        pools[2] members that close negative, with their expansions, are
        found once per sorted partial signature.  Likewise which p2 leave
        some closing member depends only on the sorted partial signature
        after p1, so each p1 walks the (p2, members) pairs of its signature,
        listed once, and only those."""
        root = _ROOT_STATE[v0val]
        closing: dict[tuple, list[tuple[_SlicePattern, dict]]] = {}
        rows: dict[tuple, list[tuple[_SlicePattern, list]]] = {}
        for p1 in pools[0]:
            acc1 = _join(v0val, root, p1.key)
            row = rows.get(acc1)
            if row is None:
                row = rows[acc1] = []
                for p2 in pools[1]:
                    acc2 = _join(v0val, acc1, p2.key)
                    members = closing.get(acc2)
                    if members is None:
                        by_key: dict[tuple, dict] = {}
                        for p3 in pools[2]:
                            if p3.key not in by_key:
                                sig = _close(_join(v0val, acc2, p3.key))
                                negative = imbalances_negative(imbalances(sig[0]))
                                by_key[p3.key] = expansion_from_signature(sig) if negative else None
                        members = closing[acc2] = [
                            (p3, by_key[p3.key]) for p3 in pools[2] if by_key[p3.key] is not None
                        ]
                    if members:
                        row.append((p2, members))
            r1 = p1.record
            head = (v0val, *p1.values)
            for p2, members in row:
                r2 = p2.record
                prefix = head + p2.values
                for p3, expansion in members:
                    w = place(prefix + p3.values)
                    yield w, expansion, _join_analysis(w[:core_n], r1, r2, p3.record)

    for v0val in (0, 1, 2):
        allowed = [
            [p for p in patterns.values() if p.tau in _TAU_ALLOWED[v0val]] for patterns in slices
        ]
        # A root component is unbalanced on its own only when v0 is not 1;
        # with v0 at 1 it joins the spine, handled by the d grouping below.
        solo = v0val != 1
        bad = [
            [p for p in pats if p.internal_bad or (solo and p.solo_bad)] for pats in allowed
        ]
        good = [
            [p for p in pats if not (p.internal_bad or (solo and p.solo_bad))]
            for pats in allowed
        ]
        for i in range(3):
            yield from emit(v0val, (*good[:i], bad[i], *allowed[i + 1 :]))
        if v0val == 1:
            by_d = []
            for pats in good:
                groups: dict[int, list] = {}
                for p in pats:
                    groups.setdefault(p.d, []).append(p)
                by_d.append(sorted(groups.items()))
            for (d1, g1), (d2, g2), (d3, g3) in iproduct(*by_d):
                if abs(1 + d1 + d2 + d3) >= 2:
                    yield from emit(1, (g1, g2, g3))


# ---------------------------------------------------------------------------
# verification drivers


def _coverage_report(ctx: FamilyContext, negatives: list[bytes]) -> CheckReport:
    """Confirm that the enumerated maps are exactly the admissible maps with
    negative shadow.  The map counts give the number of admissible maps,
    checked against count_admissible, and the number of negative ones; the
    enumerated maps must be distinct, each negative under the family's own
    ForestShadow, and exactly that many.  The maps come packed, as
    bytes(map), and the set of seen maps holds those same objects.

    This audit is the certificate's independent confirmation of the
    pattern table: the enumerator, the partner shadows, the pair sums, the
    base target analysis and partner_star's refusal path all join slice
    patterns with _join, and only this report reads the literal family
    graph and its ForestShadow.  The counts fold the table without _join,
    so a join that loses negative maps makes them disagree."""
    t0 = time.perf_counter()
    rep = CheckReport("negative-coverage", ctx.m, ctx.n)
    rep.cases = ctx.map_counts[0]
    admissible = count_admissible(ctx.graph)
    if rep.cases != admissible:
        rep.record(
            None, f"the pattern table counts {rep.cases} admissible maps, count_admissible {admissible}"
        )
    seen: set[bytes] = set()
    for w in negatives:
        if w in seen:
            rep.record(w, "map enumerated twice")
        elif not ctx.shadow.negative(w):
            rep.record(w, "enumerated map is not negative")
        seen.add(w)
    if len(seen) != ctx.negative_count:
        rep.record(None, f"enumerated {len(seen)} negative maps, counted {ctx.negative_count}")
    rep.elapsed = time.perf_counter() - t0
    return rep


def _pairing_reports(
    ctx: FamilyContext, prefix: str, label: str, final: int, classify, pair, target
) -> list[CheckReport]:
    """The pairing argument of both families: classify(w, a) puts each
    negative map in a class, where a is the analysis negative_members yields
    with w, the final class may reach only the top diagonal, and every other
    class is paired through pair(w, a, cls); target(beta, cls, pats) says
    how a partner misses its target class, or returns None, where pats are
    the partner's slice patterns (None for a zero-shadow partner).  Returns
    the six pairing reports, then the diagonal report and the coverage
    audit of the enumerated maps.

    Every map kept past its own iteration, each negative map and each
    realized partner with the map it came from, is stored packed as
    bytes(map), about a quarter of a tuple's size.  A violation is recorded
    from the tuple, or unpacked by CheckReport.record, so the reports are
    the same.

    A partner's shadow comes from the pattern table (see
    FamilyContext.pattern_expansion), and whether the partner's shadow and
    the pair sum have a negative coefficient is decided once per (negative
    signature, partner signature) pair; for the base family the target
    analysis joins the partner's pattern records.  All of these share _join
    and the records with the enumerator, so they are not independent of
    it: the coverage audit confirms the table against the family graph."""
    t0 = time.perf_counter()
    m, n = ctx.m, ctx.n
    bound = _diagonal_bound(m, n)
    lemmas = (
        "class-partition", "final-class-vanishing", "image-in-target",
        "target-disjointness", "pairing-positivity", "pair-injectivity",
    )
    reports = [CheckReport(prefix + lemma, m, n) for lemma in lemmas]
    rep_partition, rep_vanish, rep_image, rep_disjoint, rep_pairing, rep_inject = reports
    images: dict[bytes, tuple[int, bytes]] = {}
    negatives: list[bytes] = []
    # (id(exp), id(bexp)) -> (exp, bexp, whether the partner's expansion
    # and the pair sum have a negative coefficient).  Both expansions are
    # the cached objects of their signatures, and the entry holds them, so
    # neither id can pass to another dict while the memo lives.
    pair_signs: dict[tuple[int, int], tuple] = {}
    for w, exp, a in negative_members(ctx):
        packed = bytes(w)
        negatives.append(packed)
        matches = classify(w, a)
        rep_partition.cases += 1
        if len(matches) != 1:
            rep_partition.record(w, f"matches {label}es {matches}")
            continue
        cls = matches[0]
        if cls == final:
            rep_vanish.cases += 1
            for (x, y), c in exp.items():
                if c and x == y < bound:
                    rep_vanish.record(w, f"diagonal coefficient at {x} is nonzero")
            continue
        try:
            beta = pair(w, a, cls)
        except PartnerError as exc:
            rep_image.record(w, f"{label} {cls}: {exc}")
            continue
        bexp, bpats = ctx.pattern_expansion(beta)
        key = (id(exp), id(bexp))
        signs = pair_signs.get(key)
        if signs is None:
            signs = pair_signs[key] = (
                exp,
                bexp,
                min_coefficient(bexp) < 0,
                min_coefficient(add_expansions(exp, bexp)) < 0,
            )
        rep_image.cases += 1
        if signs[2]:
            rep_image.record(beta, f"{label} {cls}: partner shadow is negative")
        miss = target(beta, cls, bpats)
        if miss is not None:
            rep_image.record(w, f"{label} {cls}: {miss}")
        # The target classes are audited on realized partners: two negative
        # maps must never share a partner, across classes (disjointness of
        # the realized targets) or within one (per-class injectivity).
        rep_disjoint.cases += 1
        rep_inject.cases += 1
        rep_pairing.cases += 1
        if signs[3]:
            rep_pairing.record(w, f"{label} {cls}: pair sum has a negative coefficient")
        packed_beta = bytes(beta)
        prev = images.get(packed_beta)
        if prev is not None and prev != (cls, packed):
            if prev[0] != cls:
                rep_disjoint.record(
                    beta, f"partner realized from classes {prev[0]} and {cls}"
                )
            else:
                rep_inject.record(beta, f"two class-{cls} maps share a partner")
        images[packed_beta] = (cls, packed)
    spent = time.perf_counter() - t0
    for rep in reports:
        rep.elapsed = spent
    return reports + [_diagonal_report(ctx.family, ctx.m, ctx.n), _coverage_report(ctx, negatives)]


def _check_negative_count(ctx: FamilyContext) -> None:
    """Refuse a battery whose negative maps exceed MAX_NEGATIVES, from the
    exact count, before any map is enumerated."""
    if ctx.negative_count > MAX_NEGATIVES:
        raise EnumerationGuardError(
            f"{ctx.family}({ctx.m},{ctx.n}) has {ctx.negative_count:,} negative maps,"
            f" more than the limit of {MAX_NEGATIVES:,}"
        )


def verify_base(m: int, n: int) -> list[CheckReport]:
    """Run the full pairing-certificate battery for the base family at (m, n)."""
    ctx = FamilyContext("t3mn", m, n)
    _check_negative_count(ctx)

    def target(beta: Weights, cls: int, pats) -> Optional[str]:
        if pats is None:
            a = analyze_map(ctx, beta)
        else:
            a = _join_analysis(beta, pats[0].record, pats[1].record, pats[2].record)
        if POSITIVE_CLASS_PREDICATES[cls - 1](a):
            return None
        return "partner misses its target class"

    return _pairing_reports(
        ctx, "", "class", 30,
        classify=lambda w, a: negative_class_matches(a),
        pair=lambda w, a, cls: partner(ctx, a, cls),
        target=target,
    )


def _diagonal_bound(m: int, n: int) -> int:
    """The first diagonal index the certificates leave unchecked, for both
    families: the diagonal Schur coefficients 1 .. m + n + 4 must be
    nonnegative, and a final-class map may have no diagonal term below
    m + n + 5.

    Those coefficients are the log-concavity defects at 1 .. m + n + 4, so
    i_0 .. i_(m+n+5) is unimodal, and it overlaps the weakly decreasing
    tail from intpoly.tail_start(degree) on.  The base family has degree
    m + n + 6, its tail starting at most at m + n + 4; the star has degree
    m + n + 7, its tail starting at ceil((2m + 2n + 13)/3), at most
    m + n + 5.  So the star's bound is not one below its top diagonal
    m + n + 6: its class-4 maps reach the diagonals m + n + 5 and m + n + 6
    with negative terms, and a bound taken from its degree would record
    the ones at m + n + 5 as violations."""
    return m + n + 5


def _diagonal_report(family: str, m: int, n: int) -> CheckReport:
    """Diagonal Schur coefficients of the weight-map generating function are
    nonnegative below _diagonal_bound."""
    t0 = time.perf_counter()
    rep = CheckReport("y-diagonal-nonnegative", m, n)
    exp = schur_expand(f_p_2var(family_poly(family, m, n)))
    for k in range(1, _diagonal_bound(m, n)):
        rep.cases += 1
        if exp.diagonal(k) < 0:
            rep.record(None, f"diagonal coefficient at {k} is negative")
    rep.elapsed = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# the extended family


def star_class_matches(ctx: FamilyContext, w: Sequence[int], core: FamilyAnalysis) -> tuple[int, ...]:
    """The four class predicates of the extended family, evaluated on the
    full map with the core analysis of its restriction."""
    lay = ctx.layout
    wx, wy = w[lay.x], w[lay.y]
    core_total = core.total
    last = is_full_weight_class(core)
    limit = core.full_weight - 3
    matches = []
    if wx != 1 and not last:
        matches.append(1)
    if wx == 1 and wy == 1 and not last:
        matches.append(2)
    if wx == 1 and wy == 0 and core_total <= limit:
        matches.append(3)
    if last or (wx == 1 and wy == 0 and core_total >= limit + 1):
        matches.append(4)
    return tuple(matches)


def partner_star(
    ctx: FamilyContext,
    core_ctx: FamilyContext,
    w: Sequence[int],
    cls: int,
    repair_corner: bool = False,
) -> Weights:
    """The pairing injection of the extended family for classes 1..3.

    Classes 1 and 2 repair the core restriction; class 3 repairs the core
    with the third foot of branch 1 vacated and keeps that foot, so the
    injection must avoid the full-weight class and the class-28 corner whose
    only empty leg is that exact leg.

    With repair_corner the class-19 corner (see marks_head_13) is routed
    through the position-1 marking; without it the published map is applied
    verbatim, which leaves that corner's pairing bound falsifiable.

    The core step is read from core_ctx.core_steps.  A core map missing
    there is refused; its pattern-table shadow then tells a positive core
    map from a negative one the core enumeration missed.
    """
    lay = ctx.layout
    core_n = core_ctx.layout.size
    if cls in (1, 2):
        gamma = tuple(w[:core_n])
    elif cls == 3:
        g = list(w[:core_n])
        g[lay.foot(1, 3)] = 0
        gamma = tuple(g)
    else:
        raise PartnerError(f"star class {cls} has no pairing injection")
    step = core_ctx.core_steps.get(bytes(gamma))
    if step is None:
        if min_coefficient(core_ctx.pattern_expansion(gamma)[0]) >= 0:
            raise PartnerError("core restriction is not negative")
        raise PartnerError("core restriction is negative but not enumerated")
    if isinstance(step, str):
        raise PartnerError(step)
    if cls == 3 and step.corner:
        raise PartnerError("core restriction falls in the excluded corner case")
    mu = step.repaired if repair_corner and cls == 3 else step.published
    if isinstance(mu, str):
        raise PartnerError(mu)
    out = [*mu, *w[core_n:]]
    if cls == 3:
        out[lay.foot(1, 3)] = w[lay.foot(1, 3)]
    return tuple(out)


def verify_star(m: int, n: int, repair_corner: bool = False) -> list[CheckReport]:
    """Run the full pairing-certificate battery for the extended family.

    The default applies the published injections verbatim, which records
    violations on the class-19 corner (see marks_head_13); repair_corner
    switches that corner to the position-1 marking and the battery is then
    expected to be violation free.
    """
    ctx = FamilyContext("t3mn_star", m, n)
    _check_negative_count(ctx)
    core_ctx = FamilyContext("t3mn", m, n)
    # the core's pairing table is built here, so the star loop's time is
    # star pairing alone
    core_ctx.core_steps
    lay = ctx.layout

    def target(beta: Weights, cls: int, pats) -> Optional[str]:
        landed = 1 if beta[lay.x] != 1 else (2 if beta[lay.y] == 1 else 3)
        return None if landed == cls else f"partner lands in class {landed}"

    reports = _pairing_reports(
        ctx, "star-", "star class", 4,
        classify=lambda w, core: star_class_matches(ctx, w, core),
        pair=lambda w, core, cls: partner_star(ctx, core_ctx, w, cls, repair_corner),
        target=target,
    )
    return reports + [
        *_repair_locality_reports(core_ctx, repair_corner),
        check_path_append_identities(),
    ]


def _repair_locality_reports(
    core_ctx: FamilyContext, repair_corner: bool
) -> tuple[CheckReport, CheckReport]:
    """Two locality properties of the core pairing map used by the extended
    argument: the third foot of branch 1 is always preserved, and the third
    head of branch 1 never increases outside the excluded class-28 corner.

    The head property is falsified by the published class-19 map on its own
    corner; with repair_corner the variant marking is applied there and the
    property is expected to hold.
    """
    t0 = time.perf_counter()
    lay = core_ctx.layout
    foot13 = lay.foot(1, 3)
    head13 = lay.head(1, 3)
    rep_foot = CheckReport("partner-preserves-foot13", core_ctx.m, core_ctx.n)
    rep_head = CheckReport("partner-monotone-head13", core_ctx.m, core_ctx.n)
    for w, step in core_ctx.core_steps.items():
        # Repair changes only class 19, and there both markings need the
        # same anchored slices, so the published step fails exactly when the
        # repaired one does.
        if isinstance(step, str):
            continue
        beta = step.repaired if repair_corner else step.published
        if isinstance(beta, str):
            continue
        rep_foot.cases += 1
        if beta[foot13] != w[foot13]:
            rep_foot.record(w, f"class {step.cls}: foot value changed")
        if not step.corner:
            rep_head.cases += 1
            if w[head13] < beta[head13]:
                rep_head.record(w, f"class {step.cls}: head value increased")
    spent = time.perf_counter() - t0
    rep_foot.elapsed = spent
    rep_head.elapsed = spent
    return rep_foot, rep_head


def check_path_append_identities() -> CheckReport:
    """Product identities for appending a length-two path at a vertex v with
    new vertices c, d: factor by the d-vertex shadow when c has weight 0, by
    the pair shadow when c has weight 2 and the total shadow is nonzero, by
    the pair shadow when v, c, d all have weight 1, and by twice the pair
    shadow when c, d have weight 1 and v has weight 0."""
    t0 = time.perf_counter()
    rep = CheckReport("path-append-identities")
    pair = chromatic_multicolor_2var(Graph(1, [], ["c"]), (2,))
    bases = [
        Graph(1, [], ["a"]),
        path_graph(2),
        path_graph(3),
        spider2(2),
    ]
    dshadows = [chromatic_multicolor_2var(Graph(1, [], ["d"]), (dval,)) for dval in (0, 1, 2)]
    for base in bases:
        base_maps = list(iproduct((0, 1, 2), repeat=base.n))
        # right-hand sides once per base map: inner * dshadows[d] for each d,
        # inner * pair and 2 * inner * pair
        rhss = []
        for base_w in base_maps:
            inner = chromatic_multicolor_2var(base, base_w)
            paired = inner * pair
            rhss.append(([inner * ds for ds in dshadows], paired, 2 * paired))
        for v in range(base.n):
            edges = base.edges() + [(v, base.n), (base.n, base.n + 1)]
            labels = list(base.labels) + ["c*", "d*"]
            gv = Graph(base.n + 2, edges, labels)
            for base_w, (by_d, paired, twice_paired) in zip(base_maps, rhss):
                for cval, dval in iproduct((0, 1, 2), repeat=2):
                    if cval == 1 and (dval != 1 or base_w[v] == 2):
                        continue  # no identity covers this shape
                    w = base_w + (cval, dval)
                    lhs = chromatic_multicolor_2var(gv, w)
                    if cval == 0:
                        shape, rhs = "weight-0", by_d[dval]
                    elif cval == 2:
                        if lhs.is_zero:
                            continue
                        shape, rhs = "weight-2", paired
                    elif w[v] == 1:  # cval, dval are 1 and w[v] is 0 or 1
                        shape, rhs = "full-path", paired
                    else:
                        shape, rhs = "detached-path", twice_paired
                    rep.cases += 1
                    if lhs != rhs:
                        rep.record(w, f"{shape} factorization fails on {base.labels}")
    rep.elapsed = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# theorem-level summary


@dataclass(frozen=True)
class ChainSummary:
    """The complete unimodality chain for one family member: the
    certificate's diagonal report (coefficients 1 .. m + n + 4 nonnegative,
    so the coefficient prefix is log-concave), the decreasing tail bound,
    and the directly computed verdicts."""

    family: str
    m: int
    n: int
    prefix_log_concave: bool
    tail_ok: bool
    direct_unimodal: bool
    direct_log_concave: bool

    @property
    def chain_unimodal(self) -> bool:
        return self.prefix_log_concave and self.tail_ok

    @property
    def consistent(self) -> bool:
        return self.chain_unimodal and self.direct_unimodal


def verify_chain(m: int, n: int, family: str = "t3mn") -> ChainSummary:
    report = analyze(family_poly(family, m, n))
    return ChainSummary(
        family=family,
        m=m,
        n=n,
        prefix_log_concave=_diagonal_report(family, m, n).ok,
        tail_ok=report.tail_ok,
        direct_unimodal=report.unimodal,
        direct_log_concave=report.log_concave,
    )
