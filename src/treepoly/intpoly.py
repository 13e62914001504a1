"""Exact independence polynomials and coefficient-sequence diagnostics.

Coefficients are plain Python integers, so arbitrarily large scan ranges can
never overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .graphs import NotAForestError  # noqa: F401  (re-exported: raised by indpoly_tree)
from .graphs import family_graph  # noqa: F401  (re-exported: the tree of a family_poly cell)
from .graphs import Graph, family_layout, rooted_forest

BRUTE_FORCE_LIMIT = 30


class GuardLimitError(RuntimeError):
    """Raised when an input exceeds a size guard meant for oracle use."""


class IntPoly:
    """Univariate polynomial with exact integer coefficients, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        if a == (1,):
            return other
        if b == (1,):
            return self
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    def shifted(self, k: int = 1) -> "IntPoly":
        """Multiply by t**k."""
        return IntPoly((0,) * k + self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


ONE = IntPoly((1,))


def indpoly_bruteforce(g: Graph) -> IntPoly:
    """Count independent sets of every size by pruned subset enumeration.

    This is the oracle path; BRUTE_FORCE_LIMIT keeps it at desk scale.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise GuardLimitError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices, got {g.n}")
    nbr = [0] * g.n
    for v in range(g.n):
        mask = 0
        for w in g.adj[v]:
            mask |= 1 << w
        nbr[v] = mask
    counts = [0] * (g.n + 1)

    def walk(avail: int, size: int) -> None:
        counts[size] += 1
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            walk(m & ~nbr[v], size + 1)

    walk((1 << g.n) - 1, 0)
    return IntPoly(counts)


def indpoly_tree(g: Graph) -> IntPoly:
    """Independence polynomial of a forest by rooted dynamic programming:
    excl[u] counts the sets of u's subtree that avoid u, the product of its
    children's totals, and x held[u] those that hold u, held[u] the product
    of its children's excl."""
    order, parent = rooted_forest(g)
    excl = [ONE] * g.n
    held = [ONE] * g.n
    result = ONE
    for u in reversed(order):
        pu = parent[u]
        total = excl[u] + held[u].shifted(1)
        if pu == -1:
            result = result * total
        else:
            excl[pu] = excl[pu] * total
            held[pu] = held[pu] * excl[u]
    return result


@dataclass(frozen=True)
class SequenceReport:
    """Shape diagnostics of a nonnegative coefficient sequence."""

    unimodal: bool
    log_concave: bool
    breaks: tuple[int, ...]
    mode_range: tuple[int, int]
    tail_ok: bool


def tail_start(degree: int) -> int:
    """First index of the guaranteed weakly decreasing tail, ceil((2t-1)/3)."""
    if degree <= 0:
        return 0
    return -(-(2 * degree - 1) // 3)


def analyze(p: IntPoly) -> SequenceReport:
    """Unimodality, log-concavity breaks, mode interval and tail check.

    Plateaus count as unimodal; a break is a middle index k with
    c_k^2 < c_{k-1} c_{k+1}.
    """
    cs = p.coeffs
    if not cs:
        raise ValueError("empty polynomial has no coefficient sequence")
    if any(c < 0 for c in cs):
        raise ValueError("negative coefficient")
    deg = len(cs) - 1
    breaks = tuple(
        k for k in range(1, deg) if cs[k] * cs[k] < cs[k - 1] * cs[k + 1]
    )
    peak = max(cs)
    lo = cs.index(peak)
    hi = deg - tuple(reversed(cs)).index(peak)
    descended = False
    unimodal = True
    for k in range(deg):
        if cs[k + 1] < cs[k]:
            descended = True
        elif cs[k + 1] > cs[k] and descended:
            unimodal = False
            break
    start = tail_start(deg)
    tail_ok = all(cs[k] >= cs[k + 1] for k in range(start, deg))
    return SequenceReport(
        unimodal=unimodal,
        log_concave=not breaks,
        breaks=breaks,
        mode_range=(lo, hi),
        tail_ok=tail_ok,
    )


# ---------------------------------------------------------------------------
# family scans


def _row(a: int, b: int) -> IntPoly:
    """P(a, b) = (1+x)^a (1+2x)^b, the one source of the printed
    coefficients.  From (1+x)(1+2x) P' = (a + 2b + 2(a+b) x) P, read at x^k:

        (k+1) p_(k+1) = (a+2b-3k) p_k + 2(a+b-k+1) p_(k-1),

    and each division is exact."""
    row, prev = [1], 0
    for k in range(a + b):
        row.append(((a + 2 * b - 3 * k) * row[k] + 2 * (a + b - k + 1) * prev) // (k + 1))
        prev = row[k]
    return IntPoly(row)


def spider_poly(k: int, r: int) -> IntPoly:
    """The independence polynomial of spider12(k, r), k legs of length one
    and r of length two.

    A set either avoids the centre, and then each pendant is free and each
    leg is a free path of two, or holds it, and then the pendants and the
    heads are out and each foot is free:

        I(spider12(k, r)) = P(k, r) + x P(r, 0).

    spider2(n) is spider12(0, n), so its polynomial is spider_poly(0, n).
    """
    if k < 0 or r < 0:
        raise ValueError("leg counts must be nonnegative")
    return _row(k, r) + _row(r, 0).shifted()


def family_poly(family: str, m: int, n: int) -> IntPoly:
    """The independence polynomial of family_graph(family, m, n), from its
    closed form.

    Rooted at v0, the tree is the root over three branches, branch i a
    spider over its legs (3, m and n of them), each leg a path of two
    rooted at its head.  A set either avoids the root, and then takes one
    factor per branch, B_k = (1+2x)^k + x (1+x)^k = spider_poly(0, k) for a
    spider of k legs (centre out, or centre in with every head out); or it
    holds the root, and then every centre is out and each leg is a free
    path of two:

        I(T_{3,m,n}) = B_3 B_m B_n + x (1+2x)^(3+m+n).

    In the star, leg (1,3) is the path head, foot, x, y, a path of four:
    I(P4) = 1 + 4x + 3x^2, and 1 + 3x + x^2 without its head.  So branch 1
    gives (1+2x)^2 (1+4x+3x^2) + x (1+x)^2 (1+3x+x^2) in place of B_3, and
    the root term is x (1+2x)^(2+m+n) (1+4x+3x^2).

    With P(a, b) = (1+x)^a (1+2x)^b, the long product expands as

        B_m B_n = P(0, m+n) + x [P(m, n) + P(n, m)] + x^2 P(m+n, 0),

    so every product is a factor of degree at most 5 times one long sum of
    rows.  All but the middle term depend on the family and m + n alone:
    they and the root term are one entry of the diagonal cache, and the
    cell adds x times branch 1's factor times P(m, n) + P(n, m).  Branches
    2 and 3 are alike, so (m, n) and (n, m) are one tree and one entry of
    the cell cache.
    """
    lay = family_layout(family, m, n)
    return _cell_poly(lay.star, min(m, n), max(m, n))


# I(P4) of the star's leg (1,3), and branch 1's factor by star: B_3, or the
# star's (1+2x)^2 I(P4) + x (1+x)^2 (1+3x+x^2).
_PATH4 = IntPoly((1, 4, 3))
_BRANCH1 = (
    spider_poly(0, 3),
    _row(0, 2) * _PATH4 + (_row(2, 0) * IntPoly((1, 3, 1))).shifted(),
)


@lru_cache(maxsize=None)
def _cell_poly(star: bool, m: int, n: int) -> IntPoly:
    """family_poly of the cell (m, n), m <= n, of the base or star family:
    its diagonal's part plus x branch1 [P(m, n) + P(n, m)]."""
    own = _BRANCH1[star] * (_row(m, n) + _row(n, m))
    return _diagonal_poly(star, m + n) + own.shifted()


@lru_cache(maxsize=None)
def _diagonal_poly(star: bool, total: int) -> IntPoly:
    """The part of family_poly shared by every cell with m + n = total:
    branch1 [P(0, total) + x^2 P(total, 0)] plus the root term."""
    if star:
        root = (_PATH4 * _row(0, 2 + total)).shifted()
    else:
        root = _row(0, 3 + total).shifted()
    return _BRANCH1[star] * (_row(0, total) + _row(total, 0).shifted(2)) + root


@dataclass(frozen=True)
class ScanRow:
    family: str
    m: Optional[int]
    n: int
    poly: IntPoly
    report: SequenceReport

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "coeffs": [str(c) for c in self.poly.coeffs],
            "unimodal": self.report.unimodal,
            "log_concave": self.report.log_concave,
            "breaks": list(self.report.breaks),
            "tail_ok": self.report.tail_ok,
        }


def scan_row(family: str, m: int, n: int) -> ScanRow:
    poly = family_poly(family, m, n)
    return ScanRow(family, m, n, poly, analyze(poly))

