"""Exact independence polynomials and coefficient-sequence diagnostics.

Coefficients are plain Python integers, so arbitrarily large scan ranges can
never overflow silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .graphs import NotAForestError  # noqa: F401  (re-exported: raised by indpoly_tree)
from .graphs import Graph, rooted_forest, t3mn, t3mn_star

BRUTE_FORCE_LIMIT = 30

FAMILY_BUILDERS = {
    "t3mn": t3mn,
    "t3mn_star": t3mn_star,
}


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

    def __pow__(self, k: int) -> "IntPoly":
        """self**k by repeated squaring; k must be a nonnegative integer."""
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        result, base = ONE, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shifted(self, k: int = 1) -> "IntPoly":
        """Multiply by t**k."""
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


ONE = IntPoly((1,))


def indpoly_bruteforce(g: Graph, limit: int = BRUTE_FORCE_LIMIT) -> IntPoly:
    """Count independent sets of every size by pruned subset enumeration.

    This is the oracle path; the guard keeps it at desk scale.
    """
    if g.n > limit:
        raise GuardLimitError(f"brute force limited to {limit} vertices, got {g.n}")
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
    """Independence polynomial of a forest by rooted dynamic programming,
    done once per shape of rooted subtree.

    Every vertex carries the pair (sets avoiding it, sets containing it).  A
    vertex's shape is the sorted tuple of its children's shape ids, interned
    for this call only, so isomorphic rooted subtrees share one pair.  A run
    of k children of one shape enters as a k-th power.
    """
    order, parent = rooted_forest(g)
    adj = g.adj
    shape = [0] * g.n
    ids: dict[tuple[int, ...], int] = {}
    pairs: list[tuple[IntPoly, IntPoly]] = []  # (excl, excl + incl) per shape id
    result = ONE
    for u in reversed(order):
        pu = parent[u]
        key = tuple(sorted([shape[w] for w in adj[u] if w != pu]))
        sid = ids.get(key)
        if sid is None:
            excl = incl = ONE
            for child, run in groupby(key):
                k = sum(1 for _ in run)
                e, total = pairs[child]
                excl = excl * total**k
                incl = incl * e**k
            sid = ids[key] = len(pairs)
            pairs.append((excl, excl + incl.shifted(1)))
        shape[u] = sid
        if pu == -1:
            result = result * pairs[sid][1]
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


def family_graph(family: str, m: int, n: int) -> Graph:
    try:
        builder = FAMILY_BUILDERS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return builder(m, n)


@dataclass(frozen=True)
class ScanRow:
    family: str
    m: int
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
    poly = indpoly_tree(family_graph(family, m, n))
    return ScanRow(family, m, n, poly, analyze(poly))


def scan_families(
    family: str,
    m_values: Sequence[int],
    n_values: Sequence[int],
    cells: Optional[Sequence[tuple[int, int]]] = None,
) -> list[ScanRow]:
    """One report per grid cell, rows ordered by (m, n).

    Pass explicit cells to scan a diagonal or any other sparse set.
    """
    if cells is None:
        cells = [(m, n) for m in m_values for n in n_values]
    return [scan_row(family, m, n) for m, n in cells]
