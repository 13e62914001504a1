"""Two-variable shadow of symmetric functions and its two-row Schur basis.

Every statement this package verifies lives in partitions with at most two
rows, where specializing to x1, x2 is faithful: schur polynomials s_(a,b) of
two variables are linearly independent and all longer shapes vanish.
Products are then plain polynomial multiplication and coefficient extraction
is the bialternant trick: [s_(a,b)] f equals the coefficient of
x1^(a+1) x2^b in f * (x1 - x2).
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial, prod
from typing import Mapping, Sequence, Union

from .graphs import Graph, NotAForestError, clan_offsets
from .intpoly import IntPoly, indpoly_bruteforce, indpoly_tree


class AsymmetricInputError(ValueError):
    """Raised when a routine requiring x1 <-> x2 symmetry gets an asymmetric input."""


class InexactDivisionError(ArithmeticError):
    """Raised when a normalization that must be exact leaves a remainder."""


def _mul_terms(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (p, q), ca in a.items():
        for (r, s), cb in b.items():
            key = (p + r, q + s)
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _add_terms(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int], sign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        val = out.get(key, 0) + sign * c
        if val:
            out[key] = val
        elif key in out:
            del out[key]
    return out


class SymPoly2:
    """Polynomial in x1, x2 with exact integer coefficients, symmetric by use.

    The invariant coeff(d1, d2) == coeff(d2, d1) is required by schur_expand
    and holds for everything produced here; it is checked on expansion rather
    than on every arithmetic step.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping[tuple[int, int], int], None] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_symmetric(self) -> bool:
        return all(self.terms.get((q, p)) == c for (p, q), c in self.terms.items())

    def __add__(self, other: "SymPoly2") -> "SymPoly2":
        return SymPoly2(_add_terms(self.terms, other.terms))

    def __sub__(self, other: "SymPoly2") -> "SymPoly2":
        return SymPoly2(_add_terms(self.terms, other.terms, -1))

    def __mul__(self, other) -> "SymPoly2":
        if isinstance(other, SymPoly2):
            return SymPoly2(_mul_terms(self.terms, other.terms))
        if isinstance(other, int):
            return SymPoly2({k: other * v for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, SymPoly2):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        items = sorted(self.terms.items(), reverse=True)
        return "SymPoly2({%s})" % ", ".join(f"({p},{q}): {c}" for (p, q), c in items)


def sym_zero() -> SymPoly2:
    return SymPoly2()


def sym_one() -> SymPoly2:
    return SymPoly2({(0, 0): 1})


def monomial_pair(p: int, q: int) -> SymPoly2:
    """x1^p x2^q + x1^q x2^p (collapsing to 2 x1^p x2^p when p == q)."""
    return SymPoly2({(p, q): 1, (q, p): 1} if p != q else {(p, p): 2})


def schur_sym(a: int, b: int) -> SymPoly2:
    """The two-variable Schur polynomial s_(a,b) = sum of x1^(a-i) x2^(b+i)."""
    if a < b or b < 0:
        raise ValueError("shape must satisfy a >= b >= 0")
    return SymPoly2({(a - i, b + i): 1 for i in range(a - b + 1)})


class TwoRowExpansion:
    """Finite integer combination of two-row shapes (a, b), a >= b >= 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Union[Mapping[tuple[int, int], int], None] = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}
        for a, b in self.coeffs:
            if a < b or b < 0:
                raise ValueError(f"invalid two-row shape ({a},{b})")

    def __getitem__(self, shape: tuple[int, int]) -> int:
        return self.coeffs.get(tuple(shape), 0)

    def diagonal(self, k: int) -> int:
        return self.coeffs.get((k, k), 0)

    def min_coefficient(self) -> int:
        return min(self.coeffs.values(), default=0)

    def __add__(self, other: "TwoRowExpansion") -> "TwoRowExpansion":
        return TwoRowExpansion(_add_terms(self.coeffs, other.coeffs))

    def __sub__(self, other: "TwoRowExpansion") -> "TwoRowExpansion":
        return TwoRowExpansion(_add_terms(self.coeffs, other.coeffs, -1))

    def __eq__(self, other) -> bool:
        if isinstance(other, TwoRowExpansion):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def items_sorted(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self.coeffs.items(), reverse=True)

    def __repr__(self) -> str:
        body = ", ".join(f"s({a},{b})*{c}" for (a, b), c in self.items_sorted())
        return f"TwoRowExpansion({body})"


def expand_terms(terms: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Raw bialternant expansion of a symmetric term dict (no wrapping)."""
    alt: dict[tuple[int, int], int] = {}
    for (p, q), c in terms.items():
        key = (p + 1, q)
        val = alt.get(key, 0) + c
        if val:
            alt[key] = val
        elif key in alt:
            del alt[key]
        key = (p, q + 1)
        val = alt.get(key, 0) - c
        if val:
            alt[key] = val
        elif key in alt:
            del alt[key]
    return {(p - 1, q): c for (p, q), c in alt.items() if p > q}


def schur_expand(f: SymPoly2) -> TwoRowExpansion:
    """Exact two-row Schur expansion of a symmetric two-variable polynomial."""
    if not f.is_symmetric():
        raise AsymmetricInputError("input polynomial is not symmetric in x1, x2")
    return TwoRowExpansion(expand_terms(f.terms))


# ---------------------------------------------------------------------------
# chromatic shadows


def _clan_walk(g: Graph, weights: Sequence[int]) -> dict:
    """Term dict of the sum of x1^(size of class 1) x2^(size of class 2) over
    proper 2-colorings of the clan graph, walked in place: copy i of v is
    clan vertex offsets[v] + i, adjacent to the other copies of v and to
    every copy of each neighbor of v.  Each component is colored from its
    smallest clan vertex while both color classes are counted; a bipartite
    component with classes (p, q) contributes monomial_pair(p, q), and the
    first edge inside one class (an odd cycle) makes the product zero ({})."""
    offsets = clan_offsets(g, weights)
    color = [-1] * offsets[-1]
    terms = None
    for owner in range(g.n):
        root = offsets[owner]
        if root == offsets[owner + 1] or color[root] >= 0:
            continue
        color[root] = 0
        sizes = [1, 0]
        stack = [root]
        while stack:
            x = stack.pop()
            v = bisect_right(offsets, x) - 1
            other = 1 - color[x]
            for y in range(offsets[v], offsets[v + 1]):
                if y != x:
                    cy = color[y]
                    if cy < 0:
                        color[y] = other
                        sizes[other] += 1
                        stack.append(y)
                    elif cy != other:
                        return {}
            for u in g.adj[v]:
                for y in range(offsets[u], offsets[u + 1]):
                    cy = color[y]
                    if cy < 0:
                        color[y] = other
                        sizes[other] += 1
                        stack.append(y)
                    elif cy != other:
                        return {}
        p, q = sizes
        pair = {(p, q): 1, (q, p): 1} if p != q else {(p, p): 2}
        terms = pair if terms is None else _mul_terms(terms, pair)
    return {(0, 0): 1} if terms is None else terms


def chromatic_2var(g: Graph) -> SymPoly2:
    """Sum of x1^(size of class 1) x2^(size of class 2) over proper 2-colorings."""
    return SymPoly2(_clan_walk(g, (1,) * g.n))


# The most vertices chromatic_2var_bruteforce enumerates the colorings of.
COLORING_LIMIT = 16


def chromatic_2var_bruteforce(g: Graph) -> SymPoly2:
    """Direct enumeration over all 2-colorings; cross-check oracle only."""
    if g.n > COLORING_LIMIT:
        raise ValueError(f"coloring enumeration limited to {COLORING_LIMIT} vertices")
    edges = g.edges()
    out: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.n):
        if any((mask >> i & 1) == (mask >> j & 1) for i, j in edges):
            continue
        ones = mask.bit_count()
        key = (g.n - ones, ones)
        out[key] = out.get(key, 0) + 1
    return SymPoly2(out)


def chromatic_multicolor_2var(g: Graph, weights: Sequence[int]) -> SymPoly2:
    """Normalized chromatic shadow of the clan graph: the clan's chromatic
    polynomial divided by the product of weight factorials.

    The division is exact by construction; a remainder signals a bug, so it
    is checked rather than assumed; a zero shadow needs no normalizer."""
    raw = _clan_walk(g, weights)
    if not raw:
        return SymPoly2()
    d = prod(map(factorial, weights))
    for key, c in raw.items():
        if c % d:
            raise InexactDivisionError(f"coefficient {c} at {key} not divisible by {d}")
    return SymPoly2({key: c // d for key, c in raw.items()})


def f_p_2var(p: IntPoly) -> SymPoly2:
    """P(x1) * P(x2) for a polynomial with constant term 1."""
    if p[0] != 1:
        raise ValueError("polynomial must have constant term 1")
    return SymPoly2(
        {
            (i, j): p.coeffs[i] * p.coeffs[j]
            for i in range(len(p.coeffs))
            for j in range(len(p.coeffs))
            if p.coeffs[i] and p.coeffs[j]
        }
    )


def y_g_2var(g: Graph) -> SymPoly2:
    """I_G(x1) * I_G(x2); diagonal Schur coefficients encode the log-concavity
    defects of the independence polynomial."""
    try:
        poly = indpoly_tree(g)
    except NotAForestError:
        poly = indpoly_bruteforce(g)
    return f_p_2var(poly)
