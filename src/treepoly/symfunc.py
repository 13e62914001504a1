"""Two-variable shadow of symmetric functions and its two-row Schur basis.

Every statement this package verifies lives in partitions with at most two
rows, where specializing to x1, x2 is faithful: schur polynomials s_(a,b) of
two variables are linearly independent and all longer shapes vanish.
Products are then plain polynomial multiplication and coefficient extraction
is the bialternant trick: [s_(a,b)] f equals the coefficient of
x1^(a+1) x2^b in f * (x1 - x2).
"""

from __future__ import annotations

from math import factorial
from typing import Mapping, Sequence, Union

from .graphs import Graph, NotAForestError, clan_adjacency
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

    def coefficient(self, d1: int, d2: int) -> int:
        return self.terms.get((d1, d2), 0)

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
    out = {(p, q): 1}
    key = (q, p)
    out[key] = out.get(key, 0) + 1
    return SymPoly2(out)


def schur_sym(a: int, b: int) -> SymPoly2:
    """The two-variable Schur polynomial s_(a,b) = sum of x1^(a-i) x2^(b+i)."""
    if a < b or b < 0:
        raise ValueError("shape must satisfy a >= b >= 0")
    return SymPoly2({(a - i, b + i): 1 for i in range(a - b + 1)})


def product(f: SymPoly2, g: SymPoly2) -> SymPoly2:
    """Exact product; correct for two-row coefficients because the shadow is
    multiplicative."""
    return f * g


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

    @property
    def is_nonnegative(self) -> bool:
        """The two-row positivity predicate: every coefficient >= 0."""
        return all(c >= 0 for c in self.coeffs.values())

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

    def to_json_list(self) -> list:
        return [[a, b, str(c)] for (a, b), c in self.items_sorted()]

    def to_sympoly(self) -> SymPoly2:
        out = SymPoly2()
        for (a, b), c in self.coeffs.items():
            out = out + c * schur_sym(a, b)
        return out

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


def _coloring_shadow(adj: Sequence[Sequence[int]]) -> SymPoly2:
    """Sum of x1^(size of class 1) x2^(size of class 2) over proper 2-colorings
    of the graph with these neighbor lists, in one walk.

    Each component is colored from its smallest vertex while both color
    classes are counted; a bipartite component with classes (p, q)
    contributes x1^p x2^q + x1^q x2^p, and the first edge inside one class
    (an odd cycle) makes the whole product zero.
    """
    color = [-1] * len(adj)
    terms = {(0, 0): 1}
    for root in range(len(adj)):
        if color[root] >= 0:
            continue
        color[root] = 0
        sizes = [1, 0]
        stack = [root]
        while stack:
            u = stack.pop()
            other = 1 - color[u]
            for w in adj[u]:
                cw = color[w]
                if cw < 0:
                    color[w] = other
                    sizes[other] += 1
                    stack.append(w)
                elif cw != other:
                    return sym_zero()
        terms = _mul_terms(terms, monomial_pair(*sizes).terms)
    return SymPoly2(terms)


def chromatic_2var(g: Graph) -> SymPoly2:
    """Sum of x1^(size of class 1) x2^(size of class 2) over proper 2-colorings."""
    return _coloring_shadow(g.adj)


def chromatic_2var_bruteforce(g: Graph, limit: int = 16) -> SymPoly2:
    """Direct enumeration over all 2-colorings; cross-check oracle only."""
    if g.n > limit:
        raise ValueError(f"coloring enumeration limited to {limit} vertices")
    edges = g.edges()
    out: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.n):
        if any((mask >> i & 1) == (mask >> j & 1) for i, j in edges):
            continue
        ones = mask.bit_count()
        key = (g.n - ones, ones)
        out[key] = out.get(key, 0) + 1
    return SymPoly2(out)


def weight_normalizer(weights: Sequence[int]) -> int:
    out = 1
    for a in weights:
        out *= factorial(a)
    return out


def chromatic_multicolor_2var(g: Graph, weights: Sequence[int]) -> SymPoly2:
    """Normalized chromatic shadow of the clan graph: the clan's chromatic
    polynomial divided by the product of weight factorials.

    The division is exact by construction; a remainder signals a bug, so it
    is checked rather than assumed.
    """
    raw = _coloring_shadow(clan_adjacency(g, weights))
    d = weight_normalizer(weights)
    if d == 1:
        return raw
    out = {}
    for key, c in raw.terms.items():
        q, r = divmod(c, d)
        if r:
            raise InexactDivisionError(
                f"coefficient {c} at {key} not divisible by {d}"
            )
        out[key] = q
    return SymPoly2(out)


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
