"""Exact independence polynomials, two-row Schur shadows, and mechanical
unimodality certificates for two families of trees."""

from .graphs import (
    Graph,
    is_forest,
    spider2,
    spider12,
    t3mn,
    t3mn_star,
)
from .intpoly import IntPoly, SequenceReport, analyze, indpoly_bruteforce, indpoly_tree
from .symfunc import (
    SymPoly2,
    TwoRowExpansion,
    chromatic_2var,
    chromatic_multicolor_2var,
    f_p_2var,
    schur_expand,
    schur_sym,
    y_g_2var,
)

__all__ = [
    "Graph",
    "IntPoly",
    "SequenceReport",
    "SymPoly2",
    "TwoRowExpansion",
    "analyze",
    "chromatic_2var",
    "chromatic_multicolor_2var",
    "f_p_2var",
    "indpoly_bruteforce",
    "indpoly_tree",
    "is_forest",
    "schur_expand",
    "schur_sym",
    "spider2",
    "spider12",
    "t3mn",
    "t3mn_star",
    "y_g_2var",
]

__version__ = "0.1.0"
