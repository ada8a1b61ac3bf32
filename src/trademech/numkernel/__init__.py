from .poly import (
    Polynomial,
    X,
    ONE,
    from_roots,
    poly_roots,
    poly_min_on_interval,
    fit_polynomial_pieces,
    DEGREE_CAP,
)
from .lp import LPProblem, LPSolution, lp_problem, lp_solve
from .search import certified_binary_search

__all__ = [
    "Polynomial", "X", "ONE", "from_roots",
    "poly_roots", "poly_min_on_interval",
    "fit_polynomial_pieces", "DEGREE_CAP",
    "LPProblem", "LPSolution", "lp_problem", "lp_solve",
    "certified_binary_search",
]
