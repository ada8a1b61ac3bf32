from .poly import Polynomial, poly_roots, poly_min_on_interval
from .lp import lp_problem, lp_solve
from .search import certified_binary_search

__all__ = [
    "Polynomial", "poly_roots", "poly_min_on_interval",
    "lp_problem", "lp_solve",
    "certified_binary_search",
]
