from .lp import LPModel, lp_problem, lp_solve
from .search import certified_binary_search

__all__ = ["LPModel", "lp_problem", "lp_solve", "certified_binary_search"]
