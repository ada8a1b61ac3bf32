"""Linear programs, solved by the dual revised simplex of HiGHS.

A problem is a set of arrays: objective c (n,), constraint matrix A
(m, n), relations rel (m,) with -1, 0, +1 for '<=', '=', '>=', right-hand
sides rhs (m,), and variable bounds lo, hi (n,) with -inf / +inf where a
bound is missing. lp_problem stacks constraint blocks (rows, rel, rhs),
each one row or a 2-D array of rows, into that form and validates it.

lp_solve hands the arrays to HiGHS's compiled core (Huangfu and Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018),
which scipy ships as the extension scipy.optimize._highspy._core. The
extension is loaded on its own on the first solve: importing
scipy.optimize would cost about 49 MB, the extension about 3 MB. It is
registered under its real module name, so a later import of
scipy.optimize reuses it instead of loading it a second time (a second
copy fails to register its types).

Each solve gets a fresh solver object with presolve off. Both choices
keep peak memory down: on the benchmark's lower_bnb workload (2 vCPUs),
one solver object reused across calls raised it by about 0.8 MB, and
presolve by about 0.5 MB while also slowing the run from about 0.42 to
0.72 s.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

_RELATIONS = {"<=": -1, "=": 0, ">=": 1}
_HIGHS_MODULE = "scipy.optimize._highspy._core"


@dataclass(frozen=True)
class LPProblem:
    """Minimize or maximize c @ x subject to A @ x (rel) rhs, lo <= x <= hi.

    rel holds -1, 0, +1 for '<=', '=', '>='; lo and hi hold -inf and +inf
    where a variable has no bound. Build one with lp_problem, which
    validates the data."""

    c: np.ndarray
    A: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    sense: str = "min"


@dataclass
class LPSolution:
    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray = None
    value: float = None
    dual: np.ndarray = None          # one multiplier per constraint row
    iterations: int = 0


def lp_problem(objective, constraints, bounds=None, sense="min") -> LPProblem:
    """Stack constraint blocks into an LPProblem.

    Each constraint is a block (rows, rel, rhs): rows is one row of
    length n or a 2-D array with n columns, rel is '<=', '=' or '>=' for
    the whole block, and rhs is a scalar or one value per row. Rows keep
    the order given, which is the order of lp_solve's duals. bounds holds
    one (lo, hi) pair per variable, with None or an infinity for a
    missing bound; the default is x >= 0. Non-finite objective, row or
    rhs entries and NaN bounds raise ValueError.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    c = np.asarray(objective, dtype=float)
    if c.ndim != 1:
        raise ValueError("objective must be a vector")
    n = c.size
    blocks, rels, rhss = [np.zeros((0, n))], [], [np.zeros(0)]
    for rows, rel, rhs in constraints:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError("constraint width mismatch")
        if rel not in _RELATIONS:
            raise ValueError(f"bad relation {rel!r}")
        blocks.append(rows)
        rels += [_RELATIONS[rel]] * len(rows)
        rhss.append(np.full(len(rows), rhs, dtype=float))
    A, rel, rhs = np.vstack(blocks), np.array(rels, dtype=int), np.concatenate(rhss)
    for name, v in (("objective", c), ("constraint rows", A), ("rhs", rhs)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if bounds is None:
        lo, hi = np.zeros(n), np.full(n, np.inf)
    else:
        box = np.array(bounds, dtype=object).reshape(-1, 2)
        if len(box) != n:
            raise ValueError("bounds length mismatch")
        box = np.where(np.equal(box, None), [-np.inf, np.inf], box).astype(float)
        lo, hi = box[:, 0], box[:, 1]
        if not (np.all(lo < np.inf) and np.all(hi > -np.inf)):
            raise ValueError("bounds must not be NaN, +inf below or -inf above")
    return LPProblem(c, A, rel, rhs, lo, hi, sense)


def _highs():
    """The HiGHS extension module, loaded without importing scipy.optimize."""
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    spec = importlib.util.find_spec("scipy")
    paths = [] if spec is None else [
        os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy",
                     "_core" + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"lp_solve needs the HiGHS extension {_HIGHS_MODULE} "
                          "of scipy>=1.17,<1.18, and it is not installed")
    loader = importlib.machinery.ExtensionFileLoader(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(_HIGHS_MODULE, loader))
    loader.exec_module(module)
    sys.modules[_HIGHS_MODULE] = module
    return module


def lp_solve(prob: LPProblem) -> LPSolution:
    """Solve an LPProblem; see LPSolution for the contract.

    The dual vector has one entry per constraint row, signed so that for a
    'min' problem duals of '<=' rows are <= 0 and duals of '>=' rows are
    >= 0 (and conversely for 'max'), with value = dual @ rhs + bound terms.
    Raises RuntimeError if HiGHS ends in any state other than optimal,
    infeasible or unbounded.
    """
    h = _highs()
    m, n = prob.A.shape
    lp = h.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.sense_ = h.ObjSense.kMinimize if prob.sense == "min" else h.ObjSense.kMaximize
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = prob.c, prob.lo, prob.hi
    lp.row_lower_ = np.where(prob.rel >= 0, prob.rhs, -np.inf)
    lp.row_upper_ = np.where(prob.rel <= 0, prob.rhs, np.inf)
    cols, rows = np.nonzero(prob.A.T)
    matrix = lp.a_matrix_
    matrix.format_ = h.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1))
    matrix.index_ = rows
    matrix.value_ = prob.A[rows, cols]

    highs = h._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    iterations = int(highs.getInfo().simplex_iteration_count)
    if status == h.HighsModelStatus.kInfeasible:
        return LPSolution(status="infeasible", iterations=iterations)
    if status == h.HighsModelStatus.kUnbounded:
        return LPSolution(status="unbounded", iterations=iterations)
    if status != h.HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS ended with {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    return LPSolution(status="optimal", x=x, value=float(prob.c @ x),
                      dual=np.array(solution.row_dual), iterations=iterations)
