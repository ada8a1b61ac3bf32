"""Linear programs, solved by the dual revised simplex of HiGHS.

A problem is a set of arrays: objective c (n,), constraint matrix A
(m, n), relations rel (m,) with -1, 0, +1 for '<=', '=', '>=', right-hand
sides rhs (m,), and variable bounds lo, hi (n,) with -inf / +inf where a
bound is missing. lp_problem stacks constraint blocks (rows, rel, rhs),
each one row or a 2-D array of rows, into that form and validates it.

HiGHS's compiled core (Huangfu and Hall, "Parallelizing the dual revised
simplex method", Math. Prog. Comp. 2018) does the solving; scipy ships
it as the extension scipy.optimize._highspy._core. The extension is
loaded on its own on the first solve: importing scipy.optimize would
cost about 49 MB, the extension about 3 MB. It is registered under its
real module name, so a later import of scipy.optimize reuses it instead
of loading it a second time (a second copy fails to register its types).

One HiGHS solver object, made with its options on the first solve, serves
every solve. An LPModel, the one LP type, holds only arrays, edited in
place, and counts its own solves and simplex iterations; its layout, the
set of matrix entries, is fixed when it is built, so related LPs build their
matrix once. lp_solve, the one way to solve, hands the model whole to the
solver object, which drops the model, basis and solution it held: a solve
starts cold unless given the basis of an optimal solve with the same rows
and columns. Solves must not run in several threads at once. Presolve is
off: with it on, HiGHS's time in a lower_bnb round rose from 20 to 34 ms
(best of 30, 2 vCPUs).

certified_binary_search has no caller in the package; it is kept for the
benchmark's tracer.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

_RELATIONS = {"<=": -1, "=": 0, ">=": 1}
_HIGHS_MODULE = "scipy.optimize._highspy._core"


@dataclass
class LPSolution:
    # 'optimal' | 'infeasible' | 'unbounded' | 'iteration_limit'
    status: str
    x: np.ndarray = None
    value: float = None
    dual: np.ndarray = None          # one multiplier per constraint row
    iterations: int = 0
    basis: object = None             # HiGHS basis of an optimal solve

    def optimal(self, what):
        """This solution if it is optimal; else RuntimeError naming what
        was solved and how it ended."""
        if self.status != "optimal":
            raise RuntimeError(f"{what} came back {self.status}")
        return self


def lp_problem(objective, constraints, bounds=None, sense="min") -> LPModel:
    """Stack constraint blocks into an LPModel.

    Each constraint is a block (rows, rel, rhs): rows is one row of
    length n or a 2-D array with n columns, rel is '<=', '=' or '>=' for
    the block, and rhs a scalar or one value per row. Rows keep the order
    given, the order of lp_solve's duals. bounds holds one (lo, hi) pair
    per variable, None or an infinity for a missing bound (default x >= 0).
    Non-finite objective, row or rhs entries and NaN bounds raise ValueError.
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
    A, rel, rhs = np.concatenate(blocks), np.array(rels, dtype=int), np.concatenate(rhss)
    for name, v in (("objective", c), ("constraint rows", A), ("rhs", rhs)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    if bounds is None:
        lo, hi = np.zeros(n), np.full(n, np.inf)
    else:
        box = np.asarray(bounds)
        if box.dtype != float:          # None marks a missing bound
            box = np.array(bounds, dtype=object).reshape(-1, 2)
            box = np.where(np.equal(box, None), [-np.inf, np.inf], box)
        box = box.reshape(-1, 2).astype(float)
        if len(box) != n:
            raise ValueError("bounds length mismatch")
        lo, hi = box[:, 0], box[:, 1]
        if not (np.all(lo < np.inf) and np.all(hi > -np.inf)):
            raise ValueError("bounds must not be NaN, +inf below or -inf above")
    return LPModel(c, A, rel, rhs, lo, hi, sense)


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


@functools.cache
def _solver():
    """The module's HiGHS solver object and the extension's codes it uses."""
    h = _highs()
    highs = h._Highs()
    # A degenerate LP can make the dual simplex spin without end; the
    # largest cold node LP of the 16-level lower program takes 907
    # iterations, so the limit is far above any honest solve.
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("simplex_iteration_limit", 20_000)):
        highs.setOptionValue(option, value)
    end = h.HighsModelStatus    # ends is keyed by value: ints hash faster than enums
    return SimpleNamespace(
        highs=highs, error=h.HighsStatus.kError, colwise=h.MatrixFormat.kColwise.value,
        senses={"min": h.ObjSense.kMinimize.value, "max": h.ObjSense.kMaximize.value},
        ends={end.kOptimal.value: "optimal", end.kInfeasible.value: "infeasible",
              end.kUnbounded.value: "unbounded",
              end.kIterationLimit.value: "iteration_limit"})


class LPModel:
    """Minimize or maximize c @ x subject to A @ x (rel) rhs, lo <= x <= hi,
    held as arrays and edited in place.

    rel holds -1, 0, +1 for '<=', '=', '>='; lo and hi hold -inf and +inf
    where a variable has no bound. lp_problem builds and validates one;
    the constructor takes the arrays as given and validates nothing.
    solves and iterations count the solves lp_solve has run on the model,
    whatever their status, and their simplex iterations.

    The layout is fixed when the model is built: its matrix holds the
    nonzero entries of A, column-wise, and never gains or loses one.
    Edits change column bounds, the values of those entries and
    right-hand sides; rows keep their relations. A builder that edits
    a coefficient later puts a nonzero placeholder there. slots(rows,
    cols) resolves where entries sit, and set_values(slots, values) writes
    there; a value may be zero, which HiGHS drops from that solve alone.
    The model holds no solver: lp_solve hands it whole to the module's
    solver object on every solve, about 0.03 ms for the 16-level node LP
    (1109 rows, 289 columns), and HiGHS scales the edited matrix afresh
    (after its own in-place edits it kept its first scale factors, and
    node values drifted up to 3.5e-6 from the optimum, against 1.5e-8 for
    a fresh solve).
    """

    def __init__(self, c, A, rel, rhs, lo, hi, sense="min"):
        m, n = A.shape
        cols, rows = np.nonzero(A.T)
        self._m, self._n = m, n
        self._key = cols * m + rows             # sorted column by column
        self._value = A[rows, cols]
        # HiGHS's column starts and row indices
        self._start = np.searchsorted(cols, np.arange(n)).astype(np.int32)
        self._index = rows.astype(np.int32)
        self._integrality = np.zeros(n, dtype=np.int32)
        self._c, self._sense = np.array(c, dtype=float), sense
        self._lo, self._hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        # an rhs clipped to these is its row's bounds, infinite on open sides
        self._lo_cap = np.where(rel >= 0, np.inf, -np.inf)
        self._hi_cap = np.where(rel <= 0, -np.inf, np.inf)
        self._row_lo, self._row_hi = (np.minimum(rhs, self._lo_cap),
                                      np.maximum(rhs, self._hi_cap))
        self.solves = self.iterations = 0

    def set_bounds(self, cols, lo, hi):
        """Give columns cols the bounds lo <= x <= hi (arrays or scalars)."""
        # rejects NaN too; ufunc.reduce spares each edit .all()'s Python call
        if not (np.logical_and.reduce(np.less(lo, np.inf), axis=None)
                and np.logical_and.reduce(np.greater(hi, -np.inf), axis=None)):
            raise ValueError("bounds must not be NaN, +inf below or -inf above")
        self._lo[cols], self._hi[cols] = lo, hi

    def slots(self, rows, cols):
        """The positions of the entries A[rows[k], cols[k]], for later
        set_values calls. An entry the built matrix does not hold raises
        ValueError."""
        rows, cols = np.ravel(rows), np.ravel(cols)
        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= self._m
                          or cols.max() >= self._n):
            raise IndexError("coefficient outside the matrix")
        keys = cols.astype(np.int64) * self._m + rows
        pos = np.searchsorted(self._key, keys)
        # key -1 is no entry's, so a position past the end finds nothing
        if (np.append(self._key, -1)[pos] != keys).any():
            raise ValueError("the matrix holds no entry there")
        return pos

    def set_values(self, slots, values):
        """Write values[k] to the k-th entry of slots, from slots()."""
        values = np.asarray(values, dtype=float)
        if not np.logical_and.reduce(np.isfinite(values), axis=None):
            raise ValueError("coefficients must be finite")
        self._value[slots] = values

    def set_rhs(self, rows, rhs):
        """Set the right-hand sides of rows, which keep their relations."""
        if not np.logical_and.reduce(np.isfinite(rhs), axis=None):
            raise ValueError("rhs must be finite")
        self._row_lo[rows] = np.minimum(rhs, self._lo_cap[rows])
        self._row_hi[rows] = np.maximum(rhs, self._hi_cap[rows])

    def _pass(self):
        """Hand the problem as it stands to the solver; returns _solver()."""
        solver = _solver()
        if solver.highs.passModel(
                self._n, self._m, self._key.size, solver.colwise,
                solver.senses[self._sense], 0.0, self._c, self._lo, self._hi,
                self._row_lo, self._row_hi, self._start, self._index, self._value,
                self._integrality) == solver.error:
            raise ValueError("HiGHS rejected the model")
        return solver


def lp_solve(model: LPModel, basis=None) -> LPSolution:
    """Solve an LPModel as it stands; see LPSolution for the contract.
    basis, from an earlier optimal LPSolution of a problem with the same
    rows and columns, is where the dual simplex starts; without it the
    solve starts cold, from the slack basis.

    The dual vector has one entry per row, signed so that for 'min' duals
    of '<=' rows are <= 0 and of '>=' rows >= 0 (conversely for 'max'),
    with value = dual @ rhs + bound terms.
    A solve that reaches the simplex iteration limit ends with status
    'iteration_limit' and no solution. Every solve that returns adds one
    to model.solves and its iterations to model.iterations. Raises
    RuntimeError if HiGHS ends in any other state than optimal,
    infeasible or unbounded.
    """
    solver = model._pass()
    highs = solver.highs
    if basis is not None and highs.setBasis(basis) == solver.error:
        raise ValueError("HiGHS rejected the basis")
    highs.run()
    end = highs.getModelStatus()
    status = solver.ends.get(end.value)
    iterations = int(highs.getInfoValue("simplex_iteration_count")[1])
    if status is None:
        raise RuntimeError(f"HiGHS ended with {highs.modelStatusToString(end)}")
    model.solves += 1
    model.iterations += iterations
    if status != "optimal":
        return LPSolution(status=status, iterations=iterations)
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=float)     # dtype spares a type scan
    dual = np.array(solution.row_dual, dtype=float)
    return LPSolution(status="optimal", x=x, value=float(model._c @ x), dual=dual,
                      iterations=iterations, basis=highs.getBasis())


def certified_binary_search(check, lo, hi, iters=100):
    """Largest r in [lo, hi] with check(r) true, assuming check is monotone
    nonincreasing. The return value is always one on which check actually
    ran and passed, never an untested midpoint.
    """
    if not check(lo):
        raise ValueError("check(lo) must hold")
    if check(hi):
        raise ValueError("check(hi) must fail")
    good, bad = lo, hi
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if check(mid):
            good = mid
        else:
            bad = mid
    return good
