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

An LPModel holds a problem and one HiGHS solver object for it. Its
column bounds, matrix coefficients and right-hand sides can be edited in
place while the row and column layout stays fixed, so a sequence of
related LPs builds its matrix once. A caller that rewrites the same
matrix entries again and again resolves their positions once, with
LPModel.slots, and then writes only values, with LPModel.set_values,
which does no lookups. lp_solve is the one way to solve:
given an LPProblem it builds a throwaway model. Each optimal solution
carries its basis, and passing that basis to a later solve of a problem
with the same rows and columns warm-starts the dual simplex from it. A
model lives only as long as the call that made it; nothing is cached
between calls. Presolve is off: on the benchmark's lower_bnb workload
(2 vCPUs) it raised peak memory by about 0.5 MB and slowed the run from
about 0.42 to 0.72 s.
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
    # 'optimal' | 'infeasible' | 'unbounded' | 'iteration_limit'
    status: str
    x: np.ndarray = None
    value: float = None
    dual: np.ndarray = None          # one multiplier per constraint row
    iterations: int = 0
    basis: object = None             # HiGHS basis of an optimal solve


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


class LPModel:
    """An LPProblem and one HiGHS solver object for it, edited in place.

    The edits change column bounds, matrix coefficients and right-hand
    sides; each row keeps its relation, and the numbers of rows and
    columns never change. The model keeps the matrix in column-wise
    arrays. slots(rows, cols) resolves where a set of entries sits in
    them, inserting each absent entry as an explicit zero, and
    set_values(slots, values) then writes values at those positions, a
    single array write. Explicit zeros stay in the arrays, and HiGHS
    drops them on the way in. Slots carry their entries' keys, so a
    set_values after a later insert has moved the entries raises
    instead of writing to the wrong ones. lp_solve hands the problem
    as it stands to the solver object, which costs about 0.03 ms for the
    16-level node LP of the lower program (1109 rows, 289 columns) and
    makes HiGHS scale the edited matrix afresh. After HiGHS's own in-place
    coefficient edits it keeps the scale factors of its first solve, and
    node values then drifted up to 3.5e-6 from the optimum, against
    1.5e-8 for a fresh solve.
    """

    def __init__(self, prob: LPProblem):
        h = _highs()
        m, n = prob.A.shape
        cols, rows = np.nonzero(prob.A.T)
        self._m, self._n = m, n
        self._key = cols * m + rows             # sorted column by column
        self._value = prob.A[rows, cols]
        self._index_rows()
        self._integrality = np.zeros(n, dtype=np.int32)
        self._c, self._rel = prob.c.copy(), prob.rel.copy()
        self._lo, self._hi = prob.lo.copy(), prob.hi.copy()
        self._row_lo = np.where(prob.rel >= 0, prob.rhs, -np.inf)
        self._row_hi = np.where(prob.rel <= 0, prob.rhs, np.inf)
        self._sense = (h.ObjSense.kMinimize if prob.sense == "min"
                       else h.ObjSense.kMaximize).value
        highs = h._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        # A degenerate LP can make the dual simplex spin without end; the
        # largest cold node LP of the 16-level lower program takes 907
        # iterations, so this limit is far above any honest solve.
        highs.setOptionValue("simplex_iteration_limit", 20_000)
        self._highs = highs

    def set_bounds(self, cols, lo, hi):
        """Give columns cols the bounds lo <= x <= hi (arrays or scalars)."""
        # the negated test also rejects NaN
        if not ((np.asarray(lo) < np.inf).all() and (np.asarray(hi) > -np.inf).all()):
            raise ValueError("bounds must not be NaN, +inf below or -inf above")
        self._lo[cols], self._hi[cols] = lo, hi

    def slots(self, rows, cols):
        """Resolve the positions of the entries A[rows[k], cols[k]], for
        distinct (row, col) pairs, for later set_values calls.

        An entry the matrix does not hold is inserted as an explicit zero,
        which moves the positions of the entries after it; one named twice
        raises ValueError.
        """
        rows, cols = np.ravel(rows), np.ravel(cols)
        if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= self._m
                          or cols.max() >= self._n):
            raise IndexError("coefficient outside the matrix")
        keys = cols.astype(np.int64) * self._m + rows
        pos = np.searchsorted(self._key, keys)
        # key -1 is no entry's, so a position past the end finds nothing
        new = np.append(self._key, -1)[pos] != keys
        if new.any():
            order = np.argsort(keys[new])
            at, add = pos[new][order], keys[new][order]
            if (add[1:] == add[:-1]).any():
                raise ValueError("slots need distinct (row, col) pairs")
            self._key = np.insert(self._key, at, add)
            self._value = np.insert(self._value, at, 0.0)
            self._index_rows()
            pos = np.searchsorted(self._key, keys)
        return pos, keys

    def set_values(self, slots, values):
        """Write values[k] to the k-th entry of slots, from slots()."""
        pos, keys = slots
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("coefficients must be finite")
        if (self._key[pos] != keys).any():
            raise ValueError("stale slots: an insert has moved their entries")
        self._value[pos] = values

    def set_rhs(self, rows, rhs):
        """Set the right-hand sides of rows, which keep their relations."""
        if not np.isfinite(rhs).all():
            raise ValueError("rhs must be finite")
        rel = self._rel[rows]
        self._row_lo[rows] = np.where(rel >= 0, rhs, -np.inf)
        self._row_hi[rows] = np.where(rel <= 0, rhs, np.inf)

    def _index_rows(self):
        """HiGHS's column starts and row indices of the entries in _key."""
        cols, rows = np.divmod(self._key, self._m)
        self._start = np.searchsorted(cols, np.arange(self._n)).astype(np.int32)
        self._index = rows.astype(np.int32)

    def _pass(self):
        """Hand the problem as it stands to the solver object."""
        h = _highs()
        status = self._highs.passModel(
            self._n, self._m, self._key.size, h.MatrixFormat.kColwise.value,
            self._sense, 0.0, self._c, self._lo, self._hi, self._row_lo, self._row_hi,
            self._start, self._index, self._value, self._integrality)
        if status == h.HighsStatus.kError:
            raise ValueError("HiGHS rejected the model")


def lp_solve(prob, basis=None) -> LPSolution:
    """Solve an LPProblem or an LPModel as it stands; see LPSolution for
    the contract.

    basis, taken from an earlier optimal LPSolution of a problem with the
    same rows and columns, is where the dual simplex starts; without it
    the solve starts cold, from the slack basis.

    The dual vector has one entry per constraint row, signed so that for a
    'min' problem duals of '<=' rows are <= 0 and duals of '>=' rows are
    >= 0 (and conversely for 'max'), with value = dual @ rhs + bound terms.
    A solve that reaches the simplex iteration limit ends with status
    'iteration_limit' and no solution. Raises RuntimeError if HiGHS ends
    in any other state than optimal, infeasible or unbounded.
    """
    model = prob if isinstance(prob, LPModel) else LPModel(prob)
    h = _highs()
    highs = model._highs
    model._pass()
    if basis is not None and highs.setBasis(basis) == h.HighsStatus.kError:
        raise ValueError("HiGHS rejected the basis")
    highs.run()
    status = highs.getModelStatus()
    iterations = int(highs.getInfoValue("simplex_iteration_count")[1])
    ends = {h.HighsModelStatus.kInfeasible: "infeasible",
            h.HighsModelStatus.kUnbounded: "unbounded",
            h.HighsModelStatus.kIterationLimit: "iteration_limit"}
    if status in ends:
        return LPSolution(status=ends[status], iterations=iterations)
    if status != h.HighsModelStatus.kOptimal:
        raise RuntimeError(f"HiGHS ended with {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    return LPSolution(status="optimal", x=x, value=float(model._c @ x),
                      dual=np.array(solution.row_dual), iterations=iterations,
                      basis=highs.getBasis())
