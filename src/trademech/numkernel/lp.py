"""Dense linear programming via two-phase primal simplex.

A problem is a set of arrays: objective c (n,), constraint matrix A
(m, n), relations rel (m,) with -1, 0, +1 for '<=', '=', '>=', right-hand
sides rhs (m,), and variable bounds lo, hi (n,) with -inf / +inf where a
bound is missing. lp_problem stacks constraint blocks (rows, rel, rhs),
each one row or a 2-D array of rows, into that form; lp_solve turns the
bounds and relations into the standard form A x = b, x >= 0 with array
operations.

Deterministic pivoting: reduced-cost order with an exact ratio test whose
ties break toward the largest pivot element, falling back to Bland's rule
when an iteration budget suggests cycling. The tableau is refactorized
from the original data every few pivots so rounding error cannot
accumulate, and the reported solution is always the exact basic solution
of the final basis. Heavily degenerate problems additionally get a
deterministic right-hand-side perturbation: reduced costs do not depend
on the rhs, so a basis that is optimal for the perturbed problem is
optimal for the true one as soon as its exact basic solution is feasible,
which the final acceptance check establishes anyway. Problems here are
small (a few hundred variables), so a dense numpy tableau is both simple
and fast enough.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_RELATIONS = {"<=": -1, "=": 0, ">=": 1}


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


def _simplex_core(A, b, c, maxiter, reldir=None):
    """min c@x s.t. A@x = b (b >= 0), x >= 0. Two-phase dense simplex.
    reldir gives each row's relaxation direction (+1 if raising the rhs
    loosens the row, -1 if lowering does, 0 for a hard equality).

    Returns (status, x, basis, iterations). The system is max-norm
    equilibrated first; mixing 1e-3 and 1e3 coefficients in one tableau
    is exactly what lets pivot growth shred feasibility. Solving runs as
    a ladder of attempts with progressively tighter numerics; the middle
    rungs refactorize after every pivot, so their decisions are made on
    exact data and they essentially cannot drift. The last rungs add a
    small deterministic rhs perturbation, which breaks the degenerate
    ratio-test ties that make a vertex revisitable and steer the walk
    into ill-conditioned bases. A candidate answer is only accepted once
    the exact basic solution of its final basis, on the true rhs, is
    feasible."""
    m, n = A.shape
    rmax = np.abs(A).max(axis=1, initial=0.0)
    rmax[rmax == 0.0] = 1.0
    A = A / rmax[:, None]
    b = b / rmax
    cmax = np.abs(A).max(axis=0, initial=0.0)
    cmax[cmax == 0.0] = 1.0
    A = A / cmax[None, :]
    c = c / cmax
    Afull = np.hstack([A, np.eye(m)])
    if reldir is None:
        reldir = np.zeros(m)
    total = 0
    for idx, (interval, minpiv, quality, eps) in enumerate((
            (20, 1e-9, 1e-4, 0.0),
            (5, 1e-8, 1e-3, 0.0),
            (1, 2e-7, 1e-2, 0.0),
            (1, 1e-8, 1e-3, 1e-8),
            (1, 2e-7, 1e-2, 1e-7),
            (1, 2e-7, 1e-2, 1e-6))):
        if eps:
            # Relax every inequality by its own small random amount: the
            # perturbed region contains the true one, so feasibility is
            # preserved, while the ties between simultaneously-tight rows
            # (the source of degenerate stalling) are broken
            rng = np.random.default_rng(7150 + idx)
            mag = eps * (0.5 + rng.random(m)) * (1.0 + b)
            brun = b + np.where(reldir > 0, mag,
                                np.where(reldir < 0,
                                         -np.minimum(mag, 0.9 * b), 0.0))
        else:
            brun = b
        status, x, basis, its = _attempt(Afull, brun, b, c, m, n, maxiter,
                                         (interval, minpiv, quality))
        total += its
        if status != "stuck":
            if status == "optimal":
                x = x / cmax
            return status, x, basis, total
    return "stuck", None, None, total


def _attempt(Afull, brun, btrue, c, m, n, maxiter, knobs):
    """One full two-phase solve at a given numerics setting. The tableau
    carries the artificial columns through both phases (they never
    re-enter in phase 2 because the entering scan stops at the real
    columns), which lets the same refactorization path serve both
    phases. brun may be a perturbed copy of btrue; pivoting follows brun,
    but the answer is extracted and checked against btrue."""
    T = np.zeros((m + 1, n + m + 1))
    basis = list(range(n, n + m))
    pertslack = float(np.abs(brun - btrue).sum())

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    status1, it1 = _phase(T, basis, n + m, Afull, c1, brun, maxiter, knobs)
    if status1 != "optimal":
        # phase 1 is bounded below by 0, so "unbounded" here means the
        # numerics went sideways; treat like any other breakdown
        return "stuck", None, None, it1
    if -T[m, -1] > 1e-7 + pertslack:
        # a perturbed run may only declare infeasibility with enough
        # margin to cover the perturbation itself
        return "infeasible", None, None, it1
    if -T[m, -1] > 1e-7:
        return "stuck", None, None, it1

    # Drive any artificial variables still in the basis out of it,
    # pivoting on the largest available element for stability
    for r in range(m):
        if basis[r] >= n:
            row = T[r, :n]
            nz = np.flatnonzero(np.abs(row) > 1e-9)
            if nz.size:
                _pivot(T, r, int(nz[np.argmax(np.abs(row[nz]))]), basis)
            # else: redundant row, harmless to leave (x part all ~0)

    c2 = np.concatenate([c, np.zeros(m)])
    status2, it2 = _phase(T, basis, n, Afull, c2, brun, maxiter, knobs)
    if status2 == "stuck":
        return "stuck", None, None, it1 + it2
    if status2 == "unbounded":
        return "unbounded", None, None, it1 + it2

    # Exact basic solution of the final basis, straight from the input
    # data; a basis whose true solution is infeasible is not an answer,
    # no matter what the tableau thought of it
    B = Afull[:, basis]
    try:
        xB = np.linalg.solve(B, btrue)
    except np.linalg.LinAlgError:
        return "stuck", None, None, it1 + it2
    if m and xB.min() < -1e-6:
        return "stuck", None, None, it1 + it2
    np.clip(xB, 0.0, None, out=xB)
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = xB[r]
    return "optimal", x, list(basis), it1 + it2


def _pivot(T, row, col, basis):
    piv = T[row, :] / T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= np.outer(colv, piv)
    T[row, :] = piv
    basis[row] = col


def _refactor(T, basis, Afull, cfull, b0):
    """Rebuild the tableau for the current basis from the original data.

    Returns False when the basis matrix is singular (or close enough that
    the solve is untrustworthy) or the basic solution is infeasible beyond
    dust; both mean the caller's pivot decisions were made on bad numbers
    and it should fall back. The dust band must stay tiny: a clipped-away
    negative divided by a small pivot element comes back amplified, so
    anything that could survive such a division has to force a fallback
    instead of being hidden."""
    m = Afull.shape[0]
    B = Afull[:, basis]
    try:
        xB = np.linalg.solve(B, b0)
        body = np.linalg.solve(B, Afull)
    except np.linalg.LinAlgError:
        return False
    if m and np.abs(B @ xB - b0).max() > 1e-6 * (1.0 + np.abs(b0).max()):
        return False
    if m and xB.min() < -1e-8:
        return False
    np.clip(xB, 0.0, None, out=xB)
    T[:m, :-1] = body
    T[:m, -1] = xB
    cB = cfull[basis]
    T[m, :-1] = cfull - cB @ body
    T[m, -1] = -cB @ xB
    return True


def _phase(T, basis, ncols, Afull, cfull, b0, maxiter, knobs):
    """Run one simplex phase to optimality with periodic refactorization.

    Returns (status, iterations) with status in 'optimal' | 'unbounded' |
    'stuck'. An unbounded claim from inside a pivot chunk is only trusted
    once it survives a refactorization, since drifted column values must
    not certify a ray."""
    interval, minpiv, quality = knobs
    bland = False
    it = 0
    budget = maxiter
    pending_col = None
    while True:
        if not _refactor(T, basis, Afull, cfull, b0):
            return "stuck", it
        if pending_col is not None:
            col = pending_col
            pending_col = None
            m = T.shape[0] - 1
            if T[m, col] < -1e-9 and (m == 0 or T[:m, col].max() <= 1e-11):
                return "unbounded", it
        res, used, col = _pivot_chunk(T, basis, ncols,
                                      min(interval, max(budget - it, 1)),
                                      minpiv, quality, bland)
        it += used
        if res == "optimal" and used == 0:
            return "optimal", it
        if res == "tinypiv":
            # the only way forward was a pivot too small to trust
            return "stuck", it
        if res == "unbounded":
            pending_col = col
        if it >= budget:
            if bland:
                return "stuck", it
            bland = True
            budget = 50 * maxiter


def _pivot_chunk(T, basis, ncols, budget, minpiv, quality, bland):
    """Pivot at most `budget` times. Returns (result, used, col) with
    result in 'optimal' | 'unbounded' | 'tinypiv' | 'budget'; col is the
    entering column that looked unbounded, else None.

    The ratio test is exact (the leaving row truly blocks first), with
    ties broken toward the largest pivot element. Entering columns are
    taken in reduced-cost order, but a column whose blocking pivot is
    below the quality threshold yields to a later candidate with a solid
    one; dividing by a near-zero pivot is how a tableau falls apart."""
    m = T.shape[0] - 1
    for it in range(budget):
        red = T[m, :ncols]
        if bland:
            cand = np.flatnonzero(red < -1e-9)
            if cand.size == 0:
                return "optimal", it, None
            order = cand[:1]
        else:
            order = np.argsort(red, kind="stable")
            order = order[red[order] < -1e-9]
            if order.size == 0:
                return "optimal", it, None
            order = order[:8]
        chosen = None
        for col in map(int, order):
            colvals = T[:m, col]
            pos = np.flatnonzero(colvals > minpiv)
            if pos.size == 0:
                if colvals.max(initial=0.0) <= 1e-11:
                    return "unbounded", it, col
                continue
            ratios = T[pos, -1] / colvals[pos]
            ties = pos[np.flatnonzero(ratios <= ratios.min() + 1e-12)]
            if bland:
                row = int(ties[np.argmin([basis[t] for t in ties])])
            else:
                row = int(ties[np.argmax(colvals[ties])])
            pv = float(T[row, col])
            if chosen is None or pv > chosen[2]:
                chosen = (col, row, pv)
            if pv >= quality:
                break
        if chosen is None:
            return "tinypiv", it, int(order[0])
        _pivot(T, chosen[1], chosen[0], basis)
    return "budget", budget, None


def lp_solve(prob: LPProblem) -> LPSolution:
    """Solve an LPProblem; see LPSolution for the contract.

    The dual vector has one entry per constraint row, signed so that for a
    'min' problem duals of '<=' rows are <= 0 and duals of '>=' rows are
    >= 0 (and conversely for 'max'), with value = dual @ rhs + bound terms.
    """
    sign = 1.0 if prob.sense == "min" else -1.0
    m0, n0 = prob.A.shape
    has_lo, has_hi = np.isfinite(prob.lo), np.isfinite(prob.hi)

    # Variable substitutions to reach x' >= 0
    #   lower bound:      x = lo + u      column j holds u
    #   upper bound only: x = hi - u      column j holds u, negated
    #   free:             x = u - v       v goes in a column after the n0
    # Doubly bounded variables also get a row u <= hi - lo.
    free = np.flatnonzero(~(has_lo | has_hi))
    boxed = np.flatnonzero(has_lo & has_hi)
    mult = np.where(has_hi & ~has_lo, -1.0, 1.0)
    offsets = np.where(has_lo, prob.lo, np.where(has_hi, prob.hi, 0.0))
    nv = n0 + free.size
    rel = np.concatenate([prob.rel, np.full(boxed.size, -1)])
    m = rel.size
    ineq = np.flatnonzero(rel)
    A = np.zeros((m, nv + ineq.size))
    A[:m0, :n0] = prob.A * mult
    A[:m0, n0:nv] = -prob.A[:, free]
    A[m0 + np.arange(boxed.size), boxed] = 1.0
    A[ineq, nv + np.arange(ineq.size)] = -rel[ineq]   # slack: +1 for '<=', -1 for '>='
    b = np.concatenate([prob.rhs - prob.A @ offsets, prob.hi[boxed] - prob.lo[boxed]])
    c = sign * prob.c * mult
    cs = np.concatenate([c, -c[free], np.zeros(ineq.size)])
    # Make b >= 0 for phase 1; a row's slack coefficient, after the flip,
    # is the direction in which it relaxes
    negrow = b < 0
    A[negrow] *= -1.0
    b[negrow] *= -1.0
    reldir = np.where(negrow, rel, -rel).astype(float)

    status, xs, basis, iters = _simplex_core(A, b, cs, maxiter=200 * (m + nv + 10),
                                             reldir=reldir)
    if status == "stuck":
        raise RuntimeError("simplex failed to converge numerically")
    if status != "optimal":
        return LPSolution(status=status, iterations=iters)

    x = offsets + mult * xs[:n0]
    x[free] -= xs[n0:nv]
    value = float(prob.c @ x)

    # Duals: solve B^T y = c_B on the equality system, undo row negations,
    # drop the synthetic upper-bound rows, undo the sense flip. A basis slot
    # can still hold a phase-1 artificial (redundant row): zero-cost unit
    # column.
    B = np.hstack([A, np.eye(m)])[:, basis]
    cB = np.append(cs, np.zeros(m))[basis]
    try:
        y = np.linalg.solve(B.T, cB)
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(B.T, cB, rcond=None)[0]
    y = np.where(negrow, -y, y)
    dual = sign * y[:prob.rel.size]

    return LPSolution(status="optimal", x=x, value=value, dual=dual,
                      iterations=iters)
