"""Finite factor-revealing programs bracketing the fixed-price ratio.

Two discretized programs pin down the worst-case ratio of the best
fixed-price mechanism from both sides. The lower program's global minimum
certifies a guarantee for mechanisms restricted to a finite price set; any
feasible point of the upper program converts into a concrete instance on
which no fixed price beats its objective value. A pair of min-max LPs
covers the setting where only one side's distribution is known.

Mass vectors s and b come from discretize_distribution and can sum to
more than one; lowerop_solve derives their window.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .core import (Instance, DiscreteDistribution, _gain_sweep, _gains, _json_number,
                   _prefix_sums, _read_only, _suffix_sums, best_fixed_price, opt_welfare)
from .numkernel import lp_problem, lp_solve
# Unused here; the benchmark's tracer wraps it under this module's name.
from .numkernel import certified_binary_search  # noqa: F401


@dataclass(frozen=True)
class PriceGrid:
    """Strictly increasing nonnegative price levels, at least two of them.

    Built on first use, kept read-only: `levels`, the prices;
    `pair_max`, max(p_i, p_j) at [i, j]; `unit_sums`, the prefix and
    suffix sums of the unit mass vectors, as `_gain_sweep` builds them;
    `cap`, 1 + 1/p_max, the top of the lower program's mass window.
    """

    prices: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.prices)
        object.__setattr__(self, "prices", p)
        if len(p) < 2:
            raise ValueError("a price grid needs at least two levels")
        arr = np.asarray(p)
        if not np.all(np.isfinite(arr)) or p[0] < 0:
            raise ValueError("price levels must be finite and nonnegative")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("price levels must be strictly increasing")

    @cached_property
    def n(self) -> int:
        return len(self.prices)

    @cached_property
    def levels(self) -> np.ndarray:
        return _read_only(np.array(self.prices))

    @cached_property
    def pair_max(self) -> np.ndarray:
        return _read_only(np.maximum.outer(self.levels, self.levels))

    @cached_property
    def unit_sums(self) -> tuple:
        unit = np.eye(self.n)
        return tuple(_read_only(f(unit, unit * self.levels)) for f in (_prefix_sums, _suffix_sums))

    @cached_property
    def cap(self) -> float:
        return 1.0 + 1.0 / self.prices[-1]

    def scaled(self, c: float) -> "PriceGrid":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return PriceGrid(tuple(v * c for v in self.prices))


# 16-level grid concentrating levels between 0.3 and 0.5, where worst-case
# instances put their mass, with a far anchor for high-value tails.
REFERENCE_GRID_16 = PriceGrid((0.0, 0.1, 0.19, 0.27, 0.315, 0.355, 0.395,
                               0.44, 0.485, 0.535, 0.595, 0.665, 0.74,
                               0.875, 1.195, 1000.0))


@dataclass(frozen=True)
class SolveInfo:
    """How a certificate was produced, including the bound pair.

    upper_bound is the objective of the feasible point returned;
    lower_bound, when present, is a proven bound on the program's global
    minimum and hence the number a ratio guarantee may cite. Heuristic
    modes leave it None on purpose. lp_solves is the number of LPs the
    solve ran, and lp_iterations their simplex iterations summed; both
    are read from the counters of the LPModels the solve built.
    """

    mode: str
    iterations: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0
    nodes: int = 0
    restarts: int = 0
    lower_bound: float = None
    upper_bound: float = None
    gap: float = None
    converged: bool = True


@dataclass(frozen=True)
class GridCertificate:
    """Candidate solution (s, b, r) on a price grid, lower or upper role.

    Construction checks shapes only. Feasibility is verify_certificate's
    job, so infeasible candidates can still be carried around, reported,
    and serialized.
    """

    grid: PriceGrid
    s: tuple
    b: tuple
    r: float
    role: str
    info: SolveInfo = field(default=None, compare=False)

    def __post_init__(self):
        if self.role not in ("lower", "upper"):
            raise ValueError("role must be 'lower' or 'upper'")
        s = tuple(float(v) for v in self.s)
        b = tuple(float(v) for v in self.b)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", float(self.r))
        if len(s) != self.grid.n or len(b) != self.grid.n:
            raise ValueError("mass vectors must match the grid length")
        if not all(np.isfinite(v) for v in s + b + (self.r,)):
            raise ValueError("certificate entries must be finite")
        if min(s + b) < -1e-9:
            raise ValueError("mass vectors must be nonnegative")


def _row_gains(grid, s, b, inclusive) -> np.ndarray:
    """Gains each grid price clears against mass vectors s and b.

    The price at level t clears the seller/buyer pairs with the seller
    strictly below level t (also at t itself when inclusive) and the
    buyer strictly above. s and b may carry leading batch axes, which
    broadcast; the last axis of the result runs over the levels.
    """
    p = grid.levels
    return _gain_sweep(p, s, p, b, *_sweep_ends(grid, inclusive))


def _sweep_ends(grid, inclusive):
    """Each grid price's prefix and suffix ends (k, j) in the sweep."""
    t = np.arange(grid.n + 1)
    return t[1:] if inclusive else t[:-1], t[1:]


def welfare_rows(grid, s, b, *, inclusive) -> np.ndarray:
    """Welfare of each grid price against mass vectors s and b: row t is
    sum_i s_i p_i plus the gains the price at level t clears."""
    s, b = np.asarray(s, dtype=float), np.asarray(b, dtype=float)
    return float(s @ grid.levels) + _row_gains(grid, s, b, inclusive)


def _pinned_rows(grid, fixed, free, inclusive):
    """The welfare rows and the quadratic optimum, linear in one side.

    With the other side's masses pinned to fixed, welfare row t is
    G[t] @ x + const and the optimum is h @ x in the free side's masses
    x. Returns (G, h, const). G is _row_gains at the free side's unit
    vectors, read off the grid's `unit_sums`, plus p for a free seller,
    whose masses also carry sum_i s_i p_i; for a free buyer that sum is
    const.
    """
    fixed, p = np.asarray(fixed, dtype=float), grid.levels
    ends, (ahead, behind) = _sweep_ends(grid, inclusive), grid.unit_sums
    h = grid.pair_max @ fixed
    if free == "s":
        return p + _gains(ahead, _suffix_sums(fixed, fixed * p), *ends).T, h, 0.0
    return _gains(_prefix_sums(fixed, fixed * p), behind, *ends).T, h, float(fixed @ p)


def opt_quadratic(grid, s, b) -> float:
    """The two-sided optimum proxy sum_ij s_i b_j max(p_i, p_j)."""
    return float(np.asarray(s, dtype=float) @ grid.pair_max
                 @ np.asarray(b, dtype=float))


def discretize_distribution(d: DiscreteDistribution, grid: PriceGrid) -> np.ndarray:
    """Round a distribution onto the grid, preserving its mean exactly.

    Each cell [p_i, p_{i+1}) holding mass q and mass x value E splits
    across its ends: left + right = q, left*p_i + right*p_{i+1} = E, with
    right clipped into [0, q] against rounding. The atoms from p_max up
    collapse to mass E/p_max at p_max. q and E are differences of the
    cached `d.prefix_sums`, S0 and S1, at k, the count of atoms below
    each level. The output sums to between 1 and 1 + mean/p_max, and its
    prefix sums dominate the distribution's CDF at every level.
    """
    p = grid.levels
    if d.values[0] < p[0]:
        raise ValueError("distribution has mass below the bottom price level")
    s0, s1 = d.prefix_sums
    k = np.searchsorted(d.values, p)
    q, e = np.diff(s0[k]), np.diff(s1[k])
    right = np.clip((e - q * p[:-1]) / np.diff(p), 0.0, q)
    s = np.zeros(grid.n)
    s[:-1] = q - right
    s[1:] += right
    s[-1] += (s1[-1] - s1[k[-1]]) / p[-1]
    _check_discretization(d, grid, s)
    return s


def _check_discretization(d, grid, s):
    # These hold by construction, so a failure here means a bug, not bad input.
    p = grid.levels
    mean = d.mean()
    tol = 1e-12 * max(1.0, mean)
    total = float(s.sum())
    if not 1.0 - 1e-12 <= total <= 1.0 + mean / p[-1] + tol:
        raise AssertionError("discretized mass left its envelope")
    if float(s[:-1].sum()) > 1.0 + 1e-12:
        raise AssertionError("mass below the top level exceeds one")
    below = d.prefix_sums[0][np.searchsorted(d.values, p)]
    if np.any(np.cumsum(s) < below - 1e-12):
        raise AssertionError("prefix sums fail to dominate the CDF")
    if abs(float(s @ p) - mean) > tol:
        raise AssertionError("discretization moved the mean")


# The one-sided adversary's cap on the top level's mass.
_ONE_SIDED_TOP_CAP = 10.0


def _windows(grid, role):
    """The rows a role puts on one side's masses x, as (name, levels,
    relation, rhs) for the row x[levels].sum() relation rhs.

    lower: the window [1, cap]; upper: the simplex, sum = 1; one_sided (the
    adversary of _one_sided_lp): the sub-top mass at most 1, the total at
    least 1, the top mass at most _ONE_SIDED_TOP_CAP.
    """
    every = slice(0, grid.n)
    if role == "lower":
        return (("low", every, ">=", 1.0), ("high", every, "<=", grid.cap))
    if role == "upper":
        return (("eq", every, "=", 1.0),)
    return (("sub_top", slice(0, grid.n - 1), "<=", 1.0), ("total", every, ">=", 1.0),
            ("top", slice(grid.n - 1, grid.n), "<=", _ONE_SIDED_TOP_CAP))


def _window_slack(x, levels, rel, rhs):
    """A window row's slack, nonnegative when the row holds."""
    total = float(x[levels].sum())
    return {">=": total - rhs, "<=": rhs - total, "=": -abs(total - rhs)}[rel]


@dataclass(frozen=True)
class CertificateReport:
    """Feasibility report with one slack per constraint.

    Every slack is oriented so that nonnegative means satisfied with
    margin; feasible is simply worst_slack >= -1e-9. tight_index is the
    0-based row whose welfare expression attains the maximum.
    """

    feasible: bool
    role: str
    r: float
    r_tight: bool
    tight_index: int
    opt_value: float
    rows: tuple
    row_slacks: tuple
    mass_slacks: dict
    worst_slack: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_certificate(c: GridCertificate) -> CertificateReport:
    """Check every constraint of the certificate's role and report slacks.

    Infeasibility is a report, not an error. Also reports whether r equals
    the maximum welfare row (an upper-role certificate must be tight in
    that sense before it can be turned into a hard instance).
    """
    s = np.asarray(c.s)
    b = np.asarray(c.b)
    rows = welfare_rows(c.grid, s, b, inclusive=(c.role == "upper"))
    opt = opt_quadratic(c.grid, s, b)
    mass = {f"sum_{side}_{name}": _window_slack(x, levels, rel, rhs)
            for side, x in (("s", s), ("b", b))
            for name, levels, rel, rhs in _windows(c.grid, c.role)}
    mass["nonneg"] = float(min(s.min(), b.min()))
    mass["opt"] = opt - 1.0
    row_slacks = c.r - rows
    worst = min(min(mass.values()), float(row_slacks.min()))
    tight = int(np.argmax(rows))
    return CertificateReport(
        feasible=bool(worst >= -1e-9),
        role=c.role,
        r=c.r,
        r_tight=bool(abs(c.r - float(rows[tight])) <= 1e-9),
        tight_index=tight,
        opt_value=opt,
        rows=tuple(float(w) for w in rows),
        row_slacks=tuple(float(w) for w in row_slacks),
        mass_slacks=mass,
        worst_slack=float(worst),
    )


def _half_model(grid, role):
    """The half-step LP over (free side, r), built once per solve.

    Both sides' rows are the role's mass window (_windows), h, then G,
    and only h, G and G's right-hand sides depend on the fixed
    masses, so one model serves both: it is built with placeholders in h
    and G, whose slots it resolves, and with placeholder right-hand sides.
    Returns the plan (grid, model, slots, h_row, inclusive) for _half_step.
    """
    n = grid.n
    E = np.eye(n + 1)
    cons = [(E[levels].sum(axis=0), rel, rhs) for _, levels, rel, rhs in _windows(grid, role)]
    h_row = len(cons)                   # after the mass window
    G_rows = np.append(np.ones((n, n)), -np.ones((n, 1)), axis=1)
    cons += [(E[:n].sum(axis=0), ">=", 1.0), (G_rows, "<=", 0.0)]
    model = lp_problem(E[n], cons)
    row, col = np.divmod(np.arange((n + 1) * n), n)
    return grid, model, model.slots(h_row + row, col), h_row, role == "upper"


def _half_step(plan, fixed, free, basis=None):
    """One LP over (free side, r) with the other side's masses held fixed.

    The quadratic optimum constraint is linear once a side is pinned, so
    each half problem is an honest LP, no relaxation involved. Writes h,
    G and G's right-hand sides at these fixed masses into the model of a
    _half_model plan and solves it; basis warm-starts the solve. Returns
    the solution.
    """
    grid, model, slots, h_row, inclusive = plan
    G, h, const = _pinned_rows(grid, fixed, free, inclusive)
    model.set_values(slots, np.concatenate([h, G.ravel()]))
    model.set_rhs(slice(h_row + 1, h_row + 1 + grid.n), -const)
    return lp_solve(model, basis).optimal("half step LP")


def _best_alternate(plan, starts, rounds):
    """Run the alternating descent from each starting buyer vector, all
    on the model of one _half_model plan, and keep the lowest (r, s, b).

    A run solves the seller half at its start, then alternates the buyer
    and seller halves for at most rounds rounds. The objective never
    increases: the previous half's optimum stays feasible for the next, so
    the sequence of r values is monotone and the run stops once it stalls.
    Its fixed point is a feasible certificate whose r, the worst welfare
    row there, only upper-bounds the program's global minimum. Within a
    run each side's half-step starts from that side's previous basis; the
    run's first s-step and first b-step start cold.
    Returns r, s, b, the rounds run over all starts, and whether the kept
    run stalled.
    """
    grid, inclusive = plan[0], plan[4]
    n = grid.n
    best = None
    total = 0
    for b0 in starts:
        b = np.asarray(b0, dtype=float)
        sol_s, sol_b = _half_step(plan, b, "s"), None
        s, r = sol_s.x[:n], float(sol_s.value)
        done, stalled = 0, False
        for done in range(1, rounds + 1):
            sol_b = _half_step(plan, s, "b", None if sol_b is None else sol_b.basis)
            b = sol_b.x[:n]
            sol_s = _half_step(plan, b, "s", sol_s.basis)
            s, r_s = sol_s.x[:n], float(sol_s.value)
            stalled = r - r_s < 1e-12
            r = r_s
            if stalled:
                break
        total += done
        r = float(welfare_rows(grid, s, b, inclusive=inclusive).max())
        run = (r, tuple(s), tuple(b))
        if best is None or run < best[0]:
            best = (run, stalled)
    (r, s, b), stalled = best
    return r, s, b, total, stalled


def _check_count(value, name):
    """Raise ValueError unless value is an integer (Python's or numpy's)
    of at least 1; NaN and 2.5 fail, as does 2.0."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def lowerop_solve(grid: PriceGrid, mode: str = "branch_and_bound", *,
                  node_budget: int = 200_000,
                  gap_tol: float = 1e-4) -> GridCertificate:
    """Minimize the worst welfare row subject to the guarantee constraints.

    The program: mass windows sum(s), sum(b) in [1, cap], the quadratic
    optimum at least 1, and every exclusive welfare row at most r. The
    window is discretize_distribution's contract at OPT = 1: a side's
    total lies in [1, 1 + mean/p_max], and each mean is at most
    E[max(S, B)] = OPT = 1, so the total is at most cap = 1 + 1/p_max.
    Its global minimum is a certified ratio guarantee for the mechanism
    that picks the best grid price times the observed optimum.

    alternating mode fixes one side and solves the LP in the other,
    back and forth to a stationary point; its r only upper-bounds the
    global minimum, so info.lower_bound stays None. branch_and_bound mode
    relaxes the bilinear products with envelope inequalities over a box of
    buyer masses, splits only the buyer side, takes each incumbent from the
    seller half-step at a node's buyer vector, and reports a proven bound
    pair even when the node budget runs out.
    """
    if grid.prices[0] != 0.0:
        raise ValueError("the lower program needs a grid starting at 0")
    # the negated test also rejects NaN
    if not gap_tol >= 0.0:
        raise ValueError("gap_tol must be nonnegative")
    _check_count(node_budget, "node_budget")
    # Alternating descent stalls wherever it starts, so both modes run a
    # few cheap deterministic starts: uniform, weighted toward low levels,
    # and the bottom two levels. The uniform start in particular can
    # freeze immediately on wide grids.
    n = grid.n
    inv = 1.0 / (1.0 + grid.levels)
    low2 = np.zeros(n)
    low2[:2] = 0.5
    starts = [np.full(n, 1.0 / n), inv / inv.sum(), low2]
    if mode == "alternating":
        half = _half_model(grid, "lower")
        r, s, b, iters, stalled = _best_alternate(half, starts, 60)
        info = SolveInfo(mode="alternating", iterations=iters, lp_solves=half[1].solves,
                         lp_iterations=half[1].iterations, upper_bound=r,
                         converged=stalled)
        return GridCertificate(grid, s, b, r, "lower", info)
    if mode != "branch_and_bound":
        raise ValueError(f"unknown mode {mode!r}")
    return _branch_and_bound(grid, starts, node_budget, gap_tol)


# The four McCormick corners of a node LP's envelope blocks, in row order:
# whether the seller end is cap (else 0), whether the buyer end is hi_j
# (else lo_j), and the relation of z_ij to the plane through the corner.
_CORNERS = ((False, False, ">="), (True, True, ">="), (True, False, "<="),
            (False, True, "<="))


def _node_model(grid):
    """The lower program's McCormick relaxation over a buyer box, as an
    LPModel, and the plan by which _set_box writes a box into it.

    Variables are (s, b, z, r), z_ij standing for s_i b_j at 2n + i*n + j,
    and the LP minimizes r. Rows: the static ones (the lower role's
    _windows on s, then on b, the optimum on z, one exclusive welfare row per level); four McCormick
    envelopes through the corners of _CORNERS, n*n rows (row i*n + j) per
    corner, exact for a point interval of b_j; then the aggregates, which
    pin row i of z between s_i times the box-clamped buyer mass window and
    column j between b_j and cap * b_j, cutting far deeper than the
    envelopes. s keeps [0, cap]. Every coefficient on s that depends on
    the box is built as a placeholder 1, so the matrix holds it whatever
    the box (where lo_j = 0 the (0, lo_j) row reads z_ij >= 0); the model
    holds no box until _set_box writes one.

    take gathers from (lo, hi, b_hi, b_lo, 0, cap * hi) the envelope and
    window ends, whose negatives are the coefficients on s at slots, then
    the b and z columns' lower and upper bounds; the cap corners' rows
    take -cap times the ends at at. Returns the plan (model, cap, slots,
    take, at, those rows, the b and z columns).
    """
    p = grid.levels
    n = grid.n
    cap = grid.cap
    E = np.eye(2 * n + n * n + 1)
    S, B, Z, R = E[:n], E[n:2 * n], E[2 * n:-1], E[-1]
    unit = np.eye(n)    # a welfare row's z block: the gain of each unit-mass pair
    pair = _row_gains(grid, unit[:, None], unit[None], False).reshape(n * n, n)
    cons = [(X[levels].sum(axis=0), rel, rhs) for X in (S, B)
            for _, levels, rel, rhs in _windows(grid, "lower")]
    cons += [(grid.pair_max.ravel() @ Z, ">=", 1.0), (p @ S + pair.T @ Z - R, "<=", 0.0)]
    t = np.arange(n)
    pi, pj = divmod(np.arange(n * n), n)
    cons += [(Z - S[pi] - top * cap * B[pj], rel, 0.0) for top, _, rel in _CORNERS]
    z_rows, z_cols = Z.reshape(n, n, -1).sum(axis=1), Z.reshape(n, n, -1).sum(axis=0)
    cons += [(z_rows - S, "<=", 0.0), (z_rows - S, ">=", 0.0),
             (z_cols - cap * B, "<=", 0.0), (z_cols - B, ">=", 0.0)]
    col_hi = np.full(E.shape[0], np.inf)
    col_hi[:n] = cap
    bounds = np.column_stack([np.zeros_like(col_hi), col_hi])
    model = lp_problem(R, cons, bounds=bounds)
    first = n + 5                       # the static rows come first
    slots = model.slots(first + np.arange(4 * n * n + 2 * n),
                        np.concatenate([pi, pi, pi, pi, t, t]))
    take = np.concatenate([pj + (n if upper else 0) for _, upper, _ in _CORNERS]
                          + [np.repeat([2 * n, 2 * n + 1], n), t,
                             np.repeat(2 * n + 2, n * n), n + t, 2 * n + 3 + pj])
    at = slice(n * n, 3 * n * n)        # _CORNERS[1:3], the cap corners
    return (model, cap, slots, take, at,
            slice(first + n * n, first + 3 * n * n), slice(n, 2 * n + n * n))


def _set_box(plan, lo, hi):
    """Write the buyer box lo <= b <= hi into the model of a _node_model plan.

    Writes every entry that depends on the box, values only: the envelope
    and aggregate coefficients on s, the cap corners' right-hand sides and
    the bounds on b and z, so no record of the last box is kept. The
    aggregates take the buyer mass window [1, cap] clamped to the box's sums.
    """
    model, cap, slots, take, at, rows, cols = plan
    window = [min(cap, float(hi.sum())), max(1.0, float(lo.sum()))]
    box = np.concatenate([lo, hi, window, [0.0], cap * hi])[take]
    ends = box[:len(slots)]
    model.set_values(slots, -ends)
    model.set_rhs(rows, -cap * ends[at])
    model.set_bounds(cols, *box[len(ends):].reshape(2, -1))


def _branch_and_bound(grid, starts, node_budget, gap_tol):
    """Best-first branch-and-bound on the McCormick relaxation over boxes
    of buyer masses. Each popped node that survives pruning offers one
    incumbent, the seller half-step at its b, and then splits b_j for the
    worst weighted product violation (i, j); the leaves tile the b box.

    One LPModel holds the tree's node LP; the root and then each child
    write their box there (_set_box), and a child solves from its parent's
    basis, carried by the heap. A child whose LP hits the iteration limit
    is set aside with its parent's bound. Incumbent half-steps edit the
    opening descent's half-step model; the tree's LP counts are the two
    models' counters.
    """
    n = grid.n

    # Each half-step is an honest LP, always feasible because the mass
    # windows allow enough weight at the top level to cover the optimum
    # constraint, so the best descent is a true incumbent.
    half = _half_model(grid, "lower")
    inc_r, inc_s, inc_b, _, _ = _best_alternate(half, starts, 40)

    weight = grid.pair_max.ravel() + 1.0
    box0 = (np.zeros(n), np.full(n, grid.cap))
    plan = _node_model(grid)
    model = plan[0]
    _set_box(plan, *box0)
    sol0 = lp_solve(model).optimal("root relaxation")
    nodes = 1
    # nodes rises with every child solve, so it orders entries of equal bound
    heap = [(float(sol0.value), nodes, box0, sol0.x, sol0.basis)]
    # Bounds of regions set aside without being fully resolved; they keep
    # the final lower bound honest even when exploration stops early.
    stalled = []
    fix = None                      # the last half-step warms the next
    while heap and nodes + 2 <= node_budget:
        bound, _, (lo, hi), x, basis = heapq.heappop(heap)
        if bound >= inc_r - 1e-12:
            continue
        s_val, b_val = x[:n], x[n:2 * n]
        b_fix = np.maximum(b_val, 0.0)
        fix = _half_step(half, b_fix, "s", None if fix is None else fix.basis)
        s_fix = fix.x[:n]
        r_fix = float(welfare_rows(grid, s_fix, b_fix, inclusive=False).max())
        if r_fix < inc_r:
            inc_s, inc_b, inc_r = s_fix, b_fix, r_fix
        if inc_r - bound <= gap_tol:
            # Best-bound order means every remaining region is within the
            # gap too, so this is convergence, not abandonment.
            stalled.append(bound)
            break
        viol = np.abs(x[2 * n:-1] - (s_val[:, None] * b_val).ravel()) * weight
        worst = int(viol.argmax())
        j = worst % n
        width = hi[j] - lo[j]
        if viol[worst] <= 1e-9 or width <= 1e-9:
            # The relaxation is essentially exact here: set the region
            # aside with its bound.
            stalled.append(bound)
            continue
        cut = min(max(b_val[j], lo[j] + 0.2 * width), hi[j] - 0.2 * width)
        low_hi, high_lo = hi.copy(), lo.copy()
        low_hi[j] = high_lo[j] = cut
        for child_box in ((lo, low_hi), (high_lo, hi)):
            _set_box(plan, *child_box)
            sol = lp_solve(model, basis)
            nodes += 1
            if sol.status == "iteration_limit":
                # unresolved, not empty: the parent's bound still holds
                stalled.append(bound)
            elif sol.status == "optimal" and sol.value < inc_r - 1e-12:
                heapq.heappush(heap, (float(sol.value), nodes, child_box, sol.x,
                                      sol.basis))
    lower = min([inc_r] + [h[0] for h in heap] + stalled)
    gap = inc_r - lower
    info = SolveInfo(mode="branch_and_bound", nodes=nodes,
                     lp_solves=half[1].solves + model.solves,
                     lp_iterations=half[1].iterations + model.iterations,
                     lower_bound=float(lower), upper_bound=float(inc_r),
                     gap=float(gap), converged=bool(gap <= gap_tol))
    return GridCertificate(grid, tuple(inc_s), tuple(inc_b), float(inc_r),
                           "lower", info)


def upperop_search(grid: PriceGrid, restarts: int = 8, *,
                   seed: int = 0) -> GridCertificate:
    """Search for a low-objective feasible point of the hardness program.

    The program: s and b on the probability simplex, the quadratic optimum
    at least 1, and every inclusive welfare row at most r. Any feasible
    point is a valid hardness witness, so plain alternating descent with
    random restarts is enough; no global optimality is claimed. The first
    restart starts from the uniform buyer vector, restart k from a
    Dirichlet draw seeded with seed + k.

    If the grid's top level is below 1 the whole grid is scaled up so the
    optimum constraint stays satisfiable; the certificate then carries the
    scaled grid (the objective is scale-free in the sense that the ratio
    statement it encodes is unchanged).
    """
    _check_count(restarts, "restarts")
    work = grid if grid.prices[-1] >= 1.0 else grid.scaled(1.0 / grid.prices[-1])
    n = work.n
    rngs = (np.random.default_rng(seed + k) for k in range(1, restarts))
    starts = [np.full(n, 1.0 / n)] + [rng.dirichlet(np.ones(n)) for rng in rngs]
    half = _half_model(work, "upper")
    r, s, b, iters, _ = _best_alternate(half, starts, 40)
    info = SolveInfo(mode="upperop_alternating", iterations=iters,
                     lp_solves=half[1].solves, lp_iterations=half[1].iterations,
                     restarts=restarts, upper_bound=r)
    return GridCertificate(work, s, b, r, "upper", info)


def upperop_to_instance(c: GridCertificate) -> Instance:
    """Turn a tight upper-role certificate into a hard instance.

    Sellers sit just above each level (tie rank 1) with masses s, buyers
    exactly at each level (tie rank 0) with masses b. With that tie
    layout the price at (level t, rank 1) collects exactly welfare row t,
    prices between levels collect nothing extra, and the instance optimum
    equals the certificate's quadratic form, so the best fixed price
    achieves at most fraction r of the optimum. Verified before returning.
    """
    if c.role != "upper":
        raise ValueError("hard instances come from upper-role certificates")
    report = verify_certificate(c)
    if not report.feasible or not report.r_tight:
        raise ValueError("certificate must be feasible and tight in r")
    p = c.grid.prices
    # verification allows masses in [-1e-9, 0); they are dropped, from the sums too
    s = np.maximum(c.s, 0.0)
    b = np.maximum(c.b, 0.0)
    seller = tuple((p[i], 1.0, s[i] / s.sum()) for i in range(c.grid.n) if s[i] > 0)
    buyer = tuple((p[j], 0.0, b[j] / b.sum()) for j in range(c.grid.n) if b[j] > 0)
    inst = Instance(DiscreteDistribution(seller), DiscreteDistribution(buyer))
    _, best_w = best_fixed_price(inst)
    if best_w > (c.r + 1e-9) * opt_welfare(inst):
        raise AssertionError("conversion produced a better price than promised")
    return inst


def _one_sided_lp(grid, fixed_side, fixed_vector):
    """The one-sided program's LP data over (omega, duals, r).

    With, say, the buyer's mass vector pinned, the adversary picks the
    seller's masses x >= 0 within the rows of _windows(grid, "one_sided")
    and the mechanism picks a lottery omega over grid prices. The margin at
    ratio r is

        max over lotteries, min over adversary masses of
        expected welfare row - r * quadratic optimum,

    with the inner minimum replaced by its LP dual, one nonnegative
    multiplier per window row, signed -1 for a <= row and +1 for a >= row.
    r enters only the optimum term, so it is one more column. Returns the
    constraint blocks, the margin's objective row, and const, which the
    margin adds to that row's value.
    """
    if fixed_side not in ("buyer", "seller"):
        raise ValueError("fixed_side must be 'buyer' or 'seller'")
    n = grid.n
    vec = np.asarray(fixed_vector, dtype=float)
    if vec.shape != (n,) or np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise ValueError("fixed vector must be a nonnegative vector on the grid")
    if vec.sum() < 1.0 - 1e-9:
        raise ValueError("fixed vector must carry mass at least 1")
    G, h, const = _pinned_rows(grid, vec, "s" if fixed_side == "buyer" else "b", False)
    windows = _windows(grid, "one_sided")
    duals, sign_rhs = np.zeros((n, len(windows))), np.zeros(len(windows))
    for k, (_, levels, rel, rhs) in enumerate(windows):
        sign = {"<=": -1.0, ">=": 1.0}[rel]
        duals[levels, k], sign_rhs[k] = sign, sign * rhs
    cons = [(np.hstack([-G.T, duals, h[:, None]]), "<=", 0.0),
            (np.append(np.ones(n), np.zeros(len(windows) + 1)), "=", 1.0)]
    return cons, np.concatenate([np.zeros(n), sign_rhs, [0.0]]), const


def one_sided_value(grid: PriceGrid, fixed_side: str, fixed_vector, r: float):
    """Best guaranteed margin of a price lottery when one side is known,
    against every adversary in _one_sided_lp's set: a nonnegative value
    means the lottery guarantees an r fraction of the optimum. Returns
    (value, lottery weights)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    cons, margin, const = _one_sided_lp(grid, fixed_side, fixed_vector)
    bounds = [(0.0, None)] * (len(margin) - 1) + [(r, r)]
    model = lp_problem(margin, cons, bounds=bounds, sense="max")
    sol = lp_solve(model).optimal("one-sided LP")
    return float(sol.value) + const, sol.x[:grid.n]


def one_sided_certify(grid: PriceGrid, fixed_side: str, fixed_vector) -> float:
    """Largest ratio in [0, 1] with a nonnegative one-sided value.

    One LP: the value's program with r free in [0, 1] and the margin held
    nonnegative, maximizing r. The result is that LP's float optimum, not
    an exactly checked bound.
    """
    cons, margin, const = _one_sided_lp(grid, fixed_side, fixed_vector)
    bounds = [(0.0, None)] * (len(margin) - 1) + [(0.0, 1.0)]
    sol = lp_solve(lp_problem(np.eye(len(margin))[-1], cons + [(margin, ">=", -const)],
                              bounds=bounds, sense="max")).optimal("one-sided LP")
    # a basic r can sit a rounding error outside its bounds
    return float(np.clip(sol.value, 0.0, 1.0))


def certificate_to_json(c: GridCertificate) -> dict:
    return {"role": c.role, "prices": list(c.grid.prices),
            "s": list(c.s), "b": list(c.b), "r": c.r}


def certificate_from_json(obj) -> GridCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    missing = {"role", "prices", "s", "b", "r"} - set(obj)
    if missing:
        raise ValueError(f"certificate JSON missing {sorted(missing)}")
    # a string would pass tuple() one character at a time
    if not all(isinstance(obj[k], list) for k in ("prices", "s", "b")):
        raise ValueError("certificate JSON fields must be numbers and lists")
    prices, s, b = (tuple(_json_number(x, "certificate JSON entries") for x in obj[k])
                    for k in ("prices", "s", "b"))
    return GridCertificate(PriceGrid(prices), s, b,
                           _json_number(obj["r"], "certificate JSON entries"), obj["role"])
