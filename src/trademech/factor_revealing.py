"""Finite factor-revealing programs bracketing the fixed-price ratio.

Two discretized programs pin down the worst-case ratio of the best
fixed-price mechanism from both sides. The lower program's global minimum
certifies a guarantee for mechanisms restricted to a finite price set; any
feasible point of the upper program converts into a concrete instance on
which no fixed price beats its objective value. A pair of min-max LPs
covers the setting where only one side's distribution is known.

Mass vectors s and b here are near-probability vectors produced by
discretize_distribution: they can sum to slightly more than one because
the tail above the top price collapses to (tail mean)/p_max.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .core import (Instance, DiscreteDistribution, _gain_sweep, best_fixed_price,
                   opt_welfare)
from .numkernel import lp_problem, lp_solve
# Unused here; the benchmark's tracer wraps it under this module's name.
from .numkernel import certified_binary_search  # noqa: F401


@dataclass(frozen=True)
class PriceGrid:
    """Strictly increasing nonnegative price levels, at least two of them."""

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

    @property
    def n(self) -> int:
        return len(self.prices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.prices)

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
    modes leave it None on purpose.
    """

    mode: str
    iterations: int = 0
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
    p = grid.as_array()
    t = np.arange(grid.n)
    return _gain_sweep(p, s, p, b, t + 1 if inclusive else t, t + 1)


def welfare_rows(grid, s, b, *, inclusive) -> np.ndarray:
    """Welfare of each grid price against mass vectors s and b: row t is
    sum_i s_i p_i plus the gains the price at level t clears."""
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(s @ grid.as_array()) + _row_gains(grid, s, b, inclusive)


def _pinned_rows(grid, fixed, free, inclusive):
    """The welfare rows and the quadratic optimum, linear in one side.

    With the other side's masses pinned to fixed, welfare row t is
    G[t] @ x + const and the optimum is h @ x in the free side's masses
    x; G comes from sweeping the free side's unit vectors. Returns
    (G, h, const).
    """
    p = grid.as_array()
    fixed = np.asarray(fixed, dtype=float)
    unit = np.eye(grid.n)
    h = np.maximum.outer(p, p) @ fixed
    if free == "s":
        return p + _row_gains(grid, unit, fixed, inclusive).T, h, 0.0
    return _row_gains(grid, fixed, unit, inclusive).T, h, float(fixed @ p)


def opt_quadratic(grid, s, b) -> float:
    """The two-sided optimum proxy sum_ij s_i b_j max(p_i, p_j)."""
    p = grid.as_array()
    return float(np.asarray(s, dtype=float)
                 @ np.maximum.outer(p, p)
                 @ np.asarray(b, dtype=float))


def discretize_distribution(d: DiscreteDistribution, grid: PriceGrid) -> np.ndarray:
    """Round a distribution onto the grid, preserving its mean exactly.

    Each cell [p_i, p_{i+1}) holding mass q with partial mean E is split
    across its two ends: left + right = q and left*p_i + right*p_{i+1} = E.
    Everything from p_max up collapses to mass (tail mean)/p_max at p_max.
    The output sums to between 1 and 1 + mean/p_max, its prefix sums
    dominate the distribution's CDF at every level, and its inner product
    with the grid reproduces the mean.
    """
    p = grid.as_array()
    v, m = d.values, d.masses
    if np.any(v < p[0]):
        raise ValueError("distribution has mass below the bottom price level")
    n = grid.n
    s = np.zeros(n)
    cell = np.searchsorted(p, v, side="right") - 1
    for i in range(n - 1):
        sel = cell == i
        q = float(m[sel].sum())
        if q == 0.0:
            continue
        e = float((m[sel] * v[sel]).sum())
        right = (e - q * p[i]) / (p[i + 1] - p[i])
        s[i] += q - right
        s[i + 1] += right
    tail = cell == n - 1
    s[n - 1] += float((m[tail] * v[tail]).sum()) / p[n - 1]
    s = np.maximum(s, 0.0)
    _check_discretization(d, grid, s)
    return s


def _check_discretization(d, grid, s):
    # These hold by construction, so a failure here means a bug, not bad input.
    p = grid.as_array()
    mean = d.mean()
    tol = 1e-12 * max(1.0, mean)
    total = float(s.sum())
    if not 1.0 - 1e-12 <= total <= 1.0 + mean / p[-1] + tol:
        raise AssertionError("discretized mass left its envelope")
    if float(s[:-1].sum()) > 1.0 + 1e-12:
        raise AssertionError("mass below the top level exceeds one")
    prefix = np.cumsum(s)
    below = np.array([float(d.masses[d.values < level].sum()) for level in p])
    if np.any(prefix < below - 1e-12):
        raise AssertionError("prefix sums fail to dominate the CDF")
    if abs(float(s @ p) - mean) > tol:
        raise AssertionError("discretization moved the mean")


@dataclass(frozen=True)
class CertificateReport:
    """Feasibility report with one slack per constraint.

    Every slack is oriented so that nonnegative means satisfied with
    margin; feasible is simply worst_slack >= -tol. tight_index is the
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
        return {
            "feasible": self.feasible,
            "role": self.role,
            "r": self.r,
            "r_tight": self.r_tight,
            "tight_index": self.tight_index,
            "opt_value": self.opt_value,
            "rows": list(self.rows),
            "row_slacks": list(self.row_slacks),
            "mass_slacks": dict(self.mass_slacks),
            "worst_slack": self.worst_slack,
        }


def verify_certificate(c: GridCertificate, tol: float = 1e-9) -> CertificateReport:
    """Check every constraint of the certificate's role and report slacks.

    Infeasibility is a report, not an error. Also reports whether r equals
    the maximum welfare row (an upper-role certificate must be tight in
    that sense before it can be turned into a hard instance).
    """
    p = c.grid.as_array()
    s = np.asarray(c.s)
    b = np.asarray(c.b)
    rows = welfare_rows(c.grid, s, b, inclusive=(c.role == "upper"))
    opt = opt_quadratic(c.grid, s, b)
    if c.role == "lower":
        win = 1.0 + 1.0 / p[-1]
        mass = {
            "sum_s_low": float(s.sum() - 1.0),
            "sum_s_high": float(win - s.sum()),
            "sum_b_low": float(b.sum() - 1.0),
            "sum_b_high": float(win - b.sum()),
        }
    else:
        mass = {
            "sum_s_eq": -abs(float(s.sum()) - 1.0),
            "sum_b_eq": -abs(float(b.sum()) - 1.0),
        }
    mass["nonneg"] = float(min(s.min(), b.min()))
    mass["opt"] = opt - 1.0
    row_slacks = c.r - rows
    worst = min(min(mass.values()), float(row_slacks.min()))
    tight = int(np.argmax(rows))
    return CertificateReport(
        feasible=bool(worst >= -tol),
        role=c.role,
        r=c.r,
        r_tight=bool(abs(c.r - float(rows[tight])) <= tol),
        tight_index=tight,
        opt_value=opt,
        rows=tuple(float(w) for w in rows),
        row_slacks=tuple(float(w) for w in row_slacks),
        mass_slacks=mass,
        worst_slack=float(worst),
    )


def _half_step(grid, fixed, free, role):
    """One LP over (free side, r) with the other side's masses held fixed.

    The quadratic optimum constraint is linear once a side is pinned, so
    each half problem is an honest LP, no relaxation involved. Returns the
    optimizing mass vector and its objective r.
    """
    p = grid.as_array()
    n = grid.n
    G, h, const = _pinned_rows(grid, fixed, free, role == "upper")
    ones = np.append(np.ones(n), 0.0)
    if role == "lower":
        cons = [(ones, ">=", 1.0), (ones, "<=", 1.0 + 1.0 / p[-1])]
    else:
        cons = [(ones, "=", 1.0)]
    cons.append((np.append(h, 0.0), ">=", 1.0))
    cons.append((np.column_stack([G, -np.ones(n)]), "<=", -const))
    sol = lp_solve(lp_problem(np.append(np.zeros(n), 1.0), cons))
    if sol.status != "optimal":
        raise RuntimeError(f"half step LP came back {sol.status}")
    return sol.x[:n], float(sol.value)


def _alternate(grid, role, b0, rounds):
    """Alternate the two half LPs from a starting buyer vector.

    The objective never increases: the previous half's optimum stays
    feasible for the next, so the sequence of r values is monotone and the
    loop stops once it stalls. The fixed point is a feasible certificate
    whose r only upper-bounds the program's global minimum. Returns
    (s, b, r, rounds run, whether the run stalled).
    """
    b = np.asarray(b0, dtype=float)
    s, r = _half_step(grid, b, "s", role)
    done, stalled = 0, False
    for done in range(1, rounds + 1):
        b, _ = _half_step(grid, s, "b", role)
        s, r_s = _half_step(grid, b, "s", role)
        stalled = r - r_s < 1e-12
        r = r_s
        if stalled:
            break
    rows = welfare_rows(grid, s, b, inclusive=(role == "upper"))
    return s, b, float(rows.max()), done, stalled


def _best_alternate(grid, role, starts, rounds):
    """Run the alternating descent from each starting buyer vector and
    keep the lowest (r, s, b). Returns r, s, b, the rounds run over all
    starts, and whether the kept run stalled."""
    best = None
    total = 0
    for b0 in starts:
        s, b, r, done, stalled = _alternate(grid, role, b0, rounds)
        total += done
        run = (r, tuple(s), tuple(b))
        if best is None or run < best[0]:
            best = (run, stalled)
    (r, s, b), stalled = best
    return r, s, b, total, stalled


def lowerop_solve(grid: PriceGrid, mode: str = "branch_and_bound", *,
                  node_budget: int = 200_000,
                  gap_tol: float = 1e-4) -> GridCertificate:
    """Minimize the worst welfare row subject to the guarantee constraints.

    The program: mass windows sum(s), sum(b) in [1, 1 + 1/p_max], the
    quadratic optimum at least 1, and every exclusive welfare row at most
    r. Its global minimum is a certified ratio guarantee for the mechanism
    that picks the best grid price times the observed optimum.

    alternating mode fixes one side and solves the LP in the other,
    back and forth to a stationary point; its r only upper-bounds the
    global minimum, so info.lower_bound stays None. branch_and_bound mode
    relaxes the bilinear products with envelope inequalities, branches on
    the worst violation, and reports a proven bound pair even when the
    node budget runs out.
    """
    if grid.prices[0] != 0.0:
        raise ValueError("the lower program needs a grid starting at 0")
    # the negated test also rejects NaN
    if not gap_tol >= 0.0:
        raise ValueError("gap_tol must be nonnegative")
    if node_budget < 1:
        raise ValueError("node_budget must be at least 1")
    # Alternating descent stalls wherever it starts, so both modes run a
    # few cheap deterministic starts: uniform, weighted toward low levels,
    # and the bottom two levels. The uniform start in particular can
    # freeze immediately on wide grids.
    n = grid.n
    inv = 1.0 / (1.0 + grid.as_array())
    low2 = np.zeros(n)
    low2[:2] = 0.5
    starts = [np.full(n, 1.0 / n), inv / inv.sum(), low2]
    if mode == "alternating":
        r, s, b, iters, stalled = _best_alternate(grid, "lower", starts, 60)
        info = SolveInfo(mode="alternating", iterations=iters,
                         upper_bound=r, converged=stalled)
        return GridCertificate(grid, s, b, r, "lower", info)
    if mode != "branch_and_bound":
        raise ValueError(f"unknown mode {mode!r}")
    return _branch_and_bound(grid, starts, node_budget, gap_tol)


def _box_rows(grid, lo, hi):
    """The rows of the lower program's relaxation that depend on the box.

    Variables are (s, b, z, r), with z_ij standing for s_i b_j at index
    2n + i*n + j. The box is lo <= (s, b) <= hi, both of length 2n. Four
    McCormick envelopes bound each z_ij through the box corners; the
    (lo, lo) one is left out where both lower bounds are 0, since z >= 0
    says as much. The aggregate rows use that the z block's row i sums to
    s_i times the total buyer mass, so the box-clamped mass window pins
    it from both sides (and likewise per column); these cut far deeper
    than the pairwise envelopes alone. Returns the envelope blocks and
    the aggregate blocks, each a list of (rows, rel, rhs).
    """
    n = grid.n
    cap = 1.0 + 1.0 / grid.prices[-1]
    E = np.eye(2 * n + n * n + 1)
    S, B, Z = E[:n], E[n:2 * n], E[2 * n:-1]
    pi, pj = divmod(np.arange(n * n), n)

    def envelope(s_end, b_end, rel):
        # z_ij against the plane through the corner (s_end, b_end)
        return (Z - b_end[:, None] * S[pi] - s_end[:, None] * B[pj], rel,
                -s_end * b_end)

    lo_s, hi_s, lo_b, hi_b = lo[pi], hi[pi], lo[n + pj], hi[n + pj]
    low, rel, rhs = envelope(lo_s, lo_b, ">=")
    keep = (lo_s > 0.0) | (lo_b > 0.0)
    s_lo, s_hi = max(1.0, float(lo[:n].sum())), min(cap, float(hi[:n].sum()))
    b_lo, b_hi = max(1.0, float(lo[n:].sum())), min(cap, float(hi[n:].sum()))
    z_rows = Z.reshape(n, n, -1).sum(axis=1)
    z_cols = Z.reshape(n, n, -1).sum(axis=0)
    return ([(low[keep], rel, rhs[keep]),
             envelope(hi_s, hi_b, ">="),
             envelope(hi_s, lo_b, "<="),
             envelope(lo_s, hi_b, "<=")],
            [(z_rows - b_hi * S, "<=", 0.0),
             (z_rows - b_lo * S, ">=", 0.0),
             (z_cols - s_hi * B, "<=", 0.0),
             (z_cols - s_lo * B, ">=", 0.0)])


def _branch_and_bound(grid, starts, node_budget, gap_tol):
    p = grid.as_array()
    n = grid.n
    cap = 1.0 + 1.0 / p[-1]
    M = np.maximum.outer(p, p)
    E = np.eye(2 * n + n * n + 1)
    S, B, Z, R = E[:n], E[n:2 * n], E[2 * n:-1], E[-1]

    # Static rows: mass windows, the optimum constraint on the product
    # variables, and one welfare row per level. Its z block is the gain
    # each seller/buyer pair of unit masses collects at that level.
    unit = np.eye(n)
    pair = _row_gains(grid, unit[:, None], unit[None], False).reshape(n * n, n)
    welfare = p @ S + pair.T @ Z - R
    static = [(S.sum(axis=0), ">=", 1.0), (S.sum(axis=0), "<=", cap),
              (B.sum(axis=0), ">=", 1.0), (B.sum(axis=0), "<=", cap),
              (M.ravel() @ Z, ">=", 1.0), (welfare, "<=", 0.0)]

    def solve_box(lo, hi, objective=R, extra=()):
        bounds = np.column_stack([
            np.concatenate([lo, np.zeros(n * n + 1)]),
            np.concatenate([hi, np.outer(hi[:n], hi[n:]).ravel(), [np.inf]])])
        envelopes, aggregates = _box_rows(grid, lo, hi)
        cons = static + envelopes + list(extra) + aggregates
        return lp_solve(lp_problem(objective, cons, bounds=bounds))

    # Each half-step is an honest LP, always feasible because the mass
    # windows allow enough weight at the top level to cover the optimum
    # constraint, so the best descent is a true incumbent.
    inc_r, inc_s, inc_b, _, _ = _best_alternate(grid, "lower", starts, 40)

    # Root box tightening: push each mass coordinate to its extremes over
    # the relaxation cut down to the incumbent's level set. Every optimum
    # survives that cut, and the coordinates that must sit near zero get
    # pinned to slivers instead of keeping the whole [0, cap] range. Each
    # probe is a full-size LP, so only small grids earn the 4n solves.
    lo0, hi0 = np.zeros(2 * n), np.full(2 * n, cap)
    level_cap = (R, "<=", inc_r + 1e-9)
    probes = range(2 * n) if n <= 8 else range(0)
    for k in probes:
        for sense in (1.0, -1.0):
            sol = solve_box(lo0, hi0, objective=sense * E[k], extra=(level_cap,))
            if sol.status != "optimal":
                continue
            v = float(sol.x[k])
            if sense > 0:
                lo0[k] = max(lo0[k], min(v - 1e-9, cap))
            else:
                hi0[k] = min(hi0[k], max(v + 1e-9, 0.0))
    lo0 = np.maximum(lo0, 0.0)

    weight = M + 1.0
    sol0 = solve_box(lo0, hi0)
    if sol0.status != "optimal":
        raise RuntimeError(f"root relaxation came back {sol0.status}")
    nodes = 1
    counter = 0
    heap = [(float(sol0.value), counter, (lo0, hi0), sol0.x)]
    # Bounds of regions set aside without being fully resolved; they keep
    # the final lower bound honest even when exploration stops early.
    stalled = []
    while heap and nodes + 2 <= node_budget:
        bound, _, (lo, hi), x = heapq.heappop(heap)
        if bound >= inc_r - 1e-12:
            continue
        if inc_r - bound <= gap_tol:
            # Best-bound order means every remaining region is within the
            # gap too, so this is convergence, not abandonment.
            stalled.append(bound)
            break
        s_val, b_val = x[:n], x[n:2 * n]
        z_val = x[2 * n:-1].reshape(n, n)
        viol = np.abs(z_val - np.outer(s_val, b_val)) * weight
        i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
        width = hi - lo
        if viol[i, j] <= 1e-9 or max(width[i], width[n + j]) <= 1e-9:
            # The relaxation is essentially exact here; harvest a true
            # feasible point and set the region aside with its bound.
            fix = _alternate(grid, "lower", np.maximum(b_val, 0.0), 0)
            if fix[2] < inc_r:
                inc_s, inc_b, inc_r = fix[:3]
            stalled.append(bound)
            continue
        # split the wider of the two coordinates, the seller's on a tie
        k = i if width[i] >= width[n + j] else n + j
        cut = min(max(x[k], lo[k] + 0.2 * width[k]), hi[k] - 0.2 * width[k])
        low_hi, high_lo = hi.copy(), lo.copy()
        low_hi[k] = high_lo[k] = cut
        for child_box in ((lo, low_hi), (high_lo, hi)):
            sol = solve_box(*child_box)
            nodes += 1
            if sol.status != "optimal":
                continue
            child = float(sol.value)
            cs, cb = sol.x[:n], sol.x[n:2 * n]
            if opt_quadratic(grid, cs, cb) >= 1.0 - 1e-9:
                rc = float(welfare_rows(grid, cs, cb, inclusive=False).max())
                if rc < inc_r:
                    inc_s, inc_b, inc_r = cs, cb, rc
            if child < inc_r - 1e-12:
                counter += 1
                heapq.heappush(heap, (child, counter, child_box, sol.x))
    lower = min([inc_r] + [h[0] for h in heap] + stalled)
    gap = inc_r - lower
    info = SolveInfo(mode="branch_and_bound", nodes=nodes,
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
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    work = grid if grid.prices[-1] >= 1.0 else grid.scaled(1.0 / grid.prices[-1])
    n = work.n
    rngs = (np.random.default_rng(seed + k) for k in range(1, restarts))
    starts = [np.full(n, 1.0 / n)] + [rng.dirichlet(np.ones(n)) for rng in rngs]
    r, s, b, iters, _ = _best_alternate(work, "upper", starts, 40)
    info = SolveInfo(mode="upperop_alternating", iterations=iters,
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
    s = np.asarray(c.s)
    b = np.asarray(c.b)
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
    seller's masses from {x >= 0, sum of all but the last at most 1, total
    at least 1, last coordinate at most 10} and the mechanism picks a
    lottery omega over grid prices. The margin at ratio r is

        max over lotteries, min over adversary masses of
        expected welfare row - r * quadratic optimum,

    with the inner minimum replaced by its LP dual in three multipliers.
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
    # the top level's row takes the cap multiplier in place of the sub-top window's
    duals = np.tile([-1.0, 1.0, 0.0], (n, 1))
    duals[-1] = [0.0, 1.0, -1.0]
    cons = [(np.hstack([-G.T, duals, h[:, None]]), "<=", 0.0),
            (np.append(np.ones(n), np.zeros(4)), "=", 1.0)]
    return cons, np.append(np.zeros(n), [-1.0, 1.0, -10.0, 0.0]), const


def one_sided_value(grid: PriceGrid, fixed_side: str, fixed_vector, r: float):
    """Best guaranteed margin of a price lottery when one side is known,
    against every adversary in _one_sided_lp's set: a nonnegative value
    means the lottery guarantees an r fraction of the optimum. Returns
    (value, lottery weights)."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    cons, margin, const = _one_sided_lp(grid, fixed_side, fixed_vector)
    bounds = [(0.0, None)] * (grid.n + 3) + [(r, r)]
    sol = lp_solve(lp_problem(margin, cons, bounds=bounds, sense="max"))
    if sol.status != "optimal":
        raise RuntimeError(f"one-sided LP came back {sol.status}")
    return float(sol.value) + const, sol.x[:grid.n]


def one_sided_certify(grid: PriceGrid, fixed_side: str, fixed_vector) -> float:
    """Largest ratio in [0, 1] with a nonnegative one-sided value.

    One LP: the value's program with r free in [0, 1] and the margin held
    nonnegative, maximizing r. The result is that LP's float optimum, not
    an exactly checked bound.
    """
    cons, margin, const = _one_sided_lp(grid, fixed_side, fixed_vector)
    bounds = [(0.0, None)] * (grid.n + 3) + [(0.0, 1.0)]
    sol = lp_solve(lp_problem(np.eye(grid.n + 4)[-1], cons + [(margin, ">=", -const)],
                              bounds=bounds, sense="max"))
    if sol.status != "optimal":
        raise RuntimeError(f"one-sided LP came back {sol.status}")
    # a basic r can sit a rounding error outside its bounds
    return float(np.clip(sol.value, 0.0, 1.0))


def convergence_bracket(base_grid_step: float, range_cap: float, *,
                        node_budget: int = 4000, restarts: int = 8,
                        seed: int = 0):
    """Bracket the true worst-case ratio with a uniform grid.

    Builds levels 0, step, 2*step, ... up to the cap plus a far anchor at
    1000. The lower side is the proven branch-and-bound bound, run on an
    evenly thinned copy of at most 12 levels, which keeps each node's LP
    small (any grid's guarantee is a valid lower bound for the
    unrestricted problem). The upper side is the best hardness witness
    the alternating search finds on the full grid. Both sides bound the
    same quantity, so lower <= upper always.
    """
    if not (np.isfinite(base_grid_step) and np.isfinite(range_cap)):
        raise ValueError("grid step and range cap must be finite")
    if base_grid_step <= 0:
        raise ValueError("grid step must be positive")
    if range_cap <= base_grid_step:
        raise ValueError("range cap must exceed the grid step")
    k = int(np.floor(range_cap / base_grid_step + 1e-9))
    levels = [i * base_grid_step for i in range(k + 1)]
    if levels[-1] < 1000.0:
        levels.append(1000.0)
    grid = PriceGrid(tuple(levels))
    if grid.n <= 12:
        sub = grid
    else:
        idx = sorted(set(np.linspace(0, grid.n - 1, 12).round().astype(int)))
        sub = PriceGrid(tuple(grid.prices[i] for i in idx))
    lower_cert = lowerop_solve(sub, "branch_and_bound", node_budget=node_budget)
    upper_cert = upperop_search(grid, restarts, seed=seed)
    return float(lower_cert.info.lower_bound), float(upper_cert.r)


def certificate_to_json(c: GridCertificate) -> dict:
    return {"role": c.role, "prices": list(c.grid.prices),
            "s": list(c.s), "b": list(c.b), "r": c.r}


def certificate_from_json(obj) -> GridCertificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    missing = {"role", "prices", "s", "b", "r"} - set(obj)
    if missing:
        raise ValueError(f"certificate JSON missing {sorted(missing)}")
    try:
        return GridCertificate(PriceGrid(tuple(obj["prices"])),
                               tuple(obj["s"]), tuple(obj["b"]),
                               float(obj["r"]), obj["role"])
    except TypeError as e:
        raise ValueError("certificate JSON fields must be numbers and lists") from e
