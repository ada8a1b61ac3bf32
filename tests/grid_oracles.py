"""Reference computations for the grid-program tests, built from scratch.

Everything here recomputes expected values with plain loops and scipy,
independently of the library's own row builders and LP solver, so the
tests compare two implementations that share no code. Slow is fine.
"""

import itertools

import numpy as np
from scipy.optimize import linprog


def strict_row_coeffs(p, b, t):
    """Coefficient of s_i in exclusive welfare row t for pinned b."""
    n = len(p)
    c = [float(p[i]) for i in range(n)]
    for i in range(t):
        c[i] += sum(b[j] * (p[j] - p[i]) for j in range(t + 1, n))
    return c


def s_side_min(p, b, cap_total):
    """Exact min over s of the worst exclusive row, scipy LP.

    Feasible set: s >= 0, total mass in [1, cap_total], and the proxy
    optimum sum_ij s_i b_j max(p_i, p_j) at least 1. Returns None when
    the pinned b admits no feasible s.
    """
    n = len(p)
    h = [sum(b[j] * max(p[i], p[j]) for j in range(n)) for i in range(n)]
    A_ub, b_ub = [], []
    for t in range(n):
        A_ub.append(strict_row_coeffs(p, b, t) + [-1.0])
        b_ub.append(0.0)
    A_ub.append([-v for v in h] + [0.0])
    b_ub.append(-1.0)
    A_ub.append([1.0] * n + [0.0])
    b_ub.append(cap_total)
    A_ub.append([-1.0] * n + [0.0])
    b_ub.append(-1.0)
    res = linprog([0.0] * n + [1.0], A_ub=A_ub, b_ub=b_ub,
                  bounds=[(0.0, None)] * (n + 1), method="highs")
    return float(res.fun) if res.status == 0 else None


def one_sided_buyer_ratio(p, b):
    """The one-sided ratio for a pinned buyer b, from its plain LP.

    With b pinned the welfare rows have no constant term, so the margin
    of a lottery omega is linear in the seller masses s, and every unit
    vector is an admissible s. The adversary then ranges over the whole
    orthant, and omega guarantees r exactly when, level by level,
    sum_t omega_t strict_row_coeffs(p, b, t)[i] >= r * sum_j b_j max(p_i, p_j).
    Returns the largest such r in [0, 1] over omega on the simplex.
    """
    n = len(p)
    rows = [strict_row_coeffs(p, b, t) for t in range(n)]
    A_ub = [[-rows[t][i] for t in range(n)]
            + [sum(b[j] * max(p[i], p[j]) for j in range(n))] for i in range(n)]
    res = linprog([0.0] * n + [-1.0], A_ub=A_ub, b_ub=[0.0] * n,
                  A_eq=[[1.0] * n + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(0.0, 1.0)], method="highs")
    return -float(res.fun)


def compositions(total, parts):
    """All nonnegative integer tuples of the given length summing to total."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def bruteforce_lower_value(p, step=0.01):
    """Min over 0.01-step buyer vectors of the exact s-side LP minimum.

    The buyer mass window [1, 1 + 1/p_max] contains no step multiple
    other than 1 for the grids used here, so the enumeration runs over
    unit-sum vectors.
    """
    k = round(1.0 / step)
    cap_total = 1.0 + 1.0 / p[-1]
    best = None
    for comp in compositions(k, len(p)):
        b = [c / k for c in comp]
        v = s_side_min(p, b, cap_total)
        if v is not None and (best is None or v < best):
            best = v
    return best


def bruteforce_lower_value_both_grids(p, step=0.02):
    """Min of the worst exclusive row over step-gridded (s, b) pairs."""
    k = round(1.0 / step)
    n = len(p)
    best = None
    pts = [tuple(c / k for c in comp) for comp in compositions(k, n)]
    for s in pts:
        for b in pts:
            opt = sum(s[i] * b[j] * max(p[i], p[j])
                      for i in range(n) for j in range(n))
            if opt < 1.0:
                continue
            worst = max(sum(c * si for c, si in zip(strict_row_coeffs(p, b, t), s))
                        for t in range(n))
            if best is None or worst < best:
                best = worst
    return best


def one_sided_saddle_scan(p, fixed_side, vec, r, cap, step=0.01):
    """Max over gridded lotteries of the exact inner minimization.

    The inner problem is linear in the free side once the lottery is
    pinned, so scipy handles it; the outer maximization scans the lottery
    simplex at the given step. Only meant for two-level grids.
    """
    n = len(p)
    if n != 2:
        raise ValueError("the scan oracle only covers two-level grids")
    k = round(1.0 / step)
    best = None
    for a in range(k + 1):
        omega = (a / k, 1.0 - a / k)
        if fixed_side == "buyer":
            # free seller x: obj coeff on x_i from rows and the proxy term
            c = [0.0] * n
            for t in range(n):
                coeffs = strict_row_coeffs(p, vec, t)
                for i in range(n):
                    c[i] += omega[t] * coeffs[i]
            for i in range(n):
                c[i] -= r * sum(vec[j] * max(p[i], p[j]) for j in range(n))
            const = 0.0
        else:
            const = sum(omega) * sum(vec[i] * p[i] for i in range(n))
            c = [0.0] * n
            for t in range(n):
                for j in range(t + 1, n):
                    c[j] += omega[t] * sum(vec[i] * (p[j] - p[i])
                                           for i in range(t))
            for j in range(n):
                c[j] -= r * sum(vec[i] * max(p[i], p[j]) for i in range(n))
        A_ub = [[1.0] * (n - 1) + [0.0], [-1.0] * n]
        b_ub = [1.0, -1.0]
        bounds = [(0.0, None)] * (n - 1) + [(0.0, cap)]
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if res.status != 0:
            continue
        v = float(res.fun) + const
        if best is None or v > best:
            best = v
    return best


def loop_discretize(d, grid):
    """discretize_distribution cell by cell, summing each cell's atoms
    through boolean masks, without the library's check.

    Cell i is [p_i, p_{i+1}); its mass q and mass x value E split across
    the two ends as (q - right, right) with right = (E - q p_i) / (p_{i+1} - p_i).
    The atoms from p_max up put mass (their mass x value)/p_max at p_max.
    """
    p = np.asarray(grid.prices, dtype=float)
    v, m = np.asarray(d.values), np.asarray(d.masses)
    if np.any(v < p[0]):
        raise ValueError("distribution has mass below the bottom price level")
    n = len(p)
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
    return np.maximum(s, 0.0)
