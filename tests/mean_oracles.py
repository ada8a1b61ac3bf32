"""Hand-derived references for the mean-keyed price lotteries.

Everything here is computed from first principles, without touching the
library's own evaluators: cdf pieces written out directly, expected
welfare by adaptive quadrature against the explicit density, the
worst-case-family objective through independently rearranged per-case
expressions, and the hardness program through its tight-pattern closed
form.
"""

import numpy as np
from scipy import integrate

SELLER = "seller_mean"
BUYER = "buyer_mean"


def buyer_cdf(v):
    if v <= 0.0:
        return 0.0
    if v <= 0.5:
        return v / (3.0 - 3.0 * v)
    if v <= 2.0 / 3.0:
        return (4.0 * v - 1.0) / 3.0
    if v < 2.0:
        return (v + 1.0) / 3.0
    return 1.0


def buyer_density(v):
    if v < 0.0 or v >= 2.0:
        return 0.0
    if v < 0.5:
        return 1.0 / (3.0 * (1.0 - v) ** 2)
    if v < 2.0 / 3.0:
        return 4.0 / 3.0
    return 1.0 / 3.0


def family_sides(side, x, p, y):
    """Atom lists ((value, mass), ...) for the reduced family."""
    z = (1.0 - x * p) / (1.0 - p)
    two_point = ((x, p), (z, 1.0 - p))
    if side == SELLER:
        return two_point, ((y, 1.0),)
    return ((y, 1.0),), two_point


def objective_quad(side, x, p, y):
    """E[welfare] - (2/3) E[max] by quadrature over the price density."""
    sellers, buyers = family_sides(side, x, p, y)
    base = sum(v * m for v, m in sellers)
    opt = sum(sm * bm * max(sv, bv) for sv, sm in sellers for bv, bm in buyers)

    def gains(q):
        return sum(sm * bm * (bv - sv)
                   for sv, sm in sellers for bv, bm in buyers
                   if sv <= q <= bv)

    if side == SELLER:
        density, hi = (lambda q: 1.0 / 3.0), 3.0
        breaks = [0.5, 2.0 / 3.0]
    else:
        density, hi = buyer_density, 2.0
        breaks = [0.5, 2.0 / 3.0]
    pts = sorted({v for v, _ in sellers + buyers} | set(breaks))
    pts = [t for t in pts if 0.0 < t < hi]
    val, _ = integrate.quad(lambda q: gains(q) * density(q), 0.0, hi,
                            points=pts, limit=300)
    return base + val - (2.0 / 3.0) * opt


def hardness_value(side, eps):
    """Tight-pattern solve of the two-instance mass-splitting program.

    At the optimum both ratio constraints bind and the two price
    regions absorb all lottery mass, leaving one linear equation in
    the ratio.
    """
    big = 1.0 / eps
    if side == SELLER:
        base1, opt1, g1 = 1.0, big, big - 1.0
        base2, opt2, g2 = 1.0, 1.0 + (1.0 - eps) ** 2, (1.0 - eps) ** 2
    else:
        base1, opt1, g1 = 0.0, 1.0, 1.0
        base2, opt2, g2 = 1.0 + eps, 2.0 - eps * eps, eps * (big - 1.0 - eps)
    return (1.0 + base1 / g1 + base2 / g2) / (opt1 / g1 + opt2 / g2)


def _z(x, p):
    return (1.0 - x * p) / (1.0 - p)


# Rearranged objective expressions for the seller lottery, one per
# region of the (x, p, y) box, each derived separately from the trade
# description rather than lifted from the implementation.
SELLER_CASES = (
    ("no trade", lambda x, p, y, z: y <= x,
     lambda x, p, y: 1.0 / 3.0),
    ("mid, y small", lambda x, p, y, z: x < y <= z and y <= 3.0,
     lambda x, p, y: (1.0 + (y - x) * p * (y - x - 2.0)) / 3.0),
    ("mid, y large", lambda x, p, y, z: x < y <= z and y > 3.0,
     lambda x, p, y: (1.0 + (y - x) * p * (1.0 - x)) / 3.0),
    ("top, low z", lambda x, p, y, z: z < y <= 3.0,
     lambda x, p, y: 1.0 + p * (y - x) ** 2 / 3.0
     + (1.0 - p) * (y - _z(x, p)) ** 2 / 3.0 - 2.0 * y / 3.0),
    ("top, straddle", lambda x, p, y, z: y > 3.0 >= z and y > z,
     lambda x, p, y: (p * (x * x - 2.0 * x + 3.0) - 2.0)
     / (3.0 * (1.0 - p)) + 1.0),
    ("top, high z", lambda x, p, y, z: y >= z > 3.0,
     lambda x, p, y: 1.0 + (y - x) * p * (3.0 - x) / 3.0 - 2.0 * y / 3.0),
)

# The buyer lottery's per-region expressions, indexed by where x, y and
# z fall against the cdf breakpoints.
BUYER_CASES = (
    ("up, y lo", lambda x, p, y, z: x <= y <= z < 2.0 and y < 0.5,
     lambda x, p, y: (p * x * y
                      + p * (1 - x) * (2 - p - p * x) / (1 - p)
                      - p * (1 - x) / (1 - y)) / 3.0),
    ("up, y mid", lambda x, p, y, z: x <= y <= z < 2.0 and 0.5 <= y < 2 / 3,
     lambda x, p, y: ((1 - p * x) ** 2 / (1 - p) + (5 * p * x - 4) * y
                      + 4 * (1 - p) * y * y) / 3.0),
    ("up, y hi", lambda x, p, y, z: x <= y <= z < 2.0 and y >= 2 / 3,
     lambda x, p, y: (y * (1 + y) + p * p * (y - x + 2) * (y - x)
                      - p * (y * (3 + 2 * (y - x)) - 2) - 1)
     / (3 * (1 - p))),
    ("down far, x lo", lambda x, p, y, z: y <= x <= z and z >= 2.0 and x < 0.5,
     lambda x, p, y: 1 / 3 - p * (x - y) * (1 - x / (3 * (1 - x))) - y / 3),
    ("down far, x mid",
     lambda x, p, y, z: y <= x <= z and z >= 2.0
     and 0.5 <= x < 2 / 3 and y < 0.5,
     lambda x, p, y: (1 - 4 * p * (1 - x) * (x - y) - y) / 3.0),
    ("down far, x hi",
     lambda x, p, y, z: y <= x <= z and z >= 2.0 and x >= 2 / 3 and y < 0.5,
     lambda x, p, y: (1 - p * (2 - x) * (x - y) - y) / 3.0),
    ("down far, both mid",
     lambda x, p, y, z: y <= x <= z and z >= 2.0
     and 0.5 <= x < 2 / 3 and y >= 0.5,
     lambda x, p, y: (2 - 4 * p * (1 - x) * (x - y) + y * (4 * y - 5)) / 3.0),
    ("down far, x hi y mid",
     lambda x, p, y, z: y <= x <= z and z >= 2.0
     and x >= 2 / 3 and 0.5 <= y < 2 / 3,
     lambda x, p, y: (2 - p * (2 - x) * (x - y) + y * (4 * y - 5)) / 3.0),
    ("down far, both hi",
     lambda x, p, y, z: y <= x <= z and z >= 2.0 and y >= 2 / 3,
     lambda x, p, y: (y * y - p * (2 - x) * (x - y)) / 3.0),
    ("down near, x lo",
     lambda x, p, y, z: y <= x <= z < 2.0 and x < 0.5,
     lambda x, p, y: p * (1 + p * (x - y) * (1 - x - x * x) + y
                          - x * (1 + x) * y - 4 * (1 - x) * x)
     / (3 * (1 - p) * (1 - x))),
    ("down near, x mid",
     lambda x, p, y, z: y <= x <= z < 2.0
     and 0.5 <= x < 2 / 3 and y < 0.5,
     lambda x, p, y: p * (1 + (4 - 3 * p) * x * x + 2 * (1 - p) * y
                          - x * (4 + 3 * y - p * (2 + 3 * y)))
     / (3 * (1 - p))),
    ("down near, x hi",
     lambda x, p, y, z: y <= x <= z < 2.0 and x >= 2 / 3 and y < 0.5,
     lambda x, p, y: p * (1 - x) ** 2 / (3 * (1 - p))),
    ("down near, both mid",
     lambda x, p, y, z: y <= x <= z < 2.0
     and 0.5 <= x < 2 / 3 and y >= 0.5,
     lambda x, p, y: (2 * p * p * x * (1 - 1.5 * x) + (1 - 2 * y) ** 2
                      - 4 * p * x * (1 - x) + (6 - 3 * x - 4 * y) * p * y
                      - 2 * y * (1 - 1.5 * x) * p * p) / (3 * (1 - p))),
    ("down near, x hi y mid",
     lambda x, p, y, z: y <= x <= z < 2.0
     and x >= 2 / 3 and 0.5 <= y < 2 / 3,
     lambda x, p, y: (1 + p * (x - 2) * x) / (3 * (1 - p))
     - (4 * y - 4 * y * y) / 3.0),
    ("down near, both hi",
     lambda x, p, y, z: y <= x <= z < 2.0 and y >= 2 / 3,
     lambda x, p, y: (y * (1 + y) - 1 + p * (2 + (x - 2) * x - y - y * y))
     / (3 * (1 - p))),
)


def case_objective(side, x, p, y):
    """Evaluate the matching per-region expression, or None off-table."""
    z = _z(x, p)
    cases = SELLER_CASES if side == SELLER else BUYER_CASES
    for _, cond, formula in cases:
        if cond(x, p, y, z):
            return formula(x, p, y)
    return None


def unit_cdf_array(side, v):
    """Either lottery's unit cdf on an array, piece by piece."""
    v = np.asarray(v, dtype=float)
    if side == SELLER:
        return np.clip(v / 3.0, 0.0, 1.0)
    low = np.clip(v, 0.0, 0.5)
    out = np.where(v < 2.0, (v + 1.0) / 3.0, 1.0)
    out = np.where(v <= 2.0 / 3.0, (4.0 * v - 1.0) / 3.0, out)
    out = np.where(v <= 0.5, low / (3.0 - 3.0 * low), out)
    return np.where(v <= 0.0, 0.0, out)


def objective_direct(side, x, p, y):
    """The family objective as E[welfare] - (2/3) E[max], both sides'
    expectations taken over the two atoms, on broadcast arrays."""
    z = (1.0 - x * p) / (1.0 - p)
    fy = unit_cdf_array(side, y)
    if side == SELLER:
        alg = 1.0 + (p * np.maximum(y - x, 0.0) * (fy - unit_cdf_array(side, x))
                     + (1.0 - p) * np.maximum(y - z, 0.0)
                     * (fy - unit_cdf_array(side, z)))
    else:
        alg = y + (p * np.maximum(x - y, 0.0) * (unit_cdf_array(side, x) - fy)
                   + (1.0 - p) * np.maximum(z - y, 0.0)
                   * (unit_cdf_array(side, z) - fy))
    opt = p * np.maximum(x, y) + (1.0 - p) * np.maximum(z, y)
    return alg - (2.0 / 3.0) * opt


def brute_force_scan_minimum(side, step):
    """Minimum of the two-thirds scan over a y grid, evaluated the long
    way: the reference the library's scan, exact in y, must not exceed.

    The same (x, p) grid, 1e-4 flag threshold and 21-point half-step
    rescan as the library's scan, but y runs over a grid of the same
    step up to cap, plus cap + 1, and every flagged (x, p, y) rescans
    its full clipped 21^3 neighborhood, repeated face points included,
    through `objective_direct`.
    """
    x_grid = np.clip(np.arange(0.0, 1.0 + 0.5 * step, step), 0.0, 1.0)
    p_grid = np.arange(0.0, 1.0, step)
    cap = 3.0 if side == SELLER else 2.0
    y_grid = np.append(np.arange(0.0, cap + 0.5 * step, step), cap + 1.0)
    obj = objective_direct(side, x_grid[:, None, None], p_grid[None, :, None],
                           y_grid[None, None, :])
    best = float(obj.min())
    i, j, l = np.nonzero(obj <= 1e-4)
    flagged = np.column_stack([x_grid[i], p_grid[j], y_grid[l]])
    return float(min([best, *neighborhood_minima(side, flagged, step)]))


def neighborhood_minima(side, pts, step):
    """Per (x, p, y) row of pts, the minimum of `objective_direct` over
    its full clipped 21^3 half-step neighborhood."""
    offsets = np.linspace(-0.5, 0.5, 21) * step
    xs = np.clip(pts[:, 0, None] + offsets, 0.0, 1.0)
    ps = np.clip(pts[:, 1, None] + offsets, 0.0, 1.0 - 1e-9)
    ys = np.maximum(pts[:, 2, None] + offsets, 0.0)
    minima = []
    for lo in range(0, len(pts), 50):
        cut = slice(lo, lo + 50)
        near = objective_direct(side, xs[cut, :, None, None],
                                ps[cut, None, :, None], ys[cut, None, None, :])
        minima.append(near.min(axis=(1, 2, 3)))
    return np.concatenate(minima) if minima else np.empty(0)
