"""Price lotteries that know a single mean.

Knowing E[S], draw u uniform on [0, 3] and post u * E[S]. Knowing E[B],
draw u on [0, 2] from the fixed three-piece distribution whose cdf runs
u/(3-3u) up to 1/2, (4u-1)/3 up to 2/3, then (u+1)/3. Either lottery
collects at least two thirds of the first-best welfare on every
instance with the declared mean, and `two_thirds_hardness` produces the
matched-mean instance pair showing no lottery can promise more.

Verification of the guarantee runs over the reduced worst-case family:
a two-point distribution on the known side against a single point on
the other, with the known side scaled to mean one. The two-point side
places x with probability p and (1 - x*p)/(1 - p) with the rest, so
scanning (x, p, y) boxes covers every instance that matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from .core import (_FLOAT_MAX, Instance, Price, _cdf_gains, fixed_price_welfare,
                   opt_welfare)
# Unused here; the benchmark's tracer wraps it under this module's name.
from .core import randomized_welfare  # noqa: F401
from .numkernel import lp_problem, lp_solve

SELLER_MEAN = "seller_mean"
BUYER_MEAN = "buyer_mean"

_TARGET = 2.0 / 3.0


def _check_side(side):
    if side not in (SELLER_MEAN, BUYER_MEAN):
        raise ValueError(f"side must be {SELLER_MEAN!r} or {BUYER_MEAN!r}")


@dataclass(frozen=True)
class MeanMechanism:
    """A mean-keyed price lottery for one side of the market."""

    side: str
    mean: float

    def __post_init__(self):
        _check_side(self.side)
        if not 0.0 < self.mean <= _FLOAT_MAX:
            raise ValueError("mean must be finite and positive")


def _seller_unit_cdf(v):
    return np.clip(np.asarray(v, dtype=float) / 3.0, 0.0, 1.0)


def _buyer_unit_cdf(v):
    """The buyer lottery's CDF, each piece computed only where it applies.

    The pieces are written from the top down, so at a breakpoint the
    lower piece wins: 0 up to 0, v/(3-3v) up to 1/2, (4v-1)/3 up to 2/3,
    (v+1)/3 below 2, then 1 (also for +inf; -inf maps to 0).
    """
    v = np.asarray(v, dtype=float)
    out = np.where(v < 2.0, (v + 1.0) / 3.0, 1.0)
    mid = v <= 2.0 / 3.0
    out[mid] = (4.0 * v[mid] - 1.0) / 3.0
    low = v <= 0.5
    # clamping at 0 spares -inf its -inf/inf; every v <= 0 becomes 0 below
    u = np.maximum(v[low], 0.0)
    out[low] = u / (3.0 - 3.0 * u)
    out[v <= 0.0] = 0.0
    return out


def _unit_lottery(side):
    """The side's price CDF in mean-one units: u -> Pr[price <= u * mean].

    This closed form is the lottery's only representation; the price
    CDF, the family objective and the welfare all read it.
    """
    _check_side(side)
    return _seller_unit_cdf if side == SELLER_MEAN else _buyer_unit_cdf


def mean_mech_price_cdf(m: MeanMechanism, x: float) -> float:
    """Pr[price <= x * mean], with x the price in units of the mean.

    x = -inf and +inf map to 0 and 1; a NaN x is rejected, since no
    branch of either CDF covers it.
    """
    if np.isnan(x):
        raise ValueError("x must not be NaN")
    return float(_unit_lottery(m.side)(x))


def mean_mech_welfare(m: MeanMechanism, inst: Instance) -> float:
    """Exact expected welfare of the lottery on inst, from its closed-form
    price CDF.

    The lottery prices relative to the declared mean, so that mean has
    to agree with the matching side of the instance; a relative gap
    beyond 1e-9 is rejected rather than silently rescaled.
    """
    side_dist = inst.seller if m.side == SELLER_MEAN else inst.buyer
    actual = side_dist.mean()
    if abs(actual / m.mean - 1.0) > 1e-9:
        raise ValueError(f"declared mean {m.mean} does not match the "
                         f"instance mean {actual}")
    cdf = _unit_lottery(m.side)
    return inst.seller.mean() + _cdf_gains(inst, lambda v: cdf(v / m.mean))


def family_objective(side, x, p, y, scratch=None):
    """E[welfare] - (2/3) E[max] on the worst-case family, mean-one units.

    Arrays broadcast; every p must lie in [0, 1) so the second point of
    the two-point side exists, and no input may be NaN. The known side
    mixes x against z = (1 - x*p)/(1 - p); the other side sits at y.
    With `scratch`, two 1-d float64 arrays at least the broadcast size,
    the result is a view into the first and no full-size array is made.

    With q = 1 - p the known side has p*x + q*z = 1, and max(a, y)
    splits into the known value plus the trade gain, so the objective
    is c/3 + p*t(x) + q*t(z) with
    t(a) = max(s*(y - a), 0) * (s*(F(y) - F(a)) - 2/3), where s = +1
    and c = 1 for the seller lottery, s = -1 and c = y for the buyer
    lottery. t(x) never meets p's axis until the last product, so only
    the z term and the sum run over the full broadcast shape.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("x and y must not be NaN")
    if not np.all((p >= 0.0) & (p < 1.0)):
        raise ValueError("p must lie in [0, 1)")
    cdf = _unit_lottery(side)
    s, c = (1.0, 1.0) if side == SELLER_MEAN else (-1.0, y)
    q = 1.0 - p
    qz = 1.0 - x * p
    gain = s * cdf(y) - _TARGET
    tx = np.maximum(s * (y - x), 0.0) * (gain - s * cdf(x))
    # q*t(z), with q folded into the gap: q*(y - z) = q*y - (1 - x*p)
    full = np.broadcast(x, p, y)
    if scratch is None:
        scratch = np.empty(full.size), np.empty(full.size)
    out, term = (a[:full.size].reshape(full.shape) for a in scratch)
    np.subtract(s * (q * y), s * qz, out=out)
    np.maximum(out, 0.0, out=out)
    np.subtract(gain, s * cdf(qz / q), out=term)
    out *= term
    out += np.multiply(p, tx, out=term)
    out += c / 3.0
    return out


# Elements per scan block; each `_box_minimum` call allocates one
# scratch pair of 2 x _BLOCK x 8 bytes.
_BLOCK = 1 << 17
_OFFSETS = np.linspace(-0.5, 0.5, 21)


def _box_minimum(side, boxes, best, best_arg, flagged=None):
    """First strict minimum of `family_objective` over boxes (xs, ps, ys),
    walked in order in blocks of at most _BLOCK elements: runs of equal
    boxes stacked, a larger box cut along x, then p, then y. `flagged`
    collects the points within 1e-4 of zero.
    """
    scratch = np.empty((2, _BLOCK))
    for (nx, n_p, ny), run in groupby(boxes, lambda box: tuple(map(len, box))):
        xs, ps, ys = map(np.array, zip(*run))
        fit, rows, cols = [max(1, _BLOCK // n) for n in (nx * n_p * ny, n_p * ny, ny)]
        for k, a, b, c in product(range(0, len(xs), fit), range(0, nx, rows),
                                  range(0, n_p, cols), range(0, ny, _BLOCK)):
            g = slice(k, k + fit)
            xb, pb, yb = xs[g, a:a + rows], ps[g, b:b + cols], ys[g, c:c + _BLOCK]
            obj = family_objective(side, xb[:, :, None, None], pb[:, None, :, None],
                                   yb[:, None, None, :], scratch=scratch)
            g, i, j, l = np.unravel_index(int(np.argmin(obj)), obj.shape)
            if obj[g, i, j, l] < best:
                best = float(obj[g, i, j, l])
                best_arg = (float(xb[g, i]), float(pb[g, j]), float(yb[g, l]))
            if flagged is not None:
                g, i, j, l = np.nonzero(obj <= 1e-4)
                flagged.append(np.column_stack([xb[g, i], pb[g, j], yb[g, l]]))
    return best, best_arg


def _local_minimum(side, pts, step, best, best_arg):
    """Rescan a half-step neighborhood of each flagged point at a twenty
    times finer resolution: 21 offsets per axis, clipped to the box.

    Points sharing their (x, p) make one product box: its clipped x and
    p offsets times the sorted union of its members' y offsets. Distinct
    axis values evaluate each distinct point once per group, clipped
    faces included; adjacent groups still share faces.
    """
    offsets = _OFFSETS * step
    # (x, p) as complex keys, x + p*1j: numpy sorts them lexicographically
    # and far faster than rows of a two-column array
    keys, group, counts = np.unique(pts[:, 0] + 1j * pts[:, 1],
                                    return_inverse=True, return_counts=True)
    members = np.split(np.argsort(group), np.cumsum(counts)[:-1])
    boxes = ((np.unique(np.clip(key.real + offsets, 0.0, 1.0)),
              np.unique(np.clip(key.imag + offsets, 0.0, 1.0 - 1e-9)),
              np.unique(np.maximum(pts[rows, 2, None] + offsets, 0.0)))
             for key, rows in zip(keys, members))
    return _box_minimum(side, boxes, best, best_arg)


def verify_two_thirds(side, *, step=0.005):
    """Scan the worst-case family for the two-thirds guarantee.

    Returns (minimum objective, (x, p, y) attaining it). The grids use
    the given step, with p stopping short of 1 and y running one unit
    past the lottery's support so the linear tail is represented. Any
    grid point whose objective is within 1e-4 of zero gets a finer local
    rescan (`_local_minimum`), guarding against minima that fall between
    grid points; the rescan evaluates each distinct point of the union of
    the flagged points' neighborhoods once per (x, p) group. A minimum at
    or above -1e-9 certifies the guarantee on the scanned family.
    """
    _check_side(side)
    if not 0.0 < step < np.inf:
        raise ValueError("step must be finite and positive")
    x_grid = np.clip(np.arange(0.0, 1.0 + 0.5 * step, step), 0.0, 1.0)
    p_grid = np.arange(0.0, 1.0, step)
    cap = 3.0 if side == SELLER_MEAN else 2.0
    y_grid = np.append(np.arange(0.0, cap + 0.5 * step, step), cap + 1.0)
    flagged = []
    best, best_arg = _box_minimum(side, [(x_grid, p_grid, y_grid)], np.inf, None, flagged)
    return _local_minimum(side, np.concatenate(flagged), step, best, best_arg)


def two_thirds_hardness(side, eps):
    """A matched-mean instance pair capping every lottery at two thirds.

    One instance wants the price high (or the trade certain), the other
    pays off only on the complementary price region, and the two
    regions are disjoint. Splitting lottery mass between them is a tiny
    linear program; its value is the best worst-case ratio any price
    lottery reaches on the pair, and it tends to 2/3 as eps shrinks.
    Returns ((instance_a, instance_b), lp_value).
    """
    _check_side(side)
    if not 0.0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 0.1)")
    big = 1.0 / eps
    if side == SELLER_MEAN:
        inst_a = Instance.from_values([(1.0, 1.0)], [(big, 1.0)])
        inst_b = Instance.from_values([(0.0, 1.0 - eps), (big, eps)],
                                      [(1.0 - eps, 1.0)])
        regions = (Price(0.5 * (1.0 + big)), Price(0.5 * (1.0 - eps)))
    else:
        inst_a = Instance.from_values([(0.0, 1.0)], [(1.0, 1.0)])
        inst_b = Instance.from_values([(1.0 + eps, 1.0)],
                                      [(0.0, 1.0 - eps), (big, eps)])
        regions = (Price(0.5), Price(0.5 * (1.0 + eps + big)))
    pair = (inst_a, inst_b)
    base = [inst.seller.mean() for inst in pair]
    opt = [opt_welfare(inst) for inst in pair]
    gain = np.array([[fixed_price_welfare(inst, q) - b for inst, b in zip(pair, base)]
                     for q in regions])
    # variables (m1, m2, r): lottery mass on each region and the ratio;
    # leftover mass sits at a price that never trades
    cons = [(np.column_stack([-gain.T, opt]), "<=", base),
            ((1.0, 1.0, 0.0), "<=", 1.0)]
    sol = lp_solve(lp_problem((0.0, 0.0, 1.0), cons, sense="max"))
    return pair, float(sol.optimal("hardness program").value)
