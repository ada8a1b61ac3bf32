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
scanning an (x, p) grid, exact in y, covers every instance that matters.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def family_objective(side, x, p, y):
    """E[welfare] - (2/3) E[max] on the worst-case family, mean-one units.

    Arrays broadcast; every p must lie in [0, 1) so the second point of
    the two-point side exists, and no input may be NaN. The known side
    mixes x against z = (1 - x*p)/(1 - p); the other side sits at y.

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
    return (np.maximum(s * (q * y - qz), 0.0) * (gain - s * cdf(qz / q))
            + p * tx + c / 3.0)


# Per side: the unit CDF's kinks, the last its cap, and its linear
# pieces alpha*y + beta that are not constant
_CDF_SHAPE = {
    SELLER_MEAN: ((3.0,), ((1.0 / 3.0, 0.0),)),
    BUYER_MEAN: ((0.5, 2.0 / 3.0, 2.0), ((4.0 / 3.0, -1.0 / 3.0), (1.0 / 3.0, 1.0 / 3.0))),
}


def _y_candidates(side, x, p):
    """Every y in [0, cap + 1] where the minimum over y of
    `family_objective` can sit, on a trailing axis of broadcast (x, p).

    Between the breakpoints 0, x, z, the CDF's kinks and cap + 1, the
    atoms trading with y (seller {x} or {x, z}; buyer {x, z} or {z}) are
    fixed, with W, A, K the sums of w, w*a and w*F(a) over them, and the
    objective is c/3 + sum w*s*(y - a)*(s*(F(y) - F(a)) - 2/3). Where
    F = alpha*y + beta that is a convex quadratic in y with vertex
    (K + alpha*A - W*(beta - 2s/3) - (1 - s)/6) / (2*alpha*W). Where F is
    constant it is linear. On the buyer's [0, 1/2], F = y/(3 - 3y), its
    second derivative -2(A - W)/(3(1 - y)^3) is at most 0, as A - W is
    0 or p*(1 - x): concave, so minimal at an end. A vertex off its own
    piece is still a valid y; an undefined one (W = 0) becomes 0.
    """
    kinks, pieces = _CDF_SHAPE[side]
    s = 1.0 if side == SELLER_MEAN else -1.0
    cdf = _unit_lottery(side)
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    q = 1.0 - p
    z = (1.0 - x * p) / q
    # (W, A, K) of each atom, then of each trading set
    at_x = np.stack([p, p * x, p * cdf(x)])
    at_z = np.stack([q, q * z, q * cdf(z)])
    trading = (at_x, at_x + at_z) if s > 0 else (at_x + at_z, at_z)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertices = [(k + alpha * a - w * (beta - 2.0 * s / 3.0) - (1.0 - s) / 6.0)
                    / (2.0 * alpha * w) for w, a, k in trading for alpha, beta in pieces]
    cands = np.stack(np.broadcast_arrays(0.0, x, z, *kinks, kinks[-1] + 1.0, *vertices),
                     axis=-1)
    # fmax sends NaN to 0, fmin +inf to cap + 1
    return np.fmin(np.fmax(cands, 0.0, out=cands), kinks[-1] + 1.0, out=cands)


# (x, p) pairs per scan block, or one leading row if more; at 11 y
# candidates a pair, one block's array is 176 KiB
_BLOCK = 1 << 11
_OFFSETS = np.linspace(-0.5, 0.5, 21)


def _scan(side, xs, ps, best=np.inf, best_arg=None):
    """Minimum over y of `family_objective` at each broadcast (xs, ps),
    from its `_y_candidates`, in blocks of leading rows. Returns the
    minima and (best, best_arg) updated to the first strict minimum met
    and its (x, p, y)."""
    xs, ps = np.broadcast_arrays(xs, ps)
    minima = np.empty(xs.shape)
    rows = max(1, _BLOCK // int(np.prod(xs.shape[1:])))
    for k in range(0, len(xs), rows):
        xb, pb = xs[k:k + rows], ps[k:k + rows]
        yb = _y_candidates(side, xb, pb)
        obj = family_objective(side, xb[..., None], pb[..., None], yb)
        at = np.unravel_index(int(np.argmin(obj)), obj.shape)
        if obj[at] < best:
            best = float(obj[at])
            best_arg = (float(xb[at[:-1]]), float(pb[at[:-1]]), float(yb[at]))
        np.min(obj, axis=-1, out=minima[k:k + rows])
    return minima, best, best_arg


def verify_two_thirds(side, *, step=0.005):
    """Scan the worst-case family for the two-thirds guarantee.

    Returns (minimum objective, (x, p, y) attaining it). x and p run
    over grids of the given step, p stopping short of 1; y is exact over
    [0, cap + 1], one unit past the lottery's support. Each grid (x, p)
    whose minimum is within 1e-4 of zero gets its half-step (x, p)
    neighborhood rescanned, 21 points per axis clipped to the box, for
    minima between grid points. A minimum at or above -1e-9 certifies
    the guarantee on the scanned family.
    """
    _check_side(side)
    if not 0.0 < step < np.inf:
        raise ValueError("step must be finite and positive")
    x_grid = np.clip(np.arange(0.0, 1.0 + 0.5 * step, step), 0.0, 1.0)
    p_grid = np.arange(0.0, 1.0, step)
    minima, best, best_arg = _scan(side, x_grid[:, None], p_grid)
    i, j = np.nonzero(minima <= 1e-4)
    offsets = _OFFSETS * step
    xs = np.clip(x_grid[i, None, None] + offsets[:, None], 0.0, 1.0)
    ps = np.clip(p_grid[j, None, None] + offsets, 0.0, 1.0 - 1e-9)
    _, best, best_arg = _scan(side, xs, ps, best, best_arg)
    return best, best_arg


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
