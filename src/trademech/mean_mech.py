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

import numpy as np

from .core import Instance, Price, _cdf_gains, fixed_price_welfare, opt_welfare
# Unused here; the benchmark's tracer wraps it under this module's name.
from .core import randomized_welfare  # noqa: F401
from .numkernel.lp import lp_problem, lp_solve

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
        if not 0.0 < self.mean < np.inf:
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
    shape = np.broadcast_shapes(x.shape, p.shape, y.shape)
    out, term = np.empty(shape), np.empty(shape)
    np.subtract(s * (q * y), s * qz, out=out)
    np.maximum(out, 0.0, out=out)
    np.subtract(gain, s * cdf(qz / q), out=term)
    out *= term
    out += np.multiply(p, tx, out=term)
    out += c / 3.0
    return out


# Elements per block of the family scan: a few float64 temporaries of
# this size stay in a core's cache.
_BLOCK = 1 << 18
_OFFSETS = np.linspace(-0.5, 0.5, 21)


def _axis_trims(vals):
    """Per row of clipped, sorted coordinates, how many exact repeats of
    the lowest and of the highest value follow the first copy."""
    lo = np.sum(vals == vals[:, :1], axis=1) - 1
    hi = np.sum(vals == vals[:, -1:], axis=1) - 1
    return lo, hi


def _local_minimum(side, pts, step, best, best_arg):
    """Rescan a half-step neighborhood of each flagged point at a twenty
    times finer resolution: 21 offsets per axis, clipped to the box.

    Offsets that clip to the same face coordinate would repeat one
    point, so each axis keeps one copy per end. Points are grouped by
    how many copies every axis drops at each end, so a group's distinct
    neighborhoods are still rectangular, and each group is evaluated in
    blocks of about _BLOCK elements.
    """
    axes = (np.clip(pts[:, 0, None] + _OFFSETS * step, 0.0, 1.0),
            np.clip(pts[:, 1, None] + _OFFSETS * step, 0.0, 1.0 - 1e-9),
            np.maximum(pts[:, 2, None] + _OFFSETS * step, 0.0))
    trims = np.column_stack([t for vals in axes for t in _axis_trims(vals)])
    keys, group = np.unique(trims, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        members = np.flatnonzero(group.ravel() == g)
        cuts = [slice(head, len(_OFFSETS) - tail)
                for head, tail in zip(key[::2], key[1::2])]
        size = np.prod([cut.stop - cut.start for cut in cuts])
        per_block = max(1, _BLOCK // int(size))
        for lo in range(0, len(members), per_block):
            rows = members[lo:lo + per_block]
            xs, ps, ys = (vals[rows, cut] for vals, cut in zip(axes, cuts))
            obj = family_objective(side, xs[:, :, None, None],
                                   ps[:, None, :, None], ys[:, None, None, :])
            k = int(np.argmin(obj))
            w, i, j, l = np.unravel_index(k, obj.shape)
            if obj[w, i, j, l] < best:
                best = float(obj[w, i, j, l])
                best_arg = (float(xs[w, i]), float(ps[w, j]), float(ys[w, l]))
    return best, best_arg


def verify_two_thirds(side, *, step=0.005):
    """Scan the worst-case family for the two-thirds guarantee.

    Returns (minimum objective, (x, p, y) attaining it). The grids use
    the given step, with p stopping short of 1 and y running one unit
    past the lottery's support so the linear tail is represented. Any
    grid point whose objective is within 1e-4 of zero gets a finer local
    rescan (`_local_minimum`), guarding against minima that fall between
    grid points; the rescan visits each distinct clipped point of a
    neighborhood once. Both passes evaluate `family_objective` in its
    reduced form, in blocks of about _BLOCK elements. A minimum at or
    above -1e-9 certifies the guarantee on the scanned family.
    """
    _check_side(side)
    if not 0.0 < step < np.inf:
        raise ValueError("step must be finite and positive")
    x_grid = np.clip(np.arange(0.0, 1.0 + 0.5 * step, step), 0.0, 1.0)
    p_grid = np.arange(0.0, 1.0, step)
    cap = 3.0 if side == SELLER_MEAN else 2.0
    y_grid = np.append(np.arange(0.0, cap + 0.5 * step, step), cap + 1.0)

    best = np.inf
    best_arg = None
    flagged = []
    chunk = max(1, _BLOCK // (len(p_grid) * len(y_grid)))
    for lo in range(0, len(x_grid), chunk):
        xs = x_grid[lo:lo + chunk]
        obj = family_objective(side, xs[:, None, None], p_grid[None, :, None],
                               y_grid[None, None, :])
        k = int(np.argmin(obj))
        i, j, l = np.unravel_index(k, obj.shape)
        if obj[i, j, l] < best:
            best = float(obj[i, j, l])
            best_arg = (float(xs[i]), float(p_grid[j]), float(y_grid[l]))
        i, j, l = np.nonzero(obj <= 1e-4)
        flagged.append(np.column_stack([xs[i], p_grid[j], y_grid[l]]))
    pts = np.concatenate(flagged)
    if len(pts):
        best, best_arg = _local_minimum(side, pts, step, best, best_arg)
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
    if sol.status != "optimal":
        raise RuntimeError(f"hardness program came back {sol.status}")
    return pair, float(sol.value)
