"""Independent checks on the program's outputs.

Each check recomputes what it tests along a path of its own: prefix sums
over a sorted sweep, closed-form price CDFs, plain loops, exact rationals
or scipy's HiGHS. None calls the function whose output it checks. Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

WELFARE_RTOL = 1e-9
FIXED_PRICE_FLOOR = 0.72
LOTTERY_FLOOR = 2.0 / 3.0 - 1e-9
CERT_TOL = 1e-9


def _close(a, b, rtol=WELFARE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _side_arrays(dist):
    v = np.array([a[0] for a in dist.atoms])
    t = np.array([a[1] for a in dist.atoms])
    m = np.array([a[2] for a in dist.atoms])
    return v, t, m


def sweep_fixed_prices(inst):
    """Welfare at every candidate (level, tie) price, vectorised.

    Returns (candidates, welfare) with candidates sorted ascending. A
    seller atom trades iff (v, t) <= (level, tie) and a buyer atom iff
    (v, t) >= (level, tie); the gains of the traded pairs are
    S0 * B1 - S1 * B0 over the accepted masses S0, B0 and mass-weighted
    values S1, B1.
    """
    sv, st, sm = _side_arrays(inst.seller)
    bv, bt, bm = _side_arrays(inst.buyer)
    cand = sorted({(float(v), float(t)) for v, t in zip(sv, st)}
                  | {(float(v), float(t)) for v, t in zip(bv, bt)})
    lv = np.array([c[0] for c in cand])[:, None]
    lt = np.array([c[1] for c in cand])[:, None]
    acc_s = (sv[None, :] < lv) | ((sv[None, :] == lv) & (st[None, :] <= lt))
    acc_b = (bv[None, :] > lv) | ((bv[None, :] == lv) & (bt[None, :] >= lt))
    s0, s1 = acc_s @ sm, acc_s @ (sm * sv)
    b0, b1 = acc_b @ bm, acc_b @ (bm * bv)
    return cand, float(sm @ sv) + (s0 * b1 - s1 * b0)


def exact_opt(inst):
    """E[max(S, B)] summed with math.fsum over every value pair."""
    sv, _, sm = _side_arrays(inst.seller)
    bv, _, bm = _side_arrays(inst.buyer)
    return math.fsum((sm[:, None] * bm[None, :]
                      * np.maximum(sv[:, None], bv[None, :])).ravel())


def buyer_lottery_cdf(u):
    """Pr[price <= u * E[B]] for the buyer-mean lottery, in closed form."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = u / (3.0 - 3.0 * u)
    out = np.where(u <= 0.5, first, np.where(u <= 2.0 / 3.0,
                                             (4.0 * u - 1.0) / 3.0,
                                             (u + 1.0) / 3.0))
    return np.where(u <= 0.0, 0.0, np.where(u >= 2.0, 1.0, out))


def seller_lottery_cdf(u):
    """Pr[price <= u * E[S]] for the seller-mean lottery: uniform on [0, 3]."""
    return np.clip(np.asarray(u, dtype=float) / 3.0, 0.0, 1.0)


def lottery_welfare(inst, side):
    """E[S] + sum over pairs with b > s of m_s m_b (b - s)(F(b/mu) - F(s/mu)).

    side is 'seller_mean' or 'buyer_mean'; mu is that side's mean.
    """
    sv, _, sm = _side_arrays(inst.seller)
    bv, _, bm = _side_arrays(inst.buyer)
    if side == "seller_mean":
        mu, cdf = float(sm @ sv), seller_lottery_cdf
    else:
        mu, cdf = float(bm @ bv), buyer_lottery_cdf
    gap = np.maximum(bv[None, :] - sv[:, None], 0.0)
    prob = np.maximum(cdf(bv / mu)[None, :] - cdf(sv / mu)[:, None], 0.0)
    return float(sm @ sv) + float((sm[:, None] * bm[None, :] * gap * prob).sum())


def check_welfare(inst, out):
    """out: dict with opt, best_price, best, seller_lottery, buyer_lottery."""
    bad = []
    cand, sweep = sweep_fixed_prices(inst)
    best = float(sweep.max())
    if not _close(out["best"], best):
        bad.append(f"best_fixed_price {out['best']!r} != sweep maximum {best!r}")
    price = out["best_price"]
    key = (price.level, price.tie) if price is not None else None
    if key not in cand:
        bad.append(f"best price {price!r} is not a candidate price")
    elif not _close(float(sweep[cand.index(key)]), out["best"]):
        bad.append(f"best price {price!r} collects {sweep[cand.index(key)]!r}, "
                   f"not {out['best']!r}")
    opt = exact_opt(inst)
    if not _close(out["opt"], opt):
        bad.append(f"opt_welfare {out['opt']!r} != pairwise sum {opt!r}")
    for side, field in (("seller_mean", "seller_lottery"), ("buyer_mean", "buyer_lottery")):
        ref = lottery_welfare(inst, side)
        if not _close(out[field], ref):
            bad.append(f"{side} lottery welfare {out[field]!r} != closed form {ref!r}")
        if ref < LOTTERY_FLOOR * opt:
            bad.append(f"{side} lottery reaches {ref / opt!r} of optimum, below 2/3")
    if best < FIXED_PRICE_FLOOR * opt:
        bad.append(f"best fixed price reaches {best / opt!r} of optimum, below 0.72")
    return bad


# ------------------------------------------------------------ grid programs

def loop_rows(p, s, b):
    """Exclusive welfare rows, with plain loops.

    Row t is sum_i s_i p_i plus the gains of sellers strictly below level
    t paired with buyers strictly above it.
    """
    n = len(p)
    base = sum(s[i] * p[i] for i in range(n))
    return [base + sum(s[i] * b[j] * (p[j] - p[i])
                       for i in range(t) for j in range(t + 1, n))
            for t in range(n)]


def loop_opt(p, s, b):
    n = len(p)
    return sum(s[i] * b[j] * max(p[i], p[j]) for i in range(n) for j in range(n))


def check_lower_certificate(cert, tol=CERT_TOL):
    """Feasibility of a lower-program certificate, with r its worst row."""
    p, s, b = cert.grid.prices, cert.s, cert.b
    cap = 1.0 + 1.0 / p[-1]
    bad = []
    for name, vec in (("s", s), ("b", b)):
        total = sum(vec)
        if not 1.0 - tol <= total <= cap + tol:
            bad.append(f"sum({name}) = {total!r} outside [1, {cap!r}]")
        if min(vec) < -tol:
            bad.append(f"{name} has a negative mass {min(vec)!r}")
    opt = loop_opt(p, s, b)
    if opt < 1.0 - tol:
        bad.append(f"quadratic optimum {opt!r} below 1")
    rows = loop_rows(p, s, b)
    if abs(cert.r - max(rows)) > tol:
        bad.append(f"r = {cert.r!r} is not the worst exclusive row {max(rows)!r}")
    return bad


def highs_s_min(p, b):
    """min over s of the worst exclusive row at a pinned b, by scipy HiGHS.

    Same feasible set as the lower program: s >= 0 with total mass in
    [1, 1 + 1/p_max] and the quadratic optimum at least 1.
    """
    from scipy.optimize import linprog

    n = len(p)
    a_ub, b_ub = [], []
    for t in range(n):
        row = [p[i] + (sum(b[j] * (p[j] - p[i]) for j in range(t + 1, n))
                       if i < t else 0.0) for i in range(n)]
        a_ub.append(row + [-1.0])
        b_ub.append(0.0)
    h = [sum(b[j] * max(p[i], p[j]) for j in range(n)) for i in range(n)]
    a_ub.append([-v for v in h] + [0.0])
    b_ub.append(-1.0)
    a_ub.append([1.0] * n + [0.0])
    b_ub.append(1.0 + 1.0 / p[-1])
    a_ub.append([-1.0] * n + [0.0])
    b_ub.append(-1.0)
    res = linprog([0.0] * n + [1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0.0, None)] * (n + 1), method="highs")
    return float(res.fun) if res.status == 0 else None


def check_bnb(cert, gap_tol, tol=CERT_TOL):
    """A converged branch-and-bound result and its bound pair."""
    bad = check_lower_certificate(cert, tol)
    info = cert.info
    lb = info.lower_bound
    if not info.converged:
        bad.append("branch and bound did not converge")
    if lb is None or not lb - tol <= cert.r <= lb + gap_tol + tol:
        bad.append(f"r = {cert.r!r} outside [lower_bound, lower_bound + gap] "
                   f"with lower_bound {lb!r}, gap {gap_tol!r}")
    feasible = highs_s_min(cert.grid.prices, [max(v, 0.0) for v in cert.b])
    if feasible is None:
        bad.append("HiGHS finds no feasible s at the certificate's b")
    elif lb is not None and lb > feasible + tol:
        bad.append(f"lower_bound {lb!r} exceeds the feasible value {feasible!r}")
    return bad


# ------------------------------------------------------------ paper claims

def exact_fixed_price_ratio(inst):
    """max over candidate prices of welfare / E[max(S, B)], in Fractions."""
    sel = [(Fraction(v), t, Fraction(m)) for v, t, m in inst.seller.atoms]
    buy = [(Fraction(v), t, Fraction(m)) for v, t, m in inst.buyer.atoms]
    base = sum(m * v for v, _, m in sel)
    opt = sum(ms * mb * max(vs, vb) for vs, _, ms in sel for vb, _, mb in buy)
    best = base
    for lv, lt in {(a[0], a[1]) for a in inst.seller.atoms + inst.buyer.atoms}:
        lv = Fraction(lv)
        acc_s = [(v, m) for v, t, m in sel if (v, t) <= (lv, lt)]
        acc_b = [(v, m) for v, t, m in buy if (v, t) >= (lv, lt)]
        w = base + sum(ms * mb * (vb - vs) for vs, ms in acc_s for vb, mb in acc_b)
        best = max(best, w)
    return best / opt


def check_hard_instance(inst, upper_bound, tol=1e-12):
    ratio = exact_fixed_price_ratio(inst)
    if float(ratio) > upper_bound + tol:
        return [f"hard instance admits ratio {float(ratio)!r} above the "
                f"reported bound {upper_bound!r}"]
    return []


def family_value(side, x, p, y):
    """E[lottery welfare] - (2/3) E[max] on the reduced family, mean one.

    The known side puts mass p at x and 1 - p at z = (1 - x p)/(1 - p);
    the other side is a point at y. Welfare is E[S] plus, per atom pair
    with b > s, (b - s) times the price mass between them.
    """
    z = (1.0 - x * p) / (1.0 - p)
    two = [(x, p), (z, 1.0 - p)]
    if side == "seller_mean":
        sellers, buyers, cdf = two, [(y, 1.0)], seller_lottery_cdf
    else:
        sellers, buyers, cdf = [(y, 1.0)], two, buyer_lottery_cdf
    welfare = sum(v * m for v, m in sellers)
    opt = 0.0
    for vs, ms in sellers:
        for vb, mb in buyers:
            opt += ms * mb * max(vs, vb)
            if vb > vs:
                welfare += ms * mb * (vb - vs) * float(cdf(vb) - cdf(vs))
    return welfare - (2.0 / 3.0) * opt


def check_two_thirds(side, minimum, witness, tol=1e-9):
    bad = []
    if minimum < -tol:
        bad.append(f"{side} two-thirds minimum {minimum!r} below zero")
    ref = family_value(side, *witness)
    if abs(ref - minimum) > tol:
        bad.append(f"{side} witness {witness!r} evaluates to {ref!r}, "
                   f"not the reported {minimum!r}")
    return bad


def check_hardness(values):
    """values: hardness LP values at shrinking eps, in that order."""
    bad = [f"hardness value {v!r} not above 2/3" for v in values if v <= 2.0 / 3.0]
    if any(b >= a for a, b in zip(values, values[1:])):
        bad.append(f"hardness values {values!r} do not decrease as eps shrinks")
    return bad
