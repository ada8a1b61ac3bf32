"""Tests for the mean-keyed price lotteries."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import mean_oracles as mo
from instance_helpers import scale_instance
from trademech import mean_mech
from trademech.core import DiscreteDistribution, Instance, opt_welfare
from trademech.mean_mech import (BUYER_MEAN, SELLER_MEAN, MeanMechanism,
                                 _buyer_unit_cdf, family_objective,
                                 mean_mech_price_cdf, mean_mech_welfare,
                                 two_thirds_hardness, verify_two_thirds)

SIDES = (SELLER_MEAN, BUYER_MEAN)

# frozen outputs of the hardness program, checked below against the
# independent tight-pattern closed form
HARDNESS_VALUES = {
    (SELLER_MEAN, 0.05): 0.6836108676599474,
    (SELLER_MEAN, 0.01): 0.6700111107370121,
    (SELLER_MEAN, 1e-3): 0.667000111111074,
    (BUYER_MEAN, 0.05): 0.6782682512733447,
    (BUYER_MEAN, 0.01): 0.6689076192387451,
    (BUYER_MEAN, 1e-3): 0.6668890742841442,
}


def test_mechanism_validation():
    with pytest.raises(ValueError):
        MeanMechanism("median", 1.0)
    # 10**400 is an int past the largest float, which would overflow later
    for mean in (0.0, -1.0, float("nan"), float("inf"), float("-inf"), 10 ** 400):
        with pytest.raises(ValueError):
            MeanMechanism(SELLER_MEAN, mean)


def test_price_cdf_anchors():
    mb = MeanMechanism(BUYER_MEAN, 1.0)
    assert mean_mech_price_cdf(mb, 0.5) == pytest.approx(1 / 3, abs=1e-15)
    assert mean_mech_price_cdf(mb, 2 / 3) == pytest.approx(5 / 9, abs=1e-15)
    assert mean_mech_price_cdf(mb, 2.0) == 1.0
    assert mean_mech_price_cdf(mb, 0.0) == 0.0
    ms = MeanMechanism(SELLER_MEAN, 1.0)
    assert mean_mech_price_cdf(ms, 1.5) == pytest.approx(0.5, abs=1e-15)
    assert mean_mech_price_cdf(ms, 3.0) == 1.0
    assert mean_mech_price_cdf(ms, 7.0) == 1.0


def test_price_cdf_nan_rejected_infinities_kept():
    for side in SIDES:
        m = MeanMechanism(side, 1.0)
        with pytest.raises(ValueError):
            mean_mech_price_cdf(m, float("nan"))
        assert mean_mech_price_cdf(m, float("-inf")) == 0.0
        assert mean_mech_price_cdf(m, float("inf")) == 1.0


def test_price_cdf_continuity_at_breakpoints():
    """The buyer cdf pieces have to meet: a jump would be an atom, and
    the lottery is declared atomless."""
    mb = MeanMechanism(BUYER_MEAN, 1.0)
    for brk in (0.5, 2 / 3, 2.0):
        below = mean_mech_price_cdf(mb, brk - 1e-11)
        at = mean_mech_price_cdf(mb, brk)
        assert at - below < 1e-9


@given(st.sampled_from(SIDES),
       st.floats(0.0, 2.5), st.floats(0.0, 2.5))
@settings(max_examples=120, deadline=None)
def test_price_cdf_monotone(side, a, b):
    m = MeanMechanism(side, 1.0)
    lo, hi = sorted((a, b))
    assert mean_mech_price_cdf(m, lo) <= mean_mech_price_cdf(m, hi) + 1e-12


def test_price_cdf_matches_oracle_pieces():
    mb = MeanMechanism(BUYER_MEAN, 1.0)
    for v in np.linspace(0.0, 2.2, 45):
        assert mean_mech_price_cdf(mb, v) == pytest.approx(
            mo.buyer_cdf(v), abs=1e-15)


def select_buyer_cdf(v):
    """The buyer CDF as np.select over all four pieces: the reference
    for the piecewise writes."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.select(
            [v <= 0.0, v <= 0.5, v <= 2.0 / 3.0, v < 2.0],
            [0.0, v / (3.0 - 3.0 * v), (4.0 * v - 1.0) / 3.0, (v + 1.0) / 3.0],
            default=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_buyer_cdf_equals_select_reference():
    brk = np.array([0.0, 0.5, 2.0 / 3.0, 1.0, 2.0])
    pts = np.concatenate([brk, np.nextafter(brk, -np.inf), np.nextafter(brk, np.inf),
                          [-0.0, -1.0, 0.25, 1.5, 3.0, -np.inf, np.inf],
                          np.random.default_rng(11).uniform(-1.0, 3.0, 200)])
    for v in pts:
        got = _buyer_unit_cdf(v)
        assert got.shape == () and np.array_equal(got, select_buyer_cdf(v)), v
    assert np.array_equal(_buyer_unit_cdf(pts), select_buyer_cdf(pts))
    # a read-only, zero-stride broadcast view and a 4-d broadcast product
    view = np.broadcast_to(pts, (2, 3, 1, len(pts)))
    assert np.array_equal(_buyer_unit_cdf(view), select_buyer_cdf(view))
    grid = pts[:, None, None, None] * np.array([1.0, 0.5])[:, None, None] \
        + np.array([0.0, 1.0 / 3.0, -0.5])[:, None] + np.array([0.0, 0.1])
    assert grid.ndim == 4
    assert np.array_equal(_buyer_unit_cdf(grid), select_buyer_cdf(grid))


def test_welfare_point_examples():
    ms = MeanMechanism(SELLER_MEAN, 1.0)
    high = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    assert mean_mech_welfare(ms, high) == pytest.approx(4 / 3, abs=1e-10)
    low = Instance.from_values([(1.0, 1.0)], [(0.5, 1.0)])
    assert mean_mech_welfare(ms, low) == pytest.approx(1.0, abs=1e-12)
    mb = MeanMechanism(BUYER_MEAN, 1.0)
    unit = Instance.from_values([(0.0, 1.0)], [(1.0, 1.0)])
    assert mean_mech_welfare(mb, unit) == pytest.approx(2 / 3, abs=1e-10)


def test_welfare_mean_mismatch_rejected():
    ms = MeanMechanism(SELLER_MEAN, 2.0)
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    with pytest.raises(ValueError):
        mean_mech_welfare(ms, inst)


def _random_instance(rng, side):
    """Up to four atoms a side, values in a range the lottery can see."""
    def dist(n):
        vals = np.round(rng.uniform(0.0, 4.0, n), 6)
        mass = rng.dirichlet(np.ones(n))
        return [(float(v), float(m)) for v, m in zip(vals, mass)]
    inst = Instance.from_values(dist(rng.integers(1, 5)),
                                dist(rng.integers(1, 5)))
    mean = (inst.seller if side == SELLER_MEAN else inst.buyer).mean()
    return (inst, mean) if mean > 1e-6 else _random_instance(rng, side)


def test_welfare_matches_quadrature():
    """Exact piecewise integration against adaptive quadrature."""
    rng = np.random.default_rng(11)
    for side in SIDES:
        hi = 3.0 if side == SELLER_MEAN else 2.0
        for _ in range(12):
            inst, mean = _random_instance(rng, side)
            got = mean_mech_welfare(MeanMechanism(side, mean), inst)
            dens = ((lambda q: 1 / 3) if side == SELLER_MEAN
                    else mo.buyer_density)

            def gains(q):
                return sum(
                    sm * bm * (bv - sv)
                    for sv, _, sm in inst.seller.atoms
                    for bv, _, bm in inst.buyer.atoms
                    if sv <= q * mean <= bv)

            pts = sorted({v / mean for v, _, _ in
                          inst.seller.atoms + inst.buyer.atoms
                          if 0 < v / mean < hi} | {0.5, 2 / 3})
            ref, _ = integrate.quad(lambda q: gains(q) * dens(q), 0.0, hi,
                                    points=pts, limit=300)
            assert got == pytest.approx(inst.seller.mean() + ref, abs=1e-8)


def _exact_unit_cdf(side, u):
    """The lottery's unit CDF written out in Fractions."""
    if side == SELLER_MEAN:
        return min(max(u, Fraction(0)), Fraction(3)) / 3
    if u <= 0:
        return Fraction(0)
    if u <= Fraction(1, 2):
        return u / (3 - 3 * u)
    if u <= Fraction(2, 3):
        return (4 * u - 1) / 3
    if u < 2:
        return (u + 1) / 3
    return Fraction(1)


def _exact_lottery_welfare(side, mean, inst):
    """E[S] + sum over pairs with b > s of m_s m_b (b - s)(F(b) - F(s)),
    every atom and the declared mean taken exactly as stored."""
    mu = Fraction(mean)
    sel = [(Fraction(v), Fraction(m)) for v, _, m in inst.seller.atoms]
    buy = [(Fraction(v), Fraction(m)) for v, _, m in inst.buyer.atoms]

    def cdf(v):
        return _exact_unit_cdf(side, v / mu)

    return (sum(m * v for v, m in sel)
            + sum(ms * mb * (vb - vs) * (cdf(vb) - cdf(vs))
                  for vs, ms in sel for vb, mb in buy if vb > vs))


def _lattice_side(max_atoms=6):
    """Values on a 1/8 lattice up to 5, so atoms land on the lottery's
    breakpoints and past its support; masses from small integer weights."""
    keys = st.lists(st.integers(0, 40), min_size=1, max_size=max_atoms,
                    unique=True)

    def with_masses(ks):
        weights = st.lists(st.integers(1, 9), min_size=len(ks),
                           max_size=len(ks))
        return weights.map(lambda w: DiscreteDistribution.from_atoms(
            [(k / 8.0, 0.5, wi / sum(w)) for k, wi in zip(ks, w)]))

    return keys.flatmap(with_masses)


@given(_lattice_side(), _lattice_side())
@settings(max_examples=200, deadline=None)
def test_welfare_matches_exact_rationals(seller, buyer):
    assume(seller.mean() > 0.0 and buyer.mean() > 0.0)
    inst = Instance(seller, buyer)
    for side, mean in ((SELLER_MEAN, seller.mean()), (BUYER_MEAN, buyer.mean())):
        got = mean_mech_welfare(MeanMechanism(side, mean), inst)
        ref = _exact_lottery_welfare(side, mean, inst)
        assert got == pytest.approx(float(ref), rel=1e-13), side


def test_welfare_scale_invariance():
    rng = np.random.default_rng(3)
    for side in SIDES:
        inst, mean = _random_instance(rng, side)
        ratio = (mean_mech_welfare(MeanMechanism(side, mean), inst)
                 / opt_welfare(inst))
        for c in (0.37, 5.0):
            scaled = scale_instance(inst, c)
            r2 = (mean_mech_welfare(MeanMechanism(side, mean * c), scaled)
                  / opt_welfare(scaled))
            assert r2 == pytest.approx(ratio, abs=1e-11)


def test_objective_anchor_points():
    assert float(family_objective(SELLER_MEAN, 0.0, 0.5, 1.0)) == \
        pytest.approx(1 / 6, abs=1e-15)
    # a buyer point below every seller atom trades with nobody
    for x, p in ((0.2, 0.1), (0.9, 0.6), (0.5, 0.0)):
        assert float(family_objective(SELLER_MEAN, x, p, 0.5 * x)) == \
            pytest.approx(1 / 3, abs=1e-15)


def test_objective_matches_case_table():
    """Every per-region rearrangement agrees with the evaluator."""
    rng = np.random.default_rng(5)
    hits = {}
    for _ in range(20000):
        x = float(rng.uniform(0, 1))
        p = float(rng.uniform(0, 0.97))
        side = SIDES[int(rng.integers(2))]
        y = float(rng.uniform(0, 6.0 if side == SELLER_MEAN else 2.0))
        ref = mo.case_objective(side, x, p, y)
        if ref is None:
            continue
        got = float(family_objective(side, x, p, y))
        assert got == pytest.approx(ref, abs=1e-11), (side, x, p, y)
        hits[side] = hits.get(side, 0) + 1
    assert min(hits.values()) > 3000


def test_objective_rejects_bad_p_and_nan():
    nan = float("nan")
    for side in SIDES:
        for p in (1.0, 1.5, -1e-12, nan, np.array([0.2, 1.0])):
            with pytest.raises(ValueError):
                family_objective(side, 0.5, p, 1.0)
        for x, y in ((nan, 1.0), (0.5, nan), (np.array([0.1, nan]), 1.0)):
            with pytest.raises(ValueError):
                family_objective(side, x, 0.3, y)
        assert np.isfinite(family_objective(side, 0.5, 0.0, 1.0))


def test_objective_at_extremes():
    """p next to 1 puts z near 1e9, where the reduced form leans on
    p*x + q*z = 1; y past the support leaves no price between the
    sides. Both regimes agree with quadrature and the case table."""
    seller_pts = ([(x, 1.0 - 1e-9, y) for x in (0.0, 0.3, 0.7, 1.0)
                   for y in (0.2, 0.5, 2.5, 3.5, 7.0)]
                  + [(x, p, y) for x in (0.0, 0.6, 1.0) for p in (0.0, 0.4)
                     for y in (3.5, 7.0)])
    buyer_pts = ([(x, 1.0 - 1e-9, y) for x in (0.0, 0.3, 0.6, 0.9)
                  for y in (0.0, 0.1, 0.25, 1.5, 2.5, 4.0)]
                 + [(x, p, y) for x in (0.0, 0.6, 1.0) for p in (0.0, 0.4)
                    for y in (2.5, 4.0)])
    for side, pts in ((SELLER_MEAN, seller_pts), (BUYER_MEAN, buyer_pts)):
        on_table = 0
        for x, p, y in pts:
            got = float(family_objective(side, x, p, y))
            assert got == pytest.approx(mo.objective_quad(side, x, p, y),
                                        abs=1e-9), (side, x, p, y)
            ref = mo.case_objective(side, x, p, y)
            if ref is not None:
                assert got == pytest.approx(ref, abs=1e-9), (side, x, p, y)
                on_table += 1
        assert on_table >= 10, side


def test_objective_matches_quadrature():
    rng = np.random.default_rng(17)
    for side in SIDES:
        for _ in range(25):
            x = float(rng.uniform(0, 1))
            p = float(rng.uniform(0, 0.95))
            y = float(rng.uniform(0, 4.0))
            got = float(family_objective(side, x, p, y))
            assert got == pytest.approx(
                mo.objective_quad(side, x, p, y), abs=1e-9)


@pytest.mark.parametrize("side", SIDES)
def test_y_candidates_reach_the_dense_grid_minimum(side):
    """At each (x, p) the objective's minimum over the y candidates is
    at most its minimum over a dense y grid on [0, cap + 1], on random
    points, on the faces x = 0 and 1, p = 0 and 1 - 1e-9, and at x = 1,
    p = 0.5, where z = x."""
    rng = np.random.default_rng(41)
    cap = 3.0 if side == SELLER_MEAN else 2.0
    xs = np.append(rng.uniform(0, 1, 400), [0.0, 0.0, 1.0, 1.0, 1.0])
    ps = np.append(rng.uniform(0, 1, 400), [0.0, 1 - 1e-9, 0.0, 1 - 1e-9, 0.5])
    ys = mean_mech._y_candidates(side, xs, ps)
    assert ys.min() >= 0.0 and ys.max() <= cap + 1.0
    exact = family_objective(side, xs[:, None], ps[:, None], ys).min(axis=1)
    dense = np.min([family_objective(side, xs[:, None], ps[:, None], chunk).min(axis=1)
                    for chunk in np.array_split(np.linspace(0.0, cap + 1.0, 8001), 8)],
                   axis=0)
    assert np.all(exact <= dense + 1e-15), np.max(exact - dense)


# frozen minima of the scan at step 0.02 and the points attaining them;
# how the scan blocks its points sets only the order they are evaluated
# in, so these hold to the bit
SCAN_MINIMA_002 = {
    BUYER_MEAN: -8.326672684688674e-17,
    SELLER_MEAN: -5.551115123125783e-17,
}
SCAN_WITNESSES_002 = {
    BUYER_MEAN: (0.0, 0.20900000000000002, 0.6321112515802783),
    SELLER_MEAN: (1.0, 0.22, 2.0),
}


def test_verify_certifies_guarantee_on_coarse_grid():
    for side in SIDES:
        mn, arg = verify_two_thirds(side, step=0.02)
        assert mn == SCAN_MINIMA_002[side]
        assert arg == SCAN_WITNESSES_002[side]
        assert mn >= -1e-9
        assert abs(mn) <= 1e-9
        x, p, y = arg
        assert float(family_objective(side, x, p, y)) == \
            pytest.approx(mn, abs=1e-12)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("step", (0.1, 0.05, 0.03))
def test_verify_matches_brute_force_rescan(side, step):
    """The scan reaches at least as low as the y-grid scan with its full
    21^3 rescans of flagged points: it checks every (x, p) that scan
    does, with y exact. Step 0.03 does not divide 1, so its clipping is
    partial."""
    mn, (x, p, y) = verify_two_thirds(side, step=step)
    assert mn <= mo.brute_force_scan_minimum(side, step) + 1e-15
    assert mo.case_objective(side, x, p, y) == pytest.approx(mn, abs=1e-12)


def test_seller_scan_finds_the_minimum_between_y_grid_values():
    """At step 0.03 the seller's minimum, 0 at y = 2, lies between the
    values of a y grid, which reported 8.3e-8 there."""
    assert verify_two_thirds(SELLER_MEAN, step=0.03)[0] <= 1e-15


@pytest.mark.parametrize("side", SIDES)
def test_small_blocks_leave_the_scan_unchanged(side, monkeypatch):
    """With _BLOCK at 64 pairs, each block of either pass holds one row,
    and the scan evaluates the same points in more blocks and returns
    the same minimum and witness."""
    sizes = []
    objective = family_objective

    def counted(*args):
        out = objective(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(mean_mech, "family_objective", counted)
    assert verify_two_thirds(side, step=0.02) == (SCAN_MINIMA_002[side],
                                                  SCAN_WITNESSES_002[side])
    points, blocks, sizes[:] = sum(sizes), len(sizes), []
    monkeypatch.setattr(mean_mech, "_BLOCK", 64)
    assert verify_two_thirds(side, step=0.02) == (SCAN_MINIMA_002[side],
                                                  SCAN_WITNESSES_002[side])
    assert sum(sizes) == points
    assert len(sizes) > blocks


@pytest.mark.parametrize("side", SIDES)
def test_scan_peak_memory_is_the_scratch_pair(side):
    """The scan holds one block's arrays at a time, so its traced peak
    stays within 3 MiB: two arrays of 2^17 float64s plus 1 MiB."""
    verify_two_thirds(side, step=0.02)
    tracemalloc.start()
    try:
        verify_two_thirds(side, step=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 17 * 8 + 2 ** 20, peak


def test_verify_min_nonincreasing_under_refinement():
    """Halving the step only adds candidate points, so the certified
    minimum can move down but never up."""
    last = np.inf
    for step in (0.08, 0.04, 0.02):
        mn, _ = verify_two_thirds(BUYER_MEAN, step=step)
        assert mn <= last + 1e-12
        assert mn >= -1e-9
        last = mn


def test_verify_rejects_bad_steps():
    for step in (0.0, -0.02, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            verify_two_thirds(SELLER_MEAN, step=step)


def test_random_instances_meet_two_thirds():
    rng = np.random.default_rng(29)
    for side in SIDES:
        for _ in range(150):
            inst, mean = _random_instance(rng, side)
            wel = mean_mech_welfare(MeanMechanism(side, mean), inst)
            assert wel >= (2 / 3) * opt_welfare(inst) - 1e-9


def test_hardness_values_frozen_and_derived():
    for (side, eps), frozen in HARDNESS_VALUES.items():
        pair, val = two_thirds_hardness(side, eps)
        assert val == pytest.approx(frozen, abs=1e-12)
        assert val == pytest.approx(mo.hardness_value(side, eps), abs=1e-9)
        key = "seller" if side == SELLER_MEAN else "buyer"
        for inst in pair:
            mean = getattr(inst, key).mean()
            assert mean == pytest.approx(1.0, abs=1e-9)


def test_hardness_brackets_two_thirds():
    for side in SIDES:
        _, val = two_thirds_hardness(side, 1e-3)
        assert abs(val - 2 / 3) <= 5e-3


def test_hardness_monotone_in_eps():
    for side in SIDES:
        vals = [two_thirds_hardness(side, eps)[1]
                for eps in (0.05, 0.01, 1e-3)]
        assert vals[0] > vals[1] > vals[2] >= 2 / 3 - 1e-12


def test_hardness_eps_domain():
    for bad in (0.0, 0.1, -0.01, 0.5):
        with pytest.raises(ValueError):
            two_thirds_hardness(SELLER_MEAN, bad)
