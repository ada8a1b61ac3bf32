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
                                 _buyer_unit_cdf, _local_minimum, family_objective,
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


def test_objective_into_scratch_matches_allocating_call():
    """Written into a scratch pair, the objective is the allocating
    call's to the bit, on 3-d boxes and on boxes stacked on a leading
    axis, with the clipped faces x = 0 and 1, p = 0 and 1 - 1e-9 and
    y = 0 among the points; the result is a view into the first array."""
    rng = np.random.default_rng(31)
    scratch = np.full((2, 4000), np.nan)
    for side in SIDES:
        cap = 3.0 if side == SELLER_MEAN else 2.0
        xs = np.sort(np.append(rng.uniform(0, 1, (3, 4)), [[0.0, 1.0]] * 3, axis=1))
        ps = np.sort(np.append(rng.uniform(0, 1, (3, 3)), [[0.0, 1 - 1e-9]] * 3, axis=1))
        ys = np.sort(np.append(rng.uniform(0, cap + 1, (3, 9)), [[0.0]] * 3, axis=1))
        for box in ((xs[0, :, None, None], ps[0, None, :, None], ys[0, None, None, :]),
                    (xs[:, :, None, None], ps[:, None, :, None], ys[:, None, None, :])):
            want = family_objective(side, *box)
            got = family_objective(side, *box, scratch=scratch)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.shares_memory(got, scratch[0])


# frozen minima of the scan at step 0.02 and the points attaining them;
# how the scan blocks and groups its points sets only the order they are
# evaluated in, so these hold to the bit
SCAN_MINIMA_002 = {
    BUYER_MEAN: -8.326672684688674e-17,
    SELLER_MEAN: -5.551115123125783e-17,
}
SCAN_WITNESSES_002 = {
    BUYER_MEAN: (1.0, 0.08, 0.44),
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
    """Removing repeated clipped points and reducing the objective
    leaves the scan's minimum where the full-neighborhood rescan puts
    it; step 0.03 does not divide 1, so its clipping is partial."""
    mn, (x, p, y) = verify_two_thirds(side, step=step)
    assert mn == pytest.approx(mo.brute_force_scan_minimum(side, step),
                               abs=1e-12)
    assert mo.case_objective(side, x, p, y) == pytest.approx(mn, abs=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_rescan_matches_full_neighborhoods_on_faces(side):
    """Point by point, the rescan of distinct clipped coordinates finds
    the minimum of the full clipped neighborhood. The points sit on the
    clipped faces (x = 0 or 1, p = 0 or within a half step of 1, y = 0)
    and off them, and their neighborhood minima are mostly unique, so a
    face coordinate dropped or repeated by mistake shows."""
    rng = np.random.default_rng(23)
    step = 0.03
    cap = 3.0 if side == SELLER_MEAN else 2.0
    pts = np.column_stack([
        rng.choice([0.0, 1.0, 0.01, 0.5, 0.99], 60),
        rng.choice([0.0, 0.005, 0.4, 0.99, 1.0 - 1e-9], 60),
        rng.choice([0.0, 0.004, 0.3, 1.1, cap, cap + 1.0], 60)])
    ref = mo.neighborhood_minima(side, pts, step)
    for pt, want in zip(pts, ref):
        got, (x, p, y) = _local_minimum(side, pt[None], step, np.inf, None)
        assert got == pytest.approx(want, abs=1e-12), pt
        assert float(mo.objective_direct(side, x, p, y)) == \
            pytest.approx(got, abs=1e-12), pt


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("seed", (3, 4))
def test_union_rescan_evaluates_each_distinct_point_once(side, seed, monkeypatch):
    """Grouped by (x, p), the rescan finds the minimum of the members'
    full neighborhoods and evaluates every distinct point of their union
    exactly once. Members share an (x, p) along adjacent y's and across
    gaps in y, and sit on the x = 0, x = 1, p = 0 and y = 0 faces, within
    a half step of p = 1, and off every face."""
    rng = np.random.default_rng(seed)
    step = 0.03
    cap = 3.0 if side == SELLER_MEAN else 2.0
    rows = []
    for x in (0.0, 1.0, step * rng.integers(1, 33)):
        for p in (0.0, 1.0 - 0.3 * step, step * rng.integers(1, 33)):
            k = rng.integers(0, 4) if rows else 0
            rows += [(x, p, (k + i) * step) for i in (0, 1, 2, 5, 8, 9)]
    rows += list(zip(rng.uniform(0, 1, 8), rng.uniform(0, 1 - 1e-9, 8),
                     rng.uniform(0, cap + 1.0, 8)))
    pts = np.array(rows)[rng.permutation(len(rows))]

    offsets = np.linspace(-0.5, 0.5, 21) * step
    near = np.broadcast_arrays(
        np.clip(pts[:, 0, None, None, None] + offsets[:, None, None], 0.0, 1.0),
        np.clip(pts[:, 1, None, None, None] + offsets[:, None], 0.0, 1.0 - 1e-9),
        np.maximum(pts[:, 2, None, None, None] + offsets, 0.0))
    rows = np.column_stack([a.ravel() for a in near])
    rows = rows[np.lexsort(rows.T)]
    distinct = 1 + np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1))

    evaluated = []
    objective = family_objective

    def counted(*args, **kwargs):
        out = objective(*args, **kwargs)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(mean_mech, "family_objective", counted)
    got, (x, p, y) = _local_minimum(side, pts, step, np.inf, None)
    assert sum(evaluated) == distinct
    assert got == pytest.approx(mo.neighborhood_minima(side, pts, step).min(),
                                abs=1e-12)
    assert float(mo.objective_direct(side, x, p, y)) == pytest.approx(got, abs=1e-12)


def test_coarse_blocks_stay_within_the_block_size(monkeypatch):
    """At step 0.002 one x of the seller's scan spans 500 p's times 1502
    y's, about six blocks, so the coarse pass splits along p too: no
    block exceeds _BLOCK elements and together they cover every grid
    point once. The patched objective is flat, so nothing is rescanned."""
    sizes = []

    def flat(side, x, p, y, scratch=None):
        shape = np.broadcast(x, p, y).shape
        sizes.append(np.prod(shape))
        return np.broadcast_to(1.0, shape)

    monkeypatch.setattr(mean_mech, "family_objective", flat)
    mn, _ = verify_two_thirds(SELLER_MEAN, step=0.002)
    assert mn == 1.0
    assert max(sizes) <= mean_mech._BLOCK
    assert sum(sizes) == 501 * 500 * 1502


def test_blocks_split_along_y_when_one_row_exceeds_a_block(monkeypatch):
    """With _BLOCK at 16, below the 32 y's of the seller's step-0.1 grid
    and the 21 of each of its rescan groups, every coarse row and every
    group is cut along y. No block exceeds _BLOCK, and the scan returns
    the same minimum and witness from the same number of points."""
    sizes = []
    objective = family_objective

    def counted(*args, **kwargs):
        out = objective(*args, **kwargs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(mean_mech, "family_objective", counted)
    want = verify_two_thirds(SELLER_MEAN, step=0.1)
    points, sizes[:] = sum(sizes), []
    monkeypatch.setattr(mean_mech, "_BLOCK", 16)
    assert verify_two_thirds(SELLER_MEAN, step=0.1) == want
    assert max(sizes) <= 16
    assert sum(sizes) == points


@pytest.mark.parametrize("side", SIDES)
def test_scan_peak_memory_is_the_scratch_pair(side):
    """Each pass of the scan writes every block into one scratch pair of
    _BLOCK elements, freed before the next pass allocates its own, so the
    traced peak stays within one pair plus 1 MiB."""
    verify_two_thirds(side, step=0.02)
    tracemalloc.start()
    try:
        verify_two_thirds(side, step=0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * mean_mech._BLOCK * 8 + 2 ** 20, peak


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
