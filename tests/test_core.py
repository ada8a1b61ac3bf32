import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trademech.core import (
    DiscreteDistribution, Instance, Price, PriceDistribution,
    _gain_sweep, best_fixed_price, fixed_price_welfare, instance_from_json,
    instance_to_json, just_above, just_below, opt_welfare,
    randomized_welfare, scale_instance,
)


# ---------------------------------------------------------------- oracles

def oracle_opt(inst):
    return sum(sm * bm * max(sv, bv)
               for sv, _, sm in inst.seller.atoms
               for bv, _, bm in inst.buyer.atoms)


def oracle_fixed(inst, level, tie):
    es = sum(v * m for v, _, m in inst.seller.atoms)
    gain = 0.0
    for sv, st_, sm in inst.seller.atoms:
        sell = sv < level or (sv == level and st_ <= tie)
        for bv, bt, bm in inst.buyer.atoms:
            buy = bv > level or (bv == level and bt >= tie)
            if sell and buy:
                gain += sm * bm * (bv - sv)
    return es + gain


def dists(max_atoms=5):
    def build(draw_vals):
        vals, raw = draw_vals
        masses = np.array(raw) / sum(raw)
        atoms = []
        used = set()
        for v, m in zip(vals, masses):
            key = (round(v, 6), 0.5)
            if key in used:
                continue
            used.add(key)
            atoms.append((round(v, 6), 0.5, float(m)))
        leftover = 1.0 - sum(m for _, _, m in atoms)
        v0, t0, m0 = atoms[0]
        atoms[0] = (v0, t0, m0 + leftover)
        return DiscreteDistribution.from_atoms(atoms)

    n = st.integers(1, max_atoms)
    return n.flatmap(lambda k: st.tuples(
        st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k, unique=True),
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
    )).map(build)


instances = st.tuples(dists(), dists()).map(lambda sb: Instance(*sb))


# Values on a coarse lattice shared by both sides, tie ranks from {0, 1/2, 1}
# and masses with small integer numerators: welfare ties are common, and
# welfare values that differ at all differ by far more than rounding.
LATTICE = 0.25


def lattice_dists(max_atoms=6):
    keys = st.lists(st.tuples(st.integers(0, 8), st.sampled_from([0.0, 0.5, 1.0])),
                    min_size=1, max_size=max_atoms, unique=True)

    def with_masses(ks):
        weights = st.lists(st.integers(1, 9), min_size=len(ks), max_size=len(ks))
        return weights.map(lambda w: DiscreteDistribution.from_atoms(
            [(i * LATTICE, t, wi / sum(w)) for (i, t), wi in zip(ks, w)]))

    return keys.flatmap(with_masses)


tie_instances = st.tuples(lattice_dists(), lattice_dists()).map(lambda sb: Instance(*sb))


# ------------------------------------------------------------- opt_welfare

def test_opt_deterministic_values():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    assert opt_welfare(inst) == 2.0


def test_opt_two_by_one():
    inst = Instance.from_values([(0.0, 0.5), (2.0, 0.5)], [(1.0, 1.0)])
    assert opt_welfare(inst) == pytest.approx(1.5)


def test_opt_hardness_shape():
    eps = 1e-3
    inst = Instance.from_values([(0.0, 1 - eps), (1 / eps, eps)],
                                [(1 - eps, 1.0)])
    assert opt_welfare(inst) == pytest.approx(1.998001, abs=1e-12)


@given(instances)
@settings(max_examples=80, deadline=None)
def test_opt_matches_oracle(inst):
    assert opt_welfare(inst) == pytest.approx(oracle_opt(inst), rel=1e-12)


# ------------------------------------------------------- fixed_price_welfare

def test_fixed_trade_certain():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    assert fixed_price_welfare(inst, Price(1.5)) == 2.0


def test_fixed_no_trade():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    assert fixed_price_welfare(inst, Price(0.5)) == 1.0


def test_fixed_partial_trade():
    inst = Instance.from_values([(0.0, 0.5), (2.0, 0.5)], [(1.0, 1.0)])
    assert fixed_price_welfare(inst, Price(0.5)) == pytest.approx(1.5)


def test_tie_rank_controls_equal_value_acceptance():
    inst = Instance(
        DiscreteDistribution(((1.0, 0.5, 1.0),)),
        DiscreteDistribution(((1.0, 0.5, 1.0),)))
    # price exactly at the shared (value, tie): both accept
    assert fixed_price_welfare(inst, Price(1.0, 0.5)) == 1.0
    # just above: seller accepts, buyer refuses; just below: converse
    assert fixed_price_welfare(inst, just_above(1.0)) == 1.0
    assert fixed_price_welfare(inst, just_below(1.0)) == 1.0
    # seller tie above the price tie refuses while buyer accepts
    inst2 = Instance(
        DiscreteDistribution(((1.0, 0.9, 1.0),)),
        DiscreteDistribution(((1.0, 0.1, 1.0),)))
    assert fixed_price_welfare(inst2, Price(1.0, 0.5)) == 1.0


@given(instances, st.floats(0.0, 11.0), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
@settings(max_examples=80, deadline=None)
def test_fixed_matches_oracle_and_bounds(inst, level, tie):
    w = fixed_price_welfare(inst, Price(level, tie))
    assert w == pytest.approx(oracle_fixed(inst, level, tie), rel=1e-12)
    es = sum(v * m for v, _, m in inst.seller.atoms)
    assert w >= es - 1e-12
    assert w <= opt_welfare(inst) + 1e-12


@given(instances)
@settings(max_examples=60, deadline=None)
def test_opt_between_means_and_their_sum(inst):
    es = inst.seller.mean()
    eb = inst.buyer.mean()
    o = opt_welfare(inst)
    assert o >= max(es, eb) - 1e-12
    assert o <= es + eb + 1e-12


# ----------------------------------------------------------- best_fixed_price

def test_best_price_trivial():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    p, w = best_fixed_price(inst)
    assert w == 2.0
    assert p.level == 1.0


def test_best_price_36_over_37():
    inst = Instance(
        DiscreteDistribution(((0.4, 1.0, 0.5), (1.0, 1.0, 0.5))),
        DiscreteDistribution(((0.5, 0.5, 0.5), (1.1, 0.5, 0.5))))
    p, w = best_fixed_price(inst)
    assert w == pytest.approx(0.9, abs=1e-12)
    o = opt_welfare(inst)
    assert o == pytest.approx(0.925, abs=1e-12)
    assert w / o == pytest.approx(36.0 / 37.0, abs=1e-12)


def test_best_price_no_trade_possible():
    inst = Instance.from_values([(2.0, 1.0)], [(1.0, 1.0)])
    _, w = best_fixed_price(inst)
    assert w == 2.0


@given(tie_instances)
@settings(max_examples=80, deadline=None)
def test_sweep_matches_oracle_on_shared_levels_and_ties(inst):
    cand = sorted({(v, t) for v, t, _ in inst.seller.atoms + inst.buyer.atoms})
    levels = sorted({v for v, _ in cand})
    probes = cand + [(0.5 * (a + b), 0.5) for a, b in zip(levels, levels[1:])]
    probes.append((levels[-1] + 1.0, 0.5))
    for level, tie in probes:
        assert fixed_price_welfare(inst, Price(level, tie)) == pytest.approx(
            oracle_fixed(inst, level, tie), rel=1e-12, abs=1e-12)
    ref = [oracle_fixed(inst, level, tie) for level, tie in cand]
    top = max(ref)
    p, w = best_fixed_price(inst)
    assert w == pytest.approx(top, rel=1e-12)
    assert (p.level, p.tie) == next(c for c, r in zip(cand, ref) if r >= top - 1e-9)


@st.composite
def mass_batches(draw):
    """Seller and buyer mass batches on shared sorted values, with batch
    shapes that broadcast against each other, and sweep indices."""
    n = draw(st.integers(1, 5))
    vals = np.sort(draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0))))
    shapes = draw(st.sampled_from([((2,), (2,)), ((3, 1), (1, 2)), ((2, 3), (3,))]))
    sm, bm = (draw(hnp.arrays(float, sh + (n,), elements=st.floats(0.0, 1.0)))
              for sh in shapes)
    k, j = (draw(hnp.arrays(int, 3, elements=st.integers(0, n))) for _ in range(2))
    return vals, sm, bm, k, j


@given(mass_batches())
@settings(max_examples=80, deadline=None)
def test_batched_sweep_equals_per_vector_sweeps(case):
    vals, sm, bm, k, j = case
    got = _gain_sweep(vals, sm, vals, bm, k, j)
    batch = np.broadcast_shapes(sm.shape[:-1], bm.shape[:-1])
    assert got.shape == batch + k.shape
    s_all = np.broadcast_to(sm, batch + sm.shape[-1:])
    b_all = np.broadcast_to(bm, batch + bm.shape[-1:])
    for idx in np.ndindex(*batch):
        one = _gain_sweep(vals, s_all[idx], vals, b_all[idx], k, j)
        assert np.array_equal(got[idx], one)


@given(instances)
@settings(max_examples=40, deadline=None)
def test_candidate_set_is_lossless(inst):
    _, w = best_fixed_price(inst)
    coords = sorted({v for v, _, _ in inst.seller.atoms}
                    | {v for v, _, _ in inst.buyer.atoms})
    # sweep strictly between atoms, just above/below each, and each tie rank
    probes = []
    for v in coords:
        probes += [Price(v, 0.0), Price(v, 0.25), Price(v, 0.5),
                   Price(v, 0.75), Price(v, 1.0)]
    for a, b in zip(coords, coords[1:]):
        probes.append(Price(0.5 * (a + b), 0.5))
    probes += [Price(coords[-1] + 1.0, 0.5)]
    if coords[0] > 0:
        probes.append(Price(0.5 * coords[0], 0.5))
    best_probe = max(fixed_price_welfare(inst, q) for q in probes)
    assert w >= best_probe - 1e-12


@given(instances, st.floats(0.1, 9.0))
@settings(max_examples=40, deadline=None)
def test_scaling_covariance(inst, c):
    p, w = best_fixed_price(inst)
    sp, sw = best_fixed_price(scale_instance(inst, c))
    assert sp.level == pytest.approx(c * p.level, rel=1e-12)
    o, so = opt_welfare(inst), opt_welfare(scale_instance(inst, c))
    if o > 0:
        assert sw / so == pytest.approx(w / o, rel=1e-9)


def test_scale_rejects_nonpositive():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    with pytest.raises(ValueError):
        scale_instance(inst, 0.0)
    with pytest.raises(ValueError):
        scale_instance(inst, -2.0)


def test_scale_normalizes_opt():
    inst = Instance.from_values([(0.3, 0.25), (2.0, 0.75)],
                                [(1.0, 0.5), (4.0, 0.5)])
    c = 1.0 / opt_welfare(inst)
    assert opt_welfare(scale_instance(inst, c)) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------- DiscreteDistribution

def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(())
    with pytest.raises(ValueError):
        DiscreteDistribution(((1.0, 0.5, 0.0), (2.0, 0.5, 1.0)))   # zero mass
    with pytest.raises(ValueError):
        DiscreteDistribution(((-1.0, 0.5, 1.0),))                   # negative value
    with pytest.raises(ValueError):
        DiscreteDistribution(((1.0, 0.5, 0.6), (1.0, 0.5, 0.4)))    # dup (v,tie)
    with pytest.raises(ValueError):
        DiscreteDistribution(((2.0, 0.5, 0.5), (1.0, 0.5, 0.5)))    # unsorted
    with pytest.raises(ValueError):
        DiscreteDistribution(((1.0, 0.5, 0.7),))                    # mass != 1
    with pytest.raises(ValueError):
        DiscreteDistribution(((1.0, 1.5, 1.0),))                    # tie outside


def test_price_validation():
    with pytest.raises(ValueError):
        Price(-0.1)
    with pytest.raises(ValueError):
        Price(1.0, 1.5)


def _json_seller(v):
    return instance_from_json({"seller": [{"v": v, "p": 1.0}],
                               "buyer": [{"v": 2.0, "p": 1.0}]})


@pytest.mark.parametrize("x", [float("nan"), float("inf")])
@pytest.mark.parametrize("build", [
    lambda x: DiscreteDistribution.from_atoms([(x, 0.5, 1.0)]),
    lambda x: DiscreteDistribution.from_atoms([(1.0, x, 1.0)]),
    lambda x: DiscreteDistribution.from_atoms([(1.0, 0.5, x)]),
    lambda x: Price(x),
    lambda x: Price(1.0, x),
    lambda x: PriceDistribution(atoms=((Price(1.0), x),)),
    lambda x: _json_seller(str(x)),
], ids=["value", "tie", "mass", "level", "price_tie", "probability", "json"])
def test_non_finite_input_rejected(build, x):
    with pytest.raises(ValueError):
        build(x)


# ---------------------------------------------------------- PriceDistribution

def test_point_price_distribution_equals_fixed():
    inst = Instance.from_values([(0.0, 0.5), (2.0, 0.5)], [(1.0, 1.0)])
    for level in (0.25, 0.5, 1.0, 3.0):
        pd = PriceDistribution.point(Price(level))
        assert randomized_welfare(inst, pd) == pytest.approx(
            fixed_price_welfare(inst, Price(level)), abs=1e-14)


def test_uniform_density_welfare():
    inst = Instance.from_values([(1.0, 1.0)], [(2.0, 1.0)])
    pd = PriceDistribution.from_density([((0.0, 3.0), (1.0 / 3.0,))])
    assert randomized_welfare(inst, pd) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_uniform_density_no_trade():
    inst = Instance.from_values([(1.0, 1.0)], [(0.5, 1.0)])
    pd = PriceDistribution.from_density([((0.0, 3.0), (1.0 / 3.0,))])
    assert randomized_welfare(inst, pd) == pytest.approx(1.0, abs=1e-14)


def test_price_distribution_mass_checked():
    with pytest.raises(ValueError):
        PriceDistribution.from_density([((0.0, 1.0), (0.5,))])
    with pytest.raises(ValueError):
        PriceDistribution(atoms=((Price(1.0), 0.7),))


def test_price_distribution_negativity_rejected():
    # x - 0.25 is negative on [0, 0.25): mass can be fixed up by an atom
    with pytest.raises(ValueError):
        PriceDistribution(
            atoms=((Price(5.0), 1.0 - 0.375),),
            density_pieces=(((0.0, 1.0), (-0.25, 1.0)),))


def test_mixture_linearity():
    inst = Instance.from_values([(0.0, 0.4), (1.5, 0.6)],
                                [(1.0, 0.7), (3.0, 0.3)])
    a = PriceDistribution.point(Price(0.5))
    b = PriceDistribution.from_density([((0.0, 3.0), (1.0 / 3.0,))])
    for w in (0.0, 0.3, 1.0):
        mixed = a.mixed(b, w)
        want = w * randomized_welfare(inst, a) + (1 - w) * randomized_welfare(inst, b)
        assert randomized_welfare(inst, mixed) == pytest.approx(want, abs=1e-12)


def test_scaled_price_distribution_tracks_scaled_instance():
    inst = Instance.from_values([(0.0, 0.4), (1.5, 0.6)],
                                [(1.0, 0.7), (3.0, 0.3)])
    pd = PriceDistribution(
        atoms=((Price(1.0), 0.25),),
        density_pieces=(((0.0, 3.0), (0.25,)),))
    for c in (0.5, 2.0, 7.3):
        w = randomized_welfare(inst, pd)
        ws = randomized_welfare(scale_instance(inst, c), pd.scaled(c))
        assert ws == pytest.approx(c * w, rel=1e-12)


def test_monte_carlo_cross_check_density_welfare():
    # independent randomized check of the closed-form integration
    inst = Instance.from_values([(0.2, 0.3), (1.1, 0.7)],
                                [(0.9, 0.5), (2.5, 0.5)])
    # masses: 0.25 uniform on [0,1), 0.75 under 0.5*x on [1,2)
    pd = PriceDistribution.from_density(
        [((0.0, 1.0), (0.25,)), ((1.0, 2.0), (0.0, 0.5))])
    rng = np.random.default_rng(11)
    n = 400_000
    u = rng.random(n)
    # sample: w.p. .25 uniform [0,1], else density x*(3/8)... use inverse cdf
    mass1 = 0.25
    ps = np.where(u < mass1,
                  rng.random(n),
                  np.sqrt(rng.random(n) * 3.0 + 1.0))
    sel = rng.random(n)
    sv = np.where(sel < 0.3, 0.2, 1.1)
    buy = rng.random(n)
    bv = np.where(buy < 0.5, 0.9, 2.5)
    trade = (sv <= ps) & (ps <= bv)
    mc = sv.mean() + (trade * (bv - sv)).mean()
    exact = randomized_welfare(inst, pd)
    assert exact == pytest.approx(mc, abs=5e-3)


def piece_integral(coeffs, lo, hi):
    """Integral of sum(coeffs[k] * x**k) over [lo, hi], term by term."""
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
               for k, c in enumerate(coeffs))


def oracle_randomized(inst, pd):
    """Atom prices through oracle_fixed; density pieces pair by pair."""
    es = sum(v * m for v, _, m in inst.seller.atoms)
    total = es + sum(prob * (oracle_fixed(inst, p.level, p.tie) - es)
                     for p, prob in pd.atoms)
    for sv, _, sm in inst.seller.atoms:
        for bv, _, bm in inst.buyer.atoms:
            if bv <= sv:
                continue
            pr = 0.0
            for (a, b), q in pd.density_pieces:
                lo = min(max(sv, a), b)
                hi = min(max(bv, a), b)
                if hi > lo:
                    pr += piece_integral(q, lo, hi)
            total += sm * bm * (bv - sv) * pr
    return total


def price_distributions():
    """Atoms at lattice or midpoint levels plus a density whose pieces
    start and end on the lattice; nonnegative coefficients keep every
    piece nonnegative on [0, inf)."""
    atoms = st.lists(st.tuples(st.integers(0, 17), st.sampled_from([0.0, 0.5, 1.0]),
                               st.integers(1, 9)), max_size=3)
    ends = st.sets(st.integers(0, 10), min_size=2, max_size=5)
    coeffs = st.lists(st.integers(0, 4), min_size=1, max_size=3)

    def build(drawn):
        atom_list, cuts, polys = drawn
        cuts = sorted(cuts)
        pieces = [((a * LATTICE, b * LATTICE), tuple(c) if any(c) else (1,))
                  for (a, b), c in zip(zip(cuts, cuts[1:]), polys)]
        mass = sum(w for _, _, w in atom_list) + sum(piece_integral(q, a, b)
                                                       for (a, b), q in pieces)
        return PriceDistribution(
            atoms=tuple((Price(i * LATTICE / 2, t), w / mass) for i, t, w in atom_list),
            density_pieces=tuple((iv, tuple(c / mass for c in q)) for iv, q in pieces))

    return st.tuples(atoms, ends, st.lists(coeffs, min_size=4, max_size=4)).map(build)


@given(tie_instances, price_distributions())
@settings(max_examples=80, deadline=None)
def test_randomized_welfare_matches_pair_loop(inst, pd):
    assert randomized_welfare(inst, pd) == pytest.approx(
        oracle_randomized(inst, pd), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- JSON

def test_json_round_trip():
    inst = Instance(
        DiscreteDistribution(((0.4, 1.0, 0.5), (1.0, 1.0, 0.5))),
        DiscreteDistribution(((0.5, 0.5, 0.5), (1.1, 0.5, 0.5))))
    blob = json.dumps(instance_to_json(inst))
    back = instance_from_json(json.loads(blob))
    assert back == inst


def test_json_default_tie():
    obj = {"seller": [{"v": 1.0, "p": 1.0}], "buyer": [{"v": 2.0, "p": 1.0}]}
    inst = instance_from_json(obj)
    assert inst.seller.atoms[0][1] == 0.5


def test_json_validation_errors():
    with pytest.raises(ValueError):
        instance_from_json({"seller": []})
    with pytest.raises(ValueError):
        instance_from_json({"seller": [{"v": 1.0, "p": 1.0}], "buyer": []})
    with pytest.raises(ValueError):
        instance_from_json({"seller": [{"v": 1.0}],
                            "buyer": [{"v": 2.0, "p": 1.0}]})
    buyer = [{"v": 2.0, "p": 1.0}]
    for bad in ({"v": None, "p": 1.0}, {"v": 1.0, "p": [1]},
                {"v": 1.0, "p": 1.0, "tie": None}):
        with pytest.raises(ValueError):
            instance_from_json({"seller": [bad], "buyer": buyer})
