import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from trademech.core import (
    _TIE_RTOL, DiscreteDistribution, Instance, Price, PriceDistribution,
    _gain_sweep, _keys, best_fixed_price, fixed_price_welfare,
    instance_from_json, instance_to_json, just_above, just_below,
    opt_welfare, randomized_welfare, scale_instance,
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
    # a zero value times inf would be NaN: the factor is rejected first
    inst = Instance.from_values([(0.0, 0.5), (1.0, 0.5)], [(2.0, 1.0)])
    for c in (0.0, -2.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="scale factor must be finite and positive"):
            scale_instance(inst, c)


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


def test_distribution_arrays_are_cached_and_read_only():
    d = DiscreteDistribution(((0.5, 0.0, 0.25), (0.5, 1.0, 0.25), (2.0, 0.5, 0.5)))
    twin = DiscreteDistribution(d.atoms)
    arrays = {"values": [0.5, 0.5, 2.0], "ties": [0.0, 1.0, 0.5],
              "masses": [0.25, 0.25, 0.5], "keys": [0.5, 0.5 + 1j, 2.0 + 0.5j]}
    for name, expected in arrays.items():
        arr = getattr(d, name)
        assert getattr(d, name) is arr
        assert np.array_equal(arr, expected)
        with pytest.raises(ValueError):
            arr[0] = 7.0
    assert d.mean() == 1.25
    # the caches leave equality, hashing and repr to the atoms
    assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
    assert repr(d) == f"DiscreteDistribution(atoms={d.atoms!r})"


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


def test_price_distribution_mass_checked():
    with pytest.raises(ValueError):
        PriceDistribution(atoms=((Price(1.0), 0.7),))


def test_price_distribution_rejects_non_price_atoms():
    with pytest.raises(ValueError, match="is not a Price"):
        PriceDistribution(((1.0, 1.0),))
    with pytest.raises(ValueError, match="is not a Price"):
        PriceDistribution(((Price(1.0), 0.5), ((1.0, 0.5), 0.5)))


def oracle_randomized(inst, pd):
    """Each atom price through oracle_fixed, weighted by its probability."""
    es = sum(v * m for v, _, m in inst.seller.atoms)
    return es + sum(prob * (oracle_fixed(inst, p.level, p.tie) - es)
                    for p, prob in pd.atoms)


def price_distributions():
    """One to four atoms at lattice or midpoint levels, every tie rank."""
    atoms = st.lists(st.tuples(st.integers(0, 17), st.sampled_from([0.0, 0.5, 1.0]),
                               st.integers(1, 9)), min_size=1, max_size=4)

    def build(atom_list):
        mass = sum(w for _, _, w in atom_list)
        return PriceDistribution(
            atoms=tuple((Price(i * LATTICE / 2, t), w / mass) for i, t, w in atom_list))

    return atoms.map(build)


@given(tie_instances, price_distributions())
@settings(max_examples=80, deadline=None)
def test_randomized_welfare_matches_pair_loop(inst, pd):
    assert randomized_welfare(inst, pd) == pytest.approx(
        oracle_randomized(inst, pd), rel=1e-12, abs=1e-12)


# ------------------------------------------------ complex (value, tie) keys

def record_keys(values, ties):
    """(value, tie) as structured records, which numpy also orders
    lexicographically: the reference for the complex keys."""
    keys = np.empty(len(values), dtype=[("v", float), ("t", float)])
    keys["v"], keys["t"] = values, ties
    return keys


def record_cleared(inst, prices):
    s, b = inst.seller, inst.buyer
    k = np.searchsorted(record_keys(s.values, s.ties), prices, side="right")
    j = np.searchsorted(record_keys(b.values, b.ties), prices, side="left")
    return _gain_sweep(s.values, s.masses, b.values, b.masses, k, j)


def record_best_fixed_price(inst):
    s, b = inst.seller, inst.buyer
    cand = np.unique(np.concatenate([record_keys(s.values, s.ties),
                                     record_keys(b.values, b.ties)]))
    w = s.mean() + record_cleared(inst, cand)
    i = int(np.argmax(w >= w.max() * (1.0 - _TIE_RTOL)))
    return Price(float(cand["v"][i]), float(cand["t"][i])), float(w[i])


def signed_zero(d, flip):
    """d with a value of 0.0 written as -0.0 when flip is set."""
    return DiscreteDistribution(tuple((-0.0 if flip and v == 0.0 else v, t, m)
                                      for v, t, m in d.atoms))


signed_zero_instances = st.tuples(lattice_dists(), lattice_dists(), st.booleans(),
                                  st.booleans()).map(
    lambda a: Instance(signed_zero(a[0], a[2]), signed_zero(a[1], a[3])))
SIGNED_ZERO_PAIR = Instance(
    DiscreteDistribution(((-0.0, 0.5, 0.5), (0.25, 0.0, 0.5))),
    DiscreteDistribution(((0.0, 0.5, 0.25), (0.0, 1.0, 0.25), (0.5, 0.5, 0.5))))


def probe_keys(inst):
    """Every atom key of both sides, midpoints between levels, both
    zeros at every tie rank and a point past the top."""
    pairs = [(v, t) for v, t, _ in inst.seller.atoms + inst.buyer.atoms]
    levels = sorted({v for v, _ in pairs})
    pairs += [(0.5 * (a + b), 0.5) for a, b in zip(levels, levels[1:])]
    pairs += [(z, t) for z in (0.0, -0.0) for t in (0.0, 0.5, 1.0)]
    pairs.append((levels[-1] + 1.0, 0.5))
    return [p for p, _ in pairs], [t for _, t in pairs]


@given(signed_zero_instances)
@example(SIGNED_ZERO_PAIR)
@settings(max_examples=80, deadline=None)
def test_complex_keys_search_and_unique_like_records(inst):
    s, b = inst.seller, inst.buyer
    assert np.array_equal(s.keys, _keys(s.values, s.ties))
    pv, pt = probe_keys(inst)
    for d in (s, b):
        for side in ("left", "right"):
            assert np.array_equal(np.searchsorted(d.keys, _keys(pv, pt), side=side),
                                  np.searchsorted(record_keys(d.values, d.ties),
                                                  record_keys(pv, pt), side=side))
    got = np.unique(np.concatenate([s.keys, b.keys]))
    ref = np.unique(np.concatenate([record_keys(s.values, s.ties),
                                    record_keys(b.values, b.ties)]))
    assert np.array_equal(got.real, ref["v"]) and np.array_equal(got.imag, ref["t"])


@given(signed_zero_instances, price_distributions())
@example(SIGNED_ZERO_PAIR, PriceDistribution(((Price(-0.0), 0.5), (Price(0.0, 1.0), 0.5))))
@settings(max_examples=80, deadline=None)
def test_welfare_evaluators_equal_the_record_key_path(inst, pd):
    assert best_fixed_price(inst) == record_best_fixed_price(inst)
    es = inst.seller.mean()
    for level, tie in zip(*probe_keys(inst)):
        price = Price(level, tie)
        assert fixed_price_welfare(inst, price) == es + float(
            record_cleared(inst, record_keys([level], [tie]))[0])
    probs = np.array([prob for _, prob in pd.atoms])
    prices = record_keys([p.level for p, _ in pd.atoms], [p.tie for p, _ in pd.atoms])
    assert randomized_welfare(inst, pd) == es + float(probs @ record_cleared(inst, prices))


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
