"""Grid program tests: discretization, certificates, the global solver,
the hardness search, conversions, and the one-sided LPs.

Reference values come from tests/grid_oracles.py, which rebuilds every
expected quantity with plain loops and scipy. Values frozen here were
produced by the named oracle function at the stated arguments.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import grid_oracles as go

from trademech.core import (
    DiscreteDistribution, Instance, Price, best_fixed_price,
    fixed_price_welfare, opt_welfare, scale_instance,
)
from trademech.factor_revealing import (
    GridCertificate, PriceGrid, REFERENCE_GRID_16, _best_alternate, _box_rows,
    _pinned_rows, _row_gains, certificate_from_json,
    certificate_to_json, convergence_bracket, discretize_distribution,
    lowerop_solve, one_sided_certify, one_sided_value, opt_quadratic,
    upperop_search, upperop_to_instance, verify_certificate, welfare_rows,
)


def dist(*pairs):
    return DiscreteDistribution.from_pairs(pairs)


# ---------------------------------------------------------------- grids

def test_grid_validation():
    g = PriceGrid((0.0, 0.5, 2.0))
    assert g.n == 3
    assert g.prices == (0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        PriceGrid((0.0,))
    with pytest.raises(ValueError):
        PriceGrid((0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        PriceGrid((-0.1, 0.5))
    with pytest.raises(ValueError):
        PriceGrid((0.0, float("inf")))


def test_grid_scaling():
    g = PriceGrid((0.0, 1.0, 4.0)).scaled(0.5)
    assert g.prices == (0.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        g.scaled(0.0)


def test_reference_grid_shape():
    assert REFERENCE_GRID_16.n == 16
    assert REFERENCE_GRID_16.prices[0] == 0.0
    assert REFERENCE_GRID_16.prices[-1] == 1000.0


# ------------------------------------------------- rows and the optimum

def test_welfare_rows_match_loop_reference():
    g = PriceGrid((0.0, 0.4, 1.0, 2.5))
    rng = np.random.default_rng(3)
    for _ in range(25):
        s = rng.random(4)
        b = rng.random(4)
        p = g.prices
        for inclusive in (False, True):
            rows = welfare_rows(g, s, b, inclusive=inclusive)
            for t in range(4):
                base = sum(s[i] * p[i] for i in range(4))
                top = t + 1 if inclusive else t
                gain = sum(s[i] * b[j] * (p[j] - p[i])
                           for i in range(top) for j in range(t + 1, 4))
                assert rows[t] == pytest.approx(base + gain, abs=1e-12)


ROW_GRIDS = [PriceGrid((0.0, 0.4, 1.0, 2.5)), PriceGrid((0.0, 0.3, 1000.0)),
             REFERENCE_GRID_16]


@pytest.mark.parametrize("grid", ROW_GRIDS)
def test_pinned_rows_reproduce_welfare_rows(grid):
    rng = np.random.default_rng(8)
    for _ in range(10):
        s, b = rng.dirichlet(np.ones(grid.n)), rng.dirichlet(np.ones(grid.n))
        for inclusive in (False, True):
            want = welfare_rows(grid, s, b, inclusive=inclusive)
            for free, fixed, x in (("s", b, s), ("b", s, b)):
                G, h, const = _pinned_rows(grid, fixed, free, inclusive)
                assert G @ x + const == pytest.approx(want, abs=1e-12)
                assert h @ x == pytest.approx(opt_quadratic(grid, s, b), abs=1e-12)


@pytest.mark.parametrize("grid", ROW_GRIDS)
def test_exclusive_pinned_rows_match_oracle_coefficients(grid):
    rng = np.random.default_rng(9)
    p = grid.prices
    for _ in range(5):
        b = rng.dirichlet(np.ones(grid.n))
        G, _, _ = _pinned_rows(grid, b, "s", False)
        want = [go.strict_row_coeffs(p, b, t) for t in range(grid.n)]
        assert G == pytest.approx(np.array(want), abs=1e-12)


@pytest.mark.parametrize("grid", ROW_GRIDS)
def test_pair_gain_block_contracts_to_row_gains(grid):
    """The z block of the relaxation's welfare rows, contracted with the
    product s b^T it stands for, gives back the exclusive row gains."""
    n = grid.n
    unit = np.eye(n)
    pair = _row_gains(grid, unit[:, None], unit[None], False)
    assert pair.shape == (n, n, n)
    rng = np.random.default_rng(10)
    for _ in range(10):
        s, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        got = np.einsum("ijt,ij->t", pair, np.outer(s, b))
        assert got == pytest.approx(_row_gains(grid, s, b, False), abs=1e-12)


def test_opt_quadratic_matches_loop_reference():
    g = PriceGrid((0.0, 1.0, 3.0))
    s = (0.2, 0.5, 0.3)
    b = (0.6, 0.1, 0.4)
    want = sum(s[i] * b[j] * max(g.prices[i], g.prices[j])
               for i in range(3) for j in range(3))
    assert opt_quadratic(g, s, b) == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------- discretization

def test_discretize_grid_aligned_atom():
    s = discretize_distribution(dist((1.0, 1.0)), PriceGrid((0.0, 1.0, 2.0)))
    assert np.allclose(s, [0.0, 1.0, 0.0], atol=1e-12)


def test_discretize_interior_atom_splits():
    # mass q at 0.5 splits so the cell keeps both its mass and its mean
    s = discretize_distribution(dist((0.5, 1.0)), PriceGrid((0.0, 1.0, 2.0)))
    assert np.allclose(s, [0.5, 0.5, 0.0], atol=1e-12)


def test_discretize_tail_collapses_to_top():
    s = discretize_distribution(dist((3.0, 1.0)), PriceGrid((0.0, 1.0, 2.0)))
    assert np.allclose(s, [0.0, 0.0, 1.5], atol=1e-12)


def test_discretize_rejects_mass_below_grid():
    with pytest.raises(ValueError):
        discretize_distribution(dist((0.5, 1.0)), PriceGrid((1.0, 2.0)))


@st.composite
def distribution_and_grid(draw):
    k = draw(st.integers(1, 4))
    vals = draw(st.lists(st.floats(0.01, 8.0), min_size=k, max_size=k,
                         unique=True))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(masses)
    d = dist(*((v, m / total) for v, m in zip(vals, masses)))
    levels = draw(st.lists(st.floats(0.05, 6.0), min_size=2, max_size=5,
                           unique=True))
    grid = PriceGrid(tuple([0.0] + sorted(levels)))
    return d, grid


@given(distribution_and_grid())
@settings(max_examples=120, deadline=None)
def test_discretize_properties(dg):
    d, grid = dg
    s = discretize_distribution(d, grid)
    p = grid.as_array()
    mean = d.mean()
    assert np.all(s >= 0.0)
    assert 1.0 - 1e-9 <= s.sum() <= 1.0 + mean / p[-1] + 1e-9
    assert float(s @ p) == pytest.approx(mean, abs=1e-10 * max(1.0, mean))
    prefix = np.cumsum(s)
    for t, level in enumerate(p):
        below = float(d.masses[d.values < level].sum())
        assert prefix[t] >= below - 1e-9


# --------------------------------------------------------- verification

def test_verify_rejects_failed_optimum_constraint():
    c = GridCertificate(PriceGrid((0.0, 1.0)), (1.0, 0.0), (1.0, 0.0), 0.0,
                        "lower")
    rep = verify_certificate(c)
    assert not rep.feasible
    assert rep.mass_slacks["opt"] == pytest.approx(-1.0)


def test_verify_reports_tightness_and_slacks():
    g = PriceGrid((0.0, 1.0))
    c = GridCertificate(g, (1.0, 0.0), (0.0, 1.0), 1.0, "upper")
    rep = verify_certificate(c)
    # inclusive rows: t=0 collects the (0 -> 1) gain, t=1 collects nothing
    assert rep.rows == pytest.approx((1.0, 0.0))
    assert rep.feasible
    assert rep.r_tight
    assert rep.tight_index == 0
    assert rep.worst_slack == pytest.approx(0.0, abs=1e-12)
    loose = GridCertificate(g, (1.0, 0.0), (0.0, 1.0), 1.25, "upper")
    assert not verify_certificate(loose).r_tight


def test_verify_report_round_trips_as_json():
    c = GridCertificate(PriceGrid((0.0, 1.0)), (1.0, 0.0), (0.0, 1.0), 1.0,
                        "upper")
    blob = json.dumps(verify_certificate(c).to_json_dict())
    back = json.loads(blob)
    assert back["feasible"] is True
    assert back["row_slacks"] == [0.0, 1.0]


def test_certificate_shape_checks():
    g = PriceGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        GridCertificate(g, (1.0,), (0.0, 1.0), 0.5, "lower")
    with pytest.raises(ValueError):
        GridCertificate(g, (1.0, 0.0), (0.0, 1.0), 0.5, "middle")
    with pytest.raises(ValueError):
        GridCertificate(g, (1.0, -0.5), (0.0, 1.0), 0.5, "lower")


# ------------------------------------------------------ lower program

# frozen: go.bruteforce_lower_value((0.0, 1e6), 0.01) and the 0.02
# both-sides scan agree on 0.0 for the two-level grid
N2_BRUTEFORCE = 0.0
# frozen: go.bruteforce_lower_value((0.0, 0.5, 1000.0), 0.01)
N3_BRUTEFORCE = 0.499749875


def test_lowerop_needs_zero_anchor():
    with pytest.raises(ValueError):
        lowerop_solve(PriceGrid((0.5, 1.0)))
    with pytest.raises(ValueError):
        lowerop_solve(PriceGrid((0.0, 1.0)), "annealing")


@pytest.mark.parametrize("kwargs", [
    {"gap_tol": -1.0}, {"gap_tol": float("nan")},
    {"node_budget": 0}, {"node_budget": -5},
], ids=["gap_negative", "gap_nan", "budget_zero", "budget_negative"])
def test_lowerop_rejects_bad_stopping_rules(kwargs):
    with pytest.raises(ValueError):
        lowerop_solve(PriceGrid((0.0, 0.3, 1000.0)), "branch_and_bound", **kwargs)


def test_lowerop_two_levels_hits_zero():
    cert = lowerop_solve(PriceGrid((0.0, 1e6)), "branch_and_bound")
    assert cert.r == pytest.approx(N2_BRUTEFORCE, abs=1e-9)
    assert cert.info.lower_bound == pytest.approx(0.0, abs=1e-9)
    assert verify_certificate(cert).feasible


def test_lowerop_three_levels_matches_bruteforce():
    cert = lowerop_solve(PriceGrid((0.0, 0.5, 1000.0)), "branch_and_bound",
                         node_budget=20_000)
    assert cert.info.converged
    assert cert.r == pytest.approx(N3_BRUTEFORCE, abs=5e-3)
    # the enumeration only quantizes the buyer side, so it sits above the
    # continuous optimum the solver reaches
    assert cert.r <= N3_BRUTEFORCE + 1e-6
    assert cert.info.lower_bound <= cert.r + 1e-12
    rep = verify_certificate(cert)
    assert rep.feasible
    assert rep.role == "lower"


def test_lowerop_alternating_upper_bounds_global():
    g = PriceGrid((0.0, 0.5, 1000.0))
    heur = lowerop_solve(g, "alternating")
    assert heur.info.lower_bound is None
    assert verify_certificate(heur).feasible
    glob = lowerop_solve(g, "branch_and_bound", node_budget=20_000)
    assert heur.r >= glob.info.lower_bound - 1e-9


def test_alternating_reports_a_stall_on_its_last_round():
    """A run that stalls on its final allowed round has converged; the
    flag comes from the run, not from comparing its round count with the
    limit."""
    g = PriceGrid((0.0, 0.35, 0.8, 1000.0))
    inv = 1.0 / (1.0 + g.as_array())
    starts = [np.full(4, 0.25), inv / inv.sum(), np.array([0.5, 0.5, 0.0, 0.0])]
    _, _, _, iters, stalled = _best_alternate(g, "lower", starts, 2)
    assert (iters, stalled) == (4, True)


def test_lowerop_bounds_a_25_level_grid():
    levels = (0.0,) + tuple(0.1 * k for k in range(1, 24)) + (1000.0,)
    cert = lowerop_solve(PriceGrid(levels), "branch_and_bound", node_budget=1)
    assert 0.0 <= cert.info.lower_bound <= cert.r
    assert verify_certificate(cert).feasible


@pytest.mark.parametrize("prices", [(0.0, 0.5, 1000.0), (0.0, 0.3, 0.7, 2.0)])
def test_box_rows_contain_every_true_point(prices):
    """Every point of the program inside a box, with z = s b^T, satisfies
    every envelope and aggregate row built for that box, so no branch
    cuts off a true point."""
    grid = PriceGrid(prices)
    n = grid.n
    cap = 1.0 + 1.0 / prices[-1]
    rng = np.random.default_rng(41)
    for _ in range(200):
        # a point in the mass windows, then a random box around it, with
        # about a third of the lower bounds at 0
        s, b = (rng.dirichlet(np.ones(n)) * rng.uniform(1.0, cap) for _ in range(2))
        ls, lb = (v * rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7) for v in (s, b))
        us, ub = (v + rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.7) for v in (s, b))
        envelopes, aggregates = _box_rows(grid, np.concatenate([ls, lb]),
                                          np.concatenate([us, ub]))
        blocks = envelopes + aggregates
        lows = int(np.sum((ls[:, None] > 0.0) | (lb[None, :] > 0.0)))
        assert sum(len(np.atleast_2d(rows)) for rows, _, _ in blocks) == lows + 3 * n * n + 4 * n
        x = np.concatenate([s, b, np.outer(s, b).ravel(), [0.0]])
        for rows, rel, rhs in blocks:
            lhs = np.atleast_2d(rows) @ x
            if rel == "<=":
                assert np.all(lhs <= rhs + 1e-12)
            else:
                assert rel == ">="
                assert np.all(lhs >= rhs - 1e-12)


def random_instance(rng, atoms=4):
    def side():
        k = int(rng.integers(1, atoms + 1))
        vals = np.round(rng.uniform(0.0, 4.0, size=k), 3)
        masses = rng.dirichlet(np.ones(k))
        return tuple((float(v), float(m)) for v, m in zip(vals, masses))
    return Instance.from_values(side(), side())


def grid_restricted_best(inst, grid):
    # best true welfare over grid levels, either tie rank
    return max(fixed_price_welfare(inst, Price(level, tie))
               for level in grid.prices for tie in (0.0, 1.0))


def test_discretized_instances_are_feasible_and_honest():
    """Certificates built from real instances must hold, and their worst
    row can never promise more than the instance's own grid-restricted
    welfare."""
    rng = np.random.default_rng(12)
    grids = [PriceGrid((0.0, 0.5, 1.0, 2.0, 8.0)),
             PriceGrid((0.0, 0.25, 1.3, 5.0)),
             REFERENCE_GRID_16]
    for k in range(40):
        inst = random_instance(rng)
        opt = opt_welfare(inst)
        if opt <= 1e-9:
            continue
        inst = scale_instance(inst, 1.0 / opt)
        grid = grids[k % len(grids)]
        s = discretize_distribution(inst.seller, grid)
        b = discretize_distribution(inst.buyer, grid)
        rows = welfare_rows(grid, s, b, inclusive=False)
        cert = GridCertificate(grid, tuple(s), tuple(b), float(rows.max()),
                               "lower")
        assert verify_certificate(cert).feasible
        assert rows.max() <= grid_restricted_best(inst, grid) + 1e-9


# ---------------------------------------------------- upper program

def test_upperop_uniform_start_is_feasible():
    cert = upperop_search(PriceGrid((0.0, 0.5, 1.0, 2.0)), restarts=1)
    rep = verify_certificate(cert)
    assert rep.feasible
    assert cert.r <= 1.0 + 1e-9


def test_upperop_scales_low_grids_up():
    cert = upperop_search(PriceGrid((0.0, 0.2, 0.5)), restarts=1)
    assert cert.grid.prices[-1] == pytest.approx(1.0)
    assert verify_certificate(cert).feasible


SEED5_GRID = PriceGrid((0.0, 0.4, 0.5, 1.0, 1.1)).scaled(1.0 / 0.925)
SEED5_S = (0.0, 0.5, 0.0, 0.5, 0.0)
SEED5_B = (0.0, 0.0, 0.5, 0.0, 0.5)


def test_seeded_five_level_certificate_value():
    # exact rational arithmetic puts the worst inclusive row at 36/37 and
    # the proxy optimum at exactly 1 for this point
    rows = welfare_rows(SEED5_GRID, SEED5_S, SEED5_B, inclusive=True)
    assert rows.max() == pytest.approx(36.0 / 37.0, abs=1e-12)
    assert opt_quadratic(SEED5_GRID, SEED5_S, SEED5_B) == pytest.approx(1.0, abs=1e-12)
    cert = GridCertificate(SEED5_GRID, SEED5_S, SEED5_B, 36.0 / 37.0, "upper")
    rep = verify_certificate(cert)
    assert rep.feasible
    assert rep.r_tight


def test_upperop_search_needs_a_restart():
    g = PriceGrid((0.0, 0.5, 1.0))
    for restarts in (0, -3):
        with pytest.raises(ValueError):
            upperop_search(g, restarts=restarts)


def test_upperop_search_is_deterministic():
    g = PriceGrid((0.0, 0.3, 0.7, 1.4))
    a = upperop_search(g, restarts=4, seed=11)
    b = upperop_search(g, restarts=4, seed=11)
    assert a == b


# ------------------------------------------------------- conversion

def test_conversion_trivial_no_trade():
    cert = GridCertificate(PriceGrid((0.0, 2.0)), (0.0, 1.0), (1.0, 0.0),
                           2.0, "upper")
    inst = upperop_to_instance(cert)
    _, w = best_fixed_price(inst)
    assert w == pytest.approx(2.0)
    assert opt_welfare(inst) == pytest.approx(2.0)


def test_conversion_seeded_instance_ratio():
    cert = GridCertificate(SEED5_GRID, SEED5_S, SEED5_B, 36.0 / 37.0, "upper")
    inst = upperop_to_instance(cert)
    _, w = best_fixed_price(inst)
    assert w / opt_welfare(inst) == pytest.approx(36.0 / 37.0, abs=1e-12)


def test_conversion_requires_upper_tight_feasible():
    g = PriceGrid((0.0, 1.0))
    low = GridCertificate(g, (1.0, 0.0), (0.0, 1.0), 1.0, "lower")
    with pytest.raises(ValueError):
        upperop_to_instance(low)
    slack = GridCertificate(g, (1.0, 0.0), (0.0, 1.0), 1.5, "upper")
    with pytest.raises(ValueError):
        upperop_to_instance(slack)


def test_search_outputs_convert_within_promise():
    for seed in (0, 1, 2):
        g = PriceGrid((0.0, 0.35, 0.8, 1.6, 3.0))
        cert = upperop_search(g, restarts=3, seed=seed)
        inst = upperop_to_instance(cert)
        _, w = best_fixed_price(inst)
        assert w <= (cert.r + 1e-9) * opt_welfare(inst)


# -------------------------------------------------------- one-sided

def test_one_sided_value_nonnegative_at_zero_ratio():
    g = PriceGrid((0.0, 0.5, 2.0))
    v, omega = one_sided_value(g, "buyer", (0.2, 0.3, 0.5), 0.0)
    assert v >= -1e-12
    assert omega.sum() == pytest.approx(1.0)
    v2, _ = one_sided_value(g, "seller", (0.2, 0.3, 0.5), 0.0)
    assert v2 >= -1e-12


# frozen: go.one_sided_saddle_scan((0.0, 1.0), "buyer", (0.0, 1.0), 0.5, 10.0)
TWO_LEVEL_SCAN = -0.5


def test_one_sided_matches_saddle_scan():
    v, _ = one_sided_value(PriceGrid((0.0, 1.0)), "buyer", (0.0, 1.0), 0.5)
    assert v == pytest.approx(TWO_LEVEL_SCAN, abs=1e-4)


def test_one_sided_random_two_level_agreement():
    rng = np.random.default_rng(7)
    for k in range(6):
        p = (0.0, round(float(rng.uniform(0.5, 3.0)), 3))
        r = round(float(rng.uniform(0.0, 0.9)), 3)
        m = round(float(rng.uniform(0.0, 1.2)), 3)
        vec = (m, round(1.4 - m, 3))
        side = "buyer" if k % 2 == 0 else "seller"
        scan = go.one_sided_saddle_scan(p, side, vec, r, 10.0, step=0.005)
        lib, _ = one_sided_value(PriceGrid(p), side, vec, r)
        assert lib == pytest.approx(scan, abs=1e-4)


def test_one_sided_input_validation():
    g = PriceGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        one_sided_value(g, "third", (0.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        one_sided_value(g, "buyer", (0.0, 1.0), 1.5)
    with pytest.raises(ValueError):
        one_sided_value(g, "buyer", (0.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        one_sided_value(g, "buyer", (0.0, 1.0, 0.0), 0.5)
    # a pinned vector with too little mass certifies nothing
    g3 = PriceGrid((0.0, 0.5, 1.0))
    for side in ("buyer", "seller"):
        for vec in ((0.0, 0.0, 0.0), (0.0, 0.0, 1e-300), (0.0, 0.5, 0.4)):
            with pytest.raises(ValueError):
                one_sided_certify(g3, side, vec)


def test_one_sided_certify_brackets_the_flip():
    g = PriceGrid((0.0, 1.0))
    r = one_sided_certify(g, "buyer", (0.0, 1.0))
    v_at, _ = one_sided_value(g, "buyer", (0.0, 1.0), r)
    assert v_at >= -1e-9
    v_past, _ = one_sided_value(g, "buyer", (0.0, 1.0), min(1.0, r + 1e-3))
    assert v_past < 0.0 or r == 1.0


def test_one_sided_certify_is_the_largest_supported_ratio():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = PriceGrid((0.0, *np.sort(rng.choice(np.arange(1, 400), n - 1,
                                                replace=False)) / 100.0))
        vec = rng.dirichlet(np.ones(n))
        for side in ("buyer", "seller"):
            r = one_sided_certify(g, side, vec)
            assert 0.0 <= r <= 1.0
            v_at, _ = one_sided_value(g, side, vec, r)
            assert v_at >= -1e-9
            v_past, _ = one_sided_value(g, side, vec, min(1.0, r + 1e-6))
            assert v_past < 0.0 or r == 1.0


def test_one_sided_certify_exact_ends():
    # Against a seller pinned at 0, or a buyer pinned at the top level, no
    # price on two levels clears a trade, and the adversary can make the
    # optimum positive, so only r = 0 is supported. A buyer pinned at 0
    # gains nothing from trade, so every ratio holds.
    g = PriceGrid((0.0, 1.0))
    assert one_sided_certify(g, "seller", (1.0, 0.0)) == 0.0
    assert one_sided_certify(g, "buyer", (0.0, 1.0)) == 0.0
    assert one_sided_certify(g, "buyer", (1.0, 0.0)) == 1.0


def test_one_sided_value_adjacent_mass_collapse():
    """A pinned buyer concentrated at one level is worthless to every
    price lottery when the free seller sits at the level just below it:
    no third level separates the pair, so each exclusive row drops the
    trade while the welfare benchmark keeps it. The value then equals
    -r times the buyer mean, exactly. Sparse grids cannot certify a
    positive ratio for such pins; only finer grids split the pair."""
    g = PriceGrid((0.0, 0.5, 1000.0))
    pinned = (0.0, 1.0, 0.0)
    for r in (0.1, 0.4, 0.75):
        value, _ = one_sided_value(g, "buyer", pinned, r)
        assert value == pytest.approx(-0.5 * r, abs=1e-9)


# ------------------------------------------------- bracket and JSON

def test_refining_grid_never_lowers_optimum():
    # Extra levels add welfare rows, and each added row constrains the
    # adversary further. Support gained on the new level never pays off
    # for the minimizer: lower placements already existed. Both bottom
    # insertions here close an adjacency hole and raise the optimum by
    # a large margin; the top insertion leaves it untouched.
    cases = [
        ((0.0, 0.919, 171.8), (0.0, 0.714, 0.919, 171.8)),
        ((0.0, 0.557, 20.1), (0.0, 0.483, 0.557, 20.1)),
        ((0.0, 0.377, 102.4), (0.0, 0.377, 1.119, 102.4)),
    ]
    for base_levels, sup_levels in cases:
        r_base = lowerop_solve(PriceGrid(base_levels), "branch_and_bound",
                               node_budget=30_000).r
        r_sup = lowerop_solve(PriceGrid(sup_levels), "branch_and_bound",
                              node_budget=30_000).r
        assert r_sup >= r_base - 1e-6


def test_bracket_orders_wide_case():
    lo, hi = convergence_bracket(0.5, 2.0, node_budget=2000, restarts=2)
    assert lo <= hi + 1e-9
    assert lo >= 0.0


def test_bracket_validates_arguments():
    with pytest.raises(ValueError):
        convergence_bracket(0.0, 2.0)
    with pytest.raises(ValueError):
        convergence_bracket(0.5, 0.5)
    for args in ((0.1, math.inf), (math.inf, 2.0), (math.nan, 2.0), (0.1, math.nan)):
        with pytest.raises(ValueError):
            convergence_bracket(*args)


def test_certificate_json_round_trip():
    cert = lowerop_solve(PriceGrid((0.0, 1e6)), "branch_and_bound")
    blob = json.dumps(certificate_to_json(cert))
    back = certificate_from_json(json.loads(blob))
    assert back.grid == cert.grid
    assert back.s == cert.s
    assert back.b == cert.b
    assert back.r == cert.r
    assert back.role == cert.role


def test_certificate_json_rejects_garbage():
    with pytest.raises(ValueError):
        certificate_from_json([1, 2, 3])
    with pytest.raises(ValueError):
        certificate_from_json({"role": "lower", "prices": [0.0, 1.0]})
    good = {"role": "lower", "prices": [0.0, 1.0], "s": [1.0, 0.0],
            "b": [0.0, 1.0], "r": 0.5}
    assert certificate_from_json(good).r == 0.5
    for key, bad in (("prices", 5), ("s", None), ("r", None), ("b", [None, 1.0])):
        with pytest.raises(ValueError):
            certificate_from_json({**good, key: bad})


# ------------------------------------ the sixteen-level reference grid

def test_reference_grid_desk_scale_bracket():
    """At sixteen levels the root relaxation alone still yields an
    honest bound pair around the interesting region."""
    cert = lowerop_solve(REFERENCE_GRID_16, "branch_and_bound", node_budget=1)
    info = cert.info
    assert not info.converged
    assert info.lower_bound <= 0.72 + 1e-6 <= cert.r + 2e-2
    assert verify_certificate(cert).feasible
