"""Grid program tests: discretization, certificates, the global solver,
the hardness search, conversions, and the one-sided LPs.

Reference values come from tests/grid_oracles.py, which rebuilds every
expected quantity with plain loops and scipy. Values frozen here were
produced by the named oracle function at the stated arguments.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
import grid_oracles as go
from instance_helpers import scale_instance

from trademech.core import (
    DiscreteDistribution, Instance, Price, best_fixed_price,
    fixed_price_welfare, opt_welfare,
)
import trademech.factor_revealing as fr
from trademech.factor_revealing import (
    CertificateReport, GridCertificate, PriceGrid, REFERENCE_GRID_16,
    _best_alternate, _half_model, _half_step, _node_model, _one_sided_lp,
    _pinned_rows, _set_box, _row_gains,
    certificate_from_json, certificate_to_json,
    discretize_distribution, lowerop_solve, one_sided_certify, one_sided_value,
    opt_quadratic, upperop_search, upperop_to_instance, verify_certificate,
    welfare_rows,
)
from trademech.numkernel import LPSolution


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


def test_grid_cap_is_the_mass_window_top():
    g = PriceGrid((0.0, 0.5, 2.0))
    assert g.cap == 1.5
    assert REFERENCE_GRID_16.cap == 1.0 + 1.0 / 1000.0
    with pytest.raises(AttributeError):
        g.cap = 2.0


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
    p = grid.levels
    mean = d.mean()
    assert np.all(s >= 0.0)
    assert 1.0 - 1e-9 <= s.sum() <= 1.0 + mean / p[-1] + 1e-9
    assert float(s @ p) == pytest.approx(mean, abs=1e-10 * max(1.0, mean))
    prefix = np.cumsum(s)
    for t, level in enumerate(p):
        below = float(d.masses[d.values < level].sum())
        assert prefix[t] >= below - 1e-9


@st.composite
def atoms_on_levels(draw):
    """distribution_and_grid with some atoms moved onto grid levels; tie
    ranks j/4 keep atoms that share a level distinct."""
    d, grid = draw(distribution_and_grid())
    atoms = [(draw(st.sampled_from(grid.prices)) if draw(st.booleans()) else v, j / 4, m)
             for j, (v, _, m) in enumerate(d.atoms)]
    return DiscreteDistribution.from_atoms(atoms), grid


@st.composite
def narrow_cells(draw):
    """distribution_and_grid with a cell 1e-9 to 1e-3 wide opened above
    some levels, and some atoms moved into those cells or onto their ends."""
    d, grid = draw(distribution_and_grid())
    p = list(grid.prices)
    cells = []
    for i, level in enumerate(p):
        w = draw(st.floats(1e-9, 1e-3))
        if draw(st.booleans()) and (i + 1 == len(p) or level + w < p[i + 1]):
            cells.append((level, level + w))
    if not cells:
        cells.append((p[-1], p[-1] + 1e-9))
    atoms = []
    for j, (v, _, m) in enumerate(d.atoms):
        if draw(st.booleans()):
            lo, hi = draw(st.sampled_from(cells))
            v = draw(st.sampled_from((lo, hi, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))))
        atoms.append((v, j / 4, m))
    levels = sorted(set(p).union(hi for _, hi in cells))
    return DiscreteDistribution.from_atoms(atoms), PriceGrid(tuple(levels))


@given(st.one_of(distribution_and_grid(), atoms_on_levels()))
@settings(max_examples=300, deadline=None)
def test_discretize_matches_the_cell_loop(dg):
    d, grid = dg
    assume(np.diff(grid.levels).min() >= 1e-3)
    gap = discretize_distribution(d, grid) - go.loop_discretize(d, grid)
    assert np.max(np.abs(gap)) <= 1e-12


@given(narrow_cells())
@settings(max_examples=300, deadline=None)
def test_discretize_narrow_cells_pass_the_check(dg):
    d, grid = dg
    fr._check_discretization(d, grid, discretize_distribution(d, grid))
    # The loop fails where a narrow cell holds two atoms (next test).
    cell = np.searchsorted(grid.levels, d.values, side="right") - 1
    crowded = (np.bincount(cell, minlength=grid.n)[:-1] > 1) & (np.diff(grid.levels) < 1e-3)
    if not crowded.any():
        fr._check_discretization(d, grid, go.loop_discretize(d, grid))


def test_discretize_clips_the_split_of_a_narrow_cell():
    # Atoms on a 1e-9 cell's low end put no mass on its high end, but q*p_i
    # and E round an ulp apart, which the width blows up to a split of
    # -6e-8 (prefix sums, one atom at 0.828) or -4.4e-7 (the loop, two
    # atoms at 5.0); unclipped, the sub-top mass tops one.
    d = dist((0.7477810477265509, 0.5), (0.8282578782902978, 0.5))
    grid = PriceGrid((0.0, 0.5, 0.8282578782902978, 0.8282578792902978))
    assert np.allclose(discretize_distribution(d, grid), go.loop_discretize(d, grid), atol=1e-12)
    d = DiscreteDistribution.from_atoms(((3.0, 0.5, 0.4), (5.0, 0.0, 0.4), (5.0, 0.25, 0.2)))
    grid = PriceGrid((0.0, 1.0, 5.0, 5.000000001))
    assert np.allclose(discretize_distribution(d, grid), [0.0, 0.2, 0.8, 0.0], atol=1e-12)
    with pytest.raises(AssertionError, match="mass below the top level exceeds one"):
        fr._check_discretization(d, grid, go.loop_discretize(d, grid))


# --------------------------------------------------------- verification

def test_verify_rejects_failed_optimum_constraint():
    c = GridCertificate(PriceGrid((0.0, 1.0)), (1.0, 0.0), (1.0, 0.0), 0.0,
                        "lower")
    rep = verify_certificate(c)
    assert not rep.feasible
    assert rep.mass_slacks["opt"] == pytest.approx(-1.0)


@pytest.mark.parametrize("role, keys", [
    ("lower", ["sum_s_low", "sum_s_high", "sum_b_low", "sum_b_high"]),
    ("upper", ["sum_s_eq", "sum_b_eq"])])
def test_mass_slacks_keep_their_keys_in_order(role, keys):
    c = GridCertificate(PriceGrid((0.0, 0.5, 2.0)), (0.5, 0.5, 0.0), (0.0, 0.5, 0.5),
                        0.5, role)
    assert list(verify_certificate(c).mass_slacks) == keys + ["nonneg", "opt"]


def test_mass_window_met_exactly_reports_positive_zero():
    # s sums to exactly cap = 1.5, so the window's top row has zero slack
    c = GridCertificate(PriceGrid((0.0, 0.5, 2.0)), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5),
                        0.5, "lower")
    slack = verify_certificate(c).mass_slacks["sum_s_high"]
    assert math.copysign(1.0, slack) == 1.0 and slack == 0.0


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
    assert list(back) == [f.name for f in dataclasses.fields(CertificateReport)]
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
    {"node_budget": float("nan")}, {"node_budget": 2.5},
], ids=["gap_negative", "gap_nan", "budget_zero", "budget_negative",
        "budget_nan", "budget_fraction"])
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
    inv = 1.0 / (1.0 + g.levels)
    starts = [np.full(4, 0.25), inv / inv.sum(), np.array([0.5, 0.5, 0.0, 0.0])]
    _, _, _, iters, stalled = _best_alternate(_half_model(g, "lower"), starts, 2)
    assert (iters, stalled) == (4, True)


def test_lowerop_bounds_a_25_level_grid():
    levels = (0.0,) + tuple(0.1 * k for k in range(1, 24)) + (1000.0,)
    cert = lowerop_solve(PriceGrid(levels), "branch_and_bound", node_budget=1)
    assert 0.0 <= cert.info.lower_bound <= cert.r
    assert verify_certificate(cert).feasible


@pytest.mark.parametrize("prices", [
    (0.0, 0.777, 0.813, 0.904, 1000.0), (0.0, 0.2, 0.5, 1.5, 4.0),
])
def test_lowerop_converges_to_a_feasible_certificate(prices):
    """Incumbents come from the seller half-step, never from a relaxation
    point, so a mass a rounding error below zero cannot reach the
    certificate; these grids once crashed or stalled on that."""
    cert = lowerop_solve(PriceGrid(prices))
    assert cert.info.converged
    assert cert.info.lower_bound <= cert.r
    assert verify_certificate(cert).feasible


def _held_lp(model):
    """The matrix, row bounds and column bounds a model hands to HiGHS."""
    lp = model._pass().highs.getLp()
    a = lp.a_matrix_
    A = np.zeros((lp.num_row_, lp.num_col_))
    cols = np.repeat(np.arange(lp.num_col_), np.diff(a.start_))
    A[np.asarray(a.index_), cols] = a.value_
    return A, lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_


def _dense_node_lp(grid, lo, hi):
    """The node LP over the buyer box lo <= b <= hi, entry by entry, in
    _held_lp's form: variables (s, b, z, r) with z_ij at 2n + i*n + j; the
    mass windows, the optimum, the exclusive welfare rows; z_ij against the
    plane through each McCormick corner (s_end, b_end) of _CORNERS; the
    aggregates of z's rows and columns; s in [0, cap], b in the box and
    z_ij in [0, cap * hi_j]."""
    p, n, cap = grid.prices, grid.n, grid.cap
    S, B, Z, R = range(n), range(n, 2 * n), 2 * n, 2 * n + n * n
    rows, row_lo, row_hi = [], [], []

    def row(entries, rel, rhs):
        a = np.zeros(R + 1)
        for col, v in entries:
            a[col] += v
        rows.append(a)
        row_lo.append(-np.inf if rel == "<=" else rhs)
        row_hi.append(np.inf if rel == ">=" else rhs)

    for side in (S, B):
        row([(k, 1.0) for k in side], ">=", 1.0)
        row([(k, 1.0) for k in side], "<=", cap)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    row([(Z + i * n + j, max(p[i], p[j])) for i, j in pairs], ">=", 1.0)
    for t in range(n):
        row([(S[i], p[i]) for i in range(n)] + [(R, -1.0)]
            + [(Z + i * n + j, p[j] - p[i]) for i, j in pairs if i < t < j], "<=", 0.0)
    for top, upper, rel in fr._CORNERS:
        s_end = cap if top else 0.0
        for i, j in pairs:
            b_end = hi[j] if upper else lo[j]
            row([(Z + i * n + j, 1.0), (S[i], -b_end), (B[j], -s_end)], rel,
                -s_end * b_end)
    window = (min(cap, hi.sum()), max(1.0, lo.sum()))
    for end, rel in zip(window, ("<=", ">=")):
        for i in range(n):
            row([(Z + i * n + j, 1.0) for j in range(n)] + [(S[i], -end)], rel, 0.0)
    for end, rel in ((cap, "<="), (1.0, ">=")):
        for j in range(n):
            row([(Z + i * n + j, 1.0) for i in range(n)] + [(B[j], -end)], rel, 0.0)
    col_lo = np.concatenate([np.zeros(n), lo, np.zeros(n * n + 1)])
    col_hi = np.concatenate([np.full(n, cap), hi, np.tile(cap * hi, n), [np.inf]])
    return np.array(rows), row_lo, row_hi, col_lo, col_hi


@pytest.mark.parametrize("prices", [(0.0, 0.5, 1000.0), (0.0, 0.3, 0.7, 2.0)])
def test_box_rows_contain_every_true_point(prices):
    """Every point of the program inside a buyer box, with s anywhere in
    its window and z = s b^T, satisfies every envelope and aggregate row
    and every column bound the model holds once that box is written, so
    no branch cuts off a true point."""
    grid = PriceGrid(prices)
    n = grid.n
    first = n + 5                   # the static rows come first
    plan = _node_model(grid)
    rng = np.random.default_rng(41)
    for _ in range(200):
        # a point in the mass windows, then a random buyer box around b,
        # with about a third of the lower bounds at 0
        s, b = (rng.dirichlet(np.ones(n)) * rng.uniform(1.0, grid.cap) for _ in range(2))
        lb = b * rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
        ub = b + rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.7)
        _set_box(plan, lb, ub)
        A, row_lo, row_hi, col_lo, col_hi = _held_lp(plan[0])
        assert len(A) - first == 4 * n * n + 4 * n
        x = np.concatenate([s, b, np.outer(s, b).ravel(), [0.0]])
        lhs = A[first:] @ x
        assert np.all(lhs >= np.asarray(row_lo[first:]) - 1e-12)
        assert np.all(lhs <= np.asarray(row_hi[first:]) + 1e-12)
        assert np.all(x >= np.asarray(col_lo) - 1e-12)
        assert np.all(x <= np.asarray(col_hi) + 1e-12)


@pytest.mark.parametrize("prices", [(0.0, 0.3, 0.7, 2.0), REFERENCE_GRID_16.prices])
def test_box_edits_equal_a_fresh_node_lp(prices):
    """After any sequence of box writes, the root's first, then splits
    and jumps between unrelated boxes alike, the model holds exactly the
    node LP of a fresh model written once with that box, and of the dense
    reference: every matrix entry, row bound and column bound."""
    grid = PriceGrid(prices)
    n = grid.n
    rng = np.random.default_rng(7)
    plan = _node_model(grid)
    lo, hi = np.zeros(n), np.full(n, grid.cap)
    boxes = []
    for step in range(26):
        if step % 5 == 4:
            lo, hi = (v.copy() for v in boxes[int(rng.integers(len(boxes)))])
        elif step:
            lo, hi = lo.copy(), hi.copy()
            for j in rng.choice(n, int(rng.integers(1, 3)), replace=False):
                cut = rng.uniform(lo[j], hi[j])
                if rng.random() < 0.5:
                    lo[j] = cut if rng.random() < 0.8 else 0.0
                else:
                    hi[j] = cut
        _set_box(plan, lo, hi)
        boxes.append((lo, hi))
        fresh = _node_model(grid)
        _set_box(fresh, lo, hi)
        for got, want, ref in zip(_held_lp(plan[0]), _held_lp(fresh[0]),
                                  _dense_node_lp(grid, lo, hi)):
            assert np.array_equal(got, want)
            assert np.array_equal(got, ref)
    # the first welfare row's zero on s_0 (p_0 = 0) is no entry of the
    # matrix, so no slot names it
    with pytest.raises(ValueError):
        plan[0].slots([5], [0])


@pytest.mark.parametrize("role", ["lower", "upper"])
@pytest.mark.parametrize("free", ["s", "b", "sb"])
def test_half_step_edits_equal_a_fresh_half_step(free, role):
    """A half-step model edited through its slots holds exactly the LP a
    fresh build at the same fixed masses gives, after any sequence of
    fixed vectors, zeros included, also when the free side alternates
    ("sb"), as in a descent, whose two sides share one model."""
    grid = PriceGrid((0.0, 0.2, 0.5, 1.5, 4.0))
    rng = np.random.default_rng(13)
    plan = _half_model(grid, role)
    for k in range(8):
        side = free[k % len(free)]
        fixed = rng.dirichlet(np.ones(grid.n)) * (rng.random(grid.n) < 0.7)
        fixed[-1] += 1.0 - fixed.sum()
        got = _half_step(plan, fixed, side)
        fresh = _half_model(grid, role)
        want = _half_step(fresh, fixed, side)
        for g, w in zip(_held_lp(plan[1]), _held_lp(fresh[1])):
            assert np.array_equal(g, w)
        assert got.value == want.value


def test_iteration_limited_child_keeps_its_parents_bound(monkeypatch):
    """A child LP that stops at the iteration limit is set aside with its
    parent's bound, not dropped: with either child of the root cut short,
    the reported bound is the root's, below the converged bound."""
    grid = PriceGrid((0.0, 0.2, 0.5, 1.5, 4.0))
    n = grid.n
    converged = lowerop_solve(grid)
    plan = _node_model(grid)
    _set_box(plan, np.zeros(n), np.full(n, grid.cap))
    root = fr.lp_solve(plan[0]).value
    assert converged.info.converged
    assert root < converged.info.lower_bound - 1e-3
    real_set, real_solve = fr._set_box, fr.lp_solve
    # the first box written is the root's, the next two its children's
    for victim in (2, 3):
        children = []

        def set_box(*args):
            children.append(True)
            real_set(*args)

        def limited(prob, basis=None):
            # a child's solve comes right after its box is written
            if children and children[-1] is True:
                children[-1] = False
                if len(children) == victim:
                    return LPSolution(status="iteration_limit", iterations=20_000)
            return real_solve(prob, basis)

        monkeypatch.setattr(fr, "_set_box", set_box)
        monkeypatch.setattr(fr, "lp_solve", limited)
        cert = lowerop_solve(grid)
        monkeypatch.undo()
        assert len(children) > victim
        assert cert.info.lower_bound == root
        assert not cert.info.converged
        assert verify_certificate(cert).feasible


def test_half_step_that_is_not_optimal_raises(monkeypatch):
    monkeypatch.setattr(fr, "lp_solve",
                        lambda model, basis=None: LPSolution(status="infeasible"))
    with pytest.raises(RuntimeError, match="^half step LP came back infeasible$"):
        lowerop_solve(PriceGrid((0.0, 0.5, 2.0)), "alternating")


@pytest.mark.parametrize("solve", [
    lambda: lowerop_solve(PriceGrid((0.0, 0.2, 0.5, 1.5, 4.0))),
    lambda: lowerop_solve(REFERENCE_GRID_16, node_budget=30),
    lambda: lowerop_solve(REFERENCE_GRID_16, "alternating"),
    lambda: upperop_search(PriceGrid((0.0, 0.3, 0.7, 1.4)), restarts=4, seed=3),
], ids=["bnb", "bnb16", "alternating16", "upper"])
def test_solves_repeat_exactly(solve):
    """No solve sees the state of an earlier one: two calls in a row
    return the same certificate and the same info, simplex iteration
    counts included."""
    a, b = solve(), solve()
    assert a == b
    assert a.info == b.info
    assert a.info.lp_iterations > 0


@pytest.mark.parametrize("solve", [
    lambda: lowerop_solve(PriceGrid((0.0, 0.2, 0.5, 1.5, 4.0))),
    lambda: lowerop_solve(PriceGrid((0.0, 0.2, 0.5, 1.5, 4.0)), "alternating"),
    lambda: upperop_search(PriceGrid((0.0, 0.3, 0.7, 1.4)), restarts=4, seed=3),
], ids=["bnb", "alternating", "upper"])
def test_lp_solves_counts_every_lp(solve, monkeypatch):
    pivots = []
    real = fr.lp_solve

    def counted(prob, basis=None):
        sol = real(prob, basis)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(fr, "lp_solve", counted)
    info = solve().info
    assert info.lp_solves == len(pivots) > 0
    assert info.lp_iterations == sum(pivots) > 0


# The benchmark's lower_bnb grids with their gap_tol, and per grid r,
# lower_bound, s, b and (nodes, lp_solves, lp_iterations), frozen bit for
# bit: a change to how the LPs are set up or handed to HiGHS must not
# move them.
PINNED_BNB = [
    ((0.0, 0.3, 1000.0), 0.001, 0.3, 0.3, (-0.0, 1.0, 0.0),
     (0.0, 0.9992997899369811, 0.0007002100630189056), (11, 27, 87)),
    ((0.0, 0.35, 1000.0), 0.002, 0.35, 0.35, (-0.0, 1.0, 0.0),
     (0.0, 0.9993497724203472, 0.0006502275796528785), (11, 27, 87)),
    ((0.0, 0.4, 1000.0), 0.002, 0.4, 0.4, (-0.0, 1.0, 0.0),
     (0.0, 0.9993997599039616, 0.0006002400960384153), (11, 27, 87)),
    ((0.0, 0.45, 1000.0), 0.003, 0.45, 0.45, (-0.0, 1.0, 0.0),
     (0.0, 0.9994497523885748, 0.0005502476114251413), (11, 27, 85)),
    ((0.0, 0.6, 1000.0), 0.005, 0.39864018311086524, 0.39864018311086524,
     (1.000601359816889, 0.0, 0.00039864018311086525),
     (0.0, 1.0010000000000003, 0.0), (11, 36, 104)),
    ((0.0, 0.4, 1.0, 1000.0), 0.02, 0.3999999999999999, 0.39999999999999986,
     (-0.0, 0.9999999999999998, 0.0, 0.0), (0.0, 0.0, 1.0000000000000002, 0.0),
     (13, 31, 154)),
]


@pytest.mark.parametrize("levels, gap, r, lower, s, b, counts", PINNED_BNB)
def test_branch_and_bound_outputs_are_pinned(levels, gap, r, lower, s, b, counts):
    cert = lowerop_solve(PriceGrid(levels), gap_tol=gap)
    info = cert.info
    assert (cert.r, info.lower_bound, cert.s, cert.b) == (r, lower, s, b)
    assert (info.nodes, info.lp_solves, info.lp_iterations) == counts


def test_upper_search_outputs_are_pinned():
    cert = upperop_search(REFERENCE_GRID_16, 64, seed=1)
    assert cert.r == 0.7645529844263679
    assert (cert.info.lp_solves, cert.info.lp_iterations) == (320, 2212)


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
    for restarts in (0, -3, 2.5, float("nan")):
        with pytest.raises(ValueError):
            upperop_search(g, restarts=restarts)


def test_stopping_rules_take_numpy_integers():
    g = PriceGrid((0.0, 0.3, 1000.0))
    a, b = lowerop_solve(g, node_budget=np.int64(5)), lowerop_solve(g, node_budget=5)
    assert (a, a.info) == (b, b.info)
    g = PriceGrid((0.0, 0.5, 1.0))
    a, b = upperop_search(g, restarts=np.int32(2)), upperop_search(g, restarts=2)
    assert (a, a.info) == (b, b.info)


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


def test_conversion_drops_masses_a_rounding_error_below_zero():
    """verify_certificate lets a mass lie in [-1e-9, 0); the conversion
    drops it and scales the kept masses by their own sum."""
    cert = upperop_search(PriceGrid((0.0, 0.5, 1.0, 2.0)), 4, seed=0)
    s = list(cert.s)
    assert s[3] == 0.0
    s[3] -= 1e-10
    s[1] += 1e-10
    moved = GridCertificate(cert.grid, tuple(s), cert.b, cert.r, "upper")
    report = verify_certificate(moved)
    assert report.feasible and report.r_tight
    seller = upperop_to_instance(moved).seller
    assert [v for v, _, _ in seller.atoms] == [0.0, 0.5, 1.0]
    assert math.fsum(m for _, _, m in seller.atoms) == pytest.approx(1.0, abs=1e-15)


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


def test_one_sided_multipliers_come_from_the_window_rows():
    # columns: sub-top mass <= 1, total >= 1, top mass <= 10
    cons, margin, _ = _one_sided_lp(PriceGrid((0.0, 0.5, 2.0)), "buyer", (0.2, 0.3, 0.5))
    duals = cons[0][0][:, 3:6]
    assert duals.tolist() == [[-1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]
    assert margin.tolist() == [0.0, 0.0, 0.0, -1.0, 1.0, -10.0, 0.0]


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


def test_one_sided_buyer_ratio_ignores_the_mass_window():
    """With the buyer pinned the adversary condition is homogeneous in
    the seller masses and the window holds every unit vector, so neither
    the window nor its top-mass literal changes the ratio: it is the
    plain LP of go.one_sided_buyer_ratio. The seller side keeps a constant
    term, so its window matters, and it is not compared here."""
    rng = np.random.default_rng(20)
    grids = ((0.0, 0.5, 2.0), (0.0, 0.3, 1000.0), (0.0, 0.4, 1.0, 1000.0),
             (0.0, 0.2, 0.5, 1.5, 4.0), REFERENCE_GRID_16.prices)
    for levels in grids:
        for _ in range(24):
            b = rng.dirichlet(np.ones(len(levels))) * rng.uniform(1.0, 1.2)
            assert one_sided_certify(PriceGrid(levels), "buyer", b) == pytest.approx(
                go.one_sided_buyer_ratio(levels, b), abs=1e-9)
    hard = upperop_search(REFERENCE_GRID_16, 64, seed=1)
    r = one_sided_certify(REFERENCE_GRID_16, "buyer", hard.b)
    assert r == pytest.approx(go.one_sided_buyer_ratio(REFERENCE_GRID_16.prices, hard.b),
                              abs=1e-9)
    assert r == pytest.approx(0.737858, abs=1e-6)


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


# ------------------------------------------------- refinement and JSON

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
    # strings are sequences of characters, not JSON arrays
    with pytest.raises(ValueError, match="numbers and lists"):
        certificate_from_json(json.loads(
            '{"role": "upper", "prices": "12", "s": "10", "b": "01", "r": 1}'))
    # numeric strings and booleans are not JSON numbers; integers are
    with pytest.raises(ValueError, match="must be numbers"):
        certificate_from_json(json.loads(
            '{"role": "lower", "prices": ["0", "1"], "s": ["1", "0"],'
            ' "b": [0.0, true], "r": "0.5"}'))
    assert certificate_from_json({**good, "s": [1, 0], "r": 1}).s == (1.0, 0.0)


# ------------------------------------ the sixteen-level reference grid

def test_reference_grid_desk_scale_bracket():
    """At sixteen levels the root relaxation alone still yields an
    honest bound pair around the interesting region."""
    cert = lowerop_solve(REFERENCE_GRID_16, "branch_and_bound", node_budget=1)
    info = cert.info
    assert not info.converged
    assert info.lower_bound <= 0.72 + 1e-6 <= cert.r + 2e-2
    assert verify_certificate(cert).feasible


def test_reference_grid_bound_after_100_nodes():
    """Buyer-only branching lifts the sixteen-level bound past 0.55 within
    a hundred nodes."""
    cert = lowerop_solve(REFERENCE_GRID_16, "branch_and_bound", node_budget=100)
    info = cert.info
    assert info.lower_bound >= 0.55
    assert verify_certificate(cert).feasible
    # frozen bit for bit, like PINNED_BNB
    assert (info.lower_bound, info.upper_bound, info.nodes, info.lp_solves,
            info.lp_iterations) == (0.6134461004355675, 0.7435239586553786, 99, 163, 6446)


def test_one_sided_certify_on_the_upper_witness_is_pinned():
    cert = upperop_search(REFERENCE_GRID_16, 64, seed=1)
    assert one_sided_certify(cert.grid, "buyer", cert.b) == 0.7378576697411143
    assert one_sided_certify(cert.grid, "seller", cert.s) == 0.7194924630440118
