import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import trademech
from trademech.numkernel import LPModel, LPSolution, lp_problem, lp_solve

DATA = Path(__file__).parent / "data"


def test_single_variable_max():
    sol = lp_solve(lp_problem([1.0], [([1.0], "<=", 3.0)], sense="max"))
    assert sol.status == "optimal"
    assert sol.optimal("max LP") is sol
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.value == pytest.approx(3.0)


def test_min_sum_with_floor():
    sol = lp_solve(lp_problem([1.0, 1.0], [([1.0, 1.0], ">=", 1.0)]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0)


def test_infeasible():
    sol = lp_solve(lp_problem([1.0], [([1.0], "<=", -1.0), ([1.0], ">=", 1.0)]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = lp_solve(lp_problem([1.0], [([1.0], ">=", 1.0)], sense="max"))
    assert sol.status == "unbounded"


@pytest.mark.parametrize("status", ["infeasible", "unbounded", "iteration_limit"])
def test_optimal_raises_naming_the_status(status):
    with pytest.raises(RuntimeError, match=f"^test LP came back {status}$"):
        LPSolution(status=status).optimal("test LP")


def test_equality_and_negative_rhs():
    # x - y = -2, x + y <= 6, min -x - 2y  -> x=2, y=4
    sol = lp_solve(lp_problem([-1.0, -2.0],
                              [([1.0, -1.0], "=", -2.0),
                               ([1.0, 1.0], "<=", 6.0)]))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 4.0])
    assert sol.value == pytest.approx(-10.0)


def test_general_bounds():
    sol = lp_solve(lp_problem([1.0, -1.0], [([1.0, 1.0], "<=", 10.0)],
                              bounds=[(-2.0, 5.0), (None, 3.0)]))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([-2.0, 3.0])
    assert sol.value == pytest.approx(-5.0)


def test_free_variable():
    # min y s.t. y >= x - 1, y >= 1 - x, x in [0, 2] free to move
    sol = lp_solve(lp_problem([0.0, 1.0],
                              [([-1.0, 1.0], ">=", -1.0),
                               ([1.0, 1.0], ">=", 1.0)],
                              bounds=[(None, None), (None, None)]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def _scipy_check(c, cons, bounds, sense):
    sgn = 1.0 if sense == "min" else -1.0
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, rhs in cons:
        if rel == "<=":
            A_ub.append(row); b_ub.append(rhs)
        elif rel == ">=":
            A_ub.append([-a for a in row]); b_ub.append(-rhs)
        else:
            A_eq.append(row); b_eq.append(rhs)
    res = linprog(sgn * np.array(c),
                  A_ub=np.array(A_ub) if A_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs")
    return res


@pytest.mark.parametrize("seed", range(30))
def test_random_lps_match_scipy(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 7)
    m = rng.integers(1, 6)
    c = rng.uniform(-2, 2, n)
    cons = []
    for _ in range(m):
        row = rng.uniform(-1, 1, n)
        rel = ["<=", ">=", "="][rng.integers(0, 3)]
        cons.append((list(row), rel, float(rng.uniform(-1, 2))))
    # keep feasible region bounded so statuses are easy to compare
    bounds = [(0.0, 10.0)] * int(n)
    sense = "max" if rng.integers(0, 2) else "min"
    prob = lp_problem(list(c), cons, bounds=bounds, sense=sense)
    sol = lp_solve(prob)
    # The same rows as one 2-D block per relation give the same answer,
    # with the duals in block order
    order = [k for rel in ("<=", ">=", "=") for k in range(m) if cons[k][1] == rel]
    blocks = [(np.array([cons[k][0] for k in order if cons[k][1] == rel]).reshape(-1, n),
               rel, [cons[k][2] for k in order if cons[k][1] == rel])
              for rel in ("<=", ">=", "=")]
    by_block = lp_solve(lp_problem(c, blocks, bounds=bounds, sense=sense))
    assert by_block.status == sol.status
    ref = _scipy_check(list(c), cons, bounds, sense)
    if ref.status == 2:
        assert sol.status == "infeasible"
        return
    assert ref.status == 0 and sol.status == "optimal"
    want = ref.fun if sense == "min" else -ref.fun
    assert sol.value == pytest.approx(want, abs=1e-7)
    # Optimality without reference to scipy: x is feasible, each dual has
    # the sign its relation and the sense call for and sits on a tight
    # row, and the reduced costs c - A^T dual have the signs the bounds
    # call for, so x and the duals certify each other
    sgn = 1.0 if sense == "min" else -1.0
    for (row, rel, rhs), y in zip(cons, sol.dual):
        lhs = float(np.array(row) @ sol.x)
        if rel == "<=":
            assert lhs <= rhs + 1e-9
            assert sgn * y <= 1e-9
        elif rel == ">=":
            assert lhs >= rhs - 1e-9
            assert sgn * y >= -1e-9
        else:
            assert lhs == pytest.approx(rhs, abs=1e-9)
        if abs(y) > 1e-9:
            assert lhs == pytest.approx(rhs, abs=1e-9)
    reduced = sgn * (c - np.array([row for row, _, _ in cons]).T @ sol.dual)
    assert np.all(reduced[sol.x > 1e-9] <= 1e-7)
    assert np.all(reduced[sol.x < 10.0 - 1e-9] >= -1e-7)
    assert by_block.x == pytest.approx(sol.x, abs=1e-9)
    assert by_block.value == pytest.approx(sol.value, abs=1e-9)
    assert by_block.dual == pytest.approx(sol.dual[order], abs=1e-9)


@pytest.mark.parametrize("field", ["objective", "row", "rhs", "bounds"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_rejected(field, bad):
    c, row, rhs, bounds = [1.0, 1.0], [1.0, 1.0], 1.0, [(0.0, 2.0), (None, 3.0)]
    if field == "objective":
        c = [bad, 1.0]
    elif field == "row":
        row = [1.0, bad]
    elif field == "rhs":
        rhs = bad
    elif np.isnan(bad):
        bounds = [(0.0, bad), (None, 3.0)]
    else:
        bounds = [(bad, 2.0), (None, 3.0)]      # +inf is no lower bound
    with pytest.raises(ValueError):
        lp_problem(c, [(row, ">=", rhs)], bounds=bounds)


@pytest.mark.parametrize("seed", range(20))
def test_strong_duality_default_bounds(seed):
    # with x >= 0 bounds and no shifts, value must equal dual @ rhs
    rng = np.random.default_rng(100 + seed)
    n, m = 5, 4
    x_feas = rng.uniform(0, 1, n)
    A = rng.uniform(-1, 1, (m, n))
    b = A @ x_feas + rng.uniform(0.1, 1, m)   # strictly feasible
    c = rng.uniform(0.1, 1, n)
    cons = [(list(A[i]), "<=", float(b[i])) for i in range(m)]
    cons.append(([1.0] * n, "<=", 50.0))      # keep it bounded
    sol = lp_solve(lp_problem(list(c), cons, sense="max"))
    assert sol.status == "optimal"
    rhs = np.append(b, 50.0)
    assert sol.value == pytest.approx(float(sol.dual @ rhs), abs=1e-7)
    # max problem, <= rows: shadow prices nonnegative
    assert np.all(sol.dual >= -1e-9)


def test_dual_signs_min_problem():
    # min 2x + 3y, x + y >= 4, x <= 10: the >= row binds with positive dual
    sol = lp_solve(lp_problem([2.0, 3.0],
                              [([1.0, 1.0], ">=", 4.0),
                               ([1.0, 0.0], "<=", 10.0)]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(8.0)
    assert sol.dual[0] == pytest.approx(2.0)
    assert sol.dual[1] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_lp_does_not_cycle():
    # Beale's cycling example; optimum is -1/20
    c = [-0.75, 150.0, -0.02, 6.0]
    cons = [([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0),
            ([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "<=", 1.0)]
    sol = lp_solve(lp_problem(c, cons))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-0.05, abs=1e-9)
    ref = _scipy_check(c, cons, [(0, None)] * 4, "min")
    assert sol.value == pytest.approx(ref.fun, abs=1e-9)


def test_cycling_node_lp_stops_at_the_iteration_limit():
    """A 16-level node LP of the lower program (885 rows, 289 columns), in
    the row order it had when the (0, lo_j) envelope rows with lo_j = 0
    were left out. The dual simplex circles at the value 0.62587279444
    for good (over 92,000 iterations in 5 s); the same rows with the
    '<=' rows first solve in 300 iterations. The iteration limit turns
    the spin into a status the callers handle."""
    sol = lp_solve(_cycling_node_lp())
    assert sol.status == "iteration_limit"
    assert sol.x is None and sol.basis is None
    assert sol.iterations > 907


def _cycling_node_lp():
    d = np.load(DATA / "cycling_node_lp.npz")
    A = np.zeros(tuple(d["shape"]))
    A[d["rows"], d["cols"]] = d["vals"]
    return LPModel(d["c"], A, d["rel"], d["rhs"], d["lo"], d["hi"])


def test_models_count_their_solves_whatever_the_status():
    """A model's solves and iterations add up every solve run on it:
    optimal, infeasible, unbounded and stopped at the iteration limit."""
    cases = [
        (lp_problem([1.0, 1.0], [([1.0, 2.0], ">=", 2.0), ([3.0, 1.0], ">=", 3.0)]),
         "optimal"),
        (lp_problem([1.0], [([1.0], "<=", -1.0), ([1.0], ">=", 1.0)]), "infeasible"),
        (lp_problem([1.0], [([1.0], ">=", 1.0)], sense="max"), "unbounded"),
        (_cycling_node_lp(), "iteration_limit"),
    ]
    for model, status in cases:
        assert (model.solves, model.iterations) == (0, 0)
        sol = lp_solve(model)
        assert sol.status == status
        assert (model.solves, model.iterations) == (1, sol.iterations)
    optimal = cases[0][0]
    again = lp_solve(optimal)
    assert (optimal.solves, optimal.iterations) == (2, 2 * again.iterations)
    assert again.iterations > 0
    assert cases[-1][0].iterations > 907


def test_optimal_basis_restarts_without_pivots():
    prob = lp_problem([2.0, 3.0, 1.0], [([1.0, 1.0, 1.0], ">=", 4.0),
                                        ([1.0, -1.0, 2.0], "<=", 3.0),
                                        ([0.0, 1.0, 1.0], ">=", 1.0)])
    cold = lp_solve(prob)
    warm = lp_solve(prob, cold.basis)
    assert cold.iterations > 0
    assert warm.iterations == 0
    assert warm.value == cold.value
    assert np.array_equal(warm.x, cold.x)


def test_shared_solver_keeps_models_apart():
    """Every solve goes through one HiGHS solver object. Interleaved with
    solves of models of other shapes, a cold solve of a model repeats
    that model's first cold solve, solution and iteration count alike,
    and a warm start from a basis repeats the first solve from that
    basis."""
    rng = np.random.default_rng(5)

    def model(n, m):
        A = rng.uniform(0.1, 1.0, (m, n))
        return lp_problem(rng.uniform(1.0, 2.0, n), [(A, ">=", 1.0)])

    models = [model(4, 3), model(7, 5)]
    cold = [lp_solve(m) for m in models]
    warm = [lp_solve(m, c.basis) for m, c in zip(models, cold)]
    other = lp_problem([1.0, -1.0], [([1.0, 1.0], "<=", 2.0)], sense="max")
    for _ in range(3):
        for m, want_cold, want_warm in zip(models, cold, warm):
            assert lp_solve(other).status == "optimal"
            # each cold solve follows a warm one of its model, so a basis
            # left behind in the solver would show in its iteration count
            for got, want in ((lp_solve(m, want_cold.basis), want_warm),
                              (lp_solve(m), want_cold)):
                assert got.iterations == want.iterations
                assert np.array_equal(got.x, want.x)
                assert got.value == want.value
    assert cold[0].iterations > 0 and warm[0].iterations == 0


@pytest.mark.parametrize("seed", range(20))
def test_model_edits_match_a_fresh_solve(seed):
    """Bound, coefficient and rhs edits to an LPModel, on the entries it
    was built with, including entries that go to zero and come back,
    solve like a fresh LP of the edited data, from the slack basis and
    from the last basis alike."""
    rng = np.random.default_rng(300 + seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    c = rng.uniform(-2, 2, n)
    A = rng.uniform(-1, 1, (m, n)) * (rng.random((m, n)) < 0.7)
    rels = [["<=", ">=", "="][k] for k in rng.integers(0, 3, m)]
    rhs = rng.uniform(-1, 2, m)
    lo, hi = np.zeros(n), np.full(n, 10.0)
    sense = "max" if rng.integers(0, 2) else "min"

    def fresh():
        return lp_problem(c, [(A[k], rels[k], rhs[k]) for k in range(m)],
                          bounds=np.column_stack([lo, hi]), sense=sense)

    model = fresh()
    held = np.flatnonzero(A)        # the model's entries, as row * n + col
    basis = None
    for _ in range(4):
        rows, cols = np.divmod(rng.choice(held, min(3, held.size), replace=False), n)
        values = rng.uniform(-1, 1, rows.size) * (rng.random(rows.size) < 0.7)
        A[rows, cols] = values
        model.set_values(model.slots(rows, cols), values)
        k = int(rng.integers(0, m))
        rhs[k] = rng.uniform(-1, 2)
        model.set_rhs([k], rhs[k])
        j = int(rng.integers(0, n))
        lo[j], hi[j] = sorted(rng.uniform(0, 10, 2))
        model.set_bounds([j], lo[j], hi[j])
        want = lp_solve(fresh())
        for got in (lp_solve(model, basis), lp_solve(model)):
            assert got.status == want.status
            if want.status == "optimal":
                assert got.value == pytest.approx(want.value, abs=1e-7)
                assert np.all(A @ got.x <= np.where(np.array(rels) == ">=", np.inf, rhs) + 1e-7)
                assert np.all(A @ got.x >= np.where(np.array(rels) == "<=", -np.inf, rhs) - 1e-7)
                basis = got.basis


def test_model_edits_reject_bad_values():
    model = lp_problem([1.0, 1.0], [([1.0, 1.0], ">=", 1.0)])
    with pytest.raises(ValueError):
        model.set_values(model.slots([0], [0]), [float("nan")])
    with pytest.raises(IndexError):
        model.slots([1], [0])
    with pytest.raises(ValueError):
        model.set_rhs([0], float("inf"))
    for lo, hi in ((float("nan"), 1.0), (0.0, float("nan")),
                   (float("inf"), float("inf")), (-float("inf"), -float("inf"))):
        with pytest.raises(ValueError):
            model.set_bounds([0], lo, hi)
    model.set_bounds([0, 1], -float("inf"), float("inf"))


def test_slots_on_a_matrix_without_entries():
    """Slots name only entries the built matrix holds: on a matrix without
    any, every slot raises ValueError, and the model's other edits solve
    like a fresh LP of the edited data."""
    model = lp_problem([1.0, 1.0], [([0.0, 0.0], ">=", -1.0)])
    for rows, cols in (([0], [0]), ([0, 0], [1, 1])):
        with pytest.raises(ValueError):
            model.slots(rows, cols)
    model.set_rhs([0], -2.0)
    model.set_bounds([0], 1.0, 3.0)
    assert lp_solve(model).value == pytest.approx(1.0)


def _python(code, *path):
    """Run code in a fresh interpreter that imports trademech from this
    tree, with the directories in path searched first."""
    src = str(Path(trademech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), src]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_scipy_optimize_imports_after_lp_solve():
    # lp_solve loads HiGHS alone; scipy.optimize must still import and
    # solve afterwards in the same process
    out = _python(
        "import sys\n"
        "from trademech.numkernel import lp_problem, lp_solve\n"
        "sol = lp_solve(lp_problem([1.0], [([1.0], '>=', 2.0)]))\n"
        "print('scipy.optimize' in sys.modules)\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([1.0], A_ub=[[-1.0]], b_ub=[-2.0])\n"
        "print(sol.value, res.fun)\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "2.0", "2.0"]


def test_missing_highs_extension_raises_import_error(tmp_path):
    # a scipy package without the HiGHS extension comes first on the path
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = _python(
        "from trademech.numkernel import lp_problem, lp_solve\n"
        "try:\n"
        "    lp_solve(lp_problem([1.0], [([1.0], '>=', 2.0)]))\n"
        "except ImportError as e:\n"
        "    print(e)\n", tmp_path)
    assert out.returncode == 0, out.stderr
    assert "HiGHS" in out.stdout
