import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trademech.numkernel import Polynomial, poly_roots, poly_min_on_interval


def from_roots(roots) -> Polynomial:
    p = Polynomial((1.0,))
    for r in roots:
        p = p * Polynomial((-r, 1.0))
    return p


def test_arithmetic_basics():
    p = Polynomial((1.0, 2.0))          # 1 + 2x
    q = Polynomial((0.0, 0.0, 3.0))     # 3x^2
    assert (p + q).coeffs == (1.0, 2.0, 3.0)
    assert (p * q).coeffs == (0.0, 0.0, 3.0, 6.0)
    assert (p - p).coeffs == (0.0,)
    assert p(2.0) == 5.0
    assert p.derivative().coeffs == (2.0,)
    assert q.antiderivative()(1.0) == pytest.approx(1.0)
    assert q.integrate(0.0, 1.0) == pytest.approx(1.0)


def test_trailing_zeros_stripped():
    p = Polynomial((1.0, 0.0, 0.0))
    assert p.coeffs == (1.0,)
    assert p.degree == 0


def test_roots_x_squared_minus_one():
    roots = poly_roots(Polynomial((-1.0, 0.0, 1.0)), 0.0, 2.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-10)


def test_roots_constructed_factors():
    roots = poly_roots(from_roots([0.25, 0.75]), 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.25, abs=1e-10)
    assert roots[1] == pytest.approx(0.75, abs=1e-10)


def test_roots_double_root_found_once():
    # even multiplicity: no sign change, so this exercises the Sturm counts
    roots = poly_roots(from_roots([0.3, 0.3, 0.7]), 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.3, abs=1e-6)
    assert roots[1] == pytest.approx(0.7, abs=1e-10)


def test_roots_zero_poly_rejected():
    with pytest.raises(ValueError):
        poly_roots(Polynomial((0.0,)), 0.0, 1.0)


def test_roots_endpoint_root():
    roots = poly_roots(from_roots([0.0, 0.5]), 0.0, 1.0)
    assert roots[0] == pytest.approx(0.0, abs=1e-10)
    assert roots[1] == pytest.approx(0.5, abs=1e-10)


def _numpy_roots_oracle(coeffs, a, b):
    rr = np.roots(list(reversed(coeffs)))
    real = sorted(r.real for r in rr
                  if abs(r.imag) < 1e-9 and a - 1e-9 <= r.real <= b + 1e-9)
    out = []
    for r in real:
        if not out or r - out[-1] > 1e-8:
            out.append(min(max(r, a), b))
    return out


@given(st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1,
                max_size=5))
@settings(max_examples=120, deadline=None)
def test_roots_match_companion_matrix_oracle(root_list):
    # keep constructed roots separated so both methods resolve them
    root_list = sorted(root_list)
    seps = [root_list[0]] + [b for a, b in zip(root_list, root_list[1:])
                             if b - a > 1e-3]
    f = from_roots(seps)
    got = poly_roots(f, 0.0, 1.0)
    want = _numpy_roots_oracle(f.coeffs, 0.0, 1.0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-8)


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2,
                max_size=7))
@settings(max_examples=150, deadline=None)
# a root at -1e-12, next to a tiny constant term, once slipped through
@example([1e-12, 1.0, 1e-12, 0.0, 0.25])
def test_roots_residual_and_no_missed_sign_change(coeffs):
    if all(abs(c) < 1e-6 for c in coeffs):
        return
    f = Polynomial(tuple(coeffs))
    if f.degree < 1:
        return
    roots = poly_roots(f, -1.0, 2.0)
    xs = np.linspace(-1.0, 2.0, 512)
    scale = max(1.0, max(abs(f(float(x))) for x in xs))
    for r in roots:
        assert abs(f(r)) <= 1e-10 * scale
    # between consecutive reported roots f must not change sign
    pts = [-1.0] + roots + [2.0]
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo < 1e-7:
            continue
        inner = np.linspace(lo + 1e-7, hi - 1e-7, 64)
        signs = {np.sign(f(float(x))) for x in inner
                 if abs(f(float(x))) > 1e-8 * scale}
        assert len(signs) <= 1


def test_min_parabola():
    x, v = poly_min_on_interval(Polynomial((0.25, -1.0, 1.0)), 0.0, 1.0)
    assert x == pytest.approx(0.5, abs=1e-10)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_min_boundary():
    x, v = poly_min_on_interval(Polynomial((0.0, 1.0)), 2.0, 3.0)
    assert (x, v) == (2.0, 2.0)


def test_min_vertex_at_right_edge():
    # 1 + 0.5*x*(x-2) decreases on all of [0,1]; its vertex sits at x=1
    x, v = poly_min_on_interval(Polynomial((1.0, -1.0, 0.5)), 0.0, 1.0)
    assert x == pytest.approx(1.0)
    assert v == pytest.approx(0.5, abs=1e-12)
    # quarter-strength variant: same minimizer, value 0.75
    x, v = poly_min_on_interval(Polynomial((1.0, -0.5, 0.25)), 0.0, 1.0)
    assert x == pytest.approx(1.0)
    assert v == pytest.approx(0.75, abs=1e-12)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                max_size=6))
@settings(max_examples=150, deadline=None)
def test_min_beats_grid(coeffs):
    f = Polynomial(tuple(coeffs))
    _, v = poly_min_on_interval(f, 0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 2001)
    gv = min(f(float(x)) for x in grid)
    assert v <= gv + 1e-9


def test_erm2_cross_product_minimizer():
    # ratio numerator for the linear density 2(1-t): g(x) = x^3/3 - x^2 - x/3 + 1
    # over denominator 1-x^2. The quotient's derivative has numerator
    # g'*(1-x^2) - g*(-2x), which works out to -(1/3)(x^2-1)^2: its only
    # root on [0,1] is the boundary x=1, where the quotient tends to 2/3.
    g = Polynomial((1.0, -1.0 / 3.0, -1.0, 1.0 / 3.0))
    denom = Polynomial((1.0, 0.0, -1.0))
    cross = g.derivative() * denom - g * denom.derivative()
    roots = poly_roots(cross, 0.0, 1.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-6)
    # limit value at the minimizer by l'Hopital (0/0 at x=1)
    limit = g.derivative()(1.0) / denom.derivative()(1.0)
    assert limit == pytest.approx(2.0 / 3.0, abs=1e-12)
    # cross-check with a 1e-6 grid scan: quotient is 1 - x/3 exactly
    xs = np.linspace(0.0, 1.0 - 1e-6, 1_000_001)
    q = np.polyval(list(reversed(g.coeffs)), xs) / (1.0 - xs * xs)
    assert float(np.min(q)) == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert np.allclose(q, 1.0 - xs / 3.0, atol=1e-7)
    # nonnegativity certificate at r = 2/3: g - (2/3)(1-x^2) >= 0 on [0,1]
    slack = g - denom.scale(2.0 / 3.0)
    _, mn = poly_min_on_interval(slack, 0.0, 1.0)
    assert mn >= -1e-12

