"""core.poly_min_on_interval on polynomials given as coefficient tuples,
lowest degree first."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from trademech.core import poly_min_on_interval


def values(coeffs, xs):
    return np.polyval(np.asarray(coeffs, dtype=float)[::-1], xs)


def test_min_parabola():
    x, v = poly_min_on_interval((0.25, -1.0, 1.0), 0.0, 1.0)
    assert x == pytest.approx(0.5, abs=1e-10)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_min_boundary():
    x, v = poly_min_on_interval((0.0, 1.0), 2.0, 3.0)
    assert (x, v) == (2.0, 2.0)


def test_min_vertex_at_right_edge():
    # 1 + 0.5*x*(x-2) decreases on all of [0,1]; its vertex sits at x=1
    x, v = poly_min_on_interval((1.0, -1.0, 0.5), 0.0, 1.0)
    assert x == pytest.approx(1.0)
    assert v == pytest.approx(0.5, abs=1e-12)
    # quarter-strength variant: same minimizer, value 0.75
    x, v = poly_min_on_interval((1.0, -0.5, 0.25), 0.0, 1.0)
    assert x == pytest.approx(1.0)
    assert v == pytest.approx(0.75, abs=1e-12)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                max_size=6))
@settings(max_examples=150, deadline=None)
# a negligible leading term once turned every critical point into NaN
@example([0.0, -1.0, 0.0, 1.0, 2.1672812816938098e-194])
def test_min_beats_grid(coeffs):
    x, v = poly_min_on_interval(tuple(coeffs), 0.0, 1.0)
    assert 0.0 <= x <= 1.0
    assert v == values(coeffs, x)
    assert v <= values(coeffs, np.linspace(0.0, 1.0, 2001)).min() + 1e-9


@pytest.mark.parametrize("roots", [[0.302, 0.302, 0.487, 0.933, 0.933],
                                   [0.526, 0.526, 0.6, 0.6]])
def test_min_with_double_roots_matches_fine_grid(roots):
    coeffs = tuple(np.poly(roots)[::-1])
    x, v = poly_min_on_interval(coeffs, 0.0, 1.0)
    grid = values(coeffs, np.linspace(0.0, 1.0, 200001)).min()
    assert v == values(coeffs, x)
    assert v == pytest.approx(grid, abs=1e-12)


def test_erm2_cross_product_minimizer():
    # ratio numerator for the linear density 2(1-t): g(x) = x^3/3 - x^2 - x/3 + 1
    # over denominator 1-x^2. The quotient's derivative has numerator
    # g'*(1-x^2) - g*(-2x) = -(1/3)(x^2-1)^2: its only root on [0,1] is
    # the boundary x=1, where the quotient tends to 2/3.
    g = (1.0, -1.0 / 3.0, -1.0, 1.0 / 3.0)
    denom = (1.0, 0.0, -1.0)
    cross = P.polysub(P.polymul(P.polyder(g), denom), P.polymul(g, P.polyder(denom)))
    assert cross == pytest.approx(np.array([-1.0, 0.0, 2.0, 0.0, -1.0]) / 3.0, abs=1e-15)
    # limit value at the minimizer by l'Hopital (0/0 at x=1)
    limit = P.polyval(1.0, P.polyder(g)) / P.polyval(1.0, P.polyder(denom))
    assert limit == pytest.approx(2.0 / 3.0, abs=1e-12)
    # cross-check with a 1e-6 grid scan: quotient is 1 - x/3 exactly
    xs = np.linspace(0.0, 1.0 - 1e-6, 1_000_001)
    q = values(g, xs) / (1.0 - xs * xs)
    assert float(np.min(q)) == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert np.allclose(q, 1.0 - xs / 3.0, atol=1e-7)
    # nonnegativity certificate at r = 2/3: g - (2/3)(1-x^2) >= 0 on [0,1]
    slack = tuple(P.polysub(g, P.polymul((2.0 / 3.0,), denom)))
    _, mn = poly_min_on_interval(slack, 0.0, 1.0)
    assert mn >= -1e-12
