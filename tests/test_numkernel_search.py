import numpy as np
import pytest

from trademech.numkernel import certified_binary_search


def test_binary_search_threshold():
    r = certified_binary_search(lambda t: t <= 0.75, 0.0, 1.0, iters=100)
    assert r <= 0.75
    assert abs(r - 0.75) < 1e-12


def test_binary_search_returns_passing_value():
    calls = []

    def check(t):
        ok = t * t <= 2.0
        calls.append((t, ok))
        return ok

    r = certified_binary_search(check, 0.0, 2.0, iters=60)
    assert (r, True) in calls
    assert r * r <= 2.0
    assert abs(r - np.sqrt(2.0)) < 1e-9


def test_binary_search_precondition_errors():
    with pytest.raises(ValueError):
        certified_binary_search(lambda t: False, 0.0, 1.0)
    with pytest.raises(ValueError):
        certified_binary_search(lambda t: True, 0.0, 1.0)
