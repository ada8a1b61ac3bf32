"""A bisection that only ever returns a value the caller's check accepted."""

from __future__ import annotations


def certified_binary_search(check, lo, hi, iters=100):
    """Largest r in [lo, hi] with check(r) true, assuming check is monotone
    nonincreasing. The return value is always one on which check actually
    ran and passed, never an untested midpoint.
    """
    if not check(lo):
        raise ValueError("check(lo) must hold")
    if check(hi):
        raise ValueError("check(hi) must fail")
    good, bad = lo, hi
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if check(mid):
            good = mid
        else:
            bad = mid
    return good
