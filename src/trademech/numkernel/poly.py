"""Univariate polynomials in the monomial basis with certified real root
isolation (Sturm sequences + bisection) and interval minimization.

Coefficients are stored ascending by degree. The degree cap of 128 keeps
the float Sturm chain well-conditioned. `core.PriceDistribution` certifies
its density pieces nonnegative through `poly_min_on_interval`; the
mean-keyed lotteries need no polynomials, since `core._cdf_gains` prices
them from their closed-form CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEGREE_CAP = 128


def _strip(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(float(x) for x in c)


@dataclass(frozen=True)
class Polynomial:
    """Monomial-basis polynomial; coeffs[k] multiplies x**k."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial((0.0,))
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(tuple(c * a for a in self.coeffs))

    def shift(self, c: float) -> "Polynomial":
        """self + constant c."""
        out = list(self.coeffs)
        out[0] += c
        return Polynomial(out)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        return Polynomial((0.0,) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    def integrate(self, a: float, b: float) -> float:
        F = self.antiderivative()
        return F(b) - F(a)


# ---------------------------------------------------------------------------
# Sturm machinery


def _polydiv(num, den):
    """Remainder of num / den over float coefficient lists (ascending)."""
    num = list(num)
    dd = len(den) - 1
    dl = den[-1]
    while len(num) - 1 >= dd and any(c != 0.0 for c in num):
        dn = len(num) - 1
        factor = num[-1] / dl
        # subtract factor * x^(dn-dd) * den
        for i, c in enumerate(den):
            num[dn - dd + i] -= factor * c
        num[-1] = 0.0
        while len(num) > 1 and num[-1] == 0.0:
            num.pop()
        if dn == len(num) - 1:  # degree failed to drop; numerical stall
            num.pop()
    return num


def _sturm_chain(f: Polynomial):
    """Normalized Sturm chain; stops when the remainder is numerically zero
    relative to the operands (which collapses repeated roots, so sign
    variations count distinct roots)."""
    chain = [list(f.coeffs), list(f.derivative().coeffs)]
    if len(chain[1]) == 1 and chain[1][0] == 0.0:
        return [chain[0]]
    while True:
        a, b = chain[-2], chain[-1]
        if len(b) == 1:
            break
        rem = _polydiv(a, b)
        if not rem:
            break
        scale = max(abs(c) for c in rem)
        ref = max(max(abs(c) for c in a), max(abs(c) for c in b))
        if scale <= 1e-14 * max(1.0, ref):
            break
        # a negligible leading coefficient means cancellation really dropped
        # the degree; keeping it would make the next division divide by it
        while len(rem) > 1 and abs(rem[-1]) <= 1e-14 * scale:
            rem.pop()
        rem = [-c / scale for c in rem]
        chain.append(rem)
    return chain


def _sign_variations(chain, x: float) -> int:
    signs = []
    for coeffs in chain:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        if acc > 0:
            signs.append(1)
        elif acc < 0:
            signs.append(-1)
    var = 0
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            var += 1
    return var


def _count_roots(chain, a: float, b: float) -> int:
    """Distinct real roots in (a, b]."""
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def poly_roots(f: Polynomial, a: float, b: float) -> list:
    """All distinct real roots of f in [a, b], sorted ascending.

    Isolation by Sturm sign variations, refinement by bisection on the
    variation count (robust to even-multiplicity roots), then a short
    Newton polish.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    if not b > a:
        raise ValueError("need b > a")
    if f.degree > DEGREE_CAP:
        raise ValueError(f"degree {f.degree} exceeds cap {DEGREE_CAP}")

    # A near-zero leading coefficient wrecks Sturm division. Dropping a top
    # term perturbs f on [a,b] by at most |c_k| M^k, so trim while that is
    # negligible against the largest term on the interval.
    M = max(abs(a), abs(b), 1.0)
    weights = [abs(c) * M ** k for k, c in enumerate(f.coeffs)]
    ref = max(weights)
    top = len(weights) - 1
    while top >= 1 and weights[top] <= 1e-13 * ref:
        top -= 1
    if top < f.degree:
        f = Polynomial(f.coeffs[:top + 1])
        if f.is_zero():
            raise ValueError("zero polynomial has no isolated roots")
    if f.degree == 0:
        return []

    span = b - a
    scale = max(abs(f(a)), abs(f(b)), max(abs(c) for c in f.coeffs), 1.0)
    roots = []

    # Endpoint a is outside the (a, b] Sturm window; test it directly.
    if abs(f(a)) <= 1e-13 * scale:
        roots.append(a)

    chain = _sturm_chain(f)
    # Nudge the left end off any root so variation counts are clean.
    lo = a
    if abs(f(lo)) <= 1e-13 * scale:
        lo = a + 1e-12 * max(span, 1.0)

    stack = [(lo, b, _count_roots(chain, lo, b))]
    isolated = []
    while stack:
        lo_, hi_, k = stack.pop()
        if k <= 0:
            continue
        if k == 1:
            isolated.append((lo_, hi_))
            continue
        mid = 0.5 * (lo_ + hi_)
        if hi_ - lo_ <= 1e-13 * max(1.0, abs(mid)):
            # cluster tighter than resolution: report once
            isolated.append((lo_, hi_))
            continue
        kl = _count_roots(chain, lo_, mid)
        stack.append((lo_, mid, kl))
        stack.append((mid, hi_, k - kl))

    fp = f.derivative()
    for lo_, hi_ in isolated:
        # bisection on the Sturm count keeps working without a sign change
        for _ in range(60):
            if hi_ - lo_ <= 1e-14 * max(1.0, abs(hi_)):
                break
            mid = 0.5 * (lo_ + hi_)
            if _count_roots(chain, lo_, mid) >= 1:
                hi_ = mid
            else:
                lo_ = mid
        r = 0.5 * (lo_ + hi_)
        for _ in range(3):  # polish
            d = fp(r)
            if d == 0.0:
                break
            step = f(r) / d
            if not math.isfinite(step) or abs(step) > (hi_ - lo_) + 1e-9:
                break
            r -= step
        r = min(max(r, a), b)
        roots.append(r)

    # Variation counts can flicker when a chain member vanishes right at an
    # evaluation point, so candidates are only accepted if f actually
    # vanishes there; a sign-change sweep then recovers anything real that
    # the count noise displaced.
    grid = [a + span * k / 256.0 for k in range(257)]
    fscale = max(1.0, max(abs(f(x)) for x in grid))
    resid_tol = 1e-11 * fscale
    roots = [r for r in roots if abs(f(r)) <= resid_tol]

    roots.sort()
    out = []
    for r in roots:
        if out and abs(r - out[-1]) <= 1e-10 * max(1.0, abs(r)):
            continue
        out.append(r)

    checkpoints = [a] + out + [b]
    for lo_, hi_ in zip(checkpoints, checkpoints[1:]):
        if hi_ - lo_ <= 1e-12 * max(1.0, abs(hi_)):
            continue
        xs = [lo_ + (hi_ - lo_) * k / 33.0 for k in range(34)]
        vs = [f(x) for x in xs]
        for k in range(1, 33):
            # interior sample sitting on a root the isolation step dropped;
            # neighbors must be clearly nonzero or this is just a flat poly
            if (abs(vs[k]) <= 1e-13 * fscale
                    and max(abs(vs[k - 1]), abs(vs[k + 1])) > 1e-10 * fscale
                    and all(abs(xs[k] - q) > 1e-10 * max(1.0, abs(xs[k]))
                            for q in out)):
                out.append(xs[k])
        # Bisect every sign change between consecutive samples of clear
        # sign. A sample within resid_tol of zero is skipped rather than
        # paired, so a root right next to a sample is still bracketed,
        # while the sign noise around a reported root or a multiple root
        # brackets nothing.
        clear = [k for k in range(34) if abs(vs[k]) > resid_tol]
        for k, k2 in zip(clear, clear[1:]):
            if vs[k] * vs[k2] < 0.0:
                u, v = xs[k], xs[k2]
                fu = vs[k]
                for _ in range(100):
                    m = 0.5 * (u + v)
                    fm = f(m)
                    if fm == 0.0:
                        u = v = m
                        break
                    if fu * fm < 0.0:
                        v = m
                    else:
                        u, fu = m, fm
                r = 0.5 * (u + v)
                if abs(f(r)) <= resid_tol and all(
                        abs(r - q) > 1e-10 * max(1.0, abs(r)) for q in out):
                    out.append(r)
    out.sort()
    return out


def poly_min_on_interval(f: Polynomial, a: float, b: float):
    """(x*, f(x*)) minimizing f over [a, b] among endpoints and critical
    points of f'."""
    if b < a:
        raise ValueError("need b >= a")
    if b == a:
        return a, f(a)
    candidates = [a, b]
    fp = f.derivative()
    if not fp.is_zero() and fp.degree >= 1:
        candidates.extend(poly_roots(fp, a, b))
    best_x, best_v = a, f(a)
    for x in candidates:
        v = f(x)
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v
