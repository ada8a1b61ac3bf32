"""Trade instances and exact welfare computation.

Values live on discrete supports with an explicit tie rank in [0,1], so
"just above v" is representable exactly as (v, 1) instead of v + epsilon.
A price accepts a seller atom iff (value, tie) <= (level, tie) in
lexicographic order, and a buyer atom iff >=. A random price rule is a
finite lottery over such prices.

All welfare here comes from one prefix-sum sweep over the sorted atoms,
`_gain_sweep`, which the grid programs share: a price accepts a prefix of
the sellers and a suffix of the buyers, found by binary search. The sweep
takes mass arrays with leading batch axes, so the lower program's node LP
gets its pair block from it by sweeping one-hot mass vectors; the
half-step rows are the same sweep in closed form. Atomless
prices go through `_cdf_gains`, which needs only the price CDF at each
atom value and four prefix sums over the sellers below each buyer; the
mean-keyed lotteries' closed-form CDFs use it. `opt_welfare` takes two
such sums from the same helper, `_sums_below`.

A distribution builds its value, tie and mass arrays on first use and
keeps them, read-only, for its lifetime; prices and atoms are searched as
complex (value, tie) keys, which numpy orders lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MASS_TOL = 1e-12
# Prices whose welfare is equal in exact arithmetic can come out of the
# prefix sums a few ulps apart; best_fixed_price treats them as tied.
_TIE_RTOL = 1e-12


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atoms are (value, tie, mass), sorted ascending by (value, tie).

    `values`, `ties`, `masses` and `keys` are numpy arrays built from the
    atoms on first access and cached on the object; they are read-only,
    so every caller sees the same arrays. Equality, hashing and repr
    are those of `atoms` alone.
    """

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        total = 0.0
        prev = None
        for v, t, m in self.atoms:
            # chained comparisons fail on NaN, so these also reject it
            if not 0.0 <= v < math.inf:
                raise ValueError(f"value {v} must be finite and nonnegative")
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"tie rank {t} outside [0,1]")
            if not 0.0 < m < math.inf:
                raise ValueError(f"atom mass {m} must be finite and positive")
            if prev is not None and (v, t) <= prev:
                raise ValueError("atoms must be strictly sorted by (value, tie)")
            prev = (v, t)
            total += m
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"masses sum to {total}, not 1")

    @classmethod
    def from_atoms(cls, atoms):
        """atoms: iterable of (value, tie, mass); sorts and merges nothing."""
        return cls(tuple(sorted((float(v), float(t), float(m))
                                for v, t, m in atoms)))

    @classmethod
    def from_pairs(cls, pairs, tie=0.5):
        """pairs: iterable of (value, mass) with a common tie rank."""
        return cls.from_atoms([(v, tie, m) for v, m in pairs])

    @classmethod
    def point(cls, value, tie=0.5):
        return cls(((float(value), float(tie), 1.0),))

    # cached_property stores into the instance __dict__, which a frozen
    # dataclass still allows, and leaves the fields untouched.
    @cached_property
    def values(self):
        return _read_only(np.array([v for v, _, _ in self.atoms], dtype=float))

    @cached_property
    def ties(self):
        return _read_only(np.array([t for _, t, _ in self.atoms], dtype=float))

    @cached_property
    def masses(self):
        return _read_only(np.array([m for _, _, m in self.atoms], dtype=float))

    @cached_property
    def keys(self):
        """The atoms' (value, tie) keys, as _keys builds them."""
        return _read_only(_keys(self.values, self.ties))

    @cached_property
    def _mean(self):
        return float(self.values @ self.masses)

    def mean(self) -> float:
        return self._mean


@dataclass(frozen=True, order=True)
class Price:
    """A posted price with a tie rank deciding equal-value acceptance."""

    level: float
    tie: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.level < math.inf:
            raise ValueError("price level must be finite and nonnegative")
        if not 0.0 <= self.tie <= 1.0:
            raise ValueError("price tie rank must lie in [0,1]")


def just_above(level: float) -> Price:
    """The price sitting above every atom at `level` but below any larger
    value; stands in for level + epsilon."""
    return Price(level, 1.0)


def just_below(level: float) -> Price:
    return Price(level, 0.0)


@dataclass(frozen=True)
class Instance:
    seller: DiscreteDistribution
    buyer: DiscreteDistribution

    @classmethod
    def from_values(cls, seller_pairs, buyer_pairs):
        return cls(DiscreteDistribution.from_pairs(seller_pairs),
                   DiscreteDistribution.from_pairs(buyer_pairs))


def opt_welfare(inst: Instance) -> float:
    """E[max(S, B)] over the product distribution; ties are irrelevant.

    E[max(S, B)] = E[S] + E[(B - S)^+]. A buyer atom b gains b*S0 - S1
    over the sellers strictly below it, with S0 and S1 their mass and
    mass x value sums; a pair with s = b gains nothing.
    """
    s, b = inst.seller, inst.buyer
    s0, s1 = _sums_below(inst, s.masses, s.masses * s.values)
    return s.mean() + float(b.masses @ (b.values * s0 - s1))


def _sums_below(inst: Instance, *weights):
    """Per buyer atom, each seller weight array summed over the seller
    atoms whose value lies strictly below the buyer's."""
    below = np.searchsorted(inst.seller.values, inst.buyer.values, side="left")
    return [np.concatenate(([0.0], w.cumsum()))[below] for w in weights]


def _gain_sweep(sv, sm, bv, bm, k, j):
    """Gains of the trades between the first k[i] seller atoms and the
    buyer atoms from index j[i] on, one per i.

    sv, sm (bv, bm) are the seller (buyer) values and masses in sweep
    order. The gains are S0[k] B1[j] - S1[k] B0[j], with S0, S1 the seller
    prefix sums of mass and mass x value and B0, B1 the buyer suffix sums.
    Every such pair has buyer value >= seller value, so each term is a
    true gain. Masses may carry leading batch axes: the sums run along the
    last axis, the batch axes of the two sides broadcast, and the result
    has shape batch + k.shape.
    """
    s = np.zeros((2,) + sm.shape[:-1] + (sm.shape[-1] + 1,))     # S0, S1 from 0
    np.add.accumulate(sm, axis=-1, out=s[0, ..., 1:])
    np.add.accumulate(sm * sv, axis=-1, out=s[1, ..., 1:])
    b = np.zeros((2,) + bm.shape[:-1] + (bm.shape[-1] + 1,))
    np.add.accumulate(bm[..., ::-1], axis=-1, out=b[0, ..., -2::-1])
    np.add.accumulate((bm * bv)[..., ::-1], axis=-1, out=b[1, ..., -2::-1])
    s, b = s[..., k], b[..., j]
    return s[0] * b[1] - s[1] * b[0]


def _keys(values, ties):
    """(value, tie) pairs as complex numbers, value + tie * 1j.

    numpy sorts, compares and searches complex numbers by real part,
    then imaginary part: the lexicographic (value, tie) order of prices
    and atoms. Inputs are finite, so no NaN reaches the order, and
    -0.0 and 0.0 compare equal, as they do as floats.
    """
    keys = np.empty(len(values), dtype=complex)
    keys.real, keys.imag = values, ties
    return keys


def _cleared(inst: Instance, prices) -> np.ndarray:
    """Gains each price in `prices` (keys from _keys) clears.

    A price accepts the seller atoms at or below it, a prefix of length k,
    and the buyer atoms at or above it, a suffix from index j.
    """
    s, b = inst.seller, inst.buyer
    k = np.searchsorted(s.keys, prices, side="right")
    j = np.searchsorted(b.keys, prices, side="left")
    return _gain_sweep(s.values, s.masses, b.values, b.masses, k, j)


def fixed_price_welfare(inst: Instance, p: Price) -> float:
    """E[S] plus the expected gains from trades the price clears."""
    return inst.seller.mean() + float(_cleared(inst, _keys([p.level], [p.tie]))[0])


def best_fixed_price(inst: Instance):
    """Maximize fixed_price_welfare over the atom coordinates of both sides.

    Restricting to that candidate set loses nothing: as the price moves
    between consecutive atom coordinates the accepted sets are constant.
    Ties, up to rounding, break toward the smallest (level, tie).
    """
    s, b = inst.seller, inst.buyer
    cand = np.unique(np.concatenate([s.keys, b.keys]))
    w = s.mean() + _cleared(inst, cand)
    i = int(np.argmax(w >= w.max() * (1.0 - _TIE_RTOL)))
    return Price(float(cand[i].real), float(cand[i].imag)), float(w[i])


def scale_instance(inst: Instance, c: float) -> Instance:
    # chained comparisons fail on NaN, so this also rejects it
    if not 0.0 < c < math.inf:
        raise ValueError("scale factor must be finite and positive")
    return Instance(
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.seller.atoms)),
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.buyer.atoms)))


# Unused in the package; the benchmark's tracer wraps it under this name.
def poly_min_on_interval(coeffs, a, b):
    """(x*, f(x*)) minimizing f(x) = sum(coeffs[k] * x**k) over [a, b].

    The candidates are the endpoints and the real parts of all roots of
    f', clipped to [a, b]: every extremum inside is a real root of f',
    which numpy finds as an eigenvalue of the companion matrix, and any
    other candidate is still a point of [a, b]. Leading terms of f' below
    1e-14 of its largest term on [a, b] are dropped first; they barely
    move f' there but would swamp the companion matrix.
    """
    if b < a:
        raise ValueError("need b >= a")
    f = np.asarray(coeffs, dtype=float)[::-1]
    d = np.polyder(f)
    size = np.abs(d) * max(abs(a), abs(b), 1.0) ** np.arange(d.size)[::-1]
    d = d[np.cumsum(size > 1e-14 * size.max(initial=0.0)) > 0]
    xs = np.concatenate([[a, b], np.clip(np.roots(d).real, a, b)])
    vs = np.polyval(f, xs)
    i = int(np.argmin(vs))
    return float(xs[i]), float(vs[i])


@dataclass(frozen=True)
class PriceDistribution:
    """Random price rule: a finite lottery over posted prices.

    atoms: tuple of (Price, prob), the probabilities finite, nonnegative
    and summing to 1.
    """

    atoms: tuple

    def __post_init__(self):
        total = 0.0
        for p, prob in self.atoms:
            if not isinstance(p, Price):
                raise ValueError(f"price distribution atom {p!r} is not a Price")
            if not 0.0 <= prob < math.inf:
                raise ValueError("atom probability must be finite and nonnegative")
            total += prob
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"price distribution mass {total} is not 1")

    @classmethod
    def point(cls, price: Price):
        return cls(atoms=((price, 1.0),))


def _cdf_gains(inst: Instance, cdf) -> float:
    """Expected gains from trade when the price has the continuous CDF cdf.

    cdf maps an array of values to Pr[price <= value]. A pair with seller
    value s below buyer value b trades with probability F(b) - F(s)
    (endpoint ties are measure zero); expanding (b - s)(F(b) - F(s)) sums
    it per buyer from four prefix sums over the sellers strictly below.
    """
    sv, sm = inst.seller.values, inst.seller.masses
    bv, bm = inst.buyer.values, inst.buyer.masses
    fs, fb = cdf(sv), cdf(bv)
    c0, cf, c1, c1f = _sums_below(inst, sm, sm * fs, sm * sv, sm * sv * fs)
    return float(bm @ (bv * fb * c0 - bv * cf - fb * c1 + c1f))


def randomized_welfare(inst: Instance, pd: PriceDistribution) -> float:
    """Expected welfare when the price is drawn from pd: E[S] plus each
    atom price's fixed-price gains, weighted by its probability."""
    probs = np.array([prob for _, prob in pd.atoms])
    prices = _keys([p.level for p, _ in pd.atoms], [p.tie for p, _ in pd.atoms])
    return inst.seller.mean() + float(probs @ _cleared(inst, prices))


def instance_to_json(inst: Instance) -> dict:
    def side(d):
        return [{"v": v, "tie": t, "p": m} for v, t, m in d.atoms]
    return {"seller": side(inst.seller), "buyer": side(inst.buyer)}


def _json_number(x, where) -> float:
    """x as a float if it is a JSON number, an int or a float but not a
    bool; anything else, a numeric string too, raises ValueError, as does
    an int too large for a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{where} must be numbers, not {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{where} must be finite") from None


def instance_from_json(obj) -> Instance:
    if not isinstance(obj, dict) or "seller" not in obj or "buyer" not in obj:
        raise ValueError("instance JSON needs 'seller' and 'buyer' lists")

    def side(rows, name):
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"'{name}' must be a nonempty list")
        atoms = []
        for row in rows:
            if not isinstance(row, dict) or "v" not in row or "p" not in row:
                raise ValueError(f"each {name} atom needs 'v' and 'p'")
            atoms.append(tuple(_json_number(x, f"{name} atom fields")
                               for x in (row["v"], row.get("tie", 0.5), row["p"])))
        return DiscreteDistribution.from_atoms(atoms)

    return Instance(side(obj["seller"], "seller"), side(obj["buyer"], "buyer"))
