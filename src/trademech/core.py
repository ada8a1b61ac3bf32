"""Trade instances and exact welfare computation.

Values live on discrete supports with an explicit tie rank in [0,1], so
"just above v" is representable exactly as (v, 1) instead of v + epsilon.
A price accepts a seller atom iff (value, tie) <= (level, tie) in
lexicographic order, and a buyer atom iff >=. A random price rule is a
finite lottery over such prices.

All welfare here comes from one set of prefix sums. A distribution
caches its prefix and suffix sums of mass and mass x value (S0, S1 and
B0, B1), built by `_prefix_sums` and `_suffix_sums`, and an instance
caches `below`, the count of sellers strictly below each buyer; every
cache, like the value, tie, mass and key arrays, is built on first use
and read-only. A price accepts a prefix of the sellers and a suffix of
the buyers, found by binary search on complex (value, tie) keys, which
numpy orders lexicographically, and `_gains` reads its gains off the
sums: `_cleared` (fixed prices, price lotteries, `best_fixed_price`)
off the cached ones, `_gain_sweep`, which the grid programs share, off
sums it builds with the same helpers. The sweep takes mass arrays with
leading batch axes, so the lower program's node LP gets its pair block
by sweeping one-hot mass vectors, and the half-step rows by sweeping
the free side's unit vectors against the pinned side. `opt_welfare`
gathers S0, S1 at `below`; atomless prices go through `_cdf_gains`,
which adds the two sums weighted by the price CDF at each seller; the
mean-keyed lotteries' closed-form CDFs use it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MASS_TOL = 1e-12
# Prices whose welfare is equal in exact arithmetic can come out of the
# prefix sums a few ulps apart; best_fixed_price treats them as tied.
_TIE_RTOL = 1e-12
# An int past the largest float compares above it exactly: rejected too.
_FLOAT_MAX = sys.float_info.max


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atoms are (value, tie, mass), sorted ascending by (value, tie).

    `values`, `ties`, `masses`, `keys`, `prefix_sums` and `suffix_sums`
    are numpy arrays built from the atoms on first access and cached on
    the object; they are read-only, so every caller sees the same arrays.
    Equality, hashing and repr are those of `atoms` alone.
    """

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        total = 0.0
        prev = None
        for v, t, m in self.atoms:
            # chained comparisons fail on NaN, so these also reject it
            if not 0.0 <= v <= _FLOAT_MAX:
                raise ValueError(f"value {v} must be finite and nonnegative")
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"tie rank {t} outside [0,1]")
            if not 0.0 < m <= _FLOAT_MAX:
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
        try:
            atoms = tuple(sorted((float(v), float(t), float(m)) for v, t, m in atoms))
        except OverflowError:       # an int too large for a float
            raise ValueError("atom fields must be finite") from None
        return cls(atoms)

    @classmethod
    def from_pairs(cls, pairs, tie=0.5):
        """pairs: iterable of (value, mass) with a common tie rank."""
        return cls.from_atoms([(v, tie, m) for v, m in pairs])

    @classmethod
    def point(cls, value, tie=0.5):
        return cls.from_atoms(((value, tie, 1.0),))

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
    def prefix_sums(self):
        """S0, S1 over the first k atoms, k = 0..n, as _gain_sweep builds them."""
        return _read_only(_prefix_sums(self.masses, self.masses * self.values))

    @cached_property
    def suffix_sums(self):
        """B0, B1 over the atoms from index j on, as _gain_sweep builds them."""
        return _read_only(_suffix_sums(self.masses, self.masses * self.values))

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
        if not 0.0 <= self.level <= _FLOAT_MAX:
            raise ValueError("price level must be finite and nonnegative")
        if not 0.0 <= self.tie <= 1.0:
            raise ValueError("price tie rank must lie in [0,1]")


@dataclass(frozen=True)
class Instance:
    seller: DiscreteDistribution
    buyer: DiscreteDistribution

    @classmethod
    def from_values(cls, seller_pairs, buyer_pairs):
        return cls(DiscreteDistribution.from_pairs(seller_pairs),
                   DiscreteDistribution.from_pairs(buyer_pairs))

    @cached_property
    def below(self):
        """Per buyer atom, the number of seller values strictly below it."""
        return _read_only(np.searchsorted(self.seller.values, self.buyer.values))


def opt_welfare(inst: Instance) -> float:
    """E[max(S, B)] over the product distribution; ties are irrelevant.

    E[max(S, B)] = E[S] + E[(B - S)^+]. A buyer atom b gains b*S0 - S1
    over the sellers strictly below it, with S0 and S1 their mass and
    mass x value sums; a pair with s = b gains nothing.
    """
    s, b = inst.seller, inst.buyer
    s0, s1 = s.prefix_sums.take(inst.below, axis=1)
    return s.mean() + float(b.masses @ (b.values * s0 - s1))


def _prefix_sums(*weights):
    """Each weight array summed over the first k entries of its last axis,
    k = 0..n, one row per array, by one sequential accumulate per row."""
    w = np.asarray(weights)
    s = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    np.add.accumulate(w, axis=-1, out=s[..., 1:])
    return s


def _suffix_sums(*weights):
    """The same sums over the entries from index j on, j = 0..n."""
    w = np.asarray(weights)
    b = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    np.add.accumulate(w[..., ::-1], axis=-1, out=b[..., -2::-1])
    return b


def _gains(s, b, k, j):
    """S0[k] B1[j] - S1[k] B0[j]: the gains of the trades between the first
    k[i] sellers and the buyers from index j[i] on. Every such pair has
    buyer value >= seller value, so each term is a true gain."""
    s, b = s.take(k, axis=-1), b.take(j, axis=-1)
    return s[0] * b[1] - s[1] * b[0]


def _gain_sweep(sv, sm, bv, bm, k, j):
    """_gains over seller (buyer) values sv (bv) and masses sm (bm) in
    sweep order, summed as the distributions sum theirs. Masses may carry
    leading batch axes: the sums run along the last axis, the batch axes
    of the two sides broadcast, and the result has shape batch + k.shape.
    """
    return _gains(_prefix_sums(sm, sm * sv), _suffix_sums(bm, bm * bv), k, j)


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
    return _gains(s.prefix_sums, b.suffix_sums, k, j)


def fixed_price_welfare(inst: Instance, p: Price) -> float:
    """E[S] plus the expected gains from trades the price clears."""
    return inst.seller.mean() + float(_cleared(inst, _keys([p.level], [p.tie]))[0])


def best_fixed_price(inst: Instance):
    """Maximize fixed_price_welfare over the atom coordinates of both sides.

    Restricting to that candidate set loses nothing: as the price moves
    between consecutive atom coordinates the accepted sets are constant.
    Ties, up to rounding, break toward the smallest (level, tie).
    A key on both sides is a candidate twice, with one welfare; argmax
    keeps the first. The stable sort merges the two sorted runs.
    """
    s, b = inst.seller, inst.buyer
    cand = np.sort(np.concatenate((s.keys, b.keys)), kind="stable")
    w = s.mean() + _cleared(inst, cand)
    i = int(np.argmax(w >= w.max() * (1.0 - _TIE_RTOL)))
    return Price(float(cand[i].real), float(cand[i].imag)), float(w[i])


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
            if not 0.0 <= prob <= _FLOAT_MAX:
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
    it per buyer from S0, S1 and their F(s)-weighted forms over the sellers
    strictly below. cdf is called once, on both sides' values.
    """
    s, b, below = inst.seller, inst.buyer, inst.below
    f = cdf(np.concatenate((s.values, b.values)))
    fs, fb = f[:len(s.values)], f[len(s.values):]
    c0, c1 = s.prefix_sums.take(below, axis=1)
    cf, c1f = _prefix_sums(s.masses * fs, s.masses * s.values * fs).take(below, axis=1)
    return float(b.masses @ (b.values * fb * c0 - b.values * cf - fb * c1 + c1f))


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
