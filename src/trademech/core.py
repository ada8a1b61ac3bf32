"""Trade instances and exact welfare computation.

Values live on discrete supports with an explicit tie rank in [0,1], so
"just above v" is representable exactly as (v, 1) instead of v + epsilon.
A price accepts a seller atom iff (value, tie) <= (level, tie) in
lexicographic order, and a buyer atom iff >=. Continuous price rules are
piecewise-polynomial densities, each piece a tuple of coefficients in
ascending degree; welfare against them integrates in closed form.

All welfare here comes from one prefix-sum sweep over the sorted atoms,
`_gain_sweep`, which the grid programs share: a price accepts a prefix of
the sellers and a suffix of the buyers, found by binary search. The sweep
takes mass arrays with leading batch axes, so the grid programs get every
LP coefficient block from it by sweeping one-hot mass vectors. Atomless
prices go through `_cdf_gains`, which needs only the price CDF at each
atom value and four prefix sums over the sellers below each buyer; the
polynomial densities here and the mean-keyed lotteries' closed-form CDFs
both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASS_TOL = 1e-12
_PD_MASS_TOL = 1e-10
# Prices whose welfare is equal in exact arithmetic can come out of the
# prefix sums a few ulps apart; best_fixed_price treats them as tied.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """Atoms are (value, tie, mass), sorted ascending by (value, tie)."""

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

    @property
    def values(self):
        return np.array([v for v, _, _ in self.atoms])

    @property
    def ties(self):
        return np.array([t for _, t, _ in self.atoms])

    @property
    def masses(self):
        return np.array([m for _, _, m in self.atoms])

    def mean(self) -> float:
        return float(self.values @ self.masses)


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
    """E[max(S, B)] over the product distribution; ties are irrelevant."""
    sv = inst.seller.values[:, None]
    bv = inst.buyer.values[None, :]
    w = inst.seller.masses[:, None] * inst.buyer.masses[None, :]
    return float((w * np.maximum(sv, bv)).sum())


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
    def prefix(x):
        # sums of x[..., :i] for i = 0 .. len, along the last axis
        return np.concatenate([np.zeros(x.shape[:-1] + (1,)),
                               np.cumsum(x, axis=-1)], axis=-1)

    s0, s1 = prefix(sm), prefix(sm * sv)
    b0, b1 = (prefix(x[..., ::-1])[..., ::-1] for x in (bm, bm * bv))
    return s0[..., k] * b1[..., j] - s1[..., k] * b0[..., j]


def _keys(values, ties):
    """(value, tie) records, which numpy orders lexicographically."""
    keys = np.empty(len(values), dtype=[("v", float), ("t", float)])
    keys["v"], keys["t"] = values, ties
    return keys


def _cleared(inst: Instance, prices) -> np.ndarray:
    """Gains each price in `prices` (records from _keys) clears.

    A price accepts the seller atoms at or below it, a prefix of length k,
    and the buyer atoms at or above it, a suffix from index j.
    """
    s, b = inst.seller, inst.buyer
    k = np.searchsorted(_keys(s.values, s.ties), prices, side="right")
    j = np.searchsorted(_keys(b.values, b.ties), prices, side="left")
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
    cand = np.unique(np.concatenate([_keys(s.values, s.ties),
                                     _keys(b.values, b.ties)]))
    w = s.mean() + _cleared(inst, cand)
    i = int(np.argmax(w >= w.max() * (1.0 - _TIE_RTOL)))
    return Price(float(cand["v"][i]), float(cand["t"][i])), float(w[i])


def scale_instance(inst: Instance, c: float) -> Instance:
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return Instance(
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.seller.atoms)),
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.buyer.atoms)))


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


def _antiderivative(coeffs):
    """Antiderivative of a piece, highest degree first as np.polyval takes it."""
    return np.polyint(np.asarray(coeffs, dtype=float)[::-1])


@dataclass(frozen=True)
class PriceDistribution:
    """Random price rule: point masses plus piecewise-polynomial density.

    atoms: tuple of (Price, prob); density_pieces: tuple of ((a, b),
    coeffs) with the density sum(coeffs[k] * x**k) on [a, b). Total mass
    must be 1, and each piece's minimum over its endpoints and critical
    points (poly_min_on_interval) must not fall below -1e-9.
    """

    atoms: tuple = ()
    density_pieces: tuple = ()

    def __post_init__(self):
        total = 0.0
        for p, prob in self.atoms:
            if not 0.0 <= prob < math.inf:
                raise ValueError("atom probability must be finite and nonnegative")
            total += prob
        for (a, b), coeffs in self.density_pieces:
            if not (0.0 <= a < b):
                raise ValueError(f"bad density interval [{a}, {b})")
            _, mn = poly_min_on_interval(coeffs, a, b)
            if mn < -1e-9:
                raise ValueError(f"density dips to {mn} on [{a}, {b})")
            A = _antiderivative(coeffs)
            total += float(np.polyval(A, b) - np.polyval(A, a))
        if abs(total - 1.0) > _PD_MASS_TOL:
            raise ValueError(f"price distribution mass {total} is not 1")

    @classmethod
    def point(cls, price: Price):
        return cls(atoms=((price, 1.0),))

    @classmethod
    def from_density(cls, pieces):
        """pieces: iterable of ((a, b), coeffs), coeffs ascending by degree."""
        packed = tuple(((float(a), float(b)), tuple(float(c) for c in q))
                       for (a, b), q in pieces)
        return cls(density_pieces=packed)

    def mixed(self, other: "PriceDistribution", w: float) -> "PriceDistribution":
        """w * self + (1-w) * other."""
        if not 0.0 <= w <= 1.0:
            raise ValueError("mixture weight outside [0,1]")
        atoms = tuple((p, w * pr) for p, pr in self.atoms if w * pr > 0)
        atoms += tuple((p, (1 - w) * pr) for p, pr in other.atoms if (1 - w) * pr > 0)
        pieces = tuple((iv, tuple(w * c for c in q))
                       for iv, q in self.density_pieces if w > 0)
        pieces += tuple((iv, tuple((1 - w) * c for c in q))
                        for iv, q in other.density_pieces if w < 1)
        return PriceDistribution(atoms=atoms, density_pieces=pieces)

    def scaled(self, c: float) -> "PriceDistribution":
        """Push forward through p -> c*p; masses are preserved."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        atoms = tuple((Price(p.level * c, p.tie), pr) for p, pr in self.atoms)
        # new density r(y) = q(y/c)/c on [c*a, c*b)
        pieces = tuple(((a * c, b * c), tuple(ck / c ** (k + 1) for k, ck in enumerate(q)))
                       for (a, b), q in self.density_pieces)
        return PriceDistribution(atoms=atoms, density_pieces=pieces)


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
    below = np.searchsorted(sv, bv, side="left")
    c0, cf, c1, c1f = (np.concatenate([[0.0], np.cumsum(x)])[below]
                       for x in (sm, sm * fs, sm * sv, sm * sv * fs))
    return float(bm @ (bv * fb * c0 - bv * cf - fb * c1 + c1f))


def randomized_welfare(inst: Instance, pd: PriceDistribution) -> float:
    """Expected welfare when the price is drawn from pd.

    Atom prices contribute their fixed-price gains; the density pieces
    contribute `_cdf_gains` under their piecewise-polynomial CDF.
    """
    total = inst.seller.mean()
    if pd.atoms:
        probs = np.array([prob for _, prob in pd.atoms])
        prices = _keys([p.level for p, _ in pd.atoms], [p.tie for p, _ in pd.atoms])
        total += float(probs @ _cleared(inst, prices))
    if pd.density_pieces:
        def cdf(x):
            out = np.zeros(len(x))
            for (lo, hi), q in pd.density_pieces:
                A = _antiderivative(q)
                out += np.polyval(A, np.clip(x, lo, hi)) - np.polyval(A, lo)
            return out

        total += _cdf_gains(inst, cdf)
    return float(total)


def instance_to_json(inst: Instance) -> dict:
    def side(d):
        return [{"v": v, "tie": t, "p": m} for v, t, m in d.atoms]
    return {"seller": side(inst.seller), "buyer": side(inst.buyer)}


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
            try:
                atoms.append((float(row["v"]), float(row.get("tie", 0.5)),
                              float(row["p"])))
            except TypeError as e:
                raise ValueError(f"{name} atom fields must be numbers") from e
        return DiscreteDistribution.from_atoms(atoms)

    return Instance(side(obj["seller"], "seller"), side(obj["buyer"], "buyer"))
