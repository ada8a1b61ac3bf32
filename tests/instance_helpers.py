"""Instance and price builders that only the tests use."""

import math

from trademech.core import DiscreteDistribution, Instance, Price


def just_above(level: float) -> Price:
    """The price sitting above every atom at `level` but below any larger
    value; stands in for level + epsilon."""
    return Price(level, 1.0)


def just_below(level: float) -> Price:
    return Price(level, 0.0)


def scale_instance(inst: Instance, c: float) -> Instance:
    # chained comparisons fail on NaN, so this also rejects it
    if not 0.0 < c < math.inf:
        raise ValueError("scale factor must be finite and positive")
    return Instance(
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.seller.atoms)),
        DiscreteDistribution(tuple((v * c, t, m) for v, t, m in inst.buyer.atoms)))
