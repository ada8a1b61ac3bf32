"""The benchmark's three workloads: inputs, operations and warm-up.

Every workload is a fixed list of operations. A round runs the list once
in order; an operation may read the outputs of earlier operations of the
same round. The program is reached only through the module attributes of
`M` (core, mean_mech, fr), looked up at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]             # outputs of this round so far -> output
    check: Callable[[Any, dict], list]     # (output, round outputs) -> problems
    digest: Callable[[Any], tuple]         # output -> exact comparable values


def _floats(*values):
    return tuple(float(v) for v in values)


# ------------------------------------------------------------------ welfare

WELFARE_INSTANCES = 120
WELFARE_MIN_ATOMS, WELFARE_MAX_ATOMS = 8, 256
LATTICE = 128.0       # values are multiples of 1/128, so the two sides share levels
TIES = (0.0, 0.5, 1.0)


def welfare_sizes():
    """(seller atoms, buyer atoms) per instance, independent of the seed.

    Seller counts run log-uniformly from 8 to 256; buyer counts are the
    same schedule in a fixed stride-37 permutation.
    """
    n = WELFARE_INSTANCES
    ratio = WELFARE_MAX_ATOMS / WELFARE_MIN_ATOMS
    sizes = [int(round(WELFARE_MIN_ATOMS * ratio ** (k / (n - 1)))) for k in range(n)]
    return [(sizes[k], sizes[(37 * k) % n]) for k in range(n)]


# (seller lattice range, buyer lattice range, Dirichlet concentration) by k % 3:
# overlapping sides, identical sides, and a buyer side with a long upper tail.
FAMILIES = (((0, 384), (128, 512), 1.0),
            ((0, 512), (0, 512), 0.5),
            ((0, 256), (0, 2048), 2.0))


def _side(core, rng, n, span, alpha):
    lo, hi = span
    values = rng.choice(np.arange(lo, hi), size=n, replace=False) / LATTICE
    ties = rng.choice(TIES, size=n)
    masses = rng.dirichlet(np.full(n, alpha)) + 1e-3
    masses /= masses.sum()
    return core.DiscreteDistribution.from_atoms(zip(values, ties, masses))


def welfare_instances(core, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k, (ns, nb) in enumerate(welfare_sizes()):
        s_span, b_span, alpha = FAMILIES[k % 3]
        out.append(core.Instance(_side(core, rng, ns, s_span, alpha),
                                 _side(core, rng, nb, b_span, alpha)))
    return out


def _welfare_op(M, k, inst):
    def run(_outs):
        core, mm = M.core, M.mean_mech
        opt = core.opt_welfare(inst)
        price, best = core.best_fixed_price(inst)
        seller = mm.mean_mech_welfare(
            mm.MeanMechanism(mm.SELLER_MEAN, inst.seller.mean()), inst)
        buyer = mm.mean_mech_welfare(
            mm.MeanMechanism(mm.BUYER_MEAN, inst.buyer.mean()), inst)
        return {"opt": opt, "best_price": price, "best": best,
                "seller_lottery": seller, "buyer_lottery": buyer}

    def digest(out):
        p = out["best_price"]
        return _floats(out["opt"], p.level, p.tie, out["best"],
                       out["seller_lottery"], out["buyer_lottery"])

    return Op(f"instance{k:03d}", run, lambda out, _outs: checks.check_welfare(inst, out),
              digest)


def welfare_ops(M, seed):
    insts = welfare_instances(M.core, seed)
    return [_welfare_op(M, k, inst) for k, inst in enumerate(insts)]


def welfare_upper_bound(outs):
    """Smallest best-fixed-price share of the optimum over the instances:
    each instance witnesses that no guarantee exceeds its own share."""
    return min(o["best"] / o["opt"] for o in outs.values())


# ---------------------------------------------------------------- lower_bnb

# (levels, gap_tol): one grid that closes at the root, 3-level grids that
# need 7 to 77 nodes, and one 4-level grid.
BNB_GRIDS = (((0.0, 0.3, 1000.0), 1e-3),
             ((0.0, 0.35, 1000.0), 2e-3),
             ((0.0, 0.4, 1000.0), 2e-3),
             ((0.0, 0.45, 1000.0), 3e-3),
             ((0.0, 0.6, 1000.0), 5e-3),
             ((0.0, 0.4, 1.0, 1000.0), 2e-2))


def _bnb_op(M, levels, gap):
    grid = M.fr.PriceGrid(levels)

    def run(_outs):
        return M.fr.lowerop_solve(grid, "branch_and_bound", gap_tol=gap)

    def digest(cert):
        i = cert.info
        return _floats(cert.r, i.lower_bound, i.upper_bound, i.nodes, *cert.s, *cert.b)

    name = "grid" + "_".join(f"{v:g}" for v in levels)
    return Op(name, run, lambda cert, _outs: checks.check_bnb(cert, gap), digest)


def lower_bnb_ops(M, _seed):
    """The grid set is fixed: the seed does not change these inputs."""
    return [_bnb_op(M, levels, gap) for levels, gap in BNB_GRIDS]


def lower_bnb_upper_bound(outs):
    """Largest incumbent r over the grid set."""
    return max(c.info.upper_bound for c in outs.values())


# ------------------------------------------------------------- paper_claims

UPPER_RESTARTS = 64
TWO_THIRDS_STEP = 0.02
HARDNESS_EPS = (0.05, 0.02, 0.01, 0.005)
ONE_SIDED = ("buyer", "seller")


def _cert_digest(c):
    return _floats(c.r, c.info.iterations, *c.s, *c.b)


def _check_upper(out, _outs):
    cert, inst = out
    if not 0.0 < cert.r < 1.0:
        return [f"upper r {cert.r!r} outside (0, 1)"]
    return checks.check_hard_instance(inst, cert.r)


def _check_one_sided(ratios, outs):
    # The hard instance's other side is one adversary choice, and its
    # exclusive rows never beat the inclusive rows it was built on, so no
    # lottery certifies more than the hard instance's ratio.
    bound = outs["upper_bound"][0].r
    return [f"one-sided {side} ratio {r!r} outside [0, {bound!r}]"
            for side, r in zip(ONE_SIDED, ratios)
            if not 0.0 <= r <= bound + checks.CERT_TOL]


def paper_claims_ops(M, seed):
    """One operation per claim; each runs its steps for both sides."""
    grid = M.fr.REFERENCE_GRID_16
    lotteries = (M.mean_mech.BUYER_MEAN, M.mean_mech.SELLER_MEAN)

    def upper(_outs):
        cert = M.fr.upperop_search(grid, UPPER_RESTARTS, seed=seed)
        return cert, M.fr.upperop_to_instance(cert)

    def upper_digest(out):
        cert, inst = out
        return _cert_digest(cert) + _floats(
            *(x for a in inst.seller.atoms + inst.buyer.atoms for x in a))

    def alternating(_outs):
        return M.fr.lowerop_solve(grid, "alternating")

    def one_sided(outs):
        c = outs["upper_bound"][0]
        return [M.fr.one_sided_certify(c.grid, side, c.b if side == "buyer" else c.s)
                for side in ONE_SIDED]

    def two_thirds(_outs):
        return [M.mean_mech.verify_two_thirds(side, step=TWO_THIRDS_STEP)
                for side in lotteries]

    def check_two_thirds(out, _outs):
        return [p for side, (minimum, witness) in zip(lotteries, out)
                for p in checks.check_two_thirds(side, minimum, witness)]

    def hardness(_outs):
        return [[M.mean_mech.two_thirds_hardness(side, eps)[1] for eps in HARDNESS_EPS]
                for side in lotteries]

    return [Op("upper_bound", upper, _check_upper, upper_digest),
            Op("lower_alternating", alternating,
               lambda c, _outs: checks.check_lower_certificate(c), _cert_digest),
            Op("one_sided", one_sided, _check_one_sided, lambda r: _floats(*r)),
            Op("two_thirds", two_thirds, check_two_thirds,
               lambda out: _floats(*(v for m, w in out for v in (m, *w)))),
            Op("hardness", hardness,
               lambda out, _outs: [p for vals in out for p in checks.check_hardness(vals)],
               lambda out: _floats(*(v for vals in out for v in vals)))]


def paper_claims_upper_bound(outs):
    return outs["upper_bound"][0].r


# -------------------------------------------------------------------- table

WARM_GRID = (0.0, 0.3, 1000.0)


def warm_up(M):
    """Fill the lottery cache and touch the LP path, so the timed rounds
    start warm."""
    for side in (M.mean_mech.SELLER_MEAN, M.mean_mech.BUYER_MEAN):
        M.mean_mech._unit_lottery(side)
    M.fr.lowerop_solve(M.fr.PriceGrid(WARM_GRID), "alternating")
    M.mean_mech.two_thirds_hardness(M.mean_mech.BUYER_MEAN, 0.05)


@dataclass(frozen=True)
class Workload:
    build: Callable[[Any, int], list]
    upper_bound: Callable[[dict], float]
    round_s: float          # nominal seconds per round on the reference machine


WORKLOADS = {
    "welfare": Workload(welfare_ops, welfare_upper_bound, 5.0),
    "lower_bnb": Workload(lower_bnb_ops, lower_bnb_upper_bound, 5.0),
    "paper_claims": Workload(paper_claims_ops, paper_claims_upper_bound, 2.5),
}
