"""Each benchmark check must pass the program's true output and flag a
planted error. Run with: python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from trademech import core, factor_revealing as fr, mean_mech as mm  # noqa: E402


def _welfare_output(inst):
    price, best = core.best_fixed_price(inst)
    return {"opt": core.opt_welfare(inst), "best_price": price, "best": best,
            "seller_lottery": mm.mean_mech_welfare(
                mm.MeanMechanism(mm.SELLER_MEAN, inst.seller.mean()), inst),
            "buyer_lottery": mm.mean_mech_welfare(
                mm.MeanMechanism(mm.BUYER_MEAN, inst.buyer.mean()), inst)}


def test_welfare_check_flags_an_error_of_1e_6():
    inst = workloads.welfare_instances(core, seed=3)[10]
    out = _welfare_output(inst)
    assert checks.check_welfare(inst, out) == []
    for key in ("best", "opt", "seller_lottery", "buyer_lottery"):
        planted = dict(out, **{key: out[key] + 1e-6})
        assert checks.check_welfare(inst, planted), key


def test_sweep_matches_pairwise_loop():
    inst = workloads.welfare_instances(core, seed=5)[0]
    cand, sweep = checks.sweep_fixed_prices(inst)
    for (level, tie), w in zip(cand, sweep):
        p = core.Price(level, tie)
        gains = sum(ms * mb * (vb - vs)
                    for vs, ts, ms in inst.seller.atoms if (vs, ts) <= (level, tie)
                    for vb, tb, mb in inst.buyer.atoms if (vb, tb) >= (level, tie))
        assert abs(w - (inst.seller.mean() + gains)) < 1e-12, p


def test_hard_instance_check_flags_a_ratio_above_the_bound():
    cert = fr.upperop_search(fr.REFERENCE_GRID_16, 2, seed=1)
    inst = fr.upperop_to_instance(cert)
    assert checks.check_hard_instance(inst, cert.r) == []
    assert checks.check_hard_instance(inst, cert.r - 1e-6)


def test_bnb_check_flags_a_lower_bound_above_a_feasible_value():
    gap = 1e-3
    cert = fr.lowerop_solve(fr.PriceGrid((0.0, 0.3, 1000.0)), "branch_and_bound",
                            gap_tol=gap)
    assert checks.check_bnb(cert, gap) == []
    feasible = checks.highs_s_min(cert.grid.prices, cert.b)
    info = dataclasses.replace(cert.info, lower_bound=feasible + 1e-3)
    planted = dataclasses.replace(cert, info=info)
    assert any("exceeds the feasible value" in p for p in checks.check_bnb(planted, gap))


def test_lower_certificate_check_flags_r_below_the_worst_row():
    cert = fr.lowerop_solve(fr.PriceGrid((0.0, 0.4, 1000.0)), "alternating")
    assert checks.check_lower_certificate(cert) == []
    planted = dataclasses.replace(cert, r=cert.r - 1e-6)
    assert checks.check_lower_certificate(planted)


def test_two_thirds_check_flags_a_wrong_witness_or_a_negative_minimum():
    minimum, witness = mm.verify_two_thirds(mm.SELLER_MEAN, step=0.1)
    assert checks.check_two_thirds(mm.SELLER_MEAN, minimum, witness) == []
    assert checks.check_two_thirds(mm.SELLER_MEAN, minimum + 1e-6, witness)
    assert checks.check_two_thirds(mm.SELLER_MEAN, -1e-6, witness)


def test_hardness_check_flags_values_that_do_not_decrease():
    assert checks.check_hardness([0.70, 0.68, 0.67]) == []
    assert checks.check_hardness([0.68, 0.70, 0.67])
    assert checks.check_hardness([0.68, 0.66])
