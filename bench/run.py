"""Benchmark of `trademech`: one workload per run, one JSON line out.

    python3 bench/run.py --workload welfare --seed 1 --seconds 20 --trace 0

Workloads: welfare, lower_bnb, paper_claims (see README.md). A run sets
up several times and keeps the median as setup_s, then runs whole rounds
of the workload's fixed operation list; the number of rounds is
--seconds divided by the workload's nominal round time, never a clock
budget. Timed rounds come first; every output is then checked by
bench/checks.py, outside the timing. With --trace 1 the rounds run once
untraced and once traced, the two sets of outputs must agree exactly,
and the per-layer metrics replace the end-to-end ones. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; a
fuller record goes to .bench_results/ at the repository root.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_results"
SETUP_REPS = 9

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("instance_p50_ms", "ms"), ("instance_p90_ms", "ms"),
              ("upper_bound", "ratio"))


def load_program():
    """Import trademech afresh from this checkout's src/ and nowhere else."""
    for name in [m for m in sys.modules if m == "trademech" or m.startswith("trademech.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    core = importlib.import_module("trademech.core")
    origin = Path(core.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"trademech came from {origin}, not from {SRC}")
    return SimpleNamespace(core=core,
                           mean_mech=importlib.import_module("trademech.mean_mech"),
                           fr=importlib.import_module("trademech.factor_revealing"))


def set_up(workload, seed):
    """Import, input generation and warm-up; returns (seconds, M, ops)."""
    start = time.perf_counter()
    M = load_program()
    ops = workload.build(M, seed)
    workloads.warm_up(M)
    return time.perf_counter() - start, M, ops


def run_round(ops, tracer=None):
    """Run every operation once. Returns (wall seconds, per-op seconds,
    outputs by op name, names of ops that raised with their errors)."""
    gc.collect()
    outs, times, raised = {}, [], {}
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            outs[op.name] = op.run(outs)
        except Exception as exc:      # counted as a failed operation; the run goes on
            raised[op.name] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
    return time.perf_counter() - start, times, outs, raised


def judge(ops, rounds):
    """Check the outputs of every round. Round outputs that match the first
    round's exactly share its verdict; any other output is checked on its
    own. Returns (failed count, wrong-output count, problems)."""
    failed = wrong = 0
    problems = []
    verdict = {}
    reference = {}
    for r, (_wall, _times, outs, raised) in enumerate(rounds):
        for op in ops:
            if op.name in raised:
                failed += 1
                problems.append(f"round {r} {op.name} raised {raised[op.name]}")
                continue
            out = outs[op.name]
            try:
                digest = op.digest(out)
                if (op.name, digest) not in verdict:
                    verdict[op.name, digest] = op.check(out, outs)
                bad = list(verdict[op.name, digest])
            except Exception as exc:  # a check that cannot read the output fails it
                digest, bad = None, [f"check raised {type(exc).__name__}: {exc}"]
            ref = reference.setdefault(op.name, digest)
            if digest != ref:
                bad.append("output differs from the first round's")
            if bad:
                failed += 1
                wrong += 1
                problems.extend(f"round {r} {op.name}: {b}" for b in bad)
    return failed, wrong, problems


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def machine():
    import numpy
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    n_rounds = max(1, round(args.seconds / workload.round_s))

    setups = []
    for _ in range(SETUP_REPS):
        seconds, M, ops = set_up(workload, args.seed)
        setups.append(seconds)

    rounds = [run_round(ops) for _ in range(n_rounds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(r[0] for r in rounds)

    layer_rounds, recorded = [], []
    if args.trace:
        t = tracer.Tracer()
        t.install(M)
        try:
            for _ in range(n_rounds):
                rounds.append(run_round(ops, t))
                metrics, spans = t.end_round()
                layer_rounds.append(metrics)
                recorded.append(spans)
        finally:
            t.uninstall()

    failed, wrong, problems = judge(ops, rounds)
    counts = [name for name, unit in tracer.METRICS if unit == "count"]
    for m in layer_rounds[1:]:
        differ = [k for k in counts if m[k] != layer_rounds[0][k]]
        if differ:
            wrong += 1
            problems.append(f"traced rounds disagree on {differ}")
    attempted = len(ops) * len(rounds)
    first = rounds[0][2]

    if args.trace:
        traced_run_s = statistics.median(r[0] for r in rounds[n_rounds:])
        values = {name: statistics.median(m[name] for m in layer_rounds)
                  for name, _ in tracer.METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = traced_run_s - run_s
        units = dict(tracer.METRICS)
    else:
        per_op_ms = [1e3 * statistics.median(r[1][k] for r in rounds)
                     for k in range(len(ops))]
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb,
            "instance_p50_ms": statistics.median(per_op_ms),
            "instance_p90_ms": p90(per_op_ms),
            "upper_bound": (workload.upper_bound(first)
                            if len(first) == len(ops) else float("nan")),
        }
        units = dict(END_TO_END)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in values.items()}}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  rounds=n_rounds, setup_s_reps=setups,
                  round_s=[r[0] for r in rounds],
                  op_names=[op.name for op in ops],
                  op_s=[r[1] for r in rounds], layer_rounds=layer_rounds,
                  problems=problems, machine=machine())
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.Tracer.write(OUT_DIR / f"spans-{stem}.json", recorded)
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        import checks       # noqa: F401  (imports numpy after the thread pinning)
        import tracer
        import workloads
        load_program()
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
