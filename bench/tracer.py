"""Spans and counters recorded around calls into the program's layers.

The tracer wraps public functions of `trademech` where the calling
module imports them, so the program itself is not edited. A span is
(id, parent id, operation id, name, start, end); spans are kept in
memory and written out when the run ends. A layer's self time is its
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LP = "numkernel.lp.lp_solve"
POLY_MIN = "numkernel.poly.poly_min_on_interval"
SEARCH = "numkernel.search.certified_binary_search"
BEST = "core.best_fixed_price"
RANDOMIZED = "core.randomized_welfare"
OPT = "core.opt_welfare"
MEAN_WELFARE = "mean_mech.mean_mech_welfare"
SCAN = "mean_mech.verify_two_thirds"
HARDNESS = "mean_mech.two_thirds_hardness"
BNB = "factor_revealing.lowerop_solve[branch_and_bound]"
ALTERNATING = "factor_revealing.lowerop_solve[alternating]"
UPPER = "factor_revealing.upperop_search"
TO_INSTANCE = "factor_revealing.upperop_to_instance"
ONE_SIDED = "factor_revealing.one_sided_certify"

# Per-layer metrics, in the order they are reported: (name, unit).
METRICS = (
    ("numkernel.lp.calls", "count"),
    ("numkernel.lp.pivots", "count"),
    ("numkernel.lp.self_s", "s"),
    ("numkernel.lp.ms_per_call", "ms"),
    ("numkernel.lp.us_per_pivot", "us"),
    ("numkernel.poly.calls", "count"),
    ("numkernel.poly.self_s", "s"),
    ("numkernel.search.probes", "count"),
    ("core.best_fixed_price_s", "s"),
    ("core.randomized_welfare_s", "s"),
    ("core.opt_welfare_s", "s"),
    ("core.price_evals", "count"),
    ("mean_mech.welfare_self_s", "s"),
    ("mean_mech.scan_s", "s"),
    ("mean_mech.scan_points", "count"),
    ("mean_mech.hardness_s", "s"),
    ("factor_revealing.bnb_nodes", "count"),
    ("factor_revealing.bnb_self_s", "s"),
    ("factor_revealing.bnb_lp_share", "ratio"),
    ("factor_revealing.nodes_per_s", "1/s"),
    ("factor_revealing.upper_iterations", "count"),
    ("factor_revealing.upper_self_s", "s"),
    ("factor_revealing.one_sided_s", "s"),
    ("factor_revealing.alternating_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


def _lowerop_name(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "branch_and_bound")
    return f"factor_revealing.lowerop_solve[{mode}]"


class Tracer:
    """Records spans and counts while installed; restores every patch on
    uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, label, start, end)
            if after is not None:
                after(label, out)
            return out
        return wrapper

    def _counter(self, name, fn, weigh=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1 if weigh is None else weigh(out)
            return out
        return wrapper

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _after_lp(self, _label, sol):
        self.counts["lp_pivots"] += int(sol.iterations)

    def _after_lowerop(self, label, cert):
        if label == BNB:
            self.counts["bnb_nodes"] += int(cert.info.nodes)

    def _after_upper(self, _label, cert):
        self.counts["upper_iterations"] += int(cert.info.iterations)

    def _search(self, fn):
        counts = self.counts

        def counted_search(check, *args, **kwargs):
            def probe(r):
                counts["search_probes"] += 1
                return check(r)
            return fn(probe, *args, **kwargs)
        return self._span(SEARCH, functools.wraps(fn)(counted_search))

    def install(self, M):
        """Wrap the layer entry points at each module that calls them.

        M holds the imported modules core, mean_mech and fr
        (factor_revealing); the benchmark calls the program through
        these module attributes too.
        """
        core, mm, fr = M.core, M.mean_mech, M.fr
        for mod in (fr, mm):
            self._patch(mod, "lp_solve", self._span(LP, mod.lp_solve, self._after_lp))
        self._patch(core, "poly_min_on_interval",
                    self._span(POLY_MIN, core.poly_min_on_interval))
        self._patch(fr, "certified_binary_search",
                    self._search(fr.certified_binary_search))
        for mod in (core, fr):
            self._patch(mod, "best_fixed_price", self._span(BEST, mod.best_fixed_price))
        for mod in (core, mm, fr):
            self._patch(mod, "opt_welfare", self._span(OPT, mod.opt_welfare))
        self._patch(mm, "randomized_welfare",
                    self._span(RANDOMIZED, mm.randomized_welfare))
        for mod in (core, mm):
            self._patch(mod, "fixed_price_welfare",
                        self._counter("price_evals", mod.fixed_price_welfare))
        self._patch(mm, "family_objective",
                    self._counter("scan_points", mm.family_objective,
                                  weigh=lambda out: int(out.size)))
        for attr, name in (("mean_mech_welfare", MEAN_WELFARE),
                           ("verify_two_thirds", SCAN),
                           ("two_thirds_hardness", HARDNESS)):
            self._patch(mm, attr, self._span(name, getattr(mm, attr)))
        self._patch(fr, "lowerop_solve",
                    self._span(_lowerop_name, fr.lowerop_solve, self._after_lowerop))
        self._patch(fr, "upperop_search",
                    self._span(UPPER, fr.upperop_search, self._after_upper))
        self._patch(fr, "upperop_to_instance",
                    self._span(TO_INSTANCE, fr.upperop_to_instance))
        self._patch(fr, "one_sided_certify",
                    self._span(ONE_SIDED, fr.one_sided_certify))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reporting

    def layer_metrics(self):
        """Per-layer metrics over the spans and counts of this round."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for sid, parent, _op, name, start, end in self.spans:
            d = end - start
            total[name] += d
            calls[name] += 1
            if parent is not None:
                child[parent] += d
        for sid, _parent, _op, name, start, end in self.spans:
            own[name] += (end - start) - child[sid]
        c = self.counts
        lp_calls, lp_self, pivots = calls[LP], own[LP], c["lp_pivots"]
        bnb_total = total[BNB]
        return {
            "numkernel.lp.calls": lp_calls,
            "numkernel.lp.pivots": pivots,
            "numkernel.lp.self_s": lp_self,
            "numkernel.lp.ms_per_call": 1e3 * lp_self / lp_calls if lp_calls else 0.0,
            "numkernel.lp.us_per_pivot": 1e6 * lp_self / pivots if pivots else 0.0,
            "numkernel.poly.calls": calls[POLY_MIN],
            "numkernel.poly.self_s": own[POLY_MIN],
            "numkernel.search.probes": c["search_probes"],
            "core.best_fixed_price_s": total[BEST],
            "core.randomized_welfare_s": total[RANDOMIZED],
            "core.opt_welfare_s": total[OPT],
            "core.price_evals": c["price_evals"],
            "mean_mech.welfare_self_s": own[MEAN_WELFARE],
            "mean_mech.scan_s": total[SCAN],
            "mean_mech.scan_points": c["scan_points"],
            "mean_mech.hardness_s": total[HARDNESS],
            "factor_revealing.bnb_nodes": c["bnb_nodes"],
            "factor_revealing.bnb_self_s": own[BNB],
            "factor_revealing.bnb_lp_share":
                (bnb_total - own[BNB]) / bnb_total if bnb_total else 0.0,
            "factor_revealing.nodes_per_s":
                c["bnb_nodes"] / bnb_total if bnb_total else 0.0,
            "factor_revealing.upper_iterations": c["upper_iterations"],
            "factor_revealing.upper_self_s": own[UPPER],
            "factor_revealing.one_sided_s": total[ONE_SIDED],
            "factor_revealing.alternating_s": total[ALTERNATING],
            "trace.spans": len(self.spans),
        }

    def end_round(self):
        """Close a round: returns its per-layer metrics and its (spans,
        counts), and clears both for the next round."""
        metrics = self.layer_metrics()
        recorded = (list(self.spans), dict(self.counts))
        self.spans.clear()
        self.counts.clear()
        return metrics, recorded

    @staticmethod
    def write(path, rounds):
        """Write the recorded spans of each traced round as JSON."""
        doc = {"fields": ["id", "parent", "op", "name", "start_s", "end_s"],
               "rounds": [{"counts": counts, "spans": spans}
                          for spans, counts in rounds]}
        with open(path, "w") as f:
            json.dump(doc, f)
