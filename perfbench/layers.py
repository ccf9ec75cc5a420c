"""Per-layer metrics of a traced run.

Every traced run reports the same per-layer metrics, whatever its
workload.  They come from two sources:

* a traced *panel*: the first cycle of theorem_sweep, unit_series and
  stride_series for the run's seed (without the fixed failing operations),
  and the valid calls of the first cli_calls cycle run in-process through
  ``cli.main`` with output captured;
* direct probes of single functions on fixed inputs, for operations too
  small or too frequent to trace one by one (Scalar arithmetic,
  ``working_precision``, gamma) and for what happens outside the process
  (interpreter start, import) or across threads (``sweep --jobs``).
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from fractions import Fraction

import reference as ref
from tracing import mean, metric, run_ops

GAMMA_ARGS = (0.3, 1.7, 4.25, 9.5, 17.125, 33.3, -0.75, -2.5)
GAMMA_RATIO_ARGS = ((1.3, 2.45), (0.7, 3.9), (5.5, 2.2), (-0.4, 1.15))
PANEL_WORKLOADS = ("theorem_sweep", "unit_series", "stride_series", "cli_calls")


def gamma_share(spans) -> float:
    """Share of root-op time spent in the float gamma of the experimental
    route (``ramanujan_sum._gamma_plane``); 0.0 where it is not called."""
    total = sum(s.dur for s in spans if s.parent < 0)
    gam = sum(s.dur for s in spans if s.name == "ramanujan_sum._gamma_plane")
    return gam / total if total else 0.0


class Panel:
    """The traced panel: one cycle of each workload, grouped by workload."""

    def __init__(self, wl, hs, runner, tracer, seed):
        self.wl, self.hs, self.runner, self.tracer = wl, hs, runner, tracer
        self.groups = {}      # workload -> (ops, results, first span index)
        self.seed = seed

    def run(self):
        for name in PANEL_WORKLOADS:
            ops = [op for op in self.wl.op_list(name, self.seed, 1) if not op.fixed]
            if name == "cli_calls":
                for op in ops:
                    self.runner.prepare(op)
                ops = [self.wl.Op("cli_main", op.prec, (tuple(self.runner.argv(op)),),
                                  ident=op.ident) for op in ops]
            first = len(self.tracer.spans)
            self.tracer.active = True
            results, _, _ = run_ops(self.runner, ops, self.tracer)  # checked by check()
            self.tracer.active = False
            self.groups[name] = (ops, results, first)

    def check(self) -> bool:
        """Every panel op passes its check (CLI calls must exit 0)."""
        for name, (ops, results, _) in self.groups.items():
            for op, res in zip(ops, results):
                if op.kind == "cli_main":
                    if res != 0:
                        return False
                    continue
                out = self.wl.check(op, res, self.wl.reference(op), self.hs, self.runner)
                if not out.ok:
                    return False
        return True

    def _spans(self, name):
        names = list(self.groups)
        first = self.groups[name][2]
        i = names.index(name)
        end = self.groups[names[i + 1]][2] if i + 1 < len(names) else len(self.tracer.spans)
        return self.tracer.spans[first:end]

    def _roots(self, name, kind):
        ops, results, _ = self.groups[name]
        roots = [s for s in self._spans(name) if s.parent < 0]
        return [(op, res, span) for op, res, span in zip(ops, results, roots)
                if op.kind == kind and not isinstance(res, BaseException)]

    def metrics(self, probes) -> dict:
        selft = self.tracer.self_times()
        th, un = self._spans("theorem_sweep"), self._spans("unit_series")
        evals = [s for s in un if s.name.endswith("eval_at_1") and s.tag]
        for op, (res, _), span in self._roots("unit_series", "pfq"):
            is_balanced = len(op.args[1]) == len(op.args[2]) + 1
            span.tag = {"route": "balanced" if is_balanced else "geometric",
                        "terms": res.terms_used}
            evals.append(span)
        balanced = [s for s in evals if s.tag["route"] == "balanced"]
        geometric = [s for s in evals if s.tag["route"] == "geometric"]
        unit_ops = len(self.groups["unit_series"][0])
        stride = self._roots("stride_series", "s_direct")
        m = {
            "numeric_core.pochhammer_exact_us": mean(
                (s.dur for s in th if s.name == "ramanujan_sum.pochhammer"
                 and (s.tag or {}).get("exact")), 1e6),
            "hyper_series.eval_at_1.balanced_ms": mean((s.dur for s in balanced), 1e3),
            "hyper_series.eval_at_1.balanced_terms": mean(s.tag["terms"] for s in balanced),
            "hyper_series.eval_at_1.geometric_ms": mean((s.dur for s in geometric), 1e3),
            "hyper_series.classify_us": mean(
                (s.dur for s in un if s.name == "hyper_series.classify"), 1e6),
            "hyper_series.eval_at_1.calls_per_op": len(
                [s for s in un if s.name.endswith("eval_at_1")]) / unit_ops,
            "ramanujan_sum.s_direct.terminating_ms": mean(
                (s.dur for s in th if s.name == "verifier.s_direct"
                 and (s.tag or {}).get("terminating")), 1e3),
            "ramanujan_sum.s_closed_form_us": mean(
                (s.dur for s in th if s.name == "verifier.s_closed_form"), 1e6),
            "ramanujan_sum.s_polynomial_ms": mean(
                (span.dur for _, _, span in self._roots("theorem_sweep", "s_polynomial")),
                1e3),
            "ramanujan_sum.s_direct.integer_form_ms": mean(
                (span.dur for _, _, span in self._roots("unit_series", "s_integer")), 1e3),
            "ramanujan_sum.recast_params_us": mean(
                (s.dur for s in un if s.name.endswith(".recast_params")), 1e6),
            "ramanujan_sum.s_direct.experimental_ms": mean(
                (span.dur for _, _, span in stride), 1e3),
            "ramanujan_sum.s_direct.experimental_terms": mean(
                res.terms_used for _, (res, _), _ in stride),
            "verifier.verify_point.self_us": mean(
                (selft[s.sid] for s in th if s.name == "verifier.verify_point"), 1e6),
            "verifier.counterexample_eq9_ms": mean(
                (span.dur for _, _, span in self._roots("unit_series", "counterexample")),
                1e3),
            "cli.main_ms": mean(
                (span.dur for _, _, span in self._roots("cli_calls", "cli_main")), 1e3),
        }
        units = {"_us": "us", "_ms": "ms", "_terms": "count", "_per_op": "count"}
        out = {}
        for key, value in m.items():
            unit = next(u for suffix, u in units.items() if key.endswith(suffix))
            out[key] = metric(value, unit)
        out.update(probes)
        return out


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` calls, in s."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def _child_ms(wl, argv, env, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl.run_child(argv, env=env)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def probes(hs, wl, seed, root, src) -> dict:
    nc = hs.numeric_core
    S = hs.Scalar
    ex_a, ex_b = S.exact(Fraction(1234567, 890123)), S.exact(Fraction(-98765, 43211))
    fl_a, fl_b = S.from_float(0.3, 256), S.from_float(1.7, 256)

    def enter_exit():
        with nc.working_precision(256):
            pass

    out = {
        "numeric_core.scalar_mul_exact_us": _per_call(lambda: ex_a * ex_b, 2000) * 1e6,
        "numeric_core.scalar_mul_float_us": _per_call(lambda: fl_a * fl_b, 2000) * 1e6,
        "numeric_core.working_precision_us": _per_call(enter_exit, 2000) * 1e6,
    }
    for prec in (53, 256, 1024):
        xs = [S.from_float(x, prec) for x in GAMMA_ARGS]
        out[f"numeric_core.gamma_{prec}_us"] = _per_call(
            lambda: [nc.gamma(x) for x in xs], 3) / len(xs) * 1e6
    c = ref.ctx(512)
    bits = [ref.correct_bits(nc.gamma(S.from_float(x, 256)).finite.to_mpc(512),
                             c.gamma(c.mpf(x)), 512) for x in GAMMA_ARGS]
    out["numeric_core.gamma_correct_bits_256"] = statistics.median(bits)
    pairs = [(S.from_float(x, 256), S.from_float(y, 256)) for x, y in GAMMA_RATIO_ARGS]
    out["numeric_core.gamma_ratio_float_us"] = _per_call(
        lambda: [nc.gamma_ratio(x, y) for x, y in pairs], 5) / len(pairs) * 1e6

    rng = random.Random(f"sweep/{seed}")
    points = []
    for _ in range(40):
        beta, m = wl._beta_m(rng, wl._frac)
        points.append({"k": rng.randint(0, 20), "beta": beta, "m": m,
                       "z": wl._frac(rng, 0.1, 4.0, True)})
    jobs = len(os.sched_getaffinity(0))
    t1 = _per_call(lambda: hs.sweep(points, jobs=1), 1, 3)
    tn = _per_call(lambda: hs.sweep(points, jobs=jobs), 1, 3)
    out["verifier.sweep.jobs_speedup"] = t1 / tn

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    out["cli.interpreter_start_ms"] = _child_ms(wl, [sys.executable, "-c", "pass"], env, 5)
    code = ("import time; t = time.perf_counter(); import hypersum.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        res = wl.run_child([sys.executable, "-c", code], cwd=root, env=env)
        times.append(float(res.stdout) * 1e3)
    out["cli.import_ms"] = statistics.median(times)

    units = {"_us": "us", "_ms": "ms", "_256": "bits", "_speedup": "ratio"}
    return {key: metric(value, next(u for s, u in units.items() if key.endswith(s)))
            for key, value in out.items()}
