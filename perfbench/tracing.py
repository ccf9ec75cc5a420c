"""Span tracing from the benchmark's side of each module boundary, and the
per-layer metrics computed from the spans.

The tracer replaces public functions under the name their *calling* module
binds (``verifier.s_direct``, ``ramanujan_sum.eval_at_1``, ...), records one
span per call (name, start, duration, parent span, the operation it belongs
to) and keeps the spans in memory until the run ends.  Nothing inside
hypersum is edited.  A name missing from a module is skipped, so a later
refactor that drops a binding loses that span rather than the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional

# (module, attribute): the functions whose calls become spans.  Internal
# calls that go through a module global (eval_at_1 -> classify,
# s_direct -> s_integer_form, verify_theorem -> verify_point) are caught
# because the global is replaced.
BOUNDARIES = (
    ("verifier", "verify_point"),
    ("verifier", "s_direct"),
    ("verifier", "s_closed_form"),
    ("verifier", "eval_at_1"),
    ("verifier", "recast_params"),
    ("verifier", "gamma"),
    ("verifier", "gamma_ratio"),
    ("ramanujan_sum", "s_integer_form"),
    ("ramanujan_sum", "recast_params"),
    ("ramanujan_sum", "eval_at_1"),
    ("ramanujan_sum", "gamma_ratio"),
    ("ramanujan_sum", "pochhammer"),
    ("ramanujan_sum", "_gamma_plane"),
    ("hyper_series", "classify"),
    ("numeric_core", "gamma"),
    ("cli", "eval_at_1"),
    ("cli", "s_direct"),
    ("cli", "verify_theorem"),
    ("cli", "counterexample_eq9"),
    ("cli", "inner_sum_E"),
    ("cli", "sweep"),
)


# root span name of each op kind: the public function the op calls
ROOT_SPAN = {
    "theorem": "verifier.verify_theorem",
    "s_polynomial": "ramanujan_sum.s_polynomial",
    "pfq": "hyper_series.eval_at_1",
    "s_integer": "ramanujan_sum.s_direct",
    "s_direct": "ramanujan_sum.s_direct",
    "counterexample": "verifier.counterexample_eq9",
    "cli": "cli.subprocess",
    "cli_main": "cli.main",
    "gamma": "numeric_core.gamma",
}


# how far the summed self times of an op may lie from its latency: the
# latency also holds the tracer's own work around the root span
OP_TIME_TOL_S = 1e-3
OP_TIME_TOL_SHARE = 0.01


def run_ops(runner, ops, tracer=None):
    """Run ``ops`` one after another (a closed loop with one caller), each
    under its root span when ``tracer`` is given.  Returns (results,
    latencies in s, wall time in s); an op that raises has the exception as
    its result."""
    results, lat = [], []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = runner.execute(op)
            else:
                res = tracer.call(ROOT_SPAN[op.kind], runner.execute, op)
        except Exception as exc:  # an op that raises is a failed op
            res = exc
        lat.append(time.perf_counter() - t0)
        results.append(res)
    return results, lat, time.perf_counter() - t_start


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


class Span:
    __slots__ = ("sid", "parent", "op", "name", "start", "dur", "tag")

    def __init__(self, sid, parent, op, name):
        self.sid, self.parent, self.op, self.name = sid, parent, op, name
        self.start = self.dur = 0.0
        self.tag = None


def _eval_route(args, kwargs, res):
    params = args[0]
    kind = res.classification.kind.value
    if kind == "convergent":
        route = "balanced" if params.p == params.q + 1 else "geometric"
    else:
        route = kind
    return {"route": route, "terms": res.terms_used}


def _exact_arg(args, kwargs, res):
    return {"exact": args[0].is_exact}


def _terminating(args, kwargs, res):
    return {"terminating": args[0].terminating_k is not None}


TAGS: Dict[str, Callable] = {
    "eval_at_1": _eval_route,
    "pochhammer": _exact_arg,
    "s_direct": _terminating,
}


class Tracer:
    """Records spans while ``active``; single-threaded use only."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._saved = []
        self.active = False

    def call(self, name: str, fn, *args, tag: Optional[Callable] = None, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.sid if parent else -1,
                    parent.op if parent else len(self.spans), name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            span.dur = time.perf_counter() - span.start
            self._stack.pop()
        if tag is not None:
            span.tag = tag(args, kwargs, res)
        return res

    def install(self, package) -> None:
        """Wrap every boundary function present in ``package``'s modules."""
        for mod_name, attr in BOUNDARIES:
            module = getattr(package, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            name = f"{mod_name}.{attr}"
            tag = TAGS.get(attr)

            def wrapper(*args, _fn=fn, _name=name, _tag=tag, **kwargs):
                return self.call(_name, _fn, *args, tag=_tag, **kwargs)

            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Span duration minus the durations of its direct children."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def check_ops(self, spans: List[Span], latencies: List[float],
                  tol: float = 1e-6) -> float:
        """Check the spans of a traced ``run_ops`` against its per-op
        latencies: there is one root span per op, every child lies inside
        its parent, and the self times of an op's spans add up to the op's
        latency, which ``run_ops`` measures outside the tracer.  Returns the
        largest gap between the two, in s."""
        by_id = {s.sid: s for s in self.spans}
        selft = self.self_times()
        totals = {}
        for s in spans:
            totals[s.op] = totals.get(s.op, 0.0) + selft[s.sid]
            if s.parent < 0:
                continue
            p = by_id[s.parent]
            if s.start < p.start - tol or s.start + s.dur > p.start + p.dur + tol:
                raise AssertionError(f"span {s.name} escapes its parent {p.name}")
        if len(totals) != len(latencies):
            raise AssertionError(f"{len(totals)} root spans for {len(latencies)} ops")
        worst = 0.0
        for (op, total), lat in zip(sorted(totals.items()), latencies):
            gap = abs(lat - total)
            if gap > OP_TIME_TOL_S + OP_TIME_TOL_SHARE * lat:
                raise AssertionError(
                    f"self times of op {op} add to {total:.6f} s, op took {lat:.6f} s")
            worst = max(worst, gap)
        return worst

    def to_json(self) -> list:
        return [[s.sid, s.parent, s.op, s.name, round(s.start, 7), round(s.dur, 7),
                 s.tag] for s in self.spans]


def mean(values, scale=1.0) -> float:
    """Mean times ``scale``; 0.0 when the layer was not reached."""
    values = list(values)
    return statistics.fmean(values) * scale if values else 0.0
