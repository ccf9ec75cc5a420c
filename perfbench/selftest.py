"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Part one shows that the references of reference.py reproduce classical
results and agree with each other where two of them cover the same value.
Part two shows that ``workloads.check`` passes a correct result and counts a
perturbed one as failed.  Part three shows that the stride pool is the
candidate stream that stride_pool.py draws from.  Part four shows that the
tracer's check of spans against latencies fails on a misparented span and
on a latency the spans do not account for.  Exits non-zero on the first
failed test.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _close(a, b, bits):
    c = ref.ctx(bits)
    a, b = c.mpmathify(a), c.mpmathify(b)
    return abs(a - b) <= abs(b) * c.mpf(2) ** (8 - bits)


def _require(cond, what):
    if not cond:
        raise AssertionError(what)


# -- references -------------------------------------------------------------------


def test_theorem_reference_known_value():
    # S(-2, 1/2, 1/3, 7/2) = (1/2 + 1 - 1/3 - 2)_2 = -5/36
    _require(ref.theorem_reference(2, F(1, 2), F(1, 3), F(7, 2)) == F(-5, 36), "-5/36")
    for k in (0, 1, 5, 13):
        ref.theorem_reference(k, F(3, 7), F(2, 9), F(5, 3))   # raises on disagreement


def test_theorem_reference_rejects_wrong_series():
    bad = ref.theorem_series(4, F(3, 7), F(2, 9), F(5, 3)) + F(1, 10**9)
    _require(bad != ref.theorem_closed_form(4, F(3, 7), F(2, 9)), "perturbed series equal")


def test_gauss_chu_vandermonde():
    # 2F1(a, -n; c; 1) = (c-a)_n / (c)_n
    c = ref.ctx(256)
    a, n, cc = F(1, 3), 4, F(7, 4)
    want = ref.rising(cc - a, n) / ref.rising(cc, n)
    _require(_close(ref.gauss_2f1(c, a, -n, cc), ref.num(c, want), 256),
             "Chu-Vandermonde")
    # Gauss at b = 1/2, a = 1/2, c = 2: Gamma(2) Gamma(1) / Gamma(3/2)^2 = 4/pi
    _require(_close(ref.gauss_2f1(c, F(1, 2), F(1, 2), 2), 4 / c.pi, 256), "4/pi")


def test_closed_forms_match_mp_hyper():
    c = ref.ctx(64)
    cases = [
        (ref.gauss_2f1(c, F(1, 3), F(1, 4), F(25, 12)),
         ((F(1, 3), F(1, 4)), (F(25, 12),))),
        (ref.dixon_3f2(c, F(3, 2), F(1, 3), F(1, 4)),
         ((F(3, 2), F(1, 3), F(1, 4)), (F(13, 6), F(9, 4)))),
        (ref.km_4f3(c, F(1, 3), F(1, 4), F(7, 2), F(2, 5), F(3, 4)),
         ((F(1, 3), F(1, 4), F(7, 5), F(7, 4)), (F(7, 2), F(2, 5), F(3, 4)))),
    ]
    for closed, (numer, denom) in cases:
        _require(_close(closed, ref.hyper(c, numer, denom), 60),
                 f"closed form vs mp.hyper for {numer};{denom}")


def test_s_series_extrapolation():
    c = ref.ctx(106)
    # non-integer z: Richardson and Levin extrapolation agree
    args = (F(-1, 4), F(1, 2), F(1, 3), F(5, 2))
    _require(_close(ref.s_series(c, *args), ref.s_series(c, *args, method="levin"), 100),
             "Richardson vs Levin")
    # z = 1, m = alpha+beta+1: the reduced counterexample expression;
    # alpha = beta = 1/2 gives 2 / (3/2 Gamma(3/2)) = 1.5045...
    alpha, beta = F(1, 2), F(1, 2)
    series = ref.s_series(c, alpha, beta, alpha + beta + 1, 1)
    _require(_close(series, ref.counterexample(c, alpha, beta), 100), "counterexample")
    _require(abs(series - c.mpf("1.50451")) < 1e-5, "S(1) = 1.5045...")


def test_inner_sum():
    _require(ref.inner_sum(F(2, 3), 2, 0) == 1, "E at r = 0")
    _require(all(ref.inner_sum(F(2, 3), n, r) == 0 for n in (1, 3) for r in (1, 4)),
             "E at r >= 1")


def test_correct_bits():
    _require(ref.correct_bits(F(1, 3), F(1, 3), 512) == 512, "exact reads the cap")
    c = ref.ctx(128)
    bits = ref.correct_bits(c.mpf(1) + c.mpf(2) ** -40, 1, 256)
    _require(39.9 < bits < 40.1, f"2^-40 error reads {bits}")


# -- the checker ---------------------------------------------------------------------


def _perturbed(hs, value, prec, rel):
    with hs.numeric_core.working_precision(prec):
        v = value * (1 + hs.numeric_core.mp.mpf(rel))
    return hs.SphereValue.of(hs.Scalar(val=hs.numeric_core.mp.mpc(v), prec=prec))


def test_check_pfq_and_perturbation():
    import hypersum as hs
    op = wl.Op("pfq", 256, ("gauss", (F(1, 3), F(1, 4)), (F(25, 12),)))
    ctx = hs.EvalContext(precision=256)
    res = hs.eval_at_1(hs.HypParams(*op.args[1:]), ctx)
    expected = wl.reference(op)
    _require(wl.check(op, (res, ctx), expected, hs).ok, "correct pfq passes")
    bad = hs.EvalResult(_perturbed(hs, res.value.finite.to_mpc(256), 256, 1e-9),
                        res.terms_used, res.tail_bound, res.classification)
    _require(not wl.check(op, (bad, ctx), expected, hs).ok, "perturbed pfq fails")


def test_check_theorem_exact_and_perturbation():
    import hypersum as hs
    op = wl.Op("theorem", wl.EXACT_PREC, (6, F(3, 7), F(2, 9), F(5, 3)))
    rep = hs.verify_theorem(*op.args)
    expected = wl.reference(op)
    out = wl.check(op, rep, expected, hs)
    _require(out.ok and out.bits == 2 * wl.EXACT_PREC, "exact point reads the cap")
    _require(not wl.check(op, rep, expected + F(1, 10**30), hs).ok,
             "perturbed exact reference fails")


def test_check_cli():
    import hypersum as hs
    import hypersum.cli  # noqa: F401
    op = wl._cli("pfq", ["eval", "pfq"], (F(1, 3), F(1, 4), F(25, 12)))
    expected = wl.reference(op)
    c = ref.ctx(512)
    good = '{"command": "eval pfq", "params": {}, "timing_s": 0.1, "result": {"decimal": "%s"}}'

    def proc(stdout, rc=0, stderr=""):
        return subprocess.CompletedProcess([], rc, stdout, stderr)

    text = c.nstr(expected, 75)
    _require(wl.check(op, proc(good % text), expected, hs).ok, "CLI value passes")
    text = c.nstr(expected * (1 + c.mpf(10) ** -10), 75)
    _require(not wl.check(op, proc(good % text), expected, hs).ok, "CLI perturbed fails")
    _require(not wl.check(op, proc('{"params": {}}'), expected, hs).ok, "schema")
    bad = wl._cli("malformed", ["eval", "pfq", "--precision=10"])
    _require(not wl.check(bad, proc("", 1, "Traceback (most recent call last):\n  x\n"),
                          None, hs).ok, "traceback fails")
    _require(wl.check(bad, proc("", 1, "hypersum: error: precision\n"), None, hs).ok,
             "one-line error passes")


# -- inputs ------------------------------------------------------------------------


def test_stride_pool_is_its_candidate_stream():
    """Each pool entry is the candidate its index names, and a 60-s run
    draws no parameter set twice."""
    import json
    import stride_pool
    entries = json.loads((HERE / "stride_pool.json").read_text())["params"]
    for (i, *_), params in zip(entries, wl.stride_pool()):
        _require(stride_pool.candidate(i) == params, f"pool entry {i}")
    ops = wl.op_list("stride_series", 7, wl.cycles_for("stride_series", 60))
    _require(len({op.args for op in ops}) == len(ops), "repeated stride parameters")
    _require(ops == wl.op_list("stride_series", 7, len(ops)), "seed gives other inputs")


# -- tracing ----------------------------------------------------------------------


def _traced_pair():
    """Two traced ops, each a root span with one child span."""
    tracer = tracing.Tracer()
    tracer.active = True

    class Runner:
        def execute(self, op):
            return tracer.call("inner", sum, range(20000))

    ops = [wl.Op("gamma", 53, (0.5,))] * 2
    _, lat, _ = tracing.run_ops(Runner(), ops, tracer)
    return tracer, lat


def test_span_check_against_latency():
    tracer, lat = _traced_pair()
    tracer.check_ops(tracer.spans, lat)
    tracer, lat = _traced_pair()
    for span in tracer.spans[2:]:      # the second op hung under the first
        span.parent, span.op = 0, 0
    _require(_raises(lambda: tracer.check_ops(tracer.spans, lat)), "misparented span")
    tracer, lat = _traced_pair()
    lat[1] += 0.05
    _require(_raises(lambda: tracer.check_ops(tracer.spans, lat)), "untraced time")


def _raises(fn) -> bool:
    try:
        fn()
    except AssertionError:
        return True
    return False


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
