"""The benchmark's workloads: operation lists made from a seed, how each
operation calls hypersum, and how its result is checked.

An operation list is a number of *cycles*.  Every cycle of a workload has
the same make-up of operation classes; the parameters of cycle c come from
``random.Random(f"{workload}/{seed}/{c}")``, so no parameter set repeats
within a run except the fixed-input operations listed below.  Those take no
input from the seed and fail every time at the commit that added this
benchmark, so the failed share of a run is the same for every seed and
length.

Operations are plain data (Fractions, floats, strings); nothing here imports
hypersum at module level.  ``execute`` receives the imported package.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import selectors
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import reference as ref

EXACT_PREC = 256          # precision of the default context used by exact ops


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``kind`` selects the call and the check, ``prec`` is the working
    precision in bits, ``args`` are plain inputs.  ``fixed`` marks an
    operation whose inputs do not depend on the seed.
    """

    kind: str
    prec: int
    args: tuple
    fixed: bool = False
    ident: str = ""


@dataclass
class Outcome:
    ok: bool
    bits: Optional[float]   # correct bits, None when the op returns no number
    note: str = ""


# -- parameter generation ------------------------------------------------------

_DENS = (2, 3, 4, 5, 6, 7, 8, 9)


def _frac(rng: random.Random, lo: float, hi: float, integer_ok=False) -> Fraction:
    """A rational in (lo, hi) with a small denominator."""
    while True:
        d = rng.choice(_DENS)
        f = Fraction(rng.randint(math.ceil(lo * d), math.floor(hi * d)), d)
        if lo < f < hi and (integer_ok or f.denominator != 1):
            return f


def _float(rng: random.Random, lo: float, hi: float) -> float:
    """A float as ``--mode=float`` parses it from a 4-digit decimal."""
    return float(f"{rng.uniform(lo, hi):.4f}")


def _beta_m(rng, draw):
    """beta, m with beta - m not an integer, so (beta+1-m-k)_k != 0."""
    while True:
        beta, m = draw(rng, 0.05, 3.0), draw(rng, 0.05, 1.5)
        if (Fraction(beta) - Fraction(m)).denominator != 1:
            return beta, m


def _over(den: int):
    """A drawer of rationals with the fixed denominator ``den``."""
    def draw(rng, lo, hi):
        while True:
            f = Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)
            if lo < f < hi and f.denominator == den:
                return f
    return draw


# -- theorem_sweep ---------------------------------------------------------------

THEOREM_EXACT_K = tuple(range(0, 41, 2))          # 21 points, k over 0..40
THEOREM_FLOAT_K = (5, 15, 25, 35)                 # float mode at 256 bits
POLYNOMIAL_K = (4, 8, 12, 16, 20)
# Float mode at 53 bits: _s_direct_terminating sums the alternating terms with
# no guard bits and cancels; verify_theorem reports a false Mismatch.
THEOREM_FAILING = ((8, 0.5, 0.3333333333333333, 3.5),
                   (20, 0.5, 0.3333333333333333, 3.5))


# Denominators of (beta, m, z) by position in the cycle.  The cost of exact
# arithmetic grows with the size of the denominators, so fixing them per
# position (the seed draws the numerators) keeps the cost of a cycle the same
# from seed to seed.
THEOREM_DENS = ((7, 9, 4), (5, 8, 3), (9, 7, 2), (8, 5, 6))


def _exact_point(rng, i):
    d_beta, d_m, d_z = THEOREM_DENS[i % len(THEOREM_DENS)]
    while True:
        beta, m = _over(d_beta)(rng, 0.05, 3.0), _over(d_m)(rng, 0.05, 1.5)
        if (beta - m).denominator != 1:
            return beta, m, Fraction(rng.randint(1, 4 * d_z), d_z)


def theorem_cycle(rng: random.Random, *_) -> List[Op]:
    ops = []
    for i, k in enumerate(THEOREM_EXACT_K):
        ops.append(Op("theorem", EXACT_PREC, (k, *_exact_point(rng, i))))
    for i, k in enumerate(POLYNOMIAL_K):
        ops.append(Op("s_polynomial", EXACT_PREC, (k, *_exact_point(rng, i)[:2])))
    for k in THEOREM_FLOAT_K:
        beta, m = _beta_m(rng, _float)
        ops.append(Op("theorem", 256, (k, beta, m, _float(rng, 0.1, 4.0))))
    for args in THEOREM_FAILING:
        ops.append(Op("theorem", 53, args, fixed=True))
    return ops


# -- unit_series -------------------------------------------------------------------

UNIT_PRECS = (53, 256, 1024)


def _excess(rng):
    return _frac(rng, 0.8, 2.0, True)


def _gauss_params(rng):
    a, b = _frac(rng, 0.1, 2.5), _frac(rng, 0.1, 2.5)
    return ("gauss", (a, b), (a + b + _excess(rng),))


def _dixon_params(rng):
    # convergence needs 2 + a - 2b - 2c > 0; keep the excess in [0.8, 2]
    while True:
        a, b, c = _frac(rng, 0.2, 3.0), _frac(rng, 0.1, 1.5), _frac(rng, 0.1, 1.5)
        s = 2 + a - 2 * b - 2 * c
        if Fraction(4, 5) <= s <= 2 and (1 + a - b).denominator != 1 \
                and (1 + a - c).denominator != 1:
            return ("dixon", (a, b, c), (1 + a - b, 1 + a - c))


def _km4_params(rng):
    a, b = _frac(rng, 0.1, 1.5), _frac(rng, 0.1, 1.5)
    e, f = _frac(rng, 0.3, 3.0), _frac(rng, 0.3, 3.0)
    c = a + b + 2 + _excess(rng)
    return ("km4", (a, b, e + 1, f + 1), (c, e, f))


def _geometric_params(rng, which):
    if which == 0:
        return ("hyper", (_frac(rng, 0.1, 3.0),), (_frac(rng, 0.5, 4.0),))
    if which == 1:
        return ("hyper", (_frac(rng, 0.1, 3.0), _frac(rng, 0.1, 3.0)),
                (_frac(rng, 0.5, 4.0), _frac(rng, 0.5, 4.0)))
    return ("hyper", (_frac(rng, 0.1, 3.0),),
            (_frac(rng, 0.5, 4.0), _frac(rng, 0.5, 4.0)))


def _s_params(rng):
    """alpha non-integer with alpha+beta+1 > 0, beta+1-m > 0, and
    alpha+beta-m not an integer (where S at z = 0 would vanish)."""
    while True:
        alpha = _frac(rng, -0.9, 1.5)
        beta = _frac(rng, 0.05, 1.5)
        m = _frac(rng, 0.1, 1.0)
        if (alpha + beta - m).denominator != 1:
            return alpha, beta, m


def unit_cycle(rng: random.Random, *_) -> List[Op]:
    ops = []
    for prec in UNIT_PRECS:
        for maker in (_gauss_params, _dixon_params, _km4_params):
            ops.append(Op("pfq", prec, maker(rng)))
    for prec in UNIT_PRECS:
        ops.append(Op("s_integer", prec, (*_s_params(rng), 0)))
    # one integer stride z >= 1 per cycle: its reference is an nsum
    ops.append(Op("s_integer", 53, (*_s_params(rng), rng.randint(1, 3))))
    for prec in UNIT_PRECS:
        ops.append(Op("counterexample", prec,
                      (_frac(rng, -0.9, 1.5), _frac(rng, 0.05, 1.5))))
    for i, prec in enumerate(UNIT_PRECS):
        ops.append(Op("pfq", prec, _geometric_params(rng, i)))
    return ops


# -- stride_series ---------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def stride_pool() -> Tuple[tuple, ...]:
    """Parameter sets that take 2048 terms on the experimental route, so that
    every op costs the same whatever the seed; stride_pool.py makes the file
    anew."""
    entries = json.loads((Path(__file__).resolve().parent / "stride_pool.json")
                         .read_text())["params"]
    return tuple(tuple(Fraction(x) for x in entry[1:]) for entry in entries)


@functools.lru_cache(maxsize=None)
def _stride_order(seed: int) -> Tuple[int, ...]:
    n = len(stride_pool())
    return tuple(random.Random(f"stride_series/{seed}").sample(range(n), n))


def stride_cycle(rng: random.Random, c: int, seed: int) -> List[Op]:
    """Cycle c takes entry c of a permutation of the pool that the seed makes,
    so no parameter set repeats within a run of up to len(stride_pool())
    cycles."""
    order = _stride_order(seed)
    return [Op("s_direct", 53, stride_pool()[order[c % len(order)]])]


# -- cli_calls -------------------------------------------------------------------------

CLI_PREC = 256
# Each ends in a Python traceback instead of the documented one-line exit-1
# error: EvalContext raises ValueError (and int() on the environment value
# raises ValueError), which no handler in cli.main catches.
CLI_FAILING = (
    (("eval", "pfq", "--num=1/3,1/4", "--den=25/12", "--precision=10"), ()),
    (("eval", "pfq", "--num=1/3,1/4", "--den=25/12", "--max-terms=-1"), ()),
    (("eval", "pfq", "--num=1/3,1/4", "--den=25/12"),
     (("HYPERSUM_PRECISION", "abc"),)),
)


def _cli(check: str, argv, payload=(), env=(), fixed=False) -> Op:
    return Op("cli", CLI_PREC, (check, tuple(argv), tuple(payload), tuple(env)),
              fixed=fixed)


def cli_cycle(rng: random.Random, *_) -> List[Op]:
    ops = []
    for _ in range(3):
        alpha, beta, m = _s_params(rng)
        ops.append(_cli("ramanujan_float",
                        ["eval", "ramanujan", f"--alpha={alpha}", f"--beta={beta}",
                         f"--m={m}", "--z=0", f"--precision={CLI_PREC}"],
                        (alpha, beta, m)))
    for _ in range(2):
        alpha, beta = _frac(rng, -0.9, 1.5), _frac(rng, 0.05, 1.5)
        ops.append(_cli("counterexample",
                        ["verify", "counterexample", f"--alpha={alpha}",
                         f"--beta={beta}", f"--precision={CLI_PREC}"],
                        (alpha, beta)))
    _, (a, b), (c,) = _gauss_params(rng)
    ops.append(_cli("pfq", ["eval", "pfq", f"--num={a},{b}", f"--den={c}",
                            f"--precision={CLI_PREC}"], (a, b, c)))
    k = rng.randint(2, 12)
    beta, m = _beta_m(rng, _frac)
    z = _frac(rng, 0.1, 4.0, True)
    ops.append(_cli("ramanujan_exact",
                    ["eval", "ramanujan", f"--alpha={-k}", f"--beta={beta}",
                     f"--m={m}", f"--z={z}"], (k, beta, m, z)))
    k = rng.randint(2, 12)
    beta, m = _beta_m(rng, _frac)
    z = _frac(rng, 0.1, 4.0, True)
    ops.append(_cli("theorem", ["verify", "theorem", f"--k={k}", f"--beta={beta}",
                                f"--m={m}", f"--z={z}"], (k, beta, m, z)))
    m, n, r = _frac(rng, 0.1, 3.0), rng.randint(1, 4), rng.randint(0, 6)
    ops.append(_cli("inner_sum", ["verify", "inner-sum", f"--m={m}", f"--n={n}",
                                  f"--r={r}"], (m, n, r)))
    points = []
    for _ in range(6):
        beta, m = _beta_m(rng, _frac)
        points.append({"k": rng.randint(0, 10), "beta": str(beta), "m": str(m),
                       "z": str(_frac(rng, 0.1, 4.0, True))})
    ops.append(_cli("sweep", ["sweep"], (json.dumps({"points": points}),)))
    for argv, env in CLI_FAILING:
        ops.append(_cli("malformed", argv, (), env, fixed=True))
    return ops


# -- registry ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[random.Random, int, int], List[Op]]   # (rng, cycle, seed)
    # wall time of one cycle at the parent commit on the reference machine;
    # a run holds ceil(seconds / cycle_s) cycles
    cycle_s: float
    warmup: Tuple[Op, ...]     # run untimed before measuring


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("theorem_sweep", theorem_cycle, 0.55, (
            Op("theorem", EXACT_PREC, (3, Fraction(1, 2), Fraction(1, 3), Fraction(7, 2))),
            Op("theorem", 256, (2, 0.5, 0.25, 1.5)),
            Op("s_polynomial", EXACT_PREC, (3, Fraction(1, 2), Fraction(1, 3))))),
        Workload("unit_series", unit_cycle, 0.75, tuple(
            Op("pfq", p, ("hyper", (Fraction(1, 3),), (Fraction(5, 2),)))
            for p in UNIT_PRECS)),
        Workload("stride_series", stride_cycle, 2.2, (
            Op("gamma", 83, (Fraction(1, 3),)),)),
        Workload("cli_calls", cli_cycle, 2.7, (
            Op("cli_main", CLI_PREC, (("eval", "pfq", "--num=1/3", "--den=5/2"),)),)),
    )
}


def op_list(workload: str, seed: int, cycles: int) -> List[Op]:
    ops = []
    for c in range(cycles):
        rng = random.Random(f"{workload}/{seed}/{c}")
        for j, op in enumerate(WORKLOADS[workload].cycle(rng, c, seed)):
            ops.append(Op(op.kind, op.prec, op.args, op.fixed, f"c{c}.{j}"))
    return ops


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / WORKLOADS[workload].cycle_s))


# -- execution ---------------------------------------------------------------------------


def run_child(argv, cwd=None, env=None, timeout=120.0) -> subprocess.CompletedProcess:
    """Run a child process to its end, capturing its output.  The child is
    reaped with ``os.wait4``, which blocks (``subprocess.run(timeout=...)``
    polls with sleeps of up to 50 ms, which would quantize the short times
    measured here) and gives the child's own resource usage: its peak RSS in
    MB is set as ``rss_mb`` on the result.  A timer kills a child that
    outlives ``timeout``."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out, err = (b"".join(chunks[pipe]).decode() for pipe in (proc.stdout, proc.stderr))
    res = subprocess.CompletedProcess(argv, proc.returncode, out, err)
    res.rss_mb = usage.ru_maxrss / 1024.0
    return res


class Runner:
    """Calls hypersum for an op.  ``tmp`` is a temporary directory inside the
    checkout for CLI grid and CSV files."""

    def __init__(self, hs, root: Path, tmp: Path):
        self.hs = hs
        self.root = root
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env.pop("HYPERSUM_PRECISION", None)
        self.child_rss_mb = 0.0   # peak RSS of the CLI children run by execute

    def prepare(self, op: Op) -> None:
        """Untimed set-up an op needs: the grid file of a CLI sweep."""
        if op.kind == "cli" and op.args[0] == "sweep":
            (self.tmp / f"grid-{op.ident}.json").write_text(op.args[2][0])

    def argv(self, op: Op) -> List[str]:
        check, argv = op.args[0], list(op.args[1])
        if check == "sweep":
            argv += [f"--grid={self.tmp / f'grid-{op.ident}.json'}",
                     f"--out={self.tmp / f'out-{op.ident}.csv'}"]
        return argv

    def execute(self, op: Op):
        hs = self.hs
        ctx = hs.EvalContext(precision=op.prec) if op.kind != "cli" else None
        if op.kind == "theorem":
            k, beta, m, z = op.args
            return hs.verify_theorem(k, beta, m, z, ctx)
        if op.kind == "s_polynomial":
            return hs.s_polynomial(*op.args)
        if op.kind == "pfq":
            _, numer, denom = op.args
            return hs.eval_at_1(hs.HypParams(numer, denom), ctx), ctx
        if op.kind in ("s_integer", "s_direct"):
            return hs.s_direct(hs.RamanujanParams(*op.args), ctx), ctx
        if op.kind == "counterexample":
            return hs.counterexample_eq9(*op.args, ctx)
        if op.kind == "gamma":
            return hs.gamma(hs.Scalar.from_float(op.args[0], op.prec))
        if op.kind == "cli_main":
            return self.cli_main(op.args[0])
        if op.kind == "cli":
            env = dict(self.env)
            env.update(op.args[3])
            proc = run_child([sys.executable, "-m", "hypersum.cli", *self.argv(op)],
                             cwd=self.root, env=env)
            self.child_rss_mb = max(self.child_rss_mb, proc.rss_mb)
            return proc
        raise ValueError(f"unknown op kind {op.kind}")

    def cli_main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.hs.cli.main(list(argv))


# -- references and checks --------------------------------------------------------------


def reference(op: Op):
    """The independent reference for ``op`` (see reference.py)."""
    if op.kind == "theorem":
        return ref.theorem_reference(*op.args)
    if op.kind == "s_polynomial":
        return ref.theorem_closed_form(*op.args)
    c = ref.ctx(2 * op.prec)
    if op.kind == "pfq":
        family, numer, denom = op.args
        if family == "gauss":
            return ref.gauss_2f1(c, *numer, *denom)
        if family == "dixon":
            return ref.dixon_3f2(c, *numer)
        if family == "km4":
            a, b, e1, f1 = numer
            return ref.km_4f3(c, a, b, denom[0], e1 - 1, f1 - 1)
        return ref.hyper(c, numer, denom)
    if op.kind in ("s_integer", "s_direct"):
        alpha, beta, m, z = op.args
        if z == 0:
            return ref.s_closed_form(c, alpha, beta, m)
        return ref.s_series(c, alpha, beta, m, z)
    if op.kind == "counterexample":
        return ref.counterexample(c, *op.args)
    if op.kind == "cli":
        return _cli_reference(op)
    return None


def _cli_reference(op: Op):
    check, _, payload, _ = op.args
    c = ref.ctx(2 * op.prec)
    if check == "ramanujan_float":
        return ref.s_closed_form(c, *payload)
    if check == "counterexample":
        return ref.counterexample(c, *payload)
    if check == "pfq":
        return ref.gauss_2f1(c, *payload)
    if check in ("ramanujan_exact", "theorem"):
        return ref.theorem_reference(*payload)
    if check == "inner_sum":
        return ref.inner_sum(*payload)
    if check == "sweep":
        return [ref.theorem_reference(p["k"], Fraction(p["beta"]), Fraction(p["m"]),
                                      Fraction(p["z"]))
                for p in json.loads(payload[0])["points"]]
    return None


def _value(sphere, prec: int):
    """A SphereValue as a Fraction (exact rational) or an mpc (float)."""
    if sphere is None or sphere.is_infinity:
        return None
    s = sphere.finite
    if s.is_exact and s.sqrtpi_power == 0:
        return s.fraction
    return s.to_mpc(prec)


def check(op: Op, result, expected, hs, runner: Optional[Runner] = None) -> Outcome:
    cap = 2 * op.prec
    if isinstance(result, BaseException):
        return Outcome(False, None, f"{type(result).__name__}: {result}")
    if op.kind == "theorem":
        rep = result
        v = _value(rep.lhs, cap)
        if v is None or rep.verdict.value not in ("ExactMatch", "WithinTolerance"):
            return Outcome(False, None, f"verdict {rep.verdict.value}")
        if isinstance(op.args[1], Fraction):
            ok = isinstance(v, Fraction) and v == expected \
                and rep.verdict.value == "ExactMatch"
            return Outcome(ok, ref.correct_bits(v, expected, cap))
        ok = ref.within(v, expected, rep.context["rel_tol"])
        return Outcome(ok, ref.correct_bits(v, expected, cap))
    if op.kind == "s_polynomial":
        coeffs = result.coefficients
        ok = all(x.is_rational for x in coeffs) and coeffs[0].fraction == expected \
            and all(x.fraction == 0 for x in coeffs[1:])
        return Outcome(ok, float(cap) if ok else None)
    if op.kind in ("pfq", "s_integer", "s_direct"):
        res, ctx = result
        v = _value(res.value, cap)
        ok = v is not None and ref.within(v, expected, ctx.rel_tol, ctx.abs_tol)
        if op.kind == "s_direct":
            ok = ok and res.experimental
        return Outcome(ok, ref.correct_bits(v, expected, cap) if v is not None else None)
    if op.kind == "counterexample":
        rep = result
        v = _value(rep.lhs, cap)
        ok = rep.verdict.value == "Mismatch" and v is not None \
            and ref.within(v, expected, rep.context["rel_tol"])
        return Outcome(ok, ref.correct_bits(v, expected, cap) if v is not None else None)
    if op.kind == "cli":
        return _check_cli(op, result, expected, hs, runner)
    return Outcome(True, None)


def _validate(hs, record) -> bool:
    import jsonschema  # here, so that the set-up children do not import it
    try:
        jsonschema.validate(record, hs.cli.OUTPUT_SCHEMA)
    except jsonschema.ValidationError:
        return False
    return True


def _decimal(text: str, prec: int):
    c = ref.ctx(prec)
    return c.mpmathify(text)


def _check_cli(op: Op, proc, expected, hs, runner) -> Outcome:
    check = op.args[0]
    cap = 2 * op.prec
    if check == "malformed":
        lines = proc.stderr.strip().splitlines()
        ok = proc.returncode == 1 and len(lines) == 1 \
            and lines[0].startswith("hypersum:") and not proc.stdout.strip()
        return Outcome(ok, None, lines[-1] if lines else "")
    if proc.returncode != 0:
        return Outcome(False, None, f"exit {proc.returncode}: {proc.stderr[-200:]}")
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return Outcome(False, None, "stdout is not JSON")
    if not _validate(hs, record):
        return Outcome(False, None, "OUTPUT_SCHEMA violation")
    if check in ("ramanujan_float", "pfq"):
        v = _decimal(record["result"]["decimal"], cap)
        ok = ref.within(v, expected, hs.DEFAULT_CONTEXT.rel_tol)
        return Outcome(ok, ref.correct_bits(v, expected, cap))
    if check == "ramanujan_exact":
        v = Fraction(record["result"]["exact"])
        return Outcome(v == expected, ref.correct_bits(v, expected, cap))
    if check == "counterexample":
        v = _decimal(record["report"]["lhs"]["decimal"], cap)
        ok = record["verdict"] == "Mismatch" \
            and ref.within(v, expected, float(record["report"]["context"]["rel_tol"]))
        return Outcome(ok, ref.correct_bits(v, expected, cap))
    if check == "theorem":
        v = Fraction(record["report"]["lhs"]["exact"])
        ok = record["verdict"] == "ExactMatch" and v == expected
        return Outcome(ok, ref.correct_bits(v, expected, cap))
    if check == "inner_sum":
        ok = record["verdict"] == "ExactMatch" \
            and Fraction(record["report"]["lhs"]["exact"]) == expected
        return Outcome(ok, None)
    if check == "sweep":
        rows = (runner.tmp / f"out-{op.ident}.csv").read_text().splitlines()[1:]
        ok = record["summary"].get("ExactMatch") == len(expected) == len(rows) \
            and all(row.split(",")[5] == row.split(",")[6] == str(e)
                    for row, e in zip(rows, expected))
        return Outcome(ok, None)
    return Outcome(False, None, f"unknown cli check {check}")
