"""Command-line surface: evaluate series, verify identities, run sweeps.

Exit codes: 0 success (or an expected verdict), 1 usage error, 2 divergence
or refusal to sum, 3 pole, 4 a verification produced an unexpected verdict.
A reader that closes stdout before the record is written (``| head``) also
gets exit 1, with nothing on stderr.

Parameters are written as rational strings ("-3/2", "0.25") or decimals; in
exact mode decimals are parsed as exact rationals (scaled powers of ten) so
that verification is never poisoned by binary-decimal conversion, in float
mode they become floats (complex accepted, e.g. "1+1j"; inf and nan are
rejected).  Grid files for `sweep` are JSON; see GRID_SCHEMA.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import sys
import time
from fractions import Fraction
from itertools import product
from typing import List, Optional

from mpmath import mp

from .numeric_core import (
    DEFAULT_CONTEXT,
    ConvergenceError,
    DivergentSeriesError,
    EvalContext,
    IndeterminateError,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    UnsupportedExactError,
    scalar,
)
from .hyper_series import EvalResult, HypParams, eval_at_1
from .classical_identities import askey_ismail_lhs, askey_ismail_rhs
from .ramanujan_sum import (
    RamanujanParams,
    finite_difference_check,
    inner_sum_E,
    s_direct,
)
from .verifier import (
    DEFAULT_REL_TOL,
    IdentityReport,
    Verdict,
    compare,
    counterexample_eq9,
    summarize,
    sweep,
    verify_theorem,
)

__all__ = ["main", "OUTPUT_SCHEMA", "GRID_SCHEMA"]

ENV_PRECISION = "HYPERSUM_PRECISION"

# every JSON record printed by the CLI validates against this
OUTPUT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "params", "timing_s"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "timing_s": {"type": "number", "minimum": 0},
        "result": {
            "type": "object",
            "required": ["decimal"],
            "properties": {
                "decimal": {"type": "string"},
                "exact": {"type": "string"},
                "terms_used": {"type": ["integer", "null"]},
                "tail_bound": {"type": ["number", "integer"]},
                "classification": {"type": "string"},
                "experimental": {"type": "boolean"},
            },
        },
        "verdict": {
            "enum": ["ExactMatch", "WithinTolerance", "Mismatch", "PoleSkipped"],
        },
        "report": {"type": "object"},
        "summary": {"type": "object"},
        "csv": {"type": "string"},
        "error": {"type": "string"},
    },
}

# accepted grid-file layout for `hypersum sweep`
GRID_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "properties": {
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "k": {"type": ["integer", "string"]},
                    "alpha": {"type": ["number", "string"]},
                    "beta": {"type": ["number", "string"]},
                    "m": {"type": ["number", "string"]},
                    "z": {"type": ["number", "string"]},
                },
            },
        },
        "product": {
            "type": "object",
            "description": "lists per parameter name; the grid is their "
                           "cartesian product",
        },
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here says 1
    def error(self, message):
        raise UsageError(message)


def _parse_scalar(text: str, mode: str, flag: str):
    text = text.strip()
    if mode == "exact":
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"argument {flag}: not an exact rational: {text!r}") from None
    for parse in (float, complex):
        try:
            value = parse(text)
        except ValueError:
            continue
        if not cmath.isfinite(value):
            raise UsageError(f"argument {flag}: not a finite value: {text!r}")
        return value
    raise UsageError(f"argument {flag}: not a float or complex value: {text!r}")


def _parse_list(text: str, mode: str, flag: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_scalar(part, mode, flag) for part in text.split(","))


def _or_default(value, default):
    return default if value is None else value


def _require(args, command: str, flags) -> None:
    for flag in flags:
        if getattr(args, flag) is None:
            raise UsageError(f"{command} requires --{flag}")


def _context_from(args) -> EvalContext:
    precision = args.precision
    if precision is None:
        env = os.environ.get(ENV_PRECISION)
        try:
            precision = int(env) if env else DEFAULT_CONTEXT.precision
        except ValueError:
            raise UsageError(
                f"{ENV_PRECISION}: not an integer: {env!r}") from None
    try:
        return EvalContext(
            precision=precision,
            max_terms=_or_default(args.max_terms, DEFAULT_CONTEXT.max_terms),
            rel_tol=_or_default(args.rel_tol, DEFAULT_CONTEXT.rel_tol),
            abs_tol=_or_default(args.abs_tol, DEFAULT_CONTEXT.abs_tol),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _decimal_str(s: Scalar, ctx: EvalContext) -> str:
    prec = s.prec if s.is_float else ctx.precision
    # stay a couple of digits inside what the binary precision represents,
    # otherwise the tail of the decimal is rounding noise
    digits = max(int(prec / 3.3219) - 2, 8)
    v = s.to_mpc(prec)
    if v.imag == 0:
        return mp.nstr(v.real, digits)
    return mp.nstr(v, digits)


def _value_record(v: SphereValue, ctx: EvalContext) -> dict:
    if v.is_infinity:
        return {"decimal": "inf", "exact": "inf"}
    rec = {"decimal": _decimal_str(v.finite, ctx)}
    if v.finite.is_exact:
        if v.finite.sqrtpi_power == 0:
            rec["exact"] = str(v.finite.fraction)
        else:
            rec["exact"] = (f"{v.finite.coefficient}"
                            f"*sqrtpi^{v.finite.sqrtpi_power}")
    return rec


def _report_record(rep: IdentityReport, ctx: EvalContext) -> dict:
    def side(v):
        return _value_record(v, ctx) if v is not None else None
    return {
        "lhs": side(rep.lhs),
        "rhs": side(rep.rhs),
        "abs_diff": rep.abs_diff if rep.abs_diff == rep.abs_diff else "nan",
        "rel_diff": rep.rel_diff if rep.rel_diff == rep.rel_diff else "nan",
        "context": {k: str(v) for k, v in rep.context.items()},
    }


def _eval_record(res: EvalResult, ctx: EvalContext) -> dict:
    result = _value_record(res.value, ctx)
    result["terms_used"] = res.terms_used
    result["tail_bound"] = res.tail_bound
    result["classification"] = res.classification.kind.value
    result["experimental"] = res.experimental
    return {"result": result}


# Each command fills ``params`` once its flags are parsed, so that the
# exit-2 and exit-3 records carry them too, and returns (exit code, record).

def _cmd_eval_pfq(args, params: dict):
    ctx = _context_from(args)
    params.update(num=args.num or "", den=args.den or "", mode=args.mode,
                  precision=ctx.precision)
    nums = _parse_list(args.num or "", args.mode, "--num")
    dens = _parse_list(args.den or "", args.mode, "--den")
    return 0, _eval_record(eval_at_1(HypParams(nums, dens), ctx), ctx)


def _cmd_eval_ramanujan(args, params: dict):
    ctx = _context_from(args)
    flags = ("alpha", "beta", "m", "z")
    _require(args, "eval ramanujan", flags)
    vals = {}
    for flag in flags:
        raw = getattr(args, flag)
        vals[flag] = _parse_scalar(raw, args.mode, f"--{flag}")
        params[flag] = raw
    params.update(mode=args.mode, precision=ctx.precision)
    return 0, _eval_record(s_direct(RamanujanParams(**vals), ctx), ctx)


def _verdict_exit(verdict: Verdict, expect_mismatch: bool = False) -> int:
    if verdict is Verdict.POLE_SKIPPED:
        return 3
    ok = {Verdict.MISMATCH} if expect_mismatch \
        else {Verdict.EXACT_MATCH, Verdict.WITHIN_TOLERANCE}
    return 0 if verdict in ok else 4


def _cmd_verify(args, params: dict):
    ctx = _context_from(args)
    rel_tol = _or_default(args.rel_tol, DEFAULT_REL_TOL)
    expect_mismatch = False
    identity = args.identity

    if identity == "theorem":
        _require(args, "verify theorem", ("k", "beta", "m", "z"))
        params.update(k=args.k, beta=args.beta, m=args.m, z=args.z, mode=args.mode)
        rep = verify_theorem(
            args.k,
            _parse_scalar(args.beta, args.mode, "--beta"),
            _parse_scalar(args.m, args.mode, "--m"),
            _parse_scalar(args.z, args.mode, "--z"),
            ctx, rel_tol)
    elif identity in ("inner-sum", "finite-diff"):
        _require(args, f"verify {identity}", ("m", "n", "r"))
        params.update(m=args.m, n=args.n, r=args.r, mode=args.mode)
        inner = identity == "inner-sum"
        value = (inner_sum_E if inner else finite_difference_check)(
            _parse_scalar(args.m, args.mode, "--m"), args.n, args.r, ctx)
        expected = Scalar.exact(1 if inner and args.r == 0 else 0)
        rep = compare(SphereValue.of(value), SphereValue.of(expected),
                      ctx, rel_tol, {"m": args.m, "n": args.n, "r": args.r})
    elif identity == "askey-ismail":
        # a, c ride on --num and d on --den (the flag set has no dedicated
        # names for them)
        if not args.num or not args.den or args.k is None:
            raise UsageError(
                "verify askey-ismail requires --num=a,c --den=d --k")
        ac = _parse_list(args.num, args.mode, "--num")
        d = _parse_list(args.den, args.mode, "--den")
        if len(ac) != 2 or len(d) != 1:
            raise UsageError(
                "verify askey-ismail expects exactly --num=a,c and --den=d")
        a, c = ac
        params.update(num=args.num, den=args.den, k=args.k, mode=args.mode)
        lhs = askey_ismail_lhs(a, c, d[0], args.k, ctx).value
        rhs = askey_ismail_rhs(a, c, d[0], args.k, ctx).value
        rep = compare(lhs, rhs, ctx, rel_tol,
                      {"a": str(a), "c": str(c), "d": str(d[0]), "k": args.k})
    elif identity == "counterexample":
        _require(args, "verify counterexample", ("alpha", "beta"))
        params.update(alpha=args.alpha, beta=args.beta, mode=args.mode)
        rep = counterexample_eq9(
            _parse_scalar(args.alpha, args.mode, "--alpha"),
            _parse_scalar(args.beta, args.mode, "--beta"),
            ctx, rel_tol)
        expect_mismatch = True
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown identity {identity!r}")

    return (_verdict_exit(rep.verdict, expect_mismatch),
            {"verdict": rep.verdict.value, "report": _report_record(rep, ctx)})


def _load_grid(path: str, mode: str) -> List[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read grid file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("grid file must be a JSON object; see GRID_SCHEMA")

    def convert(flag, v):
        if flag == "k":
            if isinstance(v, str) and v.strip().removeprefix("-").isdecimal():
                return int(v)
            if isinstance(v, bool) or not isinstance(v, int):
                raise UsageError(f"grid value for k must be an integer: {v!r}")
            return v
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise UsageError(f"grid value for {flag} must be a number or string")
        if isinstance(v, int):
            return v
        # JSON floats go through their shortest repr: exact mode reads 0.1 as
        # 1/10, float mode gets the same float back; Infinity/NaN are refused
        return _parse_scalar(str(v), mode, flag)

    def point(items):
        return {key: convert(key, val) for key, val in items}

    pts, prod = doc.get("points", []), doc.get("product", {})
    if not (isinstance(pts, list) and all(isinstance(pt, dict) for pt in pts)):
        raise UsageError("grid points must be a list of objects; see GRID_SCHEMA")
    if not (isinstance(prod, dict) and all(isinstance(v, list) for v in prod.values())):
        raise UsageError("grid product must be an object of lists; see GRID_SCHEMA")
    points = [point(pt.items()) for pt in pts]
    if prod:
        keys = sorted(prod)
        points += [point(zip(keys, combo))
                   for combo in product(*(prod[key] for key in keys))]
    return points


def _point_expectation(pt: dict, verdict: Verdict) -> bool:
    """True when the verdict is unsurprising for this grid point: matches
    for terminating alpha or z = 0, Mismatch otherwise (the closed form is
    expected to fail off those regimes); PoleSkipped is always neutral."""
    if verdict is Verdict.POLE_SKIPPED:
        return True
    alpha = -pt["k"] if "k" in pt else pt["alpha"]
    if scalar(alpha).is_nonpositive_integer() or pt.get("z", 0) == 0:
        return verdict in (Verdict.EXACT_MATCH, Verdict.WITHIN_TOLERANCE)
    return verdict is Verdict.MISMATCH


def _cmd_sweep(args, params: dict):
    ctx = _context_from(args)
    points = _load_grid(args.grid, args.mode)
    params.update(grid=args.grid, points=len(points), mode=args.mode)
    reports = sweep(points, ctx, rel_tol=_or_default(args.rel_tol, DEFAULT_REL_TOL))

    def cell(v):
        if v is None:
            return ""
        rec = _value_record(v, ctx)
        return rec.get("exact", rec["decimal"])

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["grid_index", "alpha", "beta", "m", "z",
                         "lhs", "rhs", "rel_diff", "verdict"])
        for i, (pt, rep) in enumerate(zip(points, reports)):
            alpha = -pt["k"] if "k" in pt else pt.get("alpha", "")
            writer.writerow([
                i, str(alpha), str(pt.get("beta", "")), str(pt.get("m", "")),
                str(pt.get("z", 0)), cell(rep.lhs), cell(rep.rhs),
                rep.rel_diff, rep.verdict.value,
            ])

    unexpected = sum(not _point_expectation(pt, rep.verdict)
                     for pt, rep in zip(points, reports))
    return (0 if unexpected == 0 else 4,
            {"summary": {**summarize(reports), "unexpected": unexpected},
             "csv": args.out})


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exact", "float"), default="exact",
                   help="parse parameters as exact rationals or floats")
    p.add_argument("--precision", type=int, default=None,
                   help=f"working precision in bits (default 256 or "
                        f"${ENV_PRECISION})")
    p.add_argument("--rel-tol", type=float, default=None, dest="rel_tol")
    p.add_argument("--abs-tol", type=float, default=None, dest="abs_tol")
    p.add_argument("--max-terms", type=int, default=None, dest="max_terms")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypersum",
                     description="Hypergeometric series at unit argument: "
                                 "evaluation and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a series")
    eval_sub = p_eval.add_subparsers(dest="series", required=True)

    p_pfq = eval_sub.add_parser("pfq", help="pFq at unit argument")
    p_pfq.add_argument("--num", help="comma-separated numerator parameters")
    p_pfq.add_argument("--den", help="comma-separated denominator parameters")
    _add_common(p_pfq)
    p_pfq.set_defaults(func=_cmd_eval_pfq, command_echo="eval pfq")

    p_ram = eval_sub.add_parser("ramanujan", help="the central sum S")
    for flag in ("--alpha", "--beta", "--m", "--z"):
        p_ram.add_argument(flag)
    _add_common(p_ram)
    p_ram.set_defaults(func=_cmd_eval_ramanujan, command_echo="eval ramanujan")

    p_verify = sub.add_parser("verify", help="check an identity")
    p_verify.add_argument(
        "identity",
        choices=("theorem", "inner-sum", "finite-diff", "askey-ismail",
                 "counterexample"))
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--r", type=int)
    for flag in ("--alpha", "--beta", "--m", "--z", "--num", "--den"):
        p_verify.add_argument(flag)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify, command_echo="verify")

    p_sweep = sub.add_parser("sweep", help="verify over a parameter grid")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON grid file (see GRID_SCHEMA)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep, command_echo="sweep")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # exact values print every digit; Python 3.11 (and 3.10.7 on) refuses
    # str() of an int past 4300 digits unless the process lifts the limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"hypersum: error: {exc}", file=sys.stderr)
        return 1
    params = {}
    t0 = time.perf_counter()
    try:
        code, record = args.func(args, params)
    except UsageError as exc:
        print(f"hypersum: error: {exc}", file=sys.stderr)
        return 1
    except InvalidParametersError as exc:
        print(f"hypersum: invalid parameters: {exc}", file=sys.stderr)
        return 1
    except (DivergentSeriesError, ConvergenceError) as exc:
        code, record = 2, {"error": str(exc)}
    except (PoleError, IndeterminateError) as exc:
        code, record = 3, {"error": str(exc)}
    except UnsupportedExactError as exc:
        print(f"hypersum: error: {exc} (try --mode=float)", file=sys.stderr)
        return 1
    except MemoryError:
        print("hypersum: error: out of memory (try a lower --precision)", file=sys.stderr)
        return 1
    record = {"command": args.command_echo, "params": params, **record,
              "timing_s": round(time.perf_counter() - t0, 6)}
    try:
        print(json.dumps(record, indent=2, default=str), flush=True)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not fail again and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
