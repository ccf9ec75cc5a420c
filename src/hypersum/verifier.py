"""Structured identity checking: comparators, theorem verification, the
nonterminating counterexample, grid sweeps, and an independent exact oracle.

Everything here reports through IdentityReport rather than raising, so that
random parameter sweeps near poles degrade to PoleSkipped entries instead of
aborting, and a Mismatch always means the identity under test actually failed
at the stated tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, unique
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .numeric_core import (
    DEFAULT_CONTEXT,
    ConvergenceError,
    DivergentSeriesError,
    EvalContext,
    IdentityAssertionError,
    IndeterminateError,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    UnsupportedExactError,
    WorkBudgetError,
    checked_count,
    exact_first,
    gamma,
    scalar,
)
from .hyper_series import HypParams, eval_at_1
from .ramanujan_sum import (RamanujanParams, recast_params, s_closed_form,
                            s_direct)

__all__ = [
    "Verdict",
    "IdentityReport",
    "DEFAULT_REL_TOL",
    "compare",
    "verify_theorem",
    "verify_point",
    "counterexample_eq9",
    "sweep",
    "summarize",
    "brute_force_oracle",
]

# Float gammas are right to a few units in the last place at every
# precision, real float input to a terminating sum is summed exactly and
# rounded once, and mp.hyper sums p <= q series to about the working
# precision, so cancellation costs no digits there.  The slack is for the
# balanced pFq and S routes, which stop on an estimated (not bounded) tail
# of EvalContext.rel_tol (1e-12 by default).  Reports record the tolerance
# actually used.
DEFAULT_REL_TOL = 1e-9

# relative agreement required of counterexample_eq9's three routes to S(1)
ROUTE_TOL = 1e-8


@unique
class Verdict(Enum):
    EXACT_MATCH = "ExactMatch"
    WITHIN_TOLERANCE = "WithinTolerance"
    MISMATCH = "Mismatch"
    POLE_SKIPPED = "PoleSkipped"


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Outcome of one lhs-vs-rhs comparison.

    abs_diff and rel_diff are the int 0 (exact zero) for ExactMatch, floats
    otherwise.  lhs or rhs is None when the corresponding evaluation never
    produced a value (PoleSkipped).  context carries the parameter record,
    the tolerances used, and any error message.
    """

    lhs: Optional[SphereValue]
    rhs: Optional[SphereValue]
    abs_diff: object
    rel_diff: object
    verdict: Verdict
    context: dict = field(default_factory=dict)


def compare(lhs: SphereValue, rhs: SphereValue,
            ctx: Optional[EvalContext] = None,
            rel_tol: float = DEFAULT_REL_TOL,
            context: Optional[dict] = None) -> IdentityReport:
    """Compare two sphere values; ExactMatch is reserved for literal equality
    of exact values (or two infinities), everything else is judged
    numerically at ctx precision against rel_tol / ctx.abs_tol."""
    ctx = ctx or DEFAULT_CONTEXT
    context = dict(context or {})
    context.setdefault("rel_tol", rel_tol)
    context.setdefault("abs_tol", ctx.abs_tol)
    if lhs.is_infinity or rhs.is_infinity:
        if lhs.is_infinity and rhs.is_infinity:
            return IdentityReport(lhs, rhs, 0, 0, Verdict.EXACT_MATCH, context)
        return IdentityReport(lhs, rhs, math.inf, math.inf,
                              Verdict.MISMATCH, context)
    a, b = lhs.finite, rhs.finite
    if a.is_exact and b.is_exact and a == b:
        return IdentityReport(lhs, rhs, 0, 0, Verdict.EXACT_MATCH, context)
    av = a.to_mpc(ctx.precision)
    bv = b.to_mpc(ctx.precision)
    abs_diff = float(abs(av - bv))
    scale = max(abs(av), abs(bv))
    rel_diff = float(abs(av - bv) / scale) if scale > 0 else 0.0
    if rel_diff <= rel_tol or abs_diff <= ctx.abs_tol:
        return IdentityReport(lhs, rhs, abs_diff, rel_diff,
                              Verdict.WITHIN_TOLERANCE, context)
    return IdentityReport(lhs, rhs, abs_diff, rel_diff,
                          Verdict.MISMATCH, context)


_SKIPPABLE = (PoleError, IndeterminateError, ConvergenceError,
              DivergentSeriesError, InvalidParametersError,
              UnsupportedExactError)


def verify_point(alpha, beta, m, z,
                 ctx: Optional[EvalContext] = None,
                 rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """Compare the series value S(alpha, beta, m, z) with the claimed closed
    form Gamma(beta+1-m)/Gamma(alpha+beta+1-m).  Evaluation failures (poles,
    refusal to sum, budget exhaustion) yield PoleSkipped, never an exception,
    except a sum refused for its size (WorkBudgetError: a count above
    ctx.max_terms, or factor work above its square), which is raised: it
    says nothing of the point, only of ctx."""
    ctx = ctx or DEFAULT_CONTEXT
    p = RamanujanParams(alpha, beta, m, z)
    context = {"alpha": str(p.alpha), "beta": str(p.beta),
               "m": str(p.m), "z": str(p.z)}
    lhs = rhs = None
    try:
        lhs = s_direct(p, ctx).value
        rhs = s_closed_form(p, ctx)
    except WorkBudgetError:
        raise
    except _SKIPPABLE as exc:
        context["error"] = f"{type(exc).__name__}: {exc}"
        return IdentityReport(lhs, rhs, math.nan, math.nan,
                              Verdict.POLE_SKIPPED, context)
    return compare(lhs, rhs, ctx, rel_tol, context)


def verify_theorem(k: int, beta, m, z,
                   ctx: Optional[EvalContext] = None,
                   rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """The terminating summation: S(-k, beta, m, z) against (beta+1-m-k)_k.
    A negative k is refused with InvalidParametersError, and a sum too large
    for ctx raises WorkBudgetError (see verify_point)."""
    ctx = ctx or DEFAULT_CONTEXT
    checked_count("k", k, ctx)
    return verify_point(-k, beta, m, z, ctx, rel_tol)


def counterexample_eq9(alpha, beta,
                       ctx: Optional[EvalContext] = None,
                       rel_tol: float = DEFAULT_REL_TOL) -> IdentityReport:
    """S(1) with m = alpha+beta+1, where the closed form breaks down.

    S(1) is computed three ways: the recast 4F3 route, the 2F1 reduction
    Gamma(beta+1)/Gamma(m) * 2F1(beta+1, alpha; m+1; 1) that the constraint
    m = alpha+beta+1 produces, and the fully reduced expression
    m/((m-alpha)*Gamma(alpha+1)).  The first two share one prefactor,
    computed once by recast_params; their series are independent.  The
    three must agree within ROUTE_TOL (else IdentityAssertionError); the
    report then compares S(1) against the closed form, which is 0 here, so
    the expected verdict is Mismatch for non-integer alpha.  Nonpositive
    integer alpha makes both sides vanish and the verdict is a match
    instead.
    """
    ctx = ctx or DEFAULT_CONTEXT
    alpha, beta = scalar(alpha), scalar(beta)
    m = alpha + beta + 1
    p = RamanujanParams(alpha, beta, m, 1)

    params, pref = recast_params(alpha, beta, m, 1, ctx)
    route_a = pref * eval_at_1(params, ctx).value

    # the constraint m = alpha+beta+1 collapses the Gamma(m+2j) pair termwise
    route_b = pref * eval_at_1(HypParams((beta + 1, alpha), (m + 1,)), ctx).value
    route_c = _counterexample_reduced(alpha, m, ctx)

    routes = (route_a, route_b, route_c)
    if any(v.is_infinity for v in routes):
        if not all(v.is_infinity for v in routes):
            raise IdentityAssertionError(
                f"S(1) routes disagree on finiteness: {routes}")
    else:
        vals = [v.finite.to_mpc(ctx.precision) for v in routes]
        span = max(abs(x - y) for x in vals for y in vals)
        scale = max(abs(x) for x in vals)
        if span > max(ROUTE_TOL * scale, ctx.abs_tol):
            raise IdentityAssertionError(
                f"S(1) routes disagree beyond {ROUTE_TOL} relative: {vals}")

    closed = s_closed_form(p, ctx)
    context = {
        "alpha": str(alpha), "beta": str(beta), "m": str(m), "z": "1",
        "route_4f3": _value_str(route_a, ctx),
        "route_2f1": _value_str(route_b, ctx),
        "route_reduced": _value_str(route_c, ctx),
        "route_tol": ROUTE_TOL,
    }
    return compare(route_a, closed, ctx, rel_tol, context)


def _counterexample_reduced(alpha: Scalar, m: Scalar,
                            ctx: EvalContext) -> SphereValue:
    def reduced(alpha, m):
        # m / ((m - alpha) * Gamma(alpha+1))
        den = SphereValue.of(m - alpha) * gamma(alpha + 1)
        return SphereValue.of(m) * den.reciprocal()

    return exact_first(reduced, (alpha, m), ctx)


def _value_str(v: SphereValue, ctx: EvalContext) -> str:
    if v.is_infinity:
        return "inf"
    return str(v.finite.to_mpc(min(ctx.precision, 64)))


def _sweep_point(pt: Mapping, ctx: EvalContext,
                 rel_tol: float) -> IdentityReport:
    try:
        alpha = -pt["k"] if "k" in pt else pt["alpha"]
        return verify_point(alpha, pt["beta"], pt["m"], pt.get("z", 0),
                            ctx, rel_tol)
    except Exception as exc:  # malformed point: record, keep sweeping
        return IdentityReport(None, None, math.nan, math.nan,
                              Verdict.POLE_SKIPPED,
                              {"error": f"{type(exc).__name__}: {exc}",
                               "point": dict(pt)})


def sweep(points: Iterable[Mapping], ctx: Optional[EvalContext] = None,
          jobs: Optional[int] = None,
          rel_tol: float = DEFAULT_REL_TOL) -> List[IdentityReport]:
    """verify_point over a grid.  Each point is a mapping with keys
    alpha (or k, meaning alpha = -k), beta, m, z.  Per-point failures of any
    kind are recorded as PoleSkipped reports; the sweep itself never aborts.

    ``jobs`` must be at least 1 and is otherwise ignored: points run one
    after another in this process, in grid order, and each report carries
    its ``grid_index``.  The library shares mpmath's global precision, so it
    is not thread-safe; run parallel sweeps in separate processes."""
    ctx = ctx or DEFAULT_CONTEXT
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    reports = [_sweep_point(pt, ctx, rel_tol) for pt in points]
    for i, rep in enumerate(reports):
        rep.context.setdefault("grid_index", i)
    return reports


def summarize(reports: Sequence[IdentityReport]) -> Dict[str, int]:
    """Verdict counts, with all four verdicts always present as keys."""
    counts = {v.value: 0 for v in Verdict}
    for rep in reports:
        counts[rep.verdict.value] += 1
    return counts


def brute_force_oracle(k: int, beta, m, z) -> Scalar:
    """The defining series of S for alpha = -k, evaluated with nothing but
    plain Fraction arithmetic: each gamma ratio Gamma(x)/Gamma(x+n) is
    reduced on the spot to a rising-factorial product (1/(x)_n for n >= 0,
    (x+n)_{-n} for n < 0).  Shares no code with s_direct, so a defect in the
    main evaluation path cannot vouch for itself.

    All inputs must be exact rationals.  m = 0 is a genuine pole of the raw
    series shape (the j = 0 term carries Gamma(m)/Gamma(m+1) = 1/m) and
    raises PoleError rather than being resolved by cancellation.
    """
    if k < 0 or k != int(k):
        raise InvalidParametersError("k must be a nonnegative integer")
    vals = []
    for name, v in (("beta", beta), ("m", m), ("z", z)):
        s = scalar(v)
        if not s.is_rational:
            raise InvalidParametersError(
                f"brute_force_oracle needs exact rational {name}, got {s}")
        vals.append(s.fraction)
    b, mf, zf = vals

    def rising(x: Fraction, n: int) -> Fraction:
        acc = Fraction(1)
        for i in range(n):
            acc *= x + i
        return acc

    def ratio(x: Fraction, n: int, j: int) -> Fraction:
        # Gamma(x) / Gamma(x + n)
        if n >= 0:
            den = rising(x, n)
            if den == 0:
                raise PoleError(
                    f"gamma ratio pole in term {j} of the brute-force series",
                    term_index=j)
            return 1 / den
        return rising(x + n, -n)

    total = Fraction(0)
    binom = Fraction(1)            # (-k)_j / j!  =  (-1)^j C(k, j)
    for j in range(k + 1):
        if j > 0:
            binom *= Fraction(-(k - j + 1), j)
        pair1 = ratio(b + 1 + j * zf, j - k, j)
        pair2 = ratio(mf + j * (zf + 1), 1 - j, j)
        total += mf * pair1 * pair2 * binom
    return Scalar.exact(total)
