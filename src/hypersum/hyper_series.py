"""Generalized pFq series at unit argument: classification, terms, summation.

The sum is over j >= 0 of (a_1)_j ... (a_p)_j / [(b_1)_j ... (b_q)_j j!].
Termination (a numerator parameter a nonpositive integer) takes priority over
everything else; otherwise the series converges at 1 only in the balanced
case p = q+1 with Re(sum of denominators) > Re(sum of numerators), or
trivially for p <= q.

Summation strategy by case:

* terminating: the finite sum, exact when all parameters are exact;
* p <= q: one mp.hyper call, which sums in fixed point and reruns at a
  higher precision when it measures cancellation, so the value is right to
  about the requested precision;
* p = q+1: the ratio tends to 1 from below and a geometric bound never
  certifies anything useful.  Instead the tail from index N is written as
  t_N * u(N) where u satisfies u(N) = 1 + r(N) u(N+1), and u is expanded in
  powers of 1/N.  The expansion coefficients come from a triangular linear
  system and do not depend on N, so the cutoff can be doubled cheaply until
  two truncation depths of the correction agree.  r and every column of
  the system are products of linear factors (1 + c/N)^{+-1}, each applied
  as a first-order recurrence, so the build costs O(depth^2).  One engine
  does all of this in one of two arithmetics at W = precision + 40 bits:
  integers scaled by 2^W for real rational parameters (real floats as
  dyadic rationals), kept over their common denominator, and mpc for
  complex parameters and sqrt(pi) multiples.  _arithmetic makes that
  choice, for this engine and for the experimental S route.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from mpmath import mp
from mpmath.libmp import from_man_exp, to_fixed

from .numeric_core import (
    DEFAULT_CONTEXT,
    ConvergenceError,
    DivergentSeriesError,
    EvalContext,
    GUARD_BITS,
    InvalidParametersError,
    Scalar,
    SphereValue,
    _dyadic,
    checked_count,
    exact_first,
    pochhammer_sum,
    scalar,
    working_precision,
)

__all__ = [
    "HypParams",
    "SeriesKind",
    "SeriesClassification",
    "EvalResult",
    "classify",
    "term",
    "eval_at_1",
    "pfq",
]


class SeriesKind(enum.Enum):
    TERMINATING = "terminating"
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class SeriesClassification:
    kind: SeriesKind
    k: Optional[int] = None  # truncation index for TERMINATING
    saalschutzian: bool = False
    tolerance_dependent: bool = False


@dataclass(frozen=True)
class EvalResult:
    value: SphereValue
    terms_used: Optional[int]  # None when mp.hyper summed the series
    # Truncation error only.  The int 0 marks an exact value; a terminating
    # sum rounded to float reads 0.0 (real input was summed exactly, so its
    # one error is the final rounding); other floats are estimates.  On the
    # p <= q route it is mp.hyper's target accuracy 2^-P |value|.  On the
    # balanced route it is the difference between two truncation depths,
    # floored at 2^-P |value|: an estimate, not a bound.
    tail_bound: Union[int, float]
    classification: SeriesClassification
    experimental: bool = False


@dataclass(frozen=True, eq=False)
class HypParams:
    """Parameter lists of a pFq.  Scalars, ints, Fractions, "p/q" strings and
    floats are accepted; float entries are unified to one precision.

    A denominator parameter at a nonpositive integer -d is only legal when
    some numerator parameter is a nonpositive integer -k with k <= d: the
    series then truncates before the vanishing denominator factor is ever
    used.  Anything else leaves 0 in a denominator and is rejected.

    ``truncation`` is (k, tolerance_dependent) for the smallest such k, None
    for a nonterminating series; the flag marks a float-tolerance match.
    """

    numerator: tuple
    denominator: tuple
    truncation: Optional[Tuple[int, bool]] = field(init=False, default=None)

    def __post_init__(self):
        nums = tuple(scalar(x) for x in self.numerator)
        dens = tuple(scalar(x) for x in self.denominator)
        precs = {x.prec for x in (*nums, *dens) if x.is_float}
        if len(precs) > 1:
            p = max(precs)
            nums = tuple(x.to_float_scalar(p) if x.is_float else x for x in nums)
            dens = tuple(x.to_float_scalar(p) if x.is_float else x for x in dens)
        object.__setattr__(self, "numerator", nums)
        object.__setattr__(self, "denominator", dens)
        hits = [a.nearest_integer() for a in nums if a.is_nonpositive_integer()]
        kmin = min(-n for n, _ in hits) if hits else None
        for b in dens:
            if b.is_nonpositive_integer() and (kmin is None or kmin > -b.nearest_integer()[0]):
                raise InvalidParametersError(
                    f"denominator parameter {b} is a nonpositive integer and no "
                    "numerator parameter truncates the series before the zero factor"
                )
        if hits:
            object.__setattr__(self, "truncation",
                               (kmin, not all(exact for _, exact in hits)))

    @property
    def p(self) -> int:
        return len(self.numerator)

    @property
    def q(self) -> int:
        return len(self.denominator)

    def __repr__(self):
        ns = ", ".join(str(x) for x in self.numerator)
        ds = ", ".join(str(x) for x in self.denominator)
        return f"HypParams([{ns}], [{ds}])"


def _balance(params: HypParams, ctx: EvalContext) -> Scalar:
    """Sum of denominator parameters minus sum of numerator parameters,
    through exact_first: sqrt(pi) multiples of different powers fall back
    to float instead of refusing."""
    def diff(*xs):
        return SphereValue.of(sum(xs[params.p:], Scalar.exact(0))
                              - sum(xs[:params.p], Scalar.exact(0)))
    return exact_first(diff, params.numerator + params.denominator, ctx).finite


def classify(params: HypParams, ctx: Optional[EvalContext] = None) -> SeriesClassification:
    """Termination first (smallest truncation index wins), then the unit-
    argument convergence test for p = q+1; p <= q always converges and
    p > q+1 never does.  The saalschutzian flag tests balance == 1, exactly
    in exact mode and within abs_tol for float parameters."""
    ctx = ctx or DEFAULT_CONTEXT
    k, tol_dep = params.truncation or (None, False)
    bal = _balance(params, ctx)
    if bal.is_exact:
        saal = bal == Scalar.exact(1)
    else:
        saal = abs((bal - 1).to_mpc(bal.prec)) <= ctx.abs_tol
        tol_dep = tol_dep or saal

    if k is not None:
        return SeriesClassification(SeriesKind.TERMINATING, k=k,
                                    saalschutzian=saal, tolerance_dependent=tol_dep)
    if params.p == params.q + 1:
        # one __lt__ call: the derived > would compare twice
        converges = Scalar.exact(0) < bal.real_part()
        kind = SeriesKind.CONVERGENT if converges else SeriesKind.DIVERGENT
    elif params.p > params.q + 1:
        kind = SeriesKind.DIVERGENT
    else:
        kind = SeriesKind.CONVERGENT
    return SeriesClassification(kind, saalschutzian=saal, tolerance_dependent=tol_dep)


def term(params: HypParams, j: int) -> Scalar:
    """The j-th term, computed from first principles as a Pochhammer product
    ratio (no recurrence).  A vanishing denominator Pochhammer is a pole."""
    if j < 0:
        raise ValueError("term index must be >= 0")
    return _terms(params.numerator, params.denominator, j, j)


def _terms(nums, dens, first: int, last: int,
           ctx: EvalContext = DEFAULT_CONTEXT) -> Scalar:
    """Terms first..last of the series, term j being prod (a)_j / (prod (b)_j j!),
    summed by pochhammer_sum (which refuses too much factor work for ctx)."""
    return pochhammer_sum([1] * (last + 1 - first), [(a, 0, 0, 1) for a in nums],
                          [(b, 1) for b in dens] + [(1, 1)], first, ctx)


def _finite_sum_result(value: SphereValue, cls: SeriesClassification) -> EvalResult:
    """The result of a terminating sum of cls.k + 1 terms: tail_bound is the
    int 0 for an exact value and 0.0 for one rounded to float."""
    return EvalResult(value, cls.k + 1, 0 if value.finite.is_exact else 0.0, cls)


def _hyper_arg(x: Scalar, prec: int):
    """A parameter as mp.hyper takes it: an exact rational as the pair (p, q),
    which mpmath's summator keeps exact; anything else as an mpc, which
    mpmath treats as real when its imaginary part is 0, a sqrt(pi) multiple
    rounded at ``prec`` bits."""
    if x.is_rational:
        return x.fraction.numerator, x.fraction.denominator
    return x.to_mpc(prec)


def _sum_hyper(params: HypParams, cls: SeriesClassification,
               ctx: EvalContext) -> EvalResult:
    """p <= q: one mp.hyper call at ctx.precision.  Its summator works in
    fixed point, measures the cancellation and reruns at a higher precision
    when it finds some, so the value is rounded to P bits and tail_bound
    is 2^-P |value|, the target accuracy (never 0.0).  mpmath does not say
    how many terms it summed, so terms_used is None."""
    prec = ctx.precision
    nums = [_hyper_arg(x, prec + GUARD_BITS) for x in params.numerator]
    dens = [_hyper_arg(x, prec + GUARD_BITS) for x in params.denominator]
    with working_precision(prec):
        try:
            val = mp.mpc(mp.hyper(nums, dens, 1, maxterms=ctx.max_terms))
        except (mp.NoConvergence, ValueError):
            # NoConvergence: maxterms ran out; ValueError: the cancellation
            # needs more than mpmath's maxprec
            raise ConvergenceError(
                f"mp.hyper did not reach {prec} bits within {ctx.max_terms} terms",
                terms_used=ctx.max_terms) from None
        bound = max(float(mp.ldexp(abs(val), -prec)), math.ulp(0.0))
    return EvalResult(SphereValue.of(Scalar(val=val, prec=prec)), None, bound, cls)


class _Arithmetic(NamedTuple):
    """The numbers a series engine computes with: ``one``; ``mul`` and
    ``div``, the product and quotient of two numbers; ``value``, the mpmath
    number that a product of two numbers stands for; and ``lift``, an mpf
    as a number."""

    one: object
    mul: Callable
    div: Callable
    value: Callable
    lift: Callable


_MPMATH = _Arithmetic(1, operator.mul, operator.truediv, operator.pos, operator.pos)


def _arithmetic(xs, w: int):
    """The series engines' one choice of arithmetic at W = w bits, for the
    Scalars xs: (ints, d, arith), each x standing for ints[i] / d.

    With every x real and rational (a real float as the dyadic rational it
    is) ints are integers over their common denominator d, and arith works
    in integers scaled by 2^W: mul, div and lift floor to a multiple of
    2^-W, and value reads a product, scaled by 2^2W, exactly.  Otherwise
    (complex parameters, sqrt(pi) multiples) ints are the mpc values at w
    bits, d is 1 and arith is mpmath's own at the working precision.
    """
    exact = [_dyadic(x) for x in xs]
    if not all(x is not None and x.is_rational for x in exact):
        return [x.to_mpc(w) for x in xs], 1, _MPMATH
    fracs = [x.fraction for x in exact]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d, _Arithmetic(
        1 << w, lambda x, y: x * y >> w, operator.floordiv,
        lambda x: mp.make_mpf(from_man_exp(x, -2 * w)),
        lambda x: to_fixed(x._mpf_, w))


def _ratio_series(a_vals, b_vals, length, mul, one):
    """Coefficients of prod(1 + a_i x) / prod(1 + b_j x) to ``length`` terms,
    in the arithmetic (one, mul) of _arithmetic: the term ratio r(x), x = 1/N,
    when b_vals ends in ``one``.

    Each linear factor is one first-order recurrence on the truncated
    series: multiplying by (1 + c x) is r[t] += c r[t-1] with t descending,
    dividing by it is r[t] -= c r[t-1] with t ascending.
    """
    r = [one] + [0] * (length - 1)
    for a in a_vals:
        for t in range(length - 1, 0, -1):
            r[t] += mul(a, r[t - 1])
    for b in b_vals:
        for t in range(1, length):
            r[t] -= mul(b, r[t - 1])
    return r


def _tail_coefficients(r, depth, div, one):
    """Solve for u(N) ~ c_{-1} N + c_0 + c_1/N + ... from u = 1 + r u(N+1),
    in the arithmetic (one, div) of _arithmetic.

    Substituting the ansatz and collecting powers of x = 1/N gives a lower
    triangular system.  The x^0 equation pins c_{-1} = 1/s with
    s = sum(den) - sum(num) (the convergence abscissa), and each higher
    order determines one further coefficient.  Column k of the system needs
    r(x) (1+x)^{-k}; one running copy is divided by (1 + x) per column, so
    the whole build costs O(depth^2).
    """
    em1 = [-(r[t + 1] + r[t]) for t in range(depth + 1)]
    es = []
    rk = r[:depth + 1]
    for k in range(depth):
        if k:
            for t in range(1, depth + 1):
                rk[t] -= rk[t - 1]
        ek = [0] * (depth + 1)
        for t in range(k, depth + 1):
            ek[t] = (one if t == k else 0) - rk[t - k]
        es.append(ek)
    cm1 = div(one * one, em1[0])
    cs = []
    for t in range(1, depth + 1):
        s = cm1 * em1[t]
        for k in range(t - 1):
            s += cs[k] * es[k][t]
        cs.append(div(-s, es[t - 1][t]))
    return cm1, cs


def _tail_u(n, cm1, cs, div):
    """u(N) = c_{-1} N + sum_k c_k N^-k."""
    u, scale = cm1 * n, 1
    for c in cs:
        u += div(c, scale)
        scale *= n
    return u


def _balanced(ints, d: int, p: int, n: int, depth: int, arith: _Arithmetic):
    """Yields (N, sum plus tail, |t_N (u_hi - u_lo)|) for the parameters
    ints[i] / d (numerators first, p of them) from N = n on, N doubling,
    in the arithmetic of _arithmetic.

    The term step is t = div(t prod(A_i + jD), D (j+1) prod(B_k + jD)).
    The tail build takes each parameter as div(A one, D): in integers,
    rounded to a multiple of 2^-W, so that its integers stay near W bits
    however large D is.
    """
    one, mul, div, value, _ = arith
    nums, dens = ints[:p], ints[p:]
    fixed = [div(x * one, d) for x in ints]
    r = _ratio_series(fixed[:p], fixed[p:] + [one], depth + 2, mul, one)
    cm1, cs = _tail_coefficients(r, depth, div, one)
    acc, t, done = 0, one, 0
    while True:
        for j in range(done, n):
            acc += t
            num, den, jd = 1, d * (j + 1), j * d
            for a in nums:
                num *= a + jd
            for b in dens:
                den *= b + jd
            t = div(t * num, den)
        done = n
        u_hi = _tail_u(n, cm1, cs, div)
        u_lo = _tail_u(n, cm1, cs[:-4], div)
        yield n, value(acc * one + t * u_hi), value(abs(t * (u_hi - u_lo)))
        n *= 2


def _sum_balanced(params: HypParams, cls: SeriesClassification,
                  ctx: EvalContext) -> EvalResult:
    """p = q+1 at unit argument: partial sum to N plus the asymptotic tail
    correction t_N u(N), doubling N until two truncation depths agree.
    One engine, _balanced, works at W = ctx.precision + 40 bits in one of
    two arithmetics: integers scaled by 2^W, with real rational parameters
    (real floats as their dyadic rationals) over their common denominator D,
    or mpc for complex parameters and sqrt(pi) multiples, over D = 1.  Only
    the stop test and the rounding use mpf.

    tail_bound is |t_N (u_hi - u_lo)|, where u_lo drops the last four of the
    18 expansion coefficients that u_hi uses, floored at 2^-P |sum|, the
    rounding to P = ctx.precision bits.  It estimates the error and bounds
    nothing: for 2F1(5/3, 3; 58/9; 1) at 53 bits the two depths differ by
    3.8e-26 against a true error of 1.15e-16, which the floor, 5.0e-16,
    covers.
    """
    depth = 18
    prec_work = ctx.precision + 40
    with working_precision(prec_work):
        ints, d, arith = _arithmetic(params.numerator + params.denominator, prec_work)
        # the first N, past where the largest parameter still shapes the terms
        n = min(max(64, int(4 * max([abs(x) for x in ints] + [d]) / d) + 16),
                ctx.max_terms)
        for n, total, err in _balanced(ints, d, params.p, n, depth, arith):
            if err <= max(ctx.rel_tol * abs(total), ctx.abs_tol):
                bound = max(err, mp.ldexp(abs(total), -ctx.precision))
                with working_precision(ctx.precision):
                    val = mp.mpc(+total)
                return EvalResult(
                    SphereValue.of(Scalar(val=val, prec=ctx.precision)),
                    n, float(bound), cls)
            if 2 * n > ctx.max_terms:
                raise ConvergenceError(
                    f"tail correction not certified within {ctx.max_terms} terms "
                    f"(estimated error {mp.nstr(err, 3)})",
                    partial=Scalar(val=mp.mpc(+total), prec=prec_work), terms_used=n)


def eval_at_1(params: HypParams, ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """Sum the series at unit argument.

    Terminating series are summed by pochhammer_sum through exact_first:
    exactly whenever every parameter is real (a float as the exact rational
    it is, the sum rounded once to ctx.precision), in float with guard bits
    for complex parameters; one that ends past k = ctx.max_terms, or whose
    Pochhammer products take more than ctx.max_terms ** 2 of factor work, is
    refused with InvalidParametersError.  Convergent p <= q series go to
    mp.hyper at ctx.precision; balanced p = q+1 series by _sum_balanced
    until the estimated tail drops below max(rel_tol * |partial|, abs_tol).
    Divergent input is refused.
    """
    cls = classify(params, ctx)
    if cls.kind is SeriesKind.DIVERGENT:
        raise DivergentSeriesError(
            f"refusing to sum a {cls.kind.value} series at unit argument", cls)
    if cls.kind is SeriesKind.TERMINATING:
        checked_count("the terminating index k", cls.k, ctx)
        value = exact_first(
            lambda *xs: SphereValue.of(_terms(xs[:params.p], xs[params.p:], 0, cls.k, ctx)),
            params.numerator + params.denominator, ctx)
        return _finite_sum_result(value, cls)
    if params.p <= params.q:
        return _sum_hyper(params, cls, ctx)
    return _sum_balanced(params, cls, ctx)


def pfq(numerator: Sequence, denominator: Sequence,
        ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """Convenience wrapper: build HypParams and evaluate at unit argument."""
    return eval_at_1(HypParams(tuple(numerator), tuple(denominator)), ctx)
