"""Classical summation and transformation identities used as cross-checks:
Gauss's theorem for 2F1 at unit argument, the Pochhammer splitting form of
Gauss's multiplication formula, a 4F3 <-> 3F2 transformation due to Askey
and Ismail, and the limiting 2F1 evaluation it degenerates to.
"""

from __future__ import annotations

from typing import Optional

from .numeric_core import (
    DEFAULT_CONTEXT,
    EvalContext,
    InvalidParametersError,
    Scalar,
    SphereValue,
    checked_count,
    exact_first,
    gamma_ratio,
    pochhammer,
    pochhammer_sum,
    scalar,
)
from .hyper_series import EvalResult, HypParams, eval_at_1

__all__ = [
    "gauss_closed_form",
    "gauss_series_converges",
    "pochhammer_multiplication_split",
    "askey_ismail_lhs",
    "askey_ismail_rhs",
    "askey_ismail_validity",
    "terminating_2f1_limit",
]


def gauss_series_converges(a, b, c) -> bool:
    """Whether 2F1(a,b;c;1) converges as a series: Re(c-a-b) > 0."""
    return (scalar(c) - scalar(a) - scalar(b)).real_part() > 0


def gauss_closed_form(a, b, c, ctx: Optional[EvalContext] = None) -> SphereValue:
    """Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)), the value of
    2F1(a,b;c;1) whenever the series converges (gauss_series_converges).

    The four gammas are paired into two ratios so that an integer a (or b)
    turns each ratio into a finite Pochhammer symbol even when the
    individual gammas sit on poles.  Evaluated through exact_first: exact
    where gamma's exact domain allows (real float inputs as the exact
    rationals they are), otherwise in float with guard bits; a float input
    or route gives a float rounded once to ctx.precision.
    """
    def gauss(a, b, c):
        # pair so integer-difference reduction fires when possible
        if not a.is_integer() and b.is_integer():
            a, b = b, a
        return gamma_ratio(c, c - a) * gamma_ratio(c - a - b, c - b)

    return exact_first(gauss, (a, b, c), ctx or DEFAULT_CONTEXT)


def pochhammer_multiplication_split(base, n: int, j: int) -> Scalar:
    """(base)_{n j} rewritten as n^{nj} * prod_{i=1}^{n} ((base+i-1)/n)_j.

    This is the Pochhammer form of Gauss's multiplication formula; it is
    what turns a stride-n product of gamma ratios into n ordinary
    hypergeometric parameters.
    """
    if n < 1:
        raise InvalidParametersError("n must be a positive integer")
    if j < 0:
        raise InvalidParametersError("j must be a nonnegative integer")
    base = scalar(base)
    return n ** (n * j) * pochhammer_sum([((base + i) / n, 0, j, 0) for i in range(n)], (), 0, 0)


def askey_ismail_validity(a, d) -> bool:
    """The stated validity condition Re(d) > Re(a) > 0 of the transformation.

    Terminating instances are finite rational expressions that hold beyond
    it, so this is reported alongside results rather than enforced.
    """
    return scalar(d).real_part() > scalar(a).real_part() > 0


def askey_ismail_lhs(a, c, d, k: int, ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """4F3(a/2, (a+1)/2, -k, c; d/2, (d+1)/2, -k+a+c+1-d; 1), terminating."""
    checked_count("k", k, ctx)
    a, c, d = scalar(a), scalar(c), scalar(d)
    params = HypParams(
        (a / 2, (a + 1) / 2, Scalar.exact(-k), c),
        (d / 2, (d + 1) / 2, a + c + 1 - d - k),
    )
    return eval_at_1(params, ctx)


def askey_ismail_rhs(a, c, d, k: int, ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """(d-a)_k (d-c)_k / ((d-a-c)_k (d)_k) times 3F2(-k, a, c; k+d, d-c; 1).
    The prefactor goes through exact_first, as the terminating 3F2 does."""
    checked_count("k", k, ctx)
    a, c, d = scalar(a), scalar(c), scalar(d)

    def prefactor(a, c, d):  # one term, j = 1: a vanishing denominator raises PoleError
        return SphereValue.of(pochhammer_sum([(d - a, 0, k, 0), (d - c, 0, k, 0)],
                                             [(d - a - c, k), (d, k)], 1, 1, ctx=ctx))

    pref = exact_first(prefactor, (a, c, d), ctx)
    inner = eval_at_1(HypParams((Scalar.exact(-k), a, c), (d + k, d - c)), ctx)
    return EvalResult(pref * inner.value, inner.terms_used, inner.tail_bound,
                      inner.classification)


def terminating_2f1_limit(k: int, a) -> Scalar:
    """The limit of 2F1(-k, a; -k+eps; 1) as eps -> 0: (-k-a)_k / (-k)_k.

    The naive parameter set has -k in the denominator, which the series
    definition rejects; perturbing and passing to the limit gives this
    finite Pochhammer ratio instead.
    """
    if k < 0:
        raise InvalidParametersError("k must be a nonnegative integer")
    if k == 0:
        return Scalar.exact(1)
    a = scalar(a)
    return pochhammer(-k - a, k) / pochhammer(Scalar.exact(-k), k)
