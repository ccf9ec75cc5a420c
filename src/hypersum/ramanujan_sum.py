"""The central summation S(alpha, beta, m, z) in its four representations,
plus the proof-level identities that make the terminating evaluation work.

S is defined through gamma-function ratios:

    S = m * sum_j  G(beta+1+jz) G(m+j(z+1))
                   ------------------------------  (alpha)_j / j!
                   G(alpha+beta+1+j(z+1)) G(m+jz+1)

For alpha = -k (a nonpositive integer) the sum truncates and every gamma
ratio collapses to a Pochhammer symbol, so the value is an exact rational
expression in beta, m, z; the claimed closed form is
Gamma(beta+1-m)/Gamma(alpha+beta+1-m) = (beta+1-m-k)_k, and it is
independent of z.  For nonterminating alpha the closed form generally
fails; only z = 0 (with convergence) is covered.  Nonnegative integer z is
summed as a balanced hypergeometric series; any other z by
_s_direct_experimental, N direct terms and an Euler-Maclaurin tail in 1/N,
and those results are marked experimental.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

from mpmath import mp

from .numeric_core import (
    DEFAULT_CONTEXT,
    DivergentSeriesError,
    ConvergenceError,
    EvalContext,
    IdentityAssertionError,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    UnsupportedExactError,
    _near_nonpositive_int,
    checked_count,
    exact_first,
    gamma_ratio,
    pochhammer,
    pochhammer_sum,
    scalar,
    working_precision,
)
from .hyper_series import (
    EvalResult,
    HypParams,
    SeriesClassification,
    SeriesKind,
    _MPMATH,
    _arithmetic,
    _finite_sum_result,
    eval_at_1,
)

__all__ = [
    "RamanujanParams",
    "PolynomialInZ",
    "s_closed_form",
    "s_direct",
    "s_integer_form",
    "recast_params",
    "s_polynomial",
    "inner_sum_E",
    "finite_difference_check",
    "eq6_prefactor",
]


@dataclass(frozen=True)
class RamanujanParams:
    """Arguments of S.  When alpha is a nonpositive integer -k the series
    terminates after k+1 terms; k is detected on construction."""

    alpha: object
    beta: object
    m: object
    z: object
    terminating_k: Optional[int] = field(init=False, default=None)
    integer_z: Optional[int] = field(init=False, default=None)  # z if in 0, 1, 2, ...

    def __post_init__(self):
        for name in ("alpha", "beta", "m", "z"):
            object.__setattr__(self, name, scalar(getattr(self, name)))
        hit = self.alpha.nearest_integer()
        if hit is not None and hit[0] <= 0:
            object.__setattr__(self, "terminating_k", -hit[0])
        hit = self.z.nearest_integer()
        if hit is not None and hit[0] >= 0:
            object.__setattr__(self, "integer_z", hit[0])

    def all_exact(self) -> bool:
        return all(x.is_exact for x in (self.alpha, self.beta, self.m, self.z))

    def __repr__(self):
        return (f"RamanujanParams(alpha={self.alpha}, beta={self.beta}, "
                f"m={self.m}, z={self.z})")


@dataclass(frozen=True)
class PolynomialInZ:
    """A polynomial in z with Scalar coefficients, index = power of z."""

    coefficients: Tuple[Scalar, ...]

    @property
    def degree(self) -> int:
        for i in range(len(self.coefficients) - 1, -1, -1):
            if not self.coefficients[i].is_zero():
                return i
        return 0

    @property
    def constant_term(self) -> Scalar:
        return self.coefficients[0]

    def z_coefficients(self) -> Tuple[Scalar, ...]:
        """Coefficients of z^i for i >= 1 (the ones the theorem kills)."""
        return self.coefficients[1:]

    def evaluate(self, z) -> Scalar:
        z = scalar(z)
        acc = Scalar.exact(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def __str__(self):
        parts = [f"({c})*z^{i}" if i else f"({c})"
                 for i, c in enumerate(self.coefficients)]
        return " + ".join(parts)


def _terminating_cls(k: int) -> SeriesClassification:
    return SeriesClassification(SeriesKind.TERMINATING, k=k)


def s_closed_form(p: RamanujanParams, ctx: Optional[EvalContext] = None) -> SphereValue:
    """Gamma(beta+1-m) / Gamma(alpha+beta+1-m), via gamma_ratio so that the
    terminating case reduces to the exact Pochhammer value (beta+1-m-k)_k.

    Through exact_first: real inputs give the exact value (rounded once to
    ctx.precision when an input was a float); arguments that admit no exact
    gamma evaluation (nonterminating alpha with generic rationals) and
    complex inputs use float gammas with guard bits.
    """
    return exact_first(lambda a, b, m: gamma_ratio(b + 1 - m, a + b + 1 - m),
                       (p.alpha, p.beta, p.m), ctx or DEFAULT_CONTEXT)


def _signed_binomial(n: int):
    """The weight j -> (-1)^j C(n, j) = (-n)_j / j! of an alternating sum."""
    return lambda j: (-1) ** j * math.comb(n, j)


def _s_direct_terminating(p: RamanujanParams, ctx: EvalContext) -> EvalResult:
    k = checked_count("k", p.terminating_k, ctx)

    def direct_sum(beta, m, z):
        # j = 0: the leading m cancels (m+1)_{-1} = 1/m symbolically,
        # leaving (beta+1-k)_k; this keeps m = 0 well-defined.  Term j >= 1
        # is m (beta+1-k+j(z+1))_{k-j} (m+1+jz)_{j-1} (-k)_j / j!.
        start = beta + 1 - k
        rest = pochhammer_sum([(start, z + 1, k, -1), (m + 1, z, -1, 1)], (),
                              1, k, _signed_binomial(k), ctx)
        return SphereValue.of(pochhammer(start, k) + m * rest)

    value = exact_first(direct_sum, (p.beta, p.m, p.z), ctx)
    return _finite_sum_result(value, _terminating_cls(k))


# One stride step of the direct terms multiplies 4p + 4q linear factors for
# z = p/q (see _stride), (alpha)_j / j!'s 2q among them.  At 53 bits (83
# working bits; a 2-core x86_64 host, Python 3.11, mpmath 1.3.0 on its
# Python backend) a step of 512 factors took 38-43 us against 76-101 us for
# one _gamma_term_float call with its weight and lift, and the two met near
# 770 factors (near 1000 at 256 bits, where gammas cost more); the bound
# keeps a step at about half a gamma term, and every z = p/q with
# 4p + 2q < 256, which stepped when the count left out the (alpha)-factors,
# still steps.
_STRIDE_FACTORS = 512


def _s_direct_experimental(p: RamanujanParams, ctx: EvalContext) -> EvalResult:
    """Nonterminating alpha with non-integer z: N direct terms, plus an
    Euler-Maclaurin tail, one power series in 1/N.

    Outside the ground the closed form is known to cover, hence flagged
    experimental.  Written with (alpha)_j/j! = Gamma(j+alpha)/(Gamma(alpha)
    Gamma(j+1)), term j is 1/Gamma(alpha) times three gamma ratios
    Gamma(sigma j+b)/Gamma(sigma j+c) with (sigma; b, c) = (z; beta+1, m+1),
    (z+1; m, alpha+beta+1) and (1; alpha, 1), whose exponents b-c sum to
    -2.  The terms j < N are summed directly; the rest is
    C sum_k e_k zeta(2+k, N), with C the powers of sigma over Gamma(alpha)
    and e_k from _gamma_ratio_expansion.  At the integer N, Euler-Maclaurin
    gives zeta(s, N) = N^(1-s)/(s-1) + N^-s/2
    + sum_i B_2i/(2i)! (s)_(2i-1) N^(1-s-2i), and folded over k the tail is
    C sum_n c_n N^-(n+1) with
    c_n = e_n/(n+1) + e_(n-1)/2 + sum_i B_2i/(2i)! (n-2i+2)_(2i-1) e_(n-2i),
    a sum without subtraction (Johansson, Numer. Algorithms 69, 2015).  A
    Hurwitz zeta summed to an absolute 2^-prec, as mpmath's is, loses the
    bits of these tiny values.

    The route's four rules, each made in one place; the direct loop only sums:
    - N is (0.2 (P+30) + r) / min(|z|, 1) rounded up, with r the largest
      |b| or |c|, and at least 16; N above max_terms raises
      ConvergenceError.  For real z every gamma argument past N is
      positive, so no pole lies in the tail.
    - Re z <= 0 is refused, since the expansion does not hold there: the
      first j < N whose numerator gamma sits on a pole raises PoleError
      naming j, else DivergentSeriesError.  No gamma is evaluated.
    - For real rational parameters and z = p/q > 0 with 4p + 4q below
      _STRIDE_FACTORS, term j+q is term j times the exact integer ratio of
      _stride_ratio once j >= j0, the first index where every argument of
      the two stepping gamma ratios is positive (each grows with j).  Terms
      j < j0 + q take gammas (_gamma_term_float), which finds the poles; a
      seed dropped at a denominator pole (within the detection tolerance
      of a positive argument) moves j0 past it.
    - Tail terms are added until one after the first falls below
      2^-(P+30) of |S|, abs_tol standing in for |S| near 0.  A tail not
      settled by depth 0.6 (P+30) is summed again with 2N direct terms,
      the balanced route's rule, and raises ConvergenceError only when 2N
      would pass max_terms.  Large parameters need it: S(1/2, 17/2, 10,
      1/2) at P = 53 settles at N = 112, not 56.

    tail_bound is the larger of |m C| times the last two tail terms and
    2^-P |S|, the rounding to P bits, which the stop rule makes the larger
    whenever |S| is above abs_tol.  Below abs_tol the stop comes early and
    the remainder past the last term is what the estimate must cover; the
    term before the last is counted because the last can fall near a sign
    change of the oscillating tail series (at S(81/2, 1, 1/2, 1/2),
    P = 128, it reads 2.8e-80 after 5.6e-78, against an error of 7.9e-80).
    On the plane m = alpha+beta+1 (alpha = 1/2, beta = 1/3; z = 1/2, 7/2,
    5/3) the value is right to 512.4-513.2 bits at P = 512 and to
    1024.7-1027.5 bits at P = 1024.

    Arithmetic, chosen by hyper_series._arithmetic at W = P+30 bits, one
    loop for both.  With all four parameters real rationals (a real float
    as its dyadic rational) the direct terms, e_k, the fold c_n and both
    sums are integers scaled by 2^W.  A gamma term (four mp.gamma calls,
    times (alpha)_j/j! as a running mpf advanced only when a gamma term is
    needed) is lifted once, over 2^E with E the binary exponent of the
    first such term, so that a sum far below 1 keeps W bits; the last q
    terms are kept in a ring.  Tail term n is c_n / N^(n+1), a product of
    two numbers, and the stop bound is carried into the same units, not
    rounded to them.  A complex parameter (or a sqrt(pi) multiple) runs the
    same loops in mpc (mpf when all four are real), with every direct term
    from gammas.  mpf or mpc remains only for the gamma terms, for C (two
    mp.power calls and an rgamma), for the stop bound and for the final
    rounding, where the direct sum, C and the tail meet once.
    """
    prec_work = ctx.precision + 30
    with working_precision(prec_work):
        args = [v.to_mpc(prec_work) for v in (p.alpha, p.beta, p.m, p.z)]
        number = mp.mpc
        if all(x.imag == 0 for x in args):
            args = [x.real for x in args]
            number = mp.mpf
        fa, fb, fm, fz = args
        unit = number(1)
        pairs = ((fz, fb + 1, fm + 1), (fz + 1, fm, fa + fb + 1), (unit, fa, unit))
        reach = max(abs(x) for _, b, c in pairs for x in (b, c))
        n_direct = max(16, int(mp.ceil((0.2 * prec_work + reach)
                                       / min(abs(fz), 1))))
        if n_direct > ctx.max_terms:
            raise ConvergenceError(
                f"direct series needs {n_direct} terms before its tail, "
                f"more than max_terms = {ctx.max_terms}",
                partial=Scalar(val=mp.mpc(0), prec=prec_work))
        if fz.real <= 0:
            for j in range(n_direct):
                _numerator_args(fb, fm, fz, j)
            raise DivergentSeriesError(
                "the direct series has no asymptotic tail for Re z <= 0; "
                "treating as divergent",
                SeriesClassification(SeriesKind.DIVERGENT))
        ints, d, arith = _arithmetic((p.alpha, p.beta, p.m, p.z), prec_work)
        one, _, div, value, lift = arith
        # without a stride recurrence (q = 0) every term takes gammas
        q, forms = (None if arith is _MPMATH else _stride(ints, d)) or (0, ())
        j0 = max([0] + [-x0 // x1 + 1 for pair in forms[:2] for x0, x1, _ in pair])
        ring = [None] * q   # term j at j mod q, from j0 on
        acc = 0             # the direct sum over 2^exp2, exp2 the first term's size
        exp2 = None
        poch_a, fact, at = unit, mp.mpf(1), 0   # (alpha)_at and at!, advanced on demand
        summed = 0          # direct terms in acc
        scale = mp.power(fz, fb - fm) * mp.power(fz + 1, fm - fa - fb - 1) \
            * mp.rgamma(fa)
        lifted = [tuple(map(lift, pair)) for pair in pairs]
        eps_units = mp.ldexp(one * one, -prec_work)
        depth = int(0.6 * prec_work)
        while True:
            for j in range(summed, n_direct):
                if q and j >= j0 + q:
                    num, den = _stride_ratio(forms, d, j - q)
                    t = ring[j % q] = div(ring[j % q] * num, den)
                else:
                    t = _gamma_term_float(fa, fb, fm, fz, j)
                    if t is None:
                        j0 = max(j0, j + 1)
                        continue
                    for i in range(at, j):
                        poch_a = poch_a * (fa + i)
                        fact = fact * (i + 1)
                    at = j
                    t = t * poch_a / fact
                    if exp2 is None:
                        exp2 = int(mp.mag(t)) if t else 0
                    t = lift(t * mp.ldexp(1, -exp2))
                    if q and j >= j0:
                        ring[j % q] = t
                acc += t
            summed = n_direct
            direct = value(acc * one) * mp.ldexp(1, exp2 or 0)
            # the tail scale * sum_n c_n N^-(n+1), where
            # (n+1) c_n = sum_r C(n+1, r) B_r e_(n-r) over row n, B_1 taken as +1/2;
            # the row's dot product is a product of two numbers, and so is each
            # tail term conv / ((n+1) N^(n+1)) and their sum
            tail, last, prev = 0, 0, 0
            power = n_direct   # N^(n+1)
            # the stop bound on a tail term, in the same units: a term below
            # 2^-W max(|S|, abs_tol) / |m scale|, with |S| re-read only when a
            # term passes the last bound
            bound = None
            for n, (e, row) in zip(range(depth + 1), _gamma_ratio_expansion(lifted, arith)):
                conv = sum(w * e[n - r] for r, w in row)
                if n:   # B_1 from -1/2 to +1/2
                    conv += (n + 1) * e[n - 1] * one
                prev, last = last, div(conv, (n + 1) * power)
                tail += last
                if n and last != 0 and (bound is None or abs(last) < bound):
                    total = direct + scale * value(tail)
                    bound = eps_units * max(abs(fm * total), ctx.abs_tol) / abs(fm * scale)
                    if abs(last) < bound:
                        break
                power *= n_direct
            else:
                if 2 * n_direct > ctx.max_terms:
                    raise ConvergenceError(
                        f"asymptotic tail not settled at depth {depth} past "
                        f"{n_direct} direct terms, and {2 * n_direct} would pass "
                        f"max_terms = {ctx.max_terms}",
                        partial=Scalar(val=mp.mpc(fm * (direct + scale * value(tail))),
                                       prec=prec_work),
                        terms_used=n_direct)
                n_direct *= 2
                continue
            break
        with working_precision(ctx.precision):
            val = mp.mpc(fm * total)
        # the last two tail terms, since the last alone can fall near a sign
        # change of the oscillating tail series, or the rounding to P bits,
        # whichever is larger; rounded up to the least positive float rather
        # than to 0.0, which an estimate below 2^-1074 (P beyond about 1000
        # bits) would give
        rest = abs(fm * scale) * (abs(value(prev)) + abs(value(last)))
        tail_bound = max(float(max(rest, mp.ldexp(abs(val), -ctx.precision))),
                         math.ulp(0.0))
        return EvalResult(
            SphereValue.of(Scalar(val=val, prec=ctx.precision)),
            n_direct, tail_bound, SeriesClassification(SeriesKind.CONVERGENT),
            experimental=True)


def _stride(ints, d: int):
    """(q, forms) for alpha, beta, m, z = ints / d, z = p/q > 0, when one
    stride step multiplies fewer than _STRIDE_FACTORS factors, else None.

    forms holds, for each of the three ratios of _s_direct_experimental's
    pairs, its numerator and its denominator argument at term j as
    (x0 + j x1) / d, each with its shift over q terms: jz grows by p, j(z+1)
    by p+q and j by q, so term j+q is term j times
    (beta+1+jz)_p (m+j(z+1))_(p+q) (alpha+j)_q
    / ((m+1+jz)_p (alpha+beta+1+j(z+1))_(p+q) (j+1)_q),
    4p + 4q factors.
    """
    a, b, m, z = ints
    g = math.gcd(z, d)
    p, q = z // g, d // g
    forms = (((b + d, z, p), (m + d, z, p)),
             ((m, z + d, p + q), (a + b + d, z + d, p + q)),
             ((a, d, q), (d, d, q)))
    if sum(length for pair in forms for _, _, length in pair) >= _STRIDE_FACTORS:
        return None
    return q, forms


def _stride_ratio(forms, d: int, j: int):
    """Term j+q over term j, as (num, den), for the forms of _stride: each
    Pochhammer factor (x0 + j x1)/d + i is (x0 + j x1 + i d)/d, and the d's
    cancel because numerator and denominator hold as many factors."""
    num = den = 1
    for pair in forms:
        (x0, x1, length), (y0, y1, _) = pair
        x, y = x0 + j * x1, y0 + j * y1
        num *= math.prod(range(x, x + length * d, d))
        den *= math.prod(range(y, y + length * d, d))
    return num, den


def _numerator_args(fb, fm, fz, j):
    """The numerator gamma arguments of direct term j.  A pole there is
    contamination and raises."""
    args = (fb + 1 + j * fz, fm + j * (fz + 1))
    if any(_near_nonpositive_int(x) for x in args):
        raise PoleError(f"gamma pole contaminates term {j} of the direct series",
                        term_index=j)
    return args


def _gamma_term_float(fa, fb, fm, fz, j):
    """One gamma-ratio term of the direct series (without (alpha)_j/j! and
    the leading m), or None when a denominator gamma pole kills the term."""
    args_num = _numerator_args(fb, fm, fz, j)
    args_den = (fa + fb + 1 + j * (fz + 1), fm + j * fz + 1)
    if any(_near_nonpositive_int(x) for x in args_den):
        return None
    return (mp.gamma(args_num[0]) * mp.gamma(args_num[1])
            / (mp.gamma(args_den[0]) * mp.gamma(args_den[1])))


def _gamma_ratio_expansion(pairs, arith):
    """Yield (e, row_k) for k = 0, 1, 2, ..., with e the list e_0, ..., e_k,
    e_0 = 1 and
    prod Gamma(sigma j+b)/Gamma(sigma j+c) ~ prod (sigma j)^(b-c) * sum_k e_k j^-k
    as j -> oo, over the (sigma, b, c) in pairs, and row_k the pairs
    (r, C(k+1, r) B_r) for r = 0, 1 and the even r <= k (B_1 = -1/2).
    Every number, pairs included, is in the arithmetic arith of
    hyper_series._arithmetic; B_r comes from mp.bernoulli at the working
    precision.  The list is the generator's own and grows by one entry per
    step.

    By the Tricomi-Erdelyi expansion (Pacific J. Math. 1, 1951) the log of
    each ratio is (b-c) log(sigma j) plus sum_n d_n j^-n with
    d_n = (-1)^(n+1) [B_{n+1}(b) - B_{n+1}(c)] / (n (n+1) sigma^n); the
    exponential of the summed series follows from
    k e_k = sum_{n<=k} n d_n e_{k-n}.  B_{k+1}(b) - B_{k+1}(c) is row_k
    dotted with b^t - c^t, t = k+1-r: the row is built once per k for every
    pair, each pair keeps its list of b^t - c^t and its running sigma^-k,
    and n d_n is stored once.  Each dot product is summed unrounded and
    divided once.
    """
    one, mul, div, _, lift = arith
    bern = [lift(mp.bernoulli(0)), lift(mp.bernoulli(1))]
    # per pair: [b^t, c^t, sigma^-t] at the latest t, and b^t - c^t for t >= 0
    runs = [[b, c, div(one * one, sigma)] for sigma, b, c in pairs]
    diffs = [[0, b - c] for _, b, c in pairs]
    nd = [0]
    e = [one]
    yield e, [(0, bern[0])]
    for k in itertools.count(1):
        if k > 1:
            bern.append(lift(mp.bernoulli(k)))
        row = [(r, math.comb(k + 1, r) * bern[r])
               for r in range(k + 1) if r < 2 or r % 2 == 0]
        d_k = 0   # a sum of products of three numbers
        for (sigma, b, c), run, diff in zip(pairs, runs, diffs):
            run[0] = mul(run[0], b)
            run[1] = mul(run[1], c)
            diff.append(run[0] - run[1])
            d_k += sum(w * diff[k + 1 - r] for r, w in row) * run[2]
            run[2] = div(run[2] * one, sigma)
        nd.append(div((-1) ** (k + 1) * d_k, (k + 1) * one * one))
        e.append(div(sum(nd[n] * e[k - n] for n in range(1, k + 1)), k * one))
        yield e, row


def s_direct(p: RamanujanParams, ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """S summed from its defining series.

    Terminating alpha = -k: the k+1 terms of the reduced Pochhammer form,
    summed by pochhammer_sum through exact_first, so exactly whenever beta,
    m and z are real (a float as the exact rational it is, the sum rounded
    once to ctx.precision).  Nonterminating with z a nonnegative integer:
    s_integer_form.  Anything else goes to _s_direct_experimental, whose
    docstring states its rules: terms_used is the number N of direct terms
    before the tail and tail_bound an estimate that covers the final
    rounding; Re z <= 0 raises PoleError or DivergentSeriesError, and a
    tail that needs more than ctx.max_terms direct terms ConvergenceError.
    A terminating k or an integer z above ctx.max_terms, or a terminating
    sum whose factor work is above ctx.max_terms ** 2 (see pochhammer_sum),
    raises InvalidParametersError.
    """
    if p.terminating_k is not None:
        return _s_direct_terminating(p, ctx)
    if p.integer_z is not None:
        return s_integer_form(p, ctx)
    return _s_direct_experimental(p, ctx)


def _prefactor(alpha, beta) -> SphereValue:
    """Gamma(beta+1)/Gamma(alpha+beta+1), a Pochhammer symbol for integer
    alpha.  Callers wrap it in exact_first."""
    return gamma_ratio(beta + 1, alpha + beta + 1)


def s_integer_form(p: RamanujanParams, ctx: EvalContext = DEFAULT_CONTEXT) -> EvalResult:
    """S at z = n, a nonnegative integer, through the stride-Pochhammer
    hypergeometric rewrite with prefactor Gamma(beta+1)/Gamma(alpha+beta+1).

    Terminating series are summed in the stride form itself by
    pochhammer_sum through exact_first, as in s_direct; nonterminating ones
    go through the parameter-split (recast_params for n >= 1, a plain 2F1
    for n = 0) and the engine's tail machinery, which refuses divergent
    input.  Both loop over n: an n (or a terminating k) above ctx.max_terms
    raises InvalidParametersError.
    """
    n = p.integer_z
    if n is None:
        raise InvalidParametersError(
            f"s_integer_form needs z a nonnegative integer, got z = {p.z}")
    checked_count("z", n, ctx)
    k = p.terminating_k
    if k is not None:
        checked_count("k", k, ctx)

        def stride_sum(alpha, beta, m):
            # term j: (beta+1)_{nj} (m)_{(n+1)j} (alpha)_j
            #         / ((alpha+beta+1)_{(n+1)j} (m+1)_{nj} j!)
            acc = pochhammer_sum([(beta + 1, 0, 0, n), (m, 0, 0, n + 1), (alpha, 0, 0, 1)],
                                 [(alpha + beta + 1, n + 1), (m + 1, n), (1, 1)], 0, k, ctx=ctx)
            return _prefactor(alpha, beta) * SphereValue.of(acc)

        value = exact_first(stride_sum, (p.alpha, p.beta, p.m), ctx)
        return _finite_sum_result(value, _terminating_cls(k))
    if n == 0:
        params = HypParams((p.m, p.alpha), (p.alpha + p.beta + 1,))
        pref = exact_first(_prefactor, (p.alpha, p.beta), ctx)
    else:
        params, pref = recast_params(p.alpha, p.beta, p.m, n, ctx)
    res = eval_at_1(params, ctx)
    return EvalResult(pref * res.value, res.terms_used, res.tail_bound,
                      res.classification)


def recast_params(alpha, beta, m, n: int,
                  ctx: Optional[EvalContext] = None) -> Tuple[HypParams, SphereValue]:
    """Split the stride Pochhammers of the z = n form into ordinary
    hypergeometric parameters (multiplication formula with strides n and
    n+1), giving a (2n+2)F(2n+1) at unit argument plus the prefactor
    Gamma(beta+1)/Gamma(alpha+beta+1).

    The resulting parameter lists are balanced with excess exactly 1
    (classify reports saalschutzian) for every n >= 1.
    """
    if n < 1:
        raise InvalidParametersError("recast_params needs n >= 1")
    alpha, beta, m = scalar(alpha), scalar(beta), scalar(m)
    nums = tuple((beta + i) / n for i in range(1, n + 1)) \
        + tuple((m + i) / (n + 1) for i in range(n + 1)) + (alpha,)
    dens = tuple((m + i) / n for i in range(1, n + 1)) \
        + tuple((alpha + beta + 1 + i) / (n + 1) for i in range(n + 1))
    params = HypParams(nums, dens)
    return params, exact_first(_prefactor, (alpha, beta), ctx or DEFAULT_CONTEXT)


def s_polynomial(k: int, beta, m) -> PolynomialInZ:
    """Expand m * sum_j (beta+1-k+j(z+1))_{k-j} (m+jz+1)_{j-1} (-k)_j / j!
    as an explicit polynomial in z (exact rational coefficients).

    The j = 0 term's (m+1)_{-1} = 1/m is cancelled against the leading m
    before anything is evaluated, so m = 0 is fine: it is (beta+1-k)_k.
    With beta = pb/qb, m = pm/qm, every linear factor scaled to integers and
    (-k)_j / j! = (-1)^j C(k, j), the j >= 1 terms add up in integers over
    the common denominator qb^(k-1) qm^(k-1); each coefficient is made a
    Fraction once.  Degree is at most k-1; the theorem says every
    z-coefficient vanishes and the constant term is (beta+1-m-k)_k.
    """
    if k < 0:
        raise InvalidParametersError("k must be a nonnegative integer")
    beta, m = scalar(beta), scalar(m)
    if not (beta.is_rational and m.is_rational):
        raise UnsupportedExactError("polynomial expansion needs rational beta, m")
    (pb, qb), (pm, qm) = beta.fraction.as_integer_ratio(), m.fraction.as_integer_ratio()
    total = [0] * max(k, 1)
    for j in range(1, k + 1):
        factors = [(pb + qb * (1 - k + j + i), qb * j) for i in range(k - j)] \
            + [(pm + qm * (1 + i), qm * j) for i in range(j - 1)]
        # multiplying by (c0 + c1 z) is r[t] = c0 r[t] + c1 r[t-1], t descending
        poly = [1] + [0] * (k - 1)
        for deg, (c0, c1) in enumerate(factors, 1):
            for t in range(deg, 0, -1):
                poly[t] = c0 * poly[t] + c1 * poly[t - 1]
            poly[0] *= c0
        # from qb^(k-j) qm^(j-1) to the common denominator
        weight = (-1) ** j * math.comb(k, j) * qb ** (j - 1) * qm ** (k - j)
        for t, c in enumerate(poly):
            total[t] += weight * c
    den = qm * (qb * qm) ** max(k - 1, 0)
    coeffs = [Scalar(coef=Fraction(pm * c, den)) for c in total]
    coeffs[0] = coeffs[0] + pochhammer(beta + 1 - k, k)
    return PolynomialInZ(tuple(coeffs))


def inner_sum_E(m, n: int, r: int, ctx: Optional[EvalContext] = None) -> Scalar:
    """E = sum_{j=0}^{r} [(m+r)_{nj} / (m+1)_{nj}] (-1)^j C(r, j), which is 1
    at r = 0 and 0 for every r >= 1.  Summed by pochhammer_sum through
    exact_first: exactly for real m (a float as the exact rational it is,
    rounded once to ctx.precision), in float with guard bits for complex m.
    n or r above ctx.max_terms is refused with InvalidParametersError.
    """
    ctx = ctx or DEFAULT_CONTEXT
    checked_count("n", n, ctx, positive=True)
    checked_count("r", r, ctx)

    def alternating_sum(m):
        return SphereValue.of(pochhammer_sum([(m + r, 0, 0, n)], [(m + 1, n)], 0, r,
                                             _signed_binomial(r), ctx))

    return exact_first(alternating_sum, (m,), ctx).finite


def finite_difference_check(m, n: int, r: int,
                            ctx: Optional[EvalContext] = None) -> Scalar:
    """(r-1)-th derivative of x^{m+r-1} (1 - x^n)^r at x = 1, by expanding
    the binomial and differentiating monomials: the result is
    sum_j (-1)^j C(r,j) (m+r-1+nj)(m+r-2+nj)...(m+1+nj), the rising
    factorial (m+1+nj)_{r-1} per term.  Exactly zero, since the zero of
    (1-x^n)^r at x = 1 has order r > r-1.  Summed, and n and r checked,
    as in inner_sum_E."""
    ctx = ctx or DEFAULT_CONTEXT
    checked_count("n", n, ctx, positive=True)
    checked_count("r", r, ctx, positive=True)

    def alternating_sum(m):
        return SphereValue.of(pochhammer_sum([(m + 1, n, r - 1, 0)], (), 0, r,
                                             _signed_binomial(r), ctx))

    return exact_first(alternating_sum, (m,), ctx).finite


def eq6_prefactor(alpha, beta, m,
                  ctx: Optional[EvalContext] = None) -> SphereValue:
    """The reflected prefactor Gamma(m-b) Gamma(-a-b) / (Gamma(-b) Gamma(m-a-b))
    for integer alpha, cross-checked against the unreflected
    Gamma(b+1) Gamma(a+b+1-m) / (Gamma(a+b+1) Gamma(b+1-m)).

    The reflection Gamma(x) Gamma(1-x) = pi / sin(pi x) converts one form
    into the other; the sine quotient it leaves behind is exactly 1
    because alpha shifts the arguments by integers.  Both forms are
    computed (each as two integer-difference gamma ratios) and compared
    through exact_first: exactly for real input (a float as the exact
    rational it is, the result rounded once to ctx.precision), within
    rel_tol for complex input; disagreement raises IdentityAssertionError
    rather than returning silently.
    """
    ctx = ctx or DEFAULT_CONTEXT
    if not scalar(alpha).is_integer():
        raise InvalidParametersError(
            "the reflected prefactor requires integer alpha (the sine factors "
            "only cancel there)")

    def cross_checked(a, b, mm):
        reflected = gamma_ratio(mm - b, mm - a - b) * gamma_ratio(-(a + b), -b)
        direct = gamma_ratio(b + 1, a + b + 1) * gamma_ratio(a + b + 1 - mm, b + 1 - mm)
        if reflected.is_infinity or direct.is_infinity:
            if reflected.is_infinity != direct.is_infinity:
                raise IdentityAssertionError(
                    f"reflected prefactor {reflected} disagrees with direct form {direct}")
            return reflected
        lhs, rhs = reflected.finite, direct.finite
        if lhs.is_exact and rhs.is_exact:
            agree = lhs == rhs
        else:
            lv = lhs.to_mpc(ctx.precision)
            rv = rhs.to_mpc(ctx.precision)
            scale = max(abs(lv), abs(rv))
            agree = scale == 0 or abs(lv - rv) <= ctx.rel_tol * scale
        if not agree:
            raise IdentityAssertionError(
                f"reflected prefactor {lhs} disagrees with direct form {rhs}")
        return reflected

    return exact_first(cross_checked, (alpha, beta, m), ctx)
