"""Reference values for the benchmark's correctness checks.

Nothing here imports hypersum: every value is computed from classical
closed forms with mpmath, or from the defining series with plain Fraction
arithmetic, so a defect in the program cannot vouch for itself.  Each
function takes its own mpmath context (``ctx(bits)``), so the program's use
of the global ``mpmath.mp`` precision cannot leak into a reference.

Families and their sources:

* S at alpha = -k, exact: the defining series summed in Fractions, and the
  claimed closed form (beta+1-m-k)_k; the two must agree.
* 2F1 at 1: Gauss, Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).
* 3F2 at 1 (well-poised): Dixon's theorem.
* 4F3 at 1 with two unit-shifted pairs: Karlsson-Minton reduction to three
  Gauss sums (each (e+1)_j/(e)_j is 1 + j/e).
* pFq at 1 with p <= q: ``mp.hyper``.
* S at z = 0: the closed form Gamma(beta+1-m)/Gamma(alpha+beta+1-m).
* S at other z: ``nsum`` (Richardson) of the defining gamma-ratio series.
* counterexample_eq9: m / ((m-alpha) Gamma(alpha+1)) with m = alpha+beta+1.
* the inner sum E of the proof: its defining sum in Fractions.

``mp.hyper`` is not used for the balanced 3F2/4F3: on a balanced 3F2 at 1 it
takes 2.5 s at 106 bits and 112 s at 512 bits, and 2048-bit references are
needed for the 1024-bit operations.  ``selftest.py`` checks the closed forms
against ``mp.hyper`` at 106 bits instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

GUARD_BITS = 20


def ctx(bits: int) -> mpmath.MPContext:
    """A private mpmath context at ``bits`` plus guard bits."""
    c = mpmath.MPContext()
    c.prec = bits + GUARD_BITS
    return c


def num(c, x):
    """A Fraction, int or float as an mpf of context ``c``, exactly rounded."""
    if isinstance(x, Fraction):
        return c.mpf(x.numerator) / x.denominator
    return c.mpf(x)


# -- exact: the terminating theorem -------------------------------------------


def rising(x: Fraction, n: int) -> Fraction:
    acc = Fraction(1)
    for i in range(n):
        acc *= x + i
    return acc


def theorem_closed_form(k: int, beta: Fraction, m: Fraction) -> Fraction:
    """(beta + 1 - m - k)_k."""
    return rising(beta + 1 - m - k, k)


def theorem_series(k: int, beta: Fraction, m: Fraction, z: Fraction) -> Fraction:
    """m * sum_j G(beta+1+jz) G(m+j(z+1)) / [G(beta+1-k+j(z+1)) G(m+jz+1)]
    * (-k)_j / j!, each gamma quotient G(x)/G(x+n) reduced to a rising
    factorial: 1/(x)_n for n > 0 and (x+n)_{-n} for n <= 0."""

    def quotient(x: Fraction, n: int) -> Fraction:
        if n > 0:
            return 1 / rising(x, n)
        return rising(x + n, -n)

    total = Fraction(0)
    for j in range(k + 1):
        sign_binom = (-1) ** j * math.comb(k, j)  # (-k)_j / j!
        g1 = quotient(beta + 1 + j * z, j - k)
        g2 = quotient(m + j * (z + 1), 1 - j)
        total += m * g1 * g2 * sign_binom
    return total


def theorem_reference(k: int, beta, m, z) -> Fraction:
    """The exact value of S(-k, beta, m, z); inputs are Fractions or floats
    (a float is an exact binary rational).  The defining series and the
    closed form are both computed and must agree."""
    beta, m, z = (Fraction(x) for x in (beta, m, z))
    closed = theorem_closed_form(k, beta, m)
    series = theorem_series(k, beta, m, z)
    if closed != series:
        raise ArithmeticError(
            f"reference disagreement at k={k}: series {series} != closed {closed}")
    return closed


def inner_sum(m: Fraction, n: int, r: int) -> Fraction:
    """E = sum_{j=0}^{r} (m+r)_{nj} / (m+1)_{nj} (-1)^j C(r, j)."""
    return sum((-1) ** j * math.comb(r, j)
               * rising(m + r, n * j) / rising(m + 1, n * j)
               for j in range(r + 1))


# -- float: series at unit argument -------------------------------------------


def gauss_2f1(c, a, b, cc):
    a, b, cc = (num(c, x) for x in (a, b, cc))
    return c.gamma(cc) * c.gamma(cc - a - b) / (c.gamma(cc - a) * c.gamma(cc - b))


def dixon_3f2(c, a, b, cc):
    """3F2(a, b, cc; 1+a-b, 1+a-cc; 1) by Dixon's theorem."""
    a, b, cc = (num(c, x) for x in (a, b, cc))
    h = a / 2
    return (c.gamma(1 + h) * c.gamma(1 + a - b) * c.gamma(1 + a - cc)
            * c.gamma(1 + h - b - cc)
            / (c.gamma(1 + a) * c.gamma(1 + h - b) * c.gamma(1 + h - cc)
               * c.gamma(1 + a - b - cc)))


def km_4f3(c, a, b, cc, e, f):
    """4F3(a, b, e+1, f+1; cc, e, f; 1).  With t_j the 2F1(a, b; cc) terms,
    the sum is sum t_j (1 + j/e)(1 + j/f); sum j t_j and sum j(j-1) t_j are
    shifted Gauss sums G1 and G2."""
    a, b, cc, e, f = (num(c, x) for x in (a, b, cc, e, f))
    g0 = gauss_2f1(c, a, b, cc)
    g1 = a * b / cc * gauss_2f1(c, a + 1, b + 1, cc + 1)
    g2 = (a * (a + 1) * b * (b + 1) / (cc * (cc + 1))
          * gauss_2f1(c, a + 2, b + 2, cc + 2))
    return g0 + (1 / e + 1 / f) * g1 + (g1 + g2) / (e * f)


def hyper(c, numerator, denominator):
    """pFq at 1 by mpmath (used for p <= q, where it converges fast)."""
    return c.hyper([num(c, x) for x in numerator],
                   [num(c, x) for x in denominator], 1)


# -- float: the sum S ----------------------------------------------------------


def s_closed_form(c, alpha, beta, m):
    """Gamma(beta+1-m) / Gamma(alpha+beta+1-m): S at z = 0."""
    alpha, beta, m = (num(c, x) for x in (alpha, beta, m))
    return c.gamma(beta + 1 - m) * c.rgamma(alpha + beta + 1 - m)


def s_series(c, alpha, beta, m, z, method="richardson"):
    """S from its defining gamma-ratio series, extrapolated by nsum.  For
    z != 0 the terms are C j^-2 (1 + c_1/j + ...), the expansion Richardson
    extrapolation assumes; at z = 0 the exponent is not an integer, and the
    closed form is used there instead."""
    alpha, beta, m, z = (num(c, x) for x in (alpha, beta, m, z))

    def term(j):
        return (c.gamma(beta + 1 + j * z) * c.gamma(m + j * (z + 1))
                / (c.gamma(alpha + beta + 1 + j * (z + 1)) * c.gamma(m + j * z + 1))
                * c.rf(alpha, j) / c.factorial(j))

    return m * c.nsum(term, [0, c.inf], method=method)


def counterexample(c, alpha, beta):
    """S(1) at m = alpha+beta+1, reduced to m / ((m - alpha) Gamma(alpha+1))."""
    alpha, beta = num(c, alpha), num(c, beta)
    m = alpha + beta + 1
    return m / ((m - alpha) * c.gamma(alpha + 1))


# -- scoring -------------------------------------------------------------------


def _mp(c, x):
    return num(c, x) if isinstance(x, (Fraction, int)) else c.mpmathify(x)


def correct_bits(value, ref, cap: int) -> float:
    """-log2 of the relative error of ``value`` against ``ref``, capped at
    ``cap``.  Exact equality reads the cap."""
    c = ctx(cap)
    err = abs(_mp(c, value) - _mp(c, ref))
    if err == 0:
        return float(cap)
    if ref == 0:
        return 0.0
    return float(min(cap, -c.log(err / abs(_mp(c, ref)), 2)))


def within(value, ref, rel_tol: float, abs_tol: float = 0.0) -> bool:
    """|value - ref| <= max(rel_tol |ref|, abs_tol)."""
    c = ctx(2048)
    r = _mp(c, ref)
    return abs(_mp(c, value) - r) <= max(rel_tol * abs(r), abs_tol)
