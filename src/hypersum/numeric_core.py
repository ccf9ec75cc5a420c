"""Arithmetic foundation: exact rationals, extended-precision complex floats,
gamma, Pochhammer symbols, and Riemann-sphere values.

Two arithmetic modes live behind one scalar type.  Exact scalars are
rationals, optionally scaled by an integer power of sqrt(pi) so that gamma
at half-integers stays representable (Gamma(3/2) = sqrt(pi)/2).  Float
scalars are mpmath complex values carrying their own binary precision;
mixing two different float precisions in one operation is an error rather
than a silent downgrade.

``exact_first`` is the one place that chooses between the modes: a real
finite float is a dyadic rational, so it is computed on exactly and only
the result is rounded.

Gamma ratios are first-class (``gamma_ratio``) because most expressions in
this library are ratios whose individual gammas may sit on poles while the
ratio itself is finite: whenever the argument difference is an integer the
ratio reduces to a Pochhammer symbol and is computed exactly.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import mpmath
from mpmath import mp
from mpmath.libmp import to_rational

__all__ = [
    "Mode",
    "Scalar",
    "SphereValue",
    "EvalContext",
    "DEFAULT_CONTEXT",
    "scalar",
    "gamma",
    "pochhammer",
    "pochhammer_sum",
    "pochhammer_sphere",
    "gamma_ratio",
    "working_precision",
    "exact_first",
    "INTEGER_DETECTION_TOL",
    "HypersumError",
    "UnsupportedExactError",
    "PoleError",
    "IndeterminateError",
    "PrecisionMixError",
    "DivergentSeriesError",
    "ConvergenceError",
    "InvalidParametersError",
    "WorkBudgetError",
    "IdentityAssertionError",
]

# Tolerance for deciding "is this float an integer" (pole detection etc.).
# Exact mode always uses true equality; float results that relied on this
# snap are flagged tolerance_dependent.
INTEGER_DETECTION_TOL = 1e-12

MIN_PRECISION = 53

# extra bits carried by float sums that round to the working precision
GUARD_BITS = 20


class HypersumError(Exception):
    """Base class for all errors raised by this library."""


class UnsupportedExactError(HypersumError):
    """An exact result was requested at a point with no exact representation."""


class PoleError(HypersumError):
    """A value is infinite where a finite one was required."""

    def __init__(self, message: str, term_index: Optional[int] = None):
        super().__init__(message)
        self.term_index = term_index


class IndeterminateError(HypersumError):
    """An expression of the form inf/inf or 0*inf with no finite reduction."""


class PrecisionMixError(HypersumError):
    """Two float scalars of different binary precision met in one operation."""


class DivergentSeriesError(HypersumError):
    """Refusal to sum a series classified as divergent."""

    def __init__(self, message: str, classification=None):
        super().__init__(message)
        self.classification = classification


class ConvergenceError(HypersumError):
    """The term budget ran out before the tail bound met the tolerance."""

    def __init__(self, message: str, partial=None, terms_used: int = 0):
        super().__init__(message)
        self.partial = partial
        self.terms_used = terms_used


class InvalidParametersError(HypersumError, ValueError):
    """Parameter lists that define no series (or no valid operation)."""


class WorkBudgetError(InvalidParametersError):
    """A sum refused before it starts, for more work than its context allows:
    a count above max_terms, or Pochhammer factor work above max_terms ** 2."""


class IdentityAssertionError(HypersumError):
    """A built-in cross-check between two expressions failed."""


# Pins mpmath's precision to ``prec`` bits inside a with block and restores
# it on exit.  The setting is global to the process and not locked: the
# library runs in one thread, and parallel work belongs in separate processes.
working_precision = mp.workprec


class Mode(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


def _near_int(re_val, im_val):
    """Return (n, exact_hit) if re+im*i is within INTEGER_DETECTION_TOL of n."""
    if abs(im_val) > INTEGER_DETECTION_TOL:
        return None
    n = int(mpmath.nint(re_val))
    if abs(re_val - n) > INTEGER_DETECTION_TOL:
        return None
    return n, (re_val == n and im_val == 0)


def _near_nonpositive_int(x) -> bool:
    """Whether the mpmath number x is a gamma pole under _near_int's rule."""
    if x.real > INTEGER_DETECTION_TOL:  # no nonpositive integer within tol
        return False
    hit = _near_int(x.real, x.imag)
    return hit is not None and hit[0] <= 0


@functools.total_ordering
class Scalar:
    """A number in one of two modes: exact (rational * sqrt(pi)^k) or float
    (complex at a fixed binary precision).

    Exact rationals are kept in lowest terms with positive denominator
    (Fraction guarantees this).  The sqrt(pi) power is 0 for ordinary
    rationals and only becomes nonzero through exact gamma evaluation at
    half-integers; sums that would mix different powers raise
    UnsupportedExactError instead of silently going inexact.

    Every operator tests the modes once (_exact_operand): when both operands
    are exact (an exact Scalar, an int, a Fraction or a "p/q" string) it works
    on the Fractions, and otherwise on mpc values at the float operand's
    precision.
    """

    __slots__ = ("_coef", "_sqrtpi", "_val", "prec")

    def __init__(self, *, coef=None, sqrtpi=0, val=None, prec=None):
        if coef is not None:
            self._coef, self._sqrtpi, self._val, self.prec = coef, sqrtpi if coef else 0, None, None
        else:
            if prec is None or prec < MIN_PRECISION:
                raise ValueError(f"float precision must be >= {MIN_PRECISION} bits")
            self._coef, self._sqrtpi, self._val, self.prec = None, 0, val, prec

    # -- construction -----------------------------------------------------

    @classmethod
    def exact(cls, value: Union[int, str, Fraction], den: Optional[int] = None) -> "Scalar":
        if den is not None:
            return cls(coef=Fraction(value, den))
        return cls(coef=Fraction(value))

    @classmethod
    def exact_sqrtpi(cls, coef: Union[int, str, Fraction], power: int = 1) -> "Scalar":
        return cls(coef=Fraction(coef), sqrtpi=power)

    @classmethod
    def from_float(cls, value, prec: int = MIN_PRECISION) -> "Scalar":
        """``value`` rounded to a ``prec``-bit float; an infinity or a NaN
        raises InvalidParametersError."""
        with working_precision(prec):
            if isinstance(value, Fraction):
                v = mp.mpc(mp.mpf(value.numerator) / mp.mpf(value.denominator))
            else:
                v = mp.mpc(value)
        if not mp.isfinite(v):
            raise InvalidParametersError(f"{value} is not a finite number")
        return cls(val=v, prec=prec)

    # -- inspection --------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return Mode.EXACT if self._coef is not None else Mode.FLOAT

    @property
    def is_exact(self) -> bool:
        return self._coef is not None

    @property
    def is_float(self) -> bool:
        return self._coef is None

    @property
    def is_rational(self) -> bool:
        return self._coef is not None and self._sqrtpi == 0

    @property
    def sqrtpi_power(self) -> int:
        return self._sqrtpi

    @property
    def fraction(self) -> Fraction:
        if not self.is_rational:
            raise UnsupportedExactError(f"{self!r} is not a plain rational")
        return self._coef

    @property
    def coefficient(self) -> Fraction:
        if not self.is_exact:
            raise UnsupportedExactError("float scalar has no exact coefficient")
        return self._coef

    def is_zero(self) -> bool:
        return self._coef == 0 if self.is_exact else self._val == 0

    def nearest_integer(self):
        """Return (n, exact_hit) when this value is (near-)integral, else None.

        Exact mode uses true equality; float mode uses INTEGER_DETECTION_TOL
        and reports exact_hit=False when the match relied on it.
        """
        if self.is_exact:
            if self.is_rational and self._coef.denominator == 1:
                return int(self._coef), True
            return None
        return _near_int(self._val.real, self._val.imag)

    def is_integer(self) -> bool:
        return self.nearest_integer() is not None

    def is_nonpositive_integer(self) -> bool:
        """Whether this value is a gamma pole, under nearest_integer's rule."""
        if self.is_exact:
            return self.is_rational and self._coef.denominator == 1 and self._coef <= 0
        return _near_nonpositive_int(self._val)

    def real_part(self) -> "Scalar":
        """The real part, ordered like any Scalar; exact values are real."""
        if self.is_exact:
            return self
        with working_precision(self.prec):
            return Scalar(val=mp.mpc(self._val.real), prec=self.prec)

    # -- conversion ----------------------------------------------------------

    def to_mpc(self, prec: Optional[int] = None):
        """The value as an mpmath mpc, computed at ``prec`` bits."""
        p = prec if prec is not None else (self.prec or MIN_PRECISION)
        if self.is_float:
            with working_precision(p):
                return +self._val
        with working_precision(p + 10):
            v = mp.mpc(mp.mpf(self._coef.numerator) / mp.mpf(self._coef.denominator))
            if self._sqrtpi:
                v = v * mp.sqrt(mp.pi) ** self._sqrtpi
        with working_precision(p):
            return +v

    def to_float_scalar(self, prec: int) -> "Scalar":
        return Scalar(val=self.to_mpc(prec), prec=prec)

    # -- arithmetic ---------------------------------------------------------

    def _exact_operand(self, other):
        """(coefficient, sqrt(pi) power) of ``other`` when it and this value
        are both exact, else None: the one mode test of every operator."""
        if self._coef is None:
            return None
        if isinstance(other, Scalar):
            return None if other._coef is None else (other._coef, other._sqrtpi)
        if isinstance(other, str):
            other = Fraction(other)
        return (other, 0) if isinstance(other, (int, Fraction)) else None

    def _float_op(self, other, op, reflected: bool = False):
        """op(self, other) (op(other, self) if reflected) on mpc values at the float
        operand's precision; NotImplemented for a type scalar() refuses."""
        if not isinstance(other, Scalar):
            try:
                other = scalar(other, self.prec)
            except TypeError:
                return NotImplemented
        prec = self.prec or other.prec
        if other.prec is not None and other.prec != prec:
            raise PrecisionMixError(f"cannot mix {self.prec}-bit and {other.prec}-bit floats")
        a = self._val if self._val is not None else self.to_mpc(prec)
        b = other._val if other._val is not None else other.to_mpc(prec)
        if reflected:
            a, b = b, a
        if op is operator.truediv and b == 0:
            raise ZeroDivisionError("float division by zero")
        if op is operator.eq:
            return a == b
        if op is operator.lt:
            if a.imag != 0 or b.imag != 0:
                raise TypeError("ordering is only defined for real values")
            return a.real < b.real
        with working_precision(prec):
            return Scalar(val=op(a, b), prec=prec)

    def __add__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.add)
        return _exact_sum(self._coef, self._sqrtpi, *b, operator.add)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self._coef is not None:
            return Scalar(coef=-self._coef, sqrtpi=self._sqrtpi)
        with working_precision(self.prec):
            return Scalar(val=-self._val, prec=self.prec)

    def __sub__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.sub)
        return _exact_sum(self._coef, self._sqrtpi, *b, operator.sub)

    def __rsub__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.sub, reflected=True)
        return _exact_sum(*b, self._coef, self._sqrtpi, operator.sub)

    def __mul__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.mul)
        return Scalar(coef=self._coef * b[0], sqrtpi=self._sqrtpi + b[1])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.truediv)
        if not b[0]:
            raise ZeroDivisionError("exact division by zero")
        return Scalar(coef=self._coef / b[0], sqrtpi=self._sqrtpi - b[1])

    def __rtruediv__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.truediv, reflected=True)
        if not self._coef:
            raise ZeroDivisionError("exact division by zero")
        return Scalar(coef=b[0] / self._coef, sqrtpi=b[1] - self._sqrtpi)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self._coef is not None:
            if n >= 0 or self._coef != 0:
                return Scalar(coef=self._coef**n, sqrtpi=self._sqrtpi * n)
            raise ZeroDivisionError("0 to a negative power")
        with working_precision(self.prec):
            return Scalar(val=self._val**n, prec=self.prec)

    def __abs__(self):
        if self._coef is not None:
            return Scalar(coef=abs(self._coef), sqrtpi=self._sqrtpi)
        with working_precision(self.prec):
            return Scalar(val=mp.mpc(abs(self._val)), prec=self.prec)

    def __eq__(self, other):
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.eq)
        return self._coef == b[0] and self._sqrtpi == b[1]

    __hash__ = None

    def __lt__(self, other):
        # operands meet as in __eq__, so that the operators total_ordering
        # derives from the two agree with each other
        b = self._exact_operand(other)
        if b is None:
            return self._float_op(other, operator.lt)
        if not self._sqrtpi and not b[1]:
            return self._coef < b[0]
        return self.to_mpc(113).real < Scalar(coef=Fraction(b[0]), sqrtpi=b[1]).to_mpc(113).real

    # -- formatting ----------------------------------------------------------

    def __repr__(self):
        if self.is_exact:
            if self._sqrtpi == 0:
                return f"Scalar({self._coef})"
            return f"Scalar({self._coef}*sqrt(pi)^{self._sqrtpi})"
        return f"Scalar({self._val}, prec={self.prec})"

    def __str__(self):
        if self.is_exact:
            body = str(self._coef)
            if self._sqrtpi == 1:
                body += "*sqrt(pi)"
            elif self._sqrtpi:
                body += f"*sqrt(pi)^{self._sqrtpi}"
            return body
        digits = max(17, int(self.prec * 0.30103) + 2)
        if self._val.imag == 0:
            return mpmath.nstr(self._val.real, digits)
        return mpmath.nstr(self._val, digits)


def _exact_sum(a, pa: int, b, pb: int, op) -> Scalar:
    """op(a sqrt(pi)^pa, b sqrt(pi)^pb), op add or sub and a, b ints or
    Fractions; a zero operand gives the other one (negated by sub)."""
    if not b or not a:
        c, p = (a, pa) if not b else (op(0, b), pb)
        return Scalar(coef=c if isinstance(c, Fraction) else Fraction(c), sqrtpi=p)
    if pa != pb:
        raise UnsupportedExactError("cannot add exact values with different sqrt(pi) powers")
    return Scalar(coef=op(a, b), sqrtpi=pa)


def scalar(x, prec: Optional[int] = None) -> Scalar:
    """Coerce ints/Fractions/strings to exact scalars and floats/complex to
    float scalars (at ``prec`` bits, default 53)."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(coef=x if isinstance(x, Fraction) else Fraction(x))
    if isinstance(x, str):
        return Scalar.exact(Fraction(x))
    if isinstance(x, (float, complex, mpmath.mpf, mpmath.mpc)):
        return Scalar.from_float(x, prec or MIN_PRECISION)
    raise TypeError(f"cannot make a Scalar from {type(x).__name__}")


@dataclass(frozen=True)
class SphereValue:
    """A Scalar extended with a single point at infinity (Riemann sphere).

    Exactly one of ``finite``/``is_infinity`` is set.  ``tolerance_dependent``
    marks values whose pole/integer classification relied on the float-mode
    integer-detection tolerance rather than exact equality.
    """

    finite: Optional[Scalar]
    is_infinity: bool
    tolerance_dependent: bool = False

    def __post_init__(self):
        if (self.finite is None) == (not self.is_infinity):
            raise ValueError("exactly one of finite/is_infinity must be set")

    @classmethod
    def of(cls, x, tolerance_dependent: bool = False) -> "SphereValue":
        return cls(finite=scalar(x), is_infinity=False,
                   tolerance_dependent=tolerance_dependent)

    @classmethod
    def infinity(cls, tolerance_dependent: bool = False) -> "SphereValue":
        return cls(finite=None, is_infinity=True,
                   tolerance_dependent=tolerance_dependent)

    def is_zero(self) -> bool:
        return not self.is_infinity and self.finite.is_zero()

    def reciprocal(self) -> "SphereValue":
        """1/x with the sphere conventions 1/inf = 0 and 1/0 = inf."""
        if self.is_infinity:
            return SphereValue.of(Scalar.exact(0),
                                  tolerance_dependent=self.tolerance_dependent)
        if self.finite.is_zero():
            return SphereValue.infinity(tolerance_dependent=self.tolerance_dependent)
        return SphereValue(finite=1 / self.finite, is_infinity=False,
                           tolerance_dependent=self.tolerance_dependent)

    def __mul__(self, other) -> "SphereValue":
        if not isinstance(other, SphereValue):
            other = SphereValue.of(other)
        td = self.tolerance_dependent or other.tolerance_dependent
        if self.is_infinity or other.is_infinity:
            if self.is_zero() or other.is_zero():
                raise IndeterminateError("0 * inf is indeterminate")
            return SphereValue.infinity(tolerance_dependent=td)
        return SphereValue(finite=self.finite * other.finite, is_infinity=False,
                           tolerance_dependent=td)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "SphereValue":
        if not isinstance(other, SphereValue):
            other = SphereValue.of(other)
        if self.is_infinity and other.is_infinity:
            raise IndeterminateError("inf / inf is indeterminate")
        if self.is_zero() and other.is_zero():
            raise IndeterminateError("0 / 0 is indeterminate")
        return self * other.reciprocal()

    def __eq__(self, other):
        if not isinstance(other, SphereValue):
            other = SphereValue.of(other)
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.finite == other.finite

    def to_mpc(self, prec: Optional[int] = None):
        if self.is_infinity:
            raise PoleError("value is infinite")
        return self.finite.to_mpc(prec)

    def __str__(self):
        return "inf" if self.is_infinity else str(self.finite)

    def __repr__(self):
        return "SphereValue(inf)" if self.is_infinity else f"SphereValue({self.finite!r})"


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs: float precision in bits, term budget, tolerances."""

    precision: int = 256
    max_terms: int = 100_000
    rel_tol: float = 1e-12
    abs_tol: float = 1e-30

    def __post_init__(self):
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION} bits")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONTEXT = EvalContext()


def checked_count(name: str, value: int, ctx: EvalContext, positive: bool = False) -> int:
    """value, a count of terms or factors the caller loops over, if it is
    nonnegative (positive when asked) and at most ctx.max_terms; otherwise
    InvalidParametersError (WorkBudgetError above max_terms), before
    anything is allocated or summed."""
    if value < int(positive):
        kind = "positive" if positive else "nonnegative"
        raise InvalidParametersError(f"{name} must be a {kind} integer")
    if value > ctx.max_terms:
        raise WorkBudgetError(
            f"{name} = {value} is more than max_terms = {ctx.max_terms}")
    return value


def _dyadic(x: Scalar) -> Optional[Scalar]:
    """The exact value of ``x``: itself when exact, the dyadic rational of a
    real finite float, None for a complex or non-finite float."""
    if x.is_exact:
        return x
    v = x._val
    if v.imag != 0 or not mp.isfinite(v.real):
        return None
    return Scalar.exact(Fraction(*to_rational(v.real._mpf_)))


def _rounded(value: SphereValue, prec: int) -> SphereValue:
    """``value`` with its finite part rounded once to a ``prec``-bit float."""
    if value.is_infinity:
        return value
    return SphereValue(finite=value.finite.to_float_scalar(prec), is_infinity=False,
                       tolerance_dependent=value.tolerance_dependent)


def exact_first(fn: Callable[..., SphereValue], args: Sequence,
                ctx: EvalContext) -> SphereValue:
    """``fn(*args)``, exactly where exact arithmetic can represent it.

    The library's one choice between exact and float arithmetic.  Exact
    arguments stay as they are (with no float among them they go to ``fn``
    untouched) and every real, finite float argument becomes the exact
    rational it already is, so ``fn`` runs exactly.  If it raises
    UnsupportedExactError, or an argument is complex or non-finite, ``fn``
    runs instead on float scalars at ctx.precision + GUARD_BITS.  When an
    argument or the route was float, the result is rounded once to
    ctx.precision, keeping its tolerance_dependent flag; otherwise it is
    returned exact.
    """
    args = [scalar(x) for x in args]
    floats = not all(x.is_exact for x in args)
    exact = [_dyadic(x) for x in args] if floats else args
    if all(x is not None for x in exact):
        try:
            value = fn(*exact)
        except UnsupportedExactError:
            pass
        else:
            return _rounded(value, ctx.precision) if floats else value
    guard = ctx.precision + GUARD_BITS
    return _rounded(fn(*(x.to_float_scalar(guard) for x in args)), ctx.precision)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


def _exact_half_integer_gamma(x: Fraction) -> Scalar:
    """Gamma at n + 1/2 as q * sqrt(pi), valid for every half-integer."""
    n = (x.numerator - 1) // 2
    if n >= 0:
        q = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
    else:
        j = -n
        q = Fraction((-4) ** j * math.factorial(j), math.factorial(2 * j))
    return Scalar.exact_sqrtpi(q)


def gamma(x: Scalar) -> SphereValue:
    """Gamma(x) as a sphere value; nonpositive-integer arguments map to inf.

    Exact mode handles integers (factorials) and half-integers (rational
    multiples of sqrt(pi)); any other exact argument raises
    UnsupportedExactError -- use gamma_ratio, whose Pochhammer reduction
    covers the remaining exact needs.  The float path is mpmath's gamma at
    the argument's own precision, so a P-bit result is right to within a
    few units in its last place at every P.  Arguments within
    INTEGER_DETECTION_TOL of a nonpositive integer map to inf, flagged
    tolerance_dependent unless the hit was exact.
    """
    x = scalar(x)
    if x.is_exact:
        if not x.is_rational:
            raise UnsupportedExactError("exact gamma of a sqrt(pi) multiple")
        f = x.fraction
        if f.denominator == 1:
            n = int(f)
            if n <= 0:
                return SphereValue.infinity()
            return SphereValue.of(Scalar.exact(math.factorial(n - 1)))
        if f.denominator == 2:
            return SphereValue.of(_exact_half_integer_gamma(f))
        raise UnsupportedExactError(
            f"gamma({f}) has no exact representation here; use gamma_ratio"
        )
    if x.is_nonpositive_integer():
        return SphereValue.infinity(tolerance_dependent=not x.nearest_integer()[1])
    with working_precision(x.prec):
        return SphereValue.of(Scalar(val=mp.gamma(x._val), prec=x.prec))


# ---------------------------------------------------------------------------
# Pochhammer symbols
# ---------------------------------------------------------------------------


def pochhammer(a, j: int) -> Scalar:
    """Rising factorial (a)_j = a(a+1)...(a+j-1), extended to negative j by
    (a)_{-n} = 1/(a-n)_n; raises PoleError where that is infinite (see
    pochhammer_sphere).  Exact for exact ``a``: a rational p/q gives the one
    integer product prod_{i<j} (p + i q) / q^j, in lowest terms: gcd(p+iq, q) = 1."""
    a = scalar(a)
    if j >= 0 and a.is_rational:
        p, q = a.fraction.as_integer_ratio()
        return Scalar(coef=Fraction(math.prod(range(p, p + j * q, q)), q ** j))
    if j >= 0:
        acc = Scalar.exact(1) if a.is_exact else Scalar.from_float(1, a.prec)
        for i in range(j):
            acc = acc * (a + i)
        return acc
    down = pochhammer(a + j, -j)
    if down.is_zero():
        raise PoleError(f"({a})_{j} is infinite: zero factor in the defining product")
    return 1 / down


def _factor_work(lengths: Sequence[tuple], first: int, last: int) -> int:
    """The factor work of the Pochhammer products of terms j = first..last, in
    closed form, for lengths (l0, l1, extended): a product of L = l0 + j l1
    factors at term j.  Built one factor at a time, a product of L factors
    costs L (L-1) / 2 (partial products of 1, ..., L-1 factors, each times
    one more).  A rebuilt product pays that at every term.  An extended one
    (a fixed start, l1 >= 0) is built once, to its last length, and pays L
    at each term for the product that takes it in."""
    def sum_squares(x):  # sum of i^2 over i = 0..x, 0 for x < 0
        return x * (x + 1) * (2 * x + 1) // 6 if x > 0 else 0

    n = last - first + 1
    s1 = (first + last) * n // 2
    s2 = sum_squares(last) - sum_squares(first - 1)
    work = 0
    for l0, l1, extended in lengths:
        total = n * l0 + l1 * s1  # sum of L over the terms
        if extended:
            top = l0 + last * l1
            work += top * (top - 1) // 2 + total
        else:
            work += (n * l0 * l0 + 2 * l0 * l1 * s1 + l1 * l1 * s2 - total) // 2
    return work


def _rational(x):
    """``x`` as an int or a Fraction when it is an exact rational (an int, a
    Fraction, a "p/q" string or a rational Scalar), else None."""
    if isinstance(x, (int, Fraction)):
        return x
    x = scalar(x)
    return None if x._sqrtpi else x._coef


def _running_sum(progs, n_num, extends, first, last, weight, rise, one, up, down):
    """(acc, D) of pochhammer_sum's loop over (a, b, q, l0, l1), n_num of
    them numerators, ``rise`` building a product (see pochhammer_sum)."""
    runs = [(0, one)] * len(progs)  # length at the last term; D's products
    grown, acc = one, 0
    for j in range(first, last + 1):
        t, ext, grown = weight(j) if weight else 1, down, grown * up
        for i, (a, b, q, l0, l1) in enumerate(progs):
            s, n = a + j * b, l0 + j * l1
            n0, p = runs[i]
            if extends[i]:  # a fixed start: extend by the new factors
                f = rise(s + n0 * q, q, n - n0)
                if i < n_num:
                    grown = grown * f
                else:
                    p, ext = p * f, ext * f
            else:  # a numerator, or a denominator of length 0
                p = rise(s, q, n)
                t = t * p
            runs[i] = (n, p)
        if ext == 0:
            raise PoleError(f"denominator Pochhammer vanishes at term {j}",
                            term_index=j)
        acc = acc * ext + t * grown
    return acc, math.prod((p for _, p in runs[n_num:]), start=one)


def pochhammer_sum(num: Sequence[tuple], den: Sequence[tuple], first: int, last: int,
                   weight: Optional[Callable[[int], int]] = None,
                   ctx: EvalContext = DEFAULT_CONTEXT) -> Scalar:
    """sum_j w(j) prod (a + j b)_{l0 + j l1} / prod (c)_{l j} over
    j = first, ..., last (0 when last < first), with the progressions
    (a, b, l0, l1) in ``num`` and (c, l) in ``den``; no length may be negative.
    ``weight`` gives term j's integer weight w(j), 1 for every term when it
    is None.  A sum whose factor work (_factor_work) is above
    ctx.max_terms ** 2 raises WorkBudgetError before ``weight`` is called.

    An empty range returns the mode's zero at once.  Rational factors are
    summed in integers read from their Fractions, outside any precision
    context: (A/q + j B/q)_L is prod_{i<L} (A + jB + iq) / q^L.  A
    progression with a fixed start, as every denominator has, is extended by
    its new factors, and so is each q's power, whose exponent is linear in
    j.  The numerator's new factors go into one running product, the
    denominator's multiply the running sum; so no term multiplies two long
    products, and the total is made a Fraction once.  A progression whose
    start moves with j is rebuilt at every term, and with every start moving
    and no denominator (the theorem's sum) the loop does only that.  A float
    factor (exact_first passes them for complex input) runs the general
    loop in mpmath at its precision.  A sqrt(pi) multiple raises
    UnsupportedExactError.  A denominator that vanishes first at term j
    raises PoleError with term_index j.
    """
    progs = [(a, b, l0, l1) for a, b, l0, l1 in num] + [(c, 0, 0, l) for c, l in den]
    rats = [(_rational(a), _rational(b)) for a, b, *_ in progs]
    exact = all(a is not None and b is not None for a, b in rats)
    if exact and last < first:
        return Scalar(coef=Fraction(0))
    extends = [l1 >= 0 and (scalar(b).is_zero() if rb is None else rb == 0)
               for (_, b, _, l1), (_, rb) in zip(progs, rats)]  # see the loop
    if first <= last:
        if any(min(l0 + first * l1, l0 + last * l1) < 0 for *_, l0, l1 in progs):
            raise ValueError("a Pochhammer length is negative on the summation range")
        work = _factor_work([(l0, l1, x) for (*_, l0, l1), x in zip(progs, extends)],
                            first, last)
        if work > ctx.max_terms ** 2:
            raise WorkBudgetError(
                f"its Pochhammer products take {work} units of factor work, more "
                f"than max_terms^2 = {ctx.max_terms ** 2} (max_terms = {ctx.max_terms})")
    if not exact:
        factors = [scalar(x) for a, b, *_ in progs for x in (a, b)]
        if all(x.is_exact for x in factors):
            raise UnsupportedExactError("a Pochhammer sum of sqrt(pi) multiples")
        prec, one = max(x.prec for x in factors if x.is_float), mp.mpc(1)
        if last < first:
            return Scalar(val=mp.mpc(0), prec=prec)
        progs = [(scalar(a).to_mpc(prec), scalar(b).to_mpc(prec), 1, l0, l1)
                 for a, b, l0, l1 in progs]
        with working_precision(prec):
            acc, total_den = _running_sum(
                progs, len(num), extends, first, last, weight,
                lambda s, q, n: math.prod((s + i for i in range(n)), start=one), one, 1, 1)
            return Scalar(val=acc / total_den, prec=prec)
    ints, e0, e1 = [], {}, {}  # term j has q^(e0[q] + j e1[q]) in its denominator
    for i, ((a, b), (*_, l0, l1)) in enumerate(zip(rats, progs)):
        q = math.lcm(a.denominator, b.denominator)
        ints.append((a.numerator * (q // a.denominator), b.numerator * (q // b.denominator),
                     q, l0, l1))
        sign = 1 if i < len(num) else -1
        e0[q] = e0.get(q, 0) + sign * l0
        e1[q] = e1.get(q, 0) + sign * l1
    # With R the rebuilt products, G the extended numerators times
    # up^(j-first+1), H the denominators D times down^(j-first+1), K the
    # q-powers of term first, term j is (w R G / H) down / (up K); acc / H
    # sums w R G / H, so the sum is acc / (D up K down^(last-first)).
    up = math.prod(q ** -e for q, e in e1.items() if e < 0)
    down = math.prod(q ** e for q, e in e1.items() if e > 0)
    if den or any(extends):
        acc, total_den = _running_sum(ints, len(num), extends, first, last, weight,
                                      lambda s, q, n: math.prod(range(s, s + n * q, q)),
                                      1, up, down)
    else:  # every product rebuilt, H = down^(j-first+1)
        acc, grown, total_den = 0, 1, 1
        for j in range(first, last + 1):
            t, grown = weight(j) if weight else 1, grown * up
            for a, b, q, l0, l1 in ints:
                s = a + j * b
                t *= math.prod(range(s, s + (l0 + j * l1) * q, q))
            acc = acc * down + t * grown
    k = {q: e0[q] + first * e1[q] for q in e0}
    return Scalar(coef=Fraction(
        acc * math.prod(q ** -e for q, e in k.items() if e < 0),
        total_den * up * down ** (last - first)
        * math.prod(q ** e for q, e in k.items() if e > 0)))


def pochhammer_sphere(a, j: int) -> SphereValue:
    """Pochhammer symbol with poles mapped to the sphere point at infinity."""
    try:
        return SphereValue.of(pochhammer(a, j))
    except PoleError:
        return SphereValue.infinity()


# ---------------------------------------------------------------------------
# Gamma ratios
# ---------------------------------------------------------------------------


def gamma_ratio(x, y) -> SphereValue:
    """Gamma(x)/Gamma(y), surviving pole/pole cancellation.

    When x - y is an integer n the ratio *is* (y)_n (finite even when both
    gammas are individually infinite), computed exactly for exact inputs;
    two rationals go straight from their Fractions to pochhammer.
    Otherwise the two gammas are evaluated and divided, with 0 returned when
    only the denominator sits on a pole and inf when only the numerator does.
    Both on poles with non-integer difference is indeterminate.
    """
    x, y = scalar(x), scalar(y)
    if x.is_rational and y.is_rational:
        n = x._coef - y._coef
        if n.denominator == 1:
            return pochhammer_sphere(y, int(n))
    else:
        diff = x - y
        hit = diff.nearest_integer()
        if hit is not None:
            n, exact_hit = hit
            return _mark(pochhammer_sphere(y, n), not exact_hit and diff.is_float)
    x_pole = x.is_nonpositive_integer()
    y_pole = y.is_nonpositive_integer()
    if x_pole and y_pole:
        # unreachable with exact inputs (difference would be integral)
        raise IndeterminateError(
            f"gamma_ratio({x}, {y}): two poles with non-integer difference"
        )
    if y_pole:
        zero = Scalar.exact(0) if (x.is_exact and y.is_exact) else \
            Scalar.from_float(0, y.prec or x.prec or MIN_PRECISION)
        return SphereValue.of(zero, tolerance_dependent=y.is_float)
    if x_pole:
        return SphereValue.infinity(tolerance_dependent=x.is_float)
    gx = gamma(x)
    gy = gamma(y)
    return SphereValue(finite=gx.finite / gy.finite, is_infinity=False,
                       tolerance_dependent=gx.tolerance_dependent or gy.tolerance_dependent)


def _mark(value: SphereValue, tolerance_dependent: bool) -> SphereValue:
    if not tolerance_dependent or value.tolerance_dependent:
        return value
    return SphereValue(finite=value.finite, is_infinity=value.is_infinity,
                       tolerance_dependent=True)
