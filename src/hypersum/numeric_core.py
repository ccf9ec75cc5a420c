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
from collections import Counter
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
    """

    __slots__ = ("mode", "_coef", "_sqrtpi", "_val", "prec")

    def __init__(self, *, coef=None, sqrtpi=0, val=None, prec=None):
        if coef is not None:
            self.mode = Mode.EXACT
            self._coef = coef
            self._sqrtpi = sqrtpi if coef != 0 else 0
            self._val = None
            self.prec = None
        else:
            if prec is None or prec < MIN_PRECISION:
                raise ValueError(f"float precision must be >= {MIN_PRECISION} bits")
            self.mode = Mode.FLOAT
            self._coef = None
            self._sqrtpi = 0
            self._val = val
            self.prec = prec

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
        with working_precision(prec):
            if isinstance(value, Fraction):
                v = mp.mpf(value.numerator) / mp.mpf(value.denominator)
                v = mp.mpc(v)
            else:
                v = mp.mpc(value)
        return cls(val=v, prec=prec)

    # -- inspection --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.mode is Mode.EXACT

    @property
    def is_float(self) -> bool:
        return self.mode is Mode.FLOAT

    @property
    def is_rational(self) -> bool:
        return self.mode is Mode.EXACT and self._sqrtpi == 0

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

    def _coerce(self, other):
        """Normalize ``other`` to a Scalar, matching this value's float precision."""
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(coef=Fraction(other))
        try:
            return scalar(other, self.prec)
        except TypeError:
            return NotImplemented

    def _pair(self, other):
        """Resolve operand modes: (EXACT, a, b) on Fractions+powers or (FLOAT, a, b, prec)."""
        if self.is_exact and other.is_exact:
            return ("exact", self, other)
        if self.is_float and other.is_float:
            if self.prec != other.prec:
                raise PrecisionMixError(
                    f"cannot mix {self.prec}-bit and {other.prec}-bit floats"
                )
            return ("float", self._val, other._val, self.prec)
        if self.is_float:
            return ("float", self._val, other.to_mpc(self.prec), self.prec)
        return ("float", self.to_mpc(other.prec), other._val, other.prec)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        kind, *rest = self._pair(other)
        if kind == "exact":
            a, b = rest
            if a._coef == 0:
                return b
            if b._coef == 0:
                return a
            if a._sqrtpi != b._sqrtpi:
                raise UnsupportedExactError(
                    "cannot add exact values with different sqrt(pi) powers"
                )
            return Scalar(coef=a._coef + b._coef, sqrtpi=a._sqrtpi)
        a, b, prec = rest
        with working_precision(prec):
            return Scalar(val=a + b, prec=prec)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        if self.is_exact:
            return Scalar(coef=-self._coef, sqrtpi=self._sqrtpi)
        with working_precision(self.prec):
            return Scalar(val=-self._val, prec=self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        kind, *rest = self._pair(other)
        if kind == "exact":
            a, b = rest
            return Scalar(coef=a._coef * b._coef, sqrtpi=a._sqrtpi + b._sqrtpi)
        a, b, prec = rest
        with working_precision(prec):
            return Scalar(val=a * b, prec=prec)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        kind, *rest = self._pair(other)
        if kind == "exact":
            a, b = rest
            if b._coef == 0:
                raise ZeroDivisionError("exact division by zero")
            return Scalar(coef=a._coef / b._coef, sqrtpi=a._sqrtpi - b._sqrtpi)
        a, b, prec = rest
        if b == 0:
            raise ZeroDivisionError("float division by zero")
        with working_precision(prec):
            return Scalar(val=a / b, prec=prec)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_exact:
            if n >= 0 or self._coef != 0:
                return Scalar(coef=self._coef**n, sqrtpi=self._sqrtpi * n)
            raise ZeroDivisionError("0 to a negative power")
        with working_precision(self.prec):
            return Scalar(val=self._val**n, prec=self.prec)

    def __abs__(self):
        if self.is_exact:
            return Scalar(coef=abs(self._coef), sqrtpi=self._sqrtpi)
        with working_precision(self.prec):
            return Scalar(val=mp.mpc(abs(self._val)), prec=self.prec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_exact and other.is_exact:
            return self._coef == other._coef and self._sqrtpi == other._sqrtpi
        kind, a, b, prec = self._pair(other)
        return a == b

    __hash__ = None

    def __lt__(self, other):
        # operands meet as in __eq__ (through _pair), so that the operators
        # total_ordering derives from the two agree with each other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_rational and other.is_rational:
            return self._coef < other._coef
        if self.is_exact and other.is_exact:
            a, b = self.to_mpc(113), other.to_mpc(113)
        else:
            _, a, b, _ = self._pair(other)
        if a.imag != 0 or b.imag != 0:
            raise TypeError("ordering is only defined for real values")
        return a.real < b.real

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


def scalar(x, prec: Optional[int] = None) -> Scalar:
    """Coerce ints/Fractions/strings to exact scalars and floats/complex to
    float scalars (at ``prec`` bits, default 53)."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.exact(x)
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
    arguments stay as they are and every real, finite float argument becomes
    the exact rational it already is, so ``fn`` runs exactly.  If it raises
    UnsupportedExactError, or an argument is complex or non-finite, ``fn``
    runs instead on float scalars at ctx.precision + GUARD_BITS.  When an
    argument or the route was float, the result is rounded once to
    ctx.precision, keeping its tolerance_dependent flag; otherwise it is
    returned exact.
    """
    args = [scalar(x) for x in args]
    exact = [_dyadic(x) for x in args]
    if all(x is not None for x in exact):
        try:
            value = fn(*exact)
        except UnsupportedExactError:
            pass
        else:
            if all(x.is_exact for x in args):
                return value
            return _rounded(value, ctx.precision)
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


def pochhammer_sum(weights: Sequence[int], num: Sequence[tuple],
                   den: Sequence[tuple] = (), first: int = 0,
                   ctx: EvalContext = DEFAULT_CONTEXT) -> Scalar:
    """sum_j w_j prod (a + j b)_{l0 + j l1} / prod (c)_{l j} over j = first,
    first + 1, ..., one term per integer weight, with the progressions
    (a, b, l0, l1) in ``num`` and (c, l) in ``den``; no length may be negative.
    A sum whose factor work (_factor_work) is above ctx.max_terms ** 2
    raises WorkBudgetError before any weight is read.

    Rational factors are summed in integers: (A/q + j B/q)_L is
    prod_{i<L} (A + jB + iq) / q^L.  A progression with a fixed start, as
    every denominator has, is extended by its new factors, and so is each
    q's power, whose exponent is linear in j.  The numerator's new factors
    go into one running product, the denominator's multiply the running
    sum; so no term multiplies two long products, and the total is made a
    Fraction once.  A progression whose start moves with j is rebuilt at
    every term.  A float factor (exact_first passes them for complex input)
    runs the same products in mpmath at its precision.
    A sqrt(pi) multiple raises UnsupportedExactError.  A denominator that
    vanishes first at term j raises PoleError with term_index j.
    """
    progs = [(scalar(a), scalar(b), l0, l1) for a, b, l0, l1 in num] \
        + [(scalar(c), Scalar.exact(0), 0, l) for c, l in den]
    last = first + len(weights) - 1
    if weights and any(min(l0 + first * l1, l0 + last * l1) < 0 for *_, l0, l1 in progs):
        raise ValueError("a Pochhammer length is negative on the summation range")
    extends = [b.is_zero() and l1 >= 0 for _, b, _, l1 in progs]  # see the loop
    if weights:
        work = _factor_work([(l0, l1, x) for (*_, l0, l1), x in zip(progs, extends)],
                            first, last)
        if work > ctx.max_terms ** 2:
            raise WorkBudgetError(
                f"its Pochhammer products take {work} units of factor work, more "
                f"than max_terms^2 = {ctx.max_terms ** 2} (max_terms = {ctx.max_terms})")
    factors = [x for a, b, *_ in progs for x in (a, b)]
    e0, e1 = Counter(), Counter()  # term j has q^(e0[q] + j e1[q]) in its denominator
    exact = all(x.is_rational for x in factors)
    if exact:
        prec, one = MIN_PRECISION, 1
        for i, (a, b, l0, l1) in enumerate(progs):
            q = math.lcm(a.fraction.denominator, b.fraction.denominator)
            progs[i] = (int(a.fraction * q), int(b.fraction * q), q, l0, l1)
            sign = 1 if i < len(num) else -1
            e0[q] += sign * l0
            e1[q] += sign * l1

        def rise(s, q, n):
            return math.prod(range(s, s + n * q, q))
    elif any(x.is_float for x in factors):
        prec, one = max(x.prec for x in factors if x.is_float), mp.mpc(1)
        progs = [(a.to_mpc(prec), b.to_mpc(prec), 1, l0, l1) for a, b, l0, l1 in progs]

        def rise(s, q, n):
            return math.prod((s + i for i in range(n)), start=one)
    else:
        raise UnsupportedExactError("a Pochhammer sum of sqrt(pi) multiples")
    # With R the rebuilt products, G the extended numerators times
    # up^(j-first+1), H the denominators D times down^(j-first+1), K the
    # q-powers of term first, term j is (w R G / H) down / (up K); acc / H
    # sums w R G / H, so the sum is acc / (D up K down^(last-first)).
    up = math.prod(q ** -e for q, e in e1.items() if e < 0)
    down = math.prod(q ** e for q, e in e1.items() if e > 0)
    runs = [(0, one)] * len(progs)  # length at the last term; D's products
    grown, acc = one, 0
    with working_precision(prec):
        for j, w in enumerate(weights, first):
            t, ext, grown = w, down, grown * up
            for i, (a, b, q, l0, l1) in enumerate(progs):
                s, n = a + j * b, l0 + j * l1
                n0, p = runs[i]
                if extends[i]:  # a fixed start: extend by the new factors
                    f = rise(s + n0 * q, q, n - n0)
                    if i < len(num):
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
        total_den = math.prod((p for _, p in runs[len(num):]), start=one)
        if exact:
            k = {q: e0[q] + first * e1[q] for q in e0}
            return Scalar(coef=Fraction(
                acc * math.prod(q ** -e for q, e in k.items() if e < 0),
                total_den * up * down ** max(last - first, 0)
                * math.prod(q ** e for q, e in k.items() if e > 0)))
        return Scalar(val=acc / total_den, prec=prec)


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
    gammas are individually infinite), computed exactly for exact inputs.
    Otherwise the two gammas are evaluated and divided, with 0 returned when
    only the denominator sits on a pole and inf when only the numerator does.
    Both on poles with non-integer difference is indeterminate.
    """
    x, y = scalar(x), scalar(y)
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
