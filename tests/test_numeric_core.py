import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from hypersum.numeric_core import (
    EvalContext,
    IndeterminateError,
    InvalidParametersError,
    PoleError,
    PrecisionMixError,
    Scalar,
    SphereValue,
    UnsupportedExactError,
    gamma,
    gamma_ratio,
    pochhammer,
    pochhammer_sphere,
    pochhammer_sum,
    scalar,
    _factor_work,
)
from hypersum import HypParams, RamanujanParams, pfq, verify_theorem

# Reference values computed once at 200 bits and frozen as strings.
GAMMA_POINTS = [
    ("3.7", "4.17065178379660316539360299861798372794"),
    ("0.1", "9.513507698668731836292487177265402192551"),
    ("-2.3", "-1.447107394255917263858607780549399796861"),
    ("12.25", "73711509.04676994909084589071633604777488"),
    ("0.5", "1.772453850905516027298167483341145182798"),
]


# Arguments of the precision-honesty test: positive reals, negative
# non-integers (the reflection side) and one point off the real line.
HONESTY_POINTS = [
    Fraction(1, 10), Fraction(1, 2), Fraction(37, 10), Fraction(49, 4),
    Fraction(333, 10), Fraction(1001, 10),
    Fraction(-3, 4), Fraction(-23, 10), Fraction(-15, 2), Fraction(-413, 10),
    complex(-2.5, 1.25),
]


def rel_err(a, b):
    return abs(a - b) / abs(b)


def honest_bound(prec):
    """A P-bit gamma is honest when its relative error is below 2^-(P-4)."""
    return mpmath.mpf(2) ** -(prec - 4)


SMALL_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
SCALAR_OPERANDS = st.one_of(
    SMALL_FRACTIONS.map(Scalar.exact),
    st.builds(Scalar.exact_sqrtpi, SMALL_FRACTIONS, st.sampled_from([1, 2, -1])),
    st.integers(min_value=-4, max_value=4),
    SMALL_FRACTIONS,
    st.builds(Scalar.from_float,
              st.one_of(st.floats(min_value=-5, max_value=5), st.just(0.0),
                        st.complex_numbers(max_magnitude=5, allow_infinity=False,
                                           allow_nan=False)),
              st.sampled_from([53, 256])))
SCALAR_OPS = [operator.add, operator.sub, operator.mul, operator.truediv,
              operator.eq, operator.lt]


def scalar_op_model(op, x, y):
    """op(x, y) as Scalar defines it, from Fractions and mpmath alone:
    (coefficient, sqrt(pi) power) for an exact result, the raw mpc value and
    precision for a float one, a bool for == and <."""
    floats = [s for s in (x, y) if isinstance(s, Scalar) and s.is_float]
    if not floats:
        (a, pa), (b, pb) = ((s.coefficient, s.sqrtpi_power) if isinstance(s, Scalar)
                            else (Fraction(s), 0) for s in (x, y))
        if op is operator.eq:
            return a == b and pa == pb
        if op is operator.lt:
            if pa == pb == 0:
                return a < b
            return scalar(x).to_mpc(113).real < scalar(y).to_mpc(113).real
        if op in (operator.add, operator.sub):
            if not b or not a:   # a zero operand gives the other one
                coef, power = (a, pa) if not b else (op(0, b), pb)
            elif pa != pb:
                raise UnsupportedExactError
            else:
                coef, power = op(a, b), pa
        elif op is operator.mul:
            coef, power = a * b, pa + pb
        else:
            if not b:
                raise ZeroDivisionError
            coef, power = a / b, pa - pb
        return coef, power if coef else 0
    if len({s.prec for s in floats}) > 1:
        raise PrecisionMixError
    prec = floats[0].prec
    a, b = (scalar(s).to_mpc(prec) for s in (x, y))
    if op is operator.truediv and b == 0:
        raise ZeroDivisionError
    if op is operator.lt and (a.imag != 0 or b.imag != 0):
        raise TypeError
    with mp.workprec(prec):
        if op is operator.lt:
            return a.real < b.real
        value = op(a, b)
    return value if op is operator.eq else (value._mpc_, prec)


def outcome(fn):
    """fn()'s value, with a Scalar result as scalar_op_model gives it, or the
    type of the error it raised."""
    try:
        value = fn()
    except (UnsupportedExactError, PrecisionMixError, ZeroDivisionError, TypeError) as exc:
        return type(exc)
    if isinstance(value, Scalar):
        if value.is_exact:
            return value.coefficient, value.sqrtpi_power
        return value._val._mpc_, value.prec
    return value


class TestScalar:
    @given(SCALAR_OPERANDS, SCALAR_OPERANDS, st.sampled_from(SCALAR_OPS))
    @settings(max_examples=600, deadline=None)
    def test_operators_match_fractions_and_mpmath(self, x, y, op):
        # exact results are Fraction arithmetic with their sqrt(pi) power,
        # float results mpmath's bits at the float operand's precision
        assume(isinstance(x, Scalar) or isinstance(y, Scalar))
        got = outcome(lambda: op(x, y))
        assert got == outcome(lambda: scalar_op_model(op, x, y))

    @pytest.mark.parametrize("call", [
        lambda: RamanujanParams(0.5, 1, 0.5, float("inf")),
        lambda: pfq([float("nan"), 1], [3]),
        lambda: verify_theorem(3, float("inf"), 0.5, 2.0),
        lambda: RamanujanParams(0.5, float("nan"), 0.5, 2),
        lambda: HypParams((float("inf"),), (Fraction(5, 2),)),
        lambda: Scalar.from_float(complex(1, float("inf")), 113),
    ], ids=["params-z-inf", "pfq-nan", "verify-beta-inf", "params-beta-nan",
            "hypparams-inf", "complex-inf"])
    def test_non_finite_floats_refused(self, call):
        with pytest.raises(InvalidParametersError, match="(inf|nan).* is not a finite number"):
            call()

    def test_exact_arithmetic_stays_exact(self):
        a = Scalar.exact(1, 3)
        b = Scalar.exact(1, 6)
        assert (a + b).fraction == Fraction(1, 2)
        assert (a * b).fraction == Fraction(1, 18)
        assert (a - b).fraction == Fraction(1, 6)
        assert (a / b).fraction == 2

    def test_sqrtpi_grading(self):
        s = Scalar.exact_sqrtpi(Fraction(1, 2))  # sqrt(pi)/2
        p = s * s
        assert p.sqrtpi_power == 2
        assert p.coefficient == Fraction(1, 4)
        assert (s / s).fraction == 1
        # sums across different powers have no exact form
        with pytest.raises(UnsupportedExactError):
            s + Scalar.exact(1)
        # but adding zero is fine
        assert (s + Scalar.exact(0)).sqrtpi_power == 1

    def test_sqrtpi_numeric_value(self):
        s = Scalar.exact_sqrtpi(Fraction(1, 2))
        v = s.to_mpc(113)
        with mp.workprec(113):
            assert rel_err(v, mp.sqrt(mp.pi) / 2) < 1e-30

    def test_float_precision_is_sticky(self):
        a = Scalar.from_float(1.5, 113)
        b = a * a
        assert b.prec == 113
        c = a + Scalar.exact(1, 3)  # exact operand adopts float precision
        assert c.prec == 113

    def test_precision_mix_raises(self):
        a = Scalar.from_float(1.5, 113)
        b = Scalar.from_float(2.5, 256)
        with pytest.raises(PrecisionMixError):
            a + b
        # ordering follows the same rule in both directions
        with pytest.raises(PrecisionMixError):
            a < b
        with pytest.raises(PrecisionMixError):
            b > a

    def test_nearest_integer(self):
        assert Scalar.exact(4).nearest_integer() == (4, True)
        assert Scalar.exact(1, 2).nearest_integer() is None
        n, exact_hit = Scalar.from_float(3.0, 113).nearest_integer()
        assert n == 3 and exact_hit
        n, exact_hit = Scalar.from_float(3.0 + 1e-13, 113).nearest_integer()
        assert n == 3 and not exact_hit
        assert Scalar.from_float(3.1, 113).nearest_integer() is None
        assert Scalar.from_float(3 + 1e-6j, 113).nearest_integer() is None
        assert Scalar.exact(-2).is_nonpositive_integer()
        assert not Scalar.exact(-1, 2).is_nonpositive_integer()
        assert not Scalar.exact_sqrtpi(-2).is_nonpositive_integer()
        assert Scalar.from_float(-2.0 + 1e-13, 113).is_nonpositive_integer()
        assert Scalar.from_float(1e-13, 113).is_nonpositive_integer()
        assert not Scalar.from_float(3.0, 113).is_nonpositive_integer()
        assert not Scalar.from_float(-2 + 1e-6j, 113).is_nonpositive_integer()

    def test_ordering(self):
        assert Scalar.exact(1, 3) < Scalar.exact(1, 2)
        assert Scalar.from_float(0.5, 113) > Scalar.exact(1, 3)
        assert Scalar.exact(1, 2) <= 0.5 and Scalar.exact(1, 2) >= "1/2"
        assert not Scalar.exact(1, 2) > 0.5
        # an exact operand is compared at the float's precision, as == does
        third = Scalar.from_float(1 / 3, 53)
        assert Scalar.exact(1, 3) == third and Scalar.exact(1, 3) <= third
        assert not Scalar.exact(1, 3) > third
        assert Scalar.from_float(2.5 + 1j, 113).real_part() > Scalar.exact(5, 2) - 1
        assert Scalar.exact_sqrtpi(1).real_part() >= Scalar.exact(7, 4)
        with pytest.raises(TypeError):
            Scalar.from_float(1j, 113) < Scalar.exact(1)

    def test_string_roundtrip_exact(self):
        s = Scalar.exact("-7/12")
        assert str(s) == "-7/12"
        assert Scalar.exact(str(s)).fraction == Fraction(-7, 12)


class TestSphereValue:
    def test_reciprocal_conventions(self):
        inf = SphereValue.infinity()
        zero = SphereValue.of(0)
        assert inf.reciprocal() == zero
        assert zero.reciprocal().is_infinity
        assert SphereValue.of(Fraction(2, 3)).reciprocal() == SphereValue.of(Fraction(3, 2))

    def test_indeterminate_forms(self):
        inf = SphereValue.infinity()
        zero = SphereValue.of(0)
        with pytest.raises(IndeterminateError):
            inf * zero
        with pytest.raises(IndeterminateError):
            inf / inf
        with pytest.raises(IndeterminateError):
            zero / zero

    def test_absorption(self):
        inf = SphereValue.infinity()
        assert (inf * SphereValue.of(5)).is_infinity
        assert (SphereValue.of(5) / inf).is_zero()
        assert (SphereValue.of(5) / SphereValue.of(0)).is_infinity


class TestEvalContext:
    def test_defaults(self):
        ctx = EvalContext()
        assert ctx.precision == 256
        assert ctx.max_terms == 100_000
        assert ctx.rel_tol == 1e-12
        assert ctx.abs_tol == 1e-30

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalContext(precision=10)
        with pytest.raises(ValueError):
            EvalContext(max_terms=0)
        with pytest.raises(ValueError):
            EvalContext(rel_tol=0)


class TestGammaExact:
    def test_positive_integers_are_factorials(self):
        for n in range(1, 12):
            assert gamma(scalar(n)).finite.fraction == math.factorial(n - 1)

    def test_nonpositive_integers_are_poles(self):
        for n in (0, -1, -2, -7):
            assert gamma(scalar(n)).is_infinity

    def test_half_integers(self):
        cases = {
            Fraction(1, 2): Fraction(1),
            Fraction(3, 2): Fraction(1, 2),
            Fraction(5, 2): Fraction(3, 4),
            Fraction(7, 2): Fraction(15, 8),
            Fraction(-1, 2): Fraction(-2),
            Fraction(-3, 2): Fraction(4, 3),
        }
        for x, q in cases.items():
            g = gamma(scalar(x)).finite
            assert g.sqrtpi_power == 1
            assert g.coefficient == q

    def test_other_rationals_unsupported(self):
        with pytest.raises(UnsupportedExactError):
            gamma(scalar(Fraction(1, 3)))


class TestGammaFloat:
    @pytest.mark.parametrize("x, ref", GAMMA_POINTS)
    def test_frozen_points(self, x, ref):
        g = gamma(Scalar.from_float(Fraction(x), 113)).finite
        with mp.workprec(113):
            assert rel_err(g.to_mpc(113), mpmath.mpf(ref)) < honest_bound(113)

    def test_complex_point(self):
        z = mpmath.mpc("1.5", "0.5")
        g = gamma(Scalar.from_float(z, 113)).finite.to_mpc(113)
        with mp.workprec(113):
            ref = mpmath.mpc(
                "0.7907389141278650053740228306581127675107",
                "0.02742508541388238870372604289721214159836",
            )
            assert rel_err(g, ref) < honest_bound(113)

    def test_matches_reference_library_broadly(self):
        with mp.workprec(113):
            for i in range(-45, 50):
                x = mp.mpf(i) / 2 + mp.mpf("0.31")
                g = gamma(Scalar.from_float(x, 113)).finite.to_mpc(113)
                assert rel_err(g, mpmath.gamma(x)) < honest_bound(113)

    @pytest.mark.parametrize("prec", [53, 256, 1024])
    def test_precision_honesty(self, prec):
        # the reference is mpmath's gamma of the same binary argument in a
        # private context at 2P+20 bits, so the global precision is untouched
        ref_ctx = mpmath.MPContext()
        ref_ctx.prec = 2 * prec + 20
        bad = []
        for x in HONESTY_POINTS:
            arg = Scalar.from_float(x, prec)
            v = arg.to_mpc(prec)
            ref = ref_ctx.gamma(ref_ctx.mpc(v))
            g = ref_ctx.mpc(gamma(arg).finite.to_mpc(prec))
            err = abs(g - ref) / abs(ref)
            if err >= honest_bound(prec):
                bad.append((x, ref_ctx.nstr(err, 3)))
        assert not bad, f"gamma at {prec} bits is not honest at {bad}"

    def test_pole_snap_is_flagged(self):
        g = gamma(Scalar.from_float(-3.0 + 1e-14, 113))
        assert g.is_infinity and g.tolerance_dependent
        g = gamma(Scalar.from_float(-3.0, 113))
        assert g.is_infinity and not g.tolerance_dependent

    @given(st.floats(min_value=0.51, max_value=20, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_reflection_property(self, x):
        # Gamma(x) Gamma(1-x) sin(pi x) / pi == 1, away from the poles
        assume(abs(x - round(x)) > 1e-6)
        gx = gamma(Scalar.from_float(x, 113)).finite.to_mpc(113)
        gr = gamma(Scalar.from_float(1 - x, 113)).finite.to_mpc(113)
        with mp.workprec(113):
            lhs = gx * gr * mpmath.sinpi(mp.mpf(x)) / mp.pi
            # two gammas, a sine and three roundings: two bits over the
            # single-gamma bound
            assert abs(lhs - 1) < honest_bound(113 - 2)


def pochhammer_oracle(a: Fraction, j: int):
    """(a)_j as a plain Fraction product, one factor at a time; None at a
    negative-index pole."""
    if j < 0:
        down = pochhammer_oracle(a + j, -j)
        return None if down == 0 else 1 / down
    acc = Fraction(1)
    for i in range(j):
        acc *= a + i
    return acc


def float_pochhammer_oracle(a: Scalar, j: int) -> Scalar:
    """The float product a(a+1)...(a+j-1) multiplied one Scalar at a time."""
    if j < 0:
        return 1 / float_pochhammer_oracle(a + j, -j)
    acc = Scalar.from_float(1, a.prec)
    for i in range(j):
        acc = acc * (a + i)
    return acc


class TestPochhammer:
    def test_known_values(self):
        assert pochhammer(5, 3).fraction == 210
        assert pochhammer(Fraction(7, 3), 0).fraction == 1
        assert pochhammer(Fraction(1, 3), 2).fraction == Fraction(4, 9)
        assert pochhammer(-3, 5).fraction == 0  # passes through zero

    def test_negative_index(self):
        # (m+1)_{-1} = 1/m
        for m in (Fraction(1, 3), Fraction(5), Fraction(-7, 2)):
            assert pochhammer(m + 1, -1).fraction == 1 / m
        with pytest.raises(PoleError):
            pochhammer(1, -1)  # (1)_{-1} = 1/(0)_1 = 1/0
        assert pochhammer_sphere(1, -1).is_infinity

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=30),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_index_addition_law(self, a, i, j):
        # (a)_{i+j} = (a)_i (a+i)_j
        lhs = pochhammer(a, i + j).fraction
        rhs = (pochhammer(a, i) * pochhammer(a + i, j)).fraction
        assert lhs == rhs

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=30),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_negative_index_inverts(self, a, n):
        # (a)_{-n} (a-n)_n = 1 whenever defined
        down = pochhammer(a - n, n)
        if down.fraction == 0:
            with pytest.raises(PoleError):
                pochhammer(a, -n)
        else:
            assert (pochhammer(a, -n) * down).fraction == 1

    @given(
        st.one_of(
            st.integers(min_value=-40, max_value=5).map(Fraction),
            st.fractions(min_value=-60, max_value=60, max_denominator=1000),
        ),
        st.integers(min_value=-30, max_value=60),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_product(self, a, j):
        # nonpositive integers a make the j >= 0 products pass through 0 and
        # the j < 0 ones hit poles
        expect = pochhammer_oracle(a, j)
        if expect is None:
            with pytest.raises(PoleError):
                pochhammer(a, j)
            return
        got = pochhammer(a, j).fraction
        assert got == expect
        assert got.denominator > 0
        assert math.gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize("prec", [53, 113, 256])
    def test_float_path_matches_scalar_product(self, prec):
        for x in (0.5, -2.25, 3.7, complex(0.3, -1.2)):
            a = Scalar.from_float(x, prec)
            for j in range(-6, 12):
                got = pochhammer(a, j)
                assert got.is_float and got.prec == prec
                assert got == float_pochhammer_oracle(a, j)

    def test_sqrtpi_multiple(self):
        # (a)_0 = 1 and (a)_1 = a stay exact; a + 1 has no exact form
        a = Scalar.exact_sqrtpi(Fraction(3, 2))
        assert pochhammer(a, 0) == Scalar.exact(1)
        assert pochhammer(a, 1) == a
        for j in (2, 5, -1):
            with pytest.raises(UnsupportedExactError):
                pochhammer(a, j)

    def test_float_mode(self):
        p = pochhammer(Scalar.from_float(0.5, 113), 4)
        with mp.workprec(113):
            ref = mp.mpf("0.5") * mp.mpf("1.5") * mp.mpf("2.5") * mp.mpf("3.5")
            assert rel_err(p.to_mpc(113), ref) < 1e-30


def pochhammer_sum_oracle(weights, num, den, first):
    """pochhammer_sum's defining sum, one Fraction factor at a time; None
    when a denominator vanishes, with the index of that term."""
    total = Fraction(0)
    for j, w in enumerate(weights, first):
        t = Fraction(w)
        for a, b, l0, l1 in num:
            t *= pochhammer_oracle(a + j * b, l0 + j * l1)
        d = Fraction(1)
        for c, l in den:
            d *= pochhammer_oracle(c, l * j)
        if d == 0:
            return None, j
        total += t / d
    return total, None


PROGRESSION_RATIONALS = st.one_of(
    st.integers(min_value=-6, max_value=6).map(Fraction),
    st.fractions(min_value=-12, max_value=12, max_denominator=50))


class TestPochhammerSum:
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7),
        st.lists(st.tuples(PROGRESSION_RATIONALS, PROGRESSION_RATIONALS,
                           st.integers(min_value=0, max_value=4),
                           st.integers(min_value=-1, max_value=3)), max_size=3),
        st.lists(st.tuples(PROGRESSION_RATIONALS, st.integers(min_value=0, max_value=3)),
                 max_size=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    # the empty range
    @example([], [(Fraction(1, 3), 1, 0, 1)], [(Fraction(2, 5), 1)], 2)
    # the theorem's shape: two moving starts, no denominator, alternating weights
    @example([-4, 6, -4, 1], [(Fraction(-5, 2), Fraction(9, 4), 4, -1),
                              (Fraction(4, 3), Fraction(5, 4), -1, 1)], [], 1)
    # fixed and moving starts together
    @example([1, -2, 3], [(Fraction(1, 3), 0, 1, 2), (Fraction(-5, 2), Fraction(1, 2), 2, 0)],
             [(Fraction(3, 4), 1)], 0)
    def test_matches_fraction_oracle(self, weights, num, den, first):
        last = first + len(weights) - 1
        # lengths l0 + j l1 stay nonnegative on the range
        num = [(a, b, max(l0, -l1 * last, -l1 * first), l1) for a, b, l0, l1 in num]
        expect, pole_at = pochhammer_sum_oracle(weights, num, den, first)
        if expect is None:
            with pytest.raises(PoleError) as exc:
                pochhammer_sum(num, den, first, last, weight=lambda j: weights[j - first])
            assert exc.value.term_index == pole_at
            return
        got = pochhammer_sum(num, den, first, last, weight=lambda j: weights[j - first])
        assert got.is_rational and got.fraction == expect

    def test_pole_names_the_first_vanishing_term(self):
        # (-3/1)_{2j}: the factor 0 enters at j = 2
        with pytest.raises(PoleError) as exc:
            pochhammer_sum([], [(-3, 2)], 0, 4)
        assert exc.value.term_index == 2
        # a vanishing numerator is no pole
        assert pochhammer_sum([(-1, 0, 0, 2)], [(1, 1)], 0, 1).fraction == 1

    def test_empty_range_is_zero(self):
        assert pochhammer_sum([(Fraction(1, 3), 1, -1, 1)], [(2, 1)], first=1, last=0) \
            == Scalar.exact(0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer_sum([(1, 0, 1, -1)], [], 0, 2)
        with pytest.raises(ValueError):
            pochhammer_sum([], [(1, -1)], 0, 1)

    def test_sqrtpi_multiple_unsupported(self):
        with pytest.raises(UnsupportedExactError):
            pochhammer_sum([(Scalar.exact_sqrtpi(1), 0, 0, 1)], [], 0, 1)

    @pytest.mark.parametrize("prec", [53, 256])
    def test_float_factor_runs_in_float(self, prec):
        # the same products in mpmath at the float's precision; the exact
        # factors 1/3 and 1 are converted to it
        z = Scalar.from_float(complex(0.75, -0.5), prec)
        got = pochhammer_sum([(z, Fraction(1, 3), 1, 1)], [(z + 2, 1), (1, 1)], 0, 3,
                             weight=lambda j: [1, -3, 3, -1][j])
        assert got.is_float and got.prec == prec
        with mp.workprec(prec + 20):
            zz = z.to_mpc(prec)
            want = sum(w * mpmath.rf(zz + j * mp.mpf(1) / 3, 1 + j)
                       / (mpmath.rf(zz + 2, j) * mpmath.factorial(j))
                       for j, w in enumerate([1, -3, 3, -1]))
            assert rel_err(got.to_mpc(prec), want) < mpmath.mpf(2) ** -(prec - 8)
        empty = pochhammer_sum([(z, Fraction(1, 3), 1, 1)], [(z + 2, 1)], 1, 0)
        assert empty.is_float and empty.prec == prec and empty.is_zero()


class TestFactorWork:
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40),
           st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                              st.integers(min_value=-2, max_value=6), st.booleans()),
                    max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_the_sum(self, first, span, lengths):
        last = first + span
        lengths = [(max(l0, -l1 * first, -l1 * last), l1, extended and l1 >= 0)
                   for l0, l1, extended in lengths]
        want = 0
        for l0, l1, extended in lengths:
            sizes = [l0 + j * l1 for j in range(first, last + 1)]
            if extended:  # built once to its last length, then L a term
                want += sizes[-1] * (sizes[-1] - 1) // 2 + sum(sizes)
            else:
                want += sum(size * (size - 1) // 2 for size in sizes)
        assert _factor_work(lengths, first, last) == want

    def test_refused_above_max_terms_squared(self):
        # 21 terms of (1/3)_{50 j} over (2/3)_{50 j}, both extended: twice
        # 1000 * 999 / 2 + 50 * 210, 1,020,000, which is above 1009^2 =
        # 1,018,081 and below 1010^2; refused before any weight is read
        num, den = [(Fraction(1, 3), 0, 0, 50)], [(Fraction(2, 3), 50)]
        with pytest.raises(InvalidParametersError, match="1020000"):
            pochhammer_sum(num, den, 0, 20, weight_never_called, EvalContext(max_terms=1009))
        assert pochhammer_sum(num, den, 0, 20, ctx=EvalContext(max_terms=1010)) \
            == pochhammer_sum(num, den, 0, 20)

    def test_rebuilt_products_pay_at_every_term(self):
        # (1/3 + j/5)_{50 j} is rebuilt at each term: 50 j (50 j - 1) / 2
        # summed over j <= 20, 3,582,250, above 1892^2 = 3,579,664
        num = [(Fraction(1, 3), Fraction(1, 5), 0, 50)]
        with pytest.raises(InvalidParametersError, match="3582250"):
            pochhammer_sum(num, [], 0, 20, weight_never_called, EvalContext(max_terms=1892))
        assert pochhammer_sum(num, [], 0, 20, ctx=EvalContext(max_terms=1893)) \
            == pochhammer_sum(num, [], 0, 20)


    def test_theorem_shape_refused_before_any_weight(self):
        # the terminating theorem's sum at k = 40: two products rebuilt at
        # every term, lengths 40 - j and j - 1, each C(40, 3) = 9880 units
        num = [(Fraction(-75, 2), Fraction(9, 4), 40, -1), (Fraction(4, 3), Fraction(5, 4), -1, 1)]
        with pytest.raises(InvalidParametersError, match="19760"):
            pochhammer_sum(num, [], 1, 40, weight_never_called, EvalContext(max_terms=140))
        assert pochhammer_sum(num, [], 1, 40, ctx=EvalContext(max_terms=141)) \
            == pochhammer_sum(num, [], 1, 40)


def weight_never_called(j):
    """A weight function that must not be called."""
    raise AssertionError("weight read before the work was checked")


class TestGammaRatio:
    def test_pochhammer_reduction(self):
        # Gamma(7/6)/Gamma(-5/6) = (-5/6)_2 = (-5/6)(1/6) = -5/36
        r = gamma_ratio(Fraction(7, 6), Fraction(-5, 6))
        assert r.finite.fraction == Fraction(-5, 36)

    def test_pole_over_pole_integer_difference(self):
        assert gamma_ratio(-3, -5).finite.fraction == 20
        assert gamma_ratio(-5, -3).finite.fraction == Fraction(1, 20)

    def test_one_sided_poles(self):
        assert gamma_ratio(1, 0).finite.fraction == 0
        assert gamma_ratio(0, 1).is_infinity
        # non-integer difference, only the denominator on a pole
        r = gamma_ratio(Fraction(-1, 2), 0)
        assert r.finite.fraction == 0 and not r.tolerance_dependent

    def test_float_poles_with_non_integer_difference(self):
        # both arguments within the detection tolerance of a pole, but their
        # difference 1 + 1.8e-12 is not within it of an integer
        with pytest.raises(IndeterminateError):
            gamma_ratio(-2 + 0.9e-12, -3 - 0.9e-12)

    def test_generic_exact(self):
        r = gamma_ratio(Fraction(3, 2), 2)
        assert r.finite.sqrtpi_power == 1
        assert r.finite.coefficient == Fraction(1, 2)

    def test_float_ratio(self):
        a = Scalar.from_float(3.7, 113)
        b = Scalar.from_float(1.2, 113)
        r = gamma_ratio(a, b).finite.to_mpc(113)
        with mp.workprec(113):
            ref = mpmath.gamma(mp.mpf("3.7")) / mpmath.gamma(mp.mpf("1.2"))
            assert rel_err(r, ref) < 1e-13

    def test_float_near_integer_difference_flagged(self):
        # difference hits an integer only via the detection tolerance
        r = gamma_ratio(Scalar.from_float(2.5 + 1e-13, 113), Scalar.from_float(0.5, 113))
        assert r.tolerance_dependent
        assert rel_err(r.finite.to_mpc(113), mpmath.mpf("0.75")) < 1e-10

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_reduction_agrees_with_float_gammas(self, y, n):
        # exact Pochhammer reduction == literal Gamma(x)/Gamma(y) in float
        x = y + n
        assert gamma_ratio(y, y) == SphereValue.of(1)
        r = gamma_ratio(x, y)
        with mp.workprec(113):
            fy = mp.mpf(y.numerator) / y.denominator
            try:
                gx, gy = mpmath.gamma(fy + n), mpmath.gamma(fy)
            except ValueError:
                return  # literal route hits a pole; reduction is the whole point
            if mpmath.isinf(gx) or mpmath.isnan(gx) or mpmath.isinf(gy) or mpmath.isnan(gy):
                return
            ref = gx / gy
            if r.is_infinity:
                assert mpmath.isinf(ref) or abs(ref) > 1e200
            elif abs(ref) > 1e-200:
                assert rel_err(r.finite.to_mpc(113), ref) < 1e-10
