"""Tests for the central sum S, its closed form, and the proof identities."""

import functools
import itertools
import math
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hypersum.numeric_core import (
    ConvergenceError,
    DivergentSeriesError,
    EvalContext,
    exact_first,
    gamma_ratio,
    IdentityAssertionError,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    UnsupportedExactError,
    pochhammer,
)
from hypersum import ramanujan_sum
from hypersum.hyper_series import _MPMATH, SeriesKind, _arithmetic, classify, eval_at_1
from hypersum.ramanujan_sum import (
    PolynomialInZ,
    RamanujanParams,
    eq6_prefactor,
    finite_difference_check,
    inner_sum_E,
    recast_params,
    s_closed_form,
    s_direct,
    s_integer_form,
    s_polynomial,
)
from hypersum.verifier import brute_force_oracle

# z values the theorem is exercised at; 1+1j goes through float mode
THEOREM_Z = (0, 1, 2, 3, F(7, 2), F(-1, 2))


def rational(rng, span=40, den=20):
    return F(rng.randint(-span, span), rng.randint(1, den))


class TestParams:
    def test_termination_detected(self):
        assert RamanujanParams(-3, F(1, 2), 1, 0).terminating_k == 3
        assert RamanujanParams(0, F(1, 2), 1, 0).terminating_k == 0
        assert RamanujanParams(2, F(1, 2), 1, 0).terminating_k is None
        assert RamanujanParams(F(-5, 2), F(1, 2), 1, 0).terminating_k is None

    def test_float_alpha_snaps(self):
        p = RamanujanParams(-2.0, 0.5, 1.0, 0.0)
        assert p.terminating_k == 2
        assert not p.all_exact()

    def test_fields_coerced(self):
        p = RamanujanParams(-1, F(3, 4), 0, F(1, 2))
        assert all(isinstance(x, Scalar) for x in (p.alpha, p.beta, p.m, p.z))
        assert p.all_exact()


class TestClosedForm:
    def test_terminating_reduces_to_pochhammer(self):
        # alpha = -3, beta = 7/2, m = 5/4: (beta+1-m-3)_3 = (1/4)_3 = 45/64
        v = s_closed_form(RamanujanParams(-3, F(7, 2), F(5, 4), 0))
        assert v == SphereValue.of(Scalar.exact(F(45, 64)))

    def test_denominator_pole_gives_zero(self):
        # Gamma(alpha+beta+1-m) poles while Gamma(beta+1-m) stays finite
        v = s_closed_form(RamanujanParams(F(1, 2), 0, F(3, 2), 0))
        assert v.finite == Scalar.exact(0)

    def test_numerator_pole_gives_infinity(self):
        v = s_closed_form(RamanujanParams(F(1, 2), 0, 1, 0))
        assert v.is_infinity

    def test_float_fallback(self):
        v = s_closed_form(RamanujanParams(0.3, 1.0, 0.25, 0))
        assert v.finite.is_float
        ref = s_closed_form(RamanujanParams(F(3, 10), 1, F(1, 4), 0))
        diff = abs(v.finite.to_mpc(64) - ref.finite.to_mpc(64))
        assert diff < 1e-12 * abs(ref.finite.to_mpc(64))


class TestDirectTerminating:
    def test_theorem_spot_case(self):
        cf = SphereValue.of(Scalar.exact(F(45, 64)))
        for z in THEOREM_Z:
            res = s_direct(RamanujanParams(-3, F(7, 2), F(5, 4), z))
            assert res.value == cf
            assert res.terms_used == 4
            assert res.tail_bound == 0 and isinstance(res.tail_bound, int)
            assert res.classification.kind is SeriesKind.TERMINATING
            assert res.classification.k == 3

    def test_theorem_complex_z(self):
        res = s_direct(RamanujanParams(-3, F(7, 2), F(5, 4), 1 + 1j))
        v = res.value.finite
        assert v.is_float
        assert abs(v.to_mpc(64) - F(45, 64)) < 1e-10

    def test_theorem_random_sweep(self):
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randrange(7)
            beta, m = rational(rng), rational(rng)
            cf = s_closed_form(RamanujanParams(-k, beta, m, 0))
            z = rng.choice(THEOREM_Z)
            assert s_direct(RamanujanParams(-k, beta, m, z)).value == cf

    def test_m_zero_degenerates_cleanly(self):
        # only the j = 0 term survives: S = (beta+1-k)_k
        res = s_direct(RamanujanParams(-4, F(2, 3), 0, 2))
        assert res.value.finite == pochhammer(Scalar.exact(F(2, 3)) + 1 - 4, 4)
        assert res.value == s_closed_form(RamanujanParams(-4, F(2, 3), 0, 2))

    def test_float_inputs(self):
        res = s_direct(RamanujanParams(-3, 3.5, 1.25, 0.5))
        assert res.value.finite.is_float
        assert abs(res.value.finite.to_mpc(64) - F(45, 64)) < 1e-12
        assert res.tail_bound == 0.0 and isinstance(res.tail_bound, float)

    @pytest.mark.parametrize("k,beta,m,prec", [
        *((k, 0.5, 0.3333333333333333, prec)
          for k in (8, 20, 40) for prec in (53, 256)),
        (20, -0.75, 0.3333333333333333, 53),
        (40, -0.75, 0.3333333333333333, 256),
        (20, -0.75, 0.0, 53),
        (40, 0.5, 0.0, 256),
    ])
    def test_float_precision_honesty(self, k, beta, m, prec):
        # the alternating terms cancel catastrophically (at k = 20 the
        # largest term is ~2e21 times the sum), yet a P-bit result must be
        # right to P bits: the float inputs are dyadic rationals, summed
        # exactly and rounded once
        z = 3.5
        res = s_direct(RamanujanParams(-k, beta, m, z), EvalContext(precision=prec))
        v = res.value.finite
        assert v.is_float and v.prec == prec
        assert res.tail_bound == 0.0 and isinstance(res.tail_bound, float)
        if m == 0.0:   # the oracle's series shape has a pole at m = 0
            ref = s_closed_form(RamanujanParams(-k, F(beta), F(m), F(z))).finite.fraction
        else:
            ref = brute_force_oracle(k, F(beta), F(m), F(z)).fraction
        with mpmath.workprec(4 * prec):
            exact = mpmath.mpf(ref.numerator) / ref.denominator
            rel = abs(v.to_mpc(prec) - exact) / abs(exact)
            assert rel <= mpmath.mpf(2) ** -(prec - 2)

    @given(
        st.integers(min_value=0, max_value=5),
        st.fractions(min_value=-8, max_value=8, max_denominator=10),
        st.fractions(min_value=-8, max_value=8, max_denominator=10),
        st.sampled_from(THEOREM_Z),
    )
    @settings(max_examples=40, deadline=None)
    def test_theorem_property(self, k, beta, m, z):
        cf = s_closed_form(RamanujanParams(-k, beta, m, 0))
        assert s_direct(RamanujanParams(-k, beta, m, z)).value == cf


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poch_fraction(base: F, j: int) -> F:
    acc = F(1)
    for i in range(j):
        acc *= base + i
    return acc


def s_polynomial_reference(k: int, b: F, m: F) -> list:
    """The z-expansion of the reduced theorem sum, one Fraction product at a
    time: the reference for s_polynomial's integer arithmetic."""
    coeffs = [F(0)] * max(k, 1)
    coeffs[0] = _poch_fraction(b + 1 - k, k)
    for j in range(1, k + 1):
        scale = m * _poch_fraction(F(-k), j) / math.factorial(j)
        poly = [F(1)]
        for i in range(k - j):
            poly = _poly_mul(poly, [b + 1 - k + j + i, F(j)])
        for i in range(j - 1):
            poly = _poly_mul(poly, [m + 1 + i, F(j)])
        for power, c in enumerate(poly):
            coeffs[power] += scale * c
    return coeffs


# (beta, m): negative beta, m = 0, negative m, integers, denominators up to 9
POLYNOMIAL_CASES = (
    (F(1, 2), F(1, 3)), (F(-7, 3), F(5, 9)), (F(9, 4), F(0)),
    (F(3, 8), F(-5, 2)), (F(-11, 9), F(-8, 7)), (F(4), F(6, 5)),
    (F(-2), F(1)), (F(5, 6), F(-3)),
)


class TestPolynomial:
    @pytest.mark.parametrize("k", list(range(25)) + [40])
    def test_matches_fraction_expansion(self, k):
        for beta, m in POLYNOMIAL_CASES:
            got = [c.fraction for c in s_polynomial(k, beta, m).coefficients]
            assert got == s_polynomial_reference(k, beta, m), (beta, m)

    def test_k60_z_coefficients_vanish(self):
        beta, m = F(-13, 9), F(7, 8)
        poly = s_polynomial(60, beta, m)
        assert len(poly.coefficients) == 60
        assert all(c.is_zero() for c in poly.z_coefficients())
        assert poly.constant_term == pochhammer(Scalar.exact(beta) + 1 - m - 60, 60)

    def test_k1_constant_is_beta_minus_m(self):
        poly = s_polynomial(1, F(1, 3), F(5, 7))
        assert poly.degree == 0
        assert poly.constant_term == Scalar.exact(F(1, 3) - F(5, 7))

    def test_spot_case_coefficients(self):
        poly = s_polynomial(3, F(7, 2), F(5, 4))
        assert all(c.is_zero() for c in poly.z_coefficients())
        assert poly.constant_term == Scalar.exact(F(45, 64))

    def test_k0_is_one(self):
        poly = s_polynomial(0, F(7, 2), F(5, 4))
        assert poly.coefficients == (Scalar.exact(1),)

    def test_m_zero(self):
        poly = s_polynomial(5, F(9, 4), 0)
        assert all(c.is_zero() for c in poly.z_coefficients())
        assert poly.constant_term == pochhammer(Scalar.exact(F(9, 4)) + 1 - 5, 5)

    def test_evaluate_matches_direct_sum(self):
        poly = s_polynomial(4, F(-3, 5), F(2, 9))
        for z in (0, 2, F(-1, 2)):
            res = s_direct(RamanujanParams(-4, F(-3, 5), F(2, 9), z))
            assert poly.evaluate(z) == res.value.finite

    def test_rejects_float_inputs(self):
        with pytest.raises(UnsupportedExactError):
            s_polynomial(2, 0.5, 1.0)
        with pytest.raises(ValueError):
            s_polynomial(-1, F(1, 2), 1)

    @given(
        st.integers(min_value=1, max_value=6),
        st.fractions(min_value=-10, max_value=10, max_denominator=14),
        st.fractions(min_value=-10, max_value=10, max_denominator=14),
    )
    @settings(max_examples=60, deadline=None)
    def test_constancy_property(self, k, beta, m):
        poly = s_polynomial(k, beta, m)
        assert all(c.is_zero() for c in poly.z_coefficients())
        expect = pochhammer(Scalar.exact(beta) + 1 - m - k, k)
        assert poly.constant_term == expect


# The Scalar loops that s_direct, s_integer_form, inner_sum_E and
# finite_difference_check ran before they summed in integers, one Pochhammer
# (or one factor) at a time: the references for pochhammer_sum's arithmetic.

def direct_reference(k: int, beta, m, z) -> Scalar:
    acc = pochhammer(beta + 1 - k, k)
    for j in range(1, k + 1):
        t = m * pochhammer(beta + 1 - k + j * (z + 1), k - j)
        t = t * pochhammer(m + j * z + 1, j - 1)
        t = t * pochhammer(Scalar.exact(-k), j)
        acc = acc + t / math.factorial(j)
    return acc


def stride_reference(n: int, k: int, alpha, beta, m) -> SphereValue:
    acc = Scalar.exact(0)
    for j in range(k + 1):
        num = pochhammer(beta + 1, n * j) * pochhammer(m, (n + 1) * j) * pochhammer(alpha, j)
        den = (pochhammer(alpha + beta + 1, (n + 1) * j) * pochhammer(m + 1, n * j)
               * math.factorial(j))
        if den.is_zero():
            raise PoleError(f"stride term {j} has a zero denominator", term_index=j)
        acc = acc + num / den
    return gamma_ratio(beta + 1, alpha + beta + 1) * SphereValue.of(acc)


def inner_sum_reference(n: int, r: int, m) -> Scalar:
    ratio = Scalar.exact(1)
    acc = Scalar.exact(0)
    for j in range(r + 1):
        acc = acc + (-1) ** j * math.comb(r, j) * ratio
        if j < r:
            for i in range(n * j, n * (j + 1)):
                den = m + 1 + i
                if den.is_zero():
                    raise PoleError(f"(m+1)_nj vanishes before j = {j + 1}",
                                    term_index=j + 1)
                ratio = ratio * (m + r + i) / den
    return acc


def finite_difference_reference(n: int, r: int, m) -> Scalar:
    acc = Scalar.exact(0)
    for j in range(r + 1):
        p = m + (r - 1 + n * j)
        acc = acc + (-1) ** j * math.comb(r, j) * pochhammer(p - (r - 2), r - 1)
    return acc


def through_exact_first(reference, args, ctx):
    """The reference run as the library runs its sums: exactly, float inputs
    as their dyadic rationals, rounded once when an input was a float."""
    def fn(*xs):
        v = reference(*xs)
        return v if isinstance(v, SphereValue) else SphereValue.of(v)
    return exact_first(fn, args, ctx)


def outcome(call):
    """("value", v) or ("pole", term_index): what a call returned or raised."""
    try:
        return "value", call()
    except PoleError as exc:
        return "pole", exc.term_index


def assert_same(got, want, args):
    """Equal outcomes; an exact value is an equal Fraction, a float one is
    equal after the one rounding."""
    assert got == want
    if got[0] == "value":
        v = got[1].finite if isinstance(got[1], SphereValue) else got[1]
        if all(isinstance(x, (int, F)) for x in args):
            assert isinstance(v.fraction, F)
        else:
            assert v.is_float


ORACLE_CTX = EvalContext(precision=64)
# negative numerators, integers (poles and zeros), denominators up to 50,
# and dyadic floats, which exact_first sums as the rationals they are
ORACLE_PARAM = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-15, max_value=15, max_denominator=50),
    st.floats(min_value=-15, max_value=15, allow_nan=False),
)


class TestIntegerSumsMatchScalarOracles:
    @given(st.integers(min_value=0, max_value=12), ORACLE_PARAM,
           st.one_of(st.just(0), ORACLE_PARAM), st.one_of(st.just(-1), ORACLE_PARAM))
    @settings(max_examples=150, deadline=None)
    def test_s_direct(self, k, beta, m, z):
        got = outcome(lambda: s_direct(RamanujanParams(-k, beta, m, z), ORACLE_CTX).value)
        want = outcome(lambda: through_exact_first(
            lambda b, mm, zz: direct_reference(k, b, mm, zz), (beta, m, z), ORACLE_CTX))
        assert_same(got, want, (beta, m, z))

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10),
           ORACLE_PARAM, st.one_of(st.just(0), ORACLE_PARAM))
    @settings(max_examples=150, deadline=None)
    def test_s_integer_form(self, n, k, beta, m):
        got = outcome(lambda: s_integer_form(RamanujanParams(-k, beta, m, n), ORACLE_CTX).value)
        want = outcome(lambda: through_exact_first(
            lambda a, b, mm: stride_reference(n, k, a, b, mm), (-k, beta, m), ORACLE_CTX))
        assert_same(got, want, (beta, m))

    @given(ORACLE_PARAM, st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_inner_sum_E(self, m, n, r):
        got = outcome(lambda: inner_sum_E(m, n, r, ORACLE_CTX))
        want = outcome(lambda: through_exact_first(
            lambda mm: inner_sum_reference(n, r, mm), (m,), ORACLE_CTX).finite)
        assert_same(got, want, (m,))

    @given(ORACLE_PARAM, st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_finite_difference_check(self, m, n, r):
        got = finite_difference_check(m, n, r, ORACLE_CTX)
        want = through_exact_first(
            lambda mm: finite_difference_reference(n, r, mm), (m,), ORACLE_CTX).finite
        assert_same(("value", got), ("value", want), (m,))

    @pytest.mark.parametrize("k,beta,m,z", [(0, F(7, 3), F(-5, 2), -1), (5, F(-9, 4), 0, -1),
                                            (30, F(-41, 47), F(13, 50), F(-37, 49))])
    def test_s_direct_spot_grid(self, k, beta, m, z):
        got = s_direct(RamanujanParams(-k, beta, m, z)).value.finite.fraction
        assert got == direct_reference(k, *map(Scalar.exact, (beta, m, z))).fraction


class TestPoleAndFallbackParity:
    @pytest.mark.parametrize("n,k,beta,m,index", [
        (1, 3, 0, F(1, 2), 2),        # (alpha+beta+1)_{2j} = (-2)_{2j}
        (2, 4, F(1, 3), -3, 2),       # (m+1)_{2j} = (-2)_{2j}
        (0, 5, 2, F(2, 7), 3),        # (alpha+beta+1)_j = (-2)_j
    ])
    def test_stride_form_pole(self, n, k, beta, m, index):
        with pytest.raises(PoleError) as exc:
            s_integer_form(RamanujanParams(-k, beta, m, n))
        assert exc.value.term_index == index
        with pytest.raises(PoleError) as ref:
            stride_reference(n, k, *map(Scalar.exact, (-k, beta, m)))
        assert ref.value.term_index == index

    @pytest.mark.parametrize("m,n,r,index", [(-2, 1, 3, 2), (-7, 3, 4, 3), (-1, 2, 5, 1),
                                             (-9, 4, 2, None)])
    def test_inner_sum_pole(self, m, n, r, index):
        # m+1+i = 0 for i = -m-1: the pole enters at the first j with nj > -m-1
        got = outcome(lambda: inner_sum_E(m, n, r))
        assert got == outcome(lambda: inner_sum_reference(n, r, Scalar.exact(m)))
        assert got[0] == ("value" if index is None else "pole")
        if index is not None:
            assert got[1] == index

    @pytest.mark.parametrize("prec", [53, 256])
    @pytest.mark.parametrize("route", ["s_direct", "s_integer_form"])
    @pytest.mark.parametrize("kind", ["sqrtpi", "complex"])
    def test_float_fallback(self, prec, route, kind):
        # no exact form: the sum runs in float with guard bits, tail_bound
        # reads 0.0, and the value meets the Scalar loop's to 2^-(P-2)
        ctx = EvalContext(precision=prec)
        beta = Scalar.exact_sqrtpi(F(3, 7)) if kind == "sqrtpi" else complex(1.25, 0.5)
        for k in range(4):
            if route == "s_direct":
                z = F(7, 2) if kind == "sqrtpi" else complex(3.5, 0.25)
                res = s_direct(RamanujanParams(-k, beta, F(5, 4), z), ctx)
                ref = through_exact_first(lambda b, mm, zz: direct_reference(k, b, mm, zz),
                                          (beta, F(5, 4), z), ctx)
            else:
                res = s_integer_form(RamanujanParams(-k, beta, F(5, 4), 2), ctx)
                ref = through_exact_first(lambda a, b, mm: stride_reference(2, k, a, b, mm),
                                          (-k, beta, F(5, 4)), ctx)
            v = res.value.finite
            assert v.is_float and v.prec == prec
            assert res.tail_bound == 0.0 and isinstance(res.tail_bound, float)
            with mpmath.workprec(4 * prec):
                want = ref.finite.to_mpc(prec)
                assert abs(v.to_mpc(prec) - want) <= mpmath.mpf(2) ** -(prec - 2) * abs(want)


class TestIntegerFormAndRecast:
    def test_four_forms_agree_terminating(self):
        beta, m = F(1, 3), F(4, 7)
        for n in range(1, 5):
            p = RamanujanParams(-2, beta, m, n)
            direct = s_direct(p).value
            stride = s_integer_form(p).value
            params, pref = recast_params(-2, beta, m, n)
            engine = pref * eval_at_1(params).value
            assert direct == stride
            assert stride == engine

    def test_recast_balance_is_one(self):
        # m > 0 and alpha+beta+1 > 0 keep the denominator parameters off
        # the nonpositive integers
        rng = random.Random(11)
        for n in range(1, 7):
            m = abs(rational(rng, span=12, den=8)) + F(1, 16)
            alpha = rational(rng, span=3, den=8)
            beta = abs(rational(rng, span=12, den=8)) - alpha
            params, _ = recast_params(alpha, beta, m, n)
            balance = sum((x.fraction for x in params.denominator), F(0)) \
                - sum((x.fraction for x in params.numerator), F(0))
            assert balance == 1
            assert classify(params).saalschutzian

    def test_recast_shape(self):
        params, pref = recast_params(F(1, 2), F(1, 3), F(2, 5), 3)
        assert len(params.numerator) == 8      # n + (n+1) + 1
        assert len(params.denominator) == 7    # n + (n+1)
        assert pref.finite is not None

    def test_nonterminating_z0_matches_closed_form(self):
        p = RamanujanParams(0.5, 1.0, 0.5, 0)
        res = s_integer_form(p)
        cf = s_closed_form(p)
        num = abs(res.value.finite.to_mpc(128) - cf.finite.to_mpc(128))
        assert num < 1e-10 * abs(cf.finite.to_mpc(128))
        assert res.classification.kind is SeriesKind.CONVERGENT
        assert res.tail_bound > 0

    def test_nonterminating_z0_float_batch(self):
        rng = random.Random(23)
        for _ in range(10):
            alpha = rng.uniform(0.1, 3.0)
            beta = rng.uniform(-1.0, 3.0)
            m = beta + 0.5 - rng.uniform(0.1, 2.0)   # Re(beta+1-m) >= 0.6
            p = RamanujanParams(alpha, beta, m, 0)
            got = s_integer_form(p).value.finite.to_mpc(128)
            want = s_closed_form(p).finite.to_mpc(128)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_float_integer_z_takes_the_integer_route(self):
        p = RamanujanParams(F(1, 2), F(1, 3), F(1, 5), 2.0)
        assert p.integer_z == 2
        res = s_direct(p)
        assert not res.experimental
        exact = s_direct(RamanujanParams(F(1, 2), F(1, 3), F(1, 5), 2))
        assert (res.value, res.terms_used) == (exact.value, exact.terms_used)

    def test_half_z_is_refused_by_the_integer_form(self):
        p = RamanujanParams(F(1, 2), F(1, 3), F(1, 5), F(1, 2))
        assert p.integer_z is None
        with pytest.raises(InvalidParametersError,
                           match=r"needs z a nonnegative integer, got z = 1/2$"):
            s_integer_form(p)

    def test_rejects_bad_z(self):
        with pytest.raises(InvalidParametersError):
            s_integer_form(RamanujanParams(1, 1, 1, F(1, 2)))
        with pytest.raises(InvalidParametersError):
            s_integer_form(RamanujanParams(1, 1, 1, -1))
        with pytest.raises(InvalidParametersError):
            recast_params(F(1, 2), 1, 1, 0)


class TestInnerSum:
    def test_r_zero_is_one(self):
        for m in (F(1, 3), F(-7, 5), 2):
            assert inner_sum_E(m, 4, 0) == Scalar.exact(1)

    def test_vanishes_for_positive_r(self):
        for m in (F(1, 3), F(-7, 5), 2, F(9, 2)):
            for n in range(1, 5):
                for r in range(1, 9):
                    assert inner_sum_E(m, n, r) == Scalar.exact(0)

    def test_larger_spot(self):
        assert inner_sum_E(F(-7, 5), 3, 11) == Scalar.exact(0)

    def test_pole_in_denominator(self):
        with pytest.raises(PoleError):
            inner_sum_E(-2, 1, 3)

    def test_float_mode_small(self):
        v = inner_sum_E(0.37, 2, 4)
        assert abs(complex(v.to_mpc(64))) < 1e-10

    @pytest.mark.parametrize("fn,n,r", [(inner_sum_E, 3, 30),
                                        (finite_difference_check, 2, 12)])
    def test_float_m_sums_without_cancellation(self, fn, n, r):
        # 0.3 is summed as the dyadic rational it is, so the alternating
        # sum is exactly 0 and only then rounded to ctx.precision
        ctx = EvalContext(precision=53)
        v = fn(0.3, n, r, ctx)
        assert v.is_float and v.prec == ctx.precision
        assert v.to_mpc(ctx.precision) == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParametersError):
            inner_sum_E(F(1, 2), 0, 3)
        with pytest.raises(ValueError):
            inner_sum_E(F(1, 2), 2, -1)

    @given(
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_vanishing_property(self, m, n, r):
        assert inner_sum_E(m, n, r) == Scalar.exact(0)


class TestPochhammerLemma:
    # the stride-ratio rewrite the inner-sum proof leans on:
    # (m+r)_{nj} / (m+1)_{nj} = (m+nj+1)_{r-1} / (m+1)_{r-1}
    @given(
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_stride_ratio_rewrite(self, m, n, j, r):
        m = Scalar.exact(m)
        lhs = pochhammer(m + r, n * j) / pochhammer(m + 1, n * j)
        rhs = pochhammer(m + n * j + 1, r - 1) / pochhammer(m + 1, r - 1)
        assert lhs == rhs

    def test_negative_noninteger_m(self):
        m = Scalar.exact(F(-7, 5))
        lhs = pochhammer(m + 4, 6) / pochhammer(m + 1, 6)
        rhs = pochhammer(m + 7, 3) / pochhammer(m + 1, 3)
        assert lhs == rhs


class TestFiniteDifference:
    def test_spec_examples(self):
        assert finite_difference_check(F(1, 2), 3, 1) == Scalar.exact(0)
        assert finite_difference_check(F(3, 7), 1, 2) == Scalar.exact(0)
        assert finite_difference_check(F(1, 2), 2, 3) == Scalar.exact(0)

    def test_full_grid(self):
        for n in range(1, 6):
            for r in range(1, 11):
                assert finite_difference_check(F(1, 3), n, r) == Scalar.exact(0)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParametersError):
            finite_difference_check(F(1, 2), 0, 2)
        with pytest.raises(ValueError):
            finite_difference_check(F(1, 2), 2, 0)

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=11),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_vanishing_property(self, m, n, r):
        assert finite_difference_check(m, n, r) == Scalar.exact(0)


class TestEq6Prefactor:
    def test_spot_value(self):
        v = eq6_prefactor(-1, F(1, 4), F(1, 3))
        assert v.finite == Scalar.exact(-3)

    def test_alpha_zero_is_one(self):
        for beta, m in ((F(1, 4), F(1, 3)), (F(2, 7), F(-3, 5))):
            assert eq6_prefactor(0, beta, m).finite == Scalar.exact(1)

    def test_cross_check_passes_exact(self):
        v = eq6_prefactor(-2, F(1, 4), F(1, 3))
        assert v.finite is not None and v.finite.is_exact

    def test_float_mode(self):
        v = eq6_prefactor(-2, 0.27, 0.64)
        assert v.finite is not None and v.finite.is_float

    def test_rejects_noninteger_alpha(self):
        with pytest.raises(InvalidParametersError):
            eq6_prefactor(F(1, 2), F(1, 4), F(1, 3))


# The tail the experimental route summed before it folded the Hurwitz zeta
# values into one series in 1/N: C sum_k e_k zeta(2+k, N), one mp.zeta call
# per order k, with e_k from the expansion as it was built then.  Each zeta
# is computed (2+k) log2 N + 20 bits above the working precision: mpmath's
# Euler-Maclaurin stops on an absolute 2^-prec, and zeta(2+k, N) is tiny.

def gamma_ratio_expansion_reference(pairs):
    bern = [mpmath.bernoulli(0), mpmath.bernoulli(1)]
    powers = [([1, b], [1, c]) for _, b, c in pairs]
    d = [0]
    e = [mpmath.mpf(1)]
    yield e[0]
    for k in itertools.count(1):
        if k > 1:
            bern.append(mpmath.bernoulli(k))
        d_k = 0
        for (sigma, b, c), (pb, pc) in zip(pairs, powers):
            pb.append(pb[-1] * b)
            pc.append(pc[-1] * c)
            diff = sum(math.comb(k + 1, r) * bern[r] * (pb[k + 1 - r] - pc[k + 1 - r])
                       for r in range(k + 1) if r < 2 or r % 2 == 0)
            d_k += diff / sigma ** k
        d.append((-1) ** (k + 1) * d_k / (k * (k + 1)))
        e.append(sum(n * d[n] * e[k - n] for n in range(1, k + 1)) / k)
        yield e[k]


def zeta_tail_reference(params, ctx):
    """s_direct's value on the experimental route next to the value that
    the same number of direct terms, each from four mpmath gamma calls, and
    the per-order zeta tail give, both at the route's working precision.
    A denominator pole is rgamma's 0."""
    res = s_direct(RamanujanParams(*params), ctx)
    n_direct = res.terms_used
    prec_work = ctx.precision + 30
    with mpmath.workprec(prec_work):
        fa, fb, fm, fz = (Scalar.exact(x).to_mpc(prec_work) if not isinstance(x, complex)
                          else mpmath.mpc(x) for x in params)
        one = mpmath.mpf(1)
        pairs = ((fz, fb + 1, fm + 1), (fz + 1, fm, fa + fb + 1), (one, fa, one))
        total, weight = 0, one   # weight = (alpha)_j / j!
        for j in range(n_direct):
            total += (mpmath.gamma(fb + 1 + j * fz) * mpmath.gamma(fm + j * (fz + 1))
                      * mpmath.rgamma(fa + fb + 1 + j * (fz + 1))
                      * mpmath.rgamma(fm + j * fz + 1)) * weight
            weight = weight * (fa + j) / (j + 1)
        scale = mpmath.power(fz, fb - fm) * mpmath.power(fz + 1, fm - fa - fb - 1) \
            * mpmath.rgamma(fa)
        eps = mpmath.mpf(2) ** -prec_work
        for k, e_k in zip(range(int(0.6 * prec_work) + 1),
                          gamma_ratio_expansion_reference(pairs)):
            with mpmath.extraprec(int((2 + k) * math.log2(n_direct)) + 20):
                zeta = mpmath.zeta(2 + k, n_direct)
            last = scale * e_k * zeta
            total += last
            if last != 0 and abs(fm * last) < eps * max(abs(fm * total), ctx.abs_tol):
                break
        else:
            raise AssertionError("the zeta tail did not settle")
        return res.value.finite.to_mpc(prec_work), fm * total


@functools.lru_cache(maxsize=None)
def beta_plane_point(z, prec):
    """S(1/2, 1/3, 11/6, z) at prec bits, on the plane m = alpha+beta+1, and
    the Beta integral m/Gamma(alpha+1) int_0^1 t^beta ((1-t)/(1-t^z))^alpha dt
    by mp.quad at prec + 90 bits, split at t = 1/2."""
    alpha, beta = F(1, 2), F(1, 3)
    res = s_direct(RamanujanParams(alpha, beta, alpha + beta + 1, z),
                   EvalContext(precision=prec))
    with mpmath.workprec(prec + 90):
        a, b, zz = (mpmath.mpf(x.numerator) / x.denominator for x in (alpha, beta, z))
        integral = mpmath.quad(lambda t: t ** b * ((1 - t) / (1 - t ** zz)) ** a,
                               [0, 0.5, 1])
        ref = (a + b + 1) / mpmath.gamma(a + 1) * integral
    return res, ref


def expansion_values(params, w, fixed):
    """e_0, ..., e_60 of the experimental route for params at w bits, as
    mpf: in integers scaled by 2^w when fixed, else in mpf."""
    xs = [Scalar.exact(x) for x in params]
    with mpmath.workprec(w):
        arith = _arithmetic(xs, w)[2] if fixed else _MPMATH
        fa, fb, fm, fz = (x.to_mpc(w).real for x in xs)
        one = mpmath.mpf(1)
        pairs = ((fz, fb + 1, fm + 1), (fz + 1, fm, fa + fb + 1), (one, fa, one))
        pairs = [tuple(map(arith.lift, pair)) for pair in pairs]
        steps = itertools.islice(ramanujan_sum._gamma_ratio_expansion(pairs, arith), 61)
        return [arith.value(e[-1] * arith.one) for e, _ in steps]


# (alpha, beta, m, z) and the real part of s_direct's value at 53 and 256
# bits as (mantissa, exponent): the first six stride_pool entries of
# perfbench and two points of the Beta plane
FROZEN_EXPERIMENTAL = [
    ((F(4, 3), F(2, 3), F(7, 8), F(7, 9)), {
        53: (2985432244444267, -52),
        256: (38379237217239985161095691094657580348434502786968441362510384683643777561209, -255)}),
    ((F(-6, 7), F(1, 2), F(2, 7), F(26, 9)), {
        53: (7314380308299257, -54),
        256: (23507511975169755256024905036587363844085834489928144883987028600336122600433, -255)}),
    ((F(-1, 6), F(4, 5), F(3, 4), F(20, 7)), {
        53: (8824081811634819, -53),
        256: (113438022150158270218933225268012440897175476400835047885120897186797510862349, -256)}),
    ((F(-2, 9), F(2, 3), F(1, 5), F(14, 9)), {
        53: (8925040458705247, -53),
        256: (57367948238576686446250964154135242810845651682214147858171006316595493538239, -255)}),
    ((F(-5, 6), F(7, 5), F(2, 3), F(3, 2)), {
        53: (15556510470625, -44),
        256: (25598308875428495735703368561734360808039001175125012844703079689544444561817, -254)}),
    ((F(1, 3), F(10, 7), F(2, 5), F(4, 3)), {
        53: (3681567203424607, -52),
        256: (94656806426866851331539025766006092949075938766286045451355070284186721443603, -256)}),
    ((F(1, 2), F(1, 3), F(11, 6), F(1, 2)), {
        53: (4582959892337365, -51),
        256: (29458130425239991943328184337223812199649414480436537977745771160765884556959, -253)}),
    ((F(1, 2), F(1, 3), F(11, 6), F(7, 2)), {
        53: (5002696129544971, -52),
        256: (64312181875464127998480278139445021997603396343725568377278620244790473981219, -255)}),
]


BETA_PLANE = [(z, prec) for prec in (512, 1024) for z in (F(1, 2), F(7, 2), F(5, 3))]


class TestExperimental:
    # nonterminating alpha, non-integer z: no identity claims, just the sum
    CTX = EvalContext(precision=128, rel_tol=1e-8, abs_tol=1e-25)

    def test_frozen_regression(self):
        # independently validated against a 60000-term raw partial sum
        # plus its 1/N tail estimate
        res = s_direct(RamanujanParams(0.5, 1.0, 0.5, 0.5), self.CTX)
        assert res.experimental
        assert res.classification.kind is SeriesKind.CONVERGENT
        assert abs(res.value.finite.to_mpc(64) - 0.858235423344575) < 1e-7
        assert res.tail_bound > 0

    @pytest.mark.parametrize("params", [
        (0.5, 1.0, 0.5, 0.5),
        (F(-1, 3), F(2, 5), F(1, 4), F(3, 2)),
        (F(7, 4), F(1, 3), F(5, 6), F(11, 4)),
        (0.5 + 0.1j, 1.0, 0.5, 0.5),
        # alpha+beta+1+j(z+1) is 0 at j = 1: a denominator pole that the
        # route skips and the reference sees as rgamma(0) = 0
        (0.25, -2.75, 0.3, 0.5),
        # the same pole with rational parameters: z = 1/2 strides by q = 2,
        # and term 3 must not come from the skipped term 1
        (F(1, 4), F(-11, 4), F(3, 10), F(1, 2)),
        # z = 301/3: a stride step of 1210 factors, so every term from gammas
        (F(1, 2), F(1, 3), F(11, 6), F(301, 3)),
    ])
    def test_matches_nsum_reference(self, params):
        # the route at 53 bits and the default rel_tol against mpmath's nsum
        # of the defining gamma-ratio series at doubled precision
        ctx = EvalContext(precision=53)
        res = s_direct(RamanujanParams(*params), ctx)
        assert res.experimental
        ref_ctx = mpmath.MPContext()
        ref_ctx.prec = 2 * ctx.precision
        alpha, beta, m, z = (ref_ctx.mpc(x) if isinstance(x, complex)
                             else ref_ctx.mpf(F(x).numerator) / F(x).denominator
                             for x in params)

        def term(j):
            return (ref_ctx.gamma(beta + 1 + j * z)
                    * ref_ctx.gamma(m + j * (z + 1))
                    * ref_ctx.rgamma(alpha + beta + 1 + j * (z + 1))
                    * ref_ctx.rgamma(m + j * z + 1)
                    * ref_ctx.rf(alpha, j) / ref_ctx.factorial(j))

        ref = m * ref_ctx.nsum(term, [0, ref_ctx.inf], method="richardson")
        value = ref_ctx.mpc(res.value.finite.to_mpc(ctx.precision))
        assert abs(value - ref) <= ctx.rel_tol * abs(ref)

    @pytest.mark.parametrize("params", [
        (0.5, 1, 0.5, 0.5),
        (F(-1, 3), F(2, 5), F(1, 4), F(3, 2)),
        (0.5, 1, 0.5, 0.5 + 0.5j),
    ])
    def test_precision_honesty(self, params):
        # a 128-bit result is right to about 128 bits and says so: it agrees
        # with the 256-bit one, and its tail estimate is below 2^-120 (the
        # agreement alone would miss a truncation shared by both precisions)
        lo = s_direct(RamanujanParams(*params), EvalContext(precision=128))
        hi = s_direct(RamanujanParams(*params), EvalContext(precision=256))
        lo_v, hi_v = lo.value.finite.to_mpc(256), hi.value.finite.to_mpc(256)
        assert abs(lo_v - hi_v) <= mpmath.mpf(2) ** -120 * abs(hi_v)
        assert 0 < hi.tail_bound < lo.tail_bound < 2.0 ** -120

    @pytest.mark.parametrize("z, prec", BETA_PLANE)
    def test_beta_plane_reaches_precision(self, z, prec):
        # on m = alpha+beta+1, S is a Beta-type integral; the per-order
        # Hurwitz-zeta tail stopped at 413.6 and 721.8 bits here at z = 1/2
        res, ref = beta_plane_point(z, prec)
        with mpmath.workprec(prec + 90):
            err = abs(res.value.finite.to_mpc(prec) - ref)
            assert err <= mpmath.mpf(2) ** -(prec - 4) * abs(ref)

    @pytest.mark.parametrize("z, prec", BETA_PLANE)
    def test_beta_plane_tail_bound_covers_error(self, z, prec):
        # the rounding to P bits is counted: the last tail term alone read
        # about 3e-164 at P = 512, against an error near 2^-512
        res, ref = beta_plane_point(z, prec)
        with mpmath.workprec(prec + 90):
            assert res.tail_bound >= abs(res.value.finite.to_mpc(prec) - ref)

    @pytest.mark.parametrize("prec", [53, 256])
    @pytest.mark.parametrize("params", [
        (F(4, 3), F(2, 3), F(7, 8), F(7, 9)),
        (F(-6, 7), F(1, 2), F(2, 7), F(26, 9)),
        (F(-1, 6), F(4, 5), F(3, 4), F(20, 7)),
        (F(-2, 9), F(2, 3), F(1, 5), F(14, 9)),
        (F(-5, 6), F(7, 5), F(2, 3), F(3, 2)),
        (F(1, 3), F(10, 7), F(2, 5), F(4, 3)),
        (F(8, 9), F(1, 2), F(1, 2), F(1, 4)),
        (F(-1, 2), F(1, 2), F(1, 7), F(5, 9)),
        (0.5 + 0.1j, 1.0, 0.5, 0.5),
        (0.5, 1.0, 0.5, 0.5 + 0.5j),
        (0.5, 1.0, 0.5, F(1, 50)),
    ])
    def test_matches_zeta_tail(self, params, prec):
        # the one series in 1/N against the per-order Hurwitz-zeta tail it
        # replaced, on direct terms of the reference's own
        got, want = zeta_tail_reference(params, EvalContext(precision=prec))
        assert abs(got - want) <= mpmath.mpf(2) ** -(prec - 2) * abs(want)

    def test_small_z(self):
        # the direct part must reach N >> 1/z before the tail takes over
        res = s_direct(RamanujanParams(0.5, 1.0, 0.5, F(1, 50)),
                       EvalContext(precision=53))
        assert res.terms_used > 50 * 16
        assert abs(res.value.finite.to_mpc(53) - 0.885839461235422) < 1e-12

    @pytest.mark.parametrize("z, error, index", [
        (F(-1, 2), PoleError, 4),
        (F(-1, 3), PoleError, 6),
        (F(-7, 3), PoleError, 3),
        (-0.0137, DivergentSeriesError, None),
    ])
    def test_nonpositive_real_z_refused(self, z, error, index):
        # the asymptotic tail does not hold for Re z <= 0: the direct terms
        # name a pole, or the route refuses, and no value comes back
        with pytest.raises(error) as exc:
            s_direct(RamanujanParams(0.5, 1.0, 0.5, z), EvalContext(precision=53))
        assert getattr(exc.value, "term_index", None) == index

    def test_numerator_pole_contaminates(self):
        # beta+1+jz = -2.5+0.5j first lands on a nonpositive integer (-2)
        # at j = 1
        with pytest.raises(PoleError) as exc:
            s_direct(RamanujanParams(0.7, -3.5, 0.3, 0.5), self.CTX)
        assert exc.value.term_index == 1

    def test_denominator_pole_skips_term(self):
        # alpha+beta+1+j(z+1) = -1.5+1.5j dies at j = 1; the term is
        # dropped and the rest of the series still certifies
        res = s_direct(RamanujanParams(0.25, -2.75, 0.3, 0.5), self.CTX)
        assert res.experimental
        assert res.value.finite is not None

    @pytest.mark.parametrize("prec", [53, 256])
    @pytest.mark.parametrize("index", range(len(FROZEN_EXPERIMENTAL)))
    def test_frozen_bits(self, index, prec):
        # the real part as (mantissa, exponent), frozen from the route when
        # every direct term took four gamma calls and e_k ran in mpf
        params, bits = FROZEN_EXPERIMENTAL[index]
        val = s_direct(RamanujanParams(*params), EvalContext(precision=prec)).value.finite
        with mpmath.workprec(prec):
            v = val.to_mpc(prec)
            assert v.imag == 0
            assert v.real == mpmath.mpf(bits[prec])

    @pytest.mark.parametrize("z, calls", [(F(7, 2), 2), (F(5, 3), 3), (F(301, 3), None)])
    def test_gamma_calls(self, z, calls, monkeypatch):
        # with every gamma argument positive from j = 0, only the first q
        # terms of z = p/q take gammas; z = 301/3 (4p + 2q = 1210 factors
        # per stride step) takes them for every term
        seen = []
        term = ramanujan_sum._gamma_term_float
        monkeypatch.setattr(ramanujan_sum, "_gamma_term_float",
                            lambda *args: seen.append(args[-1]) or term(*args))
        res = s_direct(RamanujanParams(F(1, 2), F(1, 3), F(11, 6), z),
                       EvalContext(precision=53))
        assert seen == list(range(calls or res.terms_used))

    @pytest.mark.parametrize("prec", [53, 256])
    @pytest.mark.parametrize("params", [
        (F(1, 2), F(1, 3), F(11, 6), F(1, 2)),
        (F(1), F(1, 3), F(1, 2), F(7, 2)),
    ])
    def test_fixed_point_expansion(self, params, prec):
        # e_0..e_60 in integers scaled by 2^W and in mpf at W bits, each
        # against mpf at 2W bits.  Fixed point keeps an absolute 2^-W, so a
        # small e_k loses relative bits (here e_47 at alpha = 1, z = 7/2, of
        # size 5e-7, keeps about 3 at P = 53), and mpf at W loses up to 25
        # bits to cancellation (e_34 on the Beta plane).  The tail reads
        # e_k N^-(k+1), so both are held to 2^-(W-8) on that scale.
        w = prec + 30
        n_direct = s_direct(RamanujanParams(*params), EvalContext(precision=prec)).terms_used
        fixed = expansion_values(params, w, True)
        plain = expansion_values(params, w, False)
        ref = expansion_values(params, 2 * w, False)
        with mpmath.workprec(2 * w):
            for k in range(61):
                tol = mpmath.ldexp(max(abs(ref[k]), mpmath.mpf(n_direct) ** k), 8 - w)
                assert abs(fixed[k] - ref[k]) <= tol
                assert abs(plain[k] - ref[k]) <= tol

    def test_budget_exhaustion(self, monkeypatch):
        # N direct terms above max_terms are refused before any is summed
        # (N is 43 and 18434 here)
        calls = []
        term = ramanujan_sum._gamma_term_float
        monkeypatch.setattr(ramanujan_sum, "_gamma_term_float",
                            lambda *args: calls.append(args) or term(*args))
        for params, ctx in (
                ((0.5, 1.0, 0.5, 0.5), EvalContext(precision=64, max_terms=32)),
                ((F(1, 2), F(1, 3), F(1, 5), F(1, 1000)),
                 EvalContext(precision=53, max_terms=15000))):
            with pytest.raises(ConvergenceError) as exc:
                s_direct(RamanujanParams(*params), ctx)
            assert exc.value.partial is not None
        assert len(calls) == 0


@functools.lru_cache(maxsize=None)
def nsum_reference(params, prec=400):
    """m times mpmath's nsum of the defining gamma-ratio series at prec bits."""
    ctx = mpmath.MPContext()
    ctx.prec = prec
    alpha, beta, m, z = (ctx.mpf(x.numerator) / x.denominator for x in params)

    def term(j):
        return (ctx.gamma(beta + 1 + j * z) * ctx.gamma(m + j * (z + 1))
                * ctx.rgamma(alpha + beta + 1 + j * (z + 1))
                * ctx.rgamma(m + j * z + 1)
                * ctx.rf(alpha, j) / ctx.factorial(j))

    return m * ctx.nsum(term, [0, ctx.inf], method="richardson")


# (alpha, beta, m, z) and {P: correct bits} of the experimental route before
# its direct terms ran in integers, rounded down to 0.1 bit.  S(81/2, 1, 1/2,
# 1/2) is about 5.27e-51, below abs_tol, so the stop comes early: its seeds
# decay like j^-41.5 while (alpha)_j / j! grows, and a fixed-point sum of
# seed times weight, scaled at the first seed, kept only 16.0 / 23.7 / 132.2
# bits of it.
SMALL_OR_WIDE = [
    ((F(81, 2), F(1), F(1, 2), F(1, 2)), {53: 21.9, 128: 95.7, 256: 222.6}),
    ((F(25, 2), F(200, 3), F(1, 5), F(3, 2)), {53: 53.7, 128: 129.8, 256: 257.6}),
]

# (alpha, beta, m, z) and the real and imaginary parts of s_direct's value
# at 53 and 256 bits as (mantissa, exponent), frozen from the route before
# its direct terms ran in the route's arithmetic: a complex parameter (the
# whole route in mpc) and a denominator pole at j = 1 (term 1 skipped, the
# stride seeded around it)
FROZEN_COMPLEX_AND_POLE = [
    ((0.5 + 0.1j, 1.0, 0.5, 0.5), {
        53: ((3873370450303301, -52), (-1538096528528539, -55)),
        256: ((49794130688807604842877727625772284088687669840249731431683272080010751506877, -255),
              (-39546013238963080799962428087068930502180631390434964819276278025608249022167, -259))}),
    ((F(1, 4), F(-11, 4), F(3, 10), F(1, 2)), {
        53: ((8138832205239569, -53), (0, 0)),
        256: ((26157198212879514482200270976668757855256883528528371440312976917270167776861, -254),
              (0, 0))}),
]


class TestExperimentalIntegerLoops:
    @pytest.mark.parametrize("prec", [53, 128, 256])
    @pytest.mark.parametrize("index", range(len(SMALL_OR_WIDE)))
    def test_keeps_correct_bits(self, index, prec):
        params, bits = SMALL_OR_WIDE[index]
        res = s_direct(RamanujanParams(*params), EvalContext(precision=prec))
        ref = nsum_reference(params)
        with mpmath.workprec(400):
            err = abs(res.value.finite.to_mpc(prec) - ref)
            assert err == 0 or -mpmath.log(err / abs(ref), 2) >= bits[prec]

    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_tail_bound_covers_error_below_abs_tol(self, prec):
        # |S| is below abs_tol, so the tail stops on the abs_tol floor and
        # the remainder past its last term is the error: 1.33e-57 at P = 53
        # and 7.90e-80 at P = 128, against one-term estimates of 9.29e-58
        # and 2.80e-80
        params = SMALL_OR_WIDE[0][0]
        res = s_direct(RamanujanParams(*params), EvalContext(precision=prec))
        ref = nsum_reference(params)
        with mpmath.workprec(400):
            assert res.tail_bound >= abs(res.value.finite.to_mpc(prec) - ref)

    @pytest.mark.parametrize("prec", [53, 256])
    @pytest.mark.parametrize("index", range(len(FROZEN_COMPLEX_AND_POLE)))
    def test_frozen_complex_and_pole(self, index, prec):
        params, parts = FROZEN_COMPLEX_AND_POLE[index]
        val = s_direct(RamanujanParams(*params), EvalContext(precision=prec)).value.finite
        with mpmath.workprec(prec):
            want = mpmath.mpc(*(mpmath.mpf(x) for x in parts[prec]))
            got = val.to_mpc(prec)
            assert abs(got - want) <= mpmath.ldexp(abs(want), 2 - prec)

    @pytest.mark.parametrize("z, calls", [(F(1, 126), 126), (F(1, 127), None)])
    def test_stride_counts_the_weight_factors(self, z, calls, monkeypatch):
        # a step at z = 1/q multiplies 4 + 4q factors, 2q of them from
        # (alpha)_j / j!: 508 at q = 126, below _STRIDE_FACTORS = 512, so
        # only the first q terms take gammas; 512 at q = 127, so every term
        # does (4 + 2q = 258 would still have stepped)
        seen = []
        term = ramanujan_sum._gamma_term_float
        monkeypatch.setattr(ramanujan_sum, "_gamma_term_float",
                            lambda *args: seen.append(args[-1]) or term(*args))
        res = s_direct(RamanujanParams(F(1, 2), F(1, 3), F(11, 6), z),
                       EvalContext(precision=53))
        assert seen == list(range(calls or res.terms_used))
