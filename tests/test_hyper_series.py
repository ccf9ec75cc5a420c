import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from hypersum.hyper_series import (
    EvalResult,
    HypParams,
    SeriesKind,
    classify,
    eval_at_1,
    pfq,
    term,
)
from hypersum.numeric_core import (
    ConvergenceError,
    DivergentSeriesError,
    EvalContext,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    exact_first,
    pochhammer,
    pochhammer_sum,
)

F = Fraction


def exact_value(result: EvalResult) -> Fraction:
    return result.value.finite.fraction


class TestHypParams:
    def test_accepts_mixed_input_kinds(self):
        p = HypParams((1, "2/3", F(1, 2)), (2.5,))
        assert p.p == 3 and p.q == 1
        assert p.numerator[1].fraction == F(2, 3)
        assert p.denominator[0].is_float

    def test_rejects_untruncated_denominator_pole(self):
        with pytest.raises(InvalidParametersError):
            HypParams((F(1, 2),), (-2,))
        with pytest.raises(InvalidParametersError):
            HypParams((-3,), (-2,))  # truncation arrives after the zero factor

    def test_denominator_pole_behind_truncation_is_fine(self):
        HypParams((-2,), (-2,))  # k = d: last used factor is (-2+1)
        HypParams((-1, F(1, 3)), (-4,))

    def test_float_precisions_unified(self):
        p = HypParams((Scalar.from_float(1.5, 113),), (Scalar.from_float(2.5, 256),))
        assert p.numerator[0].prec == 256


class TestClassify:
    def test_zero_numerator_terminates_at_zero(self):
        cls = classify(HypParams((F(1, 2), 0), (F(3, 2),)))
        assert cls.kind is SeriesKind.TERMINATING and cls.k == 0

    def test_smallest_truncation_wins(self):
        cls = classify(HypParams((-5, -2), (F(1, 3),)))
        assert cls.k == 2

    def test_termination_beats_divergence(self):
        # balance is negative but the series is a finite sum anyway
        cls = classify(HypParams((-3, 10), (F(1, 2),)))
        assert cls.kind is SeriesKind.TERMINATING

    def test_balanced_convergence_criterion(self):
        assert classify(HypParams((1, 1), (3,))).kind is SeriesKind.CONVERGENT
        assert classify(HypParams((1, 1), (2,))).kind is SeriesKind.DIVERGENT
        # boundary case sits on the divergent side
        assert classify(HypParams((F(1, 2), F(1, 2)), (1,))).kind is SeriesKind.DIVERGENT

    def test_low_order_always_converges(self):
        assert classify(HypParams((), ())).kind is SeriesKind.CONVERGENT
        assert classify(HypParams((F(7, 2),), (F(1, 5), 9))).kind is SeriesKind.CONVERGENT

    def test_excess_numerators_diverge(self):
        assert classify(HypParams((F(1, 2), 1, 1), (2,))).kind is SeriesKind.DIVERGENT

    def test_float_balance_sign_near_zero(self):
        # float 2F1s whose balance is +-2^-40: the sign alone decides
        eps = 2.0 ** -40
        up = classify(HypParams((0.5, 0.5), (1.0 + eps,)))
        down = classify(HypParams((0.5, 0.5), (1.0 - eps,)))
        assert up.kind is SeriesKind.CONVERGENT
        assert down.kind is SeriesKind.DIVERGENT

    def test_saalschutzian_flag(self):
        assert classify(HypParams((1, 1), (3,))).saalschutzian
        assert not classify(HypParams((1, 1), (F(5, 2),))).saalschutzian

    @given(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=8),
                 min_size=0, max_size=4),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, nums, data):
        dens = data.draw(st.lists(
            st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
            min_size=0, max_size=4))
        base = classify(HypParams(tuple(nums), tuple(dens)))
        shuffled_n = data.draw(st.permutations(nums))
        shuffled_d = data.draw(st.permutations(dens))
        assert classify(HypParams(tuple(shuffled_n), tuple(shuffled_d))) == base


class TestTerm:
    def test_j0_is_one(self):
        assert term(HypParams((F(9, 7), -3), (F(1, 2),)), 0).fraction == 1

    def test_direct_product(self):
        assert term(HypParams((1, 1), (3,)), 2).fraction == F(1, 6)

    def test_vanishing_numerator(self):
        assert term(HypParams((-1, F(1, 2)), (F(4, 3),)), 2).fraction == 0

    def test_vanishing_denominator_is_pole(self):
        p = HypParams((-2,), (-2,))
        with pytest.raises(PoleError):
            term(p, 3)


class TestTerminatingEval:
    def test_two_term_sum(self):
        a, c = F(1, 3), F(5, 7)
        r = pfq([-1, a], [c])
        assert exact_value(r) == 1 - a / c
        assert r.tail_bound == 0 and isinstance(r.tail_bound, int)

    def test_matches_termwise_sum(self):
        rng = random.Random(11)
        for _ in range(40):
            k = rng.randint(0, 6)
            a = F(rng.randint(-30, 30), rng.randint(1, 9))
            b = F(rng.randint(1, 30), rng.randint(1, 9))
            params = HypParams((-k, a), (b,))
            r = eval_at_1(params)
            expected = sum(term(params, j).fraction for j in range(k + 1))
            assert exact_value(r) == expected
            assert r.terms_used == k + 1

    def test_float_parameters_sum_completely(self):
        r = pfq([-3, 1.25], [2.5])
        # same series with exact parameters
        ref = pfq([-3, F(5, 4)], [F(5, 2)])
        assert abs(r.value.finite.to_mpc(113) -
                   Scalar.exact(exact_value(ref)).to_mpc(113)) < 1e-30
        assert r.tail_bound == 0.0 and isinstance(r.tail_bound, float)

    def test_float_parameters_cancelling_sum(self):
        # 101 alternating terms as large as ~4e24 sum to ~0.31: the float
        # parameters are summed as the exact rationals they are, then rounded
        r = pfq([-100, 0.3], [2.7], EvalContext(precision=53))
        v = r.value.finite
        assert v.is_float and v.prec == 53
        ref = exact_value(pfq([-100, F(0.3)], [F(2.7)]))
        with mp.workprec(212):
            exact = mp.mpf(ref.numerator) / ref.denominator
            assert abs(v.to_mpc(53) - exact) / abs(exact) <= mp.mpf(2) ** -51

    def test_long_terminating_sum_within_the_default_budget(self):
        # 2F1(-k, 1/3; 5/2; 1) = (13/6)_k / (5/2)_k (Chu-Vandermonde) at
        # k = 10000: its four products are extended a factor a term, so the
        # factor work is 4 k^2 + 4 k, within max_terms^2 = 10^10
        k = 10000
        r = pfq([-k, F(1, 3)], [F(5, 2)])
        assert exact_value(r) == pochhammer(F(13, 6), k).fraction / pochhammer(F(5, 2), k).fraction
        assert r.terms_used == k + 1


def terminating_reference(k: int, p: int, *params: Scalar) -> Scalar:
    """The k+1 terms of a terminating series, each from the last by one
    Scalar factor at a time: the reference for eval_at_1's integer sum."""
    t = Scalar.exact(1)
    acc = t
    for j in range(k):
        num = Scalar.exact(1)
        for a in params[:p]:
            num = num * (a + j)
        den = Scalar.exact(j + 1)
        for b in params[p:]:
            den = den * (b + j)
        t = t * num / den
        acc = acc + t
    return acc


# negative numerators, denominators up to 50, and dyadic floats
TERMINATING_PARAM = st.one_of(
    st.fractions(min_value=-15, max_value=15, max_denominator=50),
    st.floats(min_value=-15, max_value=15, allow_nan=False),
)


class TestTerminatingOracle:
    @given(st.integers(min_value=0, max_value=15),
           st.lists(TERMINATING_PARAM, max_size=3), st.lists(TERMINATING_PARAM, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop(self, k, nums, dens):
        try:
            params = HypParams((-k, *nums), tuple(dens))
        except InvalidParametersError:
            return
        ctx = EvalContext(precision=64)
        r = eval_at_1(params, ctx)
        k = r.classification.k
        ref = exact_first(
            lambda *xs: SphereValue.of(terminating_reference(k, params.p, *xs)),
            params.numerator + params.denominator, ctx)
        assert r.value == ref
        v = r.value.finite
        if all(x.is_exact for x in params.numerator + params.denominator):
            assert isinstance(v.fraction, Fraction)
        else:
            assert v.is_float

    @pytest.mark.parametrize("prec", [53, 256])
    def test_complex_parameter_falls_back_to_float(self, prec):
        # no exact sum: float with guard bits, rounded once, tail_bound 0.0
        ctx = EvalContext(precision=prec)
        for k in range(4):
            params = HypParams((-k, complex(1.25, 0.5)), (F(9, 4),))
            r = eval_at_1(params, ctx)
            v = r.value.finite
            assert v.is_float and v.prec == prec
            assert r.tail_bound == 0.0 and isinstance(r.tail_bound, float)
            ref = exact_first(
                lambda *xs: SphereValue.of(terminating_reference(k, params.p, *xs)),
                params.numerator + params.denominator, ctx)
            with mp.workprec(4 * prec):
                want = ref.finite.to_mpc(prec)
                assert abs(v.to_mpc(prec) - want) <= mp.mpf(2) ** -(prec - 2) * abs(want)


def _mp(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def _gauss(a, b, c):
    g = mpmath.gamma
    return g(c) * g(c - a - b) / (g(c - a) * g(c - b))


def _dixon(a, b, c):
    g, h = mpmath.gamma, a / 2
    return (g(1 + h) * g(1 + a - b) * g(1 + a - c) * g(1 + h - b - c)
            / (g(1 + a) * g(1 + h - b) * g(1 + h - c) * g(1 + a - b - c)))


def _two_shift_4f3(a, b, c, e, f):
    # 4F3(a, b, e+1, f+1; c, e, f): with t_j the terms of 2F1(a, b; c) the
    # sum is sum t_j (1 + j/e)(1 + j/f), and sum j t_j, sum j(j-1) t_j are
    # Gauss sums shifted by one and by two
    g1 = a * b / c * _gauss(a + 1, b + 1, c + 1)
    g2 = a * (a + 1) * b * (b + 1) / (c * (c + 1)) * _gauss(a + 2, b + 2, c + 2)
    return _gauss(a, b, c) + (1 / e + 1 / f) * g1 + (g1 + g2) / (e * f)


_A, _B, _E, _F = F(1, 3), F(1, 5), F(7, 4), F(5, 2)


class TestBalancedClosedForms:
    @pytest.mark.parametrize("nums,dens,reference", [
        pytest.param([F(5, 3), F(1, 4), F(2, 7)],
                     [1 + F(5, 3) - F(1, 4), 1 + F(5, 3) - F(2, 7)],
                     lambda n, d: _dixon(*n), id="dixon_3f2"),
        pytest.param([_A, _B, _E + 1, _F + 1], [_A + _B + 2 + F(6, 5), _E, _F],
                     lambda n, d: _two_shift_4f3(n[0], n[1], *d), id="two_shift_4f3"),
        pytest.param([F(1, 3), F(1, 4)], [F(25, 12)],
                     lambda n, d: _gauss(*n, *d), id="gauss_2f1"),
        pytest.param([0.3 + 0.2j, 0.5], [2.7],
                     lambda n, d: _gauss(*n, *d), id="gauss_2f1_complex"),
    ])
    def test_256_bits_within_2_pow_minus_100(self, nums, dens, reference):
        # the coefficients of the asymptotic tail up to depth 18 set these
        # last bits; the references are closed forms evaluated at 600 bits
        r = pfq(nums, dens, EvalContext(precision=256))
        assert r.classification.kind is SeriesKind.CONVERGENT
        with mp.workprec(600):
            ref = reference([_mp(x) for x in nums], [_mp(x) for x in dens])
            err = abs(r.value.finite.to_mpc(600) - ref) / abs(ref)
            assert err <= mp.mpf(2) ** -100, float(mpmath.log(err, 2))


def _closed_form_error(r, reference, nums, dens, prec):
    """Relative error of the result r against a closed form at 2*prec+100 bits."""
    with mp.workprec(2 * prec + 100):
        ref = reference([_mp(x) for x in nums], [_mp(x) for x in dens])
        return abs(r.value.finite.to_mpc(2 * prec + 100) - ref) / abs(ref)


_GAUSS = lambda n, d: _gauss(*n, *d)
_DIXON = lambda n, d: _dixon(*n)
_BIG_A, _BIG_B = F(1234567, 7654321), F(-98765, 43219)


class TestFixedPointRoute:
    """Real rational parameters are summed in integers scaled by 2^W; complex
    ones in mpc.  Both must meet the closed forms."""

    @pytest.mark.parametrize("prec,bits", [(53, 52), (256, 100), (1024, 100)])
    @pytest.mark.parametrize("nums,dens,reference", [
        pytest.param([F(-7, 3), F(5, 11)], [F(-7, 3) + F(5, 11) + F(13, 7)],
                     _GAUSS, id="gauss_negative"),
        pytest.param([_BIG_A, _BIG_B], [_BIG_A + _BIG_B + F(10007, 9973)],
                     _GAUSS, id="gauss_large_denominators"),
        pytest.param([F(3, 5), F(-4, 7), F(1234, 9871)],
                     [1 + F(3, 5) + F(4, 7), 1 + F(3, 5) - F(1234, 9871)],
                     _DIXON, id="dixon_negative"),
        pytest.param([F(-5, 3), F(-123457, 65537), F(-2, 9)],
                     [1 + F(-5, 3) + F(123457, 65537), 1 + F(-5, 3) + F(2, 9)],
                     _DIXON, id="dixon_large_denominators"),
    ])
    def test_real_rationals_meet_closed_forms(self, nums, dens, reference, prec, bits):
        r = pfq(nums, dens, EvalContext(precision=prec))
        assert r.value.finite.prec == prec
        err = _closed_form_error(r, reference, nums, dens, prec)
        assert err <= mp.mpf(2) ** -bits, float(mpmath.log(err, 2))

    def test_1024_bit_float_parameters_meet_gauss(self):
        # dyadic denominators near 2^1024: the tail build rounds them to 2^-W
        with mp.workprec(1024):
            vals = [mp.mpf(1) / 3, -mp.mpf(2) / 7, mp.mpf(13) / 5]
        nums, dens = vals[:2], vals[2:]
        r = pfq([Scalar.from_float(x, 1024) for x in nums],
                [Scalar.from_float(x, 1024) for x in dens], EvalContext(precision=1024))
        err = _closed_form_error(r, _GAUSS, nums, dens, 1024)
        assert err <= mp.mpf(2) ** -100, float(mpmath.log(err, 2))

    @pytest.mark.parametrize("prec,bits", [(53, 50), (256, 100), (1024, 100)])
    def test_complex_parameters_meet_gauss(self, prec, bits):
        nums, dens = [1 / 3 + 0.5j, 0.25 - 1j / 3], [2.5 + 1j / 7]
        r = pfq(nums, dens, EvalContext(precision=prec))
        err = _closed_form_error(r, _GAUSS, nums, dens, prec)
        assert err <= mp.mpf(2) ** -bits, float(mpmath.log(err, 2))

    @pytest.mark.parametrize("prec", [53, 256])
    def test_float_parameters_equal_their_dyadic_rationals(self, prec):
        ctx = EvalContext(precision=prec)
        r = pfq([0.37, 1.21], [3.4], ctx)
        ref = pfq([F(0.37), F(1.21)], [F(3.4)], ctx)
        assert r.value.finite.to_mpc(prec) == ref.value.finite.to_mpc(prec)
        assert (r.terms_used, r.tail_bound) == (ref.terms_used, ref.tail_bound)

    @pytest.mark.parametrize("nums,dens", [
        pytest.param([F(1, 4), F(1, 4)], [1], id="rational"),
        pytest.param([0.25, 0.25 + 0.01j], [1], id="complex"),
    ])
    def test_small_budget_raises_with_partial(self, nums, dens):
        ctx = EvalContext(precision=128, max_terms=40, rel_tol=1e-40, abs_tol=1e-45)
        with pytest.raises(ConvergenceError) as exc:
            pfq(nums, dens, ctx)
        partial = exc.value.partial
        assert exc.value.terms_used == 40
        assert partial.prec == ctx.precision + 40
        # 40 terms plus the tail correction already land near the sum
        ref = pfq(nums, dens).value.finite.to_mpc(128)
        assert abs(partial.to_mpc(128) - ref) < 1e-6 * abs(ref)


class TestConvergentEval:
    def test_telescoping_value(self):
        # terms are 2/((j+1)(j+2)), so the sum telescopes to 2
        r = pfq([1, 1], [3])
        v = r.value.finite.to_mpc(256)
        assert abs(v - 2) < 1e-12
        assert r.classification.kind is SeriesKind.CONVERGENT

    def test_exponential_series(self):
        r = pfq([1], [2])  # sum 1/(j+1)! = e - 1
        with mp.workprec(256):
            assert abs(r.value.finite.to_mpc(256) - (mp.e - 1)) < 1e-11

    def test_gauss_random_sample(self):
        rng = random.Random(23)
        checked = 0
        while checked < 25:
            a = F(rng.randint(-30, 30), rng.randint(1, 8))
            b = F(rng.randint(-30, 30), rng.randint(1, 8))
            if a.denominator == 1 and a <= 0:
                a += F(1, 3)
            if b.denominator == 1 and b <= 0:
                b += F(1, 3)
            c = a + b + F(rng.randint(1, 5), 2)
            if c.denominator == 1 and c <= 0:
                continue
            r = pfq([a, b], [c])
            with mp.workprec(300):
                fr = lambda q: mp.mpf(q.numerator) / q.denominator
                try:
                    ref = (mpmath.gamma(fr(c)) * mpmath.gamma(fr(c - a - b)) /
                           (mpmath.gamma(fr(c - a)) * mpmath.gamma(fr(c - b))))
                except ValueError:
                    continue
                err = abs(r.value.finite.to_mpc(300) - ref) / abs(ref)
            assert err < 1e-10, (a, b, c, float(err))
            checked += 1

    def test_small_convergence_abscissa(self):
        # balance exactly 1/2, the slowest case the library certifies by default
        r = pfq([F(1, 4), F(1, 4)], [1])
        with mp.workprec(300):
            ref = (mpmath.gamma(1) * mpmath.gamma(mp.mpf("0.5")) /
                   mpmath.gamma(mp.mpf("0.75")) ** 2)
            err = abs(r.value.finite.to_mpc(300) - ref) / abs(ref)
        assert err < 1e-10

    def test_tail_bound_never_zero_on_a_nonterminating_sum(self):
        # the two truncation depths agree to the last working bit here; the
        # estimate reads the working resolution 2^-(53+40) |sum|, not 0.0
        r = pfq([1, F(4, 7)], [F(291, 56)], EvalContext(precision=53))
        assert r.terms_used == 64
        assert r.tail_bound >= 2.0 ** -93 * abs(r.value.finite.to_mpc(53))

    def test_tail_bound_covers_the_rounding(self):
        # floored at 2^-P |sum|: at 53 bits this sum is off by 1.15e-16 from
        # Gauss's formula, and a floor at 2^-(P+40) |sum| read 3.8e-26
        a, b, c = F(5, 3), F(3), F(58, 9)
        r = pfq([a, b], [c], EvalContext(precision=53))
        with mp.workprec(300):
            fr = lambda q: mp.mpf(q.numerator) / q.denominator
            ref = (mpmath.gamma(fr(c)) * mpmath.gamma(fr(c - a - b)) /
                   (mpmath.gamma(fr(c - a)) * mpmath.gamma(fr(c - b))))
            err = abs(r.value.finite.to_mpc(53) - ref)
        assert err > 1e-16
        assert r.tail_bound >= err

    def test_tail_bound_is_honest(self):
        r = pfq([1, 1], [3])
        actual = abs(r.value.finite.to_mpc(256) - 2)
        assert actual <= max(r.tail_bound * 10, 1e-30)


class TestRefusals:
    def test_divergent_raises(self):
        with pytest.raises(DivergentSeriesError):
            pfq([1, 1], [2])
        with pytest.raises(DivergentSeriesError):
            pfq([F(1, 2), 1, 1], [2])

    def test_budget_exhaustion_carries_partial(self):
        ctx = EvalContext(max_terms=40, rel_tol=1e-40, abs_tol=1e-45)
        with pytest.raises(ConvergenceError) as exc:
            pfq([F(1, 4), F(1, 4)], [1], ctx)
        assert exc.value.partial is not None
        assert exc.value.terms_used <= 40


def _exact_partial_sum(nums, dens, prec):
    """A Fraction partial sum S_N of a rational p <= q series at 1 that is
    within 2^-(prec+8) |S_N| of the full sum.  From J0 = ceil(8 (sum |a| +
    sum |b|)) + 2 on, every factor is positive and d/dj log|t_{j+1}/t_j| < 0
    (each pair's 1/(a+j) - 1/(b+j) is at most 4|b-a|/j^2), so the
    ratios r_j decrease and the tail after t_N is at most |t_N| r_N / (1 - r_N)
    once r_N < 1.  N is first chosen in floats, then doubled until the exact
    bound holds."""
    # term j is prod (a)_j / (prod (b)_j j!)
    num, den = [(a, 0, 0, 1) for a in nums], [(b, 1) for b in dens] + [(1, 1)]
    j0 = math.ceil(8 * sum(abs(F(x)) for x in (*nums, *dens))) + 2
    n, t, s = 0, mp.mpf(1), mp.mpf(1)
    with mp.workprec(64):
        while True:
            ratio = mp.fprod(_mp(a) + n for a in nums) / (
                (n + 1) * mp.fprod(_mp(b) + n for b in dens))
            if n >= j0 and abs(ratio) < mp.mpf(1) / 2 and \
                    abs(t) < mp.ldexp(abs(s), -(prec + 12)):
                break
            t *= ratio
            s += t
            n += 1
    while True:
        total = pochhammer_sum(num, den, 0, n).fraction
        t_n = pochhammer_sum(num, den, n, n).fraction
        r = abs(math.prod(a + n for a in nums)
                / ((n + 1) * math.prod(b + n for b in dens)))
        if r < 1 and abs(t_n) * r / (1 - r) < abs(total) / 2 ** (prec + 8):
            return total
        n *= 2


def _bits_off(value, ref, prec):
    """-log2 of the relative error of the float Scalar ``value`` against the mp
    number ``ref``, at 2*prec+40 bits."""
    with mp.workprec(2 * prec + 40):
        return float(-mpmath.log(abs(value.to_mpc(2 * prec + 40) - ref) / abs(ref), 2))


# a p <= q parameter: denominators up to 9, negative non-integers allowed
HYPER_PARAM = st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(
    lambda x: x.denominator != 1 or x > 0)


class TestHyperRoute:
    """Nonterminating p <= q series go to one mp.hyper call at the working
    precision and are right to about that precision."""

    @pytest.mark.parametrize("prec", [53, 256, 1024])
    @pytest.mark.parametrize("nums,dens", [
        pytest.param([F(1, 3)], [F(5, 2)], id="1f1"),
        pytest.param([40], [F(1, 3)], id="1f1_large_numerator"),
        pytest.param([F(-41, 3)], [F(1, 3)], id="1f1_negative"),
        pytest.param([F(-201, 2)], [F(3, 2)], id="1f1_cancelling"),
        pytest.param([], [F(7, 3)], id="0f1"),
    ])
    def test_right_to_precision(self, nums, dens, prec):
        r = pfq(nums, dens, EvalContext(precision=prec))
        assert r.classification.kind is SeriesKind.CONVERGENT
        assert r.value.finite.prec == prec
        total = _exact_partial_sum(nums, dens, prec)
        with mp.workprec(2 * prec + 40):
            ref = _mp(total)
        assert _bits_off(r.value.finite, ref, prec) >= prec - 4

    @given(st.integers(min_value=0, max_value=3).flatmap(
               lambda q: st.tuples(st.lists(HYPER_PARAM, max_size=q),
                                   st.lists(HYPER_PARAM, min_size=q, max_size=q))),
           st.sampled_from([53, 256]))
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_partial_sum(self, params, prec):
        nums, dens = params
        r = pfq(nums, dens, EvalContext(precision=prec))
        total = _exact_partial_sum(nums, dens, prec)
        with mp.workprec(2 * prec + 40):
            ref = _mp(total)
        assert _bits_off(r.value.finite, ref, prec) >= prec - 4

    @pytest.mark.parametrize("prec", [53, 256, 1024])
    def test_complex_1f1_meets_kummer(self, prec):
        # 1F1(a; b; 1) = e 1F1(b-a; b; -1), an alternating series
        a, b = 0.3 + 2.5j, 1.5 - 1j
        r = pfq([a], [b], EvalContext(precision=prec))
        with mp.workprec(2 * prec + 40):
            ref = mp.e * mp.hyp1f1(mp.mpc(b) - mp.mpc(a), mp.mpc(b), -1)
        assert _bits_off(r.value.finite, ref, prec) >= prec - 4

    def test_result_fields(self):
        r = pfq([F(1, 3)], [F(5, 2)], EvalContext(precision=128))
        assert r.terms_used is None
        with mp.workprec(128):
            assert r.tail_bound == float(mp.ldexp(abs(r.value.finite.to_mpc(128)), -128))

    def test_tail_bound_never_zero(self):
        # 2^-P |value| underflows a double at P = 2000; the floor is ulp(0.0)
        r = pfq([F(1, 3)], [F(5, 2)], EvalContext(precision=2000))
        assert r.tail_bound == math.ulp(0.0)

    def test_budget_exhaustion_refused(self):
        with pytest.raises(ConvergenceError, match="within 3 terms") as exc:
            pfq([], [F(1, 2)], EvalContext(max_terms=3))
        assert exc.value.terms_used == 3 and exc.value.partial is None


_SQRTPI_3_7 = Scalar.exact_sqrtpi(F(3, 7))


class TestSqrtPiParameters:
    """An exact sqrt(pi) multiple cannot join an exact balance with
    rationals, so classify falls back to float through exact_first and the
    series is summed in float."""

    @pytest.mark.parametrize("nums,dens,bits", [
        pytest.param([-2, _SQRTPI_3_7], [F(5, 4)], 124, id="terminating"),
        pytest.param([_SQRTPI_3_7], [F(5, 4)], 124, id="hyper"),
        pytest.param([_SQRTPI_3_7, F(1, 3)], [F(9, 4)], 100, id="balanced"),
    ])
    def test_against_mp_hyper(self, nums, dens, bits):
        r = pfq(nums, dens, EvalContext(precision=128))
        with mp.workprec(300):
            args = [x.to_mpc(300) if isinstance(x, Scalar) else _mp(F(x))
                    for x in nums + dens]
            ref = mp.hyper(args[:len(nums)], args[len(nums):], 1)
            err = abs(r.value.finite.to_mpc(300) - ref) / abs(ref)
        assert err <= mp.mpf(2) ** -bits, float(mpmath.log(err, 2))


def _gaussian_2f1(k, a, c):
    """2F1(-k, a; c; 1) summed exactly for complex binary floats a and c, as
    the Gaussian rationals they are: (re, im) pairs of Fractions."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def div(x, y):
        n = y[0] ** 2 + y[1] ** 2
        return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n

    a, c = (F(a.real), F(a.imag)), (F(c.real), F(c.imag))
    t = total = (F(1), F(0))
    for j in range(k):  # t_(j+1) / t_j = (j-k)(a+j) / ((c+j)(j+1))
        t = div(mul(t, ((j - k) * (a[0] + j), (j - k) * a[1])),
                ((j + 1) * (c[0] + j), (j + 1) * c[1]))
        total = total[0] + t[0], total[1] + t[1]
    return total


class TestKnownWrongAnswers:
    """Wrong answers that ROADMAP names, pinned as strict xfails: the change
    that fixes one must flip its test."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the balanced route stops near 119 bits at P >= 128")
    def test_balanced_2f1_reaches_p_bits(self):
        prec = 256
        r = pfq([F(1, 3), F(1, 4)], [F(25, 12)], EvalContext(precision=prec))
        with mp.workprec(2 * prec + 60):
            ref = _gauss(_mp(F(1, 3)), _mp(F(1, 4)), _mp(F(25, 12)))
            err = abs(r.value.finite.to_mpc(prec) - ref) / abs(ref)
            assert err <= mp.mpf(2) ** -(prec - 8), float(mpmath.log(err, 2))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: complex terminating input loses every "
                              "bit at P = 53")
    def test_complex_terminating_sum_reaches_p_bits(self):
        a, c = 0.3 + 0.2j, 2.7 - 0.1j
        r = pfq([-100, a], [c], EvalContext(precision=53))
        re, im = _gaussian_2f1(100, a, c)
        with mp.workprec(200):
            ref = mp.mpc(_mp(re), _mp(im))
            err = abs(r.value.finite.to_mpc(53) - ref) / abs(ref)
            assert err <= mp.mpf(2) ** -45, float(mpmath.log(err, 2))
