import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from hypersum.classical_identities import (
    askey_ismail_lhs,
    askey_ismail_rhs,
    askey_ismail_validity,
    gauss_closed_form,
    gauss_series_converges,
    pochhammer_multiplication_split,
    terminating_2f1_limit,
)
from hypersum.hyper_series import HypParams, eval_at_1, pfq
from hypersum.numeric_core import (
    EvalContext,
    InvalidParametersError,
    PoleError,
    Scalar,
    pochhammer,
    scalar,
)

F = Fraction


class TestGaussClosedForm:
    def test_trivial_b_zero(self):
        assert gauss_closed_form(F(3, 7), 0, F(9, 5)).finite.fraction == 1

    def test_one_one_three(self):
        assert gauss_closed_form(1, 1, 3).finite.fraction == 2

    def test_symmetry_in_a_b(self):
        cases = [(F(1, 2), 3, F(9, 2)), (2, F(-1, 3), F(7, 3)), (-4, F(2, 5), F(1, 5))]
        for a, b, c in cases:
            assert gauss_closed_form(a, b, c) == gauss_closed_form(b, a, c)

    def test_integer_a_reduces_exactly(self):
        # with integer a both gamma ratios collapse to Pochhammer symbols
        a, b, c = -3, F(1, 2), F(-1, 2)
        v = gauss_closed_form(a, b, c)
        assert v.finite.is_rational
        # reference through the series itself (terminating)
        s = pfq([a, b], [c + 3])  # shift c to keep the series defined
        # direct identity check instead: 2F1(-3, 1/2; 11/6; 1)
        v2 = gauss_closed_form(-3, F(1, 2), F(11, 6))
        s2 = pfq([-3, F(1, 2)], [F(11, 6)])
        assert v2.finite.fraction == s2.value.finite.fraction

    def test_float_fallback_for_generic_rationals(self):
        ctx = EvalContext(precision=113)
        v = gauss_closed_form(F(1, 3), F(1, 5), F(7, 3), ctx)
        assert v.finite.is_float
        with mp.workprec(150):
            g = mpmath.gamma
            ref = (g(mp.mpf(7) / 3) * g(mp.mpf(7) / 3 - mp.mpf(1) / 3 - mp.mpf(1) / 5)
                   / (g(mp.mpf(2)) * g(mp.mpf(7) / 3 - mp.mpf(1) / 5)))
            assert abs(v.finite.to_mpc(150) - ref) / abs(ref) < 1e-13

    def test_agrees_with_series(self):
        rng = random.Random(41)
        checked = 0
        while checked < 30:
            a = F(rng.randint(-20, 20), rng.randint(1, 6))
            b = F(rng.randint(-20, 20), rng.randint(1, 6))
            c = a + b + F(rng.randint(1, 4), 2)
            if (c.denominator == 1 and c <= 0) or not gauss_series_converges(a, b, c):
                continue
            try:
                series = pfq([a, b], [c])
            except InvalidParametersError:
                continue
            closed = gauss_closed_form(a, b, c)
            sv = series.value.finite.to_mpc(280)
            cv = closed.finite.to_mpc(280)
            diff = abs(sv - cv)
            assert diff < 1e-25 or diff / max(abs(sv), abs(cv)) < 1e-10, (a, b, c)
            checked += 1

    def test_convergence_predicate(self):
        assert gauss_series_converges(1, 1, 3)
        assert not gauss_series_converges(1, 1, 2)
        assert not gauss_series_converges(F(1, 2), F(1, 2), 1)


class TestMultiplicationSplit:
    def test_known_product(self):
        assert pochhammer_multiplication_split(3, 3, 2).fraction == 20160

    def test_n_one_degenerates(self):
        for j in range(5):
            assert (pochhammer_multiplication_split(F(7, 3), 1, j).fraction
                    == pochhammer(F(7, 3), j).fraction)

    def test_quadratic_case_symbolically(self):
        # 4 * ((b+1)/2) * ((b+2)/2) == (b+1)(b+2)
        b = F(1, 5)
        lhs = pochhammer_multiplication_split(b + 1, 2, 1)
        assert lhs.fraction == (b + 1) * (b + 2)

    def test_matches_direct_pochhammer(self):
        rng = random.Random(5)
        for _ in range(60):
            base = F(rng.randint(-25, 25), rng.randint(1, 7))
            n = rng.randint(1, 5)
            j = rng.randint(0, 6)
            split = pochhammer_multiplication_split(base, n, j)
            assert split.fraction == pochhammer(base, n * j).fraction

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pochhammer_multiplication_split(1, 0, 2)
        with pytest.raises(ValueError):
            pochhammer_multiplication_split(1, 2, -1)


class TestAskeyIsmail:
    def test_k_zero_is_one(self):
        assert askey_ismail_lhs(2, F(1, 3), F(7, 2), 0).value.finite.fraction == 1
        assert askey_ismail_rhs(2, F(1, 3), F(7, 2), 0).value.finite.fraction == 1

    def test_spot_value(self):
        l = askey_ismail_lhs(1, 1, 3, 1)
        r = askey_ismail_rhs(1, 1, 3, 1)
        assert l.value.finite.fraction == F(7, 6)
        assert r.value.finite.fraction == F(7, 6)

    def test_k_two_cross_check(self):
        l = askey_ismail_lhs(1, 1, 3, 2)
        r = askey_ismail_rhs(1, 1, 3, 2)
        assert l.value == r.value

    def test_half_integer_a(self):
        l = askey_ismail_lhs(F(1, 2), 1, 2, 1)
        r = askey_ismail_rhs(F(1, 2), 1, 2, 1)
        assert l.value.finite.is_rational
        assert l.value == r.value

    def test_transformation_holds_on_random_sample(self):
        rng = random.Random(3)
        matched = tried = 0
        while tried < 100:
            a = F(rng.randint(-8, 8), rng.randint(1, 4))
            c = F(rng.randint(-8, 8), rng.randint(1, 4))
            d = F(rng.randint(-8, 8), rng.randint(1, 4))
            k = rng.randint(0, 5)
            try:
                l = askey_ismail_lhs(a, c, d, k)
                r = askey_ismail_rhs(a, c, d, k)
            except (InvalidParametersError, PoleError, ZeroDivisionError):
                continue
            tried += 1
            assert l.value == r.value, (a, c, d, k)
            matched += 1
        assert matched == 100

    def test_validity_metadata(self):
        assert askey_ismail_validity(1, 3)
        assert not askey_ismail_validity(3, 1)
        assert not askey_ismail_validity(-1, 3)
        # mixed rational and float input compares through Scalar
        assert askey_ismail_validity(Fraction(1, 2), 2.5)
        assert askey_ismail_validity(0.5, Fraction(5, 2))
        assert not askey_ismail_validity(Fraction(5, 2), 0.5)

    def test_prefactor_pole_raises(self):
        # d - a - c = -1 makes (d-a-c)_2 vanish
        with pytest.raises(PoleError):
            askey_ismail_rhs(1, 2, 2, 2)


class TestTerminating2f1Limit:
    def test_k_zero(self):
        assert terminating_2f1_limit(0, F(9, 4)).fraction == 1

    def test_k_one_linear(self):
        for a in (F(1, 2), F(-3, 7), 4):
            assert terminating_2f1_limit(1, a).fraction == 1 + F(a)

    def test_k_two_spot(self):
        assert terminating_2f1_limit(2, 1).fraction == 3

    def test_matches_perturbed_series(self):
        # 2F1(-k, a; -k+eps; 1) at small eps should approach the limit value
        rng = random.Random(17)
        eps = F(1, 10**6)
        for _ in range(20):
            k = rng.randint(1, 4)
            a = F(rng.randint(-20, 20), rng.randint(1, 9))
            limit = terminating_2f1_limit(k, a).fraction
            perturbed = pfq([-k, a], [eps - k]).value.finite.fraction
            if limit == 0:
                assert abs(perturbed) < F(1, 10**4)
            else:
                assert abs(perturbed - limit) / abs(limit) < F(1, 10**4)
