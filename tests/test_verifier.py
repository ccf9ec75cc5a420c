"""Tests for identity reports, theorem checks, the counterexample, sweeps,
and the independent brute-force oracle."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from hypersum.numeric_core import (
    EvalContext,
    InvalidParametersError,
    PoleError,
    Scalar,
    SphereValue,
    WorkBudgetError,
    scalar,
)
from hypersum import ramanujan_sum, verifier
from hypersum.ramanujan_sum import RamanujanParams, recast_params, s_direct, s_polynomial
from hypersum.verifier import (
    Verdict,
    brute_force_oracle,
    compare,
    counterexample_eq9,
    summarize,
    sweep,
    verify_point,
    verify_theorem,
)


def sv(x) -> SphereValue:
    return SphereValue.of(Scalar.exact(x))


class TestCompare:
    def test_exact_equality(self):
        rep = compare(sv(F(3, 7)), sv(F(3, 7)))
        assert rep.verdict is Verdict.EXACT_MATCH
        assert rep.abs_diff == 0 and isinstance(rep.abs_diff, int)

    def test_exact_inequality_is_numeric(self):
        rep = compare(sv(F(1, 3)), sv(F(1, 2)))
        assert rep.verdict is Verdict.MISMATCH
        assert rep.rel_diff > 1e-9

    def test_close_floats_within_tolerance(self):
        a = SphereValue.of(Scalar.from_float(1.0, 64))
        b = SphereValue.of(Scalar.from_float(1.0 + 1e-12, 64))
        rep = compare(a, b)
        assert rep.verdict is Verdict.WITHIN_TOLERANCE
        assert 0 < rep.rel_diff <= 1e-9

    def test_float_equality_is_not_exact_match(self):
        a = SphereValue.of(Scalar.from_float(2.5, 64))
        rep = compare(a, a)
        assert rep.verdict is Verdict.WITHIN_TOLERANCE

    def test_infinities(self):
        inf = SphereValue.infinity()
        assert compare(inf, inf).verdict is Verdict.EXACT_MATCH
        rep = compare(inf, sv(1))
        assert rep.verdict is Verdict.MISMATCH
        assert rep.abs_diff == math.inf

    def test_tiny_absolute_difference_passes(self):
        a = SphereValue.of(Scalar.from_float(0.0, 64))
        b = SphereValue.of(Scalar.from_float(1e-40, 64))
        assert compare(a, b).verdict is Verdict.WITHIN_TOLERANCE

    def test_context_records_tolerances(self):
        rep = compare(sv(1), sv(1), rel_tol=1e-6, context={"tag": "x"})
        assert rep.context["rel_tol"] == 1e-6
        assert rep.context["tag"] == "x"


class TestVerifyTheorem:
    def test_k0_trivial(self):
        rep = verify_theorem(0, F(9, 7), F(-2, 3), F(7, 2))
        assert rep.verdict is Verdict.EXACT_MATCH
        assert rep.lhs.finite == Scalar.exact(1)

    def test_k2_spot(self):
        rep = verify_theorem(2, F(1, 2), F(1, 3), 4)
        assert rep.verdict is Verdict.EXACT_MATCH
        assert rep.lhs.finite == Scalar.exact(F(-5, 36))

    def test_k1_complex_z_float(self):
        rep = verify_theorem(1, 5, 2, 1 + 1j)
        assert rep.verdict is Verdict.WITHIN_TOLERANCE
        assert abs(rep.lhs.finite.to_mpc(64) - 3) < 1e-10

    def test_never_mismatch_on_terminating(self):
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randrange(7)
            beta = F(rng.randint(-40, 40), rng.randint(1, 20))
            m = F(rng.randint(-40, 40), rng.randint(1, 20))
            z = F(rng.randint(-9, 9), rng.randint(1, 5))
            rep = verify_theorem(k, beta, m, z)
            assert rep.verdict is Verdict.EXACT_MATCH

    def test_pole_becomes_pole_skipped(self):
        # experimental path with a contaminating numerator gamma pole
        rep = verify_point(0.7, -3.5, 0.3, 0.5)
        assert rep.verdict is Verdict.POLE_SKIPPED
        assert "PoleError" in rep.context["error"]

    def test_rejects_negative_k(self):
        with pytest.raises(InvalidParametersError):
            verify_theorem(-1, F(1, 2), F(1, 3), 0)

    def test_sum_too_large_for_ctx_is_raised_not_recorded(self):
        # k = 100 is within max_terms = 200, but the direct sum's rebuilt
        # products take about k^3 / 3 factor work, above 200^2
        small = EvalContext(max_terms=200)
        with pytest.raises(WorkBudgetError, match="factor work"):
            verify_theorem(100, F(-13, 9), F(7, 8), F(5, 2), small)
        # an integer z above max_terms is refused the same way
        with pytest.raises(WorkBudgetError, match="z = 300"):
            verify_point(F(1, 3), F(1, 2), F(1, 5), 300, small)
        # a sweep records the refusal among its per-point failures
        rep, = sweep([{"k": 100, "beta": F(-13, 9), "m": F(7, 8), "z": F(5, 2)}], small)
        assert rep.verdict is Verdict.POLE_SKIPPED
        assert rep.context["error"].startswith("WorkBudgetError")

    def test_k100_exact_match(self):
        rep = verify_theorem(100, F(-13, 9), F(7, 8), F(5, 2))
        assert rep.verdict is Verdict.EXACT_MATCH


class TestCounterexample:
    def test_half_half_mismatch(self):
        # S(1) = 8/(3 sqrt(pi)); the closed form claims 0
        rep = counterexample_eq9(F(1, 2), F(1, 2))
        assert rep.verdict is Verdict.MISMATCH
        got = rep.lhs.finite.to_mpc(64)
        assert abs(got - 1.504505556127350) < 1e-9
        assert rep.rhs.finite == Scalar.exact(0)

    def test_reduced_route_recorded(self):
        rep = counterexample_eq9(F(1, 2), F(1, 2))
        assert "route_4f3" in rep.context
        assert "route_2f1" in rep.context
        assert "route_reduced" in rep.context

    def test_negative_integer_alpha_matches(self):
        rep = counterexample_eq9(-1, F(1, 2))
        assert rep.verdict is Verdict.EXACT_MATCH
        assert rep.lhs.finite == Scalar.exact(0)
        rep = counterexample_eq9(-2, 1)
        assert rep.verdict is Verdict.EXACT_MATCH

    def test_quarter_zero(self):
        rep = counterexample_eq9(F(1, 4), 0)
        assert rep.verdict is Verdict.MISMATCH
        assert abs(rep.lhs.finite.to_mpc(64)) > 0.1

    @pytest.mark.parametrize("alpha,beta", [(F(2, 7), F(3, 5)), (-2, F(1, 3)), (0.75, 0.5)])
    def test_prefactor_computed_once(self, monkeypatch, alpha, beta):
        # the 4F3 and 2F1 routes share Gamma(beta+1)/Gamma(m): counterexample_eq9
        # evaluates it exactly as often as one recast_params call does
        calls = []
        prefactor = ramanujan_sum._prefactor

        def counted(*args):
            calls.append(args)
            return prefactor(*args)

        # wherever a route might look the prefactor up
        monkeypatch.setattr(ramanujan_sum, "_prefactor", counted)
        monkeypatch.setattr(verifier, "_prefactor", counted, raising=False)
        counterexample_eq9(alpha, beta)
        in_eq9 = len(calls)
        calls.clear()
        recast_params(alpha, beta, scalar(alpha) + beta + 1, 1)
        assert in_eq9 == len(calls) >= 1


class TestSweep:
    def test_terminating_grid_all_exact(self):
        pts = [{"k": k, "beta": F(1, 2), "m": F(1, 3), "z": z}
               for k in range(4) for z in (0, 1)]
        reps = sweep(pts)
        counts = summarize(reps)
        assert counts["ExactMatch"] == len(pts)
        assert counts["Mismatch"] == 0

    def test_nonterminating_grid_all_mismatch(self):
        pts = [{"alpha": a, "beta": F(1, 2), "m": a + F(3, 2), "z": 1}
               for a in (F(1, 3), F(1, 2), F(3, 4))]
        counts = summarize(sweep(pts))
        assert counts["Mismatch"] == 3

    def test_parallel_matches_serial(self):
        pts = [{"k": k, "beta": F(2, 5), "m": F(-1, 4), "z": 2}
               for k in range(6)]
        pts += [
            {"beta": 1, "m": 1, "z": 0},                    # no alpha or k
            # nonterminating: a float lhs
            {"alpha": 0.5, "beta": 1.0, "m": 0.5, "z": 0.5},
            # PoleError at term 4 of the direct series
            {"alpha": F(1, 2), "beta": 1, "m": F(1, 2), "z": F(-1, 2)},
        ]
        ctx = EvalContext(precision=64)

        def record(rep):
            return (str(rep.lhs), str(rep.rhs), str(rep.rel_diff),
                    rep.verdict, rep.context)

        # jobs > 1 changes no report
        serial = sweep(pts, ctx, jobs=1)
        parallel = sweep(pts, ctx, jobs=2)
        assert [record(r) for r in serial] == [record(r) for r in parallel]
        assert [r.context["grid_index"] for r in parallel] == list(range(9))
        assert [r.verdict for r in serial[6:]] == [
            Verdict.POLE_SKIPPED, Verdict.MISMATCH, Verdict.POLE_SKIPPED]
        assert serial[7].lhs.finite.is_float

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            sweep([{"k": 1, "beta": 1, "m": 1, "z": 0}], jobs=jobs)

    def test_bad_point_is_recorded_not_raised(self):
        reps = sweep([{"beta": 1, "m": 1, "z": 0}])   # no alpha or k
        assert reps[0].verdict is Verdict.POLE_SKIPPED
        assert "error" in reps[0].context

    def test_empty_grid(self):
        assert sweep([]) == []
        assert summarize([]) == {"ExactMatch": 0, "WithinTolerance": 0,
                                 "Mismatch": 0, "PoleSkipped": 0}


class TestBruteForceOracle:
    def test_spot_values(self):
        assert brute_force_oracle(1, 5, 2, F(3, 7)) == Scalar.exact(3)
        assert brute_force_oracle(0, F(1, 3), F(2, 5), 1) == Scalar.exact(1)
        assert brute_force_oracle(2, F(1, 2), F(1, 3), 4) == Scalar.exact(F(-5, 36))

    def test_m_zero_is_a_pole_here(self):
        # the raw series shape carries Gamma(m)/Gamma(m+1) = 1/m at j = 0;
        # only s_direct resolves that by cancellation
        with pytest.raises(PoleError) as exc:
            brute_force_oracle(2, F(1, 2), 0, 1)
        assert exc.value.term_index == 0

    def test_rejects_non_rational(self):
        with pytest.raises(InvalidParametersError):
            brute_force_oracle(2, 0.5, F(1, 3), 1)
        with pytest.raises(InvalidParametersError):
            brute_force_oracle(-3, F(1, 2), F(1, 3), 1)

    def test_agrees_with_main_paths(self):
        rng = random.Random(5)
        for _ in range(60):
            k = rng.randrange(7)
            beta = F(rng.randint(-40, 40), rng.randint(1, 20))
            m = F(rng.randint(-40, 40), rng.randint(1, 20)) or F(1, 3)
            z = F(rng.randint(-12, 12), rng.randint(1, 6))
            want = brute_force_oracle(k, beta, m, z)
            assert s_direct(RamanujanParams(-k, beta, m, z)).value.finite == want
            assert s_polynomial(k, beta, m).evaluate(z) == want

    @given(
        st.integers(min_value=0, max_value=5),
        st.fractions(min_value=-8, max_value=8, max_denominator=10),
        st.fractions(min_value=-8, max_value=8, max_denominator=10),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_agreement_property(self, k, beta, m, z):
        if m == 0:
            m = F(1, 7)
        want = brute_force_oracle(k, beta, m, z)
        got = s_direct(RamanujanParams(-k, beta, m, z)).value.finite
        assert got == want
