"""Tests for the scaling-diagnostics toolbox: longest fair-site runs,
simple-walk small-deviation constants, exit-time moment generating
functions with their critical point and sub-critical bound, and the
least-squares fits used to read exponents off exact probability series."""

import math

import numpy as np
import pytest

from rwre import (
    DomainError,
    Environment,
    WindowTooSmallError,
    c1_const,
    exit_mgf_closed,
    exit_mgf_dp,
    fit_constant_lnln,
    fit_exponent,
    lambda_crit,
    lambda_eps,
    lnln_target,
    longest_fair_run,
    ols_fit,
    sample_environment,
    srw_smalldev_constant,
)

import oracles
from conftest import MARGINAL, homogeneous_env

# frozen with mpmath at 50 digits
PI_SQ_OVER_8 = 1.2337005501361698274
LAMBDA_CRIT_2 = 0.34657359027997265471  # log(2) / 2
LAMBDA_CRIT_3 = 0.14384103622589046372
LAMBDA_CRIT_5 = 0.050181789921618492018
MGF_2_AT_09 = 10.199352547644555026
MGF_3_AT_09 = 7.0688523045740002734
MGF_5_AT_09 = 4.6513606253737164044
C1_005 = 18.960916740732787313
C1_010 = 8.9258559187925452657
C1_020 = 3.8675311961856101613
NEG_PI_LOG2_SQ_OVER_4 = -1.1854702951709319132
NEG_PI_LOG2_SQ = -4.7418811806837276526


class TestLongestFairRun:
    def test_everything_fair(self):
        env = homogeneous_env(0.5, -2, 12)
        assert longest_fair_run(env, 10) == (10, 0)

    def test_nothing_fair(self):
        env = homogeneous_env(0.6, -2, 12)
        assert longest_fair_run(env, 10) == (0, None)

    def test_reports_leftmost_of_tied_maxima(self):
        om = np.array([0.75, 0.5, 0.5, 0.75, 0.75, 0.5, 0.5, 0.75])
        env = Environment(0, om)
        assert longest_fair_run(env, 8) == (2, 1)

    def test_run_touching_right_edge(self):
        om = np.array([0.75, 0.75, 0.5, 0.5, 0.5])
        env = Environment(0, om)
        assert longest_fair_run(env, 5) == (3, 2)

    def test_custom_value(self):
        om = np.array([0.75, 0.75, 0.5, 0.75])
        env = Environment(0, om)
        assert longest_fair_run(env, 4, value=0.75) == (2, 0)

    def test_window_must_cover_range(self):
        env = homogeneous_env(0.5, 0, 4)
        with pytest.raises(WindowTooSmallError):
            longest_fair_run(env, 10)

    def test_rejects_empty_range(self):
        env = homogeneous_env(0.5, -2, 2)
        with pytest.raises(DomainError):
            longest_fair_run(env, 0)

    @pytest.mark.parametrize("env_seed", range(6))
    def test_agrees_with_naive_rescan(self, env_seed):
        r = 400
        env = sample_environment(MARGINAL, env_seed, 0, r - 1)
        length, start = longest_fair_run(env, r)
        # independent quadratic rescan
        best_len, best_start = 0, None
        run, run_start = 0, 0
        for x in range(r):
            if env.omega(x) == 0.5:
                if run == 0:
                    run_start = x
                run += 1
                if run > best_len:
                    best_len, best_start = run, run_start
            else:
                run = 0
        assert (length, start) == (best_len, best_start)


class TestSrwSmallDeviation:
    @pytest.mark.parametrize("n", [2, 3, 10, 11, 100])
    def test_unit_corridor_closed_form(self, n):
        # staying within |X| <= 1 costs a factor 1/2 on every second step
        lp, norm = srw_smalldev_constant(n, 1)
        assert lp == pytest.approx(-math.floor(n / 2) * math.log(2), abs=1e-12)
        assert norm == pytest.approx(lp / n, abs=1e-15)

    def test_zero_steps(self):
        assert srw_smalldev_constant(0, 5) == (0.0, 0.0)

    def test_matches_exhaustive_enumeration(self):
        n, x = 16, 3
        lp, _ = srw_smalldev_constant(n, x)
        hits = 0
        for sites in oracles.iter_paths(n):
            if np.abs(sites).max() <= x:
                hits += 1
        assert lp == pytest.approx(math.log(hits / 2.0**n), abs=1e-12)

    @pytest.mark.parametrize("n,x", [(20, 3), (50, 4), (200, 7)])
    def test_matches_transfer_matrix_oracle(self, n, x):
        lp, _ = srw_smalldev_constant(n, x)
        assert lp == pytest.approx(
            math.log(oracles.srw_confined_linear(n, x + 1)), abs=1e-12
        )

    def test_normalized_value_converges_to_limit(self):
        # along n = 4^k with x ~ n^0.4 the error decays; allow one inversion
        errors = []
        for k in range(5, 10):
            n = 4**k
            x = math.ceil(n**0.4)
            _, norm = srw_smalldev_constant(n, x)
            errors.append(abs(norm + PI_SQ_OVER_8))
        inversions = sum(1 for a, b in zip(errors, errors[1:]) if b > a)
        assert inversions <= 1
        assert errors[-1] < errors[0] / 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            srw_smalldev_constant(10, 0)
        with pytest.raises(DomainError):
            srw_smalldev_constant(-1, 3)


class TestLambdaCrit:
    def test_one_cell_interval_has_no_critical_point(self):
        assert lambda_crit(1) == math.inf

    def test_frozen_values(self):
        assert lambda_crit(2) == pytest.approx(LAMBDA_CRIT_2, abs=1e-15)
        assert lambda_crit(2) == pytest.approx(0.5 * math.log(2), abs=1e-16)
        assert lambda_crit(3) == pytest.approx(LAMBDA_CRIT_3, abs=1e-15)
        assert lambda_crit(5) == pytest.approx(LAMBDA_CRIT_5, abs=1e-15)

    def test_decreasing_in_interval_size(self):
        vals = [lambda_crit(ell) for ell in range(2, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lambda_crit(0)


class TestExitMgf:
    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 10])
    def test_value_one_at_zero(self, ell):
        assert exit_mgf_closed(ell, 0.0) == 1.0

    def test_single_cell_exit_is_deterministic(self):
        # from the middle of a width-one interval the walk exits in one step
        assert exit_mgf_closed(1, 0.7) == pytest.approx(math.exp(0.7), abs=1e-15)
        assert exit_mgf_dp(1, 0.7) == pytest.approx(math.exp(0.7), abs=1e-15)

    @pytest.mark.parametrize("ell", [1, 2])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3])
    def test_series_matches_linear_system_oracle_on_short_corridors(self, ell, lam):
        # width one exits on the first step; width three only on odd steps
        assert exit_mgf_dp(ell, lam) == pytest.approx(
            oracles.exit_mgf_linear_system(ell, lam), abs=1e-12
        )

    @pytest.mark.parametrize("ell", [2, 3, 5])
    @pytest.mark.parametrize("frac", [0.5, 0.9])
    def test_closed_form_matches_series(self, ell, frac):
        lam = frac * lambda_crit(ell)
        assert exit_mgf_dp(ell, lam) == pytest.approx(
            exit_mgf_closed(ell, lam), abs=1e-10
        )

    @pytest.mark.parametrize("ell", [2, 3, 5])
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_closed_form_matches_linear_system_oracle(self, ell, frac):
        lam = frac * lambda_crit(ell)
        assert exit_mgf_closed(ell, lam) == pytest.approx(
            oracles.exit_mgf_linear_system(ell, lam), abs=1e-10
        )

    def test_frozen_values_near_criticality(self):
        assert exit_mgf_closed(2, 0.9 * lambda_crit(2)) == pytest.approx(
            MGF_2_AT_09, abs=1e-12
        )
        assert exit_mgf_closed(3, 0.9 * lambda_crit(3)) == pytest.approx(
            MGF_3_AT_09, abs=1e-12
        )
        assert exit_mgf_closed(5, 0.9 * lambda_crit(5)) == pytest.approx(
            MGF_5_AT_09, abs=1e-12
        )

    @pytest.mark.parametrize("ell", [2, 4, 7])
    def test_derivative_at_zero_is_mean_exit_time(self, ell):
        # E[sigma] from site 1 of [0, 2 ell] is 1 * (2 ell - 1)
        lam = 1e-8
        mean = (exit_mgf_closed(ell, lam) - 1.0) / lam
        assert mean == pytest.approx(2 * ell - 1, rel=1e-4)

    def test_monotone_in_lambda(self):
        lams = np.linspace(0.0, 0.95 * lambda_crit(4), 12)
        vals = [exit_mgf_closed(4, lam) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_closed_form_rejects_critical_and_beyond(self):
        for lam in (lambda_crit(3), 1.01 * lambda_crit(3), -0.1):
            with pytest.raises(DomainError):
                exit_mgf_closed(3, lam)

    def test_series_converges_next_to_criticality(self):
        # tens of thousands of terms: growth**k alone would overflow
        # while the rescaled mass underflows
        lam = 0.999 * lambda_crit(2)
        assert exit_mgf_dp(2, lam) == pytest.approx(exit_mgf_closed(2, lam), rel=1e-10)

    def test_series_rejects_critical_and_beyond(self):
        with pytest.raises(DomainError):
            exit_mgf_dp(3, lambda_crit(3) + 1e-3)
        with pytest.raises(DomainError):
            exit_mgf_dp(3, -0.1)

    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            exit_mgf_closed(0, 0.1)
        with pytest.raises(DomainError):
            exit_mgf_dp(0, 0.1)


class TestSubcriticalBound:
    def test_frozen_constants(self):
        assert c1_const(0.05) == pytest.approx(C1_005, abs=1e-12)
        assert c1_const(0.1) == pytest.approx(C1_010, abs=1e-12)
        assert c1_const(0.2) == pytest.approx(C1_020, abs=1e-12)

    def test_lambda_eps_formula(self):
        for eps in (0.05, 0.1, 0.2):
            for ell in (5, 10, 50, 200):
                expected = (1 - eps) ** 2 * math.pi**2 / (8.0 * ell**2)
                assert lambda_eps(eps, ell) == pytest.approx(expected, abs=1e-18)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("ell", [5, 10, 50, 200])
    def test_mgf_bound_holds(self, eps, ell):
        lam = lambda_eps(eps, ell)
        assert lam < lambda_crit(ell)
        assert exit_mgf_closed(ell, lam) < 1.0 + c1_const(eps) / ell

    def test_validation(self):
        for eps in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                c1_const(eps)
            with pytest.raises(DomainError):
                lambda_eps(eps, 5)
        with pytest.raises(DomainError):
            lambda_eps(0.1, 0)


class TestFits:
    def test_ols_recovers_exact_line(self):
        xs = np.linspace(1.0, 9.0, 14)
        ys = 3.0 * xs - 2.0
        fit = ols_fit(xs, ys, target=1.23)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(-2.0, abs=1e-12)
        assert fit.max_residual < 1e-12
        assert np.max(np.abs(fit.residuals())) == fit.max_residual
        assert fit.target == 1.23

    def test_ols_validation(self):
        with pytest.raises(DomainError):
            ols_fit([1.0], [2.0])
        with pytest.raises(DomainError):
            ols_fit([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            ols_fit([1.0, 2.0], [1.0, math.nan])
        with pytest.raises(DomainError):
            ols_fit([1.0, 2.0], [1.0, -math.inf])

    def test_exponent_fit_recovers_pure_power(self):
        ns = np.array([2.0**k for k in range(6, 14)])
        fit = fit_exponent(ns, -(ns**0.4))
        assert fit.slope == pytest.approx(0.4, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_exponent_fit_with_slowly_varying_correction(self):
        ns = np.array([2.0**k for k in range(8, 14)])
        lps = -(ns ** (2.0 / 3.0)) * (1.0 + 1.0 / np.log(ns))
        fit = fit_exponent(ns, lps)
        assert 0.6 < fit.slope < 0.75

    def test_exponent_fit_rejects_nonnegative_logs(self):
        with pytest.raises(DomainError):
            fit_exponent([4.0, 8.0], [-1.0, 0.0])

    def test_lnln_constant_recovers_exact_plateau(self):
        ns = np.array([2.0**k for k in range(6, 14)])
        c = 2.75
        lps = -c * ns / np.log(ns) ** 2
        fit = fit_constant_lnln(ns, lps, alpha=0.5)
        assert np.max(np.abs(fit.ys + c)) < 1e-12
        assert fit.target == pytest.approx(NEG_PI_LOG2_SQ_OVER_4, abs=1e-15)

    def test_lnln_constant_removes_exponential_part(self):
        ns = np.array([2.0**k for k in range(6, 14)])
        c, rate0 = 1.5, 0.02
        lps = -2.0 * rate0 * ns - c * ns / np.log(ns) ** 2
        fit = fit_constant_lnln(ns, lps, alpha=0.5, rate0=rate0)
        assert np.max(np.abs(fit.ys + c)) < 1e-10
        assert fit.target == pytest.approx(NEG_PI_LOG2_SQ, abs=1e-15)

    def test_lnln_constant_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            fit_constant_lnln([4.0, 8.0], [-1.0, -2.0], alpha=0.5, rate0=-0.1)

    def test_lnln_target_values(self):
        assert lnln_target(0.5) == pytest.approx(NEG_PI_LOG2_SQ_OVER_4, abs=1e-15)
        assert lnln_target(0.5, rate_removed=True) == pytest.approx(
            NEG_PI_LOG2_SQ, abs=1e-15
        )
        # halving gamma quadruples the magnitude
        assert lnln_target(0.5, gamma=0.5) == pytest.approx(
            NEG_PI_LOG2_SQ, abs=1e-15
        )
        assert lnln_target(0.3, gamma=1.0) == pytest.approx(
            -((math.pi * math.log(0.3)) ** 2) / 4.0, abs=1e-15
        )

    def test_lnln_target_validation(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                lnln_target(alpha)
        with pytest.raises(DomainError):
            lnln_target(0.5, gamma=0.0)
        with pytest.raises(DomainError):
            lnln_target(0.5, gamma=1.5)
