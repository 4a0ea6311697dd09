"""Exact DP kernels against enumeration oracles, closed forms, and each other."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import NESTLING_K2, homogeneous_env
from rwre import (
    DegenerateBridgeError,
    DomainError,
    DpTable,
    Environment,
    IntervalSpec,
    OrderingError,
    ParityError,
    WindowTooSmallError,
    bridge_log_prob,
    bridge_max_quantile,
    confined_log_prob,
    exit_prob_closed_form,
    forward_table,
    hitting_cdf,
    max_disp_bridge_cdf,
    sample_environment,
)

# ln of the 20-step fair-walk return probability C(20,10)/2^20, frozen from
# an exact rational evaluation.
LOG_FAIR_RETURN_N10 = -1.7361522965964517491


def random_env(seed: int, lo: int, hi: int) -> Environment:
    """Hand-rolled irregular environment, independent of the package RNG."""
    rng = np.random.default_rng(seed)
    return Environment(lo, rng.uniform(0.15, 0.85, hi - lo + 1))


def envs_strategy(half_width: int = 10):
    n_sites = 2 * half_width + 1
    return st.builds(
        lambda vals: Environment(-half_width, np.array(vals)),
        st.lists(
            st.floats(0.05, 0.95), min_size=n_sites, max_size=n_sites
        ),
    )


class TestBridgeLogProb:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_two_step_closed_form(self, p):
        env = homogeneous_env(p, -2, 2)
        assert bridge_log_prob(env, 1) == pytest.approx(
            math.log(2 * p * (1 - p)), rel=1e-14
        )

    def test_fair_twenty_steps(self):
        env = homogeneous_env(0.5, -20, 20)
        assert bridge_log_prob(env, 10) == pytest.approx(
            LOG_FAIR_RETURN_N10, rel=1e-13
        )

    def test_zero_steps(self):
        assert bridge_log_prob(homogeneous_env(0.5, -1, 1), 0) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration(self, seed, n):
        env = random_env(seed, -2 * n, 2 * n)
        exact = oracles.bridge_probability(env, n)
        assert math.exp(bridge_log_prob(env, n)) == pytest.approx(
            exact, abs=1e-12
        )

    def test_window_requirement(self):
        env = homogeneous_env(0.5, -3, 3)
        with pytest.raises(WindowTooSmallError):
            bridge_log_prob(env, 2)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            bridge_log_prob(homogeneous_env(0.5, -2, 2), -1)

    @settings(max_examples=40, deadline=None)
    @given(envs_strategy(8), st.integers(1, 4))
    def test_enumeration_property(self, env, n):
        exact = oracles.bridge_probability(env, n)
        assert math.exp(bridge_log_prob(env, n)) == pytest.approx(
            exact, abs=1e-12
        )

    def test_forced_truncation_respects_reported_bound(self):
        env = sample_environment(NESTLING_K2, 11, -24, 24)
        lp = bridge_log_prob(env, 12)
        lp_tr, bound = bridge_log_prob(
            env, 12, truncation=1e-2, with_error_bound=True
        )
        assert bound > -np.inf  # the coarse floor really dropped mass
        assert lp_tr <= lp
        assert math.exp(lp) - math.exp(lp_tr) <= math.exp(bound)

    def test_truncation_off_is_exact(self):
        env = sample_environment(NESTLING_K2, 11, -24, 24)
        lp = bridge_log_prob(env, 12)
        lp0, bound0 = bridge_log_prob(env, 12, truncation=0.0, with_error_bound=True)
        assert lp0 == lp
        assert bound0 == -np.inf


class TestConfinedLogProb:
    def test_tightest_interval_impossible(self):
        env = homogeneous_env(0.5, -2, 2)
        assert confined_log_prob(env, 1, 1) == -np.inf
        assert confined_log_prob(env, 6, 1) == -np.inf

    @pytest.mark.parametrize("require_bridge", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_enumeration(self, m, require_bridge):
        env = random_env(5, -6, 6)
        exact = oracles.confined_probability(env, 4, m, require_bridge)
        lp = confined_log_prob(env, 4, m, require_bridge=require_bridge)
        got = 0.0 if lp == -np.inf else math.exp(lp)
        assert got == pytest.approx(exact, abs=1e-12)

    def test_monotone_in_steps_and_threshold(self):
        env = random_env(9, -8, 8)
        for m in (2, 3, 5):
            lps = [confined_log_prob(env, s, m) for s in range(0, 13, 2)]
            assert all(a >= b - 1e-12 for a, b in zip(lps, lps[1:]))
        for steps in (4, 9):
            lps = [confined_log_prob(env, steps, m) for m in range(1, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(lps, lps[1:]))

    def test_parity_error(self):
        env = homogeneous_env(0.5, -4, 4)
        with pytest.raises(ParityError):
            confined_log_prob(env, 3, 2, require_bridge=True)

    def test_domain_errors(self):
        env = homogeneous_env(0.5, -4, 4)
        with pytest.raises(DomainError):
            confined_log_prob(env, -1, 2)
        with pytest.raises(DomainError):
            confined_log_prob(env, 4, 0)

    def test_wide_interval_equals_bridge(self):
        env = random_env(3, -12, 12)
        n = 3
        wide = confined_log_prob(env, 2 * n, n + 1, require_bridge=True)
        assert wide == pytest.approx(bridge_log_prob(env, n), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(envs_strategy(8), st.integers(1, 4), st.integers(1, 6))
    def test_enumeration_property(self, env, m, steps):
        exact = oracles.confined_probability(env, steps, m)
        lp = confined_log_prob(env, steps, m)
        got = 0.0 if lp == -np.inf else math.exp(lp)
        assert got == pytest.approx(exact, abs=1e-12)


class TestForwardTable:
    def test_unrestricted_mass_conserved_every_step(self):
        env = random_env(2, -15, 15)
        table = forward_table(env, 15)
        sums = table.row_mass_sums()
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_parity_pattern(self):
        env = random_env(2, -6, 6)
        table = forward_table(env, 6)
        for k in range(7):
            for x in range(table.site_lo, table.site_hi + 1):
                if (x - k) % 2 != 0:
                    assert table.log_at(k, x) == -np.inf

    def test_rows_match_enumeration(self):
        env = random_env(7, -5, 5)
        table = forward_table(env, 5)
        for k in (2, 5):
            for x in range(-k, k + 1):
                exact = oracles.event_probability(
                    env, k, lambda s, x=x: s[-1] == x
                )
                got = math.exp(table.log_at(k, x))
                assert got == pytest.approx(exact, abs=1e-12)

    def test_killing_interval_mass_decreases(self):
        env = random_env(4, -5, 5)
        table = forward_table(env, 12, IntervalSpec(-3, 3, "killing"))
        sums = table.row_mass_sums()
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(np.diff(sums) <= 1e-12)

    def test_absorbing_interval_conserves_mass(self):
        env = random_env(4, -5, 5)
        table = forward_table(env, 12, IntervalSpec(-3, 3, "absorbing"))
        sums = table.row_mass_sums()
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_absorbing_matches_exit_oracle(self):
        env = random_env(8, -4, 4)
        # 2000 steps leaves far less than 1e-13 interior mass on a width-6
        # interval, so the frozen boundary mass is the full exit probability
        table = forward_table(env, 2000, IntervalSpec(-3, 4, "absorbing"))
        absorbed_left = math.exp(table.log_at(2000, -3))
        exact = oracles.exit_prob_dp(env, -3, 0, 4)
        assert absorbed_left == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("steps", [2000, 20000])
    def test_absorbing_interior_equals_killing_table(self, steps):
        # both boundary behaviors share one rescaled propagation, so the
        # absorbing interior does not underflow on long horizons (at 20000
        # steps its log-mass is below -3900, past the smallest double)
        env = sample_environment(NESTLING_K2, 8, -4, 4)
        absorbing = forward_table(env, steps, IntervalSpec(-3, 4, "absorbing"))
        killing = forward_table(env, steps, IntervalSpec(-3, 4, "killing"))
        assert np.array_equal(absorbing.log_mass[:, 1:-1], killing.log_mass)

    def test_start_must_be_interior(self):
        env = random_env(4, -5, 5)
        with pytest.raises(OrderingError):
            forward_table(env, 4, IntervalSpec(-2, 2), start=2)

    def test_start_offset(self):
        env = random_env(4, -8, 8)
        table = forward_table(env, 3, start=2)
        assert math.exp(table.log_at(0, 2)) == 1.0
        exact = oracles.event_probability(
            env.shift(2), 3, lambda s: s[-1] == 1
        )
        assert math.exp(table.log_at(3, 3)) == pytest.approx(exact, abs=1e-13)


class TestDpTableValidation:
    def test_shape_checked(self):
        with pytest.raises(DomainError):
            DpTable("occupation", 2, -1, 1, np.zeros((2, 3)))

    def test_kind_checked(self):
        with pytest.raises(DomainError):
            DpTable("sideways", 2, -1, 1, np.zeros((3, 3)))

    def test_lookup_bounds(self):
        table = DpTable("occupation", 2, -1, 1, np.zeros((3, 3)))
        with pytest.raises(DomainError):
            table.log_at(3, 0)
        with pytest.raises(DomainError):
            table.log_at(0, 2)


class TestHittingCdf:
    @pytest.mark.parametrize("p", [0.3, 0.62])
    def test_one_step_right(self, p):
        env = homogeneous_env(p, -3, 3)
        cdf = hitting_cdf(env, 1, 3)
        assert cdf[0] == 0.0
        assert cdf[1] == pytest.approx(p, rel=1e-14)

    def test_origin_target_hits_immediately(self):
        env = homogeneous_env(0.5, -2, 2)
        assert np.all(hitting_cdf(env, 0, 5) == 1.0)

    @pytest.mark.parametrize("target", [-2, 2, -3])
    def test_matches_enumeration(self, target):
        env = random_env(6, -9, 9)
        cdf = hitting_cdf(env, target, 8)
        exact = oracles.hitting_cdf(env, target, 8)
        assert np.max(np.abs(cdf - exact)) < 1e-12

    def test_nondecreasing(self):
        env = random_env(6, -25, 25)
        cdf = hitting_cdf(env, 3, 25)
        assert np.all(np.diff(cdf) >= -1e-15)

    def test_negative_horizon(self):
        with pytest.raises(DomainError):
            hitting_cdf(homogeneous_env(0.5, -2, 2), 1, -1)

    def test_slowdown_exponent_diagnostic(self):
        # Survival past a slowly growing barrier under a right reflection:
        # theory predicts ln(-ln P(T_m > n)) ~ (1 - beta/kappa) ln n with
        # beta = 1/2 and kappa = 2 here, i.e. slope 3/4 up to strong
        # finite-size wobble; seed-averaging tames the wobble enough for a
        # wide band.  The log-domain killing table is used because the
        # linear-domain CDF cannot resolve survival below ~1e-16.
        ns = [2**k for k in range(8, 14)]
        lnln = []
        for n in ns:
            m = math.ceil(n**0.5)
            vals = []
            for seed in range(20):
                env = sample_environment(NESTLING_K2, seed, -1, m).reflect_plus()
                tab = forward_table(env, n, IntervalSpec(-1, m, "killing"))
                lp = float(np.logaddexp.reduce(tab.row(n)))
                vals.append(math.log(-lp))
            lnln.append(float(np.mean(vals)))
        slope = float(np.polyfit(np.log(ns), lnln, 1)[0])
        assert 0.5 < slope < 0.95


class TestMaxDispBridgeCdf:
    def test_two_step_bridge_mass_at_one(self):
        env = random_env(1, -3, 3)
        cdf = max_disp_bridge_cdf(env, 1)
        assert np.array_equal(cdf, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_enumeration(self, seed):
        env = random_env(seed, -12, 12)
        n = 3
        ms = np.arange(1, 2 * n + 2)
        cdf = max_disp_bridge_cdf(env, n)
        exact = oracles.max_disp_cdf(env, n, ms)
        assert np.max(np.abs(cdf - exact)) < 1e-12

    def test_shape_and_limits(self):
        env = random_env(8, -16, 16)
        cdf = max_disp_bridge_cdf(env, 4)
        assert cdf.size == 9  # default grid M = 1 .. 2n+1
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == 1.0
        assert np.all(cdf[4:] == 1.0)  # every M > n is certain

    def test_p_invariance(self):
        n = 20
        base = max_disp_bridge_cdf(homogeneous_env(0.5, -2 * n, 2 * n), n)
        other = max_disp_bridge_cdf(homogeneous_env(0.75, -2 * n, 2 * n), n)
        assert np.max(np.abs(base - other)) < 1e-10

    def test_custom_grid_validation(self):
        env = random_env(1, -8, 8)
        with pytest.raises(DomainError):
            max_disp_bridge_cdf(env, 2, m_values=np.array([0, 1]))
        with pytest.raises(DomainError):
            max_disp_bridge_cdf(env, 2, m_values=np.array([], dtype=np.int64))

    def test_degenerate_bridge_detected(self):
        env = Environment(-3, np.ones(7))  # every step forced right
        with pytest.raises(DegenerateBridgeError):
            max_disp_bridge_cdf(env, 1)


class TestBridgeMaxQuantile:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("seed,n", [(4, 3), (9, 6), (2, 10)])
    def test_agrees_with_cdf_scan(self, q, seed, n):
        env = random_env(seed, -2 * n, 2 * n)
        got = bridge_max_quantile(env, n, q)
        # P(max <= m | bridge) is the strict-below CDF evaluated at m + 1
        cdf_at = max_disp_bridge_cdf(env, n, m_values=np.arange(2, n + 2))
        expected = 1 + int(np.argmax(cdf_at >= q))
        assert got == expected

    def test_validation(self):
        env = random_env(4, -8, 8)
        with pytest.raises(DomainError):
            bridge_max_quantile(env, 2, 0.0)
        with pytest.raises(DomainError):
            bridge_max_quantile(env, 2, 1.0)
        with pytest.raises(DomainError):
            bridge_max_quantile(env, 0, 0.5)


class TestExitProbClosedForm:
    def test_fair_symmetric(self):
        env = homogeneous_env(0.5, -1, 1)
        assert exit_prob_closed_form(env, -1, 0, 1, first="a") == pytest.approx(
            0.5, rel=1e-15
        )
        assert exit_prob_closed_form(env, -1, 0, 1, first="b") == pytest.approx(
            0.5, rel=1e-15
        )

    @pytest.mark.parametrize("p", [0.35, 0.62, 0.9])
    @pytest.mark.parametrize("a,x,b", [(-3, 0, 4), (-1, 2, 5), (-6, -2, 1)])
    def test_gamblers_ruin(self, p, a, x, b):
        env = homogeneous_env(p, -6, 6)
        reach_b = exit_prob_closed_form(env, a, x, b, first="b")
        assert reach_b == pytest.approx(
            oracles.gamblers_ruin_reach_b_first(p, a, x, b), abs=1e-12
        )

    def test_random_env_against_absorbing_oracle(self):
        env = random_env(12, -5, 5)
        got = exit_prob_closed_form(env, -3, 0, 4, first="a")
        exact = oracles.exit_prob_dp(env, -3, 0, 4)
        assert got == pytest.approx(exact, abs=1e-13)

    def test_complementarity(self):
        env = random_env(13, -6, 6)
        for a, x, b in [(-5, 0, 5), (-2, 1, 6), (-6, -1, 2)]:
            left = exit_prob_closed_form(env, a, x, b, first="a")
            right = exit_prob_closed_form(env, a, x, b, first="b")
            assert abs(left + right - 1.0) < 1e-12

    def test_ordering_and_domain_errors(self):
        env = homogeneous_env(0.5, -4, 4)
        with pytest.raises(OrderingError):
            exit_prob_closed_form(env, 0, 0, 2)
        with pytest.raises(OrderingError):
            exit_prob_closed_form(env, 2, 1, 0)
        with pytest.raises(DomainError):
            exit_prob_closed_form(env, -1, 0, 1, first="c")

    def test_reflected_interior_rejected(self):
        env = homogeneous_env(0.5, -4, 4).reflect_plus()
        with pytest.raises(DomainError):
            exit_prob_closed_form(env, -2, 1, 3)  # omega_0 = 1 inside

    @settings(max_examples=50, deadline=None)
    @given(envs_strategy(6), st.integers(-5, -1), st.integers(1, 5))
    def test_complementarity_property(self, env, a, b):
        left = exit_prob_closed_form(env, a, 0, b, first="a")
        right = exit_prob_closed_form(env, a, 0, b, first="b")
        assert abs(left + right - 1.0) < 1e-12
