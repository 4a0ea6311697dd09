"""Distribution-level constants, regime classification, and environments."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    FAIR,
    MARGINAL,
    NESTLING_K1,
    NESTLING_K2,
    NON_NESTLING,
    homogeneous_env,
    step_table_cells,
)
from rwre import environment
from rwre import (
    DomainError,
    Environment,
    Regime,
    RegimeError,
    SiteDistribution,
    WindowTooSmallError,
    annealed_backtrack_bound,
    b_count,
    backward_table,
    bridge_log_prob,
    bridge_max_quantile,
    classify,
    confined_log_prob,
    exit_prob_closed_form,
    hitting_cdf,
    max_disp_bridge_cdf,
    max_disp_samples,
    mn_transform,
    mn_transform_law,
    rate_I0,
    rn_log_derivative,
    sample_bridge,
    sample_bridge_paths,
    sample_environment,
    solve_kappa,
    speed,
    verify_com_identity,
)

# Reference values frozen from 50-digit evaluations of the defining
# formulas (mpmath), rounded to double precision.
RATE_AT_06 = 0.020410997260127564777  # -0.5*ln(4*0.6*0.4)
RATE_AT_075 = 0.14384103622589046372  # -0.5*ln(0.75)
KAPPA_TILTED = 0.73060400285128863009  # ln(13/7)/ln(7/3), see test below


def dists_strategy():
    """Random valid distributions with 1-3 support points."""

    @st.composite
    def build(draw):
        k = draw(st.integers(1, 3))
        vals = draw(
            st.lists(
                st.floats(0.02, 0.98),
                min_size=k,
                max_size=k,
                unique_by=lambda v: round(v, 6),
            )
        )
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        total = sum(raw)
        return SiteDistribution(tuple(vals), tuple(w / total for w in raw))

    return build()


class TestSiteDistributionValidation:
    def test_empty_support(self):
        with pytest.raises(DomainError):
            SiteDistribution(support=(), weights=())

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            SiteDistribution(support=(0.3, 0.7), weights=(1.0,))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_support_outside_open_interval(self, bad):
        with pytest.raises(DomainError):
            SiteDistribution(support=(bad,), weights=(1.0,))

    def test_duplicate_support(self):
        with pytest.raises(DomainError):
            SiteDistribution(support=(0.4, 0.4), weights=(0.5, 0.5))

    def test_nonpositive_weight(self):
        with pytest.raises(DomainError):
            SiteDistribution(support=(0.3, 0.7), weights=(1.0, 0.0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            SiteDistribution(support=(0.3, 0.7), weights=(0.6, 0.6))

    def test_input_order_is_normalized(self):
        d = SiteDistribution(support=(0.75, 0.25), weights=(0.9, 0.1))
        assert d.support == (0.25, 0.75)
        assert d.weights == (0.1, 0.9)
        assert d.canonical_id() == NESTLING_K2.canonical_id()

    def test_derived_quantities(self):
        assert NESTLING_K2.omega_min == 0.25
        assert NESTLING_K2.alpha == 0.1
        assert NESTLING_K2.rho_max == 3.0
        assert math.isclose(NESTLING_K2.mean_rho, 0.6, rel_tol=1e-14)
        assert NESTLING_K2.eta == 0.5
        assert NON_NESTLING.eta == pytest.approx(0.2, abs=1e-15)
        assert math.isclose(NON_NESTLING.rho_max, 2 / 3, rel_tol=1e-15)
        assert FAIR.eta == 0.0

    def test_canonical_id_distinguishes(self):
        assert len(NESTLING_K2.canonical_id()) == 12
        assert NESTLING_K2.canonical_id() != NON_NESTLING.canonical_id()


class TestClassify:
    def test_nestling_example(self):
        rc = classify(NESTLING_K2)
        assert rc.tag is Regime.NESTLING
        assert rc.alpha == 0.1
        assert rc.eta == 0.0
        assert rc.supported

    def test_marginal_example(self):
        rc = classify(MARGINAL)
        assert rc.tag is Regime.MARGINALLY_NESTLING
        assert rc.alpha == 0.5
        assert rc.supported

    def test_non_nestling_example(self):
        rc = classify(NON_NESTLING)
        assert rc.tag is Regime.NON_NESTLING
        assert rc.alpha == 0.5
        assert rc.eta == pytest.approx(0.2, abs=1e-15)
        assert rc.supported

    def test_not_transient(self):
        assert classify(FAIR).tag is Regime.NOT_TRANSIENT
        balanced = SiteDistribution(support=(1 / 3, 2 / 3), weights=(0.5, 0.5))
        assert classify(balanced).tag is Regime.NOT_TRANSIENT

    def test_left_transient_is_not_transient(self):
        left = SiteDistribution(support=(0.3,), weights=(1.0,))
        assert classify(left).tag is Regime.NOT_TRANSIENT

    def test_point_mass_above_half_flagged_unsupported(self):
        rc = classify(SiteDistribution(support=(0.75,), weights=(1.0,)))
        assert rc.tag is Regime.NON_NESTLING
        assert not rc.supported
        assert "alpha" in rc.detail

    @settings(max_examples=200, deadline=None)
    @given(dists_strategy())
    def test_total_and_consistent(self, dist):
        rc = classify(dist)
        assert rc.tag in (
            Regime.NESTLING,
            Regime.MARGINALLY_NESTLING,
            Regime.NON_NESTLING,
            Regime.NOT_TRANSIENT,
        )
        if rc.tag is Regime.NOT_TRANSIENT:
            assert dist.mean_log_rho >= -1e-12
        else:
            assert dist.mean_log_rho < 0
            if rc.tag is Regime.NESTLING:
                assert dist.omega_min < 0.5
            elif rc.tag is Regime.MARGINALLY_NESTLING:
                assert dist.omega_min == 0.5
                assert 0.0 < rc.alpha < 1.0
            else:
                assert dist.omega_min > 0.5


class TestSolveKappa:
    def test_reference_distribution_root_is_two(self):
        assert abs(solve_kappa(NESTLING_K2) - 2.0) <= 1e-9

    def test_root_against_high_precision_oracle(self):
        dist = SiteDistribution(support=(0.3, 0.7), weights=(0.35, 0.65))
        k = solve_kappa(dist)
        k_mp = oracles.solve_kappa_mp(dist.support, dist.weights)
        assert math.isclose(k, k_mp, rel_tol=1e-12)
        assert math.isclose(k, KAPPA_TILTED, rel_tol=1e-12)
        # closed form: with t = (7/3)^kappa the root equation is quadratic
        assert math.isclose(k, math.log(13 / 7) / math.log(7 / 3), rel_tol=1e-12)

    def test_unit_root(self):
        assert abs(solve_kappa(NESTLING_K1) - 1.0) <= 1e-9

    def test_defining_equation_satisfied(self):
        for dist in (NESTLING_K2, NESTLING_K1):
            k = solve_kappa(dist)
            moment = float(np.dot(dist.weights_array, dist.rhos**k))
            assert abs(moment - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "dist",
        [
            MARGINAL,
            NON_NESTLING,
            FAIR,
            # balanced two-point law: E[ln rho] = 0, so no positive root
            SiteDistribution(support=(1 / 3, 2 / 3), weights=(0.5, 0.5)),
        ],
    )
    def test_regime_error_outside_nestling(self, dist):
        with pytest.raises(RegimeError):
            solve_kappa(dist)

    @settings(max_examples=60, deadline=None)
    @given(dists_strategy())
    def test_root_property(self, dist):
        if classify(dist).tag is not Regime.NESTLING:
            return
        k = solve_kappa(dist)
        assert k > 0
        moment = float(np.dot(dist.weights_array, dist.rhos**k))
        assert abs(moment - 1.0) <= 1e-9


class TestSpeed:
    def test_reference_distribution(self):
        assert math.isclose(speed(NESTLING_K2), 0.25, rel_tol=1e-12)

    def test_homogeneous_biased(self):
        pm = SiteDistribution(support=(0.75,), weights=(1.0,))
        assert math.isclose(speed(pm), 0.5, rel_tol=1e-12)

    def test_zero_branch(self):
        slow = SiteDistribution(support=(0.25, 0.8), weights=(5 / 11, 6 / 11))
        assert math.isclose(slow.mean_rho, 1.5, rel_tol=1e-14)
        assert speed(slow) == 0.0
        assert speed(NESTLING_K1) == 0.0

    def test_not_transient_raises(self):
        with pytest.raises(RegimeError):
            speed(FAIR)

    @settings(max_examples=100, deadline=None)
    @given(dists_strategy())
    def test_sign_matches_mean_rho(self, dist):
        rc = classify(dist)
        if rc.tag is Regime.NOT_TRANSIENT:
            return
        v = speed(dist)
        assert v >= 0.0
        if dist.mean_rho < 1.0 - 1e-12:
            assert v > 0.0
        elif dist.mean_rho >= 1.0:
            assert v == 0.0


class TestRateI0:
    def test_non_nestling_value(self):
        assert math.isclose(rate_I0(NON_NESTLING), RATE_AT_06, rel_tol=1e-13)

    def test_point_mass_value(self):
        pm = SiteDistribution(support=(0.75,), weights=(1.0,))
        assert math.isclose(rate_I0(pm), RATE_AT_075, rel_tol=1e-13)

    def test_zero_in_sub_ballistic_regimes(self):
        assert rate_I0(MARGINAL) == 0.0
        assert rate_I0(NESTLING_K2) == 0.0

    def test_not_transient_raises(self):
        with pytest.raises(RegimeError):
            rate_I0(FAIR)


class TestBacktrackBound:
    def test_cap_at_one(self):
        pm = SiteDistribution(support=(0.625,), weights=(1.0,))  # E[rho] = 0.6
        assert annealed_backtrack_bound(pm, 0) == 1.0

    def test_exact_geometric_value(self):
        pm = SiteDistribution(support=(0.625,), weights=(1.0,))
        assert annealed_backtrack_bound(pm, 20) == pytest.approx(
            0.6**20 / 0.4, rel=1e-14
        )

    def test_regime_error_when_mean_rho_large(self):
        balanced = SiteDistribution(support=(0.3, 0.7), weights=(0.5, 0.5))
        assert balanced.mean_rho >= 1.0
        with pytest.raises(RegimeError):
            annealed_backtrack_bound(balanced, 3)

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            annealed_backtrack_bound(NON_NESTLING, -1)

    @pytest.mark.parametrize("x", [5, 10, 20])
    def test_bound_dominates_monte_carlo(self, x):
        bound = annealed_backtrack_bound(NON_NESTLING, x)
        p_hat, se = oracles.backtrack_mc(NON_NESTLING, x, 100_000, seed=2024 + x)
        assert p_hat <= bound + 4.0 * se


class TestSampleEnvironment:
    def test_window_independence(self):
        a = sample_environment(NESTLING_K2, 7, -10, 10)
        b = sample_environment(NESTLING_K2, 7, 0, 100)
        for x in range(0, 11):
            assert a.omega(x) == b.omega(x)

    def test_point_mass(self):
        env = sample_environment(SiteDistribution((0.75,), (1.0,)), 3, -5, 5)
        assert np.all(env.omegas == 0.75)

    def test_seed_changes_draws(self):
        a = sample_environment(NESTLING_K2, 1, 0, 200)
        b = sample_environment(NESTLING_K2, 2, 0, 200)
        assert np.any(a.omegas != b.omegas)

    def test_empirical_alpha(self):
        env = sample_environment(NESTLING_K2, 99, 0, 10**6 - 1)
        freq = float(np.mean(env.omegas == 0.25))
        se = math.sqrt(0.1 * 0.9 / 10**6)
        assert abs(freq - 0.1) <= 4.0 * se

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            sample_environment(NESTLING_K2, 0, 5, 4)
        with pytest.raises(DomainError):
            sample_environment(NESTLING_K2, -1, 0, 1)
        with pytest.raises(DomainError):
            sample_environment(NESTLING_K2, 2**64, 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_environment(NESTLING_K2, seed, -2, 2)

    def test_numpy_integer_seed_is_the_same_environment(self):
        a = sample_environment(NESTLING_K2, np.uint64(2**64 - 1), -4, 4)
        b = sample_environment(NESTLING_K2, 2**64 - 1, -4, 4)
        assert np.array_equal(a.omegas, b.omegas)

    @pytest.mark.parametrize("bad", [1.5, -1.5, 2.0, "3", None, True])
    def test_non_integer_site_bound_rejected(self, bad):
        with pytest.raises(DomainError, match="integer site"):
            sample_environment(NESTLING_K2, 0, bad, 3)
        with pytest.raises(DomainError, match="integer site"):
            sample_environment(NESTLING_K2, 0, -3, bad)
        with pytest.raises(DomainError, match="integer site"):
            Environment(bad, np.full(3, 0.5))

    def test_numpy_integer_site_bounds_are_the_same_window(self):
        a = sample_environment(NESTLING_K2, 5, np.int32(-4), np.int64(4))
        b = sample_environment(NESTLING_K2, 5, -4, 4)
        assert type(a.offset) is int and (a.lo, a.hi) == (-4, 4)
        assert np.array_equal(a.omegas, b.omegas)
        assert type(Environment(np.int64(-2), np.full(3, 0.5)).offset) is int


# A law of 1024 equally likely values: each site shows 10 bits of its draw.
FINE_LAW = SiteDistribution(
    tuple((i + 0.5) / 1024 for i in range(1024)), (1 / 1024,) * 1024
)
PHILOX_KEYS = (0, 1, 2**32, 2**63, 2**64 - 1)
# first sites with every residue mod 4; -2^62 is draw position 0
FIRST_SITES = (-(2**62), -(2**62) + 3, -32767, -2, 0, 5, 123457, 2**40 + 2)
CAP = environment._INLINE_DRAWS_MAX


def philox_reference(seed, lo, hi):
    """Uniforms of sites ``lo..hi`` from numpy's own Philox generator."""
    blocks, rem = divmod(lo + 2**62, 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(blocks)
    return np.random.Generator(bitgen).random(rem + hi - lo + 1)[rem:]


class TestPhiloxStream:
    """The in-package Philox4x64-10 against ``np.random.Philox``."""

    @pytest.fixture
    def reference(self, monkeypatch):
        """``sample_environment`` forced onto the ``np.random.Philox`` path."""

        def draw(seed, lo, hi):
            with monkeypatch.context() as m:
                m.setattr(environment, "_INLINE_DRAWS_MAX", 0)
                return sample_environment(FINE_LAW, seed, lo, hi).omegas

        return draw

    @pytest.mark.parametrize("seed", PHILOX_KEYS)
    def test_matches_numpys_philox(self, seed, reference):
        for lo in FIRST_SITES:
            rem = (lo + 2**62) % 4
            for length in (1, 2, 3, 4, 5, CAP - rem - 1, CAP - rem, CAP - rem + 1):
                hi = lo + length - 1
                ours = environment._philox_uniforms(seed, (lo + 2**62) // 4, rem + length)
                assert np.array_equal(ours[rem:], philox_reference(seed, lo, hi)), (lo, length)
                env = sample_environment(FINE_LAW, seed, lo, hi)
                assert np.array_equal(env.omegas, reference(seed, lo, hi)), (lo, length)

    def test_cap_routes_by_draw_count(self, monkeypatch):
        calls = []
        inline = environment._philox_uniforms

        def spy(key, block, count):
            calls.append(count)
            return inline(key, block, count)

        monkeypatch.setattr(environment, "_philox_uniforms", spy)
        sample_environment(FINE_LAW, 3, 1, CAP - 1)  # draw positions 2^62 + 1..
        sample_environment(FINE_LAW, 3, 1, CAP)
        assert calls == [CAP]

    def test_window_straddling_the_low_counter_word(self, monkeypatch):
        # blocks 2^64 - 1 and 2^64 carry into the counter's second word
        lo = 2**66 - 2**62 - 8
        monkeypatch.setattr(environment, "_philox_uniforms", None)
        for seed in PHILOX_KEYS:
            env = sample_environment(FINE_LAW, seed, lo, lo + 15)
            ref = philox_reference(seed, lo, lo + 15)
            expected = FINE_LAW.support_array[(ref * 1024).astype(int)]
            assert np.array_equal(env.omegas, expected)

    def test_overlapping_windows_across_the_cap_agree(self):
        for seed in PHILOX_KEYS:
            small = sample_environment(FINE_LAW, seed, 0, CAP - 1)
            large = sample_environment(FINE_LAW, seed, -7, CAP + 7)
            assert np.array_equal(small.omegas, large.omegas[7 : 7 + CAP])


class TestEnvironmentAccess:
    def test_omega_and_window(self):
        env = homogeneous_env(0.5, -3, 3)
        assert (env.lo, env.hi) == (-3, 3)
        assert env.omega(2) == 0.5
        with pytest.raises(WindowTooSmallError):
            env.omega(4)
        with pytest.raises(WindowTooSmallError):
            env.omega(-4)
        with pytest.raises(WindowTooSmallError):
            env.slice(-3, 4)

    def test_explicit_validation(self):
        with pytest.raises(DomainError):
            Environment(0, np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            Environment(-2, np.array([0.5, 0.5, np.nan, 0.5, 0.5]))

    def test_slice(self):
        env = sample_environment(NESTLING_K2, 4, -5, 5)
        assert np.array_equal(env.slice(-2, 2), env.omegas[3:8])

    def test_reflections(self):
        env = sample_environment(NESTLING_K2, 4, -5, 5)
        plus = env.reflect_plus()
        assert plus.omega(0) == 1.0
        for x in (-3, -1, 1, 3):
            assert plus.omega(x) == env.omega(x)
        assert env.omega(0) < 1.0  # a copy: the original is unchanged
        with pytest.raises(WindowTooSmallError):
            homogeneous_env(0.5, 1, 5).reflect_plus()

    def test_reflect_plus_forces_first_step_right(self):
        env = homogeneous_env(0.5, -5, 5).reflect_plus()
        # one step from the origin goes right with probability omega_0 = 1
        assert env.omega(0) == 1.0

    def test_shift(self):
        env = sample_environment(NESTLING_K2, 4, -5, 5)
        shifted = env.shift(3)
        assert shifted.omega(-3) == env.omega(0)
        assert shifted.omega(0) == env.omega(3)
        assert (shifted.lo, shifted.hi) == (-8, 2)


# every site or count argument, with the others valid; v stands for it
INTEGER_ARGUMENTS = {
    "omega": lambda env, v: env.omega(v),
    "slice": lambda env, v: env.slice(v, 2),
    "slice_hi": lambda env, v: env.slice(-2, v),
    "shift": lambda env, v: env.shift(v),
    "bridge_log_prob": lambda env, v: bridge_log_prob(env, v),
    "confined_steps": lambda env, v: confined_log_prob(env, v, 2),
    "confined_M": lambda env, v: confined_log_prob(env, 4, v),
    "max_disp_bridge_cdf": lambda env, v: max_disp_bridge_cdf(env, v),
    "bridge_max_quantile": lambda env, v: bridge_max_quantile(env, v, 0.5),
    "hitting_target": lambda env, v: hitting_cdf(env, v, 2),
    "hitting_horizon": lambda env, v: hitting_cdf(env, 1, v),
    "exit_prob": lambda env, v: exit_prob_closed_form(env, -2, v, 2),
    "backward_table": lambda env, v: backward_table(env, v),
    "sample_bridge": lambda env, v: sample_bridge(env, v, 0),
    "n_samples": lambda env, v: max_disp_samples(env, 2, v, 0),
}


# every computation on a window, by the sites it reads
BRIDGE_PATH = [0, 1, 2, 1, 0, -1, 0]
READ_SITES = {
    "bridge_log_prob": (lambda env: bridge_log_prob(env, 3), (-3, 3)),
    "bridge_log_prob_n0": (lambda env: bridge_log_prob(env, 0), (0, 0)),
    "max_disp_bridge_cdf": (lambda env: max_disp_bridge_cdf(env, 3), (-3, 3)),
    "bridge_max_quantile": (lambda env: bridge_max_quantile(env, 3, 0.5), (-3, 3)),
    "backward_table": (lambda env: step_table_cells(backward_table(env, 3)), (-3, 3)),
    "sample_bridge": (lambda env: sample_bridge(env, 3, 0), (-3, 3)),
    "sample_bridge_paths": (lambda env: sample_bridge_paths(env, 3, 4, 0), (-3, 3)),
    "max_disp_samples": (lambda env: max_disp_samples(env, 3, 4, 0), (-3, 3)),
    "confined": (lambda env: confined_log_prob(env, 6, 3), (-2, 2)),
    "confined_bridge": (lambda env: confined_log_prob(env, 6, 3, True), (-2, 2)),
    "hitting_right": (lambda env: hitting_cdf(env, 2, 5), (-5, 1)),
    "hitting_left": (lambda env: hitting_cdf(env, -2, 5), (-1, 5)),
    "exit_prob": (lambda env: exit_prob_closed_form(env, -2, 0, 3), (-1, 2)),
    "verify_com_identity": (
        lambda env: [astuple(r)[1:] for r in verify_com_identity(env, 3, 2).rows], (-3, 3)
    ),
    "b_count": (lambda env: b_count(env, BRIDGE_PATH), (-1, 2)),
    "rn_log_derivative": (lambda env: rn_log_derivative(env, BRIDGE_PATH), (-1, 2)),
}


class TestReadSites:
    @pytest.mark.parametrize("call", sorted(READ_SITES))
    def test_window_of_the_read_sites_is_enough_and_needed(self, call):
        compute, (lo, hi) = READ_SITES[call]
        exact = compute(sample_environment(NON_NESTLING, 7, lo, hi))
        wide = compute(sample_environment(NON_NESTLING, 7, lo - 4, hi + 4))
        assert np.asarray(exact).tobytes() == np.asarray(wide).tobytes()
        for short in ((lo + 1, hi + 4), (lo - 4, hi - 1)):
            with pytest.raises(WindowTooSmallError):
                compute(sample_environment(NON_NESTLING, 7, *short))


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [1.5, 4.0, True, "2", None])
    @pytest.mark.parametrize("call", sorted(INTEGER_ARGUMENTS))
    def test_non_integers_raise_domain_error(self, call, bad):
        env = sample_environment(NESTLING_K2, 0, -8, 8)
        with pytest.raises(DomainError, match="integer"):
            INTEGER_ARGUMENTS[call](env, bad)

    @pytest.mark.parametrize("call", sorted(INTEGER_ARGUMENTS))
    def test_numpy_integers_are_accepted(self, call):
        env = sample_environment(NESTLING_K2, 0, -8, 8)
        got, want = INTEGER_ARGUMENTS[call](env, np.int32(1)), INTEGER_ARGUMENTS[call](env, 1)
        if isinstance(want, Environment):
            assert (got.lo, got.hi) == (want.lo, want.hi)
        elif call == "backward_table":
            assert type(got.n) is int and got.n == want.n
            assert np.array_equal(
                step_table_cells(got), step_table_cells(want), equal_nan=True
            )
        else:
            assert np.array_equal(got, want)


class TestMnTransform:
    def test_pointwise_values(self):
        env = sample_environment(NON_NESTLING, 8, -10, 10)
        tilted = mn_transform(env)
        for x in range(-10, 11):
            if env.omega(x) == 0.6:
                assert tilted.omega(x) == 0.5
            else:
                assert tilted.omega(x) == pytest.approx(8 / 11, rel=1e-15)

    def test_law_transform(self):
        law = mn_transform_law(NON_NESTLING)
        assert law.support[0] == 0.5
        assert law.support[1] == pytest.approx(8 / 11, rel=1e-15)
        assert law.weights == NON_NESTLING.weights

    def test_classifies_as_marginal_with_same_alpha(self):
        rc_before = classify(NON_NESTLING)
        rc_after = classify(mn_transform_law(NON_NESTLING))
        assert rc_after.tag is Regime.MARGINALLY_NESTLING
        assert rc_after.alpha == rc_before.alpha

    def test_monotone_in_omega(self):
        three = SiteDistribution((0.6, 0.7, 0.8), (0.4, 0.3, 0.3))
        law = mn_transform_law(three)
        assert law.support[0] < law.support[1] < law.support[2]

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            mn_transform_law(NESTLING_K2)
        with pytest.raises(RegimeError):
            mn_transform_law(MARGINAL)
        with pytest.raises(RegimeError):
            mn_transform(homogeneous_env(0.5, -2, 2))  # wrong regime

    def test_explicit_env_without_law_rejected(self):
        env = Environment(0, np.full(5, 0.7))
        with pytest.raises(RegimeError):
            mn_transform(env)
