"""Tests for the bridge-path reweighting between a walk law and its
fair-site transform: the step-count statistic, the sandwich constants,
the pathwise log density, and the verifier of both over all bridges."""

import dataclasses
import math

import numpy as np
import pytest

from rwre import (
    ComReport,
    ComRow,
    DomainError,
    Environment,
    GapError,
    NotABridgeError,
    RegimeError,
    SiteDistribution,
    b_count,
    backward_table,
    bridge_log_prob,
    com_constants,
    mn_transform,
    rate_I0,
    rn_log_derivative,
    sample_bridge,
    sample_environment,
    verify_com_identity,
)
from rwre import measure_change

import oracles
from conftest import NON_NESTLING, homogeneous_env

THREE_POINT = SiteDistribution((0.6, 0.7, 0.8), (0.25, 0.25, 0.5))


def enumerate_bridges(n):
    """Every 2n-step origin-to-origin nearest-neighbour path."""
    for sites in oracles.iter_paths(2 * n):
        if sites[-1] == 0:
            yield sites


class TestBCount:
    def test_constant_environment_counts_zero(self):
        env = homogeneous_env(0.6, -6, 6)
        assert b_count(env, np.array([0, 1, 0, -1, 0])) == 0

    def test_path_entirely_above_minimum_counts_every_step(self):
        # window minimum 0.6 sits at the far left; the path never visits it
        omegas = np.array([0.6] + [0.8] * 10)
        env = Environment(-5, omegas)
        n = 3
        sites = np.array([0, 1, 2, 3, 2, 1, 0])
        assert b_count(env, sites) == 2 * n

    def test_counts_match_direct_recount_on_sampled_bridges(self):
        env = sample_environment(NON_NESTLING, 7, -12, 12)
        n = 5
        table = backward_table(env, n)
        for seed in range(20):
            path = sample_bridge(env, n, seed, table=table)
            manual = sum(
                1 for x in path[:-1] if env.omega(int(x)) > env.omega_min
            )
            assert b_count(env, path) == manual

    def test_accepts_path_object_and_raw_sites_identically(self):
        env = sample_environment(NON_NESTLING, 3, -8, 8)
        path = sample_bridge(env, 3, seed=1)
        assert b_count(env, path) == b_count(env, path.tolist())

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 1, 0, 1]),  # even number of sites
            np.array([1, 0, 1]),  # does not start at the origin
            np.array([0, 1, 2]),  # does not end at the origin
            np.array([0, 2, 0]),  # jump of size two
            np.array([0]),  # no steps at all
        ],
    )
    def test_rejects_non_bridges(self, bad):
        env = homogeneous_env(0.6, -6, 6)
        with pytest.raises(NotABridgeError):
            b_count(env, bad)


class TestComConstants:
    def test_two_point_law_collapses_to_exact_rational(self):
        c = com_constants(NON_NESTLING)
        # per-step factor at 0.8 is 0.2 + 0.8*(2/3) = 11/15; base 2*(1-0.6)
        assert c.c1 == pytest.approx(11.0 / 12.0, abs=1e-15)
        assert c.c2 == pytest.approx(11.0 / 12.0, abs=1e-15)
        assert c.c1 == c.c2
        assert c.rho_max == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert c.I0 == pytest.approx(-0.5 * math.log(4 * 0.6 * 0.4), abs=1e-15)

    def test_three_point_law_has_strictly_ordered_constants(self):
        c = com_constants(THREE_POINT)
        base = 2.0 * (1.0 - 0.6)
        g07 = (1.0 - 0.7) + 0.7 * (2.0 / 3.0)
        g08 = (1.0 - 0.8) + 0.8 * (2.0 / 3.0)
        assert 0.0 < c.c1 < c.c2 < 1.0
        assert c.c1 == pytest.approx(g08 / base, abs=1e-15)
        assert c.c2 == pytest.approx(g07 / base, abs=1e-15)

    def test_point_mass_above_half_has_no_gap(self):
        with pytest.raises(GapError):
            com_constants(SiteDistribution((0.7,), (1.0,)))

    @pytest.mark.parametrize(
        "support,weights",
        [
            ((0.25, 0.75), (0.1, 0.9)),  # minimum below one half
            ((0.5, 0.75), (0.5, 0.5)),  # minimum exactly one half
        ],
    )
    def test_rejects_laws_whose_minimum_is_not_above_half(self, support, weights):
        with pytest.raises(RegimeError):
            com_constants(SiteDistribution(support, weights))


class TestRnLogDerivative:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("env_seed", [0, 1, 2])
    def test_equals_log_ratio_of_path_probabilities(self, n, env_seed):
        env = sample_environment(NON_NESTLING, env_seed, -n - 2, n + 2)
        tilted = mn_transform(env)
        for sites in enumerate_bridges(n):
            lhs = rn_log_derivative(env, sites)
            ratio = math.log(
                oracles.path_probability(env, sites)
                / oracles.path_probability(tilted, sites)
            )
            assert lhs == pytest.approx(ratio, abs=1e-12)

    def test_three_point_law_ratio(self):
        env = sample_environment(THREE_POINT, 4, -6, 6)
        tilted = mn_transform(env)
        for sites in enumerate_bridges(2):
            lhs = rn_log_derivative(env, sites)
            ratio = math.log(
                oracles.path_probability(env, sites)
                / oracles.path_probability(tilted, sites)
            )
            assert lhs == pytest.approx(ratio, abs=1e-12)

    def test_path_on_minimal_sites_attains_the_zero_velocity_rate(self):
        # every visited site at omega_min makes the density exactly
        # exp(-2 n I0), the deepest value the sandwich allows
        env = homogeneous_env(0.6, -8, 8)
        n = 4
        sites = np.array([0, 1, 0, 1, 0, -1, 0, -1, 0])
        got = rn_log_derivative(env, sites, NON_NESTLING)
        assert got == pytest.approx(-2.0 * n * rate_I0(NON_NESTLING), abs=1e-12)

    def test_explicit_four_step_value(self):
        # sites 0 and 1 carry 0.6 and 0.8; path 0,1,0,1,0 takes two steps
        # from each, so the density is
        #   -2 ln(2/3) + 2 ln(0.6 * (2/3 + 2/3)) + 2 ln(0.8 * (1/4 + 2/3))
        env = Environment(-2, np.array([0.6, 0.8, 0.6, 0.8, 0.6]))
        sites = np.array([0, 1, 0, 1, 0])
        expected = (
            -2.0 * math.log(2.0 / 3.0)
            + 2.0 * math.log(0.6 * (2.0 / 3.0 + 2.0 / 3.0))
            + 2.0 * math.log(0.8 * (0.25 + 2.0 / 3.0))
        )
        got = rn_log_derivative(env, sites, NON_NESTLING)
        assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pathwise_sandwich_in_terms_of_step_counts(self, n):
        env = sample_environment(THREE_POINT, 9, -n - 2, n + 2)
        c = com_constants(THREE_POINT)
        for sites in enumerate_bridges(n):
            centred = rn_log_derivative(env, sites) + 2.0 * n * c.I0
            visits = b_count(env, sites)
            assert visits * math.log(c.c1) - 1e-12 <= centred
            assert centred <= visits * math.log(c.c2) + 1e-12

    def test_two_point_sandwich_is_an_identity(self):
        # with a single support value above the minimum the bracket closes:
        # the density is exactly exp(-2 n I0) * (11/12)^b_count
        env = sample_environment(NON_NESTLING, 2, -6, 6)
        c = com_constants(NON_NESTLING)
        n = 3
        for sites in enumerate_bridges(n):
            centred = rn_log_derivative(env, sites) + 2.0 * n * c.I0
            assert centred == pytest.approx(
                b_count(env, sites) * math.log(11.0 / 12.0), abs=1e-12
            )

    def test_requires_a_source_law(self):
        env = Environment(-3, np.full(7, 0.7))
        with pytest.raises(RegimeError):
            rn_log_derivative(env, np.array([0, 1, 0]))

    def test_rejects_nestling_law(self):
        dist = SiteDistribution((0.25, 0.75), (0.1, 0.9))
        env = sample_environment(dist, 0, -4, 4)
        with pytest.raises(RegimeError):
            rn_log_derivative(env, np.array([0, 1, 0]))

    def test_rejects_non_bridge(self):
        env = sample_environment(NON_NESTLING, 0, -4, 4)
        with pytest.raises(NotABridgeError):
            rn_log_derivative(env, np.array([0, 1, 2]))


class TestVerifyComIdentity:
    @pytest.mark.parametrize("m", [None, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("law", [NON_NESTLING, THREE_POINT], ids=["2pt", "3pt"])
    def test_four_sums_match_enumeration(self, law, n, m):
        env = sample_environment(law, n, -n - 1, n + 1)
        report = verify_com_identity(env, n, m=m, dist=law)
        row = report.rows[-1]
        assert row.event == ("bridge" if m is None else f"bridge_max_lt_{m}")
        exact = oracles.com_sums(env, n, m, env.omega_min, com_constants(law))
        got = (row.log_lhs, row.log_rhs, row.log_lower, row.log_upper)
        for g, e in zip(got, exact):
            assert abs(g - math.log(e)) <= 1e-12, (got, exact)
        assert report.ok()

    def test_bridge_row_matches_kernel_probability(self):
        n = 3
        env = sample_environment(NON_NESTLING, 1, -2 * n, 2 * n)
        (row,) = verify_com_identity(env, n).rows
        assert row.log_lhs == bridge_log_prob(env, n)

    def test_three_point_law_keeps_strict_bracket(self):
        env = sample_environment(THREE_POINT, 11, -4, 4)
        report = verify_com_identity(env, 3, dist=THREE_POINT)
        (row,) = report.rows
        assert report.ok()
        assert row.log_lower < row.log_lhs < row.log_upper

    @pytest.mark.parametrize(
        "law,seed,n,m",
        [
            (NON_NESTLING, 0, 1000, 20),
            (THREE_POINT, 0, 1000, 20),
            # log P ~ -4800: the deepest row, where an error growing like
            # (log P)^2 would show
            (THREE_POINT, 5, 4000, 2),
        ],
    )
    def test_identity_holds_at_large_n(self, law, seed, n, m):
        env = sample_environment(law, seed, -n, n)
        report = verify_com_identity(env, n, m=m, dist=law)
        assert report.ok()
        for row in report.rows:
            assert math.isfinite(row.log_lhs)
            assert row.log_lower <= row.log_upper

    def test_ok_tolerance_grows_with_the_step_count_and_the_depth(self):
        def row(v, depth=0.0):
            return ComRow("bridge", -depth, v - depth, -depth, -depth, v)

        assert ComReport(3, (row(1e-12),)).ok()
        assert not ComReport(3, (row(2e-12),)).ok()
        assert ComReport(1000, (row(2e-12),)).ok()
        assert not ComReport(1000, (row(3e-12),)).ok()
        # 1e-12 + (6 + 4000) 2**-50 = 4.56e-12: linear in the depth
        assert ComReport(3, (row(4.5e-12, 4000.0),)).ok()
        assert not ComReport(3, (row(4.6e-12, 4000.0),)).ok()
        assert not ComReport(3, (row(1e-10, 4000.0),)).ok()
        # an impossible event has no depth to round
        assert not ComReport(3, (ComRow("x", -math.inf, 0.0, 0.0, 0.0, math.inf),)).ok()

    def test_impossible_corridor_gives_a_minus_inf_row(self):
        # max |X| < 1 pins the walk to the origin, which it must leave
        env = sample_environment(NON_NESTLING, 0, -3, 3)
        report = verify_com_identity(env, 2, m=1)
        row = report.rows[1]
        assert row.log_lhs == row.log_rhs == row.log_lower == row.log_upper == -math.inf
        assert row.violation == 0.0
        assert report.ok()

    @pytest.mark.parametrize("extra", [1, 2, 40])
    def test_corridor_wider_than_the_bridge_is_the_bridge(self, extra):
        n = 5
        env = sample_environment(THREE_POINT, 2, -60, 60)
        bridge, corridor = verify_com_identity(env, n, m=n + extra, dist=THREE_POINT).rows
        assert corridor.event == f"bridge_max_lt_{n + extra}"
        assert dataclasses.replace(corridor, event="bridge") == bridge

    @pytest.mark.parametrize("n", [3, 100, 1000])
    def test_swapped_sandwich_constants_fail(self, n, monkeypatch):
        consts = com_constants(THREE_POINT)
        swapped = dataclasses.replace(consts, c1=consts.c2, c2=consts.c1)
        env = sample_environment(THREE_POINT, 0, -n, n)
        assert verify_com_identity(env, n, m=2, dist=THREE_POINT).ok()
        monkeypatch.setattr(measure_change, "com_constants", lambda law: swapped)
        assert not verify_com_identity(env, n, m=2, dist=THREE_POINT).ok()

    @pytest.mark.parametrize("n", [3, 100, 1000])
    @pytest.mark.parametrize("law", [NON_NESTLING, THREE_POINT], ids=["2pt", "3pt"])
    def test_perturbed_rho_max_fails(self, law, n, monkeypatch):
        consts = com_constants(law)
        nudged = dataclasses.replace(consts, rho_max=consts.rho_max * (1.0 + 1e-9))
        env = sample_environment(law, 0, -n, n)
        monkeypatch.setattr(measure_change, "com_constants", lambda law: nudged)
        assert not verify_com_identity(env, n, m=2, dist=law).ok()

    def test_runs_past_the_old_enumeration_limit(self):
        env = sample_environment(NON_NESTLING, 0, -9, 9)
        assert verify_com_identity(env, 9, m=2).ok()

    @pytest.mark.parametrize("n,m", [(0, None), (-1, None), (1.5, None), (2, 0), (2, True)])
    def test_rejects_bad_sizes(self, n, m):
        env = sample_environment(NON_NESTLING, 0, -10, 10)
        with pytest.raises(DomainError):
            verify_com_identity(env, n, m=m)

    def test_requires_a_source_law(self):
        env = Environment(-3, np.full(7, 0.7))
        with pytest.raises(RegimeError):
            verify_com_identity(env, 2)
