"""Exact conditioned-path sampling: tables, single paths, batch statistics."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import oracles
from conftest import NESTLING_K2, NON_NESTLING, homogeneous_env
import rwre.sampling
from rwre import (
    BridgePath,
    DegenerateBridgeError,
    DomainError,
    Environment,
    NotABridgeError,
    b_count,
    backward_table,
    bridge_log_prob,
    max_disp_bridge_cdf,
    max_disp_samples,
    sample_bridge,
    sample_bridge_paths,
    sample_environment,
)


def random_env(seed: int, lo: int, hi: int):
    from rwre import Environment

    rng = np.random.default_rng(seed)
    return Environment(lo, rng.uniform(0.15, 0.85, hi - lo + 1))


class TestBackwardTable:
    """The reference log table the step table is folded from; cell
    ``[k, x + n + 1]`` is ``log P(X_{2n} = 0 | X_k = x)``."""

    def test_one_step_left_to_finish(self):
        env = random_env(3, -8, 8)
        n = 4
        h = oracles.backward_log_table(env, n)
        assert math.exp(h[2 * n - 1, 1 + n + 1]) == pytest.approx(
            1.0 - env.omega(1), rel=1e-14
        )
        assert math.exp(h[2 * n - 1, -1 + n + 1]) == pytest.approx(
            env.omega(-1), rel=1e-14
        )

    def test_root_matches_bridge_probability(self):
        env = random_env(7, -12, 12)
        for n in (1, 3, 6):
            h = oracles.backward_log_table(env, n)
            assert h[0, n + 1] == pytest.approx(bridge_log_prob(env, n), abs=1e-12)

    def test_unreachable_cells_are_impossible(self):
        env = random_env(7, -8, 8)
        n = 4
        h = oracles.backward_log_table(env, n)
        for k in range(2 * n + 1):
            for x in range(-n, n + 1):
                remaining = 2 * n - k
                if abs(x) > remaining or (x - k) % 2 != 0:
                    assert h[k, x + n + 1] == -np.inf

    def test_guard_columns_are_impossible(self):
        env = random_env(5, -10, 10)
        n = 5
        h = oracles.backward_log_table(env, n)
        assert np.all(h[:, 0] == -np.inf)
        assert np.all(h[:, 2 * n + 2] == -np.inf)

    def test_terminal_row(self):
        env = random_env(2, -6, 6)
        h = oracles.backward_log_table(env, 3)
        assert h[6, 0 + 4] == 0.0
        assert h[6, 2 + 4] == -np.inf

    def test_returns_the_step_table(self):
        env = random_env(2, -6, 6)
        table = backward_table(env, 3)
        assert table.n == 3
        assert table.p_right.shape == (6, 4)
        # the last step must go back to the origin: left from 1, right from -1
        assert table.p_right[5, 3] == 0.0
        assert table.p_right[5, 2] == 1.0

    def test_validation(self):
        env = random_env(2, -6, 6)
        with pytest.raises(DomainError):
            backward_table(env, 0)


def stream_digest(*arrays) -> str:
    """SHA-256 of integer arrays as little-endian int64, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.asarray(a, dtype="<i8").tobytes())
    return digest.hexdigest()


def folded_row(env, n, h, k):
    """Right-step probabilities of the cone sites of step k, by the
    per-sample expressions of the log-table sampler on a backward table."""
    om = env.slice(-n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = np.log(om), np.log1p(-om)
        c = min(k, 2 * n - k)
        i = np.arange(-c, c + 1, 2) + n
        here = h[k, i + 1]
        pr = np.exp(log_p[i] + h[k + 1, i + 2] - here)
        pl = np.exp(log_q[i] + h[k + 1, i] - here)
        return pr / (pr + pl)


class TestStepTable:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_cone_cells_match_the_backward_table_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        omegas = rng.uniform(0.05, 0.95, 4 * n + 1)
        # one-way sites put NaN cells (never visited) inside the cone
        omegas[rng.integers(0, 4 * n + 1, 2)] = 1.0
        omegas[2 * n] = 0.5
        envs = [
            Environment(-2 * n, omegas),
            sample_environment(NESTLING_K2, n, -2 * n, 2 * n),
            homogeneous_env(0.5, -2 * n, 2 * n),
        ]
        for env in envs:
            h = oracles.backward_log_table(env, n)
            p_right = backward_table(env, n).p_right
            for k in range(2 * n):
                lo, hi = max(0, k - n), min(k, n)
                expected = folded_row(env, n, h, k)
                assert np.array_equal(p_right[k, lo : hi + 1], expected, equal_nan=True)

    def test_degenerate_bridge_detected(self):
        env = Environment(-4, np.ones(9))  # every step forced right
        with pytest.raises(DegenerateBridgeError):
            backward_table(env, 2)
        with pytest.raises(DegenerateBridgeError):
            sample_bridge(env, 2, 0)

    def test_size_cap_matches_backward_table(self, monkeypatch):
        # the cap counts the (2n + 1) x (2n + 3) cells of the full log table
        env = random_env(3, -16, 16)
        monkeypatch.setattr(rwre.sampling, "_MAX_TABLE_ENTRIES", 17 * 19)
        backward_table(env, 8)
        monkeypatch.setattr(rwre.sampling, "_MAX_TABLE_ENTRIES", 17 * 19 - 1)
        with pytest.raises(DomainError, match="2n = 16 steps .* materialization cap"):
            backward_table(env, 8)
        with pytest.raises(DomainError, match="materialization cap"):
            sample_bridge(env, 8, 0)


class TestGoldenStream:
    """Digests recorded from the log-table sampler that preceded the step
    table; the same seeds must keep drawing the same bridges."""

    N = 64

    @pytest.fixture(scope="class")
    def env(self):
        return sample_environment(NESTLING_K2, 0, -128, 128)

    @pytest.mark.parametrize(
        "seed,paths_digest,maxdisp_digest",
        [
            (
                0,
                "05cbd7dd495759db66c6548a8578749105ce336051c424c5ff79ba35e4d99598",
                "46b2d013ec1b85ea60cfdc16a334ddb96439ee67672d38f832a09be6b77abcbd",
            ),
            (
                2**64 - 1,
                "4ce288a99dacde7cd7b824beff4f66965b4e7dd2317bf6a86efd4fc7a5f8a1f0",
                "fffcfb207a235eda09868f43e7e15cef3726751eba456bd3c724bc3af89487a4",
            ),
        ],
    )
    def test_batches(self, env, seed, paths_digest, maxdisp_digest):
        paths = sample_bridge_paths(env, self.N, 32, seed)
        assert stream_digest(paths) == paths_digest
        s = max_disp_samples(env, self.N, 32, seed)
        assert stream_digest(s.max_abs, s.b_counts) == maxdisp_digest

    @pytest.mark.parametrize(
        "seed,digest,max_abs,b",
        [
            (1, "12d823b5ee8e66fd976efd9db56f1d7f6e503819772652b623853eac2aca0bf5", 7, 88),
            (2, "3bf186fc7810723f7e22e5fc878c428eb135619a746cfa18322211feab4b655c", 5, 103),
            (3, "3253347d5c7fa66d73589e3ae50aae0c60f125c6bc49265b6d0e15f88d2b2a58", 5, 95),
        ],
    )
    def test_single_paths(self, env, seed, digest, max_abs, b):
        path = sample_bridge(env, self.N, seed)
        assert stream_digest(path.sites) == digest
        assert (path.max_abs, path.b_count) == (max_abs, b)

    def test_every_table_source_draws_the_same_paths(self, env):
        n = self.N
        sources = [None, backward_table(env, n)]
        batches = [sample_bridge_paths(env, n, 16, 11, table=t) for t in sources]
        singles = [sample_bridge(env, n, 12, table=t).sites for t in sources]
        draws = [max_disp_samples(env, n, 16, 13, table=t) for t in sources]
        assert np.array_equal(batches[1], batches[0])
        assert np.array_equal(singles[1], singles[0])
        assert np.array_equal(draws[1].max_abs, draws[0].max_abs)
        assert np.array_equal(draws[1].b_counts, draws[0].b_counts)

    def test_step_table_for_another_length_rejected(self, env):
        table = backward_table(env, self.N - 1)
        with pytest.raises(DomainError):
            sample_bridge(env, self.N, 0, table=table)
        with pytest.raises(DomainError):
            sample_bridge_paths(env, self.N, 2, 0, table=table)
        with pytest.raises(DomainError):
            max_disp_samples(env, self.N, 2, 0, table=table)


class TestSeedContract:
    @pytest.mark.parametrize("seed", [-1, 1.5, 2**64, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        env = random_env(2, -8, 8)
        with pytest.raises(DomainError, match="seed"):
            sample_bridge(env, 3, seed)
        with pytest.raises(DomainError, match="seed"):
            sample_bridge_paths(env, 3, 4, seed)
        with pytest.raises(DomainError, match="seed"):
            max_disp_samples(env, 3, 4, seed)

    def test_numpy_integer_seed_is_the_same_stream(self):
        env = random_env(2, -8, 8)
        top = 2**64 - 1
        assert np.array_equal(
            sample_bridge(env, 3, np.uint64(top)).sites, sample_bridge(env, 3, top).sites
        )
        assert np.array_equal(
            sample_bridge_paths(env, 3, 5, np.int64(7)), sample_bridge_paths(env, 3, 5, 7)
        )


class TestSampleBridge:
    def test_paths_are_valid_bridges(self):
        env = sample_environment(NESTLING_K2, 17, -16, 16)
        n = 8
        table = backward_table(env, n)
        for seed in range(25):
            path = sample_bridge(env, n, seed, table=table)
            sites = path.sites
            assert sites[0] == 0 and sites[-1] == 0
            assert np.all(np.abs(np.diff(sites)) == 1)
            assert path.max_abs == int(np.max(np.abs(sites)))
            assert 1 <= path.max_abs <= n
            assert path.b_count == b_count(env, path)

    def test_deterministic_in_seed(self):
        env = sample_environment(NESTLING_K2, 17, -8, 8)
        a = sample_bridge(env, 4, 123)
        b = sample_bridge(env, 4, 123)
        c = sample_bridge(env, 4, 124)
        assert np.array_equal(a.sites, b.sites)
        assert any(
            not np.array_equal(sample_bridge(env, 4, s).sites, a.sites)
            for s in range(125, 135)
        )
        assert c.seed == 124

    def test_table_reuse_matches_fresh_build(self):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        table = backward_table(env, 5)
        with_table = sample_bridge(env, 5, 77, table=table)
        without = sample_bridge(env, 5, 77)
        assert np.array_equal(with_table.sites, without.sites)

    def test_mismatched_table_rejected(self):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        with pytest.raises(DomainError):
            sample_bridge(env, 4, 0, table=backward_table(env, 5))

    def test_prebuilt_table_is_never_rebuilt(self, monkeypatch):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        n = 5
        table = backward_table(env, n)
        fresh = sample_bridge(env, n, 77).sites

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler rebuilt the step table")

        monkeypatch.setattr(rwre.sampling, "backward_table", refuse)
        assert np.array_equal(sample_bridge(env, n, 77, table=table).sites, fresh)
        assert sample_bridge_paths(env, n, 4, 3, table=table).shape == (4, 2 * n + 1)
        assert max_disp_samples(env, n, 4, 3, table=table).n_samples == 4
        # a log table or any other array is not a step table
        log_table = oracles.backward_log_table(env, n)
        with pytest.raises(DomainError, match="step table"):
            sample_bridge(env, n, 0, table=log_table)
        with pytest.raises(DomainError, match="step table"):
            sample_bridge_paths(env, n, 2, 0, table=table.p_right)
        with pytest.raises(DomainError, match="step table"):
            max_disp_samples(env, n, 2, 0, table=log_table)

    def test_two_step_conditional_law(self):
        env = random_env(21, -3, 3)
        z_right = env.omega(0) * (1.0 - env.omega(1))
        z_left = (1.0 - env.omega(0)) * env.omega(-1)
        p_right = z_right / (z_right + z_left)
        n_draws = 20_000
        table = backward_table(env, 1)
        went_right = sum(
            sample_bridge(env, 1, seed, table=table).sites[1] == 1
            for seed in range(n_draws)
        )
        se = math.sqrt(p_right * (1.0 - p_right) / n_draws)
        assert abs(went_right / n_draws - p_right) <= 4.0 * se

    def test_steps_follow_the_conditioned_kernel(self):
        # the sampled transition at (k, x) must be omega_x * h(k+1, x+1) /
        # h(k, x); verify the two branch probabilities sum to 1 along paths
        env = sample_environment(NESTLING_K2, 6, -12, 12)
        n = 6
        table = backward_table(env, n)
        h = oracles.backward_log_table(env, n)
        for seed in (0, 1, 2):
            path = sample_bridge(env, n, seed, table=table)
            for k in range(2 * n):
                x = int(path.sites[k])
                here = h[k, x + n + 1]
                assert here > -np.inf  # never visits impossible states
                p_up = math.exp(math.log(env.omega(x)) + h[k + 1, x + n + 2] - here)
                p_down = math.exp(math.log(1.0 - env.omega(x)) + h[k + 1, x + n] - here)
                assert abs(p_up + p_down - 1.0) < 1e-12


class TestSampleBridgePaths:
    def test_batch_rows_are_valid_bridges(self):
        env = random_env(21, -10, 10)
        n = 4
        paths = sample_bridge_paths(env, n, 64, seed=5)
        assert paths.shape == (64, 2 * n + 1)
        assert np.all(paths[:, 0] == 0) and np.all(paths[:, -1] == 0)
        assert np.all(np.abs(np.diff(paths, axis=1)) == 1)

    def test_batch_of_one_reproduces_single_draw(self):
        env = random_env(21, -10, 10)
        n = 4
        table = backward_table(env, n)
        for seed in range(10):
            single = sample_bridge(env, n, seed, table=table)
            batch = sample_bridge_paths(env, n, 1, seed, table=table)
            assert np.array_equal(batch[0], single.sites)

    def test_shares_the_draw_stream_with_displacement_summary(self):
        env = random_env(8, -12, 12)
        n = 5
        table = backward_table(env, n)
        paths = sample_bridge_paths(env, n, 200, seed=3, table=table)
        stats = max_disp_samples(env, n, 200, seed=3, table=table)
        assert np.array_equal(np.abs(paths).max(axis=1), stats.max_abs)

    def test_batched_frequencies_match_exact_law(self):
        env = random_env(14, -10, 10)
        n = 2
        exact = oracles.bridge_distribution(env, n)
        n_draws = 40_000
        paths = sample_bridge_paths(env, n, n_draws, seed=2)
        keys, counts = np.unique(paths, axis=0, return_counts=True)
        freq = {tuple(int(v) for v in k): c / n_draws for k, c in zip(keys, counts)}
        for path, p in exact.items():
            se = math.sqrt(p * (1.0 - p) / n_draws)
            assert abs(freq.get(path, 0.0) - p) <= 4.5 * se

    def test_rejects_empty_batch_and_mismatched_table(self):
        env = random_env(21, -10, 10)
        with pytest.raises(DomainError):
            sample_bridge_paths(env, 2, 0, seed=0)
        with pytest.raises(DomainError):
            sample_bridge_paths(env, 2, 4, seed=0, table=backward_table(env, 3))


class TestBridgePathValidation:
    def test_rejects_non_bridge(self):
        with pytest.raises(NotABridgeError):
            BridgePath(1, np.array([0, 1, 1]), 1, 0, 0)
        with pytest.raises(NotABridgeError):
            BridgePath(1, np.array([0, 1, 2]), 2, 0, 0)
        with pytest.raises(NotABridgeError):
            BridgePath(2, np.array([0, 1, 0]), 1, 0, 0)


class TestMaxDispSamples:
    def test_single_sample_is_degenerate(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        s = max_disp_samples(env, 4, 1, seed=5)
        assert s.n_samples == 1
        assert s.quantile(0.05) == s.median == s.quantile(0.95)

    def test_batch_matches_pathwise_stream(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        s = max_disp_samples(env, 4, 64, seed=9)
        assert s.max_abs.shape == (64,)
        assert np.all(s.max_abs >= 1)
        assert np.all(s.max_abs <= 4)
        assert np.all(s.b_counts >= 0)
        assert np.all(s.b_counts <= 8)

    def test_dkw_halfwidth_formula(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        s = max_disp_samples(env, 4, 1000, seed=9)
        assert s.dkw_halfwidth(0.99) == pytest.approx(
            math.sqrt(math.log(2 / 0.01) / 2000.0), rel=1e-14
        )
        with pytest.raises(DomainError):
            s.dkw_halfwidth(1.0)

    def test_invalid_sample_count(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        with pytest.raises(DomainError):
            max_disp_samples(env, 4, 0, seed=1)

    def test_empirical_cdf_in_dkw_band(self):
        env = sample_environment(NESTLING_K2, 23, -12, 12)
        n = 3
        s = max_disp_samples(env, n, 100_000, seed=40)
        ms = np.arange(1, n + 1)
        # ecdf is P(max <= m); the exact strict-below CDF shifted by one
        exact = max_disp_bridge_cdf(env, n, m_values=ms + 1)
        band = s.dkw_halfwidth(0.99)
        assert np.max(np.abs(s.ecdf(ms) - exact)) <= band

    @pytest.mark.parametrize("q", [-0.01, 1.01, float("nan")])
    def test_quantile_level_outside_unit_interval_rejected(self, q):
        s = max_disp_samples(random_env(2, -8, 8), 3, 10, seed=1)
        with pytest.raises(DomainError):
            s.quantile(q)

    def test_quantile_is_inverse_ecdf(self):
        env = sample_environment(NESTLING_K2, 23, -12, 12)
        s = max_disp_samples(env, 5, 4097, seed=8)
        for q in (0.05, 0.5, 0.95):
            m = s.quantile(q)
            assert s.ecdf(np.array([m]))[0] >= q
            if m > 1:
                assert s.ecdf(np.array([m - 1]))[0] < q


class TestScaleDiagnostics:
    def test_fair_bridge_maximum_has_diffusive_scale(self):
        n = 200
        env = homogeneous_env(0.5, -2 * n, 2 * n)
        s = max_disp_samples(env, n, 4000, seed=31)
        ratio = s.median / math.sqrt(2 * n)
        assert 0.3 <= ratio <= 1.5

    def test_nestling_bridge_maximum_has_subdiffusive_scale(self):
        # Bridge maxima concentrate near n^(2/3) up to slowly-decaying
        # corrections, so a single environment draw can sit well below that
        # scale at n = 1000.  Sweep environment seeds and ask the median of
        # the per-environment sampled medians to sit between the diffusive
        # floor n^0.5 and the ballistic-free ceiling n^0.8.
        n = 1000
        per_env_medians = []
        for env_seed in range(16):
            env = sample_environment(NESTLING_K2, env_seed, -2 * n, 2 * n)
            s = max_disp_samples(env, n, 400, seed=77)
            per_env_medians.append(s.median)
        pooled = float(np.median(per_env_medians))
        assert n**0.5 <= pooled <= n**0.8


def test_sampler_agrees_with_exact_two_point_distribution():
    """Exact-law check pooling bridge paths over an irregular window."""
    env = random_env(14, -10, 10)
    n = 2
    exact = oracles.bridge_distribution(env, n)
    n_draws = 30_000
    table = backward_table(env, n)
    counts = {path: 0 for path in exact}
    for seed in range(n_draws):
        path = sample_bridge(env, n, seed, table=table)
        counts[tuple(int(v) for v in path.sites)] += 1
    for path, p in exact.items():
        se = math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(counts[path] / n_draws - p) <= 4.5 * se
