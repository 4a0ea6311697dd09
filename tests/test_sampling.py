"""Exact conditioned-path sampling: tables, single paths, batch statistics."""

from __future__ import annotations

import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import NESTLING_K2, NON_NESTLING, homogeneous_env
import rwre.sampling
from rwre import kernel
from rwre import (
    DegenerateBridgeError,
    DomainError,
    Environment,
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
        n = 3
        table = backward_table(env, n)
        assert table.n == n
        # blocks of round(sqrt(6)) = 2 steps end at steps 2, 4 and 6, and
        # each keeps that step's cone cells: j = 0..2, 1..3 and 3
        assert table.block == 2
        assert table.offsets == [0, 3, 6, 7]
        assert table.checkpoints.shape == (7,)
        assert_checkpoints_match_the_backward_table(env, table)
        # no step probability is kept before a sampler asks for it
        assert table.fills == [None] * 3
        assert table.kept == table.checkpoints.size
        # the last step must go back to the origin: left from 1, right from -1
        fill = table.cover(2, 1, 3)
        assert step_prob(fill, 1, 3) == 0.0
        assert step_prob(fill, 1, 2) == 1.0
        assert table.fills[2] is fill

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
    """Right-step probabilities of the cone sites of step k, folded from
    rows k and k + 1 of a backward log table."""
    om = env.slice(-n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = min(k, 2 * n - k)
        i = np.arange(-c, c + 1, 2) + n
        return np.exp(np.log(om)[i] + h[k + 1, i + 2] - h[k, i + 1])


def step_prob(fill, i, j):
    """The probability of stepping right at a fill's i-th step after j
    right steps."""
    return fill.p[fill.base[i] + j - fill.a]


def filled_rows(table, c, fill):
    """``(k, lo, hi, cells)`` for each step k of block c: the cone cells
    ``lo <= j <= hi`` that the fill computed."""
    n, start = table.n, c * table.block
    for i, row in enumerate(fill.base[:-1]):
        k = start + i
        lo, hi = max(fill.a, k - n), min(fill.b + i, k, n)
        yield k, lo, hi, fill.p[row + lo - fill.a : row + hi - fill.a + 1]


def cone_widths(n, block):
    """Cells of the cone of the step that ends each block of a 2n-step
    table, counted site by site."""
    ends = [min((c + 1) * block, 2 * n) for c in range(-(-2 * n // block))]
    return [sum(abs(x) <= min(k, 2 * n - k) and (x - k) % 2 == 0
                for x in range(-n, n + 1)) for k in ends]


def assert_checkpoints_match_the_backward_table(env, table):
    """The packed checkpoints hold, row after row, the cone cells of the
    reference log table's row that ends each block, bit for bit, and
    nothing else."""
    n, block = table.n, table.block
    h = oracles.backward_log_table(env, n)
    assert np.diff(table.offsets).tolist() == cone_widths(n, block)
    assert table.offsets[0] == 0 and table.offsets[-1] == table.checkpoints.size
    for c in range(len(table.offsets) - 1):
        k = min((c + 1) * block, 2 * n)
        j = np.arange(max(0, k - n), min(k, n) + 1)
        row = table.checkpoints[table.offsets[c] : table.offsets[c + 1]]
        assert np.array_equal(row, h[k, 2 * j - k + n + 1]), (block, c)


def assert_fills_match_the_backward_table(env, table, fills=None):
    """Every cell of the fills ``(c, fill)``, by default those the table
    keeps, equals the fold of the reference log table, bit for bit (NaN
    where a one-way site makes 0/0)."""
    n = table.n
    h = oracles.backward_log_table(env, n)
    for c, fill in enumerate(table.fills) if fills is None else fills:
        if fill is None:
            continue
        for k, lo, hi, cells in filled_rows(table, c, fill):
            first = max(0, k - n)
            expected = folded_row(env, n, h, k)[lo - first : hi - first + 1]
            assert np.array_equal(cells, expected, equal_nan=True), (c, k)


@pytest.fixture
def block_length(monkeypatch):
    """Force the step table's block length for the rest of a test."""

    def force(length):
        monkeypatch.setattr(rwre.sampling, "_block_length", lambda n: length)

    return force


def one_way_envs(n):
    """A random, a nestling and a fair window over [-2n, 2n]."""
    rng = np.random.default_rng(n)
    omegas = rng.uniform(0.05, 0.95, 4 * n + 1)
    # one-way sites put NaN cells (never visited) inside the cone
    omegas[rng.integers(0, 4 * n + 1, 2)] = 1.0
    omegas[2 * n] = 0.5
    return [
        Environment(-2 * n, omegas),
        sample_environment(NESTLING_K2, n, -2 * n, 2 * n),
        homogeneous_env(0.5, -2 * n, 2 * n),
    ]


class TestStepTable:
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_cone_cells_match_the_backward_table_bit_for_bit(self, n, block_length):
        for length in sorted({1, 3, round(math.sqrt(2 * n)), 2 * n}):
            block_length(length)
            for env in one_way_envs(n):
                table = backward_table(env, n)
                assert table.block == length
                assert_checkpoints_match_the_backward_table(env, table)
                # fill every block over the whole cone
                for c in range(len(table.fills)):
                    start = c * length
                    table.cover(c, max(0, start - n), min(start, n))
                cells = sum(hi - lo + 1 for c, f in enumerate(table.fills)
                            for _, lo, hi, _ in filled_rows(table, c, f))
                assert cells == n * n + 2 * n
                assert_fills_match_the_backward_table(env, table)

    @pytest.mark.parametrize("n", [5, 40])
    def test_sampler_fills_match_the_backward_table_bit_for_bit(self, n):
        for env in one_way_envs(n):
            table = backward_table(env, n)
            sample_bridge(env, n, 3, table=table)
            assert_fills_match_the_backward_table(env, table)
            max_disp_samples(env, n, 50, 4, table=table)
            assert_fills_match_the_backward_table(env, table)

    @pytest.mark.parametrize("n", [5, 40])
    def test_batch_fills_match_the_backward_table_bit_for_bit(
        self, n, block_length, monkeypatch
    ):
        made = []
        fill = rwre.sampling._StepTable._fill

        def record(table, c, a, b):
            made.append((c, fill(table, c, a, b)))
            return made[-1][1]

        monkeypatch.setattr(rwre.sampling._StepTable, "_fill", record)
        for length in (1, 3, 2 * n):
            block_length(length)
            for env in one_way_envs(n):
                table = backward_table(env, n)
                blocks = list(range(len(table.fills)))
                for run in (
                    lambda: max_disp_samples(env, n, 50, 4, table=table),
                    lambda: sample_bridge_paths(env, n, 30, 5, table=table),
                    lambda: rwre.sampling._sample_batch(
                        env, n, 20, 6, table, False, (7, 8, 9)
                    ),
                ):
                    made.clear()
                    run()
                    # one transient fill per block, in order, none kept
                    assert [c for c, _ in made] == blocks
                    assert table.fills == [None] * len(blocks)
                    assert table.kept == table.checkpoints.size
                    assert_fills_match_the_backward_table(env, table, made)

    @pytest.mark.parametrize("n", [1, 6, 50])
    def test_one_pass_draws_the_batch_and_the_single_paths(self, n, block_length):
        seeds = (3, 2**64 - 1, 3, 0)
        for length in sorted({1, 3, round(math.sqrt(2 * n)), 2 * n}):
            block_length(length)
            for env in one_way_envs(n):
                for n_samples, path_seeds in ((1, ()), (1, seeds), (40, ()), (40, seeds)):
                    table = backward_table(env, n)
                    passes = [
                        rwre.sampling._sample_batch(
                            env, n, n_samples, 11, table, keep, path_seeds
                        )
                        for keep in (False, True)
                    ]
                    assert table.fills == [None] * len(table.fills)
                    want = max_disp_samples(env, n, n_samples, 11, table=table)
                    batch = sample_bridge_paths(env, n, n_samples, 11, table=table)
                    singles = [sample_bridge(env, n, s, table=table) for s in path_seeds]
                    for keep, (paths, max_abs, b_counts) in zip((False, True), passes):
                        assert np.array_equal(max_abs, want[0])
                        assert np.array_equal(b_counts, want[1])
                        assert paths.dtype == np.int32
                        rows = [*batch] * keep + singles
                        assert paths.shape == (len(rows), 2 * n + 1)
                        assert all(np.array_equal(g, w) for g, w in zip(paths, rows))

    @pytest.mark.parametrize("n", [1, 2, 7, 256])
    def test_keeps_a_log_row_every_block(self, n):
        env = random_env(n, -2 * n, 2 * n)
        table = backward_table(env, n)
        length = round(math.sqrt(2 * n))
        assert table.block == length
        # one row of cone cells per block, nothing off the cone
        widths = cone_widths(n, length)
        assert len(table.fills) == len(widths) == -(-2 * n // length)
        assert table.checkpoints.shape == (sum(widths),)
        # a batch keeps nothing
        sample_bridge_paths(env, n, 20, 0, table=table)
        max_disp_samples(env, n, 20, 0, table=table)
        assert table.fills == [None] * len(widths)
        assert table.kept == table.checkpoints.size
        # a single path keeps one fill per block
        sample_bridge(env, n, 0, table=table)
        fills = [f for f in table.fills if f is not None]
        assert len(fills) == len(widths)
        assert table.kept == table.checkpoints.size + sum(f.p.size for f in fills)

    def test_checkpoints_hold_the_cone_cells_only(self):
        # n = 2048: 64 rows of 64 to 2049 cone cells, where rows of n + 2
        # cells took 131,200
        n = 2048
        table = backward_table(sample_environment(NESTLING_K2, 0, -n, n), n)
        assert table.checkpoints.size == sum(cone_widths(n, table.block)) == 65_600

    def test_sampling_peaks_far_below_the_packed_table(self):
        # the whole-cone table of the earlier sampler held n^2 + 2n float64
        # cells: 33.6 MB here
        n = 2048
        env = sample_environment(NESTLING_K2, 0, -n, n)
        tracemalloc.start()
        try:
            table = backward_table(env, n)
            max_disp_samples(env, n, 1000, 0, table=table)
            for seed in range(8):
                sample_bridge(env, n, seed, table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (n * n + 2 * n) * 8 / 4

    def test_one_pass_peaks_at_the_table_plus_one_fill(self, monkeypatch):
        # the build, 1000 draws and 8 exported paths in one pass, as the
        # sample-bridge experiment runs them
        n, n_samples, seeds = 2048, 1000, tuple(range(8))
        env = sample_environment(NESTLING_K2, 0, -n, n)
        sizes = []
        fill = rwre.sampling._StepTable._fill

        def record(table, c, a, b):
            made = fill(table, c, a, b)
            sizes.append(made.p.nbytes)
            return made

        monkeypatch.setattr(rwre.sampling._StepTable, "_fill", record)
        # a pass at n = 2 first, so that the trace counts no module that
        # the pass imports (numpy.random) when the test runs alone
        small = sample_environment(NESTLING_K2, 0, -2, 2)
        rwre.sampling._sample_batch(small, 2, 1, 0, None, False, (0,))
        sizes.clear()
        tracemalloc.start()
        try:
            table = backward_table(env, n)
            paths, _, _ = rwre.sampling._sample_batch(
                env, n, n_samples, 0, table, False, seeds
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.fills == [None] * len(table.fills)
        cols, sites, block = n_samples + len(seeds), 2 * n + 1, table.block
        # the layout: the checkpoints; log_p, log_q and omega; the largest
        # fill; the recursion's three working rows of at most n + 2 cells
        # and its block bases; 16 arrays of 8 bytes over the columns (four
        # of state and the step's temporaries) and the _DRAW_BLOCK rows of
        # uniforms twice (as drawn, and joined with the paths' own); the
        # trap mask; the exported paths as int32
        bound = (
            table.checkpoints.nbytes
            + 3 * 8 * sites
            + max(sizes)
            + 8 * (3 * (n + 2) + block + 1)
            + 8 * cols * (16 + 2 * rwre.sampling._DRAW_BLOCK)
            + sites
            + 4 * len(seeds) * sites
        )
        assert peak < bound
        # keeping every block's fill, as batches once did, would not fit
        assert peak + sum(sizes) - max(sizes) > bound
        assert paths.shape == (len(seeds), sites)

    def test_build_peaks_at_the_checkpoints_plus_working_rows(self):
        # the whole-cone table, n^2 + 2n cells, would take eight times the
        # margin of 16 rows of 2n + 1 cells allowed here
        n = 256
        env = random_env(0, -2 * n, 2 * n)
        backward_table(env, n)
        tracemalloc.start()
        try:
            table = backward_table(env, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= table.checkpoints.nbytes + 16 * 8 * (2 * n + 1)

    def test_a_fill_peaks_at_its_probabilities_plus_working_rows(self):
        # a packed log copy of the fill, as large as p itself, would take
        # about sixty of the rows of b - a + B + 2 cells allowed here
        n, c, a, b = 2048, 40, 1100, 1300
        env = sample_environment(NESTLING_K2, 0, -n, n)
        table = backward_table(env, n)
        block = table.block
        tracemalloc.start()
        try:
            fill = table.cover(c, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fill.p.size == block * (b - a + 1) + block * (block - 1) // 2
        assert peak < fill.p.nbytes + 8 * 8 * (b - a + block + 2)
        assert_fills_match_the_backward_table(env, table)

    def test_degenerate_bridge_detected(self, block_length):
        env = Environment(-4, np.ones(9))  # every step forced right
        # the default 2 steps per block, then 1 and 2n = 4
        for length in (None, 1, 4):
            if length is not None:
                block_length(length)
            with pytest.raises(DegenerateBridgeError):
                backward_table(env, 2)
            with pytest.raises(DegenerateBridgeError):
                sample_bridge(env, 2, 0)

    def test_size_cap_matches_backward_table(self, monkeypatch):
        # the cap counts checkpoint cells, the cones of ceil(2n / B) rows
        rwre.sampling._check_table_size(141110)  # 532 rows: 37,499,616 cells
        with pytest.raises(DomainError, match="materialization cap"):
            rwre.sampling._check_table_size(141111)  # 37,500,148 cells
        env = random_env(3, -16, 16)
        # n = 8: four blocks of 4 steps, rows of 5, 9, 5 and 1 cone cells
        assert cone_widths(8, 4) == [5, 9, 5, 1]
        monkeypatch.setattr(rwre.sampling, "_MAX_TABLE_ENTRIES", 20)
        backward_table(env, 8)
        monkeypatch.setattr(rwre.sampling, "_MAX_TABLE_ENTRIES", 19)
        with pytest.raises(DomainError, match="2n = 16 steps .* materialization cap"):
            backward_table(env, 8)
        with pytest.raises(DomainError, match="materialization cap"):
            sample_bridge(env, 8, 0)

    def test_fills_past_the_cap_are_used_and_not_kept(self, monkeypatch):
        env = sample_environment(NESTLING_K2, 5, -40, 40)
        n = 40
        want = [sample_bridge(env, n, seed) for seed in range(4)]
        full = backward_table(env, n)
        sample_bridge(env, n, 0, table=full)
        sizes = [f.p.size for f in full.fills]
        # room for the checkpoints and the first two blocks' fills only
        room = full.checkpoints.size + sizes[0] + sizes[1]
        monkeypatch.setattr(rwre.sampling, "_MAX_TABLE_ENTRIES", room)
        table = backward_table(env, n)
        assert np.array_equal(sample_bridge(env, n, 0, table=table), want[0])
        assert [f is not None for f in table.fills] == [True, True] + [False] * (
            len(sizes) - 2
        )
        assert table.kept == room
        kept = list(table.fills)
        # later paths widen no fill past the cap, and still draw their paths
        for seed in range(1, 4):
            assert np.array_equal(sample_bridge(env, n, seed, table=table), want[seed])
        assert all(f is g for f, g in zip(table.fills, kept))
        assert table.kept == room
        # a batch keeps nothing either
        draws = max_disp_samples(env, n, 100, 1, table=table)
        fresh = max_disp_samples(env, n, 100, 1)
        assert all(np.array_equal(g, w) for g, w in zip(draws, fresh))
        assert all(f is g for f, g in zip(table.fills, kept))
        assert table.kept == room

    def test_fills_widen_to_later_draws(self):
        env = sample_environment(NESTLING_K2, 7, -40, 40)
        n = 40
        table = backward_table(env, n)
        # one path keeps narrow fills; a second path then starts outside them
        first = sample_bridge(env, n, 0, table=table)
        narrow = [(f.a, f.b) for f in table.fills]
        assert all(a == b for a, b in narrow)
        second = sample_bridge(env, n, 1, table=table)
        wide = [(f.a, f.b) for f in table.fills]
        assert all(a <= x <= y <= b for (x, y), (a, b) in zip(narrow, wide))
        assert any(b - a > 0 for a, b in wide)
        # each kept range is the hull of the two paths' right-step counts
        for c, (a, b) in enumerate(wide):
            k = c * table.block
            starts = [(k + int(p[k])) // 2 for p in (first, second)]
            assert (a, b) == (min(starts), max(starts))
        assert_fills_match_the_backward_table(env, table)
        assert np.array_equal(first, sample_bridge(env, n, 0))
        assert np.array_equal(second, sample_bridge(env, n, 1))
        # draws inside the kept fills change nothing, and a batch keeps none
        kept = list(table.fills)
        assert np.array_equal(first, sample_bridge(env, n, 0, table=table))
        batch = max_disp_samples(env, n, 200, 1, table=table)
        assert all(f is g for f, g in zip(table.fills, kept))
        fresh = max_disp_samples(env, n, 200, 1)
        assert np.array_equal(batch[0], fresh[0])
        assert np.array_equal(batch[1], fresh[1])

    def test_threads_may_share_a_table(self):
        env = sample_environment(NESTLING_K2, 3, -40, 40)
        n = 40

        def draws(seed, table=None):
            # single paths, which keep fills, between batches, which do not
            return [
                sample_bridge(env, n, seed, table=table),
                *max_disp_samples(env, n, 50, seed, table=table),
                sample_bridge(env, n, seed + 8, table=table),
                sample_bridge_paths(env, n, 5, seed, table=table),
            ]

        want = [draws(seed) for seed in range(8)]
        table = backward_table(env, n)
        got = [None] * 8

        def draw(seed):
            got[seed] = draws(seed, table)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(s,)) for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(g, w))
        # a lost update would leave the count off the kept fills
        assert all(f is not None for f in table.fills)
        assert table.kept == table.checkpoints.size + sum(f.p.size for f in table.fills)
        assert_fills_match_the_backward_table(env, table)

    @pytest.mark.parametrize("n", [1, 6, 50])
    def test_block_length_does_not_change_a_draw(self, n, block_length):
        env = sample_environment(NESTLING_K2, 2, -n, n)

        def draws(table=None):
            return [
                *(sample_bridge(env, n, seed, table=table) for seed in range(3)),
                sample_bridge_paths(env, n, 30, 4, table=table),
                *max_disp_samples(env, n, 300, 5, table=table),
            ]

        want = draws()
        for length in (1, 2, 3, round(math.sqrt(2 * n)), 2 * n):
            block_length(length)
            assert backward_table(env, n).block == length
            for got in (draws(), draws(backward_table(env, n))):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
        max_abs, b_counts = max_disp_samples(env, self.N, 32, seed)
        assert stream_digest(max_abs, b_counts) == maxdisp_digest

    @pytest.mark.parametrize(
        "seed,digest,max_abs,b",
        [
            (1, "12d823b5ee8e66fd976efd9db56f1d7f6e503819772652b623853eac2aca0bf5", 7, 88),
            (2, "3bf186fc7810723f7e22e5fc878c428eb135619a746cfa18322211feab4b655c", 5, 103),
            (3, "3253347d5c7fa66d73589e3ae50aae0c60f125c6bc49265b6d0e15f88d2b2a58", 5, 95),
        ],
    )
    def test_single_paths(self, env, seed, digest, max_abs, b):
        sites = sample_bridge(env, self.N, seed)
        assert stream_digest(sites) == digest
        assert (np.abs(sites).max(), b_count(env, sites)) == (max_abs, b)

    def test_every_table_source_draws_the_same_paths(self, env):
        n = self.N
        sources = [None, backward_table(env, n)]
        batches = [sample_bridge_paths(env, n, 16, 11, table=t) for t in sources]
        singles = [sample_bridge(env, n, 12, table=t) for t in sources]
        draws = [max_disp_samples(env, n, 16, 13, table=t) for t in sources]
        assert np.array_equal(batches[1], batches[0])
        assert np.array_equal(singles[1], singles[0])
        assert np.array_equal(draws[1][0], draws[0][0])
        assert np.array_equal(draws[1][1], draws[0][1])

    def test_step_table_for_another_length_rejected(self, env):
        table = backward_table(env, self.N - 1)
        with pytest.raises(DomainError):
            sample_bridge(env, self.N, 0, table=table)
        with pytest.raises(DomainError):
            sample_bridge_paths(env, self.N, 2, 0, table=table)
        with pytest.raises(DomainError):
            max_disp_samples(env, self.N, 2, 0, table=table)

    def test_step_table_for_another_environment_rejected(self):
        a = sample_environment(NESTLING_K2, 0, -16, 16)
        b = sample_environment(NESTLING_K2, 1, -16, 16)
        table = backward_table(a, 8)
        assert not np.array_equal(a.slice(-8, 8), b.slice(-8, 8))
        with pytest.raises(DomainError, match="another environment"):
            max_disp_samples(b, 8, 200, 1, table=table)
        with pytest.raises(DomainError, match="another environment"):
            sample_bridge(b, 8, 1, table=table)
        with pytest.raises(DomainError, match="another environment"):
            sample_bridge_paths(b, 8, 2, 1, table=table)
        # the same omegas on [-8, 8] in another window are accepted
        wider = sample_environment(NESTLING_K2, 0, -32, 32)
        assert np.array_equal(
            max_disp_samples(wider, 8, 200, 1, table=table)[0],
            max_disp_samples(a, 8, 200, 1)[0],
        )


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
            sample_bridge(env, 3, np.uint64(top)), sample_bridge(env, 3, top)
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
            sites = sample_bridge(env, n, seed, table=table)
            assert sites.dtype == np.int64 and sites.shape == (2 * n + 1,)
            assert sites[0] == 0 and sites[-1] == 0
            assert np.all(np.abs(np.diff(sites)) == 1)
            assert 1 <= np.abs(sites).max() <= n

    def test_deterministic_in_seed(self):
        env = sample_environment(NESTLING_K2, 17, -8, 8)
        a = sample_bridge(env, 4, 123)
        b = sample_bridge(env, 4, 123)
        assert np.array_equal(a, b)
        assert any(
            not np.array_equal(sample_bridge(env, 4, s), a) for s in range(124, 134)
        )

    def test_table_reuse_matches_fresh_build(self):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        table = backward_table(env, 5)
        with_table = sample_bridge(env, 5, 77, table=table)
        without = sample_bridge(env, 5, 77)
        assert np.array_equal(with_table, without)

    def test_mismatched_table_rejected(self):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        with pytest.raises(DomainError):
            sample_bridge(env, 4, 0, table=backward_table(env, 5))

    def test_prebuilt_table_is_never_rebuilt(self, monkeypatch):
        env = sample_environment(NON_NESTLING, 9, -10, 10)
        n = 5
        table = backward_table(env, n)
        fresh = sample_bridge(env, n, 77)

        def refuse(*args, **kwargs):
            raise AssertionError("the sampler rebuilt the step table")

        monkeypatch.setattr(rwre.sampling, "backward_table", refuse)
        assert np.array_equal(sample_bridge(env, n, 77, table=table), fresh)
        assert sample_bridge_paths(env, n, 4, 3, table=table).shape == (4, 2 * n + 1)
        assert max_disp_samples(env, n, 4, 3, table=table)[0].shape == (4,)
        # a log table or any other array is not a step table
        log_table = oracles.backward_log_table(env, n)
        with pytest.raises(DomainError, match="step table"):
            sample_bridge(env, n, 0, table=log_table)
        with pytest.raises(DomainError, match="step table"):
            sample_bridge_paths(env, n, 2, 0, table=table.checkpoints)
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
            sample_bridge(env, 1, seed, table=table)[1] == 1
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
                x = int(path[k])
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
        assert paths.dtype == np.int32
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
            assert np.array_equal(batch[0], single)

    def test_shares_the_draw_stream_with_displacement_summary(self):
        env = random_env(8, -12, 12)
        n = 5
        table = backward_table(env, n)
        paths = sample_bridge_paths(env, n, 200, seed=3, table=table)
        max_abs, b_counts = max_disp_samples(env, n, 200, seed=3, table=table)
        assert np.array_equal(np.abs(paths).max(axis=1), max_abs)
        assert np.array_equal(b_counts, [b_count(env, p) for p in paths])

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


class TestMaxDispSamples:
    def test_single_sample_is_degenerate(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        max_abs, b_counts = max_disp_samples(env, 4, 1, seed=5)
        assert max_abs.shape == b_counts.shape == (1,)
        q05, med, q95 = np.quantile(max_abs, [0.05, 0.5, 0.95], method="inverted_cdf")
        assert q05 == med == q95 == max_abs[0]

    def test_batch_matches_pathwise_stream(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        max_abs, b_counts = max_disp_samples(env, 4, 64, seed=9)
        assert max_abs.dtype == b_counts.dtype == np.int64
        assert max_abs.shape == b_counts.shape == (64,)
        assert np.all(max_abs >= 1)
        assert np.all(max_abs <= 4)
        assert np.all(b_counts >= 0)
        assert np.all(b_counts <= 8)

    def test_invalid_sample_count(self):
        env = sample_environment(NESTLING_K2, 4, -8, 8)
        with pytest.raises(DomainError):
            max_disp_samples(env, 4, 0, seed=1)

    def test_empirical_cdf_in_dkw_band(self):
        env = sample_environment(NESTLING_K2, 23, -12, 12)
        n = 3
        n_samples = 100_000
        max_abs, _ = max_disp_samples(env, n, n_samples, seed=40)
        ms = np.arange(1, n + 1)
        # the empirical P(max <= m) against the exact strict-below CDF
        # shifted by one, within the two-sided DKW band at level 0.99
        ecdf = np.searchsorted(np.sort(max_abs), ms, side="right") / n_samples
        exact = max_disp_bridge_cdf(env, n, m_values=ms + 1)
        band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * n_samples))
        assert np.max(np.abs(ecdf - exact)) <= band

    def test_quantile_is_inverse_ecdf(self):
        # the quantile convention of the sample-bridge summary and demo 03
        env = sample_environment(NESTLING_K2, 23, -12, 12)
        max_abs, _ = max_disp_samples(env, 5, 4097, seed=8)
        for q in (0.05, 0.5, 0.95):
            m = np.quantile(max_abs, q, method="inverted_cdf")
            assert np.mean(max_abs <= m) >= q
            if m > 1:
                assert np.mean(max_abs <= m - 1) < q


class TestScaleDiagnostics:
    def test_fair_bridge_maximum_has_diffusive_scale(self):
        n = 200
        env = homogeneous_env(0.5, -2 * n, 2 * n)
        max_abs, _ = max_disp_samples(env, n, 4000, seed=31)
        ratio = np.quantile(max_abs, 0.5, method="inverted_cdf") / math.sqrt(2 * n)
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
            max_abs, _ = max_disp_samples(env, n, 400, seed=77)
            per_env_medians.append(np.quantile(max_abs, 0.5, method="inverted_cdf"))
        pooled = float(np.median(per_env_medians))
        assert n**0.5 <= pooled <= n**0.8


def forward_log_probs(env, steps):
    """``log P_0(X_steps = x)`` at index ``x + steps``, by the plain
    forward recursion over the whole window ``[-steps, steps]``."""
    om = env.slice(-steps, steps)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(om), np.log1p(-om)
    f = np.full(2 * steps + 1, -np.inf)
    f[steps] = 0.0
    for _ in range(steps):
        g = np.full_like(f, -np.inf)
        g[1:] = log_p[:-1] + f[:-1]
        g[:-1] = np.logaddexp(g[:-1], log_q[1:] + f[1:])
        f = g
    return f


class TestSamplerAudit:
    """The sampler against the exact law of a long bridge: the maximal
    displacement by Kolmogorov distance, the midpoint by chi-square, both
    at level 1e-3."""

    N = 256

    @pytest.fixture(scope="class")
    def env(self):
        return sample_environment(NESTLING_K2, 0, -self.N, self.N)

    def test_max_displacement_within_the_dkw_band(self, env):
        n, draws = self.N, 20_000
        max_abs, _ = max_disp_samples(env, n, draws, seed=1)
        law = kernel._BridgeLaw(env, n)
        # both CDFs are flat between integers, and outside the sampled range
        # their distance only shrinks, so these m give the exact sup
        ms = np.arange(max_abs.min() - 1, max_abs.max() + 1)
        ecdf = np.searchsorted(np.sort(max_abs), ms, side="right") / draws
        exact = np.array([law.cdf(m + 1) for m in ms])
        band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * draws))
        assert np.max(np.abs(ecdf - exact)) <= band

    def test_midpoint_follows_its_exact_law(self, env):
        n, draws = self.N, 5000
        mid = sample_bridge_paths(env, n, draws, seed=2)[:, n]
        # P(X_n = x | X_2n = 0) = P_0(X_n = x) P_x(X_n = 0) / P
        x = np.arange(-n, n + 1)
        log_w = forward_log_probs(env, n) + oracles.backward_log_table(env, n)[n, x + n + 1]
        log_total = np.logaddexp.reduce(log_w)
        assert log_total == pytest.approx(bridge_log_prob(env, n), abs=1e-10)
        expected_counts = draws * np.exp(log_w - log_total)
        counts = np.bincount(mid + n, minlength=2 * n + 1)
        # pool neighbouring sites until each cell expects at least 5 draws
        observed, expected, o, e = [], [], 0, 0.0
        for c, w in zip(counts.tolist(), expected_counts.tolist()):
            o, e = o + c, e + w
            if e >= 5.0:
                observed.append(o)
                expected.append(e)
                o, e = 0, 0.0
        observed[-1] += o
        expected[-1] += e
        observed, expected = np.array(observed), np.array(expected)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # the upper 1e-3 quantile of chi-square, by Wilson and Hilferty
        dof = len(expected) - 1
        z = 3.090232306167813
        bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
        assert dof >= 5
        assert chi2 <= bound


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
        counts[tuple(path.tolist())] += 1
    for path, p in exact.items():
        se = math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(counts[path] / n_draws - p) <= 4.5 * se
