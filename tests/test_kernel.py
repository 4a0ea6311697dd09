"""Exact DP kernels against enumeration oracles, closed forms, and each other."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import rwre
import rwre.cli
from conftest import MARGINAL, NESTLING_K2, NON_NESTLING, homogeneous_env
from rwre import (
    DegenerateBridgeError,
    DomainError,
    Environment,
    OrderingError,
    ParityError,
    SiteDistribution,
    WindowTooSmallError,
    bridge_log_prob,
    bridge_max_quantile,
    confined_log_prob,
    exit_prob_closed_form,
    hitting_cdf,
    max_disp_bridge_cdf,
    sample_environment,
)
from rwre import kernel
from rwre.kernel import _final_log, _prefers_squaring, _propagate, _squared_log

# ln of the 20-step fair-walk return probability C(20,10)/2^20, frozen from
# an exact rational evaluation.
LOG_FAIR_RETURN_N10 = -1.7361522965964517491

ROOT = Path(__file__).resolve().parents[1]


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


@contextmanager
def full_leaps():
    """Spy on the band builder of the leaping core, checking that every
    band it builds is for a full leap of ``kernel._LEAP`` two-steps."""
    with mock.patch.object(kernel, "_leap_band", wraps=kernel._leap_band) as band:
        yield band
    assert all(call.args[-1] == kernel._LEAP for call in band.call_args_list)


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

    @pytest.mark.parametrize("p", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1000, 1500])
    def test_drifted_closed_form(self, p, n):
        # C(2n, n) (p q)^n, while the walk's own mass drifts across far
        # more than the double range
        env = homogeneous_env(p, -2 * n, 2 * n)
        want = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) + n * math.log(p * (1 - p))
        for call in (lambda: bridge_log_prob(env, n),
                     lambda: bridge_log_prob(env, n, truncation=0.0),
                     lambda: confined_log_prob(env, 2 * n, n + 1, require_bridge=True)):
            with full_leaps() as band:
                got = call()
            band.assert_called()
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_deep_bridge_rounds_its_scale_once(self):
        # log P ~ -64600: one rounding per step and one of the scale's log;
        # a log scale summed rescale by rescale misses by 1.6e-10
        import mpmath as mp

        n, p = 20000, 0.99
        got = bridge_log_prob(homogeneous_env(p, -2 * n, 2 * n), n, truncation=0.0)
        with mp.workdps(40):
            want = mp.log(mp.binomial(2 * n, n)) + n * mp.log(mp.mpf(p) * (1 - mp.mpf(p)))
            assert abs(mp.mpf(got) - want) <= (2 * n + abs(got)) * 2.0**-50

    @pytest.mark.parametrize("seed", [0, 1])
    def test_strong_drift_matches_the_log_recursion(self, seed):
        n = 900
        law = SiteDistribution(support=(0.93, 0.98), weights=(0.5, 0.5))
        env = sample_environment(law, seed, -2 * n, 2 * n)
        want = oracles.backward_log_table(env, n)[0, n + 1]
        with full_leaps() as band:
            got = bridge_log_prob(env, n)
        band.assert_called()
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_enumeration(self, seed, n):
        env = random_env(seed, -2 * n, 2 * n)
        exact = oracles.bridge_probability(env, n)
        assert math.exp(bridge_log_prob(env, n)) == pytest.approx(
            exact, abs=1e-12
        )

    def test_window_requirement(self):
        # a 2n-step bridge reads exactly the sites [-n, n]
        with pytest.raises(WindowTooSmallError):
            bridge_log_prob(homogeneous_env(0.5, -1, 1), 2)
        lp = bridge_log_prob(homogeneous_env(0.5, -2, 2), 2)
        assert math.exp(lp) == pytest.approx(math.comb(4, 2) / 16, rel=1e-14)

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


def env_for(law, seed: int, lo: int, hi: int) -> Environment:
    if law is None:
        return random_env(seed, lo, hi)
    return sample_environment(law, seed, lo, hi)


LAWS = st.sampled_from([NESTLING_K2, MARGINAL, NON_NESTLING, None])


def dp_log(om: np.ndarray, steps: int, bridge: bool) -> float:
    """The confined (bridge) log probability by the propagation DP alone,
    looked up on the module so that a patched ``kernel._propagate`` runs."""
    start = om.size // 2
    for _, mass, scale, _ in kernel._propagate(om, 1.0 - om, start, steps):
        pass
    return _final_log(mass, scale, start // 2 if bridge else None)


def assert_close_log(got: float, want: float, rel: float = 1e-12) -> None:
    """Within ``rel`` relative in the log; for ``|log P| < 1``, ``rel`` in P."""
    if want == -np.inf:
        assert got == -np.inf
    else:
        assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


class TestSquaringPath:
    """The binary-powering kernel against the DP it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(
        law=LAWS,
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 64),
        steps=st.integers(0, 4000),
        bridge=st.booleans(),
    )
    def test_agrees_with_dp(self, law, seed, m, steps, bridge):
        steps -= steps % 2 if bridge else 0
        env = env_for(law, seed, -m, m)
        om = env.slice(-(m - 1), m - 1)
        want = dp_log(om, steps, bridge)
        assert_close_log(confined_log_prob(env, steps, m, require_bridge=bridge), want)
        if om.size >= 3:
            [got] = _squared_log(om, [steps], bridge)
            assert got is not None
            assert_close_log(got, want)

    @pytest.mark.parametrize("omega", [0.99, 0.999])
    def test_deep_drift_trips_the_guard_and_returns_the_dp_bits(self, omega):
        # the bridge's mass spans more than 2^500 across the corridor, so an
        # unguarded product would flush entries that the answer needs
        env = Environment(-64, np.full(129, omega))
        om = env.slice(-63, 63)
        assert _prefers_squaring(om.size, 20000, True)
        assert _squared_log(om, [20000], True) == [None]
        got = confined_log_prob(env, 20000, 64, require_bridge=True)
        assert got == kernel._bridge_log(om, 1.0 - om, [10000], 0.0)[0][0]
        assert_close_log(got, dp_log(om, 20000, True))

    def test_dispatch_points(self):
        assert _prefers_squaring(127, 65536, True)
        assert not _prefers_squaring(2049, 4096, True)
        assert not _prefers_squaring(1, 10**6, False)
        assert not _prefers_squaring(127, 0, False)
        # the corridor_long corridors stay on squaring, while the widest
        # maxdisp_probe corridors leap (measured 1.3-1.8 ms against 8-15 ms)
        assert _prefers_squaring(15, 16384, True) and _prefers_squaring(127, 16384, True)
        assert not _prefers_squaring(233, 2048, True)
        assert not _prefers_squaring(291, 2048, True)

    @pytest.mark.parametrize("bridge", [False, True])
    @pytest.mark.parametrize("m,steps", [(1, 0), (1, 6), (1, 4000), (5, 0), (64, 0),
                                          (64, 62), (40, 38), (9, 8), (3, 2)])
    def test_edges_match_the_dp(self, m, steps, bridge):
        env = random_env(m + steps, -m, m)
        om = env.slice(-(m - 1), m - 1)
        got = confined_log_prob(env, steps, m, require_bridge=bridge)
        want = dp_log(om, steps, bridge)
        if m == 1 or steps == 0:
            assert got == want
        assert_close_log(got, want)

    def test_bits_do_not_depend_on_blas_threads(self):
        # corridor_long-shaped calls, plus a corridor wide enough that
        # OpenBLAS's threaded gemm would give other bits at 2 threads
        law = ROOT / "demos" / "dists" / "marginal.txt"
        calls = [(64, 4096), (64, 6000), (160, 131072)]
        for m, steps in calls:
            env = sample_environment(rwre.load_distribution(law), 0, -m, m)
            om = env.slice(-(m - 1), m - 1)
            assert _prefers_squaring(om.size, steps, True)
            assert _squared_log(om, [steps], True)[0] is not None
        code = (
            "import rwre\n"
            f"law = rwre.load_distribution({str(law)!r})\n"
            f"for m, steps in {calls!r}:\n"
            "    env = rwre.sample_environment(law, 0, -m, m)\n"
            "    print(rwre.confined_log_prob(env, steps, m, require_bridge=True).hex())\n"
        )
        src = str(Path(rwre.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert len(outputs[0].split()) == len(calls)
        assert outputs[0] == outputs[1]


def bits(values) -> list:
    """Floats by their exact bits, ``None`` kept."""
    return [None if v is None else float(v).hex() for v in values]


def corridor_with_trap(draw, most: int = 127):
    """A window of 3 to ``most`` sites from a shipped law or uniform draws,
    sometimes with a short stretch of tiny weights that can trip the
    squaring guard partway up its chain."""
    w = draw(st.integers(3, most))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    law = draw(LAWS)
    om = rng.uniform(0.02, 0.98, w) if law is None else rng.choice(law.support_array, w)
    if draw(st.booleans()):
        at = draw(st.integers(0, w - 1))
        om[at : at + draw(st.integers(1, 8))] = draw(st.sampled_from([1e-40, 1e-20, 1e-8]))
    return om


def step_counts(draw, bridge: bool, most: int) -> list[int]:
    """Up to six counts in ``0 .. most``, spread over their bit lengths so
    that a chain's trip can fall between them."""
    count = st.integers(0, most.bit_length() - 1).flatmap(
        lambda k: st.integers(2**k - 1, min(2 ** (k + 1), most))
    )
    counts = draw(st.lists(count, min_size=1, max_size=6))
    return sorted({s - s % 2 if bridge else s for s in counts})


class TestSquaringChain:
    """One chain of squarings per parity class, against one-count calls."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bridge=st.booleans())
    def test_chain_equals_one_count_calls(self, data, bridge):
        om = corridor_with_trap(data.draw)
        steps = step_counts(data.draw, bridge, 70000)
        want = [_squared_log(om, [s], bridge)[0] for s in steps]
        assert bits(_squared_log(om, steps, bridge)) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), bridge=st.booleans())
    def test_rows_equal_one_count_calls(self, data, bridge):
        om = corridor_with_trap(data.draw)
        self.check_rows(om, step_counts(data.draw, bridge, 20000), bridge)

    @pytest.mark.parametrize("bridge", [False, True])
    def test_a_grid_that_takes_both_paths(self, bridge):
        # 119 sites: the middle count runs the DP, the others squaring
        om = random_env(3, -59, 59).slice(-59, 59)
        steps = [4, 64, 8000]
        assert [_prefers_squaring(119, s, bridge) for s in steps] == [True, False, True]
        self.check_rows(om, steps, bridge)

    @staticmethod
    def check_rows(om, steps, bridge):
        want = [kernel._confined_rows(om, [s], bridge)[0] for s in steps]
        assert bits(kernel._confined_rows(om, steps, bridge)) == bits(want)
        # grids come in any order, repeats included
        assert bits(kernel._confined_rows(om, steps[::-1] + steps, bridge)) == bits(
            want[::-1] + want
        )

    @pytest.mark.parametrize("bridge", [False, True])
    def test_a_trip_partway_up_the_chain(self, bridge):
        # B^(2^j) loses entries to the guard once its band reaches the
        # trap: the counts that need that power read None, shorter ones not
        om = np.full(127, 0.5)
        om[2:5] = 1e-40
        steps = sorted({(3 if bridge else 1) + 2**k for k in range(1, 17)} | {2**k for k in range(1, 17)})
        steps = [s - s % 2 if bridge else s for s in steps]
        got = _squared_log(om, steps, bridge)
        assert bits(got) == bits([_squared_log(om, [s], bridge)[0] for s in steps])
        for odd in (0, 1):
            nones = [r is None for s, r in zip(steps, got) if s % 2 == odd]
            assert nones == sorted(nones)  # once a count trips, every longer one does
        assert None in got and any(r is not None for r in got)
        assert _squared_log(om, steps[-1:], bridge) == [None]

    def test_a_trip_on_one_vector_spares_the_other_counts(self, monkeypatch):
        # no natural case is known, so trip the vector that holds three
        # two-steps: it is on the way to s // 2 = 3, 7 and 11 only
        real = kernel._rescaled

        def tripping(x, positive):
            return None if x.ndim == 1 and positive == 7 else real(x, positive)

        monkeypatch.setattr(kernel, "_rescaled", tripping)
        om = random_env(5, -31, 31).slice(-31, 31)
        steps = [6, 8, 10, 12, 14, 22]
        got = _squared_log(om, steps, True)
        assert [r is None for r in got] == [True, False, False, False, True, True]
        assert bits(got) == bits([_squared_log(om, [s], True)[0] for s in steps])

    def test_a_trip_on_the_first_operands_gives_none_for_the_class(self):
        om = np.full(31, 0.5)
        om[20] = 1.0  # a one-way site: B has a zero inside its band
        assert _squared_log(om, [4, 5, 1000, 1001], False) == [None] * 4


def barrier_window(last: int) -> Environment:
    """The 61 sites ``[-30, 30]``: omega 0.1 for ``x <= 3``, which drains
    towards ``-M``; a barrier of 1e-40 on ``4 .. last``; 0.5 up to 29; and
    1e-40 at 30, which reflects."""
    x = np.arange(-30, 31)
    om = np.where(x <= 3, 0.1, np.where(x <= last, 1e-40, 0.5))
    om[-1] = 1e-40
    return Environment(-30, om)


class TestUnderflowWitness:
    """Cells flushed below a state's largest, against a log-domain oracle
    that keeps every cell (``oracles.confined_log_forward``)."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known defect: the DP and squaring flush a far trap's mass "
        "to 0 early, although that mass dominates later, and no bound "
        "counts it",
    )
    @pytest.mark.parametrize(
        "env,steps,m,bridge",
        [
            # a 17-site barrier: the package gives -4120.54, the oracle -1678.08
            (barrier_window(20), 8000, 31, True),
            # omega = 1e-40 everywhere: -2707.73 against -2698.50
            (Environment(-60, np.full(121, 1e-40)), 120, 61, False),
        ],
        ids=["far-trap-bridge", "plain-corridor"],
    )
    def test_a_flushed_trap_is_lost(self, env, steps, m, bridge):
        want = oracles.confined_log_forward(env, steps, m, bridge)
        assert_close_log(confined_log_prob(env, steps, m, require_bridge=bridge), want, 1e-10)

    def test_a_short_barrier_keeps_the_trap(self):
        # a 12-site barrier lets enough mass through: both give -1163.97566
        env = barrier_window(15)
        want = oracles.confined_log_forward(env, 8000, 31, True)
        assert_close_log(confined_log_prob(env, 8000, 31, require_bridge=True), want)

    def test_the_oracle_agrees_with_enumeration(self):
        env = random_env(1, -6, 6)
        for steps, m, bridge in [(10, 4, False), (12, 5, True), (9, 6, False), (14, 3, True)]:
            want = math.log(oracles.confined_probability(env, steps, m, bridge))
            assert_close_log(oracles.confined_log_forward(env, steps, m, bridge), want)


def full_rectangle(right_w, left_w, start, steps, trunc=0.0, leap=1):
    """The two-step propagation recursion by the step weights ``right_w``
    and ``left_w`` over every index of the parity of ``start + steps``,
    after one plain step when ``steps`` is odd, truncating through a mask
    over the whole vector.
    The reference the windowed :func:`_propagate` is held to: its weights
    come from the one-step weights, each two-step weight one product (two
    summed for staying), so they carry the same bits.  ``leap`` is taken,
    so that the reference can stand in for a leaping pass, and ignored:
    every state is yielded, and without truncation a leap changes the
    final state by rounding only.  Rescales are by the power of two that
    puts the maximum in [1/2, 1), with the exponents summed as integers."""
    w = right_w.size

    def right(i):  # one step right from index i; 0 off the weights
        return right_w[i] if 0 <= i < w else 0.0

    def left(i):
        return left_w[i] if 0 <= i < w else 0.0

    sites = range((start + steps) % 2, w, 2)
    stay = np.array([right(i) * left(i + 1) + left(i) * right(i - 1) for i in sites])
    from_left = np.array([right(i - 2) * right(i - 1) for i in sites])
    from_right = np.array([left(i + 2) * left(i + 1) for i in sites])
    mass = np.zeros(len(sites))
    k = steps % 2
    first = [(start - 1, left(start)), (start + 1, right(start))] if k else [(start, 1.0)]
    for i, v in first:
        if 0 <= i < w:
            mass[i // 2] = v
    ln2, exponent, disc_log = math.log(2.0), 0, -np.inf  # mass is scaled by 2**-exponent
    while True:
        m = mass.max(initial=0.0)
        if m == 0.0:
            yield k, mass, exponent * ln2, disc_log
            return
        small = (mass > 0.0) & (mass < m * trunc)
        if small.any():
            disc_log = np.logaddexp(disc_log, math.log(mass[small].sum()) + exponent * ln2)
            mass[small] = 0.0
        if m < kernel._RESCALE_LO or m > kernel._RESCALE_HI:
            e = math.frexp(m)[1]
            mass = np.ldexp(mass, -e)
            exponent += e
        yield k, mass, exponent * ln2, disc_log
        if k == steps:
            return
        k += 2
        new = mass * stay
        new[1:] += mass[:-1] * from_left[1:]
        new[:-1] += mass[1:] * from_right[:-1]
        mass = new


def parity_sites(w: int, start: int, steps: int) -> np.ndarray:
    """The indices of a ``w``-site ``om`` that the entries of a
    ``_propagate(om, 1 - om, start, steps)`` state stand for."""
    return np.arange((start + steps) % 2, w, 2)


class TestWindowedCore:
    """The live-window propagation against the full-rectangle recursion."""

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), w=st.integers(1, 130),
           steps=st.integers(0, 60), data=st.data())
    def test_states_are_bit_equal(self, law, seed, w, steps, data):
        # with no target, every state, killed at both ends of om or still
        # inside it, is the full recursion's mass and scale bit for bit
        start = data.draw(st.integers(0, w - 1))
        om = env_for(law, seed, 0, w - 1).slice(0, w - 1)
        # states are compared as they come: later steps overwrite them
        states = zip_longest(_propagate(om, 1.0 - om, start, steps),
                             full_rectangle(om, 1.0 - om, start, steps))
        for got, want in states:
            assert got is not None and want is not None
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]
            assert got[3] == want[3] == -np.inf

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), target=st.integers(-15, 15),
           horizon=st.integers(0, 300))
    def test_hitting_cdf_is_bit_equal(self, law, seed, target, horizon):
        env = env_for(law, seed, -320, 320)
        got = hitting_cdf(env, target, horizon)
        with mock.patch.object(kernel, "_propagate", wraps=full_rectangle) as rect:
            want = hitting_cdf(env, target, horizon)
        # the first passage to an odd (even) target takes an odd (even)
        # number of steps, at least one (two)
        assert rect.called == (target != 0 and horizon >= 2 - target % 2)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           steps=st.integers(0, 400), bridge=st.booleans())
    def test_confined_dp(self, law, seed, m, steps, bridge):
        steps -= steps % 2 if bridge else 0
        om = env_for(law, seed, -m, m).slice(-(m - 1), m - 1)
        got = dp_log(om, steps, bridge)
        with mock.patch.object(kernel, "_propagate", wraps=full_rectangle) as rect:
            want = dp_log(om, steps, bridge)
        rect.assert_called_once()
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150))
    def test_bridge_log_prob(self, law, seed, n):
        env = env_for(law, seed, -2 * n, 2 * n)
        got = bridge_log_prob(env, n, truncation=0.0, with_error_bound=True)
        with mock.patch.object(kernel, "_propagate", wraps=full_rectangle) as rect:
            want = bridge_log_prob(env, n, truncation=0.0)
        rect.assert_called_once()
        assert got[1] == -np.inf
        assert_close_log(got[0], want)

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           floor=st.sampled_from([1e-3, 1e-8, 0.3]))
    def test_truncation_bound_sandwiches_the_exact_probability(self, law, seed, n, floor):
        env = env_for(law, seed, -2 * n, 2 * n)
        lp, bound = bridge_log_prob(env, n, truncation=floor, with_error_bound=True)
        with mock.patch.object(kernel, "_propagate", wraps=full_rectangle) as rect:
            exact = bridge_log_prob(env, n, truncation=0.0)
        rect.assert_called_once()
        tol = 1e-12 * max(1.0, abs(exact))
        assert lp <= exact + tol
        assert exact <= np.logaddexp(lp, bound) + tol

    @settings(max_examples=40, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           floor=st.sampled_from([1e-3, 1e-8, 0.3]))
    def test_truncation_trims_both_tails(self, law, seed, n, floor):
        # every state's support starts and ends at or above the floor
        om = env_for(law, seed, -n, n).slice(-n, n)
        for _, mass, _, _ in _propagate(om, 1.0 - om, n, 2 * n, floor):
            support = mass[np.flatnonzero(mass)]
            least = floor * support.max() * (1.0 - 1e-12)
            assert support[0] >= least and support[-1] >= least

    @pytest.mark.parametrize("w,start,target,steps", [
        (1, 0, 0, 0), (1, 0, 0, 5), (2, 0, 1, 1), (2, 1, 0, 9), (5, 0, 4, 4),
        (5, 0, 4, 200), (5, 4, 0, 64), (7, 3, 3, 0), (7, 6, 6, 300),
    ])
    def test_edges(self, w, start, target, steps):
        # one site, no steps, and windows pinned to both ends of om; an
        # index of the other parity than start + steps (one site, five
        # steps) is never occupied, so its mass is the total, 0
        om = random_env(w + steps, 0, w - 1).slice(0, w - 1)
        index = target // 2 if (start + steps - target) % 2 == 0 else None
        *_, (_, mass, scale, _) = _propagate(om, 1.0 - om, start, steps)
        *_, (_, ref, ref_scale, _) = full_rectangle(om, 1.0 - om, start, steps)
        assert _final_log(mass, scale, index) == _final_log(ref, ref_scale, index)
        for got, want in zip_longest(_propagate(om, 1.0 - om, start, steps),
                                     full_rectangle(om, 1.0 - om, start, steps)):
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_bridges(self, n):
        env = random_env(n, -2 * n, 2 * n)
        with mock.patch.object(kernel, "_propagate", wraps=full_rectangle) as rect:
            want = bridge_log_prob(env, n)
        rect.assert_called_once()
        assert_close_log(bridge_log_prob(env, n), want)
        assert confined_log_prob(env, 2 * n, 1, require_bridge=True) == -np.inf

    def test_truncation_outside_unit_interval_rejected(self):
        env = random_env(1, -4, 4)
        for floor in (-1e-3, 1.0, 2.0):
            with pytest.raises(DomainError):
                bridge_log_prob(env, 2, truncation=floor)


def log_total(state, index=None) -> float:
    """``_final_log`` of a yielded ``(k, mass, scale, disc_log)`` state."""
    return _final_log(state[1], state[2], index)


class TestLeap:
    """The final state of a pass that advances ``kernel._LEAP`` two-steps
    per iteration, against the two-step recursion."""

    @settings(max_examples=150, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), w=st.integers(1, 130),
           steps=st.integers(0, 400), floor=st.sampled_from([0.0, 1e-3, 1e-8, 0.3]),
           data=st.data())
    # a single leap in a window narrower than the band, and remainders of 15
    # steps in the widest windows
    @example(law=None, seed=0, w=5, steps=16, floor=0.0, data=None)
    @example(law=None, seed=1, w=130, steps=31, floor=0.3, data=None)
    @example(law=None, seed=2, w=129, steps=399, floor=1e-8, data=None)
    def test_final_state_matches_the_full_rectangle(self, law, seed, w, steps, floor, data):
        start = w // 2 if data is None else data.draw(st.integers(0, w - 1))
        om = env_for(law, seed, 0, w - 1).slice(0, w - 1)
        args = (om, 1.0 - om, start, steps)
        *_, got = _propagate(*args, floor, leap=kernel._LEAP)
        *_, exact = full_rectangle(*args)
        index = start // 2 if steps % 2 == 0 else None
        if floor == 0.0:
            # a leap yields an all-zero state after a full leap, not at the
            # two-step where its mass ran out
            assert got[0] == exact[0] or not exact[1].any()
            assert got[3] == -np.inf
            for i in {None, index}:
                assert_close_log(log_total(got, i), log_total(exact, i), 1e-13)
        # the truncation sandwich: the walk loses no more total mass than
        # the pass dropped
        lp, truth = log_total(got), log_total(exact)
        if truth == -np.inf:
            assert lp == -np.inf
            return
        tol = 1e-13 * max(1.0, abs(truth))
        assert lp <= truth + tol
        assert truth <= np.logaddexp(lp, got[3]) + tol

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
           floor=st.sampled_from([0.0, 1e-3, 1e-8, 0.3]))
    def test_bridge_sandwich(self, law, seed, n, floor):
        env = env_for(law, seed, -2 * n, 2 * n)
        lp, bound = bridge_log_prob(env, n, truncation=floor, with_error_bound=True)
        exact = dp_log(env.slice(-n, n), 2 * n, True)
        tol = 1e-13 * max(1.0, abs(exact))
        if floor == 0.0:
            assert bound == -np.inf
            assert abs(lp - exact) <= tol
        assert lp <= exact + tol
        assert exact <= np.logaddexp(lp, bound) + tol

    @staticmethod
    def leap_lengths(call) -> tuple[float, set[int]]:
        """``call()`` and the leap lengths whose bands it built."""
        with mock.patch.object(kernel, "_leap_band", wraps=kernel._leap_band) as band:
            got = call()
        return got, {c.args[-1] for c in band.call_args_list}

    @pytest.mark.parametrize("n", [60, 300])
    def test_tiny_weights_shorten_the_leap(self, n):
        # omega = 1e-40 everywhere: every two-step weight of the symmetric
        # walk is 1e-40, so a full leap's band would hold subnormal entries
        env = homogeneous_env(1e-40, -2 * n, 2 * n)
        assert (1e-40) ** kernel._LEAP < np.finfo(float).tiny
        got, lengths = self.leap_lengths(lambda: bridge_log_prob(env, n))
        assert lengths == {kernel._LEAP - 1}
        want = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) + n * math.log(1e-40 * (1 - 1e-40))
        assert_close_log(got, want, 1e-13)
        with mock.patch.object(kernel, "_LEAP", 1):  # the two-step core
            assert_close_log(got, bridge_log_prob(env, n), 1e-13)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_stretch_of_tiny_weights(self, seed):
        # the walk's two-step weights reach 1e-80 there, the symmetric
        # walk's 1e-40: each pass takes the longest leap that stays normal
        n = 400
        om = random_env(seed, -n, n).slice(-n, n).copy()
        om[n - 40 : n - 30] = 1e-40
        for bridge, length in [(True, kernel._LEAP - 1), (False, 3)]:
            got, lengths = self.leap_lengths(lambda: kernel._confined_rows(om, [2 * n], bridge)[0])
            assert lengths == {length}
            assert_close_log(got, dp_log(om, 2 * n, bridge), 1e-13)


def inside(w: int, start: int):
    """Event on an oracle path from 0: it stays on indices ``[0, w)`` of om
    when shifted to ``start``."""
    return lambda s: bool(np.all((s + start >= 0) & (s + start < w)))


class TestTwoStepEdges:
    """Edges of the two-step core against enumeration."""

    @pytest.mark.parametrize("w,start", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 2)])
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_odd_steps_killed_on_the_plain_step(self, w, start, steps):
        # the plain first step leaves om on both sides (w = 1) or on one
        # (start at index 0 or w - 1); entry j of state k is the mass at
        # index par + 2j that never left om
        env = random_env(10 * w + start + steps, -8, 8)
        om = env.slice(0, w - 1)
        stays = inside(w, start)
        ks = []
        for k, mass, scale, _ in _propagate(om, 1.0 - om, start, steps):
            ks.append(k)
            for j, x in enumerate(parity_sites(w, start, steps)):
                exact = oracles.event_probability(
                    env.shift(start), k, lambda s, x=x: stays(s) and s[-1] + start == x
                )
                assert mass[j] * math.exp(scale) == pytest.approx(exact, abs=1e-12)
        # one site kills everything on the plain step, and the core stops
        assert ks == ([1] if w == 1 else list(range(1, steps + 1, 2)))

    @pytest.mark.parametrize("w,start,target,steps", [
        (5, 2, 0, 2), (5, 2, 4, 6), (5, 1, 4, 3), (5, 3, 0, 7), (6, 2, 5, 5),
        (6, 3, 0, 9), (4, 0, 3, 3), (4, 3, 0, 3), (4, 0, 0, 8), (4, 3, 3, 8),
        (1, 0, 0, 2),
    ])
    def test_target_at_either_end_of_om(self, w, start, target, steps):
        env = random_env(w + start + target + steps, -12, 12)
        om = env.slice(0, w - 1)
        stays = inside(w, start)
        *_, (_, mass, scale, _) = _propagate(om, 1.0 - om, start, steps)
        exact = oracles.event_probability(
            env.shift(start), steps, lambda s: stays(s) and s[-1] + start == target
        )
        got = _final_log(mass, scale, target // 2)
        assert math.exp(got) == pytest.approx(exact, abs=1e-12)
        assert (got == -np.inf) == (exact == 0.0)

    @pytest.mark.parametrize("target", [-3, -2, -1, 1, 2, 3])
    @pytest.mark.parametrize("horizon", [0, 1, 2])
    def test_hitting_cdf_at_short_horizons(self, target, horizon):
        env = random_env(10 * horizon + target + 3, -4, 4)
        got = hitting_cdf(env, target, horizon)
        exact = oracles.hitting_cdf(env, target, horizon)
        assert got.shape == exact.shape
        assert np.max(np.abs(got - exact)) <= 1e-12

    @pytest.mark.parametrize("w", [1, 3])
    def test_exit_series_reads_the_even_states(self, w):
        # the exit-time series of asymptotics.exit_mgf_dp at ell = 1, 2:
        # from index 0 the walk can leave om only from the even indices 0
        # and w - 1, so the states after an even number of steps give the
        # whole exit-time law
        env = random_env(w, -8, 8)
        om = env.slice(0, w - 1)
        stays = inside(w, 0)
        steps = 10
        exits = np.zeros(steps + 2)
        for k, mass, scale, _ in _propagate(om, 1.0 - om, 0, steps):
            exits[k + 1] = ((1.0 - om[0]) * mass[0] + om[-1] * mass[-1]) * math.exp(scale)
        for t in range(1, steps + 2):
            exact = oracles.event_probability(
                env, t, lambda s: stays(s[:-1]) and not stays(s[-1:])
            )
            assert exits[t] == pytest.approx(exact, abs=1e-12)


ONE_WAY_OMEGAS = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.3]


@st.composite
def one_way_windows(draw):
    """``(n, om, m)``: the ``2n + 1`` omegas of ``[-n, n]``, exact 0 and 1
    among the values unless drawn elliptic, and a corridor's ``M``."""
    n = draw(st.integers(1, 7))
    values = ONE_WAY_OMEGAS[2:] if draw(st.booleans()) else ONE_WAY_OMEGAS
    om = draw(st.lists(st.sampled_from(values), min_size=2 * n + 1, max_size=2 * n + 1))
    return n, om, draw(st.integers(1, n + 1))


def with_omega(env: Environment, x: int, omega: float) -> Environment:
    """A copy of ``env`` with ``omega_x`` set to ``omega``."""
    om = env.omegas.copy()
    om[x - env.lo] = omega
    return Environment(env.lo, om)


def truncated_bridge(env: Environment, n: int, floor: float) -> tuple[float, float, float]:
    """``bridge_log_prob(env, n, floor, with_error_bound=True)`` and the log
    of the mass ``d`` that its ``n``-step pass dropped."""
    disc_logs = []

    def spied(*args, **kwargs):
        for state in _propagate(*args, **kwargs):
            disc_logs.append(state[3])
            yield state

    with mock.patch.object(kernel, "_propagate", spied):
        lp, bound = bridge_log_prob(env, n, truncation=floor, with_error_bound=True)
    return lp, bound, disc_logs[-1]


class TestHalfLengthBridge:
    """The ``n``-step bridge by reversibility against the ``2n``-step DP
    and enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           m=st.integers(1, 64))
    def test_agrees_with_the_full_length_dp(self, law, seed, n, m):
        env = env_for(law, seed, -2 * max(n, m), 2 * max(n, m))
        assert_close_log(bridge_log_prob(env, n, truncation=0.0),
                         dp_log(env.slice(-n, n), 2 * n, True))
        om = env.slice(-(m - 1), m - 1)
        want = dp_log(om, 2 * n, True)
        assert_close_log(confined_log_prob(env, 2 * n, m, require_bridge=True), want)
        assert_close_log(kernel._bridge_log(om, 1.0 - om, [n], 0.0)[0][0], want)

    @settings(max_examples=40, deadline=None)
    @given(one_way_windows())
    # omega_0 = 0 and 1 (the walk's first step is forced)
    @example((3, [0.3, 0.7, 0.5, 0.0, 0.5, 0.3, 0.7], 4))
    @example((3, [0.3, 0.7, 0.5, 1.0, 0.5, 0.3, 0.7], 4))
    # (omega_-1, omega_0) = (1, 0): a sure bounce, P = 1
    @example((3, [0.3, 0.7, 1.0, 0.0, 0.5, 0.3, 0.7], 4))
    @example((3, [0.3, 0.7, 1.0, 0.0, 0.5, 0.3, 0.7], 2))
    # (omega_0, omega_1) = (1, 1): a sure escape, P = 0
    @example((3, [0.3, 0.7, 0.5, 1.0, 1.0, 0.3, 0.7], 4))
    # a one-way site on the last site M - 1 of the corridor, M = 3
    @example((3, [0.3, 0.7, 0.5, 0.5, 0.7, 1.0, 0.3], 3))
    @example((3, [0.3, 0.7, 0.5, 0.5, 0.7, 0.0, 0.3], 3))
    @example((3, [0.3, 1.0, 0.5, 0.5, 0.7, 0.3, 0.3], 3))
    def test_matches_enumeration_with_one_way_sites(self, case):
        # exact 0 and 1 cut the slice, near-one-way values do not
        n, om, m = case
        env = Environment(-2 * n, np.pad(np.array(om), n, constant_values=0.5))
        cut = env.slice(-(m - 1), m - 1)
        cases = [
            (bridge_log_prob(env, n), oracles.bridge_probability(env, n)),
            (kernel._bridge_log(cut, 1.0 - cut, [n], 0.0)[0][0],
             oracles.confined_probability(env, 2 * n, m, require_bridge=True)),
        ]
        for got, exact in cases:
            if exact == 0.0:
                assert got == -np.inf
            else:
                assert abs(got - math.log(exact)) <= 1e-12, (got, exact)

    @pytest.mark.parametrize("omega", [None, 0.0, 1.0])
    def test_propagates_half_the_steps_unless_a_site_is_one_way(self, omega):
        # a one-way site at x = 3 does not force all 2n steps either: the
        # symmetric walk gives its edges weight 0 both ways
        n, m, steps = 40, 64, 20
        env = random_env(7, -2 * m, 2 * m)
        if omega is not None:
            env = with_omega(env, 3, omega)
        assert not _prefers_squaring(2 * m - 1, steps, True)
        for call, half, width in [(lambda: bridge_log_prob(env, n), n, n),
                                  (lambda: confined_log_prob(env, steps, m, require_bridge=True),
                                   steps // 2, m - 1)]:
            with mock.patch.object(kernel, "_propagate", wraps=kernel._propagate) as spy:
                got = call()
            spy.assert_called_once()
            args, kwargs = spy.call_args
            assert args[2:4] == (width, half) and kwargs == {"leap": kernel._LEAP}
            assert_close_log(got, dp_log(env.slice(-width, width), 2 * half, True))

    def test_truncation_bound_at_a_deep_floor(self):
        n = 512
        env = sample_environment(NESTLING_K2, 0, -2 * n, 2 * n)
        lp, bound = bridge_log_prob(env, n, truncation=1e-100, with_error_bound=True)
        assert -np.inf < bound < lp
        exact = dp_log(env.slice(-n, n), 2 * n, True)
        tol = 1e-12 * abs(exact)
        assert lp <= exact + tol
        assert exact <= np.logaddexp(lp, bound) + tol

    def test_truncation_loss_is_at_most_2_root_p_dropped(self):
        # a coarse floor drops mass at early states that still feeds kept
        # cells; ||K~||_2 <= 1 bounds the loss by 2 sqrt(P) times the mass
        # dropped, which the bound 2 * dropped (P near 1 here) contains
        n = 6
        env = Environment(-2 * n, np.array([
            0.95, 0.7, 0.5, 0.3, 0.99, 0.01, 0.7, 0.01, 0.7, 0.99, 0.99, 0.99, 0.05,
            0.01, 0.01, 0.05, 0.5, 0.95, 0.05, 0.99, 0.3, 0.3, 0.01, 0.99, 0.99]))
        lp, bound = bridge_log_prob(env, n, truncation=0.3, with_error_bound=True)
        exact = oracles.bridge_probability(env, n)
        loss = exact - math.exp(lp)
        assert loss > 0.0
        assert loss <= math.sqrt(exact) * math.exp(bound) * (1.0 + 1e-12)
        assert loss <= math.exp(bound)

    @settings(max_examples=40, deadline=None)
    @given(envs_strategy(10), st.integers(1, 5), st.sampled_from([0.01, 0.1, 0.3, 0.6]))
    def test_quadratic_bound_sandwiches_the_enumeration(self, env, n, floor):
        lp, bound, log_d = truncated_bridge(env, n, floor)
        exact = oracles.bridge_probability(env, n)
        assert math.exp(lp) <= exact * (1.0 + 1e-12)
        assert exact <= (math.exp(lp) + math.exp(bound)) * (1.0 + 1e-12)
        # never looser than the earlier bound 2 d
        assert bound <= math.log(2.0) + log_d

    @pytest.mark.parametrize("p,n,floor", [(0.8, 40, 1e-4), (0.9, 20, 1e-3)])
    def test_quadratic_bound_certifies_where_2d_did_not(self, p, n, floor):
        # the drift keeps P small, while the early states, still of mass
        # near 1, drop d: the earlier bound 2 d is above P, the new one below
        env = homogeneous_env(p, -2 * n, 2 * n)
        lp, bound, log_d = truncated_bridge(env, n, floor)
        want = math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1) + n * math.log(p * (1 - p))
        assert math.log(2.0) + log_d >= want
        assert bound < want
        tol = 1e-12 * abs(want)
        assert lp <= want + tol
        assert want <= np.logaddexp(lp, bound) + tol


def benchmark_reference(workload: str, slot: str) -> dict:
    """The reference outputs of one slot of a repository benchmark workload."""
    path = ROOT / "perfbench" / "reference" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["slots"][slot]


def perfbench_workload(name: str):
    """A workload of the repository benchmark, read from its definition."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS[name]


def demo_law(name: str) -> SiteDistribution:
    return rwre.load_distribution(ROOT / "demos" / "dists" / name)


DEMO_LAWS = sorted(p.name for p in (ROOT / "demos" / "dists").glob("*.txt"))


class TestBridgeGrid:
    """One pass to the largest ``n`` of a leap grid serves every ``n`` of
    it, each row bit for bit the row of its own ``bridge_log_prob``."""

    GRIDS = [
        [0, 16, 48, 160],  # residue 0, from the pass's first state
        [3, 19, 67, 131],  # 3 lies in the plain two-steps before the first leap
        [13, 45, 205],
        [15, 31, 95],
        [1, 3, 5, 7, 9, 11, 13, 15],  # passes of plain two-steps only
        [0, 2, 4, 6, 8, 10, 12, 14],
    ]

    @staticmethod
    def own_rows(env, grid, truncation):
        return [bridge_log_prob(env, n, truncation=truncation, with_error_bound=True)
                for n in grid]

    @pytest.mark.parametrize("law", DEMO_LAWS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("truncation", [0.0, 1e-30])
    def test_each_stop_is_its_own_pass(self, law, seed, truncation):
        env = sample_environment(demo_law(law), seed, -205, 205)
        for grid in self.GRIDS:
            om = env.slice(-grid[-1], grid[-1])
            got = kernel._bridge_log(om, 1.0 - om, grid, truncation)
            assert got == self.own_rows(env, grid, truncation), grid

    @pytest.mark.parametrize("law", DEMO_LAWS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_truncation_on_both_sides_of_its_threshold(self, law, seed):
        # 4080 runs untruncated, 4096 and 4112 share one truncated pass
        grid = [4080, 4096, 4112]
        env = sample_environment(demo_law(law), seed, -grid[-1], grid[-1])
        with mock.patch.object(kernel, "_bridge_log", wraps=kernel._bridge_log) as passes:
            got = kernel._bridge_rows(env, grid, None)
        assert [c.args[2] for c in passes.call_args_list] == [[4080], [4096, 4112]]
        assert got == self.own_rows(env, grid, None)

    def test_truncation_drops_mass_on_these_grids(self):
        env = sample_environment(NESTLING_K2, 0, -205, 205)
        bounds = [b for grid in self.GRIDS for _, b in self.own_rows(env, grid, 1e-30)]
        assert any(b > -np.inf for b in bounds)

    def test_rows_after_the_mass_runs_out_read_minus_inf(self):
        # omega_-1 = omega_0 = 0: the walk leaves the origin leftwards for
        # good, so the symmetric walk's mass dies on its first step out
        # (in the first leap of the pass to 64)
        env = sample_environment(NESTLING_K2, 0, -64, 64)
        env = with_omega(with_omega(env, -1, 0.0), 0, 0.0)
        for grid in ([0, 16, 32, 64], [1, 17, 33], [2, 4, 6]):
            om = env.slice(-grid[-1], grid[-1])
            got = kernel._bridge_log(om, 1.0 - om, grid, 0.0)
            assert got == self.own_rows(env, grid, 0.0)
            assert got[-1] == (-np.inf, -np.inf)

    def test_a_shortened_leap_runs_its_own_pass(self):
        # omega = 1e-40 at 40 <= x <= 45 puts two-step weights near 1e-40
        # there: the pass over [-64, 64] leaps 7 two-steps, so 32 is off
        # its grid, while the pass over [-32, 32] leaps 8
        om = sample_environment(NESTLING_K2, 0, -64, 64).omegas.copy()
        om[64 + 40 : 64 + 46] = 1e-40
        env = Environment(-64, om)
        with pytest.raises(ValueError, match="leap grid"):
            kernel._bridge_log(om, 1.0 - om, [32, 64], 0.0)
        with mock.patch.object(kernel, "_bridge_log", wraps=kernel._bridge_log) as passes:
            got = kernel._bridge_rows(env, [32, 64], 0.0)
        assert passes.call_count == 2
        assert got == self.own_rows(env, [32, 64], 0.0)


class TestBenchmarkReference:
    """The package against the reference outputs of the repository benchmark."""

    @pytest.mark.parametrize("slot", [str(k) for k in range(16)])
    def test_bridge_wide_reference(self, slot, tmp_path, capsys):
        # the workload's own bridge-prob run of this slot, through the command line
        want = benchmark_reference("bridge_wide", slot)["bridge_prob.csv"]
        config = tmp_path / "bridge_wide.ini"
        config.write_text(perfbench_workload("bridge_wide").config_text(ROOT / "demos" / "dists"),
                          encoding="utf-8")
        out = tmp_path / "runs"
        argv = ["bridge-prob", "--config", str(config), "--out", str(out), "--seed-offset", slot]
        assert rwre.cli.main(argv) == 0
        capsys.readouterr()
        (run_dir,) = out.iterdir()
        header, *rows = (run_dir / "bridge_prob.csv").read_text(encoding="utf-8").splitlines()
        assert header == want["header"]
        assert len(rows) == len(want["rows"]) == 3
        for got_row, want_row in zip(rows, want["rows"]):
            *got_key, got = got_row.split(",")
            *want_key, value = want_row.split(",")
            assert got_key == want_key
            assert abs(float(got) - float(value)) <= 1e-12 * abs(float(value))

    @pytest.mark.parametrize("slot", [str(k) for k in range(16)])
    def test_maxdisp_probe_reference(self, slot):
        ref = benchmark_reference("maxdisp_probe", slot)
        law = demo_law("nestling_k2.txt")
        assert ref["maxdisp_summary.csv"]["header"] == "seed,n,median,q05,q95"
        assert ref["maxdisp_cdf.csv"]["header"] == "seed,n,m,cdf"
        summary, keys, values = [], [], []
        for row in ref["maxdisp_summary.csv"]["rows"]:
            seed, n = (int(v) for v in row.split(",")[:2])
            env = sample_environment(law, seed, -2 * n, 2 * n)
            bridge = kernel._BridgeLaw(env, n)
            # the max-disp-exact runner's default grid of 33 points, then
            # the quantiles, as the runner asks them
            grid = np.unique(np.round(np.geomspace(1, n, 33)).astype(np.int64)).tolist()
            keys += [f"{seed},{n},{m}" for m in grid]
            values += [bridge.cdf(m) for m in grid]
            q05, med, q95 = [bridge.quantile(q) for q in (0.05, 0.5, 0.95)]
            summary.append(f"{seed},{n},{med},{q05},{q95}")
        assert summary == ref["maxdisp_summary.csv"]["rows"]
        want = [row.rsplit(",", 1) for row in ref["maxdisp_cdf.csv"]["rows"]]
        assert keys == [key for key, _ in want]
        assert np.max(np.abs(np.array(values) - [float(v) for _, v in want])) <= 1e-12

    @pytest.mark.parametrize("slot", ["0", "1"])
    def test_corridor_long_reference(self, slot):
        rows = benchmark_reference("corridor_long", slot)["confined.csv"]["rows"]
        law = demo_law("marginal.txt")
        assert len(rows) == 8
        for row in rows:
            seed, n, m, want = row.split(",")
            env = sample_environment(law, int(seed), -int(m), int(m))
            got = confined_log_prob(env, 2 * int(n), int(m), require_bridge=True)
            assert abs(got - float(want)) <= 1e-12 * abs(float(want)), row

    def test_bridge_sampling_reference(self, tmp_path, capsys):
        # the sample-bridge run of slot 0, through the command line
        ref = benchmark_reference("bridge_sampling", "0")
        config = tmp_path / "sample.ini"
        config.write_text(
            "[sample-bridge]\n"
            f"distribution = {ROOT / 'demos' / 'dists' / 'nestling_k2.txt'}\n"
            "n_grid = 512, 2048\nseeds = 0\nn_samples = 2000\nexport_paths = 8\n",
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        assert rwre.cli.main(["sample-bridge", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        (run_dir,) = out.iterdir()
        header, *rows = (run_dir / "sampler_summary.csv").read_text(encoding="utf-8").splitlines()
        want = ref.pop("sampler_summary.csv")
        assert header == want["header"]
        assert len(rows) == len(want["rows"]) == 2
        for got_row, want_row in zip(rows, want["rows"]):
            *got_ints, got_mean = got_row.split(",")
            *want_ints, want_mean = want_row.split(",")
            assert got_ints == want_ints
            assert abs(float(got_mean) - float(want_mean)) <= 1e-12 * float(want_mean)
        paths = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in run_dir.glob("path-*.csv")}
        assert paths == {name: rec["sha256"] for name, rec in ref.items()}


def occupation(env: Environment, lo: int, hi: int, start: int, steps: int) -> np.ndarray:
    """Row ``k`` is the linear mass over sites ``[lo, hi]`` after ``k`` steps
    from ``start``, killed on leaving them, read off the last state of a
    ``k``-step ``_propagate``; the sites of the other parity stay 0."""
    om = env.slice(lo, hi)
    rows = np.zeros((steps + 1, om.size))
    for k in range(steps + 1):
        *_, (_, mass, scale, _) = _propagate(om, 1.0 - om, start - lo, k)
        rows[k, parity_sites(om.size, start - lo, k)] = mass * math.exp(scale)
    return rows


class TestForwardTable:
    """Occupation rows of the propagation core."""

    def test_unrestricted_mass_conserved_every_step(self):
        env = random_env(2, -15, 15)
        sums = occupation(env, -15, 15, 0, 15).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-12)

    def test_parity_pattern(self):
        env = random_env(2, -6, 6)
        rows = occupation(env, -6, 6, 0, 6)
        for k in range(7):
            for x in range(-6, 7):
                if (x - k) % 2 != 0:
                    assert rows[k, x + 6] == 0.0

    def test_rows_match_enumeration(self):
        env = random_env(7, -5, 5)
        rows = occupation(env, -5, 5, 0, 5)
        for k in (2, 5):
            for x in range(-k, k + 1):
                exact = oracles.event_probability(
                    env, k, lambda s, x=x: s[-1] == x
                )
                assert rows[k, x + 5] == pytest.approx(exact, abs=1e-12)

    def test_killing_interval_mass_decreases(self):
        env = random_env(4, -5, 5)
        sums = occupation(env, -2, 2, 0, 12).sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(np.diff(sums) <= 1e-12)

    def test_start_offset(self):
        env = random_env(4, -8, 8)
        rows = occupation(env, -1, 5, 2, 3)
        assert rows[0, 2 + 1] == 1.0
        exact = oracles.event_probability(
            env.shift(2), 3, lambda s: s[-1] == 1
        )
        assert rows[3, 3 + 1] == pytest.approx(exact, abs=1e-13)


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
        # wide band.  Survival is read off the rescaled killing propagation
        # because the linear-domain CDF cannot resolve it below ~1e-16.
        ns = [2**k for k in range(8, 14)]
        lnln = []
        for n in ns:
            m = math.ceil(n**0.5)
            vals = []
            for seed in range(20):
                env = sample_environment(NESTLING_K2, seed, -1, m).reflect_plus()
                om = env.slice(0, m - 1)
                *_, (_, mass, scale, _) = _propagate(om, 1.0 - om, 0, n)
                lp = _final_log(mass, scale, None)
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
        # non-integral thresholds are rejected, not truncated
        for bad in ([2.5, 3.9], [2.0, float("nan")], [float("inf")], [[2, 3]]):
            with pytest.raises(DomainError):
                max_disp_bridge_cdf(env, 2, m_values=bad)
        assert np.array_equal(
            max_disp_bridge_cdf(env, 2, m_values=[2.0, 3.0]),
            max_disp_bridge_cdf(env, 2, m_values=[2, 3]),
        )

    def test_degenerate_bridge_detected(self):
        env = Environment(-3, np.ones(7))  # every step forced right
        with pytest.raises(DegenerateBridgeError):
            max_disp_bridge_cdf(env, 1)


def plain_cdf(env: Environment, n: int, m: int, bridge_lp: float) -> float:
    """``cdf(M)`` by one corridor probe, with no skip."""
    joint = confined_log_prob(env, 2 * n, m, require_bridge=True)
    return min(1.0, float(np.exp(joint - bridge_lp)))


def underflowed_cone_cells(env: Environment, n: int) -> int:
    """Forward-cone cells that the untruncated bridge's ``n``-step pass
    leaves at 0, over the states it computes: those after ``n % 2, n % 2 +
    2, ..., n`` steps."""
    zeros = 0

    def counted(*args, **kwargs):
        nonlocal zeros
        for k, mass, scale, disc_log in _propagate(*args, **kwargs):
            # sites n - k .. n + k of the slice, step 2
            zeros += np.count_nonzero(mass[(n - k) // 2 : (n + k) // 2 + 1] == 0.0)
            yield k, mass, scale, disc_log

    with mock.patch.object(kernel, "_propagate", counted):
        bridge_log_prob(env, n, truncation=0.0)
    return zeros


def query_in_order(env: Environment, n: int, ms) -> list[tuple[int, float, bool]]:
    """``(M, cdf(M), probed)`` for each ``M`` of ``ms`` in order, from one
    ``_BridgeLaw``; ``probed`` tells whether the query ran a corridor
    probe."""
    calls = []
    real = kernel.confined_log_prob

    def counted(env, steps, m, **kwargs):
        calls.append(m)
        return real(env, steps, m, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "confined_log_prob", counted)
        law = kernel._BridgeLaw(env, n)
        out = []
        for m in ms:
            before = len(calls)
            value = law.cdf(m)
            out.append((m, value, len(calls) > before))
    return out


def assert_monotone_skip(rows: list[tuple[int, float, bool]]) -> list[int]:
    """Check that no query at or above a probe that read 1.0 ran a probe,
    and that every such query read 1.0; return the skipped ``M``."""
    strip, skipped = math.inf, []
    for m, value, probed in rows:
        if m >= strip:
            assert not probed and value == 1.0, m
            skipped.append(m)
        elif probed and value == 1.0:
            strip = m
    return skipped


class TestTailCertificate:
    """The monotone skip: the CDF is non-decreasing in ``M``, so a probe
    that reads 1.0 settles every larger ``M`` of its law."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_any_query_order_matches_enumeration(self, n, data):
        # near-one-way sites make probes below n + 1 read 1.0
        omega = st.one_of(st.floats(0.01, 0.99), st.sampled_from([1e-9, 1.0 - 1e-9]))
        om = data.draw(st.lists(omega, min_size=2 * n + 1, max_size=2 * n + 1))
        # the window _BridgeLaw requires; no bridge reaches the padding
        env = Environment(-2 * n, np.pad(np.array(om), n, constant_values=0.5))
        order = data.draw(st.permutations(range(1, n + 2)))
        rows = query_in_order(env, n, order)
        exact = oracles.max_disp_cdf(env, n, order)
        assert np.max(np.abs([v for _, v, _ in rows] - exact)) <= 1e-12
        assert_monotone_skip(rows)

    def test_skip_fires_below_n_plus_one(self):
        n = 8
        om = random_env(0, -2 * n, 2 * n).slice(-2 * n, 2 * n).copy()
        for x in (n - 3, n - 2):  # every path out to +-(n - 1) pays two 1e-9 steps
            om[2 * n + x], om[2 * n - x] = 1e-9, 1.0 - 1e-9
        env = Environment(-2 * n, om)
        ms = list(range(1, n + 2))
        rows = query_in_order(env, n, ms)
        assert [m for m, _, probed in rows if probed] == list(range(1, n))
        assert assert_monotone_skip(rows) == [n, n + 1]
        exact = oracles.max_disp_cdf(env, n, ms)
        assert np.max(np.abs([v for _, v, _ in rows] - exact)) <= 1e-12

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_one_way_site_skips_too(self, omega):
        n = 64
        om = random_env(3, -2 * n, 2 * n).slice(-2 * n, 2 * n).copy()
        om[2 * n + 40] = omega
        env = Environment(-2 * n, om)
        blp = bridge_log_prob(env, n)
        rows = query_in_order(env, n, range(1, n + 1))
        skipped = assert_monotone_skip(rows)
        assert skipped
        for m, value, probed in rows:
            plain = plain_cdf(env, n, m, blp)
            if probed:
                assert value == plain
            else:
                assert abs(value - plain) <= 1e-12

    @pytest.mark.parametrize("floor", [None, 1e-300])
    def test_certified_probes_read_one_where_cells_are_lost(self, floor, monkeypatch):
        n = 1024
        env = sample_environment(NESTLING_K2, 0, -2 * n, 2 * n)
        assert underflowed_cone_cells(env, n) > 0
        if floor is not None:  # truncate the bridge
            monkeypatch.setattr(kernel, "_AUTO_TRUNCATION_N", 1)
            monkeypatch.setattr(kernel, "_AUTO_TRUNCATION_THRESHOLD", floor)
        blp, disc_log = bridge_log_prob(env, n, with_error_bound=True)
        assert (disc_log > -np.inf) == (floor is not None)
        grid = np.unique(np.round(np.geomspace(1, n, 33)).astype(np.int64)).tolist()
        rows = query_in_order(env, n, grid)
        skipped = assert_monotone_skip(rows)
        assert len(skipped) >= 4
        for m, value, probed in rows:
            plain = plain_cdf(env, n, m, blp)
            if probed:
                assert value == plain
            else:
                assert abs(value - plain) <= 1e-12

    def test_coarse_truncation_bounds_the_skipped_rows(self, monkeypatch):
        n = 1024
        env = sample_environment(NESTLING_K2, 0, -2 * n, 2 * n)
        exact_lp = bridge_log_prob(env, n, truncation=0.0)
        monkeypatch.setattr(kernel, "_AUTO_TRUNCATION_N", 1)
        monkeypatch.setattr(kernel, "_AUTO_TRUNCATION_THRESHOLD", 1e-100)
        blp, disc_log = bridge_log_prob(env, n, with_error_bound=True)
        assert disc_log > -np.inf
        grid = np.unique(np.round(np.geomspace(1, n, 33)).astype(np.int64)).tolist()
        rows = query_in_order(env, n, grid)
        skipped = assert_monotone_skip(rows)
        assert skipped
        # the truncated bridge can read 1.0 early, but never by more than
        # the mass that it dropped
        for m in skipped:
            plain = plain_cdf(env, n, m, exact_lp)
            assert abs(1.0 - plain) <= math.exp(disc_log - blp) + 1e-12


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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**16),
    )
    def test_galloping_agrees_with_cdf_scan_and_enumeration(self, n, q, seed):
        env = random_env(seed, -2 * n, 2 * n)
        got = bridge_max_quantile(env, n, q)
        ms = np.arange(2, n + 2)
        cdf_at = max_disp_bridge_cdf(env, n, m_values=ms)
        assert got == 1 + int(np.argmax(cdf_at >= q))
        # enumeration agrees wherever q is not within rounding of a CDF value
        exact = oracles.max_disp_cdf(env, n, ms)
        assert np.max(np.abs(cdf_at - exact)) <= 1e-12
        if np.min(np.abs(exact - q)) > 1e-12:
            assert got == 1 + int(np.argmax(exact >= q))

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("n", [64, 512])
    def test_probes_stay_within_twice_the_answer(self, q, seed, n):
        probes = []
        real = kernel.confined_log_prob

        def counted(env, steps, m, **kwargs):
            probes.append(m)
            return real(env, steps, m, **kwargs)

        env = sample_environment(NESTLING_K2, seed, -2 * n, 2 * n)
        with mock.patch.object(kernel, "confined_log_prob", counted):
            got = kernel._BridgeLaw(env, n).quantile(q)
        assert got == bridge_max_quantile(env, n, q)
        assert probes and max(probes) <= 2 * (got + 1)
        assert len(probes) <= 2 * (got + 1).bit_length()

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
