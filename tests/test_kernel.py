"""Exact DP kernels against enumeration oracles, closed forms, and each other."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rwre
from conftest import MARGINAL, NESTLING_K2, NON_NESTLING, homogeneous_env
from rwre import (
    DegenerateBridgeError,
    DomainError,
    Environment,
    OrderingError,
    ParityError,
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


def env_for(law, seed: int, lo: int, hi: int) -> Environment:
    if law is None:
        return random_env(seed, lo, hi)
    return sample_environment(law, seed, lo, hi)


LAWS = st.sampled_from([NESTLING_K2, MARGINAL, NON_NESTLING, None])


def dp_log(om: np.ndarray, steps: int, bridge: bool) -> float:
    """The confined (bridge) log probability by the per-step DP alone."""
    target = om.size // 2 if bridge else None
    for mass, scale, _ in _propagate(om, om.size // 2, steps, target=target):
        pass
    return _final_log(mass, scale, target)


def assert_close_log(got: float, want: float) -> None:
    """Within 1e-12 relative in the log; for ``|log P| < 1``, 1e-12 in P."""
    if want == -np.inf:
        assert got == -np.inf
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


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
            got = _squared_log(om, steps, bridge)
            assert got is not None
            assert_close_log(got, want)

    @pytest.mark.parametrize("omega", [0.99, 0.999])
    def test_deep_drift_trips_the_guard_and_returns_the_dp_bits(self, omega):
        # the bridge's mass spans more than 2^500 across the corridor, so an
        # unguarded product would flush entries that the answer needs
        env = Environment(-64, np.full(129, omega))
        om = env.slice(-63, 63)
        assert _prefers_squaring(om.size, 20000)
        assert _squared_log(om, 20000, True) is None
        got = confined_log_prob(env, 20000, 64, require_bridge=True)
        assert got == dp_log(om, 20000, True)

    def test_dispatch_points(self):
        assert _prefers_squaring(127, 65536)
        assert not _prefers_squaring(2049, 4096)
        assert not _prefers_squaring(1, 10**6)
        assert not _prefers_squaring(127, 0)

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
        law = Path(__file__).resolve().parents[1] / "demos" / "dists" / "marginal.txt"
        calls = [(64, 4096), (64, 2000), (160, 65536)]
        for m, steps in calls:
            env = sample_environment(rwre.load_distribution(law), 0, -m, m)
            om = env.slice(-(m - 1), m - 1)
            assert _prefers_squaring(om.size, steps)
            assert _squared_log(om, steps, True) is not None
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


def full_rectangle(om, start, steps, trunc=0.0, target=None):
    """The propagation recursion over every index of ``om`` at every step,
    truncating through a mask over the whole vector; ``target`` is ignored.
    The reference the windowed :func:`_propagate` is held to."""
    mass = np.zeros(om.size)
    mass[start] = 1.0
    scale, disc_log = 0.0, -np.inf
    yield mass, scale, disc_log
    for _ in range(steps):
        new = np.zeros(om.size)
        new[1:] = mass[:-1] * om[:-1]
        new[:-1] += mass[1:] * (1.0 - om[1:])
        mass = new
        m = mass.max()
        if m == 0.0:
            yield mass, scale, disc_log
            return
        small = mass < m * trunc
        if small.any():
            disc_log = np.logaddexp(disc_log, math.log(mass[small].sum()) + scale)
            mass[small] = 0.0
        if m < kernel._RESCALE_LO or m > kernel._RESCALE_HI:
            mass /= m
            scale += math.log(m)
        yield mass, scale, disc_log


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
        states = zip_longest(_propagate(om, start, steps), full_rectangle(om, start, steps))
        for got, want in states:
            assert got is not None and want is not None
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert got[2] == want[2] == -np.inf

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), target=st.integers(-15, 15),
           horizon=st.integers(0, 300))
    def test_hitting_cdf_is_bit_equal(self, law, seed, target, horizon):
        env = env_for(law, seed, -320, 320)
        got = hitting_cdf(env, target, horizon)
        with mock.patch.object(kernel, "_propagate", full_rectangle):
            want = hitting_cdf(env, target, horizon)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           steps=st.integers(0, 400), bridge=st.booleans())
    def test_confined_dp(self, law, seed, m, steps, bridge):
        # without a target the DP is bit-equal; the bridge's backward cone
        # changes only where rescaling rounds
        steps -= steps % 2 if bridge else 0
        om = env_for(law, seed, -m, m).slice(-(m - 1), m - 1)
        got = dp_log(om, steps, bridge)
        with mock.patch.object(kernel, "_propagate", full_rectangle):
            want = dp_log(om, steps, bridge)
        if bridge:
            assert_close_log(got, want)
        else:
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150))
    def test_bridge_log_prob(self, law, seed, n):
        env = env_for(law, seed, -2 * n, 2 * n)
        got = bridge_log_prob(env, n, truncation=0.0, with_error_bound=True)
        with mock.patch.object(kernel, "_propagate", full_rectangle):
            want = bridge_log_prob(env, n, truncation=0.0)
        assert got[1] == -np.inf
        assert_close_log(got[0], want)

    @settings(max_examples=60, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150),
           floor=st.sampled_from([1e-3, 1e-8, 0.3]))
    def test_truncation_bound_sandwiches_the_exact_probability(self, law, seed, n, floor):
        env = env_for(law, seed, -2 * n, 2 * n)
        lp, bound = bridge_log_prob(env, n, truncation=floor, with_error_bound=True)
        with mock.patch.object(kernel, "_propagate", full_rectangle):
            exact = bridge_log_prob(env, n, truncation=0.0)
        tol = 1e-12 * max(1.0, abs(exact))
        assert lp <= exact + tol
        assert exact <= np.logaddexp(lp, bound) + tol

    @settings(max_examples=80, deadline=None)
    @given(law=LAWS, seed=st.integers(0, 2**32 - 1), w=st.integers(1, 30),
           data=st.data())
    def test_states_live_in_the_double_cone(self, law, seed, w, data):
        # every state of a targeted run is zero off the forward and backward
        # cones (no stale cell of a reused buffer survives) and equals the
        # full recursion on them, up to its own rescaling
        start = data.draw(st.integers(0, w - 1))
        target = data.draw(st.integers(0, w - 1))
        steps = abs(target - start) + 2 * data.draw(st.integers(0, 60))
        om = env_for(law, seed, 0, w - 1).slice(0, w - 1)
        states = zip(_propagate(om, start, steps, target=target),
                     full_rectangle(om, start, steps))
        sites = np.arange(w)
        for k, ((mass, scale, _), (ref, ref_scale, _)) in enumerate(states):
            cone = (np.abs(sites - start) <= k) & (np.abs(sites - target) <= steps - k)
            assert not mass[~cone].any()
            both = cone & (ref > 0.0)
            with np.errstate(divide="ignore"):
                got = np.log(mass[both]) + scale
            want = np.log(ref[both]) + ref_scale
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("w,start,target,steps", [
        (1, 0, 0, 0), (1, 0, 0, 5), (2, 0, 1, 1), (2, 1, 0, 9), (5, 0, 4, 4),
        (5, 0, 4, 200), (5, 4, 0, 64), (7, 3, 3, 0), (7, 6, 6, 300),
    ])
    def test_edges(self, w, start, target, steps):
        # one site, no steps, and windows pinned to both ends of om
        om = random_env(w + steps, 0, w - 1).slice(0, w - 1)
        *_, (mass, scale, _) = _propagate(om, start, steps, target=target)
        *_, (ref, ref_scale, _) = full_rectangle(om, start, steps)
        assert_close_log(_final_log(mass, scale, target),
                         _final_log(ref, ref_scale, target))
        for got, want in zip(_propagate(om, start, steps), full_rectangle(om, start, steps)):
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_bridges(self, n):
        env = random_env(n, -2 * n, 2 * n)
        with mock.patch.object(kernel, "_propagate", full_rectangle):
            want = bridge_log_prob(env, n)
        assert_close_log(bridge_log_prob(env, n), want)
        assert confined_log_prob(env, 2 * n, 1, require_bridge=True) == -np.inf

    def test_truncation_outside_unit_interval_rejected(self):
        env = random_env(1, -4, 4)
        for floor in (-1e-3, 1.0, 2.0):
            with pytest.raises(DomainError):
                bridge_log_prob(env, 2, truncation=floor)


class TestBenchmarkReference:
    """``bridge_log_prob`` at the widths of the repository benchmark."""

    @pytest.mark.parametrize("slot", ["0", "1"])
    def test_bridge_wide_reference(self, slot):
        root = Path(__file__).resolve().parents[1]
        ref = json.loads((root / "perfbench" / "reference" / "bridge_wide.json")
                         .read_text(encoding="utf-8"))
        rows = ref["slots"][slot]["bridge_prob.csv"]["rows"]
        law = rwre.load_distribution(root / "demos" / "dists" / "nestling_k2.txt")
        assert len(rows) == 3
        for row in rows:
            seed, n, want = row.split(",")
            env = sample_environment(law, int(seed), -2 * int(n), 2 * int(n))
            assert abs(bridge_log_prob(env, int(n)) - float(want)) <= 1e-12 * abs(float(want))


def occupation(env: Environment, lo: int, hi: int, start: int, steps: int) -> np.ndarray:
    """Row ``k`` is the linear mass over sites ``[lo, hi]`` after ``k`` steps
    from ``start``, killed on leaving them, read off ``_propagate``."""
    states = _propagate(env.slice(lo, hi), start - lo, steps)
    return np.array([mass * math.exp(scale) for mass, scale, _ in states])


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
                *_, (mass, scale, _) = _propagate(env.slice(0, m - 1), 0, n)
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
