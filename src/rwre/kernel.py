"""Exact quenched probabilities via dynamic programming over site occupation.

All computations propagate occupation mass step by step through a fixed
environment window.  Mass is stored linearly but rescaled whenever it
drifts out of comfortable floating-point range, with the accumulated log
scale folded back into every returned value, so results are exact log
probabilities down to extremely small magnitudes.  Within one step,
though, a cell that falls more than about 1e-300 below the step's largest
underflows to exactly 0, and ``log_discarded_bound`` does not count it.
With truncation off (bridges below ``n = 4096`` by default) wide bridges
do lose such cells: 736,265 cone cells at ``n = 2048`` on a nestling law,
holding at most about ``e**-579`` of the probability.  Confined corridors
that run many more steps than they have sites may instead take guarded
binary powers of a transfer matrix (see :func:`confined_log_prob`).

Step-count conventions: :func:`bridge_log_prob` and
:func:`max_disp_bridge_cdf` take the half length ``n`` of a ``2n``-step
bridge; :func:`confined_log_prob` and :func:`hitting_cdf` take a total
step count.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .environment import Environment
from .errors import (
    DegenerateBridgeError,
    DomainError,
    OrderingError,
    ParityError,
)

__all__ = [
    "bridge_log_prob",
    "confined_log_prob",
    "max_disp_bridge_cdf",
    "bridge_max_quantile",
    "hitting_cdf",
    "exit_prob_closed_form",
]

# Rescale the linear mass vector when its maximum leaves this band.
_RESCALE_LO = 1e-100
_RESCALE_HI = 1e100

# Above this half length, bridge computations drop relatively negligible
# sites by default (see bridge_log_prob).
_AUTO_TRUNCATION_N = 4096
_AUTO_TRUNCATION_THRESHOLD = 1e-300


def _propagate(
    om: np.ndarray,
    start: int,
    steps: int,
    trunc: float = 0.0,
    target: int | None = None,
):
    """Propagate unit mass from index ``start`` through ``om``, killing any
    mass that steps outside its index range.

    Yields ``(mass, log_scale, disc_log)`` for the initial state and then
    after each of up to ``steps`` steps: the scaled linear mass vector
    over all of ``om``, the log factor to add back, and a log-domain upper
    bound on all mass dropped by the relative floor ``trunc`` (``-inf``
    when nothing was dropped).  The mass of state ``k`` leaving on step
    ``k + 1`` is ``(1 - om[0]) * mass[0]`` on the left and
    ``om[-1] * mass[-1]`` on the right, times ``exp(log_scale)``.  Stops
    early after yielding an all-zero state.  The yielded vector is
    overwritten by later steps, so callers read it before advancing.

    Each step computes only a live window of indices and leaves exact
    zeros outside it.  The window grows by at most one index per side per
    step (the forward cone), so without ``target`` and ``trunc`` every
    state is bit for bit the full-width recursion's.  With ``target``,
    state ``k`` keeps only the indices within ``steps - k`` of it (the
    backward cone): the mass that can still be at ``target`` after
    ``steps`` steps, which is all a bridge reads (``target`` must lie
    within ``steps`` of ``start``).  With ``trunc > 0``, the cells below
    ``trunc`` times the window's maximum are dropped from both ends of
    the window, each end up to its first cell at or above that floor, and
    their mass is added to the bound; cells inside are never dropped.
    """
    w = om.size
    # Buffers carry one zero guard cell per side: index i of om is buffer
    # cell i + 1, and the guards' zero weights keep the edges exact.
    p = np.zeros(w + 2)
    p[1:-1] = om
    q = np.zeros(w + 2)
    q[1:-1] = 1.0 - om
    mass = np.zeros(w + 2)
    mass[start + 1] = 1.0
    new = np.zeros(w + 2)
    left = np.empty(w)
    end = w - 1
    lo = hi = start  # live window of mass, in indices of om
    old_lo, old_hi = start, start - 1  # window new held two states back
    scale = 0.0
    disc_log = -np.inf
    yield mass[1:-1], scale, disc_log
    for k in range(1, steps + 1):
        a = lo - 1 if lo else 0
        b = hi + 1 if hi < end else end
        if target is not None:
            a, b = max(a, target - steps + k), min(b, target + steps - k)
        if old_lo < a:
            new[old_lo + 1 : a + 1] = 0.0
        if old_hi > b:
            new[b + 2 : old_hi + 2] = 0.0
        live = new[a + 1 : b + 2]
        np.multiply(mass[a : b + 1], p[a : b + 1], out=live)
        tail = left[: b - a + 1]
        np.multiply(mass[a + 2 : b + 3], q[a + 2 : b + 3], out=tail)
        live += tail
        mass, new = new, mass
        old_lo, old_hi, lo, hi = lo, hi, a, b
        m = live.max()
        if m == 0.0:
            # everything was killed; later states stay empty
            yield mass[1:-1], scale, disc_log
            return
        if trunc > 0.0:
            # drop each tail up to its first cell at or above the floor;
            # the maximum is one, so both scans stop inside the window
            floor = m * trunc
            dropped = 0.0
            while live[lo - a] < floor:
                dropped += live[lo - a]
                lo += 1
            while live[hi - a] < floor:
                dropped += live[hi - a]
                hi -= 1
            if dropped > 0.0:
                disc_log = float(np.logaddexp(disc_log, math.log(dropped) + scale))
            live[: lo - a] = 0.0
            live[hi - a + 1 :] = 0.0
            live = live[lo - a : hi - a + 1]
        if m < _RESCALE_LO or m > _RESCALE_HI:
            live /= m
            scale += float(np.log(m))
        yield mass[1:-1], scale, disc_log


def _logsumexp(values: np.ndarray) -> float:
    if values.size == 0:
        return -np.inf
    return float(np.logaddexp.reduce(values))


def _final_log(mass: np.ndarray, scale: float, index: int | None) -> float:
    if index is None:
        total = float(mass.sum())
        return -np.inf if total == 0.0 else float(np.log(total)) + scale
    v = float(mass[index])
    return -np.inf if v == 0.0 else float(np.log(v)) + scale


def bridge_log_prob(
    env: Environment,
    n: int,
    truncation: float | None = None,
    with_error_bound: bool = False,
):
    """Log probability that the walk returns to the origin after 2n steps.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-2n, 2n]``.
    n : int
        Half length of the bridge; the event is ``X_{2n} = 0``.
    truncation : float, optional
        Relative floor in ``[0, 1)``: after each step the sites below it
        times the step's largest mass are dropped from both tails of the
        support, with the total dropped mass tracked rigorously.  ``None``
        selects the default policy: no truncation below ``n = 4096``, a
        floor of 1e-300 at or above it.  Pass ``0.0`` to force truncation
        off.
    with_error_bound : bool
        When set, return ``(log_prob, log_discarded_bound)`` where the
        second element bounds from above the log of all probability mass
        unaccounted for by truncation (``-inf`` when nothing was dropped).
        The true probability ``P`` then satisfies
        ``exp(log_prob) <= P <= exp(log_prob) + exp(log_discarded_bound)``.

    Notes
    -----
    After ``k`` steps a bridge path can only sit at ``|x| <= min(k, 2n - k)``
    (the double cone), so each step propagates only that part of
    ``[-n, n]``, cut further to the support left by truncation.  Mass
    outside the backward half of the cone cannot return to the origin in
    time; it is left out exactly, not dropped, so it is not in the bound.
    The documented window requirement stays the conservative ``[-2n, 2n]``.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if truncation is not None and not 0.0 <= truncation < 1.0:
        raise DomainError("truncation must lie in [0, 1)")
    env.require_window(-2 * n, 2 * n)
    if n == 0:
        return (0.0, -np.inf) if with_error_bound else 0.0
    if truncation is None:
        truncation = _AUTO_TRUNCATION_THRESHOLD if n >= _AUTO_TRUNCATION_N else 0.0
    om = env.slice(-n, n)
    for mass, scale, disc_log in _propagate(om, n, 2 * n, truncation, target=n):
        pass
    logp = _final_log(mass, scale, n)
    return (logp, disc_log) if with_error_bound else logp


def confined_log_prob(
    env: Environment, steps: int, M: int, require_bridge: bool = False
) -> float:
    """Log probability that ``max |X_k|`` over ``k <= steps`` stays below M.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-M, M]``.
    steps : int
        Total number of steps (pass an even count ``2n`` when combining
        with the return event).
    M : int
        Strict confinement threshold; the walk is killed on first touching
        ``+-M``.
    require_bridge : bool
        When set, additionally require ``X_steps = 0``; ``steps`` must then
        be even.

    Returns
    -------
    float
        ``log P``; ``-inf`` when the event is impossible (for example
        ``M = 1`` with any positive number of steps).

    Notes
    -----
    A corridor usually runs far more steps than its ``2M - 1`` sites.
    Where a cost model predicts it pays, the probability comes from
    binary powering of the corridor's two-step transfer matrix (about
    ``M^3 log2(steps)`` work instead of ``steps * M``), with no BLAS call.
    A guard falls back to the per-step DP, and its exact bits, whenever
    an entry the result needs could leave the normal double range.  Both
    agree to about 1e-13 relative in the log; the a-priori bound of the
    squaring path is about ``steps * (2M - 1) * 2**-53`` relative in P.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if M < 1:
        raise DomainError("M must be at least 1")
    if require_bridge and steps % 2 != 0:
        raise ParityError(f"bridge event needs an even step count, got {steps}")
    env.require_window(-M, M)
    return _confined_log(env.slice(-(M - 1), M - 1), steps, require_bridge)


def _confined_log(om: np.ndarray, steps: int, bridge: bool) -> float:
    """Log mass that survives ``steps`` killing steps from the centre of
    ``om`` (only the mass back at the centre when ``bridge``): by squaring
    where the cost model prefers it and its guard holds, else by the DP."""
    start = om.size // 2
    if _prefers_squaring(om.size, steps):
        logp = _squared_log(om, steps, bridge)
        if logp is not None:
            return logp
    target = start if bridge else None
    for mass, scale, _ in _propagate(om, start, steps, target=target):
        pass
    return _final_log(mass, scale, target)


def _prefers_squaring(w: int, steps: int) -> bool:
    """Whether squaring is predicted to beat the DP over ``w`` sites.

    Seconds per call on a 2-vCPU x86-64 host (numpy 2.4): the DP costs
    about ``4e-6 + 2e-9 w`` per step; squaring costs about
    ``1e-5 + 3e-10 h^3`` per bit of ``steps // 2``, one matrix product of
    the ``h = (w + 1) / 2`` sites of one parity plus the vector's.
    """
    if w < 3:
        return False
    h = (w + 1) // 2
    bits = (steps // 2).bit_length()
    return bits * (1e-5 + 3e-10 * h**3) < steps * (4e-6 + 2e-9 * w)


# Every entry of a squaring operand that the reach pattern says is positive
# must stay at least this far below the operand's maximum: every product
# term is then a normal double.
_SQUARING_FLOOR = 2.0**-500


def _rescaled(x: np.ndarray, positive: int) -> float | None:
    """Divide ``x`` by its maximum and return the log of that maximum, or
    ``None`` unless ``positive`` entries stay at or above the floor."""
    top = x.max()
    if not top > 0.0:
        return None
    x /= top
    if np.count_nonzero(x >= _SQUARING_FLOOR) != positive:
        return None
    return math.log(top)


def _band_size(h: int, reach: int) -> int:
    """Entries ``(i, l)`` of an ``h x h`` matrix with ``|i - l| <= reach``."""
    r = min(reach, h - 1)
    return h + r * (2 * h - r - 1)


def _squared_log(om: np.ndarray, steps: int, bridge: bool) -> float | None:
    """:func:`_confined_log` by binary powering of a transfer matrix, or
    ``None`` when the guard trips.

    After each even number of steps the walk sits on the sites of one
    parity, so ``e_start P^steps`` (``P`` the killing transfer matrix over
    the ``w >= 3`` sites of ``om``) is one plain step when ``steps`` is
    odd, then ``steps // 2`` products with the tridiagonal two-step matrix
    ``B`` on the ``h`` sites of the final parity.  ``B^r`` can be positive
    only on ``|i - l| <= r``, and the vector after ``k`` two-steps only on
    the sites within ``k`` of its first support; every other entry is an
    exact zero.  Every operand is rescaled by its maximum after each
    product, with the log scales accumulated, and all the entries its
    pattern allows must stay at or above ``_SQUARING_FLOOR`` (they are
    all positive when every ``om`` lies strictly inside (0, 1)), so the
    guard counts them against the pattern's size.  Products go through
    ``np.einsum`` without ``optimize``, never BLAS, so the bits do not
    depend on the BLAS build or its thread count.
    """
    w = om.size
    start = w // 2
    parity = (start + steps) % 2
    p = np.zeros(w + 2)
    p[1:-1] = om
    q = np.zeros(w + 2)
    q[1:-1] = 1.0 - om
    e = np.arange(parity, w, 2) + 1  # the final parity's sites, shifted by the pad
    h = e.size
    a = (
        np.diag(p[e] * q[e + 1] + q[e] * p[e - 1])  # out and back
        + np.diag(p[e[:-1]] * p[e[:-1] + 1], 1)  # two steps right
        + np.diag(q[e[1:]] * q[e[1:] - 1], -1)  # two steps left
    )
    v = np.zeros(h)
    if steps % 2:  # one plain step first, onto start - 1 and start + 1
        lo = (start - 1 - parity) // 2
        hi = lo + 1
        v[lo], v[hi] = 1.0 - om[start], om[start]
    else:
        lo = hi = (start - parity) // 2
        v[lo] = 1.0
    scale = _rescaled(v, hi - lo + 1)
    a_log = _rescaled(a, _band_size(h, 1))
    if scale is None or a_log is None:
        return None
    reach, k, m = 1, 0, steps // 2  # a = B^reach / exp(a_log); v holds k two-steps
    while m:
        if m & 1:
            v = np.einsum("j,jk->k", v, a)
            k += reach
            v_log = _rescaled(v, min(hi + k, h - 1) - max(lo - k, 0) + 1)
            if v_log is None:
                return None
            scale += a_log + v_log
        m >>= 1
        if m:
            a = np.einsum("ij,jk->ik", a, a)
            reach *= 2
            sq_log = _rescaled(a, _band_size(h, reach))
            if sq_log is None:
                return None
            a_log = 2.0 * a_log + sq_log
    return _final_log(v, scale, lo if bridge else None)


def _max_disp_cdf(env: Environment, n: int):
    """``(cdf, log_discarded_bound)`` for the maximal displacement of a
    2n-step bridge.

    ``cdf(M) = P(max_k |X_k| < M | X_{2n} = 0)`` is memoized: one bridge
    probability, then one confined propagation per distinct ``M <= n``
    (``M > n`` gives 1).  The bound is the bridge probability's
    ``log_discarded_bound`` (``-inf`` when truncation dropped nothing).
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    env.require_window(-2 * n, 2 * n)
    bridge_lp, disc_log = bridge_log_prob(env, n, with_error_bound=True)
    if bridge_lp == -np.inf:
        raise DegenerateBridgeError(
            "conditioning event X_{2n} = 0 has zero probability"
        )

    @functools.cache
    def cdf(m: int) -> float:
        if m > n:
            return 1.0
        joint = confined_log_prob(env, 2 * n, m, require_bridge=True)
        return min(1.0, float(np.exp(joint - bridge_lp)))

    return cdf, disc_log


def _quantile(cdf, n: int, q: float, known=()) -> int:
    """Smallest ``m`` in ``[1, n]`` with ``cdf(m + 1) >= q``, by bisection.

    The bisection starts inside the bracket that the points ``known``
    give (``cdf`` is memoized, so they cost nothing once computed):
    ``cdf(g) < q`` puts the answer at or above ``g``, ``cdf(g) >= q``
    below ``g``.
    """
    lo, hi = 1, n
    for g in known:
        if cdf(g) < q:
            lo = max(lo, g)
        else:
            hi = min(hi, g - 1)
    if lo > hi:  # the points disagree by rounding: search everything
        lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf(mid + 1) >= q:
            hi = mid
        else:
            lo = mid + 1
    return lo


def max_disp_bridge_cdf(
    env: Environment, n: int, m_values: np.ndarray | None = None
) -> np.ndarray:
    """CDF of the maximal displacement of a 2n-step bridge.

    Entry ``i`` is ``P(max_k |X_k| < M_i | X_{2n} = 0)`` where ``M_i`` is
    ``m_values[i]``, or ``i + 1`` when ``m_values`` is omitted (the full
    grid ``M = 1 .. 2n+1``).  The conditional CDF is exactly 1 for every
    ``M > n`` since a bridge cannot stray past ``n``; those entries are
    filled without propagation.

    Raises
    ------
    DomainError
        If ``m_values`` is empty or holds anything but positive integers;
        ``2.5`` is rejected, not truncated.
    DegenerateBridgeError
        If the bridge event itself has zero probability, which uniform
        ellipticity rules out for genuine environments.
    """
    if m_values is None:
        ms = np.arange(1, 2 * n + 2)
    else:
        ms = np.asarray(m_values)
        if (
            ms.dtype.kind not in "iuf"
            or ms.ndim != 1
            or ms.size == 0
            or not np.all(np.isfinite(ms) & (ms == np.floor(ms)) & (ms >= 1))
        ):
            raise DomainError("m_values must be a 1-D sequence of positive integers")
    cdf, _ = _max_disp_cdf(env, n)
    return np.array([cdf(int(m)) for m in ms])


def bridge_max_quantile(env: Environment, n: int, q: float) -> int:
    """Smallest m with ``P(max |X_k| <= m | X_{2n} = 0) >= q``.

    Exact integer quantile of the conditional maximal displacement,
    located by bisection over confinement propagations (each probe is one
    exact computation, so the result carries no sampling error).
    """
    if not (0.0 < q < 1.0):
        raise DomainError("q must lie strictly between 0 and 1")
    cdf, _ = _max_disp_cdf(env, n)
    return _quantile(cdf, n, q)


def hitting_cdf(env: Environment, target: int, horizon: int) -> np.ndarray:
    """CDF of the first passage time to ``target``: entry k is P(T <= k).

    The hitting time counts from 0, so ``P(T <= 0) = 1`` exactly when the
    target is the origin.  Each step's first-passage mass is read off the
    rescaled propagation, so only entries whose own value lies below the
    smallest double (about 1e-308) round to 0.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-horizon, target]`` for a positive target or
        ``[target, horizon]`` for a negative one (the reachable set).
    target : int
    horizon : int
        Largest step count in the returned array (length ``horizon + 1``).
    """
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    cdf = np.zeros(horizon + 1)
    if target == 0:
        cdf[:] = 1.0
        return cdf
    if horizon == 0:
        return cdf
    if target > 0:
        env.require_window(-horizon, target)
        om = env.slice(-horizon, target - 1)
        start, end, out = horizon, -1, om[-1]
    else:
        env.require_window(target, horizon)
        om = env.slice(target + 1, horizon)
        start, end, out = -target - 1, 0, 1.0 - om[0]
    # mass of state k stepping onto the target on step k + 1
    first = np.zeros(horizon)
    for k, (mass, scale, _) in enumerate(_propagate(om, start, horizon - 1)):
        first[k] = out * mass[end] * math.exp(scale)
    cdf[1:] = np.cumsum(first)
    return cdf


def exit_prob_closed_form(
    env: Environment, a: int, x: int, b: int, first: str = "a"
) -> float:
    """Probability that a walk from x hits a before b (or b before a).

    Evaluates the summed products of odds closed form in the log domain:
    with ``S_j = sum of log rho_i for i in (a, j]`` the probability of
    hitting ``a`` first is ``sum_{j=x..b-1} exp(S_j) / sum_{j=a..b-1}
    exp(S_j)``, and the complementary formula replaces the numerator range
    with ``j = a..x-1``.  ``first`` selects which endpoint's probability is
    returned; both are computed independently rather than as one minus the
    other.

    Parameters
    ----------
    env : Environment
        Window must cover ``[a, b]``.
    a, x, b : int
        Strictly ordered ``a < x < b``.
    first : {"a", "b"}
    """
    if not (a < x < b):
        raise OrderingError(f"need a < x < b, got a={a}, x={x}, b={b}")
    if first not in ("a", "b"):
        raise DomainError(f"first must be 'a' or 'b', got {first!r}")
    env.require_window(a, b)
    interior = env.slice(a + 1, b - 1)
    if np.any(interior <= 0.0) or np.any(interior >= 1.0):
        raise DomainError("interior sites must have omega strictly in (0, 1)")
    log_rho = np.log1p(-interior) - np.log(interior)
    # S[j - a] = sum of log rho over sites a+1 .. j, with S[0] = 0
    s = np.concatenate(([0.0], np.cumsum(log_rho)))
    den = _logsumexp(s)
    if first == "a":
        num = _logsumexp(s[x - a :])
    else:
        num = _logsumexp(s[: x - a])
    return float(np.exp(num - den))
