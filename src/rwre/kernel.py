"""Exact quenched probabilities via dynamic programming over site occupation.

All computations propagate occupation mass step by step through a fixed
environment window.  Mass is stored linearly but rescaled whenever it
drifts out of comfortable floating-point range, with the accumulated log
scale folded back into every returned value, so results are exact log
probabilities down to extremely small magnitudes (the practical floor is a
relative spread of about 1e-300 within a single time slice, far below
anything the supported workloads produce).  Confined corridors that run
many more steps than they have sites may instead take guarded binary
powers of a transfer matrix (see :func:`confined_log_prob`).

Step-count conventions: :func:`bridge_log_prob` and
:func:`max_disp_bridge_cdf` take the half length ``n`` of a ``2n``-step
bridge; :func:`confined_log_prob` and :func:`hitting_cdf` take a total
step count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .environment import Environment
from .errors import (
    DegenerateBridgeError,
    DomainError,
    OrderingError,
    ParityError,
)

__all__ = [
    "DpTable",
    "IntervalSpec",
    "forward_table",
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

# Cap on materialized table entries (DpTable construction only).
_MAX_TABLE_ENTRIES = 150_000_000


@dataclass(frozen=True)
class IntervalSpec:
    """Open interval ``(lo, hi)`` with a boundary behavior tag.

    ``killing`` removes any mass that steps onto an endpoint;
    ``absorbing`` freezes it there.  Both endpoints share one behavior.
    """

    lo: int
    hi: int
    boundary: str = "killing"

    def __post_init__(self):
        if self.lo >= self.hi:
            raise OrderingError(f"interval ({self.lo}, {self.hi}) is empty")
        if self.boundary not in ("killing", "absorbing"):
            raise DomainError(f"unknown boundary behavior {self.boundary!r}")


@dataclass(frozen=True, eq=False)
class DpTable:
    """Occupation or backward-probability table in the log domain.

    ``log_mass[k, i]`` is the fully folded log value at step ``k`` and site
    ``site_lo + i``; unreachable cells hold ``-inf``.

    For ``kind == "occupation"`` row ``k`` is the mass distribution after
    ``k`` steps (summing to at most 1, and to exactly 1 for an
    unrestricted walk).  For ``kind == "backward"`` cell ``(k, x)`` is the
    probability that a walk sitting at ``x`` with ``n_steps - k`` steps
    remaining finishes at the origin, and rows are not distributions; a
    backward table for a 2n-step bridge spans ``[-n - 1, n + 1]``, whose
    two outer columns are ``-inf`` guards.
    """

    kind: str
    n_steps: int
    site_lo: int
    site_hi: int
    log_mass: np.ndarray

    def __post_init__(self):
        expected = (self.n_steps + 1, self.site_hi - self.site_lo + 1)
        if self.log_mass.shape != expected:
            raise DomainError(
                f"log_mass shape {self.log_mass.shape} != expected {expected}"
            )
        if self.kind not in ("occupation", "backward"):
            raise DomainError(f"unknown table kind {self.kind!r}")

    def site_index(self, x: int) -> int:
        if x < self.site_lo or x > self.site_hi:
            raise DomainError(
                f"site {x} outside table range [{self.site_lo}, {self.site_hi}]"
            )
        return x - self.site_lo

    def log_at(self, k: int, x: int) -> float:
        if k < 0 or k > self.n_steps:
            raise DomainError(f"step {k} outside [0, {self.n_steps}]")
        return float(self.log_mass[k, self.site_index(x)])

    def row(self, k: int) -> np.ndarray:
        return self.log_mass[k]

    def row_mass_sums(self) -> np.ndarray:
        """Per-row sums of ``exp(log_mass)``."""
        return np.exp(self.log_mass).sum(axis=1)


def _propagate(om: np.ndarray, start: int, steps: int, trunc: float = 0.0):
    """Propagate unit mass from index ``start`` through ``om``, killing any
    mass that steps outside its index range.

    Yields ``(mass, log_scale, disc_log)`` for the initial state and then
    after each of up to ``steps`` steps: the scaled linear mass vector,
    the log factor to add back, and a log-domain upper bound on all mass
    dropped by the relative floor ``trunc`` (``-inf`` when nothing was
    dropped).  The mass of state ``k`` leaving on step ``k + 1`` is
    ``(1 - om[0]) * mass[0]`` on the left and ``om[-1] * mass[-1]`` on the
    right, times ``exp(log_scale)``.  Stops early after yielding an
    all-zero state.  The yielded vector is overwritten by the next step,
    so callers read it before advancing.
    """
    w = om.size
    p = om
    q = 1.0 - om
    mass = np.zeros(w)
    mass[start] = 1.0
    right = np.empty(w)
    left = np.empty(w)
    new = np.empty(w)
    scale = 0.0
    disc_log = -np.inf
    yield mass, scale, disc_log
    for _ in range(steps):
        np.multiply(mass, p, out=right)
        np.multiply(mass, q, out=left)
        new[0] = 0.0
        new[1:] = right[:-1]
        new[:-1] += left[1:]
        mass, new = new, mass
        m = mass.max()
        if m == 0.0:
            # everything was killed; later states stay empty
            yield mass, scale, disc_log
            return
        if trunc > 0.0:
            small = mass < m * trunc
            if small.any():
                dropped = float(mass[small].sum())
                if dropped > 0.0:
                    disc_log = np.logaddexp(disc_log, np.log(dropped) + scale)
                    mass[small] = 0.0
        if m < _RESCALE_LO or m > _RESCALE_HI:
            mass /= m
            scale += float(np.log(m))
        yield mass, scale, disc_log


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


def forward_table(
    env: Environment,
    steps: int,
    interval: IntervalSpec | None = None,
    start: int = 0,
) -> DpTable:
    """Materialize the full occupation table for a walk from ``start``.

    With no interval the walk is unrestricted and the table covers the
    reachable cone ``start +- steps``; rows then sum to 1.  A killing
    interval restricts the table to the open interval's interior; an
    absorbing interval additionally keeps the frozen endpoint masses in the
    boundary columns.

    Intended for moderate sizes (tests, sampling preparation, diagnostics);
    the table must stay under about 1.5e8 cells.
    """
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if interval is None:
        lo, hi = start - steps, start + steps
    else:
        if start <= interval.lo or start >= interval.hi:
            raise OrderingError(
                f"start {start} not inside interval ({interval.lo}, {interval.hi})"
            )
        lo, hi = interval.lo + 1, interval.hi - 1
    env.require_window(lo, hi)
    om = env.slice(lo, hi)
    absorbing = interval is not None and interval.boundary == "absorbing"
    pad = 1 if absorbing else 0
    _check_table_size(steps, om.size + 2 * pad)
    rows = np.full((steps + 1, om.size + 2 * pad), -np.inf)
    exits = np.zeros((steps + 1, 2))
    with np.errstate(divide="ignore"):
        for k, (mass, scale, _) in enumerate(_propagate(om, start - lo, steps)):
            rows[k, pad : pad + om.size] = np.log(mass) + scale
            if absorbing:
                f = math.exp(scale)
                exits[k] = (1.0 - om[0]) * mass[0] * f, om[-1] * mass[-1] * f
        if absorbing:
            # a sticky endpoint holds all mass that earlier states sent to it
            rows[1:, [0, -1]] = np.log(np.cumsum(exits[:-1], axis=0))
    return DpTable("occupation", steps, lo - pad, hi + pad, rows)


def _check_table_size(steps: int, width: int) -> None:
    if (steps + 1) * width > _MAX_TABLE_ENTRIES:
        raise DomainError(
            f"table of {(steps + 1)} x {width} cells exceeds the materialization "
            "cap; use the streaming operations instead"
        )


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
        Relative per-step floor below which sites are dropped, with the
        total dropped mass tracked rigorously.  ``None`` selects the
        default policy: no truncation below ``n = 4096``, a floor of
        1e-300 at or above it.  Pass ``0.0`` to force truncation off.
    with_error_bound : bool
        When set, return ``(log_prob, log_discarded_bound)`` where the
        second element bounds from above the log of all probability mass
        unaccounted for by truncation (``-inf`` when nothing was dropped).
        The true probability ``P`` then satisfies
        ``exp(log_prob) <= P <= exp(log_prob) + exp(log_discarded_bound)``.

    Notes
    -----
    Every bridge path stays within ``[-n, n]``, so the propagation runs on
    that sub-window even though the documented window requirement is the
    conservative ``[-2n, 2n]``.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    env.require_window(-2 * n, 2 * n)
    if n == 0:
        return (0.0, -np.inf) if with_error_bound else 0.0
    if truncation is None:
        truncation = _AUTO_TRUNCATION_THRESHOLD if n >= _AUTO_TRUNCATION_N else 0.0
    om = env.slice(-n, n)
    for mass, scale, disc_log in _propagate(om, n, 2 * n, trunc=truncation):
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
    for mass, scale, _ in _propagate(om, start, steps):
        pass
    return _final_log(mass, scale, start if bridge else None)


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


def _quantile(cdf, n: int, q: float) -> int:
    """Smallest ``m`` in ``[1, n]`` with ``cdf(m + 1) >= q``, by bisection."""
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
    DegenerateBridgeError
        If the bridge event itself has zero probability, which uniform
        ellipticity rules out for genuine environments.
    """
    if m_values is None:
        ms = np.arange(1, 2 * n + 2)
    else:
        ms = np.asarray(m_values, dtype=np.int64)
        if ms.size == 0 or np.any(ms < 1):
            raise DomainError("m_values must be positive integers")
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
