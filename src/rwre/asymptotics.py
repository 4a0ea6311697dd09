"""Scaling diagnostics: fair-site runs, small deviations, exit-time moments.

The quenched decay rates this package verifies are driven by a few pieces
of classical machinery collected here:

* the longest run of fair sites in a window, whose length grows like
  ``log(window) / |log alpha|`` when each site is fair independently with
  probability ``alpha``;
* the small-deviation constant of the simple random walk,
  ``(x^2 / n) log P(max |X_k| <= x) -> -pi^2 / 8``;
* the closed form and series evaluation of the moment generating function
  of the first exit time of a simple random walk from an interval, with
  its critical exponent and the explicit sub-critical bound;
* ordinary least-squares fits used to read off exponents and
  ``(log n)^2 / n`` constants from exactly computed probability series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Environment, _check_window_size
from .errors import DomainError
from .kernel import _propagate, confined_log_prob

__all__ = [
    "ScalingFit",
    "longest_fair_run",
    "srw_smalldev_constant",
    "lambda_crit",
    "lambda_eps",
    "c1_const",
    "exit_mgf_closed",
    "exit_mgf_dp",
    "ols_fit",
    "fit_exponent",
    "fit_constant_lnln",
    "lnln_target",
]


def longest_fair_run(
    env: Environment, r: int, value: float = 0.5
) -> tuple[int, int | None]:
    """Longest run of consecutive sites in ``[0, r)`` equal to ``value``.

    Returns ``(length, start)`` where ``start`` is the leftmost site
    beginning a run of maximal length, or ``None`` when no site matches.
    Matching is exact floating-point equality, which is the right notion
    for finite-support laws whose realized values are copies of support
    points.
    """
    if r < 1:
        raise DomainError("window length r must be at least 1")
    mask = env.slice(0, r - 1) == value
    if not mask.any():
        return 0, None
    edges = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    lengths = ends - starts
    best = int(np.argmax(lengths))  # first maximum = leftmost
    return int(lengths[best]), int(starts[best])


def srw_smalldev_constant(n_steps: int, x: int) -> tuple[float, float]:
    """Exact log of ``P(max |X_k| <= x)`` for the fair walk, and its scaling.

    Returns ``(log_prob, (x^2 / n_steps) * log_prob)``; the normalized
    value approaches ``-pi^2 / 8`` as ``x`` grows with ``x = o(sqrt(n))``.
    """
    if x < 1:
        raise DomainError("x must be at least 1")
    if n_steps < 0:
        raise DomainError("n_steps must be nonnegative")
    _check_window_size(2 * x + 1)
    env = Environment(-x, np.full(2 * x + 1, 0.5))
    logp = confined_log_prob(env, n_steps, x + 1)
    return logp, (x * x / n_steps) * logp if n_steps > 0 else 0.0


def lambda_crit(ell: int) -> float:
    """Critical exponential moment of the exit time from ``[1, 2*ell - 1]``.

    ``-log cos(pi / (2 ell))``; infinite for ``ell = 1`` where the exit
    takes exactly one step.
    """
    if ell < 1:
        raise DomainError("ell must be at least 1")
    if ell == 1:
        return math.inf
    return -math.log(math.cos(math.pi / (2 * ell)))


def lambda_eps(eps: float, ell: int) -> float:
    """Sub-critical exponent ``(1 - eps)^2 pi^2 / (8 ell^2)``."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie strictly between 0 and 1")
    if ell < 1:
        raise DomainError("ell must be at least 1")
    return (1.0 - eps) ** 2 * math.pi**2 / (8.0 * ell * ell)


def c1_const(eps: float) -> float:
    """Constant ``((1-eps) pi / 2) tan((1-eps) pi / 2)`` in the MGF bound.

    The bound states that the exit-time MGF at :func:`lambda_eps` is below
    ``1 + c1_const(eps) / ell``.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie strictly between 0 and 1")
    u = (1.0 - eps) * math.pi / 2.0
    return u * math.tan(u)


def exit_mgf_closed(ell: int, lam: float) -> float:
    """Closed form of ``E[exp(lam * sigma)]`` for the first exit time.

    ``sigma`` is the first exit of a fair walk from ``[1, 2*ell - 1]``
    started at 1.  With ``c = arccos(exp(-lam))`` the value is
    ``cos(c (ell - 1)) / cos(c ell)``, finite exactly for
    ``0 <= lam < lambda_crit(ell)``.
    """
    if ell < 1:
        raise DomainError("ell must be at least 1")
    if lam < 0.0 or lam >= lambda_crit(ell):
        raise DomainError(
            f"lam={lam!r} outside [0, lambda_crit({ell}) = {lambda_crit(ell)!r})"
        )
    c = math.acos(math.exp(-lam))
    return math.cos(c * (ell - 1)) / math.cos(c * ell)


def exit_mgf_dp(ell: int, lam: float) -> float:
    """Series evaluation of the exit-time MGF by absorbing propagation.

    Accumulates ``sum_k P(sigma = k) exp(lam k)`` from the exact exit-time
    distribution and stops once a rigorous bound on the remaining tail
    falls below 1e-12.  The tail bound uses the numerically
    computed spectral radius of the interior transition matrix (survival
    decays geometrically at that rate), keeping this evaluation
    independent of the trigonometric closed form.

    Raises
    ------
    DomainError
        If ``lam`` is at or beyond the numerically determined critical
        point, where the series diverges.
    """
    if ell < 1:
        raise DomainError("ell must be at least 1")
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    if ell == 1:
        return math.exp(lam)  # sigma = 1 deterministically
    width = 2 * ell - 1
    interior = np.zeros((width, width))
    off = np.full(width - 1, 0.5)
    interior += np.diag(off, 1) + np.diag(off, -1)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(interior))))
    growth = math.exp(lam)
    if radius * growth >= 1.0:
        raise DomainError(
            f"lam={lam!r} at or beyond the critical point for ell={ell}"
        )
    total = 0.0
    # tail after step k: sum_{j>=1} m_k radius^(j-1) exp(lam (k+j))
    tail_coeff = growth / (1.0 - radius * growth)
    # the walk starts on an even site and exits from the even sites 0 and
    # width - 1, so only the even-k states carry exit mass
    half = np.full(width, 0.5)
    states = _propagate(half, half, 0, [50_000_000])
    for k, mass, scale, _ in states:
        f = math.exp(scale + k * lam)
        if k and float(mass.sum()) * f * tail_coeff < 1e-12:
            return total
        total += 0.5 * (mass[0] + mass[-1]) * f * growth
    raise DomainError("series failed to converge")  # pragma: no cover


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through a transformed probability series.

    ``xs`` and ``ys`` are the fitted coordinates after the caller's
    transform (:func:`fit_exponent` fits ``log(-log P)`` against
    ``log n``; :func:`fit_constant_lnln` fits the ``(log n)^2 / n``
    constant).  ``target`` carries the theoretical limit when one exists.
    """

    xs: np.ndarray
    ys: np.ndarray
    slope: float
    intercept: float
    max_residual: float
    target: float | None = None

    def residuals(self) -> np.ndarray:
        return self.ys - (self.slope * self.xs + self.intercept)


def ols_fit(xs, ys, target: float | None = None) -> ScalingFit:
    """Ordinary least squares line through ``(xs, ys)``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise DomainError("need two equal-length 1-D arrays of at least 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("fit coordinates must be finite")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return ScalingFit(
        xs=xs,
        ys=ys,
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.max(np.abs(resid))),
        target=target,
    )


def fit_exponent(ns, log_probs, target: float | None = None) -> ScalingFit:
    """Fit the stretched-exponential exponent of a decaying series.

    For ``P_n = exp(-n^(b + o(1)))`` the slope of ``log(-log P_n)``
    against ``log n`` estimates ``b``.  All log probabilities must be
    strictly negative.
    """
    ns = np.asarray(ns, dtype=np.float64)
    lps = np.asarray(log_probs, dtype=np.float64)
    if np.any(lps >= 0.0):
        raise DomainError("log probabilities must be strictly negative")
    return ols_fit(np.log(ns), np.log(-lps), target)


def lnln_target(alpha: float, gamma: float | None = None, rate_removed: bool = False) -> float:
    """Theoretical limit of the ``(log n)^2 / n`` normalized log probability.

    ``-|pi log alpha|^2 / (4 gamma^2)`` for laws whose return probability
    has no exponential part, and ``-|pi log alpha|^2 / gamma^2`` when the
    exponential part ``2 n I0`` has been removed first (``rate_removed``).
    ``gamma`` is the confinement exponent; ``None`` means the plain return
    event (``gamma = 1``).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie strictly between 0 and 1")
    g = 1.0 if gamma is None else gamma
    if not (0.0 < g <= 1.0):
        raise DomainError("gamma must lie in (0, 1]")
    base = (math.pi * math.log(alpha)) ** 2
    return -(base / (g * g)) if rate_removed else -(base / (4.0 * g * g))


def fit_constant_lnln(
    ns,
    log_probs,
    alpha: float,
    gamma: float | None = None,
    rate0: float = 0.0,
) -> ScalingFit:
    """Normalize a return-probability series by ``(log n)^2 / n``.

    ``ys[i] = ((log n_i)^2 / n_i) * (log P_i + 2 n_i rate0)``, the
    quantity whose limit is :func:`lnln_target`.  ``rate0`` is the
    exponential decay per pair of steps (zero outside the non-nestling
    regime).  The slope and intercept of ``ys`` against ``log n`` are
    reported for trend inspection; convergence is judged against
    ``target``.
    """
    ns = np.asarray(ns, dtype=np.float64)
    lps = np.asarray(log_probs, dtype=np.float64)
    if rate0 < 0.0:
        raise DomainError("rate0 must be nonnegative")
    ys = (np.log(ns) ** 2 / ns) * (lps + 2.0 * ns * rate0)
    target = lnln_target(alpha, gamma, rate_removed=rate0 > 0.0)
    return ols_fit(np.log(ns), ys, target)
