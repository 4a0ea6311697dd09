"""Reweighting between a non-nestling law and its fair-site transform.

On the event that a 2n-step walk returns to the origin, the quenched law
of a non-nestling environment is absolutely continuous with respect to the
law of the transformed environment (see
:func:`rwre.environment.mn_transform`), with an explicit pathwise density.
This module computes that density, the per-path count of steps taken off
the minimal support value, the constants that sandwich the density in
terms of that count, and a verifier of both summed over all bridges.

The density of a bridge path under the original law relative to the
transformed one is::

    rho_max^(-n) * prod_{k < 2n} omega_{X_k} * (rho_{X_k} + rho_max)

and a path visiting only minimal-support sites attains exactly
``exp(-2 n I0)`` where ``I0`` is the zero-velocity decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (
    Environment,
    Regime,
    SiteDistribution,
    _check_site,
    classify,
    mn_transform,
    rate_I0,
)
from .errors import DomainError, GapError, NotABridgeError, RegimeError
from .kernel import _bridge_log

__all__ = [
    "ComConstants",
    "ComRow",
    "ComReport",
    "b_count",
    "com_constants",
    "rn_log_derivative",
    "verify_com_identity",
]


def _bridge_sites(path) -> np.ndarray:
    """Validated site sequence of a 2n-step bridge: a unit-step walk from
    0 to 0 with an odd number of sites >= 3."""
    sites = np.asarray(path, dtype=np.int64)
    if sites.ndim != 1 or sites.size < 3 or sites.size % 2 == 0:
        raise NotABridgeError(
            f"a 2n-step bridge has an odd number of sites >= 3, got {sites.size}"
        )
    if sites[0] != 0 or sites[-1] != 0:
        raise NotABridgeError("bridge must start and end at the origin")
    if np.any(np.abs(np.diff(sites)) != 1):
        raise NotABridgeError("consecutive sites must differ by exactly 1")
    return sites


def b_count(env: Environment, path) -> int:
    """Number of steps taken from a site above the minimal support value.

    Counts ``k < 2n`` with ``omega_{X_k} > omega_min`` where ``omega_min``
    comes from the environment's source law (window minimum for explicit
    environments).  ``path`` is a bridge's site sequence, such as the
    array :func:`~rwre.sampling.sample_bridge` returns.
    """
    sites = _bridge_sites(path)
    lo = int(sites.min())
    om = env.slice(lo, int(sites.max()))[sites[:-1] - lo]
    return int(np.count_nonzero(om > env.omega_min))


@dataclass(frozen=True)
class ComConstants:
    """Constants controlling the density's dependence on off-minimum visits.

    For every support value ``omega >= omega_min + eta`` the per-step factor
    ``g(omega) = omega * (rho(omega) + rho_max)`` satisfies
    ``c1 * 2 (1 - omega_min) <= g(omega) <= c2 * 2 (1 - omega_min)`` with
    ``0 < c1 <= c2 < 1``.
    """

    c1: float
    c2: float
    rho_max: float
    I0: float


def com_constants(dist: SiteDistribution) -> ComConstants:
    """Sandwich constants for a non-nestling law with a positive support gap.

    Raises
    ------
    RegimeError
        If the law is not non-nestling.
    GapError
        If the support has no values above the minimum (point mass).
    """
    regime = classify(dist)
    if regime.tag is not Regime.NON_NESTLING:
        raise RegimeError(
            f"sandwich constants require a non-nestling law, got {regime.tag.value}"
        )
    if regime.eta <= 0.0:
        raise GapError("support gap above omega_min is zero")
    rho_max = dist.rho_max
    upper = np.asarray(dist.support[1:])
    # g is strictly decreasing in omega, so the extremes sit at the ends
    g = (1.0 - upper) + upper * rho_max
    base = 2.0 * (1.0 - dist.omega_min)
    return ComConstants(
        c1=float(g.min() / base),
        c2=float(g.max() / base),
        rho_max=rho_max,
        I0=rate_I0(dist),
    )


def rn_log_derivative(
    env: Environment, path, dist: SiteDistribution | None = None
) -> float:
    """Log density of the original law against the transformed law on a bridge.

    Parameters
    ----------
    env : Environment
        The original (non-nestling) environment.
    path : sequence of int
        Site sequence of a 2n-step bridge, such as the array
        :func:`~rwre.sampling.sample_bridge` returns; its sites must lie
        inside the window.
    dist : SiteDistribution, optional
        Source law, defaulting to ``env.dist``.

    Returns
    -------
    float
        ``-n log(rho_max) + sum_{k < 2n} log(omega_{X_k} (rho_{X_k} + rho_max))``.
    """
    law = dist if dist is not None else env.dist
    if law is None:
        raise RegimeError("rn_log_derivative needs the source distribution")
    regime = classify(law)
    if regime.tag is not Regime.NON_NESTLING:
        raise RegimeError(
            f"density formula requires a non-nestling law, got {regime.tag.value}"
        )
    sites = _bridge_sites(path)
    n = (sites.size - 1) // 2
    lo = int(sites.min())
    om = env.slice(lo, int(sites.max()))[sites[:-1] - lo]
    rho_max = law.rho_max
    rho = (1.0 - om) / om
    return float(np.log(om * (rho + rho_max)).sum() - n * np.log(rho_max))


@dataclass(frozen=True)
class ComRow:
    """Verification result for one event inside the bridge, in the log."""

    event: str
    log_lhs: float
    log_rhs: float
    log_lower: float
    log_upper: float
    violation: float


@dataclass(frozen=True)
class ComReport:
    """Verification of the density identity and its sandwich over all
    bridges."""

    n: int
    rows: tuple[ComRow, ...]

    def ok(self) -> bool:
        """Every row's violation is at most ``1e-12 + (2n + L) 2**-50``,
        ``L = |log_lhs|`` (0 at ``-inf``): each of the ``2n`` steps may
        round a sum by a few parts in ``2**52``, and the pass's scale, an
        exact power of two, rounds once when taken to the log."""

        def tol(r: ComRow) -> float:
            depth = abs(r.log_lhs) if math.isfinite(r.log_lhs) else 0.0
            return 1e-12 + (2 * self.n + depth) * 2.0**-50

        return all(r.violation <= tol(r) for r in self.rows)


def _gap(a: float, b: float) -> float:
    """``a - b`` in the log, 0 between equal logs (``-inf`` too)."""
    return 0.0 if a == b else a - b


def verify_com_identity(
    env: Environment,
    n: int,
    m: int | None = None,
    dist: SiteDistribution | None = None,
) -> ComReport:
    """Check the density identity and sandwich summed over every 2n-step
    bridge.

    For the bridge event (row ``bridge``) and, when ``m`` is given, the
    bridges with ``max |X| < m`` (row ``bridge_max_lt_<m>``), the report
    compares, as logs,

    * ``lhs``: the original law's probability of the event,
    * ``rhs``: the transformed law's expectation of the density over it,
    * ``lower``/``upper``: ``exp(-2 n I0)`` times the transformed law's
      expectation of ``c^(b_count)`` over it at ``c = c1`` and ``c = c2``.

    Each is a sum over bridges of a product of per-step weights, so one
    half-length bridge pass (``kernel._bridge_log``, no truncation) on
    the event's sites computes it: step weights ``(om, 1 - om)`` for
    ``lhs``; ``(om~ g, (1 - om~) g)`` with ``g = (1 - om) + om rho_max``,
    less ``n log rho_max``, for ``rhs``; and ``(om~ c^t, (1 - om~) c^t)``
    with ``t`` flagging ``om > omega_min``, less ``2 n I0``, for the
    bracket.

    ``violation`` is how far, in the log, ``lhs = rhs`` and ``lower <=
    lhs <= upper`` are broken (0 for an impossible event, ``m = 1``); see
    :meth:`ComReport.ok`.  The report never raises on a violation.
    """
    n = _check_site("n", n)
    if n < 1:
        raise DomainError("n must be at least 1")
    if m is not None and _check_site("m", m) < 1:
        raise DomainError("m must be at least 1")
    law = dist if dist is not None else env.dist
    if law is None:
        raise RegimeError("verify_com_identity needs the source distribution")
    om = env.slice(-n, n)
    consts = com_constants(law)
    tilt = mn_transform(env, law).slice(-n, n)
    off_min = om > env.omega_min
    # (right, left, log factor) of lhs, rhs, lower and upper
    sums = [(om, 1.0 - om, 0.0)]
    for f, shift in (
        ((1.0 - om) + om * consts.rho_max, -n * math.log(consts.rho_max)),
        (np.where(off_min, consts.c1, 1.0), -2.0 * n * consts.I0),
        (np.where(off_min, consts.c2, 1.0), -2.0 * n * consts.I0),
    ):
        sums.append((tilt * f, (1.0 - tilt) * f, shift))
    # half-width of each event's sites: the pass's n-step cone, or |x| < m
    events = [("bridge", n)]
    if m is not None:
        events.append((f"bridge_max_lt_{m}", min(m - 1, n)))
    rows = []
    for label, half in events:
        cut = slice(n - half, n + half + 1)
        logs = [_bridge_log(r[cut], l[cut], n, 0.0)[0] + shift for r, l, shift in sums]
        lhs, rhs, lower, upper = logs
        violation = max(abs(_gap(rhs, lhs)), _gap(lower, lhs), _gap(lhs, upper), 0.0)
        rows.append(ComRow(label, *logs, violation))
    return ComReport(n=n, rows=tuple(rows))
