"""Reweighting between a non-nestling law and its fair-site transform.

On the event that a 2n-step walk returns to the origin, the quenched law
of a non-nestling environment is absolutely continuous with respect to the
law of the transformed environment (see
:func:`rwre.environment.mn_transform`), with an explicit pathwise density.
This module computes that density, the per-path count of steps taken off
the minimal support value, the constants that sandwich the density in
terms of that count, and an exhaustive small-n verifier for both.

The density of a bridge path under the original law relative to the
transformed one is::

    rho_max^(-n) * prod_{k < 2n} omega_{X_k} * (rho_{X_k} + rho_max)

and a path visiting only minimal-support sites attains exactly
``exp(-2 n I0)`` where ``I0`` is the zero-velocity decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .environment import (
    Environment,
    Regime,
    SiteDistribution,
    classify,
    mn_transform,
    rate_I0,
)
from .errors import DomainError, GapError, NotABridgeError, RegimeError

__all__ = [
    "ComConstants",
    "ComRow",
    "ComReport",
    "b_count",
    "com_constants",
    "rn_log_derivative",
    "verify_com_identity",
]

# Exhaustive verification enumerates C(2n, n) paths; beyond this the count
# is large enough that the check belongs in a sampler, not here.
_MAX_ENUM_N = 8


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
    lo, hi = int(sites.min()), int(sites.max())
    env.require_window(lo, hi)
    om = env.omegas[sites[:-1] - env.offset]
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
    lo, hi = int(sites.min()), int(sites.max())
    env.require_window(lo, hi)
    rho_max = law.rho_max
    om = env.omegas[sites[:-1] - env.offset]
    rho = (1.0 - om) / om
    return float(np.log(om * (rho + rho_max)).sum() - n * np.log(rho_max))


@dataclass(frozen=True)
class ComRow:
    """Verification result for one event inside the bridge."""

    event: str
    lhs: float
    rhs: float
    lower: float
    upper: float
    max_abs_violation: float


@dataclass(frozen=True)
class ComReport:
    """Exhaustive verification of the density identity and its sandwich."""

    n: int
    rows: tuple[ComRow, ...]

    def ok(self) -> bool:
        """Every row's violation is at most 1e-12."""
        return all(r.max_abs_violation <= 1e-12 for r in self.rows)


def _enumerate_bridges(n: int):
    """Yield every 2n-step bridge as an array of 2n+1 sites."""
    steps = np.full(2 * n, -1, dtype=np.int64)
    for ups in combinations(range(2 * n), n):
        steps[:] = -1
        steps[list(ups)] = 1
        yield np.concatenate(([0], np.cumsum(steps)))


def _path_log_prob(env: Environment, sites: np.ndarray) -> float:
    om = env.omegas[sites[:-1] - env.offset]
    went_right = np.diff(sites) == 1
    probs = np.where(went_right, om, 1.0 - om)
    return float(np.log(probs).sum())


def verify_com_identity(
    env: Environment,
    n: int,
    events: list[tuple[str, callable]] | None = None,
    dist: SiteDistribution | None = None,
) -> ComReport:
    """Check the density identity and sandwich on every 2n-step bridge.

    For each event A (a predicate on the site sequence, implicitly
    intersected with the bridge event; ``None`` means the plain bridge
    event) the report compares

    * ``lhs``: the original law's probability of A,
    * ``rhs``: the transformed law's expectation of the density over A,
    * ``lower``/``upper``: ``exp(-2 n I0)`` times the transformed law's
      expectation of ``c^(b_count)`` over A at ``c = c1`` and ``c = c2``.

    ``max_abs_violation`` aggregates how far the identity ``lhs = rhs``
    and the bracket ``lower <= lhs <= upper`` are broken; an exact
    implementation keeps it at floating-point noise.  The report never
    raises on a violation -- callers assert on it.

    Limited to ``n <= 8`` (exhaustive enumeration of C(2n, n) paths).
    """
    if not (1 <= n <= _MAX_ENUM_N):
        raise DomainError(f"exhaustive verification supports 1 <= n <= {_MAX_ENUM_N}")
    law = dist if dist is not None else env.dist
    if law is None:
        raise RegimeError("verify_com_identity needs the source distribution")
    env.require_window(-n, n)
    consts = com_constants(law)
    tilted = mn_transform(env, law)
    if events is None:
        events = [("bridge", None)]

    labels = [label for label, _ in events]
    lhs = dict.fromkeys(labels, 0.0)
    rhs = dict.fromkeys(labels, 0.0)
    low = dict.fromkeys(labels, 0.0)
    upp = dict.fromkeys(labels, 0.0)
    damp = float(np.exp(-2.0 * n * consts.I0))
    for sites in _enumerate_bridges(n):
        p_orig = np.exp(_path_log_prob(env, sites))
        p_tilt = np.exp(_path_log_prob(tilted, sites))
        weight = np.exp(rn_log_derivative(env, sites, law))
        visits = b_count(env, sites)
        for label, pred in events:
            if pred is None or pred(sites):
                lhs[label] += p_orig
                rhs[label] += weight * p_tilt
                low[label] += damp * consts.c1**visits * p_tilt
                upp[label] += damp * consts.c2**visits * p_tilt
    rows = []
    for label in labels:
        violation = max(
            abs(lhs[label] - rhs[label]),
            max(0.0, low[label] - lhs[label]),
            max(0.0, lhs[label] - upp[label]),
        )
        rows.append(
            ComRow(label, lhs[label], rhs[label], low[label], upp[label], violation)
        )
    return ComReport(n=n, rows=tuple(rows))
