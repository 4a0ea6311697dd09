"""Exact sampling of environment-conditioned bridges.

A 2n-step bridge is a walk conditioned to return to the origin.  Sampling
is done by the usual two-pass construction: a backward pass tabulates, for
every step and site, the probability of finishing at the origin from
there; the forward pass then walks step by step with transition
probabilities reweighted by that table.  Both passes are exact, so the
sampled paths follow the quenched conditional law with no approximation
beyond floating point.

The backward table costs O(n^2) time and memory once per (environment, n)
and each sampled path costs O(n), with batches vectorized across samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .environment import Environment
from .errors import DegenerateBridgeError, DomainError, NotABridgeError
from .kernel import DpTable, _check_table_size

__all__ = [
    "BridgePath",
    "MaxDispSamples",
    "backward_table",
    "sample_bridge",
    "sample_bridge_paths",
    "max_disp_samples",
]


@dataclass(frozen=True, eq=False)
class BridgePath:
    """One sampled bridge: the site sequence and its summary statistics.

    ``sites[k]`` is the position after k steps, so the array has length
    ``2n + 1`` and starts and ends at 0.  ``b_count`` counts the steps
    ``k < 2n`` taken from a site whose transition probability exceeds the
    law's minimal support value.
    """

    n: int
    sites: np.ndarray
    max_abs: int
    b_count: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "sites", _bridge_sites(self.sites, self.n))


def _bridge_sites(path, n: int | None = None) -> np.ndarray:
    """Validated sites of a :class:`BridgePath` or raw site sequence: a
    unit-step walk from 0 to 0 with ``2n + 1`` sites (any odd count >= 3
    when ``n`` is None)."""
    sites = np.asarray(getattr(path, "sites", path), dtype=np.int64)
    if n is not None:
        if sites.shape != (2 * n + 1,):
            raise NotABridgeError(
                f"expected {2 * n + 1} sites for n={n}, got {sites.size}"
            )
    elif sites.ndim != 1 or sites.size < 3 or sites.size % 2 == 0:
        raise NotABridgeError(
            f"a 2n-step bridge has an odd number of sites >= 3, got {sites.size}"
        )
    if sites[0] != 0 or sites[-1] != 0:
        raise NotABridgeError("bridge must start and end at the origin")
    if np.any(np.abs(np.diff(sites)) != 1):
        raise NotABridgeError("consecutive sites must differ by exactly 1")
    return sites


def backward_table(env: Environment, n: int) -> DpTable:
    """Log probabilities of finishing at the origin, for every step and site.

    Cell ``(k, x)`` holds ``log P(X_{2n} = 0 | X_k = x)`` for sites in
    ``[-n - 1, n + 1]``.  Values are exact for every cell inside the double
    cone ``|x| <= min(k, 2n - k)`` -- the only cells a bridge can occupy;
    cells outside it may be underestimated because their walks would need
    sites beyond ``[-n, n]``.  The two guard columns at ``+-(n + 1)``, which
    no bridge reaches, hold ``-inf``, so the sampler reads the neighbours
    ``x +- 1`` of any bridge site in place.

    The environment window must cover ``[-2n, 2n]``.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    env.require_window(-2 * n, 2 * n)
    om = env.slice(-n, n)
    w = om.size + 2
    _check_table_size(2 * n, w)
    with np.errstate(divide="ignore"):
        log_p = np.log(om)
        log_q = np.log1p(-om)
    h = np.full((2 * n + 1, w), -np.inf)
    h[2 * n, n + 1] = 0.0
    for k in range(2 * n - 1, -1, -1):
        nxt = h[k + 1]
        np.logaddexp(log_p + nxt[2:], log_q + nxt[:-2], out=h[k, 1:-1])
    if h[0, n + 1] == -np.inf:
        raise DegenerateBridgeError(
            "conditioning event X_{2n} = 0 has zero probability"
        )
    return DpTable("backward", 2 * n, -n - 1, n + 1, h)


def _sample_batch(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: DpTable | None,
    keep_paths: bool,
):
    """Vectorized forward pass; returns (paths or None, max_abs, b_counts).

    Step k consumes draws ``[k * n_samples, (k + 1) * n_samples)`` of the
    seed's stream, so results for a given (env, n, n_samples, seed) are
    reproducible and independent of batching by the caller.
    """
    if table is None:
        table = backward_table(env, n)
    if table.kind != "backward" or table.n_steps != 2 * n:
        raise DomainError("table does not match the requested bridge length")
    om = env.slice(-n, n)
    omega_min = env.omega_min
    # the guard columns let x +- 1 lookups read the table in place
    h = table.log_mass
    with np.errstate(divide="ignore"):
        log_p = np.log(om)
        log_q = np.log1p(-om)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pos = np.zeros(n_samples, dtype=np.int64)
    max_abs = np.zeros(n_samples, dtype=np.int64)
    b_counts = np.zeros(n_samples, dtype=np.int64)
    paths = None
    if keep_paths:
        paths = np.zeros((n_samples, 2 * n + 1), dtype=np.int32)
    with np.errstate(invalid="ignore"):
        for k in range(2 * n):
            i = pos + n
            here = h[k, i + 1]
            pr = np.exp(log_p[i] + h[k + 1, i + 2] - here)
            pl = np.exp(log_q[i] + h[k + 1, i] - here)
            pr = pr / (pr + pl)
            b_counts += om[i] > omega_min
            go_right = rng.random(n_samples) < pr
            pos = pos + np.where(go_right, 1, -1)
            np.maximum(max_abs, np.abs(pos), out=max_abs)
            if keep_paths:
                paths[:, k + 1] = pos
    return paths, max_abs, b_counts


def sample_bridge(
    env: Environment, n: int, seed: int, table: DpTable | None = None
) -> BridgePath:
    """Draw one 2n-step bridge from the quenched conditional law.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-2n, 2n]``.
    n : int
        Half length of the bridge.
    seed : int
        Sampling stream key; environments and samplers use separate
        streams, so reusing an environment seed here is harmless.
    table : DpTable, optional
        Precomputed :func:`backward_table` for this (env, n); passing it
        amortizes the quadratic preparation across many samples.
    """
    paths, max_abs, b_counts = _sample_batch(env, n, 1, seed, table, True)
    return BridgePath(
        n=n,
        sites=paths[0].astype(np.int64),
        max_abs=int(max_abs[0]),
        b_count=int(b_counts[0]),
        seed=seed,
    )


def sample_bridge_paths(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: DpTable | None = None,
) -> np.ndarray:
    """Draw a batch of bridges and return their full site sequences.

    Returns an ``(n_samples, 2n + 1)`` integer matrix whose row ``i`` is
    one bridge (``[:, 0]`` and ``[:, -1]`` are zero).  The draw stream for
    a given ``(env, n, n_samples, seed)`` is shared with
    :func:`max_disp_samples`, so the displacement summary and the paths of
    one batch can be obtained without resampling; a batch of size 1
    reproduces :func:`sample_bridge` for the same seed.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    paths, _, _ = _sample_batch(env, n, n_samples, seed, table, True)
    return paths


@dataclass(frozen=True, eq=False)
class MaxDispSamples:
    """Empirical maximal displacement of a batch of sampled bridges."""

    n: int
    seed: int
    max_abs: np.ndarray
    b_counts: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.max_abs.size

    @cached_property
    def _sorted(self) -> np.ndarray:
        return np.sort(self.max_abs)

    def quantile(self, q: float) -> int:
        """Smallest m whose empirical CDF reaches q (inverse-CDF convention)."""
        return int(np.quantile(self._sorted, q, method="inverted_cdf"))

    @property
    def median(self) -> int:
        return self.quantile(0.5)

    @property
    def mean_b_count(self) -> float:
        return float(self.b_counts.mean())

    def ecdf(self, m_values: np.ndarray) -> np.ndarray:
        """Empirical P(max_abs <= m) at each of the given thresholds."""
        ms = np.asarray(m_values)
        return np.searchsorted(self._sorted, ms, side="right") / self.n_samples

    def dkw_halfwidth(self, level: float = 0.99) -> float:
        """Half-width of the two-sided DKW confidence band at `level`."""
        if not (0.0 < level < 1.0):
            raise DomainError("level must lie strictly between 0 and 1")
        return float(np.sqrt(np.log(2.0 / (1.0 - level)) / (2.0 * self.n_samples)))


def max_disp_samples(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: DpTable | None = None,
) -> MaxDispSamples:
    """Sample ``n_samples`` bridges and collect their maximal displacements.

    Paths themselves are not kept; per-sample maxima and trap-exposure
    counts are.  The draw stream is identical to sampling the same batch
    path by path with :func:`sample_bridge` semantics.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    _, max_abs, b_counts = _sample_batch(env, n, n_samples, seed, table, False)
    return MaxDispSamples(n=n, seed=seed, max_abs=max_abs, b_counts=b_counts)
