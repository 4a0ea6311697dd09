"""Exact sampling of environment-conditioned bridges.

A 2n-step bridge is a walk conditioned to return to the origin.  Sampling
is done by the usual two-pass construction.  A backward recursion in the
log domain gives, for every step and site, the probability of finishing
at the origin from there; folding two consecutive rows of it gives the
conditioned probability of stepping right, so the bridge becomes an
ordinary forward Markov chain.  The forward pass walks that chain with one
uniform draw and one comparison per step.  Both passes are exact, so the
sampled paths follow the quenched conditional law with no approximation
beyond floating point.

The step table costs O(n^2) time and memory once per (environment, n):
the recursion keeps two rolling log rows and visits only the cells of the
bridge's double cone.  Each sampled path costs O(n), with batches
vectorized across samples.
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
    no bridge reaches, hold ``-inf``, so the sampler's step-table fold
    reads the neighbours ``x +- 1`` of any bridge site in place.

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


# Batch uniforms are drawn this many steps per rng call.  A (block,
# n_samples) draw fills row by row, so paths do not depend on the block
# size; a small block keeps the draw buffer, and peak memory, small.
_DRAW_BLOCK = 8


@dataclass(frozen=True, eq=False)
class _StepTable:
    """Conditioned right-step probabilities of a 2n-step bridge.

    ``p_right[k, j]`` is the probability that the bridge steps right at
    step ``k`` after ``j`` right steps, i.e. from site ``2j - k``.  Only the
    cells of the double cone ``max(0, k - n) <= j <= min(k, n)`` (sites
    ``|x| <= min(k, 2n - k)``) are filled; no bridge reads the others.
    """

    n: int
    p_right: np.ndarray


def _step_table(env: Environment, n: int, table: DpTable | None = None) -> _StepTable:
    """Fold backward log rows into the step table of a 2n-step bridge.

    Row k needs only the log rows k and k + 1.  They are read from
    ``table`` when one is given; otherwise one backward recursion keeps
    two rolling rows and computes only cone cells, which equal the
    matching cells of :func:`backward_table` bit for bit.  Each row is
    folded by the same expressions, so both sources give identical tables.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if table is not None and (table.kind != "backward" or table.n_steps != 2 * n):
        raise DomainError("table does not match the requested bridge length")
    env.require_window(-2 * n, 2 * n)
    # the step table is smaller than a backward table, but the sampler
    # accepts the same bridge lengths
    _check_table_size(2 * n, 2 * n + 3)
    om = env.slice(-n, n)
    p_right = np.empty((2 * n, n + 1))
    # h[k % 2, j] holds log P(X_{2n} = 0 | X_k = 2j - k); column n + 1 and
    # every cell outside the cone stay -inf
    h = np.full((2, n + 2), -np.inf)
    h[0, n] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(om)
        log_q = np.log1p(-om)
        for k in range(2 * n - 1, -1, -1):
            lo, hi = max(0, k - n), min(k, n)
            # indices x + n of the row's sites x = 2j - k
            i = slice(2 * lo - k + n, 2 * hi - k + n + 1, 2)
            if table is None:
                nxt, here = h[(k + 1) % 2, lo : hi + 2], h[k % 2, lo : hi + 1]
            else:
                # the table's column of site x is x + n + 1
                nxt = table.log_mass[k + 1, i.start : i.stop + 2 : 2]
                here = table.log_mass[k, i.start + 1 : i.stop + 1 : 2]
            up = log_p[i] + nxt[1:]
            down = log_q[i] + nxt[:-1]
            if table is None:
                np.logaddexp(up, down, out=here)
            pr = np.exp(up - here)
            pl = np.exp(down - here)
            p_right[k, lo : hi + 1] = pr / (pr + pl)
    if here[0] == -np.inf:
        raise DegenerateBridgeError(
            "conditioning event X_{2n} = 0 has zero probability"
        )
    return _StepTable(n, p_right)


def _sampler_inputs(
    env: Environment, n: int, seed: int, table: DpTable | _StepTable | None
) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Validated ``(rng, p_right, trap)`` for sampling 2n-step bridges.

    ``trap[x + n]`` flags the sites ``|x| <= n`` whose transition
    probability exceeds the law's minimal support value.
    """
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not isinstance(table, _StepTable):
        table = _step_table(env, n, table)
    elif table.n != n:
        raise DomainError("table does not match the requested bridge length")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng, table.p_right, env.slice(-n, n) > env.omega_min


def _sample_batch(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: DpTable | _StepTable | None,
    keep_paths: bool,
):
    """Vectorized forward pass; returns (paths or None, max_abs, b_counts).

    Step k consumes draws ``[k * n_samples, (k + 1) * n_samples)`` of the
    seed's stream, so results for a given (env, n, n_samples, seed) are
    reproducible and independent of batching by the caller.
    """
    rng, p_right, trap = _sampler_inputs(env, n, seed, table)
    right = np.zeros(n_samples, dtype=np.int64)
    site = np.zeros(n_samples, dtype=np.int64)
    max_abs = np.zeros(n_samples, dtype=np.int64)
    b_counts = np.zeros(n_samples, dtype=np.int64)
    paths = None
    if keep_paths:
        paths = np.zeros((n_samples, 2 * n + 1), dtype=np.int32)
    for k in range(2 * n):
        if k % _DRAW_BLOCK == 0:
            u = rng.random((min(_DRAW_BLOCK, 2 * n - k), n_samples))
        b_counts += trap[site + n]
        right += u[k % _DRAW_BLOCK] < p_right[k][right]
        site = 2 * right - (k + 1)
        np.maximum(max_abs, np.abs(site), out=max_abs)
        if keep_paths:
            paths[:, k + 1] = site
    return paths, max_abs, b_counts


def sample_bridge(
    env: Environment, n: int, seed: int, table: DpTable | _StepTable | None = None
) -> BridgePath:
    """Draw one 2n-step bridge from the quenched conditional law.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-2n, 2n]``.
    n : int
        Half length of the bridge.
    seed : int
        Sampling stream key in ``[0, 2^64)``; environments and samplers use
        separate streams, so reusing an environment seed here is harmless.
    table : DpTable, optional
        Precomputed :func:`backward_table` for this (env, n), which spares
        the log-domain recursion but is still folded, in O(n^2), into a
        step table on every call; or the sampler's own step table for
        (env, n), which is used as is.
    """
    rng, p_right, trap = _sampler_inputs(env, n, seed, table)
    right = 0
    sites = [0]
    for k, u in enumerate(rng.random(2 * n).tolist()):
        if u < p_right[k][right]:
            right += 1
        sites.append(2 * right - (k + 1))
    sites = np.array(sites, dtype=np.int64)
    return BridgePath(
        n=n,
        sites=sites,
        max_abs=int(np.abs(sites).max()),
        b_count=int(np.count_nonzero(trap[sites[:-1] + n])),
        seed=seed,
    )


def sample_bridge_paths(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: DpTable | _StepTable | None = None,
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
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"quantile level must lie in [0, 1], got {q!r}")
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
    table: DpTable | _StepTable | None = None,
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
