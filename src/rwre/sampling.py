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

:func:`backward_table` builds that step table in O(n^2) time and memory
once per (environment, n): the recursion keeps two rolling log rows and
visits only the cells of the bridge's double cone, and the table stores
exactly those ``n^2 + 2n`` cells, row after row in one flat array.  Every
sampler takes it as ``table=``, so each further path costs O(n), with
batches vectorized across samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment, _check_seed, _check_site
from .errors import DegenerateBridgeError, DomainError

__all__ = [
    "backward_table",
    "sample_bridge",
    "sample_bridge_paths",
    "max_disp_samples",
]


# Most cells of a step table, n^2 + 2n of them: n <= 6122 (300 MB).
_MAX_TABLE_ENTRIES = 37_500_000


def _check_table_size(n: int) -> None:
    if n * n + 2 * n > _MAX_TABLE_ENTRIES:
        raise DomainError(
            f"a bridge of 2n = {2 * n} steps exceeds the sampler's "
            f"materialization cap of {_MAX_TABLE_ENTRIES} table cells"
        )


# Batch uniforms are drawn this many steps per rng call.  A (block,
# n_samples) draw fills row by row, so paths do not depend on the block
# size; a small block keeps the draw buffer, and peak memory, small.
_DRAW_BLOCK = 8


@dataclass(frozen=True, eq=False)
class _StepTable:
    """Conditioned right-step probabilities of a 2n-step bridge.

    ``p_right[base[k] + j]`` is the probability that the bridge steps
    right at step ``k`` after ``j`` right steps, i.e. from site ``2j - k``.
    Only the cells of the double cone ``max(0, k - n) <= j <= min(k, n)``
    (sites ``|x| <= min(k, 2n - k)``) are stored, since no bridge reads
    the others: row ``k`` is contiguous, rows follow in step order, and
    ``p_right`` holds ``n^2 + 2n`` float64 cells.  ``base[k]`` is row k's
    offset minus its first ``j``.  ``omega`` is the environment's slice
    over ``[-n, n]`` that the table was built from; the samplers accept
    the table only for that slice.
    """

    n: int
    p_right: np.ndarray
    base: list[int]
    omega: np.ndarray


def backward_table(env: Environment, n: int) -> _StepTable:
    """Step table of the 2n-step bridge: build it once, sample it often.

    Returns the conditioned right-step probabilities ``p_right``, packed
    to the ``n^2 + 2n`` cells of the double cone (see :class:`_StepTable`),
    which the samplers accept as ``table=``.  They come from the backward
    log probabilities ``log P(X_{2n} = 0 | X_k = x)`` of one recursion
    that keeps two rolling log rows and computes only the cells of the
    double cone; row k of the table folds log rows k and k + 1.  Bridge
    lengths are capped at ``n^2 + 2n <= 37,500,000`` cells (n <= 6122).

    The environment window must cover ``[-n, n]``, the sites a bridge can
    reach.
    """
    n = _check_site("n", n)
    if n < 1:
        raise DomainError("n must be at least 1")
    om = env.slice(-n, n)
    _check_table_size(n)
    base, size = [], 0
    for k in range(2 * n):
        lo, hi = max(0, k - n), min(k, n)
        base.append(size - lo)
        size += hi - lo + 1
    p_right = np.empty(size)
    # h[k % 2, j] holds log P(X_{2n} = 0 | X_k = 2j - k); column n + 1 and
    # every cell outside the cone stay -inf
    h = np.full((2, n + 2), -np.inf)
    h[0, n] = 0.0
    up, down = np.empty(n + 1), np.empty(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(om)
        log_q = np.log1p(-om)
        for k in range(2 * n - 1, -1, -1):
            lo, hi = max(0, k - n), min(k, n)
            # indices x + n of the row's sites x = 2j - k
            i = slice(2 * lo - k + n, 2 * hi - k + n + 1, 2)
            nxt, here = h[(k + 1) % 2, lo : hi + 2], h[k % 2, lo : hi + 1]
            # the row's cells: m of them, from p_right[s] on
            m, s = hi - lo + 1, base[k] + lo
            u, d = up[:m], down[:m]
            np.add(log_p[i], nxt[1:], out=u)
            np.add(log_q[i], nxt[:-1], out=d)
            np.logaddexp(u, d, out=here)
            # here >= u, so the right-step probability is at most 1
            np.exp(np.subtract(u, here, out=u), out=p_right[s : s + m])
    if here[0] == -np.inf:
        raise DegenerateBridgeError(
            "conditioning event X_{2n} = 0 has zero probability"
        )
    return _StepTable(n, p_right, base, om.copy())


def _sampler_inputs(
    env: Environment, n: int, seed: int, table: _StepTable | None
) -> tuple[np.random.Generator, _StepTable, np.ndarray]:
    """Validated ``(rng, table, trap)`` for sampling 2n-step bridges.

    ``trap[x + n]`` flags the sites ``|x| <= n`` whose transition
    probability exceeds the law's minimal support value.
    """
    seed, n = _check_seed(seed), _check_site("n", n)
    if table is None:
        table = backward_table(env, n)
    elif not isinstance(table, _StepTable) or table.n != n:
        raise DomainError(
            f"table is not a step table for n={n}; build one with backward_table"
        )
    om = env.slice(-n, n)
    if not np.array_equal(table.omega, om):
        raise DomainError(
            "table was built for another environment; build one with backward_table"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng, table, om > env.omega_min


def _sample_batch(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: _StepTable | None,
    keep_paths: bool,
):
    """Vectorized forward pass; returns (paths or None, max_abs, b_counts).

    Step k consumes draws ``[k * n_samples, (k + 1) * n_samples)`` of the
    seed's stream, so results for a given (env, n, n_samples, seed) are
    reproducible and independent of batching by the caller.
    """
    rng, table, trap = _sampler_inputs(env, n, seed, table)
    p_right, base = table.p_right, table.base
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
        right += u[k % _DRAW_BLOCK] < p_right[base[k] :].take(right)
        site = 2 * right - (k + 1)
        np.maximum(max_abs, np.abs(site), out=max_abs)
        if keep_paths:
            paths[:, k + 1] = site
    return paths, max_abs, b_counts


def sample_bridge(
    env: Environment, n: int, seed: int, table: _StepTable | None = None
) -> np.ndarray:
    """Draw one 2n-step bridge from the quenched conditional law.

    Returns the int64 site sequence: ``sites[k]`` is the position after k
    steps, so the array has length ``2n + 1`` and starts and ends at 0.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-n, n]``.
    n : int
        Half length of the bridge.
    seed : int
        Sampling stream key in ``[0, 2^64)``; environments and samplers use
        separate streams, so reusing an environment seed here is harmless.
    table : optional
        The step table ``backward_table(env, n)``.  Built once, it makes
        each further draw cost O(n); without it every call builds one in
        O(n^2).  A table built for another ``n``, or for an environment
        with other omegas on ``[-n, n]``, raises :class:`DomainError`.
    """
    rng, table, _ = _sampler_inputs(env, n, seed, table)
    p_right, base = table.p_right, table.base
    right = 0
    sites = [0]
    for k, u in enumerate(rng.random(2 * n).tolist()):
        if u < p_right[base[k] + right]:
            right += 1
        sites.append(2 * right - (k + 1))
    return np.array(sites, dtype=np.int64)


def sample_bridge_paths(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: _StepTable | None = None,
) -> np.ndarray:
    """Draw a batch of bridges and return their full site sequences.

    Returns an ``(n_samples, 2n + 1)`` integer matrix whose row ``i`` is
    one bridge (``[:, 0]`` and ``[:, -1]`` are zero).  The draw stream for
    a given ``(env, n, n_samples, seed)`` is shared with
    :func:`max_disp_samples`, so the displacement summary and the paths of
    one batch can be obtained without resampling; a batch of size 1
    reproduces :func:`sample_bridge` for the same seed.
    """
    n_samples = _check_site("n_samples", n_samples)
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    paths, _, _ = _sample_batch(env, n, n_samples, seed, table, True)
    return paths


def max_disp_samples(
    env: Environment,
    n: int,
    n_samples: int,
    seed: int,
    table: _StepTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``n_samples`` bridges and collect their maximal displacements.

    Returns ``(max_abs, b_counts)``, two int64 arrays of length
    ``n_samples``: each bridge's ``max_k |X_k|``, and its count of steps
    ``k < 2n`` taken from a site whose transition probability exceeds the
    law's minimal support value.  Paths themselves are not kept.  The
    draw stream is the one :func:`sample_bridge_paths` uses for the same
    arguments.
    """
    n_samples = _check_site("n_samples", n_samples)
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    _, max_abs, b_counts = _sample_batch(env, n, n_samples, seed, table, False)
    return max_abs, b_counts
