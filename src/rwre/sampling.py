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

One loop runs the recursion, over one block of B = round(sqrt(2n)) steps
down from the log row that ends it.  :func:`backward_table` runs it over
the bridge's double cone, in O(n^2) time once per (environment, n), and
keeps the log row of every B-th step: about sqrt(2n) rows of n + 2 cells
(1 MB at n = 2048) instead of the n^2 + 2n step probabilities.  When a
sampler enters a block, the same loop refills the block's step
probabilities from its checkpoint, cell by cell as the build computed
them, but only over the cells that its draws can reach from where they
stand; the table keeps each fill for later draws and widens it when one
starts outside it (checkpointing in the sense of Griewank, "Achieving
logarithmic growth of temporal and spatial complexity in reverse
automatic differentiation", Optim. Methods Softw. 1, 1992).  Every
sampler takes the table as ``table=``, so each further path costs O(n)
steps plus the fills of cells no earlier draw reached, with batches
vectorized across samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .environment import Environment, _check_seed, _check_site
from .errors import DegenerateBridgeError, DomainError

__all__ = [
    "backward_table",
    "sample_bridge",
    "sample_bridge_paths",
    "max_disp_samples",
]


# Most cells a step table keeps, its checkpoints and kept fills together.
# The checkpoints alone, ceil(2n / B) rows of n + 2 cells, fit for
# n <= 88860 (300 MB).
_MAX_TABLE_ENTRIES = 37_500_000


def _block_length(n: int) -> int:
    """Steps per block of a 2n-step table, round(sqrt(2n)): the checkpoints
    and one block's fill then both take about sqrt(2n) * n cells."""
    return max(1, round(math.sqrt(2 * n)))


def _check_table_size(n: int) -> None:
    rows = -(-2 * n // _block_length(n))
    if rows * (n + 2) > _MAX_TABLE_ENTRIES:
        raise DomainError(
            f"a bridge of 2n = {2 * n} steps exceeds the sampler's "
            f"materialization cap of {_MAX_TABLE_ENTRIES} table cells"
        )


# Batch uniforms are drawn this many steps per rng call.  A (block,
# n_samples) draw fills row by row, so paths do not depend on the block
# size; a small block keeps the draw buffer, and peak memory, small.
_DRAW_BLOCK = 8


@dataclass(frozen=True, eq=False)
class _Fill:
    """Right-step probabilities of one block of steps, over the cells that
    walks with ``a`` to ``b`` right steps at the block's first step reach.

    ``p[base[i] + j]`` is the probability of stepping right at the block's
    i-th step after ``a + j`` right steps, for ``0 <= j <= b - a + i``:
    row i holds ``b - a + 1 + i`` cells, and ``base[-1]`` is ``p.size``.
    Cells off the bridge's double cone are never computed and never read.
    """

    a: int
    b: int
    p: np.ndarray
    base: list[int]


@dataclass(eq=False)
class _StepTable:
    """Checkpointed backward log table of a 2n-step bridge.

    Cells are indexed by right-step counts: after ``j`` right steps, step
    ``k`` starts at site ``2j - k``, and the double cone of the bridge is
    ``max(0, k - n) <= j <= min(k, n)``.  Steps fall into blocks of
    ``block`` steps.  ``checkpoints[c, j]`` is ``log P(X_{2n} = 0 | X_k =
    2j - k)`` at the step ``k = min((c + 1) * block, 2n)`` that ends block
    c, and ``-inf`` off the cone and in the guard column ``j = n + 1``.
    ``log_p`` and ``log_q`` are the logs of ``omega`` and ``1 - omega``,
    where ``omega`` is the environment's slice over ``[-n, n]`` that the
    table was built from; the samplers accept the table only for that
    slice.  :meth:`_rows` runs the recursion over one block, both for the
    build of the checkpoints and for the fills.  ``fills[c]`` is block c's
    kept :class:`_Fill`, or None, and ``kept`` counts the cells of the
    checkpoints and the kept fills; a lock guards both, so threads may
    share a table.
    """

    n: int
    block: int
    checkpoints: np.ndarray
    log_p: np.ndarray
    log_q: np.ndarray
    omega: np.ndarray
    fills: list[_Fill | None] = field(init=False)
    kept: int = field(init=False)
    lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.fills = [None] * len(self.checkpoints)
        self.kept = self.checkpoints.size
        self.lock = threading.Lock()

    def cover(self, c: int, a: int, b: int) -> _Fill:
        """Block c's step probabilities over the cells that walks with
        ``a`` to ``b`` right steps at the block's first step can reach.

        A kept fill that covers ``[a, b]`` is returned as it is.  Otherwise
        the block is refilled over ``[a, b]`` joined with the kept range,
        and kept in place of the old fill unless that would take the kept
        cells past ``_MAX_TABLE_ENTRIES``.
        """
        with self.lock:
            kept = self.fills[c]
            if kept is not None:
                if kept.a <= a and b <= kept.b:
                    return kept
                a, b = min(a, kept.a), max(b, kept.b)
            fill = self._fill(c, a, b)
            grown = fill.p.size - (0 if kept is None else kept.p.size)
            if self.kept + grown <= _MAX_TABLE_ENTRIES:
                self.fills[c] = fill
                self.kept += grown
            return fill

    def _rows(self, c: int, a: int, b: int):
        """The recursion down block c from the checkpoint that ends it.

        At step ``k = c * block + i`` it yields ``(i, lo, right, here)``
        over right-step counts ``lo = max(a, k - n) <= j <= min(b + i, n)``:
        ``here`` is ``log P(X_{2n} = 0 | X_k = 2j - k)`` and ``right`` the
        log of its right-step term, views of rows that later steps
        overwrite.  Cells that cannot reach the origin stay -inf.
        """
        n, start, log_p, log_q = self.n, c * self.block, self.log_p, self.log_q
        steps = min(self.block, 2 * n - start)
        # rows[i % 2][j - a] holds the log row of step i; cells off the
        # cone, and column n + 1, stay -inf
        width = min(b + self.block, n) - a + 2
        rows, up = tuple(np.full((2, width), -np.inf)), np.empty(width)
        rows[steps % 2][:] = self.checkpoints[c, a : a + width]
        for i in range(steps - 1, -1, -1):
            k = start + i
            lo, hi = max(a, k - n), min(b + i, n)
            o, m = lo - a, hi - lo + 1
            # indices x + n of the sites x = 2j - k
            s = slice(2 * lo - k + n, 2 * hi - k + n + 1, 2)
            nxt, here = rows[(i + 1) % 2], rows[i % 2][o : o + m]
            right = np.add(log_p[s], nxt[o + 1 : o + m + 1], up[:m])
            np.add(log_q[s], nxt[o : o + m], here)
            np.logaddexp(right, here, here)
            yield i, lo, right, here

    def _fill(self, c: int, a: int, b: int) -> _Fill:
        steps = min(self.block, 2 * self.n - c * self.block)
        width = b - a + 1
        base = [i * width + i * (i - 1) // 2 for i in range(steps + 1)]
        p = np.zeros(base[-1])
        with np.errstate(invalid="ignore"):
            for i, lo, right, here in self._rows(c, a, b):
                o = base[i] + lo - a
                np.subtract(right, here, p[o : o + right.size])
            # here >= right, so p is at most 1 on the cone
            np.exp(p, out=p)
        return _Fill(a, b, p, base)


def backward_table(env: Environment, n: int) -> _StepTable:
    """Step table of the 2n-step bridge: build it once, sample it often.

    Runs the backward recursion for ``log P(X_{2n} = 0 | X_k = x)`` over
    the bridge's double cone in O(n^2) time, one block of B =
    round(sqrt(2n)) steps at a time from the last, and keeps the row of
    every B-th step (see :class:`_StepTable`): ``ceil(2n / B) * (n + 2)``
    cells, 1 MB at n = 2048.  The samplers accept it as ``table=``, and the
    same recursion refills each block's step probabilities from its
    checkpoint as their draws reach it: at most about ``(b - a + B) * B``
    cells per block for draws spread over ``b - a`` right-step counts.  The
    table keeps those fills while checkpoints and fills stay within
    37,500,000 cells.  The checkpoints alone cap n at 88860.

    The environment window must cover ``[-n, n]``, the sites a bridge can
    reach.
    """
    n = _check_site("n", n)
    if n < 1:
        raise DomainError("n must be at least 1")
    om = env.slice(-n, n)
    _check_table_size(n)
    block = _block_length(n)
    checkpoints = np.full((-(-2 * n // block), n + 2), -np.inf)
    checkpoints[-1, n] = 0.0
    with np.errstate(divide="ignore"):
        table = _StepTable(n, block, checkpoints, np.log(om), np.log1p(-om), om.copy())
    for c in range(len(checkpoints) - 1, -1, -1):
        # a block's last row, at its first step, ends the block before
        start = c * block
        for _, lo, _, here in table._rows(c, max(0, start - n), min(start, n)):
            pass
        if c > 0:
            checkpoints[c - 1, lo : lo + here.size] = here
    if here[0] == -np.inf:
        raise DegenerateBridgeError(
            "conditioning event X_{2n} = 0 has zero probability"
        )
    return table


def _sampler_inputs(
    env: Environment, n: int, seed: int, table: _StepTable | None
) -> tuple[np.random.Generator, _StepTable]:
    """Validated ``(rng, table)`` for sampling 2n-step bridges."""
    seed, n = _check_seed(seed), _check_site("n", n)
    if table is None:
        table = backward_table(env, n)
    elif not isinstance(table, _StepTable) or table.n != n:
        raise DomainError(
            f"table is not a step table for n={n}; build one with backward_table"
        )
    if not np.array_equal(table.omega, env.slice(-n, n)):
        raise DomainError(
            "table was built for another environment; build one with backward_table"
        )
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng, table


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
    rng, table = _sampler_inputs(env, n, seed, table)
    block = table.block
    # trap[x + n] flags the sites whose transition probability exceeds the
    # law's minimal support value
    trap = table.omega > env.omega_min
    # right-step counts, as offsets from the current block's fill.a
    right, a = np.zeros(n_samples, dtype=np.int64), 0
    site = np.zeros(n_samples, dtype=np.int64)
    max_abs = np.zeros(n_samples, dtype=np.int64)
    b_counts = np.zeros(n_samples, dtype=np.int64)
    paths = None
    if keep_paths:
        paths = np.zeros((n_samples, 2 * n + 1), dtype=np.int32)
    for k in range(2 * n):
        i = k % block
        if i == 0:
            fill = table.cover(k // block, a + int(right.min()), a + int(right.max()))
            right += a - fill.a
            a, p_right, base = fill.a, fill.p, fill.base
        if k % _DRAW_BLOCK == 0:
            u = rng.random((min(_DRAW_BLOCK, 2 * n - k), n_samples))
        b_counts += trap[site + n]
        right += u[k % _DRAW_BLOCK] < p_right[base[i] :].take(right)
        site = 2 * right + (2 * a - k - 1)
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
        each further draw cost O(n), plus a refill of each block of about
        sqrt(2n) steps that it enters outside the walks of the table's
        earlier draws; without it every call builds one in O(n^2).  A
        table built for another ``n``, or for an environment with other
        omegas on ``[-n, n]``, raises :class:`DomainError`.
    """
    rng, table = _sampler_inputs(env, n, seed, table)
    block = table.block
    right = 0
    sites = [0]
    for k, u in enumerate(rng.random(2 * n).tolist()):
        i = k % block
        if i == 0:
            fill = table.cover(k // block, right, right)
            p_right, base, a = fill.p, fill.base, fill.a
        if u < p_right[base[i] + right - a]:
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
