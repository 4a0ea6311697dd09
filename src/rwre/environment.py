"""Site distributions, regime classification, and environment windows.

A random environment on the integer lattice assigns every site ``x`` an
independent right-step probability ``omega_x`` drawn from a finite-support
distribution.  This module provides:

* :class:`SiteDistribution` -- the law of a single site, with the derived
  quantities (minimal support value, support gap, odds) that the quenched
  computations need;
* :func:`classify` -- the trichotomy of transient regimes (nestling,
  marginally nestling, non-nestling) plus the non-transient catch-all;
* :func:`solve_kappa` -- the unique positive root of ``E[rho^kappa] = 1``
  where ``rho = (1 - omega) / omega``, which controls the polynomial tail of
  quenched slowdowns in the nestling regime;
* :class:`Environment` -- a realized window of site probabilities with
  shift and reflection operations;
* :func:`sample_environment` -- counter-based sampling keyed by
  ``(seed, site)`` so that overlapping windows agree site by site;
* :func:`mn_transform` -- the pointwise map that turns a non-nestling
  environment into a marginally nestling one with the same weight at the
  minimal support value.

Step-count conventions: every walk starts at the origin, and bridge events
always involve an even number of steps written ``2n``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DomainError, RegimeError, WindowTooSmallError

__all__ = [
    "SiteDistribution",
    "Regime",
    "RegimeClass",
    "Environment",
    "classify",
    "solve_kappa",
    "speed",
    "rate_I0",
    "annealed_backtrack_bound",
    "sample_environment",
    "mn_transform",
    "mn_transform_law",
]

# Distributions whose mean log-odds are closer to zero than this are treated
# as non-transient: below this scale the sign is numerical noise.
_TRANSIENCE_TOL = 1e-12

# Bound on |E[rho^kappa] - 1| at the root solve_kappa returns.
_KAPPA_TOL = 1e-12

# Stream offset so that site indices (which may be negative) map to
# nonnegative draw positions of the counter-based generator.
_SITE_STREAM_OFFSET = 1 << 62

# Windows of at most this many draws are drawn by _philox_uniforms, which
# spares the import of numpy.random; larger ones use numpy's C generator,
# an order of magnitude faster per draw.
_INLINE_DRAWS_MAX = 1 << 14

# Philox4x64-10 constants (Salmon et al., SC'11): round multipliers, their
# 32-bit halves, and the Weyl key bumps.  Every operand stays np.uint64 so
# that no integer promotion can change the bits.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_U32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _U32


@dataclass(frozen=True)
class SiteDistribution:
    """Finite-support law of a single site's right-step probability.

    Parameters
    ----------
    support : tuple of float
        Distinct values in the open interval (0, 1), in any order.
    weights : tuple of float
        Strictly positive weights summing to 1 (within 1e-12), aligned
        with ``support``.

    Notes
    -----
    The pair is stored sorted by support value.  Every support value lies
    strictly inside (0, 1), so the law is uniformly elliptic.
    """

    support: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) == 0:
            raise DomainError("support must be nonempty")
        if len(self.support) != len(self.weights):
            raise DomainError("support and weights must have equal length")
        order = np.argsort(self.support)
        sup = tuple(float(self.support[i]) for i in order)
        wts = tuple(float(self.weights[i]) for i in order)
        for v in sup:
            if not (0.0 < v < 1.0):
                raise DomainError(f"support value {v!r} outside (0, 1)")
        for i in range(len(sup) - 1):
            if sup[i] == sup[i + 1]:
                raise DomainError(f"duplicate support value {sup[i]!r}")
        for w in wts:
            if not (w > 0.0):
                raise DomainError(f"weight {w!r} is not positive")
        total = sum(wts)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", wts)

    @cached_property
    def support_array(self) -> np.ndarray:
        return np.asarray(self.support, dtype=np.float64)

    @cached_property
    def weights_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)

    @cached_property
    def rhos(self) -> np.ndarray:
        """Odds against a right step, ``(1 - omega) / omega``, per support value."""
        s = self.support_array
        return (1.0 - s) / s

    @property
    def omega_min(self) -> float:
        return self.support[0]

    @property
    def alpha(self) -> float:
        """Weight carried by the minimal support value."""
        return self.weights[0]

    @property
    def eta(self) -> float:
        """Gap between the two smallest support values (0 for a point mass)."""
        if len(self.support) < 2:
            return 0.0
        return self.support[1] - self.support[0]

    @cached_property
    def mean_rho(self) -> float:
        return float(np.dot(self.weights_array, self.rhos))

    @cached_property
    def mean_log_rho(self) -> float:
        return float(np.dot(self.weights_array, np.log(self.rhos)))

    @property
    def rho_max(self) -> float:
        """Largest odds value, attained at the minimal support value."""
        return (1.0 - self.omega_min) / self.omega_min

    def canonical_id(self) -> str:
        """Stable short hash of the (support, weights) pairs."""
        text = ";".join(
            f"{v:.17g},{w:.17g}" for v, w in zip(self.support, self.weights)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


class Regime(str, Enum):
    NESTLING = "Nestling"
    MARGINALLY_NESTLING = "MarginallyNestling"
    NON_NESTLING = "NonNestling"
    NOT_TRANSIENT = "NotTransient"


@dataclass(frozen=True)
class RegimeClass:
    """Regime tag with the derived quantities the tag's analysis uses.

    ``alpha`` is always the weight at the minimal support value, even for
    regimes whose theory does not use it.  ``eta`` is the support gap above
    the minimum for the non-nestling regime and 0 otherwise.  ``detail`` is
    ``None`` for supported cases; a single-point support at a value above
    1/2 is tagged non-nestling but carries a not-supported detail, because
    a deterministic environment sits outside the assumptions the
    non-nestling results need (``alpha`` must lie strictly inside (0, 1)).
    """

    tag: Regime
    alpha: float
    eta: float
    detail: str | None = None

    @property
    def supported(self) -> bool:
        return self.detail is None


def classify(dist: SiteDistribution) -> RegimeClass:
    """Classify a site distribution into its transience regime.

    Returns
    -------
    RegimeClass
        ``NotTransient`` when the mean log-odds is >= 0 (within 1e-12 of
        the boundary counts as not transient); otherwise ``Nestling`` when
        some support lies below 1/2, ``MarginallyNestling`` when the
        minimal support value equals 1/2 exactly, and ``NonNestling`` when
        all support lies above 1/2.
    """
    alpha = dist.alpha
    if dist.mean_log_rho >= -_TRANSIENCE_TOL:
        return RegimeClass(Regime.NOT_TRANSIENT, alpha, 0.0)
    if dist.omega_min < 0.5:
        return RegimeClass(Regime.NESTLING, alpha, 0.0)
    if dist.omega_min == 0.5:
        # alpha < 1 here: a point mass at 1/2 is caught by the transience
        # test above, so the marginally nestling tag always has alpha in (0,1).
        return RegimeClass(Regime.MARGINALLY_NESTLING, alpha, 0.0)
    detail = None
    if len(dist.support) == 1:
        detail = "NotSupported: alpha = 1 (single-point support above 1/2)"
    return RegimeClass(Regime.NON_NESTLING, alpha, dist.eta, detail)


def _log_mean_rho_pow(dist: SiteDistribution, kappa: float) -> float:
    """log E[rho^kappa], evaluated in the log domain to avoid overflow."""
    terms = np.log(dist.weights_array) + kappa * np.log(dist.rhos)
    return float(np.logaddexp.reduce(terms))


def solve_kappa(dist: SiteDistribution) -> float:
    """Positive root of ``E[rho^kappa] = 1`` for a nestling distribution.

    The map ``kappa -> E[rho^kappa]`` equals 1 at zero, has negative slope
    there (the mean log-odds), is convex, and diverges, so the positive
    root exists and is unique exactly in the nestling regime.  The root is
    bracketed by doubling and then bisected, until ``|E[rho^kappa] - 1|``
    is at most 1e-12; no derivative information is used.

    Raises
    ------
    RegimeError
        If the distribution is not nestling.
    """
    regime = classify(dist)
    if regime.tag is not Regime.NESTLING:
        raise RegimeError(
            f"kappa is defined only in the nestling regime, got {regime.tag.value}"
        )
    lo, hi = 0.0, 1.0
    while _log_mean_rho_pow(dist, hi) <= 0.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e9:  # pragma: no cover - unreachable for valid input
            raise DomainError("failed to bracket the root of E[rho^kappa] = 1")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g = _log_mean_rho_pow(dist, mid)
        if g > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi and abs(np.expm1(g)) <= _KAPPA_TOL:
            break
    if abs(np.expm1(_log_mean_rho_pow(dist, mid))) > _KAPPA_TOL:  # pragma: no cover
        raise DomainError("bisection failed to meet the requested tolerance")
    return mid


def speed(dist: SiteDistribution) -> float:
    """Asymptotic velocity of the walk, ``(1 - E[rho]) / (1 + E[rho])``.

    The formula applies to any transient-to-the-right distribution; the
    velocity is zero whenever ``E[rho] >= 1`` (equivalently, whenever the
    nestling exponent is at most 1).

    Raises
    ------
    RegimeError
        If the distribution is not transient to the right.
    """
    if dist.mean_log_rho >= -_TRANSIENCE_TOL:
        raise RegimeError("speed requires transience to the right (E[log rho] < 0)")
    m = dist.mean_rho
    if m >= 1.0:
        return 0.0
    return (1.0 - m) / (1.0 + m)


def rate_I0(dist: SiteDistribution) -> float:
    """Quenched decay rate of the return probability per pair of steps.

    For a non-nestling distribution the rate at zero velocity is
    ``-0.5 * log(4 * omega_min * (1 - omega_min))``, which is strictly
    positive.  Nestling and marginally nestling distributions return 0:
    their return probabilities decay subexponentially, so the exponential
    rate vanishes.

    Raises
    ------
    RegimeError
        If the distribution is not transient to the right.
    """
    regime = classify(dist)
    if regime.tag is Regime.NOT_TRANSIENT:
        raise RegimeError("rate is defined for transient distributions only")
    if regime.tag is not Regime.NON_NESTLING:
        return 0.0
    w = dist.omega_min
    return -0.5 * float(np.log(4.0 * w * (1.0 - w)))


def annealed_backtrack_bound(dist: SiteDistribution, x: int) -> float:
    """Upper bound on the annealed probability of ever backtracking x sites.

    ``min(1, E[rho]^x / (1 - E[rho]))``, valid whenever ``E[rho] < 1``.

    Raises
    ------
    RegimeError
        If ``E[rho] >= 1`` (the geometric-series bound degenerates).
    """
    if x < 0:
        raise DomainError("backtrack distance must be nonnegative")
    m = dist.mean_rho
    if m >= 1.0:
        raise RegimeError("bound requires E[rho] < 1")
    return min(1.0, m**x / (1.0 - m))


@dataclass(frozen=True, eq=False)
class Environment:
    """A realized window of right-step probabilities on the lattice.

    ``omegas[i]`` is the right-step probability at site ``offset + i``.
    Operations never extend the window silently: every read goes through
    :meth:`slice`, so a site outside the window, read by a single-site
    query or by a computation, raises :class:`WindowTooSmallError`.  Each
    computation reads, and so requires, exactly the sites it uses.

    ``dist`` records the law the window was sampled from, when known; it
    supplies distribution-level quantities (minimal support value, support
    gap) that must never be estimated from the realized window itself.
    """

    offset: int
    omegas: np.ndarray
    dist: SiteDistribution | None = None

    def __post_init__(self):
        om = np.ascontiguousarray(self.omegas, dtype=np.float64)
        if om.ndim != 1 or om.size == 0:
            raise DomainError("omegas must be a nonempty 1-D array")
        if not np.all((om >= 0.0) & (om <= 1.0)):  # nan too
            raise DomainError("omega values must lie in [0, 1]")
        object.__setattr__(self, "omegas", om)
        object.__setattr__(self, "offset", _check_site("offset", self.offset))

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.omegas.size - 1

    @property
    def omega_min(self) -> float:
        """Minimal support value of the source law.

        Falls back to the window minimum for explicitly constructed
        environments; callers that need the law-level value should attach
        ``dist``.
        """
        if self.dist is not None:
            return self.dist.omega_min
        return float(self.omegas.min())

    def omega(self, x: int) -> float:
        """Right-step probability at site x."""
        x = _check_site("x", x)
        return float(self.slice(x, x)[0])

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """Contiguous omega values for sites ``lo..hi`` inclusive (a view).

        The window check of every read: raises :class:`WindowTooSmallError`
        unless the window covers ``[lo, hi]``.
        """
        lo, hi = _check_site("lo", lo), _check_site("hi", hi)
        if lo > hi:
            raise DomainError(f"empty site range [{lo}, {hi}]")
        if lo < self.lo or hi > self.hi:
            raise WindowTooSmallError(
                f"window [{self.lo}, {self.hi}] does not cover [{lo}, {hi}]"
            )
        i = lo - self.offset
        return self.omegas[i : i + (hi - lo + 1)]

    def reflect_plus(self) -> "Environment":
        """Copy with a hard right reflection at the origin (``omega_0 = 1``)."""
        env = Environment(self.offset, self.omegas.copy(), self.dist)
        env.slice(0, 0)[0] = 1.0
        return env

    def shift(self, x: int) -> "Environment":
        """Environment as seen from site x: the shifted window queries
        ``y -> omega_{x+y}``.  Shares the underlying array."""
        return Environment(self.offset - _check_site("x", x), self.omegas, self.dist)


def _check_site(name: str, x: int) -> int:
    """``x`` as a site index or a count: an integer (not a bool), numpy
    integers too."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise DomainError(f"{name} must be an integer site, got {x!r}")


def _check_window_size(count: int) -> None:
    """Raise :class:`MemoryError` for a float64 array of ``count`` entries
    beyond the address space, which numpy would reject with a
    ``ValueError`` instead."""
    if count > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"cannot allocate {count} float64 values for a window")


def _check_seed(seed: int) -> int:
    """The Philox key for ``seed``: an integer (not a bool) in ``[0, 2^64)``."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        if 0 <= int(seed) < 2**64:
            return int(seed)
    raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def _philox_uniforms(key: int, block: int, count: int) -> np.ndarray:
    """``Generator(bitgen).random(count)`` for ``bitgen = Philox(key=key)``
    after ``bitgen.advance(block)``, computed with plain uint64 arithmetic.

    Block ``i`` is Philox4x64-10 of the counter ``block + 1 + i`` (numpy
    increments the counter before it generates) under the key
    ``(key, 0)``, and yields four words; each word ``x`` becomes the double
    ``(x >> 11) * 2**-53``, as numpy's ``next_double``.  Every counter must
    fit the low 64-bit word: ``block + ceil(count / 4) < 2**64``.
    """
    blocks = -(-count // 4)
    ctr = np.zeros((4, blocks), dtype=np.uint64)
    ctr[0] = np.uint64(block + 1) + np.arange(blocks, dtype=np.uint64)
    k = np.array([key, 0], dtype=np.uint64)
    for r in range(10):
        if r:
            k += _PHILOX_W
        # 64x64 -> 128-bit products of words 0 and 2 by their multipliers,
        # from four 32-bit partial products each.
        x = ctr[0::2]
        x_lo, x_hi = x & _LOW32, x >> _U32
        ll, lh = x_lo * _PHILOX_M_LO, x_lo * _PHILOX_M_HI
        hl, hh = x_hi * _PHILOX_M_LO, x_hi * _PHILOX_M_HI
        t = lh + (ll >> _U32)
        u = hl + (t & _LOW32)
        hi = hh + (t >> _U32) + (u >> _U32)
        lo = x * _PHILOX_M
        ctr = np.stack([hi[1] ^ ctr[1] ^ k[0], lo[1], hi[0] ^ ctr[3] ^ k[1], lo[0]])
    words = ctr.T.reshape(-1)[:count]
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def sample_environment(
    dist: SiteDistribution, seed: int, lo: int, hi: int
) -> Environment:
    """Draw the environment window ``lo..hi`` for the given seed.

    The value at site x is a pure function of ``(seed, x, dist)``: a
    counter-based generator is advanced to the draw position assigned to
    x, so overlapping or extended windows for the same seed agree site by
    site.  The generator is numpy's Philox4x64-10 stream keyed by
    ``seed``.  Windows of at most 2**14 draws whose counters stay in the
    low 64-bit word compute that stream in-package, bit for bit, which
    spares the import of ``numpy.random`` (numpy >= 2.0 loads it lazily);
    larger windows use ``np.random.Philox`` itself.

    Parameters
    ----------
    dist : SiteDistribution
    seed : int
        Unsigned 64-bit stream key.
    lo, hi : int
        Inclusive site range; ``lo <= hi`` required.
    """
    lo, hi = _check_site("lo", lo), _check_site("hi", hi)
    if lo > hi:
        raise DomainError(f"empty site range [{lo}, {hi}]")
    seed = _check_seed(seed)
    base = lo + _SITE_STREAM_OFFSET
    if base < 0:
        raise DomainError(f"site index {lo} below supported range")
    # Philox emits 4 draws per counter block; advance whole blocks and
    # discard the in-block remainder so position base+i maps to site lo+i.
    blocks, rem = divmod(base, 4)
    draws = rem + (hi - lo + 1)
    _check_window_size(draws)
    if draws <= _INLINE_DRAWS_MAX and blocks + -(-draws // 4) < 2**64:
        uniforms = _philox_uniforms(seed, blocks, draws)[rem:]
    else:
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(blocks)
        uniforms = np.random.Generator(bitgen).random(draws)[rem:]
    cumw = np.cumsum(dist.weights_array)
    cumw[-1] = 1.0  # guard against rounding in the final edge
    idx = np.searchsorted(cumw, uniforms, side="right")
    omegas = dist.support_array[idx]
    return Environment(lo, omegas, dist)


def _require_mn_source(law: SiteDistribution | None) -> SiteDistribution:
    if law is None:
        raise RegimeError("mn_transform needs the source distribution")
    regime = classify(law)
    if regime.tag is not Regime.NON_NESTLING:
        raise RegimeError(
            f"mn_transform requires a non-nestling law, got {regime.tag.value}"
        )
    if not regime.supported:
        raise RegimeError(regime.detail)
    return law


def mn_transform_law(dist: SiteDistribution) -> SiteDistribution:
    """Site law after the ``omega -> rho_max / (rho + rho_max)`` remap.

    The minimal support value lands exactly on 1/2 and keeps its weight,
    so the result is marginally nestling whenever the source is a
    supported non-nestling law (the only accepted input).
    """
    law = _require_mn_source(dist)
    rho_max = law.rho_max
    new_support = tuple(
        float(rho_max / ((1.0 - v) / v + rho_max)) for v in law.support
    )
    return SiteDistribution(new_support, law.weights)


def mn_transform(
    env: Environment, dist: SiteDistribution | None = None
) -> Environment:
    """Map a non-nestling environment to a marginally nestling one.

    Each site is remapped through ``omega -> rho_max / (rho + rho_max)``
    where ``rho_max`` is the largest odds value of the source law.  Sites
    at the minimal support value land exactly on 1/2, so the transformed
    law is marginally nestling with the same weight there.

    Parameters
    ----------
    env : Environment
    dist : SiteDistribution, optional
        Source law; defaults to ``env.dist``.  Required because
        ``rho_max`` comes from the law's support, never from the window.

    Raises
    ------
    RegimeError
        If the law is missing, not non-nestling, or degenerate (a
        single-point support, for which the transform collapses to a
        deterministic fair walk).
    """
    law = _require_mn_source(dist if dist is not None else env.dist)
    rho_max = law.rho_max
    rho = (1.0 - env.omegas) / env.omegas
    new_om = rho_max / (rho + rho_max)
    return Environment(env.offset, new_om, mn_transform_law(law))
