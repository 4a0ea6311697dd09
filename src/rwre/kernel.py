"""Exact quenched probabilities via dynamic programming over site occupation.

All computations propagate occupation mass two steps at a time through
a fixed environment window (:func:`_propagate`); those that read only
a few of its states leap ``_LEAP`` two-steps per iteration.  Mass is stored
linearly but rescaled by an exact power of two whenever it drifts out of
comfortable floating-point range; the scale, an integer sum of exponents,
is folded back into every returned value with one rounding of its log, so
results are exact log probabilities down to extremely small magnitudes.
Within one iteration, though, a cell that falls more than about 1e-300
below the state's largest underflows to exactly 0, and
``log_discarded_bound`` does not count it.  With truncation off (bridges
below ``n = 4096`` by default) wide bridges do lose such cells: 19,990
forward-cone cells of the 129 states that the leaping ``n``-step pass
computes at ``n = 2048`` on a nestling law, holding at most about
``e**-675`` of the probability there.  At ``n >= 2**18`` whole far traps
are flushed, although their mass would later dominate, and neither
``log_discarded_bound`` nor ``certified`` counts them: on the nestling
law, seed 0, ``n = 2**20``, the bridge corridor ``M = 3259`` gives
-4830.39 where a log-domain recursion gives -4034.15.
A ``2n``-step bridge propagates only ``n`` steps of a symmetric walk
with the same bridge paths, and sums the squares of its masses
(:func:`_bridge_log`); one such pass serves every ``n`` of a grid that
shares its parity and truncation floor (:func:`_bridge_rows`).
A bridge corridor propagates that walk too, and a corridor that runs
many more steps than it has sites may take guarded binary powers of its
walk's transfer matrix instead (see :func:`confined_log_prob`), one
chain of squarings for every step count (:func:`_confined_rows`).

Step-count conventions: :func:`bridge_log_prob` and
:func:`max_disp_bridge_cdf` take the half length ``n`` of a ``2n``-step
bridge; :func:`confined_log_prob` and :func:`hitting_cdf` take a total
step count.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import Environment, _check_site
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

# Rescale the linear mass vector when its maximum leaves this band.  The
# bridge's symmetric walk does not preserve mass; a band this narrow keeps
# the 1e-300 truncation floor times the maximum a normal double, out of
# the slow subnormal range.
_RESCALE_LO = 1e-7
_RESCALE_HI = 1e7
_LN2 = math.log(2.0)

# Two-steps per iteration of a pass that needs only its final state, the
# smallest entry a leap's band may hold (a normal double even times the
# lower end of the rescale band), and the rows per block of the band,
# built on first use.
_LEAP = 8
_LEAP_FLOOR = np.finfo(float).tiny / _RESCALE_LO
_LEAP_BLOCK = 256

# Above this half length, bridge computations drop relatively negligible
# sites by default (see bridge_log_prob).
_AUTO_TRUNCATION_N = 4096
_AUTO_TRUNCATION_THRESHOLD = 1e-300


def _two_step(right: np.ndarray, left: np.ndarray, parity: int):
    """The two-step killing operator ``B`` on the sites ``parity,
    parity + 2, ...`` of a walk that steps from index ``i`` to ``i + 1``
    with weight ``right[i]`` and to ``i - 1`` with weight ``left[i]``, as
    ``(stay, from_left, from_right)``: entry ``j`` weighs the mass reaching
    site ``parity + 2j`` from itself and from the sites two to its left
    and right (0 off the arrays)."""
    w = right.size
    # two zero guard cells per side: index i of the weights is cell i + 2
    p = np.zeros(w + 4)
    p[2:-2] = right
    q = np.zeros(w + 4)
    q[2:-2] = left

    def at(x, shift):  # x at the sites parity + 2j + shift, as a view
        return x[parity + 2 + shift : w + 2 + shift : 2]

    return (
        at(p, 0) * at(q, 1) + at(q, 0) * at(p, -1),  # out and back
        at(p, -2) * at(p, -1),  # two steps right
        at(q, 2) * at(q, 1),  # two steps left
    )


def _propagate(
    right: np.ndarray,
    left: np.ndarray,
    start: int,
    stops: list[int],
    trunc: float = 0.0,
    leap: int = 1,
):
    """Propagate unit mass from index ``start`` by the step weights
    ``right`` and ``left`` (:func:`_two_step`; ``(om, 1 - om)`` for the
    walk itself), killing any mass that steps outside their index range,
    two steps at a time, to the last of the step counts ``stops`` that
    the caller reads.

    After ``k`` steps the mass sits on the indices of the parity of
    ``start + k``, so the stops must ascend by even counts (else
    ``ValueError``).  For ``steps`` the last stop, an odd ``steps`` first
    takes one plain step, then each iteration applies the two-step
    operator to the indices ``par, par + 2, ...``, ``par = (start +
    steps) % 2``: three contiguous multiplies and two adds over at most
    half the sites.  Yields ``(k, mass, log_scale, disc_log)`` for ``k =
    steps % 2, steps % 2 + 2, ..., steps``: the scaled linear mass, whose
    entry ``j`` is index ``par + 2j`` (index ``i`` is entry ``i // 2``),
    the log factor ``e log 2`` to add back (``e`` an integer, the sum of
    the exponents of the powers of two the mass was rescaled by), and a
    log-domain upper bound on all mass dropped by the relative floor
    ``trunc`` (``-inf`` when nothing was dropped).  The mass of state
    ``k`` leaving the range on step ``k + 1`` is ``left[0] * mass[0]`` on
    the left if ``par`` is 0 and ``right[-1] * mass[-1]`` on the right if
    ``right.size - 1`` has parity ``par``, times ``exp(log_scale)``.
    Stops early after yielding an all-zero state.  The yielded vector is
    overwritten later, so callers read it before advancing.

    Each iteration computes only a live window of entries and clears the
    window of the state it leaves behind, so every other entry is an
    exact zero.  The window grows by at most one entry per side (the
    forward cone), so without ``trunc`` every state is bit for bit the
    full-width two-step recursion's.  With ``trunc > 0``, the entries
    below ``trunc`` times the window's maximum are dropped from both ends
    of the window, each end up to its first entry at or above that floor,
    and their mass is added to the bound; entries inside are never
    dropped.

    A ``leap`` above 1 is for callers that read only the stops.  Before
    each stop the pass takes the plain two-steps that leave a whole
    number of leaps to it, then leaps: ``leap`` two-steps per iteration,
    one sum of products per entry over its band row of the two-step
    operator's ``leap``-th power (:class:`_Leap`, by ``np.einsum``, never
    BLAS), the window growing by up to ``leap`` entries per side.  Only
    the states on this schedule are yielded, truncated and rescaled, and
    an all-zero state comes after the leap in which the mass ran out.  A
    leap rounds differently from the two-steps it replaces, so its states
    agree with theirs to rounding.  A stop's state is bit for bit that of
    its own one-stop pass when it lies below ``2 leap`` (plain two-steps
    in both), or when both take the same leap and every stop up to it
    shares its residue mod ``2 leap``.  A pass too short for a whole leap
    takes none; else the leap is shortened, down to the plain two-step
    core, to the longest whose band entries all stay normal doubles: for
    ``b`` the smallest positive two-step weight, ``b**leap`` must stay at
    or above ``_LEAP_FLOOR``.
    """
    if any(b <= a or (b - a) % 2 for a, b in zip(stops, stops[1:])):
        raise ValueError(f"stops {stops} do not ascend by even counts")
    steps = stops[-1]
    par = (start + steps) % 2
    stay, from_left, from_right = _two_step(right, left, par)
    h = stay.size
    if steps // 2 < leap:
        leap = 1
    elif leap > 1:
        least = min(x.min(where=x > 0.0, initial=np.inf) for x in (stay, from_left, from_right))
        while leap > 1 and least**leap < _LEAP_FLOOR:
            leap -= 1
    # Buffers carry ``leap`` zero guard cells per side: entry j is buffer
    # cell j + leap, and the guards' zero mass keeps the edges exact.
    g = leap
    mass, new, tmp = np.zeros(h + 2 * g), np.zeros(h + 2 * g), np.empty(h)
    if leap > 1:
        jump = _Leap(stay, from_left, from_right, leap)
    k = steps % 2
    # unit mass at start, or one plain step on from it
    first = [(start - 1, left[start]), (start + 1, right[start])] if k else [(start, 1.0)]
    cells = [(i // 2, v) for i, v in first if 0 <= i < right.size]
    for j, v in cells:
        mass[j + g] = v
    lo, hi = (cells[0][0], cells[-1][0]) if cells else (0, -1)
    a, live = lo, mass[lo + g : hi + g + 1]
    scale, disc_log = 0, -np.inf  # mass is scaled by 2**-scale
    targets = iter(stops)
    stop = next(targets)
    while True:
        m = live.max(initial=0.0)
        if m == 0.0:
            # everything was killed; later states stay empty
            yield k, mass[g:-g], scale * _LN2, disc_log
            return
        if trunc > 0.0:
            # drop each tail up to its first cell at or above the floor;
            # the maximum is above it, so both scans stop inside the window
            floor = m * trunc
            dropped = 0.0
            while live[lo - a] < floor:
                dropped += live[lo - a]
                lo += 1
            while live[hi - a] < floor:
                dropped += live[hi - a]
                hi -= 1
            if dropped > 0.0:
                disc_log = float(np.logaddexp(disc_log, math.log(dropped) + scale * _LN2))
            live[: lo - a] = 0.0
            live[hi - a + 1 :] = 0.0
            live = live[lo - a : hi - a + 1]
        if m < _RESCALE_LO or m > _RESCALE_HI:
            e = math.frexp(m)[1]
            np.ldexp(live, -e, out=live)
            scale += e
        yield k, mass[g:-g], scale * _LN2, disc_log
        if k == stop:
            stop = next(targets, None)
            if stop is None:
                return
        # a full leap once the plain two-steps leave whole leaps to the stop
        span = leap if (stop - k) // 2 % leap == 0 else 1
        k += 2 * span
        a, b = max(lo - span, 0), min(hi + span, h - 1)
        live = new[a + g : b + g + 1]
        if span > 1:
            jump(mass, a, b, live)
        else:
            part = tmp[: b - a + 1]
            np.multiply(mass[a + g : b + g + 1], stay[a : b + 1], out=live)
            np.multiply(mass[a + g - 1 : b + g], from_left[a : b + 1], out=part)
            live += part
            np.multiply(mass[a + g + 1 : b + g + 2], from_right[a : b + 1], out=part)
            live += part
        mass[lo + g : hi + g + 1] = 0.0  # the state left behind; new is all 0
        mass, new = new, mass
        lo, hi = a, b


class _Leap:
    """``m`` two-steps at once, by the ``(2m + 1)``-band of the two-step
    operator's ``m``-th power (:func:`_leap_band`), built block by block
    for the rows that the leaps reach."""

    def __init__(self, stay, from_left, from_right, m: int):
        self.m = m
        self.weights = stay, from_left, from_right
        self.coeff = np.empty((stay.size, 2 * m + 1))
        self.built = (0, 0)  # blocks [first, last) hold their rows
        self.views = {}

    def __call__(self, mass: np.ndarray, a: int, b: int, out: np.ndarray) -> None:
        """Entries ``a .. b`` of the state ``m`` two-steps on from
        ``mass``, a buffer with ``m`` zero guard cells per side, into
        ``out``: one sum of products per entry over its band row."""
        view = self.views.get(id(mass))
        if view is None:  # row i is entries i - m .. i + m of the buffer
            width = 2 * self.m + 1
            view = np.lib.stride_tricks.as_strided(
                mass, (mass.size - width + 1, width), mass.strides * 2, writeable=False
            )
            self.views[id(mass)] = view
        np.einsum("ij,ij->i", view[a : b + 1], self._rows(a, b), out=out)

    def _rows(self, a: int, b: int) -> np.ndarray:
        """Band rows ``a .. b``, building the blocks that hold them."""
        first, last = self.built
        lo, hi = a // _LEAP_BLOCK, b // _LEAP_BLOCK + 1
        if first > lo or hi > last:
            if first == last:
                first = last = lo
            for blk in [*range(lo, first), *range(last, hi)]:
                i = blk * _LEAP_BLOCK
                j = min(i + _LEAP_BLOCK, self.coeff.shape[0])
                self.coeff[i:j] = _leap_band(*self.weights, i, j, self.m)
            self.built = (min(first, lo), max(last, hi))
        return self.coeff[a : b + 1]


def _leap_band(stay, from_left, from_right, i: int, j: int, m: int) -> np.ndarray:
    """Rows ``i .. j - 1`` of ``B^m`` for the two-step operator ``B``
    (:func:`_two_step`) as a band: entry ``(r, t)`` weighs the mass
    reaching entry ``i + r`` from entry ``i + r - m + t``, and rows off
    the operator read 0.  Composed as ``B^(s + 1) = B B^s``: each power's
    row draws on the rows of the last power one to either side."""
    # rows lo .. hi - 1 of B, one row of ``band`` per offset from -1 to 1
    lo, hi = i - m + 1, j + m - 1
    a, b = max(lo, 0), min(hi, stay.size)
    band = np.zeros((3, hi - lo))
    band[:, a - lo : b - lo] = from_left[a:b], stay[a:b], from_right[a:b]
    fl, s, fr = band
    for r in range(1, m):
        rows = slice(r, s.size - r)
        nxt = np.zeros((2 * r + 3, s.size - 2 * r))
        np.multiply(band[:, 1:-1], s[rows], out=nxt[1:-1])
        nxt[:-2] += band[:, :-2] * fl[rows]
        nxt[2:] += band[:, 2:] * fr[rows]
        band = nxt
    return band.T


def _final_log(mass: np.ndarray, scale: float, power: int = 1) -> float:
    """``log sum(mass**power) + power * scale`` for a final state ``(mass,
    scale)``: its log total (``power`` 1) or its log squared 2-norm (2)."""
    total = float(np.sum(mass**power))
    return -np.inf if total == 0.0 else float(np.log(total)) + power * scale


def _symmetric(right: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step weights ``(up, down)`` of the symmetric walk that crosses
    each edge ``(x, x + 1)`` of ``right`` and ``left`` either way with
    weight ``sqrt(right[x] left[x + 1])``, killed on leaving them: two
    views of one buffer ``0, s, 0``."""
    s = np.zeros(right.size + 1)
    np.sqrt(np.multiply(right[:-1], left[1:], out=s[1:-1]), out=s[1:-1])
    return s[1:], s[:-1]


def _bridge_log(
    right: np.ndarray, left: np.ndarray, ns: list[int], trunc: float
) -> list[tuple[float, float]]:
    """``(log P, disc_log)`` for each half length ``n`` of the ascending
    ``ns``, for ``P`` the total weight of the ``2n``-step paths from the
    centre of the step weights ``right`` and ``left`` (:func:`_two_step`)
    back to it, killed on leaving them, and ``disc_log`` a log upper bound
    on the part of ``P`` lost to the truncation floor ``trunc`` (``-inf``
    when nothing was dropped).  For the walk itself, ``(om, 1 - om)``,
    ``P`` is the probability of that return.

    A path back to the centre crosses each edge ``(x, x + 1)`` as often
    rightwards as leftwards, so it has the same weight under the
    symmetric walk ``K~`` that steps across that edge either way with
    weight ``s[x] = sqrt(right[x] left[x + 1])`` (:func:`_symmetric`).
    Hence ``P = K~^2n(0, 0) = sum_x K~^n(0, x)**2``, the squared masses
    after ``n`` steps of one :func:`_propagate` of ``K~``.  An edge with
    weight 0 one way gets ``s = 0`` both ways, so no weight is needed
    anywhere and every environment is covered.

    The bound holds for the walk's own weights only.  Their ``K~`` is
    symmetric, and between two such edges it is ``D^1/2 K D^-1/2`` for
    the killed walk ``K`` and its reversible measure ``D``, so ``||K~||_2
    = rho(K) <= 1``: mass ``d`` dropped at any step moves the final
    masses by at most ``d`` in the 2-norm.  With ``m~ <= m``
    the truncated masses, ``P - P~ = sum (m - m~)(m + m~) <= ||m - m~||
    2 ||m|| <= 2 sqrt(P) d`` for ``d`` the mass the pass dropped.  Solved
    for ``sqrt(P)``, this gives ``sqrt(P) <= d + sqrt(d^2 + P~)``, so the
    bound is ``2 d (d + sqrt(d^2 + P~))``, taken in the log domain, or
    ``2 d`` (``sqrt(P) <= 1``) where that is smaller.

    One :func:`_propagate` pass to the largest ``n``, every ``n`` a stop,
    serves all ``n`` of one parity, since the state after ``k`` steps does
    not depend on how many steps follow.  At each ``k`` below the largest,
    the squares of the cone entries ``|x| <= k`` are summed, the entries
    and the order of a ``k``-step pass over those sites; at the largest,
    the whole state.  So a row is bit for bit a one-``n`` call's where
    the pass reaches its stop as that call does (the ``n`` share ``n``
    mod ``2 _LEAP`` and the leap, or ``n < 2 _LEAP``), else equal to it
    to rounding.  Where the mass runs out before some ``n``, that ``n``
    reads ``-inf``, as its own pass would.  Results agree with the
    two-step recursion to rounding.
    """
    up, down = _symmetric(right, left)
    start, top = right.size // 2, ns[-1]

    def row(k, mass, scale, disc_log):
        cone = slice(max(start - k, 0) // 2, (start + k) // 2 + 1) if k < top else slice(None)
        log_p = _final_log(mass[cone], scale, 2)
        log_root = np.logaddexp(disc_log, 0.5 * np.logaddexp(2.0 * disc_log, log_p))
        return log_p, float(_LN2 + disc_log + min(log_root, 0.0))

    rows = []
    for state in _propagate(up, down, start, ns, trunc, leap=_LEAP):
        if state[0] in ns:
            rows.append(row(*state))
    if len(rows) < len(ns):  # the mass ran out, as in each later stop's own pass
        rows += [row(*state)] * (len(ns) - len(rows))
    return rows


def _bridge_rows(
    env: Environment, ns: list[int], truncation: float | None
) -> list[tuple[float, float]]:
    """``bridge_log_prob(env, n, truncation, with_error_bound=True)`` for
    each ``n`` of the ascending ``ns``, from one :func:`_bridge_log` pass
    over ``[-n, n]`` for the largest ``n`` of each truncation floor and
    parity: bit for bit where that group's ``n`` share ``n`` mod 16 and
    one leap length (:func:`_propagate`), else to rounding."""
    groups: dict[tuple, list[int]] = {}
    for n in ns:
        trunc = truncation
        if trunc is None:
            trunc = _AUTO_TRUNCATION_THRESHOLD if n >= _AUTO_TRUNCATION_N else 0.0
        groups.setdefault((trunc, n % 2), []).append(n)
    rows = {}
    for (trunc, _), group in groups.items():
        om = env.slice(-group[-1], group[-1])
        rows.update(zip(group, _bridge_log(om, 1.0 - om, group, trunc)))
    return [rows[n] for n in ns]


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
        Window must cover ``[-n, n]``, the sites a bridge can reach (the
        origin when ``n = 0``).
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
        second element bounds from above the log of all probability
        unaccounted for by truncation (``-inf`` when nothing was dropped):
        ``log(2 d min(1, d + sqrt(d^2 + P~)))`` for ``d`` the mass
        dropped from the ``n``-step pass and ``P~ = exp(log_prob)``.  The
        true probability ``P`` then satisfies
        ``exp(log_prob) <= P <= exp(log_prob) + exp(log_discarded_bound)``.

    Notes
    -----
    A bridge crosses each edge as often rightwards as leftwards, so every
    bridge path has the same probability under the symmetric walk that
    crosses the edge ``(x, x + 1)`` either way with weight ``sqrt(omega_x
    (1 - omega_{x+1}))``, and ``P = sum_x Q(X_n = x)**2`` for that walk
    ``Q``: only ``n`` steps are propagated, over the forward cone ``|x|
    <= k``, cut further to the support left by truncation.  The symmetric
    walk's operator has 2-norm at most 1, so mass ``d`` dropped from that
    pass costs ``P`` at most ``2 sqrt(P) d``; solving that for ``P`` gives
    the bound above, which shrinks with ``P`` as well as with ``d``.
    An edge that the walk crosses one way only (``omega`` 0 or 1 at one
    of its ends) gets weight 0, so the identity holds in every
    environment.

    This is the one-``n`` call of the passes that ``bridge-prob`` and
    ``scaling`` run per seed for a whole grid of ``n``, one per
    truncation floor and parity (``kernel._bridge_rows``); a grid row
    equals this call's result bit for bit where the grid's ``n`` share
    ``n`` mod 16, and to rounding otherwise.
    """
    n = _check_site("n", n)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if truncation is not None and not 0.0 <= truncation < 1.0:
        raise DomainError("truncation must lie in [0, 1)")
    row = _bridge_rows(env, [n], truncation)[0]
    return row if with_error_bound else row[0]


def confined_log_prob(
    env: Environment, steps: int, M: int, require_bridge: bool = False
) -> float:
    """Log probability that ``max |X_k|`` over ``k <= steps`` stays below M.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-(M - 1), M - 1]``, the sites inside the strip.
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
    A plain corridor propagates ``k = steps`` steps of the walk; a bridge
    corridor ``k = steps / 2`` steps of the symmetric walk, and sums the
    squared masses, as :func:`bridge_log_prob` does.  A corridor usually
    runs far more steps than its ``2M - 1`` sites: where a cost model
    predicts it pays, the ``k`` steps come from binary powering of the
    two-step transfer matrix (about ``M^3 log2(k)`` work instead of ``k
    M``), with no BLAS call, else from a DP that leaps several two-steps
    per iteration (``_propagate``).  A guard falls back to the DP, and
    its exact bits, whenever an entry the result needs could leave the
    normal double range, as the drift of ``omega = 0.99`` does in a plain
    corridor.  Both agree to about 1e-13 relative in the log; the
    a-priori bound of squaring is about ``k (2M - 1) 2**-53`` relative.
    """
    steps, M = _check_site("steps", steps), _check_site("M", M)
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if M < 1:
        raise DomainError("M must be at least 1")
    if require_bridge and steps % 2 != 0:
        raise ParityError(f"bridge event needs an even step count, got {steps}")
    return _confined_rows(env.slice(-(M - 1), M - 1), [steps], require_bridge)[0]


def _confined_rows(om: np.ndarray, steps: list[int], bridge: bool) -> list[float]:
    """Log mass that survives ``s`` killing steps from the centre of
    ``om`` (only the mass back at the centre when ``bridge``), for each
    count ``s`` of ``steps``.

    A plain corridor propagates ``k = s`` steps of the walk ``(om, 1 -
    om)`` and sums the final mass; a bridge corridor ``k = s / 2`` steps
    of its symmetric walk (:func:`_symmetric`) and sums the squares, as
    :func:`_bridge_log` does.  The ``k`` that the cost model prefers share
    one squaring chain (:func:`_squared_log`); the rest, and those whose
    guard trips, run the DP one at a time.  Each entry has the same bits
    whatever other counts share the call.
    """
    right, left = _symmetric(om, 1.0 - om) if bridge else (om, 1.0 - om)
    power = 2 if bridge else 1
    ks = sorted({s // power for s in steps})
    chosen = [k for k in ks if _prefers_squaring(om.size, k)]
    finals = dict(zip(chosen, _squared_log(right, left, chosen)))
    for k in ks:
        if finals.get(k) is None:
            for _, mass, scale, _ in _propagate(right, left, om.size // 2, [k], leap=_LEAP):
                pass
            finals[k] = mass, scale
    return [_final_log(*finals[s // power], power) for s in steps]


def _prefers_squaring(w: int, k: int) -> bool:
    """Whether squaring is predicted to beat the DP for ``k`` steps over ``w`` sites.

    Seconds per call on a 2-vCPU x86-64 host (numpy 2.4), fitted to
    alternating timings of both paths on every corridor that the
    ``maxdisp_probe`` and ``corridor_long`` benchmarks probe and on a grid
    of 15-1023 sites by 512-32768 steps.  The DP takes ``k / 2``
    two-steps, ``_LEAP`` at a time, and costs about ``2e-4 + 1e-6 h +
    (k / 2 / _LEAP) (7e-6 + 1.2e-8 h)``: the set-up, the band rows, and
    one leap over the ``h = (w + 1) / 2`` sites of one parity.  Squaring
    costs about ``1.3e-5 + 3.5e-10 h^3`` per bit of ``k // 2``, one matrix
    product plus the vector's.
    """
    if w < 3 or k < 2:
        return False
    h = (w + 1) // 2
    bits, leaps = (k // 2).bit_length(), k // 2 / _LEAP
    return bits * (1.3e-5 + 3.5e-10 * h**3) < 2e-4 + 1e-6 * h + leaps * (7e-6 + 1.2e-8 * h)


# Every entry of a squaring operand that the reach pattern says is positive
# must stay at or above this floor once the operand's maximum is scaled
# into [1/2, 1): every product term is then a normal double.
_SQUARING_FLOOR = 2.0**-500


def _rescaled(x: np.ndarray, positive: int) -> int | None:
    """Scale ``x`` by ``2**-e``, its maximum into [1/2, 1), and return
    ``e``, or ``None`` unless ``positive`` entries stay at or above the floor."""
    top = x.max()
    if not top > 0.0:
        return None
    e = math.frexp(top)[1]
    np.ldexp(x, -e, out=x)
    if np.count_nonzero(x >= _SQUARING_FLOOR) != positive:
        return None
    return e


def _band_size(h: int, reach: int) -> int:
    """Entries ``(i, l)`` of an ``h x h`` matrix with ``|i - l| <= reach``."""
    r = min(reach, h - 1)
    return h + r * (2 * h - r - 1)


def _squared_log(right: np.ndarray, left: np.ndarray, ks: list[int]) -> list:
    """The final state ``(mass, log_scale)`` of the :func:`_propagate` of
    ``k`` steps from the centre of the ``w >= 3`` step weights ``right``
    and ``left``, for each count ``k`` of ``ks``, by binary powering of a
    transfer matrix, or ``None`` where its guard trips.

    That is one plain step when ``k`` is odd, then ``k // 2`` products
    with the tridiagonal two-step matrix ``B`` (:func:`_two_step`) on the
    ``h`` sites of the final parity.  ``B^r`` can be positive only on
    ``|i - l| <= r``, and the vector after ``j`` two-steps only within
    ``j`` of its first support; every other entry is an exact zero.  After
    each product every operand is multiplied by the power of two that
    puts its maximum in [1/2, 1), which rounds nothing, with the exponents
    summed as integers, and all the entries its pattern allows must stay
    at or above ``_SQUARING_FLOOR`` (all are positive when every weight
    is), so the guard counts them against the pattern's size.  Products go
    through ``np.einsum`` without ``optimize``, never BLAS, so the bits do
    not depend on the BLAS build or its thread count.

    The counts of one parity share ``B`` and the start vector, so one
    chain ``B, B^2, B^4, ...`` serves them all, squared only as far as the
    longest ``k // 2`` needs.  Each count multiplies its own vector by the
    powers of its set bits in increasing order, the products and rescales
    that a one-count call makes, so each state equals that call's bit for
    bit.  ``None`` is a trip on the first ``B`` or start vector (every
    count of the parity), on ``B^(2^j)`` (the counts with more than ``j``
    bits in ``k // 2``) or on one count's own vector.
    """
    finals = {}
    start = right.size // 2
    for odd in (0, 1):
        todo = [k for k in ks if k % 2 == odd]
        if not todo:
            continue
        parity = (start + odd) % 2
        stay, from_left, from_right = _two_step(right, left, parity)
        h = stay.size
        a = np.diag(stay) + np.diag(from_left[1:], 1) + np.diag(from_right[:-1], -1)
        v = np.zeros(h)
        if odd:  # one plain step first, onto start - 1 and start + 1
            lo = (start - 1 - parity) // 2
            hi = lo + 1
            v[lo], v[hi] = left[start], right[start]
        else:
            lo = hi = (start - parity) // 2
            v[lo] = 1.0
        scale = _rescaled(v, hi - lo + 1)
        a_log = _rescaled(a, _band_size(h, 1))
        if scale is None or a_log is None:
            finals.update(dict.fromkeys(todo))
            continue
        # a = B^reach / 2**a_log, reach a power of two; each count's vector
        # holds j two-steps and is scaled by 2**-e
        live = [(k, k // 2, v, scale, 0) for k in todo]
        reach = 1
        while True:
            going = []
            for k, m, u, e, j in live:
                if m & reach:
                    u = np.einsum("j,jk->k", u, a)
                    j += reach
                    u_log = _rescaled(u, min(hi + j, h - 1) - max(lo - j, 0) + 1)
                    if u_log is None:
                        finals[k] = None
                        continue
                    e += a_log + u_log
                if m < 2 * reach:
                    finals[k] = u, e * _LN2
                else:
                    going.append((k, m, u, e, j))
            live = going
            if not live:
                break
            a = np.einsum("ij,jk->ik", a, a)
            reach *= 2
            sq_log = _rescaled(a, _band_size(h, reach))
            if sq_log is None:
                finals.update(dict.fromkeys(k for k, *_ in live))
                break
            a_log = 2 * a_log + sq_log
    return [finals[k] for k in ks]


class _BridgeLaw:
    """The law of ``max_k |X_k|`` for a 2n-step bridge, ``X_{2n} = 0``.

    ``bridge`` is ``bridge_log_prob(env, n, with_error_bound=True)``, the
    pair ``(log P, log_discarded_bound)``; the bound is ``-inf`` when
    truncation dropped nothing.  ``cdf(M) = P(max_k |X_k| < M | X_{2n} =
    0)`` runs one confined propagation per distinct ``M``, kept in
    ``probes``.  The CDF is non-decreasing in ``M``, so once a probe reads
    exactly 1.0, every ``M`` at or above it, ``strip`` (at first ``n + 1``:
    no bridge strays past ``n``), reads 1.0 with no propagation.  A
    skipped value errs by at most as much as that probe; which probes run,
    and so the last bits below 1.0, may depend on the order of the
    queries, within that error.

    A caller that serves several laws from one corridor asks
    ``needs_probe(M)`` and hands each law its row of ``_confined_rows``
    through ``record(M, joint)``; ``cdf`` is the two in turn.  A row has
    the same bits whatever shares its call, so the law ends up as a
    ``cdf(M)`` of its own would leave it.
    """

    def __init__(self, env: Environment, n: int) -> None:
        n = _check_site("n", n)
        if n < 1:
            raise DomainError("n must be at least 1")
        self.bridge = bridge_log_prob(env, n, with_error_bound=True)
        if self.bridge[0] == -np.inf:
            raise DegenerateBridgeError("conditioning event X_{2n} = 0 has zero probability")
        self.env, self.n = env, n
        self.probes: dict[int, float] = {}
        self.strip = n + 1

    def cdf(self, m: int) -> float:
        if self.needs_probe(m):
            self.record(m, confined_log_prob(self.env, 2 * self.n, m, require_bridge=True))
        return self.probes.get(m, 1.0)

    def needs_probe(self, m: int) -> bool:
        """Whether ``cdf(m)`` would run a corridor: ``m`` is below the
        strip and not probed yet."""
        return m < self.strip and m not in self.probes

    def record(self, m: int, joint: float) -> None:
        """Keep the probe of ``M = m``, given ``joint``, the log
        probability of the bridge confined to ``(-m, m)``."""
        self.probes[m] = min(1.0, float(np.exp(joint - self.bridge[0])))
        if self.probes[m] == 1.0:
            self.strip = m

    def quantile(self, q: float) -> int:
        """Smallest ``m >= 1`` with ``cdf(m + 1) >= q``, for ``0 < q < 1``.

        The search keeps ``cdf(lo) < q <= cdf(hi)``, starting from the
        tightest pair the probes so far give (else ``cdf(1) = 0`` and
        ``cdf(strip) = 1``), or from ``(1, n + 1)`` where they disagree by
        rounding.  It gallops, probing ``2 lo`` while that lies below
        ``hi``, then bisects inside the last doubling, so a fresh law
        probes nothing past twice the answer.
        """
        lo = max([1] + [m for m, v in self.probes.items() if v < q])
        hi = min([self.strip] + [m for m, v in self.probes.items() if v >= q])
        if lo >= hi:
            lo, hi = 1, self.n + 1
        while hi - lo > 1:
            mid = 2 * lo if 2 * lo < hi else (lo + hi + 1) // 2
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi - 1


def max_disp_bridge_cdf(
    env: Environment, n: int, m_values: np.ndarray | None = None
) -> np.ndarray:
    """CDF of the maximal displacement of a 2n-step bridge.

    Entry ``i`` is ``P(max_k |X_k| < M_i | X_{2n} = 0)`` where ``M_i`` is
    ``m_values[i]``, or ``i + 1`` when ``m_values`` is omitted (the full
    grid ``M = 1 .. 2n+1``).  The conditional CDF is exactly 1 for every
    ``M > n`` since a bridge cannot stray past ``n``; those entries are
    filled without propagation.  So is every ``M`` above one that
    already read exactly 1.0: the CDF is non-decreasing, so such an entry
    errs by at most as much as that probe.  Entries are computed in the
    order given, which can decide which ones skip; see
    ``kernel._BridgeLaw``.

    Raises
    ------
    DomainError
        If ``m_values`` is empty or holds anything but positive integers;
        ``2.5`` is rejected, not truncated.
    DegenerateBridgeError
        If the bridge event itself has zero probability, which uniform
        ellipticity rules out for genuine environments.
    """
    n = _check_site("n", n)
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
    law = _BridgeLaw(env, n)
    return np.array([law.cdf(int(m)) for m in ms])


def bridge_max_quantile(env: Environment, n: int, q: float) -> int:
    """Smallest m with ``P(max |X_k| <= m | X_{2n} = 0) >= q``.

    Exact integer quantile of the conditional maximal displacement,
    located by galloping search over confinement propagations, none wider
    than about twice the answer (each probe is one exact computation, so
    the result carries no sampling error).
    """
    if not (0.0 < q < 1.0):
        raise DomainError("q must lie strictly between 0 and 1")
    return _BridgeLaw(env, n).quantile(q)


def hitting_cdf(env: Environment, target: int, horizon: int) -> np.ndarray:
    """CDF of the first passage time to ``target``: entry k is P(T <= k).

    The hitting time counts from 0, so ``P(T <= 0) = 1`` exactly when the
    target is the origin.  Each step's first-passage mass is read off the
    rescaled propagation, so only entries whose own value lies below the
    smallest double (about 1e-308) round to 0.

    Parameters
    ----------
    env : Environment
        Window must cover ``[-horizon, target - 1]`` for a positive target
        or ``[target + 1, horizon]`` for a negative one: the sites the walk
        can step from before it first hits the target.
    target : int
    horizon : int
        Largest step count in the returned array (length ``horizon + 1``).
    """
    target, horizon = _check_site("target", target), _check_site("horizon", horizon)
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    cdf = np.zeros(horizon + 1)
    if target == 0:
        cdf[:] = 1.0
        return cdf
    if horizon == 0:
        return cdf
    if target > 0:
        om = env.slice(-horizon, target - 1)
        start, end, out = horizon, om.size - 1, om[-1]
    else:
        om = env.slice(target + 1, horizon)
        start, end, out = -target - 1, 0, 1.0 - om[0]
    # mass of state k stepping onto the target on step k + 1; only the
    # states of the parity of end - start hold mass at end
    first = np.zeros(horizon)
    steps = horizon - 1 - (horizon - 1 - end + start) % 2
    if steps >= 0:
        for k, mass, scale, _ in _propagate(om, 1.0 - om, start, [steps]):
            first[k] = out * mass[end // 2] * math.exp(scale)
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
        Window must cover ``[a + 1, b - 1]``, the interior sites.
    a, x, b : int
        Strictly ordered ``a < x < b``.
    first : {"a", "b"}
    """
    a, x, b = _check_site("a", a), _check_site("x", x), _check_site("b", b)
    if not (a < x < b):
        raise OrderingError(f"need a < x < b, got a={a}, x={x}, b={b}")
    if first not in ("a", "b"):
        raise DomainError(f"first must be 'a' or 'b', got {first!r}")
    interior = env.slice(a + 1, b - 1)
    if np.any(interior <= 0.0) or np.any(interior >= 1.0):
        raise DomainError("interior sites must have omega strictly in (0, 1)")
    log_rho = np.log1p(-interior) - np.log(interior)
    # S[j - a] = sum of log rho over sites a+1 .. j, with S[0] = 0
    s = np.concatenate(([0.0], np.cumsum(log_rho)))
    den = np.logaddexp.reduce(s)
    num = np.logaddexp.reduce(s[x - a :] if first == "a" else s[: x - a])
    return float(np.exp(num - den))
