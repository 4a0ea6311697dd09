"""Independent reference implementations used to certify the package.

Everything here deliberately uses the slowest, most transparent method
available -- exhaustive path enumeration with scalar linear-domain
arithmetic, textbook closed forms, dense linear algebra, or off-the-shelf
high-precision root finding -- and never calls into the package's DP
kernels or samplers.  Tests assert that the fast implementations agree
with these to stated tolerances; the two routes are kept fully separate
so a shared bug cannot hide.
"""

from __future__ import annotations

import math

import numpy as np

# Enumeration beyond this many steps is a mistake, not a bigger test.
MAX_ENUM_STEPS = 24


def iter_paths(steps: int):
    """Yield every nearest-neighbour path of `steps` steps from the origin.

    Each path appears as an int64 array of ``steps + 1`` sites; bit k of
    the enumeration mask decides step k (set = right).
    """
    if not (0 <= steps <= MAX_ENUM_STEPS):
        raise ValueError(f"steps must be in 0..{MAX_ENUM_STEPS}")
    for mask in range(1 << steps):
        sites = np.empty(steps + 1, dtype=np.int64)
        sites[0] = 0
        for k in range(steps):
            sites[k + 1] = sites[k] + (1 if (mask >> k) & 1 else -1)
        yield sites


def path_probability(env, sites) -> float:
    """Linear-domain probability of one explicit path under the quenched law."""
    prob = 1.0
    for k in range(len(sites) - 1):
        w = env.omega(int(sites[k]))
        prob *= w if sites[k + 1] - sites[k] == 1 else 1.0 - w
    return prob


def event_probability(env, steps: int, event) -> float:
    """Exhaustive-enumeration probability of an event on the site sequence."""
    return sum(
        path_probability(env, sites) for sites in iter_paths(steps) if event(sites)
    )


def bridge_probability(env, n: int) -> float:
    return event_probability(env, 2 * n, lambda s: s[-1] == 0)


def confined_probability(env, steps: int, m: int, require_bridge: bool = False) -> float:
    def event(sites) -> bool:
        if int(np.max(np.abs(sites))) >= m:
            return False
        return sites[-1] == 0 if require_bridge else True

    return event_probability(env, steps, event)


def com_sums(env, n: int, m, omega_min: float, consts):
    """``(lhs, rhs, lower, upper)`` of the change-of-measure check, each a
    linear sum over the 2n-step bridges (with ``max |X| < m`` unless ``m``
    is None), by enumeration.

    ``lhs`` sums the path probabilities under ``env``; the others weigh
    each path's probability under the tilted sites ``rho_max / (rho +
    rho_max)`` by the density ``rho_max^-n prod ((1 - w) + w rho_max)``
    and by ``exp(-2 n I0) c^B`` for ``c = c1, c2``, with ``B`` the steps
    taken from a site above ``omega_min``.  ``consts`` supplies
    ``rho_max``, ``c1``, ``c2`` and ``I0``.
    """
    rho_max, c1, c2 = consts.rho_max, consts.c1, consts.c2
    damp = math.exp(-2.0 * n * consts.I0)
    sums = [0.0] * 4
    for sites in iter_paths(2 * n):
        if sites[-1] != 0 or (m is not None and int(np.max(np.abs(sites))) >= m):
            continue
        p, p_tilt, density, b = 1.0, 1.0, rho_max**-n, 0
        for k in range(2 * n):
            w = env.omega(int(sites[k]))
            w_tilt = rho_max / ((1.0 - w) / w + rho_max)
            right = sites[k + 1] > sites[k]
            p *= w if right else 1.0 - w
            p_tilt *= w_tilt if right else 1.0 - w_tilt
            density *= (1.0 - w) + w * rho_max
            b += w > omega_min
        for i, v in enumerate((p, density * p_tilt, damp * c1**b * p_tilt, damp * c2**b * p_tilt)):
            sums[i] += v
    return tuple(sums)


def hitting_cdf(env, target: int, horizon: int) -> np.ndarray:
    """P(T_target <= k) for k = 0..horizon by grouping paths by first hit."""
    first_hit_mass = np.zeros(horizon + 1)
    if target == 0:
        return np.ones(horizon + 1)
    for sites in iter_paths(horizon):
        hits = np.flatnonzero(sites == target)
        if hits.size:
            first_hit_mass[hits[0]] += path_probability(env, sites)
    return np.cumsum(first_hit_mass)


def max_disp_cdf(env, n: int, m_values) -> np.ndarray:
    """P(max_k |X_k| < M | X_{2n} = 0) for each M, by enumeration.

    Enumerates every 2n-step path that ends at the origin, depth first,
    dropping a prefix only once it is too far out to return in time; each
    path's probability is the left-to-right product of its steps, summed
    by the path's maximum.
    """
    if not (0 <= 2 * n <= MAX_ENUM_STEPS):
        raise ValueError(f"2n must be in 0..{MAX_ENUM_STEPS}")
    by_max = np.zeros(n + 1)

    def extend(x: int, k: int, prob: float, top: int) -> None:
        if abs(x) > 2 * n - k:
            return
        if k == 2 * n:
            by_max[top] += prob
            return
        w = env.omega(x)
        extend(x + 1, k + 1, prob * w, max(top, abs(x + 1)))
        extend(x - 1, k + 1, prob * (1.0 - w), max(top, abs(x - 1)))

    extend(0, 0, 1.0, 0)
    below = np.concatenate(([0.0], np.cumsum(by_max)))  # P(max < M, X_2n = 0)
    return np.array([below[min(int(m), n + 1)] for m in m_values]) / below[-1]


def bridge_distribution(env, n: int) -> dict[tuple, float]:
    """Exact conditional probability of every 2n-step bridge path."""
    joint = {}
    for sites in iter_paths(2 * n):
        if sites[-1] == 0:
            joint[tuple(int(x) for x in sites)] = path_probability(env, sites)
    total = sum(joint.values())
    return {path: p / total for path, p in joint.items()}


def backward_log_table(env, n: int) -> np.ndarray:
    """Full-rectangle backward log table of a 2n-step bridge.

    Cell ``[k, x + n + 1]`` holds ``log P(X_{2n} = 0 | X_k = x)`` for sites
    ``x`` in ``[-n - 1, n + 1]``, by the plain log-domain recursion over
    every cell of the ``(2n + 1) x (2n + 3)`` rectangle.  Cells inside the
    double cone ``|x| <= min(k, 2n - k)`` are exact; the two outer columns
    are ``-inf`` guards, so a fold reads the neighbours ``x +- 1`` of any
    bridge site in place.
    """
    om = env.slice(-n, n)
    with np.errstate(divide="ignore"):
        log_p = np.log(om)
        log_q = np.log1p(-om)
    h = np.full((2 * n + 1, 2 * n + 3), -np.inf)
    h[2 * n, n + 1] = 0.0
    for k in range(2 * n - 1, -1, -1):
        nxt = h[k + 1]
        np.logaddexp(log_p + nxt[2:], log_q + nxt[:-2], out=h[k, 1:-1])
    return h


def exit_prob_dp(
    env, a: int, x: int, b: int, horizon: int = 10_000, tail_tol: float = 1e-13
) -> float:
    """P(T_a < T_b from x) by plain linear-domain absorbing propagation.

    Runs until the surviving interior mass drops below ``tail_tol`` and
    raises if the horizon is not enough for that, so the returned value
    is accurate to ``tail_tol`` by construction.
    """
    width = b - a - 1
    omegas = np.array([env.omega(s) for s in range(a + 1, b)])
    mass = np.zeros(width)
    mass[x - (a + 1)] = 1.0
    absorbed_left = 0.0
    for _ in range(horizon):
        absorbed_left += (1.0 - omegas[0]) * mass[0]
        new = np.zeros(width)
        new[1:] += omegas[:-1] * mass[:-1]
        new[:-1] += (1.0 - omegas[1:]) * mass[1:]
        mass = new
        if mass.sum() < tail_tol:
            return absorbed_left
    raise RuntimeError(f"interior mass {mass.sum():g} above {tail_tol:g} at horizon")


def gamblers_ruin_reach_b_first(p: float, a: int, x: int, b: int) -> float:
    """Textbook homogeneous-walk probability of hitting b before a from x."""
    if p == 0.5:
        return (x - a) / (b - a)
    r = (1.0 - p) / p
    return (1.0 - r ** (x - a)) / (1.0 - r ** (b - a))


def srw_confined_linear(
    steps: int, m: int, require_bridge: bool = False
) -> float:
    """P(fair walk stays in (-m, m) [and returns to 0]) in plain doubles.

    Transfer-matrix iteration with no logs and no rescaling; valid as
    long as the answer stays comfortably above the underflow threshold.
    """
    width = 2 * m - 1
    mass = np.zeros(width)
    mass[m - 1] = 1.0
    for _ in range(steps):
        new = np.zeros(width)
        new[1:] += 0.5 * mass[:-1]
        new[:-1] += 0.5 * mass[1:]
        mass = new
    return float(mass[m - 1]) if require_bridge else float(mass.sum())


def confined_log_forward(
    env, steps: int, m: int, require_bridge: bool = False
) -> float:
    """log P(max |X_k| < m over k <= steps [and X_steps = 0]) by a
    log-domain forward recursion over the sites of ``(-m, m)``.

    Every cell holds its own log mass, each step is one ``logaddexp`` per
    cell, and nothing is rescaled, so no cell is flushed however far it
    falls below the largest.  Costs ``steps * (2m - 1)`` cells.
    """
    om = np.array([env.omega(x) for x in range(1 - m, m)])
    with np.errstate(divide="ignore"):
        log_right, log_left = np.log(om), np.log1p(-om)
    mass = np.full(om.size, -np.inf)
    mass[m - 1] = 0.0
    for _ in range(steps):
        new = np.full(om.size, -np.inf)
        new[1:] = mass[:-1] + log_right[:-1]
        new[:-1] = np.logaddexp(new[:-1], mass[1:] + log_left[1:])
        mass = new
    if require_bridge:
        return float(mass[m - 1])
    return float(np.logaddexp.reduce(mass))


def exit_mgf_linear_system(ell: int, lam: float) -> float:
    """E[exp(lam * sigma)] for the fair-walk exit from [1, 2*ell-1], from 1.

    Solves the linear system m = e^lam (P m + r) over the interior states,
    where r carries the one-step exit probabilities; independent of both
    the trigonometric closed form and the series evaluation.
    """
    width = 2 * ell - 1
    transition = np.zeros((width, width))
    for i in range(width - 1):
        transition[i, i + 1] = 0.5
        transition[i + 1, i] = 0.5
    exit_vec = np.zeros(width)
    exit_vec[0] += 0.5
    exit_vec[-1] += 0.5  # the same state as exit_vec[0] when ell = 1
    growth = math.exp(lam)
    system = np.eye(width) - growth * transition
    mgf = np.linalg.solve(system, growth * exit_vec)
    return float(mgf[0])


def solve_kappa_mp(support, weights, dps: int = 50) -> float:
    """High-precision bisection for the positive root of E[rho^kappa] = 1.

    Operates on the exact binary-float values of the inputs so it shares
    the package's inputs bit for bit while sharing none of its code.
    """
    import mpmath as mp

    with mp.workdps(dps):
        rhos = [(1 - mp.mpf(s)) / mp.mpf(s) for s in support]
        ws = [mp.mpf(w) for w in weights]

        def excess(k):
            return sum(w * r**k for w, r in zip(ws, rhos)) - 1

        hi = mp.mpf(1)
        while excess(hi) <= 0:
            hi *= 2
        lo = mp.mpf(0)
        for _ in range(dps * 8):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def backtrack_mc(
    dist, x: int, n_walks: int, seed: int, right_escape: int = 40,
    max_steps: int = 20_000, chunk: int = 25_000,
) -> tuple[float, float]:
    """Monte Carlo estimate of the annealed probability of ever reaching -x.

    Each walk runs in its own freshly drawn environment until it hits -x
    or +right_escape (walks still alive at ``max_steps`` count as hits,
    which can only overestimate).  Returns (estimate, standard error).
    Uses numpy's default bit generator -- unrelated to the package's
    counter-based environment streams.
    """
    rng = np.random.default_rng(seed)
    support = np.asarray(dist.support)
    cum_weights = np.cumsum(np.asarray(dist.weights))
    cum_weights[-1] = 1.0
    lo = -x
    width = right_escape + x + 1
    hits = 0
    done_walks = 0
    while done_walks < n_walks:
        m = min(chunk, n_walks - done_walks)
        done_walks += m
        env_draws = rng.random((m, width))
        env = support[np.searchsorted(cum_weights, env_draws, side="right")]
        pos = np.zeros(m, dtype=np.int64)
        active = np.arange(m)
        for _ in range(max_steps):
            w = env[active, pos[active] - lo]
            go_right = rng.random(active.size) < w
            pos[active] += np.where(go_right, 1, -1)
            here = pos[active]
            hits += int(np.count_nonzero(here == lo))
            active = active[(here > lo) & (here < right_escape)]
            if active.size == 0:
                break
        hits += active.size  # unresolved walks count against the bound
    p_hat = hits / n_walks
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n_walks) / n_walks)
    return p_hat, se
