"""Change of measure for non-nestling environments.

When every site drifts right (all omega > 1/2), returning to the origin
costs a clean exponential factor exp(-2n I(0)) with
I(0) = -0.5 ln(4 w (1 - w)) at w = omega_min.  The proof device made
computational here: replace each omega by the value with the *same odds
magnitude but tilted to the weakest drift* — rho maps to
rho_min = (1 - w)/w while the local "resistance" is preserved.  On
return paths (which take exactly n up and n down steps) the density
between the two laws collapses to a product over visited sites, and it
is sandwiched between geometric bounds c^{B} and c^{2n} where B counts
times the walk sits at a site stiffer than the minimum.

All of that is an exact finite identity, so it can be audited by full
path enumeration — below, for every 2n-step path at n = 2, 3, 4.

Run:  python3 demos/05_measure_change.py
"""

from __future__ import annotations

import math

import numpy as np

from rwre import (
    SiteDistribution,
    b_count,
    com_constants,
    mn_transform,
    rate_I0,
    rn_log_derivative,
    sample_bridge,
    sample_environment,
    verify_com_identity,
)

NON_NESTLING = SiteDistribution((0.6, 0.8), (0.5, 0.5))


def main() -> None:
    consts = com_constants(NON_NESTLING)
    rate = rate_I0(NON_NESTLING)
    print("non-nestling two-point law, omega in {0.6, 0.8}:")
    print(f"  exponential return rate I(0) = {rate:.6f} "
          f"(exp(-2n I(0)) at n = 100: {math.exp(-200 * rate):.3e})")
    print(f"  sandwich constants c1 = c2 = {consts.c1:.6f} "
          f"(equal because the law has two support points)")
    print(f"  tilted odds ratio rho_max = {consts.rho_max:.6f}\n")

    # the density between the original and tilted laws, path by path
    n = 3
    env = sample_environment(NON_NESTLING, seed=0, lo=-2 * n, hi=2 * n)
    tilted = mn_transform(env)
    path = sample_bridge(env, n, seed=5)
    print(f"one sampled bridge at n = {n}: "
          f"{[int(x) for x in path]}")
    print(f"  steps at sites stiffer than omega_min: "
          f"B = {b_count(env, path)} of {2 * n}")
    log_dens = rn_log_derivative(env, path, dist=NON_NESTLING)
    print(f"  ln dP/dP~ along this path = {log_dens:.6f}")
    p_orig = math.exp(sum(
        math.log(env.omega(x) if s > 0 else 1 - env.omega(x))
        for x, s in zip(path[:-1], np.diff(path))
    ))
    p_tilt = math.exp(sum(
        math.log(tilted.omega(x) if s > 0 else 1 - tilted.omega(x))
        for x, s in zip(path[:-1], np.diff(path))
    ))
    print(f"  direct check: ln(P_orig / P_tilted) = "
          f"{math.log(p_orig / p_tilt):.6f}\n")

    # full audit by exhaustive enumeration
    print("exhaustive audit over every path (identity + sandwich, "
          "per event):")
    for n in (2, 3, 4):
        env = sample_environment(NON_NESTLING, seed=0, lo=-2 * n, hi=2 * n)
        report = verify_com_identity(
            env, n,
            events=[
                ("return", None),
                ("return & max < 2", lambda s: int(np.abs(s).max()) < 2),
            ],
        )
        for row in report.rows:
            print(f"  n = {n}, event {row.event:<18} "
                  f"P = {row.lhs:.9e}  bracket "
                  f"[{row.lower:.3e}, {row.upper:.3e}]  "
                  f"max violation {row.max_abs_violation:.1e}")
        assert report.ok()
    print("\nidentity holds to 1e-12 and the geometric sandwich brackets "
          "every event")


if __name__ == "__main__":
    main()
