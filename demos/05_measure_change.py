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

All of that is an exact finite identity.  Both sides, and both ends of
the sandwich, are sums over bridges of products of per-step weights, so
one exact bridge pass computes each sum; below they are audited at
n = 2, 3, 4 on the two-point law, and at n = 1000 on a three-point law,
whose two values above the minimum make the sandwich strict.

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
THREE_POINT = SiteDistribution((0.6, 0.7, 0.8), (0.25, 0.25, 0.5))


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

    # the audit summed over every bridge, one bridge pass per sum
    print("audit over every bridge (identity + sandwich, per event, "
          "in the log):")
    for law, name, ns in ((NON_NESTLING, "2pt", (2, 3, 4)), (THREE_POINT, "3pt", (1000,))):
        for n in ns:
            env = sample_environment(law, seed=0, lo=-2 * n, hi=2 * n)
            report = verify_com_identity(env, n, m=2, dist=law)
            for row in report.rows:
                print(f"  {name} n = {n:<4}  {row.event:<15} "
                      f"ln P = {row.log_lhs:.9f}  bracket "
                      f"[{row.log_lower:.3f}, {row.log_upper:.3f}]  "
                      f"violation {row.violation:.1e}")
            assert report.ok()
    print("\nidentity holds to rounding (ComReport.ok) and the geometric "
          "sandwich brackets every event")


if __name__ == "__main__":
    main()
