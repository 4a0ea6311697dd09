"""Shared fixtures: one canonical distribution per regime, plus windows."""

from __future__ import annotations

import numpy as np
import pytest

from rwre import SiteDistribution, sample_environment

# Nestling law with exponent exactly 2: E[rho^2] = 0.1*9 + 0.9/9 = 1.
NESTLING_K2 = SiteDistribution(support=(0.25, 0.75), weights=(0.1, 0.9))

# Marginally nestling: half the sites fair, half biased right.
MARGINAL = SiteDistribution(support=(0.5, 0.75), weights=(0.5, 0.5))

# Non-nestling with support gap 0.2 and equal weights.
NON_NESTLING = SiteDistribution(support=(0.6, 0.8), weights=(0.5, 0.5))

# Nestling law with exponent exactly 1 (zero speed): rho in {2, 1/2}.
NESTLING_K1 = SiteDistribution(support=(1 / 3, 2 / 3), weights=(1 / 3, 2 / 3))

# Fair homogeneous law -- not transient, but a valid distribution.
FAIR = SiteDistribution(support=(0.5,), weights=(1.0,))


def homogeneous_env(p: float, lo: int, hi: int):
    dist = SiteDistribution(support=(p,), weights=(1.0,))
    return sample_environment(dist, 0, lo, hi)


def step_table_cells(table) -> np.ndarray:
    """Every cell a step table gives: its checkpoints, then each block's
    right-step probabilities filled over the whole double cone."""
    n, cells = table.n, [table.checkpoints]
    for c in range(len(table.fills)):
        start = c * table.block
        cells.append(table.cover(c, max(0, start - n), min(start, n)).p)
    return np.concatenate(cells)


@pytest.fixture(scope="session")
def nestling_env():
    """Window of the exponent-2 nestling law, wide enough for n <= 5 tests."""
    return sample_environment(NESTLING_K2, 11, -24, 24)


@pytest.fixture(scope="session")
def non_nestling_env():
    return sample_environment(NON_NESTLING, 5, -24, 24)


@pytest.fixture(scope="session")
def marginal_env():
    return sample_environment(MARGINAL, 3, -24, 24)
