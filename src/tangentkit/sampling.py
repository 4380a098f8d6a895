"""Seeded sample-point generation for law checks.

Law statements are pointwise-universal; numerics sample.  All sampling is
driven by an explicit seed recorded in reports so failures reproduce.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 100
LAW_GRID_TIMES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
LAW_GRID_SAMPLES = 25


def sample_points(
    dim: int, count: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> list[list[float]]:
    """``count`` points drawn uniformly from the cube [-2, 2]^dim."""
    rng = random.Random(seed)
    return [[rng.uniform(-2.0, 2.0) for _ in range(dim)] for _ in range(count)]


def sample_matrix(n: int, rng: random.Random) -> list[list[float]]:
    """An n x n matrix with entries drawn uniformly from [-1, 1]."""
    return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
