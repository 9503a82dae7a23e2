"""Random well-conditioned inputs for the kernels.

Factorisations need matrices that do not blow up numerically in any of the
(reordered but mathematically identical) variants: SPD matrices for
Cholesky here; LU builds its own mildly diagonally dominated matrix (so
that pivoting still triggers) and QR a near-orthogonal one.
"""

from __future__ import annotations

import numpy as np


def default_rng(seed: int = 20050615) -> np.random.Generator:
    """The repo-wide deterministic RNG (seeded with the paper's venue date)."""
    return np.random.default_rng(seed)


def spd_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive-definite matrix (safe for Cholesky)."""
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    return b @ b.T + np.eye(n) * (n + 1.0)


def grid_field(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random initial field for the Jacobi solver."""
    return rng.uniform(0.0, 1.0, size=(n, n))
