"""Shared test helpers: random jump-operator families with known structure."""

import os

# One BLAS thread, set before numpy loads: the suite's small dense products
# run slower when BLAS threads oversubscribe a few cores.  An explicit
# setting in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def random_anticommuting_family(rng, num_modes: int, num_ops: int):
    """Jump operators with pairwise vanishing anticommutators.

    Rows ``(e_{2i} + i e_{2i+1}) O / sqrt(2)`` of a random special orthogonal
    O satisfy ``l_i l_j^T = 0`` for all i, j (including i = j), which is the
    anticommuting condition ``{L_i, L_j} = 0``.
    """
    n = 2 * num_modes
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    ops = []
    for i in range(num_ops):
        l = (Q[2 * i] + 1j * Q[2 * i + 1]) / np.sqrt(2.0)
        ops.append(l * (0.5 + rng.random()))   # arbitrary positive rates
    return ops


def random_generic_family(rng, num_modes: int, num_ops: int):
    """Generic (full-rank) complex jump-operator vectors."""
    n = 2 * num_modes
    return [
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for _ in range(num_ops)
    ]


def random_covariance(rng, n: int):
    """A valid covariance: mixed rotation blocks in a random orthogonal frame."""
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    base = np.zeros((n, n))
    for b in range(n // 2):
        base[2 * b, 2 * b + 1] = rng.uniform(-1, 1)
        base[2 * b + 1, 2 * b] = -base[2 * b, 2 * b + 1]
    return R @ base @ R.T
