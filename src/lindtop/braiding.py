"""Adiabatic parameter changes and Majorana exchange statistics.

The covariance matrix is integrated under ``dGamma/dt = -{X, Gamma} + Y``
with a slowly varying dissipator and carried from step to step in the moving
eigenbasis of X; the decoherence-free (zero-damping) subspace is tracked
along the path with a smoothly continued orthonormal frame.  The geometric
content of the transport is the frame holonomy, compared against the
algebraic exchange matrices ``B_ij`` acting on Majorana mode labels as
``gamma_i -> -gamma_j, gamma_j -> gamma_i``.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import _eigenbasis, _rotated_Y, _step_tables
from .majorana import Dissipator, check_covariance
from .models import vortex_pair

__all__ = [
    "AdiabaticSchedule",
    "AdiabaticResult",
    "vortex_exchange_path",
    "BraidWord",
    "adiabatic_evolve",
    "braid_matrix",
    "braid_via_schedule",
    "BraidReport",
]

# ---------------------------------------------------------------------------
# Adiabatic integration with decoherence-free-subspace tracking
# ---------------------------------------------------------------------------

# _align: the smallest singular value of prev^T cur, the overlap of two
# consecutive decoherence-free frames, below which the frame has jumped.
_MIN_OVERLAP = 0.5

@dataclass(frozen=True)
class AdiabaticSchedule:
    """A parameter path ``s in [0, 1] -> Dissipator`` run over ``total_time`` in ``steps``."""

    path: Callable[[float], Dissipator]
    total_time: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be finite and positive, got {self.total_time}")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class AdiabaticResult:
    gamma: np.ndarray
    leakage: float                 # co-moving zero-block deviation from constancy
    holonomy: Optional[np.ndarray]  # Q(0)^T Qtilde(1), closed paths only
    min_gap: float                 # smallest damping gap above the kernel seen


def vortex_exchange_path(model, lattice, separation: float,
                         core_scale: float) -> Callable[[float], Dissipator]:
    """``s -> Dissipator`` of two unit vortices exchanged by ``s = 1``.

    At ``s`` the pair is :func:`~lindtop.models.vortex_pair` at angle ``pi s``
    on ``lattice = (W, H)``.  Each call builds a fresh dissipator and keeps no
    reference to it: a schedule asks for every ramp time once, so a memo would
    only hold the whole path in memory.  Raises ``ValueError`` when that
    circle leaves the lattice.
    """
    if abs(separation) > min(lattice) - 1:
        raise ValueError(f"exchange circle of separation {separation} leaves lattice {lattice}")

    def diss_at(s: float) -> Dissipator:
        return vortex_pair(model, lattice, separation, math.pi * s,
                           core_scale=core_scale).dissipator()

    return diss_at


def _kernel_frame(eig: Tuple[np.ndarray, np.ndarray, np.ndarray], block_dim: int,
                  s: float) -> Tuple[np.ndarray, float]:
    """Lowest-damping frame (2N, block_dim) and the gap above it, from ``_eigenbasis``.

    Raises ``ValueError`` naming ``s`` when the gap is closed: when the rate
    above the block is in the zero-rate mask of :func:`_eigenbasis`.
    """
    kappa, V, zero = eig
    gap = float(kappa[block_dim])
    if zero[block_dim]:
        raise ValueError(f"damping gap {gap:.3e} is closed (a zero rate of X) "
                         f"at s = {s:.4f}; path crosses a closing gap")
    return V[:, :block_dim], gap


def _align(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Rotate frame ``cur`` (within its span) to best match ``prev``."""
    U, sv, Vt = np.linalg.svd(prev.T @ cur)
    if sv.min() < _MIN_OVERLAP:
        raise ValueError(
            f"decoherence-free frame jump (min overlap {sv.min():.3f} < {_MIN_OVERLAP}); "
            "use finer steps"
        )
    return cur @ (U @ Vt).T


def _tables(d: Dissipator, eig, dt: float):
    """The worker's second task for a step: ``_step_tables`` of ``V^T Y V`` over ``dt``."""
    kappa, V, _ = eig.result()
    return _step_tables(kappa, _rotated_Y(d, V), dt)


def adiabatic_evolve(
    schedule: AdiabaticSchedule,
    gamma0: np.ndarray,
    block_dim: int = 0,
) -> AdiabaticResult:
    """Integrate the slow-parameter flow by exponential-midpoint steps.

    Each step of length ``dt`` is the closed-form dissipative step of
    :func:`~lindtop.dynamics.evolve` with the dissipator frozen at the step
    midpoint, so the only error is the O(dt^2) parameter discretization.

    With ``block_dim > 0`` the lowest-``block_dim`` damping subspace is
    tracked with a smoothly continued frame, at s = 0, at every step
    midpoint and at s = 1; ``leakage`` is the deviation of the co-moving
    block covariance at s = 1 from its value at s = 0, and ``holonomy`` is
    the net frame rotation ``Q(0)^T Qtilde(1)`` (meaningful for closed
    paths, where the final subspace coincides with the initial one).

    Aborts with ``ValueError`` naming s when the damping gap above the
    tracked block is closed at any tracked point.  ``gamma0`` is validated by
    :func:`~lindtop.majorana.check_covariance`; a ``block_dim`` that is not
    an integer in ``[0, n)``, and a path point whose dimension is not
    ``gamma0``'s n, raise ``ValueError``.

    Gamma is carried in the eigenbasis ``V`` of the current step's X: it
    enters once as ``V^T Gamma0 V``, each step rotates it by
    ``O = V_prev^T V`` and applies the closed-form tables, and it leaves once
    as ``V Gt V^T``.  ``_eigenbasis`` and the tables do not depend on Gamma,
    so one worker thread computes step i + 1's while this thread updates
    Gamma for step i; it publishes ``_eigenbasis`` first, so the gap check
    and the next path point wait only for that.  ``schedule.path`` is called
    on this thread only, once per point, in order: s = 0, the midpoints and
    s = 1 when tracking, the midpoints alone otherwise.
    """
    gamma0 = check_covariance(gamma0)
    n = gamma0.shape[0]
    if not (isinstance(block_dim, numbers.Integral) and 0 <= block_dim < n):
        raise ValueError(f"block_dim must be an integer in [0, {n}), got {block_dim!r}")
    dt = schedule.total_time / schedule.steps
    mids = [(i + 0.5) / schedule.steps for i in range(schedule.steps)]
    track = block_dim > 0
    min_gap = np.inf

    def point(s: float) -> Dissipator:
        d = schedule.path(s)
        if d.num_majoranas != n:
            raise ValueError(f"the dissipator at s = {s:.4f} is {d.num_majoranas}x"
                             f"{d.num_majoranas}, but gamma0 is {n}x{n}")
        return d

    def follow(Q: np.ndarray, eig, s: float) -> np.ndarray:
        nonlocal min_gap
        Qn, gap = _kernel_frame(eig, block_dim, s)
        min_gap = min(min_gap, gap)
        return _align(Q, Qn)

    if track:
        Q0, min_gap = _kernel_frame(_eigenbasis(point(0.0)), block_dim, 0.0)
        Q = Q0
        block0 = Q0.T @ gamma0 @ Q0
    Gt, V_prev = gamma0, None
    with ThreadPoolExecutor(max_workers=1) as worker:

        def submit(s: float):
            # Only the worker holds the dissipator, until its tables are built.
            d = point(s)
            eig = worker.submit(_eigenbasis, d)
            return eig, worker.submit(_tables, d, eig, dt)

        eig, tables = submit(mids[0])
        for i, s_mid in enumerate(mids):
            frame = eig.result()
            if track:
                Q = follow(Q, frame, s_mid)
            step = tables
            if i + 1 < len(mids):
                eig, tables = submit(mids[i + 1])
            elif track:
                eig = worker.submit(_eigenbasis, point(1.0))
            V = frame[1]
            O = V if V_prev is None else V_prev.T @ V
            Gt = check_covariance(O.T @ Gt @ O)
            decay, rampY = step.result()
            Gt = decay * Gt + rampY
            Gt = 0.5 * (Gt - Gt.T)
            V_prev = V
        if track:
            Q = follow(Q, eig.result(), 1.0)
    gamma = V_prev @ Gt @ V_prev.T
    gamma = 0.5 * (gamma - gamma.T)
    if not track:
        return AdiabaticResult(gamma, 0.0, None, min_gap)
    block1 = Q.T @ gamma @ Q
    leakage = float(np.linalg.norm(block1 - block0, 2))
    holonomy = Q0.T @ Q
    return AdiabaticResult(gamma, leakage, holonomy, min_gap)


# ---------------------------------------------------------------------------
# Braid-matrix algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidWord:
    """A sequence of Majorana exchanges over a registry of M mode labels."""

    exchanges: Tuple[Tuple[int, int], ...]
    registry_size: int

    def __post_init__(self):
        for i, j in self.exchanges:
            if i == j:
                raise ValueError("exchange indices must be distinct")
            if not (0 <= i < self.registry_size and 0 <= j < self.registry_size):
                raise ValueError(f"exchange ({i}, {j}) outside registry")


def braid_matrix(word, registry_size: Optional[int] = None) -> np.ndarray:
    """Orthogonal matrix of a braid word on Majorana mode labels.

    A single exchange (i, j) maps ``gamma_i -> -gamma_j, gamma_j -> gamma_i``
    and fixes every other label; words compose left-to-right (the first
    exchange acts first).  The result acts on covariance matrices by
    congruence ``Gamma -> B Gamma B^T``; it is special orthogonal.
    """
    if isinstance(word, tuple) and len(word) == 2 and np.isscalar(word[0]):
        word = BraidWord((word,), registry_size)
    elif not isinstance(word, BraidWord):
        word = BraidWord(tuple(word), registry_size)
    M = word.registry_size
    B = np.eye(M)
    for i, j in word.exchanges:
        E = np.eye(M)
        E[i, i] = E[j, j] = 0.0
        E[i, j] = -1.0
        E[j, i] = 1.0
        B = E @ B
    return B


# ---------------------------------------------------------------------------
# Physical exchange vs. algebraic braid matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BraidReport:
    holonomy: np.ndarray
    fidelity_error: float      # min over residual gauge of |W -+ B|
    leakage: float
    min_gap: float


def braid_via_schedule(
    schedule: AdiabaticSchedule,
    gamma0: np.ndarray,
    block_dim: int = 2,
) -> BraidReport:
    """Run an exchange schedule and compare the holonomy to ``B_12``.

    The schedule must be a closed path whose zero-damping registry has
    ``block_dim`` modes; the transported frame's holonomy W is compared to
    the algebraic exchange matrix on the first two labels, modulo the
    residual gauge (overall orientation of the exchange): the reported error
    is ``min(|W - B|, |W - B^T|)``.
    """
    res = adiabatic_evolve(schedule, gamma0, block_dim=block_dim)
    B = braid_matrix((0, 1), block_dim)
    W = res.holonomy
    err = min(
        float(np.linalg.norm(W - B, 2)),
        float(np.linalg.norm(W - B.T, 2)),
    )
    return BraidReport(W, err, res.leakage, res.min_gap)
