"""Adiabatic parameter changes and Majorana exchange statistics.

The covariance matrix is integrated in the lab frame under
``dGamma/dt = [h, Gamma] - {X, Gamma} + Y`` with a slowly varying dissipator;
the decoherence-free (zero-damping) subspace is tracked along the path with a
smoothly continued orthonormal frame.  The geometric content of the transport
is the frame holonomy, compared against the algebraic exchange matrices
``B_ij`` acting on Majorana mode labels as ``gamma_i -> -gamma_j,
gamma_j -> gamma_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from .dynamics import _evolve_in_basis
from .majorana import Dissipator, build_dissipator, default_tol
from .models import VortexConfig

__all__ = [
    "AdiabaticSchedule",
    "AdiabaticResult",
    "vortex_exchange_path",
    "BraidWord",
    "vector_potential",
    "adiabatic_evolve",
    "braid_matrix",
    "braid_via_schedule",
    "BraidReport",
]

# ---------------------------------------------------------------------------
# Vector potential of a moving frame
# ---------------------------------------------------------------------------

def vector_potential(frames: Sequence[np.ndarray], ds: Optional[float] = None) -> np.ndarray:
    """Connection matrices ``A(s) = antisym(Q^T dQ/ds)`` of a frame path.

    ``frames`` is a sequence of (n, M) orthonormal frames sampled uniformly
    in s (spacing ``ds``, default 1/(S-1)).  Central differences in the
    interior, one-sided at the endpoints; each A is explicitly
    antisymmetrized (exact antisymmetry holds only in the continuum).

    Raises ``ValueError`` when consecutive frames overlap too weakly
    (min singular value of Q_s^T Q_{s+1} below 0.5): the path is
    under-resolved and finite differences are meaningless.
    """
    Q = [np.asarray(f, float) for f in frames]
    S = len(Q)
    if S < 2:
        raise ValueError("need at least two frames")
    if ds is None:
        ds = 1.0 / (S - 1)
    for s in range(S - 1):
        sv = np.linalg.svd(Q[s].T @ Q[s + 1], compute_uv=False)
        if sv.min() < 0.5:
            raise ValueError(
                f"frame jump between steps {s} and {s + 1} "
                f"(min overlap singular value {sv.min():.3f} < 0.5); use finer steps"
            )
    A = np.empty((S, Q[0].shape[1], Q[0].shape[1]))
    for s in range(S):
        if s == 0:
            dQ = (Q[1] - Q[0]) / ds
        elif s == S - 1:
            dQ = (Q[-1] - Q[-2]) / ds
        else:
            dQ = (Q[s + 1] - Q[s - 1]) / (2 * ds)
        raw = Q[s].T @ dQ
        A[s] = 0.5 * (raw - raw.T)
    return A


# ---------------------------------------------------------------------------
# Adiabatic integration with decoherence-free-subspace tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdiabaticSchedule:
    """A parameter path ``s in [0, 1] -> Dissipator`` with optional drive.

    ``hamiltonian(s)``, when given, is the real antisymmetric matrix h
    generating the coherent part ``[h, Gamma]``.
    """

    path: Callable[[float], Dissipator]
    total_time: float
    steps: int
    hamiltonian: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class AdiabaticResult:
    gamma: np.ndarray
    leakage: float                 # co-moving zero-block deviation from constancy
    holonomy: Optional[np.ndarray]  # Q(0)^T Qtilde(1), closed paths only
    min_gap: float                 # smallest damping gap above the kernel seen
    block_initial: Optional[np.ndarray]
    block_final: Optional[np.ndarray]


def vortex_exchange_path(model, lattice, separation: float,
                         core_scale: float) -> Callable[[float], Dissipator]:
    """``s -> Dissipator`` of two unit vortices exchanged by ``s = 1``.

    At ``s`` the pair sits ``separation`` apart on a line through the centre
    of ``lattice = (W, H)`` rotated by ``pi s``; open boundary, truncated
    placement.  Each call builds a fresh dissipator and keeps no reference to
    it: a schedule asks for every ramp time once, so a memo would only hold
    the whole path in memory.  Raises ``ValueError`` when that circle leaves
    the lattice.
    """
    W, H = lattice
    cx, cy = (W - 1) / 2, (H - 1) / 2
    if abs(separation) / 2 > min(cx, cy):
        raise ValueError(f"exchange circle of separation {separation} leaves lattice {lattice}")

    def diss_at(s: float) -> Dissipator:
        dx = separation / 2 * math.cos(math.pi * s)
        dy = separation / 2 * math.sin(math.pi * s)
        vs = [VortexConfig((cx - dx, cy - dy), 1, core_scale=core_scale),
              VortexConfig((cx + dx, cy + dy), 1, core_scale=core_scale)]
        fr = model.finite_realization(lattice, boundary="open", placement="truncated",
                                      vortices=vs)
        return build_dissipator(fr.operators, num_majoranas=2 * W * H)

    return diss_at


def _kernel_frame(d: Dissipator, eig: Tuple[np.ndarray, np.ndarray], block_dim: int,
                  s: float) -> Tuple[np.ndarray, float]:
    """Lowest-damping frame (2N, block_dim) and the gap above it, from ``eigh(d.X)``.

    Raises ``ValueError`` naming ``s`` when the gap is closed: at most
    ``default_tol(d.X)``, the finite layer's zero-rate mask.
    """
    w, V = eig
    gap = float(w[block_dim]) if block_dim < w.size else np.inf
    tol = default_tol(d.X)
    if gap <= tol:
        raise ValueError(f"damping gap {gap:.3e} is closed (at most {tol:.1e}) "
                         f"at s = {s:.4f}; path crosses a closing gap")
    return V[:, :block_dim], gap


def _align(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Rotate frame ``cur`` (within its span) to best match ``prev``."""
    U, sv, Vt = np.linalg.svd(prev.T @ cur)
    if sv.min() < 0.5:
        raise ValueError(
            f"decoherence-free frame jump (min overlap {sv.min():.3f} < 0.5); "
            "use finer steps"
        )
    return cur @ (U @ Vt).T


def adiabatic_evolve(
    schedule: AdiabaticSchedule,
    gamma0: np.ndarray,
    block_dim: int = 0,
) -> AdiabaticResult:
    """Integrate the slow-parameter flow by Strang splitting.

    Each step evolves ``Gamma`` with the dissipator frozen at the step
    midpoint: half a closed-form dissipative step, the exact orthogonal
    rotation ``exp(h dt)`` by congruence, and another dissipative half-step.
    Both factors are exact, so the only error is the O(dt^2) splitting
    commutator plus the parameter discretization.

    With ``block_dim > 0`` the lowest-``block_dim`` damping subspace is
    tracked with a smoothly continued frame; ``leakage`` is the deviation of
    the co-moving block covariance from its initial value, and ``holonomy``
    is the net frame rotation ``Q(0)^T Qtilde(1)`` (meaningful for closed
    paths, where the final subspace coincides with the initial one).

    Aborts with ``ValueError`` naming s when the damping gap above the
    tracked block is closed, at s = 0 or at any step midpoint.
    """
    gamma = np.asarray(gamma0, float).copy()
    dt = schedule.total_time / schedule.steps
    track = block_dim > 0
    min_gap = np.inf
    if track:
        d0 = schedule.path(0.0)
        Q0, min_gap = _kernel_frame(d0, np.linalg.eigh(d0.X), block_dim, 0.0)
        Q = Q0
        block0 = Q0.T @ gamma @ Q0
    for i in range(schedule.steps):
        s_mid = (i + 0.5) / schedule.steps
        d = schedule.path(s_mid)
        eig = np.linalg.eigh(d.X)
        if schedule.hamiltonian is None:
            gamma = _evolve_in_basis(d, eig, gamma, dt)
        else:
            h = np.asarray(schedule.hamiltonian(s_mid), float)
            gamma = _evolve_in_basis(d, eig, gamma, 0.5 * dt)
            O = expm(h * dt)
            gamma = O @ gamma @ O.T
            gamma = _evolve_in_basis(d, eig, gamma, 0.5 * dt)
        if track:
            Qn, gap = _kernel_frame(d, eig, block_dim, s_mid)
            min_gap = min(min_gap, gap)
            Q = _align(Q, Qn)
    if not track:
        return AdiabaticResult(gamma, 0.0, None, min_gap, None, None)
    block1 = Q.T @ gamma @ Q
    leakage = float(np.linalg.norm(block1 - block0, 2))
    holonomy = Q0.T @ Q
    return AdiabaticResult(gamma, leakage, holonomy, min_gap, block0, block1)


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
    braid_reference: np.ndarray
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
    return BraidReport(W, B, err, res.leakage, res.min_gap)
