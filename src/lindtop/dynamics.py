"""Steady states, exact time evolution, damping spectra, and mode censuses.

Everything here works in the eigenbasis of the symmetric damping matrix
``X``: with eigenpairs ``(kappa_a, v_a)`` the flow
``dGamma/dt = -{X, Gamma} + Y`` becomes entrywise linear,

    Gamma_ab(t) = e^{-(kappa_a+kappa_b) t} Gamma_ab(0)
                  + Y_ab (1 - e^{-(kappa_a+kappa_b) t}) / (kappa_a+kappa_b),

so evolution and the steady state ``{X, Gamma} = Y`` are computed in closed
form rather than by ODE stepping.  Zero-rate blocks (products of the kernel
of X) are conserved quantities; the steady state on them is taken from the
initial condition and reported explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh

from .majorana import Dissipator, check_covariance, default_tol

__all__ = [
    "DampingSpectrum",
    "SteadyStateResult",
    "ModeCensus",
    "BlockDecouplingReport",
    "damping_spectrum",
    "steady_state",
    "evolve",
    "zero_damping_modes",
    "mode_census_and_bulk_edge_check",
    "block_decoupling_check",
]

# mode_census_and_bulk_edge_check: the share of a mode's weight inside the
# edge window that makes it an edge mode, and the purity eps^2 counted as 0.
_EDGE_WEIGHT = 0.9
_ZERO_PURITY = 1e-6
# block_decoupling_check: sample times of the flow and the largest drift of
# the conserved block Gamma_pp.
_DECOUPLING_TIMES = np.linspace(0.0, 20.0, 9)[1:]
_DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class DampingSpectrum:
    """Sorted damping rates (eigenvalues of X) and the dissipative gap."""

    rates: np.ndarray
    dissipative_gap: float


def damping_spectrum(d: Dissipator, bulk_selector: Optional[Sequence[int]] = None) -> DampingSpectrum:
    """Eigenvalues of ``X`` ascending; gap = min over the selected indices.

    Parameters
    ----------
    d : Dissipator
    bulk_selector : sequence of int, optional
        Indices into the ascending rate list over which the dissipative gap
        is taken (used to exclude known edge modes); default all.
    """
    rates = np.linalg.eigvalsh(d.X)
    rates = np.clip(rates, 0.0, None)
    if bulk_selector is None:
        gap = float(rates[0]) if rates.size else 0.0
    else:
        sel = np.asarray(list(bulk_selector), dtype=int)
        gap = float(rates[sel].min()) if sel.size else 0.0
    return DampingSpectrum(rates, gap)


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady covariance matrix plus the conserved (undetermined) sector.

    Attributes
    ----------
    gamma : (2N, 2N) real ndarray
    undetermined_basis : list of (2N,) real ndarray
        Orthonormal basis of ker X; the steady state is not unique on the
        span of these vectors and was fixed by the initial condition.
    residual : float
        ``||{X, Gamma} - Y||`` (measured on the determined sector only when a
        kernel is present).
    """

    gamma: np.ndarray
    undetermined_basis: List[np.ndarray]
    residual: float


def _eigenbasis(d: Dissipator) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    kappa, V = np.linalg.eigh(d.X)
    kappa = np.clip(kappa, 0.0, None)
    tol = default_tol(d.X)
    return kappa, V, kappa <= tol, tol


def steady_state(
    d: Dissipator,
    initial: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Solve ``{X, Gamma} = Y`` in the eigenbasis of X.

    Determined entries are ``Y_ab / (kappa_a + kappa_b)``.  Entries with
    ``kappa_a + kappa_b`` below tolerance are conserved by the flow; they are
    filled from ``initial`` projected into the kernel block (zero if absent)
    and the kernel basis is reported.

    Raises
    ------
    ValueError
        If ``Y`` does not vanish on a zero-rate block (inconsistent
        dissipator: fluctuations with no damping to balance them).
    """
    kappa, V, zero, _ = _eigenbasis(d)
    Yt = V.T @ d.Y @ V
    S = kappa[:, None] + kappa[None, :]
    dead = zero[:, None] & zero[None, :]
    y_on_kernel = np.abs(Yt[dead]).max() if dead.any() else 0.0
    if dead.any() and y_on_kernel > default_tol(d.Y):
        raise ValueError(
            f"Y does not vanish on the zero-damping block (max entry {y_on_kernel:.3e}); "
            "dissipator is internally inconsistent"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        Gt = np.where(dead, 0.0, Yt / np.where(dead, 1.0, S))
    if initial is not None and dead.any():
        G0t = V.T @ check_covariance(initial) @ V
        Gt = np.where(dead, G0t, Gt)
    Gt = 0.5 * (Gt - Gt.T)
    gamma = V @ Gt @ V.T
    gamma = 0.5 * (gamma - gamma.T)
    residual = float(np.linalg.norm(np.where(dead, 0.0, S * Gt - Yt)))
    kernel = [V[:, a].copy() for a in np.nonzero(zero)[0]]
    return SteadyStateResult(gamma, kernel, residual)


def _evolve_in_basis(d: Dissipator, eig, gamma0: np.ndarray, t: float) -> np.ndarray:
    """:func:`evolve` given ``eig = eigh(d.X)``.

    Callers that flow under one ``X`` several times decompose it once.
    """
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    gamma0 = check_covariance(gamma0)
    kappa, V = eig
    kappa = np.clip(kappa, 0.0, None)
    G0t = V.T @ gamma0 @ V
    Yt = V.T @ d.Y @ V
    S = kappa[:, None] + kappa[None, :]
    decay = np.exp(-S * t)
    small = S * t < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        ramp = np.where(small, t, -np.expm1(-S * t) / np.where(small, 1.0, S))
    Gt = decay * G0t + Yt * ramp
    gamma = V @ Gt @ V.T
    return 0.5 * (gamma - gamma.T)


def evolve(d: Dissipator, gamma0: np.ndarray, t: float) -> np.ndarray:
    """Exact evolution of ``Gamma`` under ``dGamma/dt = -{X, Gamma} + Y``.

    Closed form per X-eigenbasis entry; the zero-rate limit
    ``(1 - e^{-st})/s -> t`` is taken analytically, so kernels need no
    special casing.
    """
    return _evolve_in_basis(d, np.linalg.eigh(d.X), gamma0, t)


def zero_damping_modes(
    d: Dissipator,
    lindblads: Optional[Sequence[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Orthonormal real basis of ker X (decoherence-free Majorana modes).

    When the jump-operator vectors are supplied, each kernel vector ``v`` is
    verified against the equivalent condition ``l_i . v = 0`` (plain dot).
    """
    kappa, V, zero, tol = _eigenbasis(d)
    modes = [V[:, a].copy() for a in np.nonzero(zero)[0]]
    if lindblads is not None and modes:
        G = np.array([np.asarray(l, complex) for l in lindblads])
        for v in modes:
            worst = np.abs(G @ v).max() if G.size else 0.0
            if worst > 100 * np.sqrt(tol):
                raise ValueError(
                    f"kernel vector violates l.v = 0 (max |l.v| = {worst:.3e}); "
                    "supplied operators do not match the dissipator"
                )
    return modes


@dataclass(frozen=True)
class ModeCensus:
    """Counts of decoherence-free and completely mixed modes."""

    zero_damping_count: int
    zero_damping_edge_count: int
    zero_purity_count: int
    zero_purity_edge_count: int


def _edge_weight(vec: np.ndarray, window: np.ndarray) -> float:
    w = np.zeros(vec.shape[0], dtype=bool)
    w[window] = True
    total = float(np.sum(vec**2))
    return float(np.sum(vec[w] ** 2) / total) if total > 0 else 0.0


def mode_census_and_bulk_edge_check(
    d: Dissipator,
    gamma: np.ndarray,
    nu_left: int,
    nu_right: int,
    edge_window: Sequence[int],
) -> Tuple[ModeCensus, bool]:
    """Count zero-damping / zero-purity modes and test m_d + m_p >= |dnu|.

    Parameters
    ----------
    d, gamma : dissipator and its steady state.
    nu_left, nu_right : int
        Bulk invariants on the two sides of the interface under test.
    edge_window : sequence of int
        Majorana indices considered "edge"; a mode is edge-attributed when at
        least 90% of its weight lies in the window.  A purity value
        ``eps^2 <= 1e-6`` counts as zero.

    Returns
    -------
    (ModeCensus, bool)
        The boolean is the bulk-edge inequality
        ``m_damping + m_purity >= |nu_left - nu_right|`` evaluated on the
        edge-attributed counts.
    """
    window = np.asarray(list(edge_window), dtype=int)
    modes = zero_damping_modes(d)
    m_d = len(modes)
    m_d_edge = sum(1 for v in modes if _edge_weight(v, window) >= _EDGE_WEIGHT)

    # Consecutive eigenvectors of Gamma^T Gamma with eps^2 <= _ZERO_PURITY
    # pair into the zero-purity planes; an odd count means the last plane
    # straddles the threshold, and it counts with its one returned vector.
    gamma = check_covariance(gamma)
    w, vecs = eigh(gamma.T @ gamma, subset_by_value=(-np.inf, _ZERO_PURITY))
    m_p = (w.size + 1) // 2
    m_p_edge = sum(
        1 for b in range(0, w.size, 2)
        if np.mean([_edge_weight(v, window) for v in vecs.T[b:b + 2]]) >= _EDGE_WEIGHT
    )

    census = ModeCensus(m_d, m_d_edge, m_p, m_p_edge)
    holds = (m_d_edge + m_p_edge) >= abs(int(nu_left) - int(nu_right))
    return census, holds


@dataclass(frozen=True)
class BlockDecouplingReport:
    """Numerical confirmation that an undriven block decouples from the flow."""

    precondition_ok: bool
    max_operator_weight_on_block: float
    gamma_pp_drift: float
    coherence_decay_ok: bool
    passed: bool


def block_decoupling_check(
    d: Dissipator,
    lindblads: Sequence[np.ndarray],
    block: Sequence[int],
) -> BlockDecouplingReport:
    """Check that a block untouched by every jump operator is conserved.

    If all operator vectors vanish on the index set ``p`` then ``Gamma_pp``
    is a constant of motion and the cross block ``Gamma_pq`` decays at least
    as fast as the smallest damping rate of the complement.  Both are
    checked along the flow of one seeded random covariance, at eight times
    up to t = 20; ``Gamma_pp`` may drift by at most 1e-9.

    Parameters
    ----------
    block : sequence of int
        Majorana indices of the putative decoupled block ``p``.
    """
    n = d.num_majoranas
    p = np.asarray(sorted(set(int(i) for i in block)), dtype=int)
    q = np.asarray(sorted(set(range(n)) - set(p.tolist())), dtype=int)
    if p.size == 0:
        return BlockDecouplingReport(True, 0.0, 0.0, True, True)
    G = np.array([np.asarray(l, complex) for l in lindblads])
    op_weight = float(np.abs(G[:, p]).max()) if G.size else 0.0
    pre_ok = op_weight <= 1e-12

    # Random valid covariance: antisymmetric part of a random orthogonal
    # conjugation of a direct sum of rotation generators, scaled inside
    # the purity ball.
    rng = np.random.default_rng(7)
    R = np.linalg.qr(rng.standard_normal((n, n)))[0]
    base = np.zeros((n, n))
    for b in range(n // 2):
        base[2 * b, 2 * b + 1] = rng.uniform(-1, 1)
        base[2 * b + 1, 2 * b] = -base[2 * b, 2 * b + 1]
    gamma0 = check_covariance(R @ base @ R.T)

    Xqq = d.X[np.ix_(q, q)]
    gap_q = float(np.linalg.eigvalsh(Xqq).min()) if q.size else 0.0

    drift = 0.0
    coher_ok = True
    pq0 = np.linalg.norm(gamma0[np.ix_(p, q)])
    eig = np.linalg.eigh(d.X)
    for t in _DECOUPLING_TIMES:
        g = _evolve_in_basis(d, eig, gamma0, float(t))
        drift = max(drift, float(np.abs(g[np.ix_(p, p)] - gamma0[np.ix_(p, p)]).max()))
        bound = pq0 * np.exp(-gap_q * t) * (1 + 1e-8) + 1e-12
        if np.linalg.norm(g[np.ix_(p, q)]) > bound:
            coher_ok = False
    passed = pre_ok and drift <= _DRIFT_TOL and coher_ok
    return BlockDecouplingReport(pre_ok, op_weight, drift, coher_ok, passed)
