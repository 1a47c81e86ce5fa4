"""Steady states, exact time evolution, and mode censuses.

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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh

from .majorana import Dissipator, check_covariance, default_tol

__all__ = [
    "SteadyStateResult",
    "ModeCensus",
    "steady_state",
    "evolve",
    "zero_damping_modes",
    "mode_census_and_bulk_edge_check",
]

# mode_census_and_bulk_edge_check: the eigenvalue of the window projector on
# a zero-mode subspace that counts one edge mode, and the purity eps^2
# counted as 0.
_EDGE_WEIGHT = 0.9
_ZERO_PURITY = 1e-6

# _step_tables: below this S*t the ramp (1 - e^{-S t})/S is its limit t.
_SERIES_CUTOFF = 1e-12


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


def _eigenbasis(d: Dissipator) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kappa, V, zero)``: the finite layer's one ``eigh(X)`` and one zero-rate mask.

    The rates ``kappa`` are clipped at 0, and ``zero = kappa <= default_tol(X)``
    marks the decoherence-free modes.  ``steady_state``, ``evolve``,
    ``zero_damping_modes``, the census and every frame of
    ``adiabatic_evolve`` read X through it.
    """
    kappa, V = np.linalg.eigh(d.X)
    kappa = np.clip(kappa, 0.0, None)
    return kappa, V, kappa <= default_tol(d.X)


def _rotated_Y(d: Dissipator, V: np.ndarray) -> np.ndarray:
    """``V^T Y V``: the fluctuation matrix in the eigenbasis ``V`` of X."""
    return V.T @ d.Y @ V


def _step_tables(kappa: np.ndarray, Yt: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(decay, ramp * Yt)`` of the closed-form step of length ``t``; ``Yt`` is overwritten.

    With ``S_ab = kappa_a + kappa_b`` (the rates of :func:`_eigenbasis`, already
    clipped at 0), ``decay = e^{-S t}`` and ``ramp = (1 - e^{-S t}) / S``,
    whose limit ``t`` is taken where ``S t < _SERIES_CUTOFF``.  A step in the
    eigenbasis is then ``Gt -> decay * Gt + ramp * Yt``.  The tables do not
    depend on Gamma.
    """
    S = np.add.outer(kappa, kappa)
    decay = np.multiply(S, -t)
    small = decay > -_SERIES_CUTOFF
    ramp = np.expm1(decay)
    np.exp(decay, out=decay)
    np.negative(ramp, out=ramp)
    np.divide(ramp, S, out=ramp, where=~small)
    ramp[small] = t
    Yt *= ramp
    return decay, Yt


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
    kappa, V, zero = _eigenbasis(d)
    Yt = _rotated_Y(d, V)
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


def evolve(d: Dissipator, gamma0: np.ndarray, t: float) -> np.ndarray:
    """Exact evolution of ``Gamma`` under ``dGamma/dt = -{X, Gamma} + Y``.

    Closed form per X-eigenbasis entry; the zero-rate limit
    ``(1 - e^{-st})/s -> t`` is taken analytically, so kernels need no
    special casing.  Raises ``ValueError`` for a negative or non-finite ``t``.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time must be finite and nonnegative, got {t}")
    gamma0 = check_covariance(gamma0)
    kappa, V, _ = _eigenbasis(d)
    decay, rampY = _step_tables(kappa, _rotated_Y(d, V), t)
    Gt = decay * (V.T @ gamma0 @ V) + rampY
    gamma = V @ Gt @ V.T
    return 0.5 * (gamma - gamma.T)


def zero_damping_modes(d: Dissipator) -> List[np.ndarray]:
    """Orthonormal real basis of ker X (decoherence-free Majorana modes)."""
    _, V, zero = _eigenbasis(d)
    return [V[:, a].copy() for a in np.nonzero(zero)[0]]


@dataclass(frozen=True)
class ModeCensus:
    """Counts of decoherence-free and completely mixed modes."""

    zero_damping_count: int
    zero_damping_edge_count: int
    zero_purity_count: int
    zero_purity_edge_count: int


def _edge_count(basis: np.ndarray, window: np.ndarray) -> int:
    """Eigenvalues of ``B^T P_W B`` at or above ``_EDGE_WEIGHT``.

    ``B`` has orthonormal columns and ``window`` is a boolean row mask, so
    ``B^T P_W B`` is the Gram matrix of the window rows of ``B``; its
    spectrum depends on the span of ``B`` only, not on the basis chosen.
    """
    rows = basis[window]
    return int((np.linalg.eigvalsh(rows.T @ rows) >= _EDGE_WEIGHT).sum())


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
        Majorana indices considered "edge".  With ``B`` an orthonormal basis
        of ker X (or of the zero-purity subspace) and ``P_W`` the projector
        on the window, each eigenvalue of ``B^T P_W B`` at or above 0.9
        counts one edge Majorana; zero-purity edge Majoranas pair into
        ``(count + 1) // 2`` planes.  The count does not depend on the basis
        LAPACK returns for a degenerate kernel.  A purity value
        ``eps^2 <= 1e-6`` counts as zero.

    Returns
    -------
    (ModeCensus, bool)
        The boolean is the bulk-edge inequality
        ``m_damping + m_purity >= |nu_left - nu_right|`` evaluated on the
        edge-attributed counts.
    """
    _, V, zero = _eigenbasis(d)
    window = np.zeros(V.shape[0], dtype=bool)
    window[list(edge_window)] = True
    m_d = int(zero.sum())
    m_d_edge = _edge_count(V[:, zero], window)

    # Eigenvectors of Gamma^T Gamma with eps^2 <= _ZERO_PURITY span the
    # zero-purity planes; an odd count means the last plane straddles the
    # threshold, and it counts with its one returned vector.
    gamma = check_covariance(gamma)
    w, vecs = eigh(gamma.T @ gamma, subset_by_value=(-np.inf, _ZERO_PURITY))
    m_p = (w.size + 1) // 2
    m_p_edge = (_edge_count(vecs, window) + 1) // 2

    census = ModeCensus(m_d, m_d_edge, m_p, m_p_edge)
    holds = (m_d_edge + m_p_edge) >= abs(int(nu_left) - int(nu_right))
    return census, holds
