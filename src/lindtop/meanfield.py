"""Mean-field linearization of number-conserving quartic jump operators.

A quartic operator ``l = C^dag A`` (pump into the band created by C, drain
from the band annihilated by A) is linearized at fixed phase to
``L = C^dag + alpha A``.  The modulus ``r = |alpha|`` is fixed by the mean
filling of the resulting Gaussian steady state; the phase is spontaneous and
enters only as a gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bloch import BlochStencil, bz_grid

__all__ = [
    "MeanFieldSolution",
    "FluctuationTable",
    "linearize",
    "solve_number_equation",
    "fluctuation_scaling",
]

# solve_number_equation: BZ grid points per axis, and the relative width of
# the final bisection bracket.
_NUMBER_NK = 256
_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class MeanFieldSolution:
    """Fixed-phase linearization parameters at a target filling."""

    alpha_modulus: float
    kappa0: float
    filling: float


def linearize(stencil: BlochStencil, alpha: complex) -> BlochStencil:
    """Linearized stencil for ``L = C^dag + alpha A``.

    The stencil's creation coefficients define C^dag and its annihilation
    coefficients define A; linearization scales the annihilation part by
    alpha.  Requires the creation part symmetric and the annihilation part
    antisymmetric about the stencil's center (the dark-state equivalence of
    the quartic and linearized models rests on this exchange symmetry).
    """
    if not stencil.is_pure_capable():
        raise ValueError(
            "linearize requires a symmetric creation / antisymmetric "
            "annihilation stencil about a common center"
        )
    u = np.asarray(stencil.u, complex) * complex(alpha)
    return replace(stencil, u=tuple(u.tolist()))


def _mode_weights(u2: np.ndarray, v2: np.ndarray, r: float) -> Tuple[np.ndarray, np.ndarray]:
    """(n_k, denom) with n_k = r^2 |v_k|^2 / (|u_k|^2 + r^2 |v_k|^2), from |u_k|^2, |v_k|^2."""
    denom = u2 + r * r * v2
    if np.any(denom <= 1e-300):
        raise ValueError("u and v vanish simultaneously on the grid; symbol invalid")
    return (r * r * v2) / denom, denom


def solve_number_equation(stencil: BlochStencil, filling: float) -> MeanFieldSolution:
    """Solve the number equation ``mean_k n_k(r) = filling`` for r >= 0.

    ``n_k = r^2 |v_k|^2 / (|u_k|^2 + r^2 |v_k|^2)`` is the filling of mode k
    in the steady state of ``L_k = v_k a_k^dag - r e^{i theta} u_k a_{-k}``
    (the phase drops out).  Monotone in r, solved by bisection after doubling
    the bracket until overshoot.  Also evaluates the effective base rate
    ``kappa0 = mean_k |ubar_k vbar_k|^2`` at the solution, with
    (ubar, vbar) = (u, r v)/sqrt(|u|^2 + r^2 |v|^2).  Each symbol of the
    stencil is evaluated once, on one grid.
    """
    if not 0.0 < filling < 1.0:
        raise ValueError("target filling must lie strictly between 0 and 1")
    ks = bz_grid(_NUMBER_NK, stencil.dim, offset=0.5)
    v_abs = np.abs(stencil.v_symbol(ks))
    if float(v_abs.max()) <= 1e-14:
        raise ValueError("creation symbol v vanishes identically; filling > 0 unattainable")
    u2, v2 = np.abs(stencil.u_symbol(ks)) ** 2, v_abs**2

    def n_of(r: float) -> float:
        return float(_mode_weights(u2, v2, r)[0].mean())

    r_hi = 1.0
    while n_of(r_hi) < filling:
        r_hi *= 2.0
        if r_hi > 1e12:
            raise ValueError(
                f"filling {filling} unattainable: mean n_k saturates at "
                f"{n_of(1e12):.6f} (annihilation symbol has zeros of v underneath)"
            )
    r_lo = 0.0
    while r_hi - r_lo > _BISECT_TOL * max(1.0, r_hi):
        mid = 0.5 * (r_lo + r_hi)
        if n_of(mid) < filling:
            r_lo = mid
        else:
            r_hi = mid
    r = 0.5 * (r_lo + r_hi)
    nk_vals, denom = _mode_weights(u2, v2, r)
    kappa0 = float((u2 * r * r * v2 / denom**2).mean())
    return MeanFieldSolution(r, kappa0, float(nk_vals.mean()))


@dataclass(frozen=True)
class FluctuationTable:
    """Relative number fluctuation of the fixed-phase state vs system size."""

    sizes: Tuple[int, ...]
    values: Tuple[float, ...]          # Delta N^2 per size; nan if undefined
    fitted_power: Optional[float]      # slope of log DeltaN^2 vs log L


def fluctuation_scaling(
    stencil: BlochStencil,
    alpha_modulus: float,
    sizes: Sequence[int],
) -> FluctuationTable:
    """``Delta N^2 = sum_k n_k (1 - n_k) / (sum_k n_k)^2`` on L-point grids.

    For a d-dimensional stencil each size L means an L^d periodic lattice, so
    the expected scaling is ``Delta N^2 ~ 1/L^d``.  A fully empty state
    (all n_k = 0) has undefined relative fluctuations, reported as nan and
    excluded from the fit.
    """
    r = float(alpha_modulus)
    vals: List[float] = []
    for L in sizes:
        if r == 0.0:
            # Empty state regardless of the grid; avoid 0/0 at zeros of u.
            vals.append(math.nan)
            continue
        ks = bz_grid(int(L), stencil.dim, offset=0.0)
        u2, v2 = np.abs(stencil.u_symbol(ks)) ** 2, np.abs(stencil.v_symbol(ks)) ** 2
        n_k = _mode_weights(u2, v2, r)[0].reshape(-1)
        total = float(n_k.sum())
        if total <= 0.0:
            vals.append(math.nan)
            continue
        vals.append(float((n_k * (1.0 - n_k)).sum()) / total**2)
    good = [(L, v) for L, v in zip(sizes, vals) if not math.isnan(v) and v > 0]
    power = None
    if len(good) >= 2:
        xs = np.log([L for L, _ in good])
        ys = np.log([v for _, v in good])
        power = float(np.polyfit(xs, ys, 1)[0])
    return FluctuationTable(tuple(int(L) for L in sizes), tuple(vals), power)
