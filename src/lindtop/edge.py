"""Analytic Majorana zero-damping edge modes for translation-invariant stencils.

A zero-damping mode of a quasi-local jump-operator family is an exponential
ansatz ``gamma ~ sum_m alpha_m c_m`` with site amplitude
``alpha_m = e^{i phi/2} prod_n beta_n^{m_n}``.  Requiring every bulk jump
operator to annihilate the mode gives one polynomial condition per momentum
direction:

    0 = P(beta) = sum_j beta^j (e^{-i phi} u_j + v_j)

where (u_j, v_j) are the stencil coefficients at offset j.  Real roots beta
give edge modes decaying on the length scale ``xi = 1/|log|beta||``.

In 1D the real roots of P come from its companion matrix.  In 2D a real root
(beta_x, beta_y) is a common root of the two real polynomials Re P and Im P.
Eliminating beta_x with their Sylvester matrix S(beta_y) leaves the resultant
``det S(beta_y)``, whose real roots are the generalized eigenvalues of a
block-companion linearization of S (Cox, Little & O'Shea, *Using Algebraic
Geometry*, ch. 3).  Each such beta_y is substituted back into P for the real
beta_x roots, and every pair is Newton-polished on (Re P, Im P) and kept only
if it solves the Laurent condition.  Two 2D conditions have no isolated real
roots and raise ``ValueError``: one with no imaginary part, and one whose real
and imaginary parts share a factor (the resultant vanishes identically); in
both the real roots form curves.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg

from .bloch import BlochStencil
from .models import FiniteRealization, ModelInstance

__all__ = [
    "BetaSolution",
    "MajoranaMode",
    "LocalizationFit",
    "solve_beta",
    "build_mode",
    "fit_localization",
]

_REAL_ROOT_TOL = 1e-10
# A resultant root of multiplicity m is computed to about eps^(1/m), so 2D
# candidates are accepted with this looser imaginary part, then Newton-polished
# and kept only if their Laurent residual passes.
_CANDIDATE_TOL = 1e-6
# Relative smallest singular value below which a Sylvester matrix is singular.
_SINGULAR_TOL = 1e-10
_PROBES = (0.83 * cmath.exp(0.9j), 1.21 * cmath.exp(2.3j), cmath.exp(-1.7j))


@dataclass(frozen=True)
class BetaSolution:
    """One real decay factor per primitive direction, at edge phase phi."""

    betas: Tuple[float, ...]
    phase: float
    localization_lengths: Tuple[float, ...]
    residual: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.betas)

    def normalizable(self, inward_signs: Sequence[int]) -> bool:
        """True if |beta| < 1 along every declared inward direction.

        ``inward_signs[n] = +1`` means the bulk lies towards increasing
        coordinate n (mode sits at the low edge); ``-1`` the opposite.  A
        direction with |beta| = 1 (periodic/cylinder) never obstructs.
        """
        for b, s in zip(self.betas, inward_signs):
            mag = abs(b) if s >= 0 else 1.0 / abs(b)
            if mag > 1.0 + 1e-12:
                return False
        return True


def _xi(beta: float) -> float:
    mag = abs(beta)
    if abs(mag - 1.0) <= 1e-12:
        return math.inf
    return 1.0 / abs(math.log(mag))


def _polish_root(coeffs: np.ndarray, z: complex, steps: int = 3) -> complex:
    """A few Newton steps on the polynomial with highest-order-first coeffs."""
    p = np.polynomial.Polynomial(coeffs[::-1])
    dp = p.deriv()
    for _ in range(steps):
        d = dp(z)
        if abs(d) < 1e-300:
            break
        z = z - p(z) / d
    return z


def _real_nonzero_roots(coeffs: np.ndarray, tol: float = _REAL_ROOT_TOL) -> List[float]:
    """Real nonzero roots of sum_m coeffs[m] beta^m (ascending powers)."""
    c = np.trim_zeros(np.asarray(coeffs, complex), "b")
    if c.size <= 1:
        return []
    roots = np.roots(c[::-1])
    out: List[float] = []
    for r in roots:
        r = _polish_root(c[::-1], complex(r))
        if abs(r.imag) <= tol * max(1.0, abs(r)) and abs(r) > 1e-12:
            out.append(float(r.real))
    # Deduplicate (multiple roots polish to the same point).
    dedup: List[float] = []
    for r in sorted(out):
        if not dedup or abs(r - dedup[-1]) > 1e-9 * max(1.0, abs(r)):
            dedup.append(r)
    return dedup


def _stencil_coeffs(stencil: BlochStencil, phase: float) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets (K, d) and condition coefficients e^{-i phi} u_j + v_j."""
    offs = np.asarray(stencil.offsets, dtype=int)
    if offs.ndim == 1:
        offs = offs[:, None]
    c = np.exp(-1j * phase) * np.asarray(stencil.u, complex) + np.asarray(stencil.v, complex)
    return offs, c


def solve_beta(stencil: BlochStencil, phase: float = 0.0) -> List[BetaSolution]:
    """All real-decay-factor edge-mode solutions at edge phase ``phase``.

    Solves ``sum_j beta^j (e^{-i phase} u_j + v_j) = 0`` for real nonzero
    beta (one factor per primitive direction).  In 2D the beta_y roots are
    the real roots of the resultant of the real and imaginary parts in
    beta_x; each is back-substituted for its real beta_x roots, Newton-
    polished and validated to a Laurent residual of 1e-8 relative to the
    largest coefficient.  2D solutions are sorted by (beta_y, beta_x).

    Returns an empty list when only complex roots exist.  Raises
    ``ValueError`` for a degenerate stencil imposing no constraint, and in 2D
    when the real roots form a curve instead of isolated points: the
    condition has no imaginary part, or its real and imaginary parts share a
    common factor.
    """
    offs, c = _stencil_coeffs(stencil, float(phase))
    if np.abs(c).max() <= 1e-14:
        raise ValueError(
            "degenerate stencil: e^{-i phi} u + v vanishes identically; "
            "the zero-mode condition imposes no constraint"
        )
    dim = offs.shape[1]
    if dim == 1:
        return _solve_beta_1d(offs[:, 0], c, float(phase))
    if dim == 2:
        return _solve_beta_2d(offs, c, float(phase))
    raise ValueError("edge-mode solver supports 1D and 2D stencils only")


def _solve_beta_1d(offsets: np.ndarray, c: np.ndarray, phase: float) -> List[BetaSolution]:
    lo = int(offsets.min())
    poly = np.zeros(int(offsets.max()) - lo + 1, dtype=complex)
    for j, cj in zip(offsets, c):
        poly[int(j) - lo] += cj
    sols = []
    for b in _real_nonzero_roots(poly):
        res = abs(np.polynomial.Polynomial(poly)(b))
        sols.append(BetaSolution((b,), phase, (_xi(b),), float(res)))
    return sols


def _poly_matrix(offs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficient matrix C[mx, my] after clearing beta^{-1} denominators."""
    lox, loy = int(offs[:, 0].min()), int(offs[:, 1].min())
    C = np.zeros((int(offs[:, 0].max()) - lox + 1, int(offs[:, 1].max()) - loy + 1), complex)
    for (jx, jy), cj in zip(offs, c):
        C[int(jx) - lox, int(jy) - loy] += cj
    return C


def _trim_rows(M: np.ndarray) -> np.ndarray:
    """Drop all-zero leading and trailing rows (beta_x^a factors, degree drop)."""
    rows = np.nonzero(M.any(axis=1))[0]
    return M[rows[0]: rows[-1] + 1] if rows.size else M[:0]


def _sylvester(Pr: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """Sylvester matrix of Pr, Pi in beta_x, as coefficients S[k] of beta_y^k.

    ``Pr[i, k]`` is the coefficient of ``beta_x^i beta_y^k``.  Row i < n holds
    ``beta_x^i Pr`` and row n + i holds ``beta_x^i Pi`` (m, n their beta_x
    degrees); ``det sum_k S[k] beta_y^k`` is the resultant ``Res_{beta_x}``.
    """
    m, n = Pr.shape[0] - 1, Pi.shape[0] - 1
    S = np.zeros((Pr.shape[1], m + n, m + n))
    for i in range(n):
        S[:, i, i: i + m + 1] = Pr.T
    for i in range(m):
        S[:, n + i, i: i + n + 1] = Pi.T
    return S


def _resultant_vanishes(S: np.ndarray) -> bool:
    """True if ``det S(beta_y)`` is identically zero: S is singular at
    every probe point (three fixed complex points off the real axis)."""
    for t in _PROBES:
        sv = np.linalg.svd(np.tensordot(t ** np.arange(len(S)), S, 1), compute_uv=False)
        if sv.size == 0 or sv[-1] > _SINGULAR_TOL * sv[0]:
            return False
    return True


def _real_eigen_roots(S: np.ndarray) -> List[float]:
    """Real nonzero finite roots of ``det sum_k S[k] lam^k`` from the
    generalized eigenvalues of its block-companion linearization."""
    nz = np.nonzero([np.any(Sk) for Sk in S])[0]
    d = int(nz[-1]) if nz.size else 0
    if d == 0:
        return []
    N = S.shape[1]
    A = np.eye(N * d, k=N)
    A[-N:] = -np.concatenate(S[:d], axis=1)
    B = np.eye(N * d)
    B[-N:, -N:] = S[d]
    alpha, beta = linalg.eigvals(A, B, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-12 * np.abs(alpha)
    lam = alpha[finite] / beta[finite]
    keep = (np.abs(lam.imag) <= _CANDIDATE_TOL * np.maximum(1.0, np.abs(lam))) & (
        np.abs(lam) > 1e-12
    )
    return [float(x) for x in lam[keep].real]


def _newton_polish(C: np.ndarray, bx: float, by: float, steps: int = 8) -> Tuple[float, float]:
    """Newton on the real 2x2 system (Re P, Im P) = 0 in (beta_x, beta_y).

    Returns the iterate with the smallest |P|, so a step that diverges from
    a near-singular Jacobian never makes the candidate worse.
    """
    px, py = np.arange(C.shape[0]), np.arange(C.shape[1])
    best, best_f = (bx, by), math.inf
    for _ in range(steps):
        vx, vy = bx ** px, by ** py
        f = complex(vx @ C @ vy)
        if abs(f) < best_f:
            best, best_f = (bx, by), abs(f)
        fx = complex((px[1:] * bx ** px[:-1]) @ C[1:] @ vy)
        fy = complex(vx @ C[:, 1:] @ (py[1:] * by ** py[:-1]))
        det = fx.real * fy.imag - fy.real * fx.imag
        if det == 0.0:
            break
        bx -= (f.real * fy.imag - fy.real * f.imag) / det
        by -= (fx.real * f.imag - f.real * fx.imag) / det
    return best


def _solve_beta_2d(offs: np.ndarray, c: np.ndarray, phase: float) -> List[BetaSolution]:
    C = _poly_matrix(offs, c)
    scale = float(np.abs(c).max())
    Pr = np.where(np.abs(C.real) > 1e-14 * scale, C.real, 0.0)
    Pi = np.where(np.abs(C.imag) > 1e-14 * scale, C.imag, 0.0)
    if not Pi.any():
        raise ValueError(
            "2D condition has no imaginary part: it is one real equation, "
            "whose real roots form a curve rather than isolated points"
        )
    Pr, Pi = _trim_rows(Pr), _trim_rows(Pi)
    if Pr.shape[0] <= 1 and Pi.shape[0] == 1:
        # Neither part involves beta_x: real roots are whole lines beta_y =
        # const, which exist exactly when the beta_y resultant vanishes.
        Pr, Pi = _trim_rows(Pr.T), _trim_rows(Pi.T)
    S = _sylvester(Pr, Pi) if Pr.any() else None
    if S is None or _resultant_vanishes(S):
        raise ValueError(
            "real and imaginary parts of the 2D condition share a common "
            "factor (their resultant vanishes identically): the real roots "
            "form a curve rather than isolated points"
        )
    pairs: List[Tuple[float, float, float]] = []
    for by0 in _real_eigen_roots(S):
        poly = C @ (by0 ** np.arange(C.shape[1]))
        for bx0 in _real_nonzero_roots(poly, _CANDIDATE_TOL):
            bx, by = _newton_polish(C, bx0, by0)
            if abs(bx) <= 1e-12 or abs(by) <= 1e-12:
                continue
            # Validate against the original Laurent condition: clearing the
            # beta^{-1} denominators introduces a spurious root at the origin.
            res = abs(np.sum(c * bx ** offs[:, 0] * by ** offs[:, 1])) / scale
            if res <= 1e-8 and not any(
                abs(bx - qx) <= 1e-8 * abs(bx) and abs(by - qy) <= 1e-8 * abs(by)
                for qx, qy, _ in pairs
            ):
                pairs.append((bx, by, float(res)))
    return [
        BetaSolution((bx, by), phase, (_xi(bx), _xi(by)), res)
        for bx, by, res in sorted(pairs, key=lambda p: (p[1], p[0]))
    ]


# ---------------------------------------------------------------------------
# Explicit mode construction and localization fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajoranaMode:
    """A unit-norm real Majorana vector with its damping residual."""

    vector: np.ndarray
    residual: float
    solution: BetaSolution
    edge: Tuple[int, ...]   # -1: low edge, +1: high edge, 0: delocalized


def build_mode(
    solution: BetaSolution,
    model: ModelInstance,
    extent,
    boundary: str = "open",
    realization: Optional[FiniteRealization] = None,
) -> MajoranaMode:
    """Materialize a BetaSolution on a finite lattice and verify ``X v ~ 0``.

    The amplitude at site m is ``alpha_m = e^{i phi/2} prod_n beta_n^{m_n}``
    measured from the edge the mode decays away from; Majorana components are
    ``v[2s] = Im alpha, v[2s+1] = Re alpha``.  The residual is ``|X v|`` for
    the jump operators placed fully inside the lattice.

    Raises ``ValueError`` when |beta| != 1 along a periodic direction of the
    requested boundary (the mode is not single-valued on the ring).
    """
    ext = (int(extent),) if np.isscalar(extent) else tuple(int(e) for e in extent)
    if len(ext) != solution.dim:
        raise ValueError("extent and solution dimension differ")
    open_dirs = _open_directions(len(ext), boundary)
    edge = []
    for n, b in enumerate(solution.betas):
        mag = abs(b)
        if n in open_dirs:
            edge.append(-1 if mag < 1.0 else (+1 if mag > 1.0 else 0))
        else:
            if abs(mag - 1.0) > 1e-12:
                raise ValueError(
                    f"|beta_{n}| = {mag:.6g} != 1 along the periodic direction {n}; "
                    "the mode is not single-valued on the ring"
                )
            edge.append(0)

    if realization is None:
        realization = model.finite_realization(ext, boundary=boundary)
    pos = realization.positions()
    log_amp = np.zeros(pos.shape[0])
    sign = np.ones(pos.shape[0])
    for n, b in enumerate(solution.betas):
        m = pos[:, n] if edge[n] <= 0 else (ext[n] - 1) - pos[:, n]
        base = abs(b) if edge[n] != +1 else 1.0 / abs(b)
        log_amp += m * math.log(base) if base != 1.0 else 0.0
        if b < 0:
            sign *= np.where(pos[:, n].astype(int) % 2 == 0, 1.0, -1.0)
    amp = sign * np.exp(log_amp - log_amp.max())
    alpha = amp * cmath.exp(0.5j * solution.phase)
    vec = np.zeros(2 * pos.shape[0])
    vec[0::2] = np.imag(alpha)
    vec[1::2] = np.real(alpha)
    nrm = np.linalg.norm(vec)
    if nrm <= 0:
        raise ValueError("mode amplitude vanished on the finite lattice")
    vec /= nrm
    residual = float(np.linalg.norm(realization.damping_matrix() @ vec))
    return MajoranaMode(vec, residual, solution, tuple(edge))


def _open_directions(dim: int, boundary: str) -> Tuple[int, ...]:
    if boundary == "open":
        return tuple(range(dim))
    if boundary == "periodic":
        return ()
    if boundary == "cylinder":
        if dim != 2:
            raise ValueError("cylinder boundary requires a 2D lattice")
        return (0,)
    raise ValueError(f"unknown boundary {boundary!r}")


@dataclass(frozen=True)
class LocalizationFit:
    xi: float
    r_squared: float
    delocalized: bool


def fit_localization(
    vector: np.ndarray,
    extent,
    axis: int = 0,
    floor: float = 1e-7,
) -> LocalizationFit:
    """Least-squares exponential decay length of a Majorana vector.

    Site amplitudes are summed in quadrature over the transverse directions;
    the log-profile is fitted linearly from the peak inward, stopping at
    ``floor`` times the peak (to exclude the opposite-edge tail and noise).
    A near-flat profile is reported as delocalized.
    """
    ext = (int(extent),) if np.isscalar(extent) else tuple(int(e) for e in extent)
    v = np.asarray(vector, float)
    amps2 = v[0::2] ** 2 + v[1::2] ** 2
    profile = np.sqrt(amps2.reshape(ext).sum(axis=tuple(i for i in range(len(ext)) if i != axis)))
    peak = int(np.argmax(profile))
    inward = 1 if peak < len(profile) / 2 else -1
    xs, ys = [], []
    i = peak
    while 0 <= i < len(profile) and profile[i] >= floor * profile[peak]:
        xs.append(abs(i - peak))
        ys.append(math.log(profile[i]))
        i += inward
    if len(xs) < 3:
        return LocalizationFit(0.0, 1.0, False)
    xs_a, ys_a = np.asarray(xs, float), np.asarray(ys)
    slope, intercept = np.polyfit(xs_a, ys_a, 1)
    fitted = slope * xs_a + intercept
    ss_res = float(((ys_a - fitted) ** 2).sum())
    ss_tot = float(((ys_a - ys_a.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if abs(slope) < 1e-3:
        return LocalizationFit(math.inf, r2, True)
    return LocalizationFit(-1.0 / slope, r2, False)
