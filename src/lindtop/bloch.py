"""Momentum-space analysis of translation-invariant dissipative models.

A translation-invariant jump-operator family is described by a
:class:`BlochStencil`: finite lists of creation coefficients ``v_r`` and
annihilation coefficients ``u_r`` on integer offsets ``r``.  Its momentum
symbol (with ``a_k = N^{-1/2} sum_n e^{-ik n} a_n``) is

    v(k) = sum_r v_r e^{-i k.r},      u(k) = -sum_r u_r e^{-i k.r},

so the Fourier-transformed operator reads ``L_k = v(k) a_k^dag - u(k) a_{-k}``
and couples only the mode pair ``(k, -k)``.  The steady state of a quadratic
Lindbladian is Gaussian, and in the Nambu basis ``(a_k, a_{-k}^dag)`` each
pair sector reduces exactly to Hermitian 2x2 blocks: the damping block A and
the block D with ``{A, H} = D`` for the steady state H (the 4x4 real
Majorana blocks of Prosen, "Third quantization", New J. Phys. 10, 043026
(2008), are ``A (+) conj(A)`` and its partners up to one fixed unitary).
One elementwise kernel (one phase table ``e^{-ik.r}`` per family and grid,
which with the conjugate coefficients also gives the symbols at ``-k``)
builds A and D.  The table is a product of per-axis factors: one exponential
``e^{-i|r_a| k_a}`` per axis and distinct nonzero ``|r_a|``, read conjugated
for ``r_a < 0``, so a nearest-neighbour 2D stencil costs two exponentials
per k whatever its number of offsets.  Closed forms then give
:func:`sector_rates` (the eigenvalues of A) and :func:`momentum_state` (H,
written out as the 2x2 flavor-basis correlation matrix ``Gamma(k)``, with
flavors ``c_1 = a^dag + a``, ``c_2 = i(a^dag - a)``); :func:`bloch_blocks`
embeds the same blocks in the 4x4 Majorana basis.  The flattened unit-vector field
``n(k)`` with ``i Gamma_bar(k) = n(k).sigma`` feeds the winding-number and
Chern-number invariants, and a thin SVD of its samples gives the chiral axis.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "BlochStencil",
    "MomentumState",
    "FlattenedState",
    "bz_grid",
    "momentum_state",
    "sector_rates",
    "bloch_blocks",
    "classify_symmetry",
    "flatten",
    "flattened_from_n",
    "winding_number",
    "chern_number",
    "windings_around_u_zeros",
    "find_symmetry_center",
    "GapClosedError",
    "SymmetryClass",
    "UZeroWinding",
]

#: Uniform amplitude rescaling applied to every jump operator built from a
#: stencil (finite realizations and momentum sectors alike), fixing the rate
#: unit so that damping spectra match the standard closed forms.
RATE_SCALE = 2.0

# Largest |u_r + u_mirror| or |v_r - v_mirror| of a pure-capable stencil.
_MIRROR_TOL = 1e-12
# Largest |a.n(k)| of a chiral axis a, in classification and winding alike.
_CHIRAL_TOL = 1e-8
# Grid of the chiral-axis test in classify_symmetry, per dimension.
_CLASS_NK = {1: 128, 2: 48}
# _confirm_u_zero: refinement levels, subgrid points per axis, and the
# fraction of max |u| below which |u| counts as a zero.
_ZERO_LEVELS, _ZERO_SUBGRID, _ZERO_REL_TOL = 4, 9, 1e-2
# Largest distance of a winding or Chern sum from its nearest integer.
_INTEGRAL_TOL = 1e-6


class GapClosedError(ValueError):
    """A spectral gap required by the requested quantity closes at some k."""

    def __init__(self, message: str, k):
        super().__init__(message)
        self.k = k


@dataclass(frozen=True)
class BlochStencil:
    """Quasi-local translation-invariant jump-operator pattern.

    Parameters
    ----------
    dim : int
        Lattice dimension (1 or 2).
    offsets : tuple of int tuples
        Integer offsets carrying coefficients.
    u, v : tuple of complex
        Annihilation (``a_{n+r}``) and creation (``a^dag_{n+r}``)
        coefficients aligned with ``offsets``.
    center : tuple of float, optional
        Symmetry center (site- or bond-centered) when one exists.
    """

    dim: int
    offsets: Tuple[Tuple[int, ...], ...]
    u: Tuple[complex, ...]
    v: Tuple[complex, ...]
    center: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        offs = tuple(tuple(int(x) for x in o) for o in self.offsets)
        if any(len(o) != self.dim for o in offs):
            raise ValueError("every offset must have length dim")
        if len(set(offs)) != len(offs):
            raise ValueError("duplicate offsets")
        u = tuple(complex(x) for x in self.u)
        v = tuple(complex(x) for x in self.v)
        if not (len(offs) == len(u) == len(v)):
            raise ValueError("offsets, u, v must have equal length")
        if not all(cmath.isfinite(x) for x in u + v):
            raise ValueError("stencil coefficients u, v are not finite: they hold NaN or inf")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if self.center is not None:
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _phases(self, k: np.ndarray) -> np.ndarray:
        """e^{-i k.r} for every offset, offset axis first: shape (m,) + k.shape[:-1].

        Built from per-axis factors: one exponential table e^{-i|r_a| k_a} per
        axis a and distinct nonzero |r_a|, its conjugate for r_a < 0 (k is
        real), and for each offset the product of its axis factors.  A 2D
        stencil with |r_a| <= 1 takes two exponentials per k, not one per offset.
        """
        tables = {}
        for a in range(self.dim):
            col = {r[a] for r in self.offsets}
            for m in {abs(x) for x in col} - {0}:
                tables[a, m] = np.exp(-1j * (m * k[..., a]))
                if -m in col:
                    tables[a, -m] = tables[a, m].conj()
        out = np.empty((len(self.offsets),) + k.shape[:-1], dtype=complex)
        for j, r in enumerate(self.offsets):
            factors = [tables[a, x] for a, x in enumerate(r) if x]
            if not factors:
                out[j] = 1.0
            elif len(factors) == 1:
                out[j] = factors[0]
            else:
                np.multiply(*factors, out=out[j])
        return out

    def u_symbol(self, k) -> np.ndarray:
        """u(k) = -sum_r u_r e^{-i k.r} (coefficient of ``a_{-k}`` in -L_k)."""
        k = _as_kvec(k, self.dim)
        return -np.tensordot(self.u, self._phases(k), axes=1)

    def v_symbol(self, k) -> np.ndarray:
        """v(k) = sum_r v_r e^{-i k.r} (coefficient of ``a_k^dag`` in L_k)."""
        k = _as_kvec(k, self.dim)
        return np.tensordot(self.v, self._phases(k), axes=1)

    def is_pure_capable(self) -> bool:
        """True when u is odd and v even about a symmetry center."""
        center = self.center if self.center is not None else find_symmetry_center(self)
        if center is None:
            return False
        table = {o: i for i, o in enumerate(self.offsets)}
        for i, o in enumerate(self.offsets):
            mirror = tuple(int(round(2 * c - x)) for c, x in zip(center, o))
            j = table.get(mirror)
            uj = self.u[j] if j is not None else 0.0
            vj = self.v[j] if j is not None else 0.0
            if abs(self.u[i] + uj) > _MIRROR_TOL or abs(self.v[i] - vj) > _MIRROR_TOL:
                return False
        return True


def find_symmetry_center(stencil: BlochStencil) -> Optional[Tuple[float, ...]]:
    """Search for a center making u odd and v even; None if there is none."""
    offs = np.array(stencil.offsets, dtype=float)
    candidates = {tuple((a + b) / 2.0) for a in offs for b in offs}
    for c in sorted(candidates):
        trial = BlochStencil(stencil.dim, stencil.offsets, stencil.u, stencil.v, center=c)
        if trial.is_pure_capable():
            return c
    return None


Families = Union[BlochStencil, Sequence[Tuple[float, BlochStencil]]]


def _families(model: Families) -> List[Tuple[float, BlochStencil]]:
    if isinstance(model, BlochStencil):
        return [(1.0, model)]
    if hasattr(model, "families"):   # ModelInstance and friends
        model = model.families
    fams = [(float(w), s) for (w, s) in model]
    if not fams:
        raise ValueError("empty family list")
    for w, _ in fams:
        if not 0.0 <= w < np.inf:   # NaN fails both comparisons
            raise ValueError(f"family prefactor w = {w!r} is not finite and nonnegative")
    dims = {s.dim for _, s in fams}
    if len(dims) != 1:
        raise ValueError("families must share the lattice dimension")
    return fams


def _as_kvec(k, dim: int) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:
        if dim != 1:
            raise ValueError("scalar k only valid for 1D")
        return k.reshape(1)
    if k.shape[-1] != dim:
        if dim == 1:
            return k[..., None]
        raise ValueError(f"k must have last axis of length {dim}")
    return k


def bz_grid(nk: int, dim: int, offset: float = 0.0) -> np.ndarray:
    """Uniform Brillouin-zone grid, k in [-pi, pi), endpoint excluded.

    ``offset`` (in units of the grid spacing) shifts the grid away from
    high-symmetry points when needed.
    """
    axis = -np.pi + (np.arange(nk) + offset) * (2 * np.pi / nk)
    if dim == 1:
        return axis[:, None]
    kx, ky = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([kx, ky], axis=-1)


# ---------------------------------------------------------------------------
# Gaussian pair-sector kernel
# ---------------------------------------------------------------------------

#: Unitary taking the Nambu blocks ``A (+) conj(A)`` of a sector to its real
#: 4x4 Majorana block: ``X_k = U (A (+) conj(A)) U^dag``, likewise ``Y_k``
#: from ``B = iD`` and ``Gamma_k`` from ``G = iH`` (see :func:`bloch_blocks`).
_NAMBU_TO_MAJORANA = np.array([[1j, 0, -1j, 0], [1, 0, 1, 0],
                               [0, -1j, 0, 1j], [0, 1, 0, 1]]) / np.sqrt(2.0)


def _nambu_blocks(fams, k: np.ndarray):
    """2x2 Nambu blocks ``A`` and ``D`` of every (k, -k) sector of ``k`` (..., dim).

    In the Nambu basis ``psi = (a_k, a_{-k}^dag)`` the jump operators read
    ``L_k = alpha . psi^dag`` with ``alpha = (v(k), -u(k))`` and
    ``L_{-k} = beta . psi`` with ``beta = (-u(-k), v(-k))``.  With
    ``P_g = sum 4w alpha alpha^H`` and ``P_l = sum 4w conj(beta) beta^T``
    (``4 = RATE_SCALE**2``), the blocks are ``A = (P_l + P_g)/2`` and
    ``D = P_l - P_g``.  Returns ``(a11, a22, a12, d11, d22, d12)``: the real
    diagonals and the complex (0, 1) entries, each shaped ``k.shape[:-1]``.
    One phase table ``e^{-ik.r}`` per family gives the symbols at k and,
    read with the conjugate coefficients, the conjugate symbols at -k (for
    real k the table of -k is the conjugate of the table of k).
    """
    sq = gain = loss = 0.0
    for w, st in fams:
        u, v = np.array(st.u), np.array(st.v)
        coef = RATE_SCALE * np.sqrt(w) * np.stack([u, v, u.conj(), v.conj()], axis=-1)
        # -u(k), v(k), -conj(u(-k)), conj(v(-k)), scaled, along the first axis
        sym = np.tensordot(coef, st._phases(k), axes=(0, 0))
        sq = sq + (sym.real**2 + sym.imag**2)
        gain = gain + sym[1] * sym[0].conj()     # (P_g)_12
        loss = loss + sym[2] * sym[3].conj()     # (P_l)_12
    return (0.5 * (sq[2] + sq[1]), 0.5 * (sq[3] + sq[0]), 0.5 * (loss + gain),
            sq[2] - sq[1], sq[3] - sq[0], loss - gain)


def _nambu_rates(a11, a22, a12):
    """Eigenvalues ``(lo, hi)`` of A and ``det A``; ``lo = det A / hi`` has no
    cancellation, and is 0 where A = 0."""
    off = a12.real**2 + a12.imag**2
    hi = 0.5 * (a11 + a22) + np.sqrt((0.5 * (a11 - a22))**2 + off)
    det = a11 * a22 - off
    return det / np.where(hi > 0.0, hi, 1.0), hi, det


def _nambu_steady(blocks, k: np.ndarray):
    """Solve ``{A, H} = D`` in closed form; returns ``(h0, h3, h12)``.

    With ``A = t/2 + x.sigma``, ``D = d0 + y.sigma`` and ``H = h0 + h.sigma``
    the equation reads ``t h0 + 2 x.h = d0`` and ``t h + 2 h0 x = y``, so
    ``h0 = (t d0 - 2 x.y) / (4 det A)`` and ``h = (y - 2 h0 x) / t``.  This is
    ``H = aD + b {A', D} + c A' D A'`` with ``A' = A - t/2``, ``|x|^2 = delta``,
    ``a = t/(4 det) - delta/(2 t det)``, ``b = -1/(4 det)`` and
    ``c = 1/(2 t det)``, written out in Pauli components.
    ``h3 = (H_11 - H_22)/2`` and ``h12 = H_12``.

    Raises
    ------
    GapClosedError
        Where the smallest sector rate is not above ``1e-12 * max(1, largest)``
        (NaN included): the steady state is not unique there.  The error names
        the k with the smallest relative rate.
    """
    a11, a22, a12, d11, d22, d12 = blocks
    lo, hi, det = _nambu_rates(a11, a22, a12)
    margin = lo / np.maximum(1.0, hi)
    if not margin.min() > 1e-12:
        i = int(np.argmin(margin))
        kbad = k.reshape(-1, k.shape[-1])[i]
        raise GapClosedError(
            f"sector damping gap closes at k = {np.round(kbad, 6)} "
            f"(rate {lo.reshape(-1)[i]:.3e}); steady state not unique",
            kbad,
        )
    t = a11 + a22
    x3 = 0.5 * (a11 - a22)
    y3 = 0.5 * (d11 - d22)
    xy = x3 * y3 + a12.real * d12.real + a12.imag * d12.imag
    h0 = (0.5 * t * (d11 + d22) - 2.0 * xy) / (4.0 * det)
    return h0, (y3 - 2.0 * h0 * x3) / t, (d12 - 2.0 * h0 * a12) / t


@dataclass(frozen=True)
class MomentumState:
    """Steady-state 2x2 flavor-basis correlation matrices on a k-grid."""

    ks: np.ndarray          # (..., dim)
    gamma: np.ndarray       # (..., 2, 2) complex, Gamma(k); i*Gamma Hermitian


def momentum_state(model: Families, ks: np.ndarray) -> MomentumState:
    """Exact Gaussian sector steady state Gamma(k) for every k in a grid.

    Each pair sector ``(k, -k)`` carries the jump operators
    ``L_k = v(k) a_k^dag - u(k) a_{-k}`` and ``L_{-k}`` of every family.  In
    the Nambu basis ``(a_k, a_{-k}^dag)`` its steady state is the Hermitian
    2x2 solution H of ``{A, H} = D`` (see :func:`bloch_blocks`), found in
    closed form, and ``Gamma(k)_{lm} = (i/2) <[c_{k,l}, c_{-k,m}]>`` is
    ``i W H W^dag`` with ``W = [[1, 1], [-i, i]] / sqrt(2)``, written out
    entry by entry.  At a self-paired point (k = -k) the sector holds the mode
    twice; the copies decouple into ``a_k +- a_{-k}`` with symbols ``(u, v)``
    and ``(-u, v)``, whose one-mode steady states coincide, so the same map
    applies.

    Raises
    ------
    GapClosedError
        If the sector damping gap closes at some k of the grid.
    """
    fams = _families(model)
    k = _as_kvec(ks, fams[0][1].dim)
    h0, h3, h12 = _nambu_steady(_nambu_blocks(fams, k), k)
    gamma = np.empty(h0.shape + (2, 2), dtype=complex)
    gamma[..., 0, 0] = 1j * (h0 + h12.real)
    gamma[..., 1, 1] = 1j * (h0 - h12.real)
    gamma[..., 0, 1] = 1j * h12.imag - h3
    gamma[..., 1, 0] = 1j * h12.imag + h3
    return MomentumState(k, gamma)


def _to_majorana(h11, h22, h12, phase=1.0) -> np.ndarray:
    """Real 4x4 Majorana block ``U (M (+) conj(M)) U^dag`` of the 2x2 Nambu
    block ``M = phase * [[h11, h12], [conj(h12), h22]]``."""
    m = np.zeros(np.shape(h11) + (4, 4), dtype=complex)
    m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 1, 0] = h11, h22, h12, np.conj(h12)
    m[..., :2, :2] *= phase
    m[..., 2:, 2:] = m[..., :2, :2].conj()
    return (_NAMBU_TO_MAJORANA @ m @ _NAMBU_TO_MAJORANA.conj().T).real


def bloch_blocks(model: Families, k) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """4x4 real Majorana blocks (X_k, Y_k, Gamma_k) of the (k, -k) sectors.

    Basis ordering: the interleaved Majorana pairs of the modes ``a_k`` and
    ``a_{-k}``.  One fixed unitary U embeds the 2x2 Nambu blocks of the
    sector: ``X_k = U (A (+) conj(A)) U^dag``, ``Y_k`` likewise from
    ``B = iD`` and ``Gamma_k`` from ``iH``, so ``{X_k, Gamma_k} = Y_k``
    holds because ``{A, H} = D`` does.  Each block has shape
    ``k.shape[:-1] + (4, 4)``; a scalar 1D k gives (4, 4).

    Raises
    ------
    GapClosedError
        If the sector damping gap closes at some k (steady state undefined).
    """
    fams = _families(model)
    k = _as_kvec(k, fams[0][1].dim)
    blocks = _nambu_blocks(fams, k)
    h0, h3, h12 = _nambu_steady(blocks, k)
    return (_to_majorana(*blocks[:3]), _to_majorana(*blocks[3:], 1j),
            _to_majorana(h0 + h3, h0 - h3, h12, 1j))


def sector_rates(model: Families, ks: np.ndarray) -> np.ndarray:
    """Per-k damping rates (two per k, ascending) of the (k, -k) sector.

    The sector's 4x4 damping matrix X_k is ``A (+) conj(A)`` up to a fixed
    unitary (see :func:`bloch_blocks`), so its spectrum is doubly degenerate
    (the modes at k and -k see conjugate symbols) and the two distinct values
    are the eigenvalues of the Hermitian 2x2 block A, attributed to k:
    ``hi = tr A / 2 + sqrt(delta)`` and ``lo = det A / hi`` (0 where A = 0).
    Over a full symmetric BZ grid, their union reproduces the finite
    periodic-chain damping spectrum.  A closed gap is reported as a rate,
    never raised.
    """
    fams = _families(model)
    lo, hi, _ = _nambu_rates(*_nambu_blocks(fams, _as_kvec(ks, fams[0][1].dim))[:3])
    return np.stack([lo, hi], axis=-1)


# ---------------------------------------------------------------------------
# Symmetry classification / flattening / invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryClass:
    label: str                       # "BDI" or "D"
    chiral_axis: Optional[np.ndarray] = None  # axis orthogonal to n(k) (BDI)


def classify_symmetry(stencil: BlochStencil) -> SymmetryClass:
    """Altland-Zirnbauer class of the steady state: BDI or D.

    Particle-hole symmetry is structural.  Time reversal is detected through
    the density matrix, independently of the gauge of the jump operators:
    the flattened steady-state field n(k) confined to a plane (a chiral axis
    exists) combines with particle-hole symmetry into an effective time
    reversal, giving BDI; otherwise the class is D.

    Raises
    ------
    GapClosedError
        If the sector damping gap or the purity gap closes on the grid, where
        the steady state, and with it the class, is undefined.
    """
    ks = bz_grid(_CLASS_NK[stencil.dim], stencil.dim, offset=0.5)
    n = flatten(momentum_state(stencil, ks)).n
    try:
        axis, _, _ = _chiral_frame(n)
    except ValueError:
        return SymmetryClass("D")
    return SymmetryClass("BDI", axis)


@dataclass(frozen=True)
class FlattenedState:
    """Unit-vector field n(k) of the spectrally flattened steady state."""

    ks: np.ndarray       # (..., dim)
    n: np.ndarray        # (..., 3) unit vectors
    eps: np.ndarray      # (...,) purity eigenvalue magnitude before flattening

    @property
    def purity_gap(self) -> float:
        return float((self.eps**2).min())


def flatten(state: MomentumState, tol: float = 1e-8) -> FlattenedState:
    """Normalize i*Gamma(k) = eps(k) n(k).sigma to a unit-vector field.

    Raises
    ------
    GapClosedError
        If the purity gap closes (eps <= tol) at some k; the error names the
        offending momentum.
    """
    G = 1j * state.gamma
    # n_l = Re tr(G sigma_l) / 2; "+ 0.0" unsigns zeros, whose sign atan2 reads.
    n = 0.5 * np.stack([(G[..., 0, 1] + G[..., 1, 0]).real,
                        (G[..., 1, 0] - G[..., 0, 1]).imag,
                        (G[..., 0, 0] - G[..., 1, 1]).real], axis=-1) + 0.0
    eps = np.linalg.norm(n, axis=-1)
    if eps.min() <= tol:
        flat_idx = int(np.argmin(eps))
        kbad = state.ks.reshape(-1, state.ks.shape[-1])[flat_idx]
        raise GapClosedError(
            f"purity gap closes at k = {np.round(kbad, 6)} (eps = {eps.min():.3e}); "
            "topological class undefined",
            kbad,
        )
    return FlattenedState(state.ks, n / eps[..., None], eps)


def flattened_from_n(ks: np.ndarray, n: np.ndarray) -> FlattenedState:
    """Wrap an explicit n(k) field (normalizing it) as a FlattenedState."""
    n = np.asarray(n, dtype=float)
    eps = np.linalg.norm(n, axis=-1)
    if eps.min() <= 0:
        raise ValueError("n(k) vanishes somewhere; cannot flatten")
    return FlattenedState(np.asarray(ks), n / eps[..., None], eps)


def _chiral_frame(n_field: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chiral axis a (orthogonal to every n(k)) and a right-handed frame.

    The axis sign is fixed deterministically: first nonzero component
    positive.  Returns (a, b1, b2) with a = b1 x b2 and the winding phase
    defined as theta = atan2(n.b1, n.b2).
    """
    pts = n_field.reshape(-1, 3)
    a = np.linalg.svd(pts, full_matrices=False)[2][-1]
    worst = np.abs(pts @ a).max()
    if worst > _CHIRAL_TOL:
        raise ValueError(
            f"no chiral axis: max |a.n(k)| = {worst:.3e} > {_CHIRAL_TOL}; "
            "state is not chiral (class D?)"
        )
    for comp in a:
        if abs(comp) > 1e-12:
            if comp < 0:
                a = -a
            break
    e = np.eye(3)[int(np.argmin(np.abs(a)))]
    b1 = e - (e @ a) * a
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(a, b1)
    return a, b1, b2


def winding_number(flat: FlattenedState) -> int:
    """Integer winding of the planar angle of n(k) around the 1D BZ.

    ``theta(k) = atan2(n.b1, n.b2)`` in the right-handed frame of the chiral
    axis; per-step principal-value differences are accumulated around the
    closed loop and must each stay below pi/2 (refine the grid otherwise).
    """
    n = flat.n
    if n.ndim != 2:
        raise ValueError("winding_number requires a 1D k-grid")
    _, b1, b2 = _chiral_frame(n)
    theta = np.arctan2(n @ b1, n @ b2)
    d = np.diff(np.concatenate([theta, theta[:1]]))
    d = np.mod(d + np.pi, 2 * np.pi) - np.pi
    if np.abs(d).max() >= np.pi / 2:
        raise ValueError(
            "winding step exceeds pi/2; refine the k-grid (n(k) under-resolved)"
        )
    total = float(d.sum() / (2 * np.pi))
    nu = int(round(total))
    if abs(total - nu) > _INTEGRAL_TOL:
        raise ValueError(f"winding {total} is not integral; refine the grid")
    return nu


def _chern_sum(n: np.ndarray) -> float:
    """Oriented sphere area swept by the field n (nx, ny, 3), in units of 4*pi.

    Each plaquette contributes two spherical triangles; a triangle (a, b, c)
    spans the solid angle ``2 atan2(a.(b x c), 1 + a.b + b.c + c.a)``,
    written out on component arrays.
    """
    n00 = np.moveaxis(n, -1, 0)                 # components first: (3, nx, ny)
    n10 = np.roll(n00, -1, axis=1)
    n01 = np.roll(n00, -1, axis=2)
    n11 = np.roll(n10, -1, axis=2)

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def triple(a, b, c):   # a.(b x c)
        return (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    diag = dot(n00, n11)
    half_omega = (np.arctan2(triple(n00, n10, n11), 1.0 + dot(n00, n10) + dot(n10, n11) + diag)
                  + np.arctan2(triple(n00, n11, n01), 1.0 + diag + dot(n11, n01) + dot(n01, n00)))
    # Orientation fixed so that the Chern number equals the total phase
    # winding of u(k) around its zeros (see windings_around_u_zeros).
    return float(-half_omega.sum() / (2 * np.pi))


def chern_number(flat: FlattenedState) -> int:
    """Chern number of a 2D unit-vector field by plaquette solid angles.

    The sphere area swept by n(k) is accumulated plaquette by plaquette
    (two spherical triangles each), making the total an exact multiple of
    4*pi for any gapped field on a closed BZ.
    """
    n = flat.n
    if n.ndim != 3:
        raise ValueError("chern_number requires a 2D k-grid")
    total = _chern_sum(n)
    nu = int(round(total))
    if abs(total - nu) > _INTEGRAL_TOL:
        raise ValueError(f"Chern sum {total} is not integral; refine the grid")
    return nu


@dataclass(frozen=True)
class UZeroWinding:
    location: Tuple[float, ...]   # approximate k of the zero (plaquette center)
    winding: int


def windings_around_u_zeros(
    stencil_or_symbol, nk: int = 128
) -> Tuple[List[UZeroWinding], int]:
    """Phase windings of u(k) around its zeros on the 2D BZ; returns the sum.

    A plaquette carries a phase vortex when the principal-value phase
    differences of u around its four corners sum to a nonzero multiple of
    2*pi.  Each vortex candidate is confirmed as a genuine *zero* of u by
    local refinement: the plaquette is repeatedly subsampled around the
    magnitude minimum, and the candidate is accepted only if |u| collapses
    towards 0 (phase discontinuities of non-smooth symbols produce spurious
    vortices at O(1) magnitude, which this rejects).  For any quasi-local
    symbol the zero windings sum to 0; in general the sum equals the Chern
    number of the associated flattened state.
    Takes a :class:`BlochStencil` or any object with ``dim`` and callables
    ``u(k)``, ``v(k)`` (a non-local symbol, say).
    """
    sym = stencil_or_symbol
    ufun, vfun = (sym.u_symbol, sym.v_symbol) if isinstance(sym, BlochStencil) else (sym.u, sym.v)
    if sym.dim != 2:
        raise ValueError("u-zero winding analysis is 2D only")
    ks = bz_grid(nk, 2, offset=0.5)   # offset avoids zeros sitting on corners
    u = ufun(ks)
    if np.abs(u).min() == 0.0:
        ks = bz_grid(nk, 2, offset=0.25)
        u = ufun(ks)
        if np.abs(u).min() == 0.0:
            raise ValueError("u vanishes on every offset grid tried; enlarge nk")
    v = vfun(ks)
    if np.sqrt(np.abs(u) ** 2 + np.abs(v) ** 2).min() <= 1e-12:
        raise ValueError("u and v vanish simultaneously; symbol invalid")

    phase = np.angle(u)
    phases = [phase, np.roll(phase, -1, 0), np.roll(np.roll(phase, -1, 0), -1, 1), np.roll(phase, -1, 1)]
    total = np.zeros_like(phase)
    for i in range(4):
        d = phases[(i + 1) % 4] - phases[i]
        total += np.mod(d + np.pi, 2 * np.pi) - np.pi
    charge = np.rint(total / (2 * np.pi)).astype(int)

    scale = float(np.abs(u).max())
    zeros: List[UZeroWinding] = []
    half = np.pi / nk
    for ix, iy in zip(*np.nonzero(charge)):
        center = (float(ks[ix, iy, 0] + half), float(ks[ix, iy, 1] + half))
        if _confirm_u_zero(ufun, center, half, scale):
            zeros.append(UZeroWinding(center, int(charge[ix, iy])))
    return zeros, int(sum(z.winding for z in zeros))


def _confirm_u_zero(ufun, center, half: float, scale: float) -> bool:
    """Confirm that |u| collapses to ~0 inside a plaquette by refinement."""
    cx, cy = center
    m = _ZERO_SUBGRID
    best = np.inf
    for _ in range(_ZERO_LEVELS):
        gx = np.linspace(cx - half, cx + half, m)
        gy = np.linspace(cy - half, cy + half, m)
        pts = np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1)
        vals = np.abs(ufun(pts))
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        best = min(best, float(vals[i, j]))
        cx, cy = float(gx[i]), float(gy[j])
        half = 2.0 * half / (m - 1)   # shrink to one subgrid spacing
    return best <= _ZERO_REL_TOL * scale
