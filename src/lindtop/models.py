"""Model zoo: dissipative wire and lattice models as stencils and finite sets.

Every model is a :class:`ModelInstance` bundling one or more weighted
:class:`~lindtop.bloch.BlochStencil` families with a finite-lattice
realization builder.  Finite realizations scale each jump-operator amplitude
by ``RATE_SCALE * sqrt(weight)`` so the damping spectrum matches the
momentum-space closed forms of the corresponding symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .bloch import RATE_SCALE, BlochStencil
from .majorana import Dissipator, _gram

__all__ = [
    "ModelInstance",
    "VortexConfig",
    "FiniteRealization",
    "kitaev_wire",
    "three_site_wire",
    "zigzag_stencil",
    "zigzag_coherent",
    "zigzag_competing",
    "cross_2d",
    "cylinder_reduce",
    "vortex_pair",
    "smallest_damping_rates",
    "SeparationSweep",
    "residual_damping_vs_separation",
]


@dataclass(frozen=True)
class VortexConfig:
    """A phase twist e^{-i ell phi} with core profile f(r) on the u part.

    Attributes
    ----------
    center : (2,) float
        Continuous vortex position (may sit between sites or on a site).
    ell : int
        Vorticity.
    core_scale : float
        Length scale of the smooth core profile; 0 selects the point core
        f(r) = 1 for r > 0, f(0) = 0.

    A ``center`` or ``core_scale`` that is not finite raises ``ValueError``.
    """

    center: Tuple[float, float]
    ell: int = 1
    core_scale: float = 0.0

    def __post_init__(self):
        if not np.isfinite(np.asarray(self.center, dtype=float)).all():
            raise ValueError(f"vortex center {tuple(map(float, self.center))} is not finite")
        if not math.isfinite(self.core_scale):
            raise ValueError(f"vortex core_scale {self.core_scale!r} is not finite")

    def profile(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.core_scale <= 0:
            return (r > 0).astype(float)
        return np.tanh(r / self.core_scale)


@dataclass(frozen=True)
class FiniteRealization:
    """Jump operators on a finite lattice as one sparse matrix ``G``.

    Row ``i`` of the CSR matrix ``G`` is the Majorana coefficient vector
    ``l_i`` of jump operator ``i`` (one column per Majorana).  Rows follow the
    lattice anchors in ``np.ndindex`` order and the model's families inside
    each anchor; all-zero operators are dropped.  The dense :meth:`dissipator`
    and the sparse :meth:`damping_matrix` both come from the one Gram product
    ``G^H G`` of :func:`~lindtop.majorana._gram`.
    """

    G: sp.csr_matrix
    extent: Tuple[int, ...]

    @property
    def operators(self) -> List[np.ndarray]:
        """The rows of ``G`` as dense (2N,) complex vectors."""
        return list(self.G.toarray())

    def dissipator(self) -> Dissipator:
        """Dense ``(X, Y)`` of ``G``, of dimension ``G.shape[1]`` even with no rows."""
        return _gram(self.G)

    def damping_matrix(self) -> sp.csr_matrix:
        """Sparse damping matrix ``X = 2 Re(G^H G)``."""
        return _gram(self.G, dense=False)

    def positions(self) -> np.ndarray:
        """(N, d) array of site coordinates in site-id order."""
        return np.indices(self.extent).reshape(len(self.extent), -1).T.astype(float)


def _vortex_factors(vortices: Sequence[VortexConfig], pos: np.ndarray) -> np.ndarray:
    """Product of core profiles times ``e^{-i sum ell phi}`` at (n, 2) sites.

    Distances and angles use ``math.hypot``/``math.atan2``: ``np.arctan2`` is
    a CPU-dependent SIMD approximation and ``np.hypot`` rounds differently,
    and such last-ulp differences move the quasi-zero damping rates of a
    vortex pair by ~1e-13.
    """
    fac = np.ones(len(pos))
    phase = np.zeros(len(pos))
    for vx in vortices:
        dx, dy = pos[:, 0] - vx.center[0], pos[:, 1] - vx.center[1]
        fac = fac * vx.profile(np.fromiter(map(math.hypot, dx, dy), float, len(pos)))
        phase = phase + vx.ell * np.fromiter(map(math.atan2, dy, dx), float, len(pos))
    return fac * np.exp(-1j * phase)


@dataclass(frozen=True)
class ModelInstance:
    """A named model: weighted stencil families plus finite realizations."""

    name: str
    parameters: dict
    families: Tuple[Tuple[float, BlochStencil], ...]

    @property
    def dim(self) -> int:
        return self.families[0][1].dim

    @property
    def stencil(self) -> BlochStencil:
        """Primary (first) stencil family."""
        return self.families[0][1]

    def finite_realization(
        self,
        extent,
        boundary: str = "open",
        placement: str = "interior",
        vortices: Sequence[VortexConfig] = (),
    ) -> FiniteRealization:
        """Place the jump operators on a finite lattice.

        Parameters
        ----------
        extent : int or (int, int)
            Number of sites per direction.
        boundary : {"open", "periodic", "cylinder"}
            "cylinder" (2D only) is periodic along y, open along x.
        placement : {"interior", "truncated"}
            "interior" places operators only where the full stencil fits
            inside open directions; "truncated" places one operator per site
            and drops out-of-lattice terms (needed to lift the spurious
            kernel left by interior-only placement on open lattices).
        vortices : sequence of VortexConfig
            Applied to the annihilation coefficients (2D only): phases add,
            core profiles multiply; creation coefficients are untouched.
            Every center must lie inside the lattice.
        """
        ext = (int(extent),) if np.isscalar(extent) else tuple(int(e) for e in extent)
        if len(ext) != self.dim:
            raise ValueError(f"extent {ext} does not match model dimension {self.dim}")
        if boundary not in ("open", "periodic", "cylinder"):
            raise ValueError(f"unknown boundary {boundary!r}")
        if boundary == "cylinder" and self.dim != 2:
            raise ValueError("cylinder boundary requires a 2D model")
        if placement not in ("interior", "truncated"):
            raise ValueError(f"unknown placement {placement!r}")
        if vortices and self.dim != 2:
            raise ValueError("vortices require a 2D model")
        for vx in vortices:
            if not all(0 <= c <= e - 1 for c, e in zip(vx.center, ext)):
                raise ValueError(f"vortex center {tuple(map(float, vx.center))} "
                                 f"outside lattice {ext}")

        shape = np.array(ext)
        periodic = np.array([boundary == "periodic" or (boundary == "cylinder" and ax == 1)
                             for ax in range(self.dim)])
        anchors = np.indices(ext).reshape(self.dim, -1).T      # np.ndindex order = site ids
        vf = _vortex_factors(vortices, anchors) if vortices else None   # per site
        offsets = [np.array(st.offsets) for _, st in self.families]
        every = np.concatenate(offsets)
        span = every.max(0) - every.min(0)
        nfam = len(self.families)
        rows, cols, vals = [], [], []
        for f, ((weight, st), off) in enumerate(zip(self.families, offsets)):
            pos = anchors[:, None, :] + off                    # (anchor, term, axis)
            pos = np.where(periodic, pos % shape, pos)
            keep = ((pos >= 0) & (pos < shape)).all(-1)       # term inside the lattice
            if placement == "interior":
                # Balanced interior placement: each family keeps a symmetric
                # margin equal to the mismatch between its own span and the
                # union span of all families, so competing processes of
                # different range terminate together at an open boundary
                # (single-family models get margin 0).
                lo, hi = off.min(0), off.max(0)
                pad = span - (hi - lo)
                short = (anchors + lo - pad < 0) | (anchors + hi + pad >= shape)
                fits = keep.all(1) & ~(short & ~periodic & (pad != 0)).any(1)
                keep &= fits[:, None]
            a, t = np.nonzero(keep)
            site = np.ravel_multi_index(tuple(pos[a, t].T), ext)
            scale = RATE_SCALE * math.sqrt(weight)
            A = scale * np.array(st.u)[t]
            if vf is not None:
                A = A * vf[site]
            C = scale * np.array(st.v)[t]
            row = a * nfam + f
            rows += [row, row]
            cols += [2 * site, 2 * site + 1]
            vals += [0.5j * (C - A), 0.5 * (C + A)]
        # Coinciding terms (periodic wrap on short rings) are summed.
        G = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(anchors) * nfam, 2 * len(anchors)),
        ).tocsr()
        G.eliminate_zeros()
        G = G[np.diff(G.indptr) > 0]
        return FiniteRealization(G, ext)


# ---------------------------------------------------------------------------
# Zoo constructors
# ---------------------------------------------------------------------------

def kitaev_wire() -> ModelInstance:
    """Single-wire model: L_n = (a_n^dag + a_{n+1}^dag) + (a_n - a_{n+1})."""
    st = BlochStencil(1, ((0,), (1,)), u=(1.0, -1.0), v=(1.0, 1.0), center=(0.5,))
    return ModelInstance("kitaev", {}, ((1.0, st),))


def three_site_wire(kappa: float) -> ModelInstance:
    """Three-site wire with tunable on-site pump weight kappa.

    ``L_n = [kappa a_n^dag + (a_{n+1}^dag + a_{n-1}^dag) + (a_{n-1} - a_{n+1})]
    / sqrt(4 + kappa^2)``; symbol u(k) = -2i sin k / sqrt(4+kappa^2),
    v(k) = (kappa + 2 cos k)/sqrt(4+kappa^2).
    """
    kappa = float(kappa)
    norm = 1.0 / math.sqrt(4.0 + kappa**2)
    st = BlochStencil(
        1,
        ((-1,), (0,), (1,)),
        u=(norm, 0.0, -norm),
        v=(norm, kappa * norm, norm),
        center=(0.0,),
    )
    return ModelInstance("three_site", {"kappa": kappa}, ((1.0, st),))


def zigzag_stencil(alpha: int) -> BlochStencil:
    """Half-weight wire stencil of range alpha:
    ``L_n = [(a_n^dag + a_{n+alpha}^dag) + (a_n - a_{n+alpha})]/2``."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    return BlochStencil(
        1, ((0,), (alpha,)), u=(0.5, -0.5), v=(0.5, 0.5), center=(alpha / 2.0,)
    )


def zigzag_coherent(kappa: float) -> ModelInstance:
    """Coherent superposition of range-1 and range-2 wire operators.

    ``L_n = (L_n^(1) + kappa L_n^(2)) / sqrt(1 + kappa + kappa^2)``: a single
    jump-operator family whose damping eigenvalues are
    ``2(1+kappa)^2/(1+kappa+kappa^2)`` and
    ``2(1+2 kappa cos k+kappa^2)/(1+kappa+kappa^2)``.
    """
    kappa = float(kappa)
    norm = 1.0 / math.sqrt(1.0 + kappa + kappa**2)
    offs, u, v = [], [], []
    for off, uu, vv in (
        ((0,), 0.5 * (1 + kappa), 0.5 * (1 + kappa)),
        ((1,), -0.5, 0.5),
        ((2,), -0.5 * kappa, 0.5 * kappa),
    ):
        if abs(uu) > 0 or abs(vv) > 0:
            offs.append(off)
            u.append(uu * norm)
            v.append(vv * norm)
    st = BlochStencil(1, tuple(offs), tuple(u), tuple(v), center=None)
    return ModelInstance("zigzag_coherent", {"kappa": kappa}, ((1.0, st),))


def zigzag_competing(kappa: float) -> ModelInstance:
    """Incoherent competition of the two wire dissipators.

    Two independent families L^(1), L^(2) with dissipator weights
    ``1/(1+kappa)`` and ``kappa/(1+kappa)``; requires kappa >= 0.
    """
    kappa = float(kappa)
    if kappa < 0:
        raise ValueError("zigzag_competing requires kappa >= 0")
    fams = (
        (1.0 / (1.0 + kappa), zigzag_stencil(1)),
        (kappa / (1.0 + kappa), zigzag_stencil(2)),
    )
    return ModelInstance("zigzag_competing", {"kappa": kappa}, fams)


def cross_2d(beta: float) -> ModelInstance:
    """2D cross-shaped model with chiral annihilation part.

    ``L_i = beta a_i^dag + sum_{+-e_x,+-e_y} a^dag + (a_{i+e_x} - a_{i-e_x})
    + i(a_{i+e_y} - a_{i-e_y})``; symbol u(k) = 2i(sin kx + i sin ky),
    v(k) = beta + 2(cos kx + cos ky).
    """
    beta = float(beta)
    st = BlochStencil(
        2,
        ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)),
        u=(0.0, 1.0, -1.0, 1.0j, -1.0j),
        v=(beta, 1.0, 1.0, 1.0, 1.0),
        center=(0.0, 0.0),
    )
    return ModelInstance("cross2d", {"beta": beta}, ((1.0, st),))


def cylinder_reduce(model: ModelInstance, circumference: int, k_y: float) -> ModelInstance:
    """The exact wire of a 2D model at the transverse momentum k_y in {0, pi}.

    Around a cylinder of even circumference both self-paired momenta are on
    the grid, and there ``e^{-i k_y r_y} = (+-1)^{r_y}``.  Each family keeps
    its weight and becomes a wire whose coefficient at offset r_x is
    ``sum_{r_y} c_(r_x, r_y) (+-1)^{r_y}``, for u and v alike, so the wire's
    symbols, sector rates and edge roots at k_x are the 2D ones at
    (k_x, k_y).  Every r_x that occurs keeps a term, even where it cancels.
    """
    if model.dim != 2:
        raise ValueError("cylinder reduction needs a 2D model")
    if circumference % 2:
        raise ValueError("circumference must be even so k_y = pi is on the grid")
    if abs(k_y) < 1e-12:
        sign = 1
    elif abs(abs(k_y) - np.pi) < 1e-12:
        sign = -1
    else:
        raise ValueError("reduction is available only for k_y in {0, pi}")
    families = []
    for weight, st in model.families:
        u, v = {}, {}
        for (rx, ry), cu, cv in zip(st.offsets, st.u, st.v):
            u[rx] = u.get(rx, 0) + cu * sign**ry
            v[rx] = v.get(rx, 0) + cv * sign**ry
        rxs = sorted(u)
        families.append((weight, BlochStencil(1, [(r,) for r in rxs], [u[r] for r in rxs],
                                              [v[r] for r in rxs])))
    return ModelInstance(model.name, {**model.parameters, "k_y": k_y}, tuple(families))


def vortex_pair(model: ModelInstance, lattice: Tuple[int, int], separation: float,
                angle: float = 0.0, ell: int = 1, core_scale: float = 0.0) -> FiniteRealization:
    """Two equal vortices at ``((W-1)/2 -+ dx, (H-1)/2 -+ dy)`` on ``lattice = (W, H)``.

    ``(dx, dy) = separation/2 (cos angle, sin angle)``.  Open boundary and
    truncated placement: every site carries an operator, so the only
    quasi-zero damping modes are the vortex-bound ones.  A core outside the
    lattice raises ``ValueError``.
    """
    W, H = lattice
    cx, cy = (W - 1) / 2, (H - 1) / 2
    dx, dy = separation / 2 * math.cos(angle), separation / 2 * math.sin(angle)
    vs = [VortexConfig((cx - dx, cy - dy), ell, core_scale),
          VortexConfig((cx + dx, cy + dy), ell, core_scale)]
    return model.finite_realization((W, H), boundary="open", placement="truncated", vortices=vs)


def smallest_damping_rates(real: FiniteRealization, k: int = 6) -> np.ndarray:
    """k smallest damping rates, ascending: a dense ``eigvalsh`` of the damping
    matrix up to 512 Majoranas, a sparse shift-invert ``eigsh`` above that."""
    X = real.damping_matrix()
    n = X.shape[0]
    if n <= 512:
        return np.sort(np.clip(np.linalg.eigvalsh(X.toarray()), 0, None))[:k]
    # Shift slightly negative so the factorization is definite even when X
    # has an exact kernel.  A seeded random start vector makes the result
    # repeatable; a constant one could be orthogonal to a mode by symmetry.
    v0 = np.random.default_rng(0).standard_normal(n)
    w = sp.linalg.eigsh(X, k=k, sigma=-1e-8, which="LM", v0=v0, return_eigenvectors=False)
    return np.sort(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class SeparationSweep:
    """Residual damping rate of a vortex pair versus separation."""

    separations: np.ndarray
    rates: np.ndarray
    fit_slope: float       # d log(rate) / d separation on the monotone branch
    fit_r2: float


def residual_damping_vs_separation(
    beta: float,
    separations: Sequence[float],
    lattice: int = 35,
    ell: int = 1,
) -> SeparationSweep:
    """Rate of the slower-decaying vortex-pair mode as a function of distance.

    For each separation a :func:`vortex_pair` of point cores along x is
    placed on the L x L lattice, the second-smallest damping eigenvalue (the
    larger of the two hybridized core-mode rates) is recorded, and
    ``log rate`` is fitted linearly against separation over the monotone
    initial branch.
    """
    model = cross_2d(beta)
    ds = np.asarray(list(separations), dtype=float)
    rates = np.empty_like(ds)
    for i, d in enumerate(ds):
        real = vortex_pair(model, (lattice, lattice), d, ell=ell)
        rates[i] = smallest_damping_rates(real, k=4)[1]

    # Monotone branch: longest decreasing prefix of the rate sequence.
    stop = 1
    while stop < len(ds) and rates[stop] < rates[stop - 1]:
        stop += 1
    x, y = ds[:stop], np.log(np.maximum(rates[:stop], 1e-300))
    if stop >= 3:
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, r2 = float("nan"), float("nan")
    return SeparationSweep(ds, rates, float(slope), float(r2))
