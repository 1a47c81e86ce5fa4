"""Majorana-basis bookkeeping, dissipator construction, and purity analysis.

The global convention used across the whole package: site ``n`` (0-based)
carries two Majorana operators,

* index ``2n``   : ``c = i (a_n - a_n^dag)``   ("flavor 1")
* index ``2n+1`` : ``c = a_n + a_n^dag``       ("flavor 2")

with normalization ``{c_j, c_k} = 2 delta_jk``.  A linear jump operator
``L = sum_k l_k c_k`` is represented by its complex coefficient vector ``l``
of length ``2N`` (a "Nambu vector").  The dissipator is the pair of real
matrices ``(X, Y)`` obtained from ``M = sum_i conj(l_i) (x) l_i`` via
``X = 2 Re M`` (symmetric, positive semidefinite) and ``Y = -4 Im M``
(antisymmetric); they generate the covariance-matrix flow
``dGamma/dt = -{X, Gamma} + Y``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack, svdvals

__all__ = [
    "Dissipator",
    "PuritySpectrum",
    "PurityClassification",
    "nambu_from_dirac",
    "build_dissipator",
    "anticommutator_table",
    "purity_spectrum",
    "purity_class",
    "check_covariance",
    "default_tol",
]


def default_tol(*matrices: np.ndarray) -> float:
    """The one tolerance of the finite-lattice layer: ``1e-10 * max(1, ||A||_1)``.

    ``||A||_1`` is the largest absolute column sum over the given matrices.
    For the symmetric and antisymmetric matrices passed here it bounds the
    spectral norm from above and exceeds it by at most ``sqrt(n)``, and it
    costs O(n^2) where the spectral norm needs a full SVD.
    """
    scale = max((np.abs(m).sum(axis=0).max() for m in matrices if m.size), default=0.0)
    return 1e-10 * max(scale, 1.0)


def _check_finite(name: str, A: np.ndarray) -> None:
    """Raise ``ValueError`` if ``A`` holds a NaN or an infinity.

    Runs before :func:`default_tol`: a NaN makes its ``max`` depend on the
    argument order, and an infinity makes the tolerance itself infinite.
    """
    if not np.isfinite(A).all():
        raise ValueError(f"{name} is not finite: it holds NaN or inf")


def _is_positive_definite(A: np.ndarray) -> bool:
    """Whether one Cholesky factorization of the symmetric matrix ``A`` succeeds.

    ``A`` is overwritten.  It is passed transposed, which is the same
    symmetric matrix in Fortran order, so LAPACK factors it without a copy.
    ``potrf`` does not stop at a NaN entry; the NaN reaches the diagonal of
    the factor, which is therefore checked too.
    """
    factor, info = lapack.dpotrf(A.T, lower=1, clean=0, overwrite_a=1)
    return info == 0 and bool(np.isfinite(factor.diagonal()).all())


def nambu_from_dirac(annihilation: np.ndarray, creation: np.ndarray) -> np.ndarray:
    """Convert per-site Dirac coefficients to a Majorana coefficient vector.

    For ``L = sum_n (A_n a_n + C_n a_n^dag)`` the Majorana components are
    ``l[2n] = i (C_n - A_n) / 2`` and ``l[2n+1] = (C_n + A_n) / 2``.

    Parameters
    ----------
    annihilation, creation : (N,) array_like
        Coefficients ``A_n`` of ``a_n`` and ``C_n`` of ``a_n^dag``.

    Returns
    -------
    (2N,) complex ndarray
    """
    A = np.asarray(annihilation, dtype=complex)
    C = np.asarray(creation, dtype=complex)
    if A.shape != C.shape or A.ndim != 1:
        raise ValueError("annihilation/creation must be 1-d arrays of equal length")
    l = np.empty(2 * A.size, dtype=complex)
    l[0::2] = 0.5j * (C - A)
    l[1::2] = 0.5 * (C + A)
    return l


@dataclass(frozen=True)
class Dissipator:
    """The pair ``(X, Y)`` generating ``dGamma/dt = -{X, Gamma} + Y``.

    Attributes
    ----------
    X : (2N, 2N) real ndarray
        Symmetric positive-semidefinite damping matrix, N >= 1; any other
        dimension raises ``ValueError``.
    Y : (2N, 2N) real ndarray
        Antisymmetric fluctuation matrix; it is the coefficient matrix of
        the parent Hamiltonian ``sum_i L_i^dag L_i = tr(X)/2 - (i/4) sum_jk
        Y_jk c_j c_k``.  For pure-capable families (pairwise anticommuting
        jump operators) ``X^2 = -Y^2/4``: the damping rates are ``|e_n|/2``
        where ``+/- i e_n`` are the eigenvalues of ``Y``.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X, Y = np.asarray(self.X, float), np.asarray(self.Y, float)
        if X.shape != Y.shape or X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ValueError("X and Y must be square matrices of equal shape")
        n = X.shape[0]
        if n < 2 or n % 2:
            raise ValueError(f"Majorana dimension must be even and >= 2, got {n}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        _check_finite("X", X)
        _check_finite("Y", Y)
        tol = default_tol(X, Y)
        # One n x n buffer holds the symmetry residual, the antisymmetry
        # residual and the shifted X in turn.
        buf = np.subtract(X, X.T)
        if np.abs(buf, out=buf).max() > tol:
            raise ValueError("X is not symmetric")
        np.add(Y, Y.T, out=buf)
        if np.abs(buf, out=buf).max() > tol:
            raise ValueError("Y is not antisymmetric")
        # X >= -tol*I, proved by a Cholesky factorization of X + tol*I; the
        # eigenvalue for the message is computed only when it fails.
        np.copyto(buf, X)
        buf.flat[:: n + 1] += tol
        if not _is_positive_definite(buf):
            lam = np.linalg.eigvalsh(X)[0]
            raise ValueError(
                f"X is not positive semidefinite: smallest eigenvalue {lam:.6g}, "
                f"tol {tol:.6g}"
            )

    @property
    def num_majoranas(self) -> int:
        return self.X.shape[0]


def _gram(G: sp.csr_matrix, dense: bool = True):
    """The finite layer's one Gram product ``M = G^H G = sum_i conj(l_i) (x) l_i``.

    Rows of the CSR ``G`` are the ``l_i``.  Returns the :class:`Dissipator`
    ``(2 Re M, -4 Im M)``, or with ``dense=False`` the sparse ``X = 2 Re M``.
    """
    M = G.conj().T @ G
    if not dense:
        return (2.0 * M.real).tocsr()
    # Real and imaginary parts are densified and scaled in place, with no
    # complex n x n intermediate; the entries equal 2 Re and -4 Im of
    # M.toarray() bit for bit, signed zeros included.
    X = M.real.toarray()
    X *= 2.0
    Y = M.imag.toarray()
    Y *= -4.0
    return Dissipator(X, Y)


def build_dissipator(lindblads: Sequence[np.ndarray], num_majoranas: Optional[int] = None) -> Dissipator:
    """Build ``(X, Y)`` from a list of jump-operator coefficient vectors.

    The vectors are stacked into one CSR matrix ``G`` and passed to :func:`_gram`.

    Parameters
    ----------
    lindblads : sequence of (2N,) complex arrays
        One Majorana coefficient vector per jump operator.  Rates are
        absorbed into the vectors (no separate rate argument).
    num_majoranas : int, optional
        Required when ``lindblads`` is empty (the zero dissipator needs an
        explicit dimension); otherwise, when given, it must equal the length
        of the vectors.  :class:`Dissipator` refuses a dimension that is not
        even and at least 2.
    """
    vecs = [np.asarray(l, dtype=complex) for l in lindblads]
    if not vecs and num_majoranas is None:
        raise ValueError("empty operator list requires explicit num_majoranas")
    n = vecs[0].size if vecs else int(num_majoranas)
    if num_majoranas is not None and int(num_majoranas) != n:
        raise ValueError(f"num_majoranas = {num_majoranas}, but the operators have length {n}")
    for i, v in enumerate(vecs):
        if v.ndim != 1 or v.size != n:
            raise ValueError(f"operator {i} has shape {v.shape}, expected ({n},)")
    return _gram(sp.csr_matrix(np.array(vecs, dtype=complex).reshape(len(vecs), n)))


def anticommutator_table(lindblads: Sequence[np.ndarray]) -> np.ndarray:
    """Matrix of anticommutators ``{L_i, L_j} = 2 l_i . l_j`` (plain dot).

    Vanishing of every entry is the operational test for a pure-state-capable
    dissipator.
    """
    G = np.array([np.asarray(l, complex) for l in lindblads])
    return 2.0 * (G @ G.T)


def _antisymmetric_with_tol(gamma: np.ndarray) -> Tuple[np.ndarray, float]:
    """``gamma`` as a float array, checked square, finite and antisymmetric to its tolerance."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError("covariance matrix must be square")
    if not gamma.size:
        raise ValueError("covariance matrix is empty (0x0)")
    _check_finite("covariance matrix", gamma)
    tol = default_tol(gamma)
    if np.abs(gamma + gamma.T).max() > tol:
        raise ValueError("covariance matrix is not antisymmetric")
    return gamma, tol


def check_covariance(gamma: np.ndarray) -> np.ndarray:
    """Validate a covariance matrix (real, antisymmetric, (i Gamma)^2 <= 1).

    Both checks use ``tol = default_tol(Gamma)``.  For antisymmetric Gamma,
    ``(i Gamma)^2 = -Gamma^2 = Gamma^T Gamma``, which is positive semidefinite
    by construction, so the lower bound ``(i Gamma)^2 >= 0`` holds without a
    test.  The upper bound ``Gamma^T Gamma <= (1 + tol) I`` is proved by one
    Cholesky factorization of ``(1 + tol) I - Gamma^T Gamma``; the offending
    eigenvalue is computed only when it fails.
    """
    gamma, tol = _antisymmetric_with_tol(gamma)
    gram = gamma.T @ gamma
    slack = -gram
    slack.flat[:: gamma.shape[0] + 1] += 1.0 + tol
    if not _is_positive_definite(slack):
        w = np.linalg.eigvalsh(gram)[-1]
        raise ValueError(
            f"eigenvalues of (i*Gamma)^2 outside [0, 1]: largest {w:.17g}, tol {tol:.6g}"
        )
    return gamma


@dataclass(frozen=True)
class PuritySpectrum:
    """Per-mode purity values ``eps_n^2`` (eigenvalues of ``(i Gamma)^2``).

    ``1`` means the mode is in a pure state, ``0`` completely mixed.
    """

    values: np.ndarray
    purity_gap: float = field(init=False)

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "purity_gap", float(v[0]) if v.size else 0.0)


def purity_spectrum(gamma: np.ndarray) -> PuritySpectrum:
    """Purity spectrum of a covariance matrix.

    The ``2N`` eigenvalues of ``(i Gamma)^2`` are the squared singular values
    of Gamma, which come in degenerate pairs ``eps_n``.  One ``svdvals``
    yields them; every second ascending value gives the N purities
    ``eps_n^2``, and the largest is checked against ``1 + tol`` as in
    :func:`check_covariance`.  The values are clipped to ``[0, 1]``.

    Singular values are taken rather than the eigenvalues of ``-Gamma^2``.
    ``eigvalsh(-Gamma^2)`` has an absolute error of about machine epsilon in
    ``eps^2`` itself, so a quasi-zero purity near 1e-14 (the vortex modes)
    comes out wrong in its first digit.  The SVD has that error in ``eps``,
    so ``eps^2`` keeps its relative accuracy.
    """
    gamma, tol = _antisymmetric_with_tol(gamma)
    sigma = np.sort(svdvals(gamma))
    if sigma[-1] ** 2 > 1.0 + tol:
        raise ValueError(
            f"eigenvalues of (i*Gamma)^2 outside [0, 1]: largest {sigma[-1] ** 2:.17g}, "
            f"tol {tol:.6g}"
        )
    return PuritySpectrum(np.clip(sigma[0::2] ** 2, 0.0, 1.0))


@dataclass(frozen=True)
class PurityClassification:
    """Result of the pure-state-capability test."""

    label: str                      # "PureCapable" or "MixedForced"

    @property
    def pure_capable(self) -> bool:
        return self.label == "PureCapable"


def purity_class(lindblads: Sequence[np.ndarray]) -> PurityClassification:
    """Classify a jump-operator family as pure-capable or mixed-forced.

    The family can reach a pure steady state iff all pairwise anticommutators
    ``{L_i, L_j}`` vanish (equivalently ``[X, Y] = 0`` and ``X^2 = -Y^2/4``),
    tested against ``default_tol(X, Y)``.
    """
    if not lindblads:
        raise ValueError("purity_class requires a nonempty operator list")
    max_ac = float(np.abs(anticommutator_table(lindblads)).max())
    d = build_dissipator(lindblads)
    label = "PureCapable" if max_ac <= default_tol(d.X, d.Y) else "MixedForced"
    return PurityClassification(label)
