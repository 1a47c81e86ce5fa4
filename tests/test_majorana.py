"""Gaussian-core oracles: dissipator assembly, purity, classification."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import schur

from lindtop.majorana import (
    Dissipator,
    _gram,
    anticommutator_table,
    build_dissipator,
    check_covariance,
    default_tol,
    nambu_from_dirac,
    purity_class,
    purity_spectrum,
)
from lindtop.dynamics import steady_state
from lindtop.models import VortexConfig, cross_2d, kitaev_wire, vortex_pair, zigzag_competing

from conftest import random_anticommuting_family, random_generic_family


def test_single_site_drain_dissipator():
    # L = a on one site: X = I/2, Y = [[0, -1], [1, 0]].
    l = nambu_from_dirac(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    assert np.allclose(l, [-0.5j, 0.5])
    d = build_dissipator([l])
    assert np.allclose(d.X, 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(d.Y, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
    gamma = steady_state(d).gamma
    assert np.allclose(gamma, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
    assert np.abs(purity_spectrum(gamma).values - 1.0).max() <= 1e-8


def test_anticommutator_table_matches_plain_dot(rng):
    ops = random_generic_family(rng, 3, 3)
    T = anticommutator_table(ops)
    for i in range(3):
        for j in range(3):
            assert T[i, j] == pytest.approx(2 * np.dot(ops[i], ops[j]), abs=1e-12)


def test_anticommuting_family_closes_table(rng):
    ops = random_anticommuting_family(rng, 4, 3)
    assert np.abs(anticommutator_table(ops)).max() < 1e-12


def test_purity_class_pure_capable_vs_mixed_forced():
    kit = kitaev_wire().finite_realization((8,), boundary="periodic")
    cls = purity_class(kit.operators)
    assert cls.label == "PureCapable" and cls.pure_capable

    comp = zigzag_competing(0.5).finite_realization((8,), boundary="periodic")
    cls2 = purity_class(comp.operators)
    assert cls2.label == "MixedForced" and not cls2.pure_capable


def test_purity_equivalence_conditions(rng):
    # Anticommuting family <=> [X, Y] = 0 and X^2 = -Y^2/4.
    ops = random_anticommuting_family(rng, 4, 3)
    d = build_dissipator(ops)
    assert np.linalg.norm(d.X @ d.Y - d.Y @ d.X, 2) < 1e-10
    assert np.linalg.norm(d.X @ d.X + d.Y @ d.Y / 4.0, 2) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 3))
def test_purity_equivalence_property(seed, num_modes, num_ops):
    rng = np.random.default_rng(seed)
    num_ops = min(num_ops, num_modes)
    ops = random_anticommuting_family(rng, num_modes, num_ops)
    d = build_dissipator(ops)
    assert np.linalg.norm(d.X @ d.Y - d.Y @ d.X, 2) < 1e-10
    assert np.linalg.norm(d.X @ d.X + d.Y @ d.Y / 4.0, 2) < 1e-10
    # A generic perturbation breaks at least one algebraic condition.
    bad = [o.copy() for o in ops]
    bad[0] = bad[0] + 0.3 * (rng.standard_normal(bad[0].size)
                             + 1j * rng.standard_normal(bad[0].size))
    db = build_dissipator(bad)
    c1 = np.linalg.norm(db.X @ db.Y - db.Y @ db.X, 2)
    c2 = np.linalg.norm(db.X @ db.X + db.Y @ db.Y / 4.0, 2)
    assert max(c1, c2) > 1e-10


def test_parent_hamiltonian_ground_state_is_dark():
    # For a pure-capable family the steady state minimizes the parent
    # Hamiltonian, whose coefficient matrix is Y.
    kit = kitaev_wire().finite_realization((6,), boundary="periodic")
    d = build_dissipator(kit.operators)
    gamma = steady_state(d).gamma
    H = d.Y
    # dark state <=> Tr(H Gamma)/4 reaches the minimal achievable energy; for
    # anticommuting families this is -sum of singular values of Y / 4.
    energy = -0.25 * np.einsum("ij,ij->", H, gamma)
    sv = np.linalg.svd(d.Y, compute_uv=False)
    assert energy == pytest.approx(-0.25 * sv.sum(), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64), st.sampled_from([1.0, -1.0]),
       st.floats(-3.0, 3.0))
def test_default_tol_brackets_spectral_norm(seed, n, parity, log_scale):
    # For symmetric (parity +1) and antisymmetric (parity -1) matrices the
    # 1-norm lies between ||A||_2 and sqrt(n) ||A||_2; the scale spans both
    # sides of the max(1, .) floor.  The 1e-12 factors absorb SVD rounding.
    B = np.random.default_rng(seed).standard_normal((n, n))
    A = 10.0**log_scale * (B + parity * B.T)
    ref = 1e-10 * max(1.0, np.linalg.norm(A, 2))
    tol = default_tol(A)
    assert ref * (1 - 1e-12) <= tol <= np.sqrt(n) * ref * (1 + 1e-12)


def test_build_dissipator_validates_input():
    with pytest.raises(ValueError):
        build_dissipator([np.array([1.0, 0.0, 0.0])])  # odd length


@pytest.mark.parametrize("n", [0, 1, 3])
def test_impossible_majorana_dimensions_are_refused_by_name(n):
    # One check, in Dissipator: an empty operator list of dimension n builds
    # an n x n dissipator, and a direct 0 x 0 pair is refused alike.
    with pytest.raises(ValueError, match=f"even and >= 2, got {n}"):
        build_dissipator([], num_majoranas=n)
    with pytest.raises(ValueError, match=f"even and >= 2, got {n}"):
        Dissipator(np.zeros((n, n)), np.zeros((n, n)))
    assert build_dissipator([], num_majoranas=2).X.shape == (2, 2)


@pytest.mark.parametrize("validate", [check_covariance, purity_spectrum])
def test_empty_covariance_is_refused_by_name(validate):
    with pytest.raises(ValueError, match="covariance matrix is empty"):
        validate(np.zeros((0, 0)))


def _random_csr(rng, rows, cols):
    """Sparse complex rows, some purely real and some purely imaginary."""
    re = sp.random(rows, cols, density=0.3, random_state=rng, format="csr")
    im = sp.random(rows, cols, density=0.3, random_state=rng, format="csr")
    G = (re - 0.5 * re.sign() + 1j * im).tolil()
    G[0] = G[0].real
    G[1] = 1j * G[1].imag
    return G.tocsr()


@pytest.mark.parametrize("case", ["random-0", "random-1", "random-2", "vortex-pair"])
def test_gram_is_bitwise_the_parts_of_the_dense_product(case):
    # X and Y are densified from the real and imaginary parts of the sparse
    # M = G^H G; they must equal 2 Re and -4 Im of M.toarray() bit for bit,
    # the sign of every zero included.
    if case == "vortex-pair":
        G = vortex_pair(cross_2d(2.0), (14, 14), 7.0, 0.3, core_scale=0.7).G
    else:
        G = _random_csr(np.random.default_rng(int(case[-1])), 12, 16)
    M = (G.conj().T @ G).toarray()
    d = _gram(G)
    for got, want in ((d.X, 2.0 * M.real), (d.Y, -4.0 * M.imag)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # -4 times a +0.0 imaginary part is -0.0, so Y has signed zeros to compare.
    assert (np.signbit(d.Y) & (d.Y == 0)).any()


def test_build_dissipator_refuses_a_num_majoranas_other_than_the_vector_length():
    with pytest.raises(ValueError, match="num_majoranas = 8.*length 4"):
        build_dissipator([np.array([1, 1j, 0, 0])], num_majoranas=8)
    d = build_dissipator([np.array([1, 1j, 0, 0])], num_majoranas=4)
    assert d.X.shape == (4, 4)


def _covariance(seed, eps):
    """``Q (+)_n eps_n J Q^T`` for a random orthogonal Q, exactly antisymmetric."""
    n = 2 * len(eps)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    core = np.zeros((n, n))
    core[0::2, 1::2] = np.diag(eps)
    gamma = Q @ (core - core.T) @ Q.T
    return 0.5 * (gamma - gamma.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["X", "Y"])
def test_dissipator_rejects_non_finite(which, bad):
    X, Y = np.eye(2), np.zeros((2, 2))
    if which == "X":
        X[0, 1] = X[1, 0] = bad
    else:
        Y[0, 1], Y[1, 0] = bad, -bad
    with pytest.raises(ValueError, match=f"{which} is not finite"):
        Dissipator(X, Y)


@pytest.mark.parametrize("validate", [check_covariance, purity_spectrum])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_covariance_rejects_non_finite(validate, bad):
    gamma = _covariance(5, np.array([1.0, 0.9, 0.5, 0.0]))
    gamma[0, 1], gamma[1, 0] = bad, -bad
    with pytest.raises(ValueError, match="covariance matrix is not finite"):
        validate(gamma)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_dissipator_psd_margin(factor, accepted):
    # X with smallest eigenvalue -factor * tol: inside the tolerance it is
    # accepted, outside it is rejected, as an eigenvalue test would decide.
    Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
    lam = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0])
    Y = np.zeros((8, 8))
    tol = default_tol(Q @ np.diag(lam) @ Q.T, Y)
    lam[0] = -factor * tol
    X = Q @ np.diag(lam) @ Q.T
    X = 0.5 * (X + X.T)
    assert default_tol(X, Y) == pytest.approx(tol, rel=1e-9)
    if accepted:
        Dissipator(X, Y)
    else:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            Dissipator(X, Y)


@pytest.mark.parametrize("validate", [check_covariance, purity_spectrum])
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_covariance_upper_bound_margin(validate, factor, accepted):
    # Largest eigenvalue of (i Gamma)^2 at 1 + factor * tol.
    eps = np.array([1.0, 0.9, 0.5, 0.0])
    tol = default_tol(_covariance(4, eps))
    eps[0] = np.sqrt(1.0 + factor * tol)
    gamma = _covariance(4, eps)
    assert default_tol(gamma) == pytest.approx(tol, rel=1e-9)
    if accepted:
        validate(gamma)
    else:
        with pytest.raises(ValueError, match="outside"):
            validate(gamma)


@pytest.mark.parametrize("validate", [check_covariance, purity_spectrum])
def test_covariance_antisymmetry_defect_rejected(validate):
    gamma = _covariance(5, np.array([1.0, 0.9, 0.5, 0.0]))
    defect = 2.0 * default_tol(gamma)
    gamma[0, 1] += defect
    gamma[1, 0] += defect
    with pytest.raises(ValueError, match="not antisymmetric"):
        validate(gamma)


def _schur_eps(gamma):
    """Ascending block magnitudes eps of the real Schur form of Gamma.

    Walks the quasi-triangular T: a 2x2 block (nonzero subdiagonal) has the
    eigenvalues +/- i eps, and 1x1 blocks are the exact kernel, two per
    eps = 0.
    """
    T = schur(0.5 * (gamma - gamma.T), output="real")[0]
    eps, ones, i = [], 0, 0
    while i < T.shape[0]:
        if i + 1 < T.shape[0] and T[i + 1, i] != 0.0:
            eps.append(np.sqrt(abs(T[i, i + 1] * T[i + 1, i])))
            i += 2
        else:
            ones += 1
            i += 1
    return np.sort(np.concatenate([eps, np.zeros(ones // 2)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 32), st.booleans())
def test_purity_spectrum_matches_schur(seed, modes, pure):
    # Singular values and the real Schur form are independent routes to eps.
    rng = np.random.default_rng(seed)
    if pure:
        eps = np.ones(modes)
    else:
        eps = rng.uniform(0.0, 1.0, modes)
        eps[rng.random(modes) < 0.25] = 0.0
    gamma = _covariance(seed, eps)
    schur_eps = _schur_eps(gamma)
    values = purity_spectrum(gamma).values
    assert np.allclose(values, schur_eps**2, rtol=0.0, atol=1e-12)
    assert np.allclose(values, np.sort(eps**2), rtol=0.0, atol=1e-12)


def test_vortex_pair_quasi_zero_purities_match_schur():
    # 21x21 cross model with two vortices 10 sites apart: the two smallest
    # purities (about 1e-14 and 4e-11) must keep their relative accuracy.
    L, sep = 21, 10.0
    c = (L - 1) / 2.0
    cores = [VortexConfig((c - sep / 2.0, c), 1), VortexConfig((c + sep / 2.0, c), 1)]
    fr = cross_2d(2.0).finite_realization((L, L), boundary="open", placement="truncated",
                                          vortices=cores)
    gamma = steady_state(build_dissipator(fr.operators, num_majoranas=2 * L * L)).gamma
    values = purity_spectrum(gamma).values[:2]
    schur_eps = _schur_eps(gamma)
    assert np.all(values < 1e-8)
    assert np.allclose(values, schur_eps[:2] ** 2, rtol=1e-6, atol=0.0)
