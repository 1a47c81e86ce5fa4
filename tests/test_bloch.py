"""Momentum-space oracles: symbols, sector spectra, invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies

from lindtop.bloch import (
    RATE_SCALE,
    BlochStencil,
    GapClosedError,
    bloch_blocks,
    bz_grid,
    chern_number,
    classify_symmetry,
    flatten,
    flattened_from_n,
    momentum_state,
    sector_rates,
    winding_number,
    windings_around_u_zeros,
    _as_kvec,
    _chern_sum,
    _chiral_frame,
    _nambu_steady,
)
from lindtop.dynamics import steady_state
from lindtop.majorana import build_dissipator
from lindtop.models import (
    ModelInstance,
    cross_2d,
    kitaev_wire,
    three_site_wire,
    zigzag_coherent,
    zigzag_competing,
)


def test_three_site_symbols():
    st = three_site_wire(0.7).stencil
    k = np.linspace(-np.pi, np.pi, 64, endpoint=False)[:, None]
    norm = 1.0 / np.sqrt(4 + 0.7**2)
    assert np.allclose(st.v_symbol(k), (0.7 + 2 * np.cos(k[:, 0])) * norm, atol=1e-14)
    assert np.allclose(st.u_symbol(k), -2j * np.sin(k[:, 0]) * norm, atol=1e-14)


def test_cross_symbols():
    st = cross_2d(2.5).stencil
    ks = bz_grid(16, 2, offset=0.5)
    kx, ky = ks[..., 0], ks[..., 1]
    assert np.allclose(st.v_symbol(ks), 2.5 + 2 * (np.cos(kx) + np.cos(ky)), atol=1e-13)
    assert np.allclose(st.u_symbol(ks), 2j * (np.sin(kx) + 1j * np.sin(ky)), atol=1e-13)


def test_zigzag_family_symbols():
    fams = zigzag_competing(0.4).families
    assert len(fams) == 2
    assert fams[0][0] == pytest.approx(1 / 1.4)
    assert fams[1][0] == pytest.approx(0.4 / 1.4)
    k = np.linspace(-np.pi, np.pi, 32, endpoint=False)[:, None]
    for (_, st), alpha in zip(fams, (1, 2)):
        phase = np.exp(1j * k[:, 0] * alpha / 2)
        assert np.allclose(st.v_symbol(k), phase.conj() * np.cos(k[:, 0] * alpha / 2), atol=1e-13)
        assert np.allclose(np.abs(st.u_symbol(k)), np.abs(np.sin(k[:, 0] * alpha / 2)), atol=1e-13)


def test_finite_periodic_matches_sector_rates():
    # Fourier consistency: periodic-chain damping spectrum equals the union
    # of the 4x4 sector spectra on the discrete grid.
    for model in (kitaev_wire(), three_site_wire(0.8), zigzag_coherent(0.6)):
        N = 8
        fr = model.finite_realization((N,), boundary="periodic")
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        finite = np.sort(np.linalg.eigvalsh(d.X))
        ks = (2 * np.pi * np.arange(N) / N)[:, None]
        sector = np.sort(sector_rates(model, ks).ravel())
        assert np.allclose(finite, sector, atol=1e-10)


def test_three_site_damping_closed_form():
    kappa = 1.3
    ks = bz_grid(128, 1, offset=0.5)
    rates = sector_rates(three_site_wire(kappa), ks)
    k = ks[:, 0]
    expected = (8 + 2 * kappa**2 + 8 * kappa * np.cos(k)) / (4 + kappa**2)
    # Both sector rates coincide (X_k proportional to a rank-2 projector pair).
    assert np.allclose(rates[:, 0], expected, atol=1e-10)
    assert np.allclose(rates[:, 1], expected, atol=1e-10)


def test_coherent_damping_closed_form():
    kappa = 0.6
    ks = bz_grid(128, 1, offset=0.5)
    rates = sector_rates(zigzag_coherent(kappa), ks)
    k = ks[:, 0]
    expected = 2 * (1 + 2 * kappa * np.cos(k) + kappa**2) / (1 + kappa + kappa**2)
    # Rates come out sorted; the dispersive branch sits below the flat one.
    assert np.allclose(rates[:, 0], expected, atol=1e-10)
    flat_branch = 2 * (1 + kappa) ** 2 / (1 + kappa + kappa**2)
    assert np.allclose(rates[:, 1], flat_branch, atol=1e-10)


def test_competing_flat_damping():
    ks = bz_grid(64, 1, offset=0.5)
    for kappa in (0.3, 1.0, 2.0):
        X, Y, G = bloch_blocks(zigzag_competing(kappa), ks)
        assert X.shape == Y.shape == G.shape == (64, 4, 4)
        assert np.abs(X - 2 * np.eye(4)).max() < 1e-12
    assert bloch_blocks(zigzag_competing(1.0), 0.3)[0].shape == (4, 4)


# Sector Majoranas m_a: the interleaved pairs (i(a - a^dag), a + a^dag) of a_k
# and a_{-k}.  c_{k,1} = a_k + a_{-k}^dag and c_{k,2} = i (a_{-k}^dag - a_k)
# read c_{k,l} = sum_a FLAVOR[l, a] m_a, so Gamma(k) = FLAVOR Gamma_k FLAVOR^dag.
FLAVOR = 0.5 * np.array([[-1j, 1, 1j, 1], [-1, -1j, -1, 1j]])


def test_complex_symbol_blocks_match_momentum_state():
    # cross2d has a complex symbol (u(-k) != conj(u(k))); its blocks are
    # defined all the same and agree with the flavor-basis steady state.
    model = cross_2d(3.0)
    ks = np.array([[0.7, -1.3], [2.1, 0.4], [-2.9, 1.1]])
    X, Y, G = bloch_blocks(model, ks)
    assert X.shape == (3, 4, 4)
    assert np.abs(X @ G + G @ X - Y).max() < 1e-12
    mapped = np.einsum("la,nab,mb->nlm", FLAVOR, G, FLAVOR.conj())
    assert np.abs(mapped - momentum_state(model, ks).gamma).max() < 1e-12
    rates = np.linalg.eigvalsh(X)
    assert np.allclose(rates[:, ::2], sector_rates(model, ks), atol=1e-12)
    assert np.allclose(rates[:, 1::2], sector_rates(model, ks), atol=1e-12)


def _fourier_gamma(model, extent):
    """Sector Gamma(k) on the lattice momenta from the finite periodic steady state.

    c_{k,1} = N^{-1/2} sum_n e^{-ik.n} w_{n,2} and
    c_{k,2} = -N^{-1/2} sum_n e^{-ik.n} w_{n,1}, with w_{n,1}, w_{n,2} the
    Majoranas 2n, 2n+1 of site n.
    """
    fr = model.finite_realization(extent, boundary="periodic")
    pos = fr.positions()
    gamma = steady_state(build_dissipator(fr.operators, num_majoranas=2 * len(pos))).gamma
    axes = [2 * np.pi * np.arange(n) / n for n in extent]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(extent))
    phase = np.exp(-1j * ks @ pos.T) / np.sqrt(len(pos))      # (k, site)
    F = np.zeros((len(ks), 2, 2 * len(pos)), dtype=complex)
    F[:, 0, 1::2] = phase
    F[:, 1, 0::2] = -phase
    return ks, np.einsum("kla,ab,kmb->klm", F, gamma, F.conj())


@pytest.mark.parametrize("model, extent", [
    (kitaev_wire(), (8,)),
    (three_site_wire(0.8), (8,)),
    (zigzag_coherent(0.6), (8,)),
    (zigzag_competing(0.5), (8,)),
    (cross_2d(1.0), (6, 6)),
    (cross_2d(3.0), (6, 6)),
])
def test_finite_periodic_matches_momentum_state(model, extent):
    # Independent route: the finite steady state, Fourier transformed, equals
    # the sector solution on every lattice momentum (k = 0 and pi included).
    ks, want = _fourier_gamma(model, extent)
    assert np.abs(momentum_state(model, ks).gamma - want).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(strategies.integers(0, 2**32 - 1))
def test_random_stencil_matches_finite_periodic(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    offsets = tuple((int(o),) for o in rng.choice(np.arange(-2, 3), size=m, replace=False))
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    model = ModelInstance("random", {}, ((1.0, BlochStencil(1, offsets, tuple(u), tuple(v))),))
    N = 8
    ks = (2 * np.pi * np.arange(N) / N)[:, None]
    assume(sector_rates(model, ks).min() > 1e-3)
    _, want = _fourier_gamma(model, (N,))
    assert np.abs(momentum_state(model, ks).gamma - want).max() < 1e-10


def test_purity_closed_forms():
    ks = bz_grid(256, 1, offset=0.5)
    q = ks[:, 0]
    kappa = 0.5
    flat = flatten(momentum_state(zigzag_coherent(kappa), ks))
    expected = (1 + kappa) * np.sqrt(1 + kappa**2 + 2 * kappa * np.cos(q)) / (
        1 + kappa + kappa**2 + kappa * np.cos(q)
    )
    assert np.abs(flat.eps - expected).max() < 1e-10

    flat2 = flatten(momentum_state(zigzag_competing(kappa), ks))
    expected2 = np.sqrt(1 + kappa**2 + 2 * kappa * np.cos(q)) / (1 + kappa)
    assert np.abs(flat2.eps - expected2).max() < 1e-10
    # The gap sits at k = pi, so evaluate on a grid that contains it.
    flat2_pi = flatten(momentum_state(zigzag_competing(kappa), bz_grid(256, 1, offset=0.0)))
    assert flat2_pi.purity_gap == pytest.approx((1 - kappa) ** 2 / (1 + kappa) ** 2, abs=1e-10)


def test_winding_numbers():
    ks = bz_grid(256, 1, offset=0.5)
    cases = [
        (kitaev_wire(), 1),
        (three_site_wire(0.5), 2),
        (three_site_wire(3.0), 0),
        (zigzag_coherent(0.5), 1),
        (zigzag_coherent(2.0), 2),
        (zigzag_competing(0.5), 1),
        (zigzag_competing(2.0), 2),
    ]
    for model, expected in cases:
        nu = winding_number(flatten(momentum_state(model, ks)))
        assert nu == expected, model.name


def test_gap_closed_error_names_momentum():
    ks = bz_grid(64, 1, offset=0.0)   # includes k = pi where the gap closes
    with pytest.raises(GapClosedError) as exc:
        flatten(momentum_state(zigzag_coherent(1.0), ks))
    assert np.allclose(exc.value.k, [-np.pi])


def test_damping_gap_closed_at_self_paired_point():
    # The three-site wire at kappa = 2 loses its damping gap at k = pi, where
    # the steady state is not unique: the kernel refuses it and names k,
    # while sector_rates reports the vanishing rate.
    model, ks = three_site_wire(2.0), bz_grid(256, 1, offset=0.0)
    with pytest.raises(GapClosedError) as exc:
        momentum_state(model, ks)
    assert np.allclose(exc.value.k, [-np.pi])
    with pytest.raises(GapClosedError):
        bloch_blocks(model, np.pi)
    assert sector_rates(model, ks).min() < 1e-30


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_by_name(bad):
    # Without these checks the closed-form kernel, which has no LAPACK call
    # to give up, would return a NaN Gamma(k).
    for u, v in [((0.5, bad), (1.0, 0.3)), ((0.5, 1.0), (1.0, bad)),
                 ((0.5, complex(0, bad)), (1.0, 0.3))]:
        with pytest.raises(ValueError, match="not finite"):
            BlochStencil(1, ((0,), (1,)), u, v)
    st = BlochStencil(1, ((0,), (1,)), (0.5, 1.0), (1.0, 0.3))
    ks = bz_grid(16, 1)
    for fn in (sector_rates, momentum_state, bloch_blocks):
        with pytest.raises(ValueError, match="not finite"):
            fn([(bad, st)], ks)
        with pytest.raises(ValueError, match="not finite"):
            fn([(1.0, st), (bad, st)], ks)


def test_sector_gap_test_refuses_nan():
    # The input checks stop NaN before the solve, so feed one NaN block to the
    # solver directly: its gap test must refuse it and name that k.
    ks = bz_grid(4, 1)
    ones, zeros = np.ones(4), np.zeros(4, dtype=complex)
    a11 = ones.copy()
    a11[2] = np.nan
    with pytest.raises(GapClosedError) as exc:
        _nambu_steady((a11, ones, zeros, ones, ones, zeros), ks)
    assert np.array_equal(exc.value.k, ks[2])


def test_classify_symmetry():
    assert classify_symmetry(kitaev_wire().stencil).label == "BDI"
    assert classify_symmetry(three_site_wire(0.5).stencil).label == "BDI"
    sc = classify_symmetry(zigzag_coherent(0.5).stencil)
    assert sc.label == "BDI"          # via the chiral-axis fallback
    assert sc.chiral_axis is not None
    assert classify_symmetry(cross_2d(2.0).stencil).label == "D"


def _delta_real_up_to_phase(stencil, nk=256, tol=1e-8):
    """Reference of the gauge-dependent class test: delta(k) = 2 conj(u) v
    real up to one global phase (or vanishing) implies BDI."""
    ks = bz_grid(nk, 1, offset=0.5)
    delta = 2.0 * np.conj(stencil.u_symbol(ks)) * stencil.v_symbol(ks)
    mag = np.abs(delta)
    if mag.max() <= tol:
        return True
    phase = delta[np.argmax(mag)] / mag.max()
    return np.abs((delta / phase).imag).max() <= tol * mag.max()


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.booleans())
def test_delta_bdi_stencils_have_a_chiral_axis(seed, proportional):
    # Random 1D stencils, half of them with v_r = lambda u_r up to global
    # phases of u and v, so that delta(k) is real up to one phase.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    offsets = tuple((int(o),) for o in rng.choice(np.arange(-2, 3), size=m, replace=False))
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if proportional:
        v = rng.standard_normal() * np.exp(1j * rng.uniform(0, 2 * np.pi)) * u
    st = BlochStencil(1, offsets, tuple(u), tuple(v))
    assume(_delta_real_up_to_phase(st))
    try:
        sc = classify_symmetry(st)
    except GapClosedError:
        assume(False)
    assert sc.label == "BDI"
    n = flatten(momentum_state(st, bz_grid(128, 1, offset=0.5))).n
    assert np.abs(n @ sc.chiral_axis).max() <= 1e-8


def test_classify_symmetry_raises_where_damping_gap_closes():
    # u = v makes L_{-k} proportional to the adjoint of L_k, so each sector
    # damps only two of its four Majoranas and the steady state is not unique.
    st = BlochStencil(1, ((0,), (1,)), u=(1, 1), v=(1, 1))
    with pytest.raises(GapClosedError):
        momentum_state(st, bz_grid(128, 1, offset=0.5))
    with pytest.raises(GapClosedError):
        classify_symmetry(st)


def test_cross_chern_and_u_zeros():
    ks = bz_grid(48, 2, offset=0.5)
    for beta in (1.0, 3.0):
        assert chern_number(flatten(momentum_state(cross_2d(beta), ks))) == 0
        zeros, total = windings_around_u_zeros(cross_2d(beta).stencil, nk=48)
        assert total == 0
        assert sorted(z.winding for z in zeros) == [-1, -1, 1, 1]


def test_chern_matches_u_zero_sum_on_nonlocal_oracle():
    # A two-band field homotopic to a p+ip ground state: the sum of u-phase
    # windings around genuine zeros equals the Chern number.
    nk = 128
    ax = -np.pi + (np.arange(nk) + 0.5) * 2 * np.pi / nk
    KX, KY = np.meshgrid(ax, ax, indexing="ij")
    xi = 1.0 - 2 * np.cos(KX) - 2 * np.cos(KY)

    class Sym:
        dim = 2

        def u(self, k):
            kx, ky = k[..., 0], k[..., 1]
            x = 1.0 - 2 * np.cos(kx) - 2 * np.cos(ky)
            d = np.sin(kx) + 1j * np.sin(ky)
            E = np.sqrt(x**2 + np.abs(d) ** 2)
            ph = np.where(np.abs(d) > 0, d / np.maximum(np.abs(d), 1e-300), 1.0 + 0j)
            return (E + x) * np.conj(ph)

        def v(self, k):
            return 0.3 * np.ones(k.shape[:-1])

    sym = Sym()
    zeros, total = windings_around_u_zeros(sym, nk=nk)
    assert len(zeros) == 1 and total == -1

    ks = np.stack([KX, KY], -1)
    u = sym.u(ks)
    v = sym.v(ks)
    N2 = np.abs(u) ** 2 + v**2
    n = np.stack(
        [2 * v * u.real / N2, 2 * v * u.imag / N2, (np.abs(u) ** 2 - v**2) / N2], -1
    )
    assert chern_number(flattened_from_n(ks, n)) == -1


@settings(max_examples=100, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.sampled_from([1, 2]), strategies.booleans())
def test_phase_table_matches_direct_exponential(seed, dim, scalar_k):
    # Offsets in [-3, 3]^dim with the zero offset among them, at off-grid
    # momenta up to |k| = 1e3; in 1D the momentum may be a scalar.  The
    # direct route rounds k.r once and the per-axis route rounds each k_a r_a,
    # so they differ by a few eps times the size of the argument.
    rng = np.random.default_rng(seed)
    pool = [tuple(int(x) - 3 for x in o) for o in np.ndindex(*(7,) * dim) if any(x != 3 for x in o)]
    offsets = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(1, min(len(pool), 8) + 1)),
                                        replace=False)]
    offsets.insert(int(rng.integers(0, len(offsets) + 1)), (0,) * dim)
    st = BlochStencil(dim, tuple(offsets), (1.0,) * len(offsets), (1.0,) * len(offsets))
    if dim == 1 and scalar_k:
        k = float(rng.uniform(-1, 1) * 10 ** rng.uniform(-2, 3))
    else:
        k = rng.uniform(-1, 1, size=(int(rng.integers(1, 12)), dim)) * 10 ** rng.uniform(-2, 3)
    kvec = _as_kvec(k, dim)
    R = np.array(offsets, dtype=float)
    want = np.exp(-1j * kvec @ R.T)
    got = np.moveaxis(st._phases(kvec), 0, -1)
    assert got.shape == want.shape
    bound = 4 * np.finfo(float).eps * (1.0 + np.abs(kvec) @ np.abs(R).T)
    assert np.all(np.abs(got - want) <= bound), (np.abs(got - want) / bound).max()


def _reference_solid_angle(n1, n2, n3):
    num = np.einsum("...i,...i->...", n1, np.cross(n2, n3))
    den = (1.0 + np.einsum("...i,...i->...", n1, n2) + np.einsum("...i,...i->...", n2, n3)
           + np.einsum("...i,...i->...", n3, n1))
    return 2.0 * np.arctan2(num, den)


def _reference_solid_angles(n):
    """Both triangle solid angles of every plaquette, stacked: (2, nx, ny)."""
    n10 = np.roll(n, -1, axis=0)
    n11 = np.roll(np.roll(n, -1, axis=0), -1, axis=1)
    n01 = np.roll(n, -1, axis=1)
    return np.stack([_reference_solid_angle(n, n10, n11), _reference_solid_angle(n, n11, n01)])


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.booleans())
def test_chern_matches_reference_solid_angles(seed, rough):
    # Gapped fields of random stencils, or rough random unit fields whose
    # neighbours point anywhere: the component kernel and the cross/einsum
    # reference give the same total, and the same integer or both a ValueError.
    rng = np.random.default_rng(seed)
    nk = int(rng.integers(16, 49))
    ks = bz_grid(nk, 2, offset=0.5)
    if rough:
        flat = flattened_from_n(ks, rng.standard_normal((nk, nk, 3)))
    else:
        try:
            flat = flatten(momentum_state(_random_families(rng, 2), ks), tol=1e-3)
        except GapClosedError:
            assume(False)
    omega = _reference_solid_angles(flat.n)
    want = float(-omega.sum() / (4 * np.pi))
    diff = _chern_sum(flat.n) - want
    # A triangle with its corners on one great circle and 1 + a.b + b.c + c.a
    # < 0 spans a hemisphere: its solid angle is +-2 pi, the sign set by the
    # rounding of a zero triple product, so each route may put it on either
    # side.  Coarse stencil fields confined to a plane (class BDI) have such
    # triangles; each may move the totals apart by a whole unit.
    hemispheres = int((np.abs(np.abs(omega) - 2 * np.pi) <= 1e-9).sum())
    assert abs(diff - round(diff)) <= 1e-12 and abs(round(diff)) <= hemispheres
    if hemispheres:
        return
    if abs(want - round(want)) > 1e-6:
        with pytest.raises(ValueError, match="not integral"):
            chern_number(flat)
    else:
        assert chern_number(flat) == round(want)


def test_pip_reference_chern():
    nk = 128
    ax = -np.pi + (np.arange(nk) + 0.5) * 2 * np.pi / nk
    KX, KY = np.meshgrid(ax, ax, indexing="ij")
    n = np.stack([np.sin(KX), -np.sin(KY), 1.0 - 2 * np.cos(KX) - 2 * np.cos(KY)], -1)
    assert abs(chern_number(flattened_from_n(np.stack([KX, KY], -1), n))) == 1


# ---------------------------------------------------------------------------
# Reference assembly: the real 4x4 Majorana blocks of each sector from four
# symbol evaluations per family, their batched eigh solve, the flavor map by
# einsum, the trace against the Pauli matrices by einsum, and the chiral axis
# from a full SVD.  The kernel solves the 2x2 Nambu blocks in closed form, so
# its sector results agree to rounding, scaled by the condition number of the
# sector damping block; flatten and the chiral frame compute the same
# arithmetic as their references and agree bit for bit.
# ---------------------------------------------------------------------------

_SIGMA_REF = np.array([[[0.0, 1.0], [1.0, 0.0]],
                       [[0.0, -1.0j], [1.0j, 0.0]],
                       [[1.0, 0.0], [0.0, -1.0]]])


def _reference_sector_dissipator(fams, k):
    ls = []
    for w, st in fams:
        s = RATE_SCALE * np.sqrt(w)
        up, vp = st.u_symbol(k), st.v_symbol(k)
        um, vm = st.u_symbol(-k), st.v_symbol(-k)
        ls.append(s * np.stack([0.5j * vp, 0.5 * vp, 0.5j * up, -0.5 * up], axis=-1))
        ls.append(s * np.stack([0.5j * um, -0.5 * um, 0.5j * vm, 0.5 * vm], axis=-1))
    l = np.stack(ls, axis=-2)
    M = np.einsum("...ia,...ib->...ab", l.conj(), l)
    return 2.0 * M.real, -4.0 * M.imag


def _reference_sector_steady(X, Y, k):
    kappa, V = np.linalg.eigh(X)
    margin = kappa[..., 0] / np.maximum(1.0, kappa[..., -1])
    if margin.min() <= 1e-12:
        i = int(np.argmin(margin))
        kbad = k.reshape(-1, k.shape[-1])[i]
        raise GapClosedError(f"sector damping gap closes at k = {np.round(kbad, 6)}", kbad)
    Vt = np.swapaxes(V, -1, -2)
    gamma = V @ ((Vt @ Y @ V) / (kappa[..., :, None] + kappa[..., None, :])) @ Vt
    return 0.5 * (gamma - np.swapaxes(gamma, -1, -2))


def _reference_gamma(fams, k):
    X, Y = _reference_sector_dissipator(fams, k)
    return np.einsum("la,...ab,mb->...lm", FLAVOR, _reference_sector_steady(X, Y, k), FLAVOR.conj())


def _reference_rates(fams, k):
    return np.linalg.eigvalsh(_reference_sector_dissipator(fams, k)[0])[..., ::2]


def _assert_close_to_reference(got, want, rates):
    """|got - want| <= 16 eps (hi/lo) max(1, |want|) at every k, with (lo, hi)
    the reference sector rates: the rounding of a 2x2 solve whose damping
    block has condition number hi/lo."""
    cond = rates[..., 1] / rates[..., 0]
    scale = np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
    err = np.abs(got - want).max(axis=(-2, -1))
    assert np.all(err <= 16 * np.finfo(float).eps * cond * scale), (err / (cond * scale)).max()


def _reference_n(gamma):
    n = 0.5 * np.real(np.einsum("...ij,lji->...l", 1j * gamma, _SIGMA_REF))
    return n / np.linalg.norm(n, axis=-1)[..., None]


def _reference_chiral_frame(n_field):
    pts = n_field.reshape(-1, 3)
    a = np.linalg.svd(pts, full_matrices=True)[2][-1]
    if np.abs(pts @ a).max() > 1e-8:
        return None
    for comp in a:
        if abs(comp) > 1e-12:
            if comp < 0:
                a = -a
            break
    e = np.eye(3)[int(np.argmin(np.abs(a)))]
    b1 = e - (e @ a) * a
    b1 /= np.linalg.norm(b1)
    return a, b1, np.cross(a, b1)


def _chiral_frame_or_none(n):
    try:
        return _chiral_frame(n)
    except ValueError:
        return None


def _random_families(rng, dim, nearly_closed=False):
    """One or two families of random complex coefficients on random offsets.

    Offsets and coefficients are unconstrained, so there is in general no
    symmetry centre and u(-k) differs from +-u(k).  With ``nearly_closed``,
    one family has v_r = (1 + e) e^{i phi} u_r with 1e-4 <= e <= 0.1: at
    e = 0 the damping gap closes at every k, so the sector damping block has
    a condition number of about 4/e^2.
    """
    fams = []
    for _ in range(1 if nearly_closed else int(rng.integers(1, 3))):
        m = int(rng.integers(1, 5))
        pool = list(np.ndindex(*(5,) * dim))
        picks = rng.choice(len(pool), size=m, replace=False)
        offsets = tuple(tuple(int(x) - 2 for x in pool[i]) for i in picks)
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        if nearly_closed:
            v = (1 + 10 ** rng.uniform(-4, -1)) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * u
        fams.append((float(rng.uniform(0.2, 2.0)), BlochStencil(dim, offsets, tuple(u), tuple(v))))
    return fams


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.sampled_from([1, 2]),
       strategies.sampled_from([0.0, 0.5]), strategies.booleans())
def test_kernel_matches_reference_assembly(seed, dim, offset, nearly_closed):
    # Offset 0 puts the self-paired momenta k = -k on the grid.
    rng = np.random.default_rng(seed)
    fams = _random_families(rng, dim, nearly_closed)
    ks = bz_grid(int(rng.integers(6, 40 if dim == 1 else 13)), dim, offset=offset)
    rates = _reference_rates(fams, ks)
    got = sector_rates(fams, ks)
    assert got.shape == rates.shape
    assert np.all(np.abs(got - rates) <= 32 * np.finfo(float).eps * np.maximum(1.0, rates[..., 1:]))
    try:
        want = _reference_gamma(fams, ks)
    except GapClosedError as exc:
        with pytest.raises(GapClosedError) as err:
            momentum_state(fams, ks)
        assert np.array_equal(err.value.k, exc.k)
        return
    try:
        state = momentum_state(fams, ks)
    except GapClosedError:
        # Only a margin within rounding of the 1e-12 threshold may flip.
        assert (rates[..., 0] / np.maximum(1.0, rates[..., 1])).min() < 2e-12
        return
    _assert_close_to_reference(state.gamma, want, rates)
    try:
        n = flatten(state).n
    except GapClosedError:
        return
    assert _same_bits(n, _reference_n(state.gamma))
    if dim == 1:
        got = _chiral_frame_or_none(n)
        ref = _reference_chiral_frame(n)
        assert (got is None) == (ref is None)
        if got is not None:
            assert all(_same_bits(x, y) for x, y in zip(got, ref))


@settings(max_examples=40, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.sampled_from([1, 2]),
       strategies.sampled_from([0.0, 0.5]))
def test_bloch_blocks_match_reference_assembly(seed, dim, offset):
    rng = np.random.default_rng(seed)
    fams = _random_families(rng, dim)
    ks = bz_grid(int(rng.integers(6, 20 if dim == 1 else 9)), dim, offset=offset)
    X0, Y0 = _reference_sector_dissipator(fams, ks)
    try:
        G0 = _reference_sector_steady(X0, Y0, ks)
    except GapClosedError:
        with pytest.raises(GapClosedError):
            bloch_blocks(fams, ks)
        return
    X, Y, G = bloch_blocks(fams, ks)
    scale = max(1.0, np.abs(X0).max(), np.abs(Y0).max())
    assert X.shape == Y.shape == G.shape == X0.shape
    assert np.abs(X - X0).max() <= 1e-13 * scale
    assert np.abs(Y - Y0).max() <= 1e-13 * scale
    _assert_close_to_reference(G, G0, _reference_rates(fams, ks))


@pytest.mark.parametrize("model, ks", [
    (zigzag_competing(0.7), bz_grid(256, 1)),
    (zigzag_competing(1.9), bz_grid(64, 1, offset=0.5)),
    (zigzag_coherent(0.7), bz_grid(256, 1, offset=0.5)),
    (cross_2d(5.0), bz_grid(16, 2)),
])
def test_flatten_matches_reference_on_zoo(model, ks):
    # Each of these grids has points where n_z cancels exactly, so the sign
    # of the zero is compared as well.
    state = momentum_state(model, ks)
    _assert_close_to_reference(state.gamma, _reference_gamma(model.families, ks),
                               _reference_rates(model.families, ks))
    assert _same_bits(flatten(state).n, _reference_n(state.gamma))


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.sampled_from([(256,), (48, 48)]),
       strategies.booleans())
def test_chiral_frame_matches_full_svd(seed, shape, planar):
    # Unit vectors in a random plane (a chiral axis exists) or in general
    # position (none does), on the grid shapes that classification and the
    # benchmark sweep use.
    rng = np.random.default_rng(seed)
    n = rng.standard_normal(shape + (3,))
    if planar:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        n -= (n @ axis)[..., None] * axis
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    got, ref = _chiral_frame_or_none(n), _reference_chiral_frame(n)
    assert (got is None) == (ref is None)
    if got is not None:
        assert all(_same_bits(x, y) for x, y in zip(got, ref))
