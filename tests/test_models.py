"""Model zoo: stencil structure, gap closures, vortices, dimensional reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from lindtop.bloch import (
    RATE_SCALE,
    BlochStencil,
    GapClosedError,
    bz_grid,
    flatten,
    momentum_state,
    sector_rates,
    winding_number,
)
from lindtop.majorana import build_dissipator, default_tol, nambu_from_dirac, purity_class
from lindtop.models import (
    ModelInstance,
    VortexConfig,
    cross_2d,
    cylinder_reduce,
    insert_vortices,
    kitaev_wire,
    residual_damping_vs_separation,
    smallest_damping_rates,
    three_site_wire,
    zigzag_coherent,
    zigzag_competing,
)

from test_bloch import _random_families


@pytest.mark.parametrize(
    "model",
    [kitaev_wire(), three_site_wire(0.7), cross_2d(2.0)],
    ids=lambda m: m.name,
)
def test_stencil_mirror_symmetry(model):
    for _, st in model.families:
        assert st.is_pure_capable(), model.name


def test_coherent_stencil_not_mirror_symmetric():
    # The coherent-superposition wire mixes symmetric and antisymmetric
    # parts in one operator, so its stencil has no odd/even center.
    assert not zigzag_coherent(0.4).stencil.is_pure_capable()


def test_competing_is_mixed_forced():
    fr = zigzag_competing(0.5).finite_realization((10,), boundary="periodic")
    assert purity_class(fr.operators).label == "MixedForced"
    # kappa = 0 degenerates to a single family: pure-capable again.
    fr0 = zigzag_competing(0.0).finite_realization((10,), boundary="periodic")
    assert purity_class(fr0.operators).label == "PureCapable"


def test_gap_closure_points():
    ks = bz_grid(256, 1, offset=0.0)
    assert sector_rates(three_site_wire(2.0), ks).min() < 1e-3
    assert sector_rates(three_site_wire(1.5), ks)[:, :].min() > 1e-2
    r = sector_rates(zigzag_coherent(1.0), ks)
    assert r.min() < 1e-3   # dispersive branch closes at k = pi

    ks2 = bz_grid(128, 2, offset=0.0)
    for beta, closed in [(0.0, True), (4.0, True), (-4.0, True), (2.0, False)]:
        gap = sector_rates(cross_2d(beta), ks2).min()
        assert (gap < 1e-3) == closed, beta
    # At beta = -4 the sector damping block vanishes at k = (0, 0): both rates
    # are exactly 0 there, and the steady state is refused by name.
    assert np.array_equal(sector_rates(cross_2d(-4.0), ks2)[64, 64], [0.0, 0.0])
    with pytest.raises(GapClosedError) as exc:
        momentum_state(cross_2d(-4.0), ks2)
    assert np.array_equal(exc.value.k, [0.0, 0.0])


def test_cylinder_reduce():
    # cross_2d: u = +-1 at r_x = +-1 and +-i at r_y = +-1, which cancel in the
    # sum; v = 1 on the arms and beta on site, so v(r_x = 0) = beta +- 2.
    for beta, ky, v0 in [(2.0, np.pi, 0.0), (2.0, 0.0, 4.0), (5.0, np.pi, 3.0)]:
        wire = cylinder_reduce(cross_2d(beta), circumference=20, k_y=ky)
        (weight, st), = wire.families
        assert weight == 1.0 and wire.dim == 1
        assert st.offsets == ((-1,), (0,), (1,))
        assert st.u == (-1.0, 0.0, 1.0)
        assert st.v == (1.0, v0, 1.0)
    with pytest.raises(ValueError):
        cylinder_reduce(cross_2d(2.0), circumference=20, k_y=1.0)
    with pytest.raises(ValueError):
        cylinder_reduce(cross_2d(2.0), circumference=21, k_y=0.0)
    with pytest.raises(ValueError):
        cylinder_reduce(three_site_wire(1.0), circumference=20, k_y=0.0)


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1), strategies.sampled_from([0.0, np.pi]))
def test_cylinder_reduce_is_exact(seed, ky):
    # The reduced wire's sector rates at k_x are the 2D ones at (k_x, k_y),
    # on a k_x grid that holds the self-paired momenta 0 and pi.
    model = ModelInstance("random2d", {}, tuple(_random_families(np.random.default_rng(seed), 2)))
    wire = cylinder_reduce(model, 20, ky)
    kx = bz_grid(16, 1, offset=0.0)
    want = sector_rates(model, np.stack([kx[:, 0], np.full(len(kx), ky)], axis=-1))
    got = sector_rates(wire, kx)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, want.max())


def test_cylinder_winding_values():
    ks = bz_grid(256, 1, offset=0.5)
    for beta, expected in [(1.0, 2), (2.0, 2), (3.0, 2), (5.0, 0)]:
        nus = []
        for ky in (0.0, np.pi):
            wire = cylinder_reduce(cross_2d(beta), 20, ky)
            nus.append(winding_number(flatten(momentum_state(wire, ks))))
        assert max(abs(n) for n in nus) == expected, beta


def test_interior_placement_drops_boundary_operators():
    fr_open = three_site_wire(1.0).finite_realization((10,), boundary="open")
    fr_per = three_site_wire(1.0).finite_realization((10,), boundary="periodic")
    assert len(fr_open.operators) == 8     # offsets (-1, 0, 1) need interior sites
    assert len(fr_per.operators) == 10


def test_truncated_placement_keeps_all_sites():
    fr = three_site_wire(1.0).finite_realization((10,), boundary="open", placement="truncated")
    assert len(fr.operators) == 10


def test_vortex_zero_ell_is_punched_hole():
    model = cross_2d(2.0)
    L = 10
    center = ((L - 1) / 2 + 0.2, (L - 1) / 2 + 0.2)   # off-site: f > 0 everywhere
    fr0 = model.finite_realization((L, L), boundary="open", placement="truncated")
    frv = model.finite_realization(
        (L, L), boundary="open", placement="truncated",
        vortices=[VortexConfig(center, 0)],
    )
    d0 = build_dissipator(fr0.operators, num_majoranas=2 * L * L)
    dv = build_dissipator(frv.operators, num_majoranas=2 * L * L)
    assert np.allclose(
        np.linalg.eigvalsh(d0.X), np.linalg.eigvalsh(dv.X), atol=1e-10
    )


def test_vortex_on_site_kills_on_center_annihilation():
    model = cross_2d(2.0)
    L = 9
    frv = insert_vortices(model, [VortexConfig((4.0, 4.0), 1)], (L, L))
    # The operator centered on the vortex site has zero annihilation weight
    # at the core (f(0) = 0) but keeps its creation part.
    assert len(frv.operators) == L * L


def test_two_vortex_quasi_zero_modes_small():
    L = 16
    c = (L - 1) / 2
    d = 8.0
    fr = cross_2d(2.0).finite_realization(
        (L, L), boundary="open", placement="truncated",
        vortices=[VortexConfig((c - d / 2, c), 1), VortexConfig((c + d / 2, c), 1)],
    )
    rates = smallest_damping_rates(fr, k=4)
    assert rates[0] < 1e-6 and rates[1] < 1e-6
    assert rates[2] > 1e-3


def test_residual_rate_decays_with_separation():
    sweep = residual_damping_vs_separation(3.0, [4.0, 6.0, 8.0], lattice=21)
    assert np.all(np.diff(sweep.rates) < 0)
    assert sweep.fit_slope < 0
    assert sweep.fit_r2 > 0.95


def test_parameter_domains():
    with pytest.raises(ValueError):
        zigzag_competing(-0.5)


def _reference_operators(model, ext, boundary, placement, vortices=()):
    """Operator-by-operator placement: one (2N,) vector per anchor and family."""
    dim = len(ext)
    periodic = [boundary == "periodic" or (boundary == "cylinder" and ax == 1)
                for ax in range(dim)]
    every = [o for _, st in model.families for o in st.offsets]
    span = [max(o[ax] for o in every) - min(o[ax] for o in every) for ax in range(dim)]
    nsites = int(np.prod(ext))
    ops = []
    for anchor in np.ndindex(*ext):
        for weight, st in model.families:
            lo = [min(o[ax] for o in st.offsets) for ax in range(dim)]
            hi = [max(o[ax] for o in st.offsets) for ax in range(dim)]
            pad = [span[ax] - (hi[ax] - lo[ax]) for ax in range(dim)]
            if placement == "interior" and any(
                not periodic[ax] and pad[ax] != 0
                and (anchor[ax] + lo[ax] - pad[ax] < 0 or anchor[ax] + hi[ax] + pad[ax] >= ext[ax])
                for ax in range(dim)
            ):
                continue
            A = np.zeros(nsites, complex)
            C = np.zeros(nsites, complex)
            scale = RATE_SCALE * math.sqrt(weight)
            fits = True
            for off, u, v in zip(st.offsets, st.u, st.v):
                pos = [anchor[ax] + off[ax] for ax in range(dim)]
                pos = [p % e if per else p for p, e, per in zip(pos, ext, periodic)]
                if not all(0 <= p < e for p, e in zip(pos, ext)):
                    fits = False
                    continue
                factor, phase = 1.0, 0.0
                for vx in vortices:
                    dx, dy = pos[0] - vx.center[0], pos[1] - vx.center[1]
                    factor *= float(vx.profile(math.hypot(dx, dy)))
                    phase += vx.ell * math.atan2(dy, dx)
                site = int(np.ravel_multi_index(pos, ext))
                A[site] += scale * u * factor * np.exp(-1j * phase)
                C[site] += scale * v
            if placement == "interior" and not fits:
                continue
            l = nambu_from_dirac(A, C)
            if np.abs(l).max() > 0:
                ops.append(l)
    return np.array(ops).reshape(-1, 2 * nsites)


def _assert_matches_reference(model, ext, boundary, placement, vortices=()):
    fr = model.finite_realization(ext, boundary=boundary, placement=placement, vortices=vortices)
    ref = _reference_operators(model, ext, boundary, placement, vortices)
    G = fr.G.toarray()
    assert G.shape == ref.shape
    assert np.abs(G - ref).max(initial=0.0) <= 1e-15
    assert len(fr.operators) == len(ref)
    assert all(np.array_equal(l, g) for l, g in zip(fr.operators, G))
    n = 2 * int(np.prod(ext))
    X = build_dissipator(fr.operators, num_majoranas=n).X
    assert np.abs(fr.damping_matrix().toarray() - X).max() <= default_tol(X)
    return fr


_ZOO_1D = [kitaev_wire(), three_site_wire(0.8), three_site_wire(0.0), zigzag_coherent(0.6),
           zigzag_competing(0.5), zigzag_competing(0.0)]


@pytest.mark.parametrize("placement", ["interior", "truncated"])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize(
    "model", _ZOO_1D, ids=lambda m: "-".join([m.name, *(f"{v:g}" for v in m.parameters.values())])
)
def test_sparse_G_matches_reference_1d(model, boundary, placement):
    # Extents 2 and 3 fold periodic offsets onto one site, where terms sum.
    for n in (2, 3, 7):
        _assert_matches_reference(model, (n,), boundary, placement)


@pytest.mark.parametrize("placement", ["interior", "truncated"])
@pytest.mark.parametrize("boundary", ["open", "periodic", "cylinder"])
@pytest.mark.parametrize("beta", [2.0, 0.0])
def test_sparse_G_matches_reference_2d(beta, boundary, placement):
    for ext in ((2, 3), (3, 2), (5, 4)):
        _assert_matches_reference(cross_2d(beta), ext, boundary, placement)


def test_zero_weight_family_rows_dropped():
    # kappa = 0 gives the range-2 family weight 0: only range-1 rows remain.
    fr = _assert_matches_reference(zigzag_competing(0.0), (10,), "periodic", "truncated")
    assert fr.G.shape == (10, 20)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_sparse_G_matches_reference_vortices(boundary):
    smooth = [VortexConfig((2.3, 4.1), 1, 0.7), VortexConfig((5.5, 4.6), -1, 0.7)]
    wound = [VortexConfig((3.5, 3.0), 2, 0.5)]
    for placement in ("interior", "truncated"):
        for vs in (smooth, wound):
            _assert_matches_reference(cross_2d(2.0), (8, 7), boundary, placement, vs)
    point = [VortexConfig((2.0, 4.0), 1), VortexConfig((6.0, 4.0), 1)]
    _assert_matches_reference(cross_2d(2.0), (9, 9), boundary, "truncated", point)


def test_point_cores_drop_vanishing_operators():
    # A pure on-site annihilation family: the point core f(0) = 0 empties
    # the operator on each core site, and both rows are dropped.
    drain = ModelInstance("drain", {}, ((1.0, BlochStencil(2, ((0, 0),), u=(1.0,), v=(0.0,))),))
    point = [VortexConfig((2.0, 4.0), 1), VortexConfig((6.0, 4.0), 1)]
    fr = _assert_matches_reference(drain, (9, 9), "open", "truncated", point)
    assert fr.G.shape == (9 * 9 - 2, 2 * 9 * 9)
    assert np.all(np.diff(fr.G.indptr) > 0)


def test_vortex_center_outside_lattice_rejected():
    model = cross_2d(2.0)
    with pytest.raises(ValueError, match="outside lattice"):
        model.finite_realization((10, 10), placement="truncated",
                                 vortices=[VortexConfig((-10.5, 4.5), 1)])
    with pytest.raises(ValueError, match="outside lattice"):
        insert_vortices(model, [VortexConfig((4.5, 9.5), 1)], (10, 10))
    # The boundary rows and columns themselves are inside.
    insert_vortices(model, [VortexConfig((0.0, 9.0), 1)], (10, 10))
