"""Analytic edge modes: beta roots, explicit modes, localization fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from lindtop.bloch import BlochStencil
from lindtop.edge import build_mode, fit_localization, solve_beta
from lindtop.majorana import build_dissipator
from lindtop.models import (
    cross_2d,
    cylinder_reduce,
    kitaev_wire,
    three_site_wire,
    zigzag_coherent,
)


def test_three_site_roots():
    for kappa in (0.5, 1.0, 1.5):
        st = three_site_wire(kappa).stencil
        right = solve_beta(st, 0.0)
        left = solve_beta(st, math.pi)
        assert len(right) == 1 and right[0].betas[0] == pytest.approx(-2 / kappa)
        assert len(left) == 1 and left[0].betas[0] == pytest.approx(-kappa / 2)
        xi = -1.0 / math.log(kappa / 2)
        assert right[0].localization_lengths[0] == pytest.approx(xi)
        assert left[0].localization_lengths[0] == pytest.approx(xi)


def test_coherent_root():
    for kappa in (0.4, 0.8):
        sols = solve_beta(zigzag_coherent(kappa).stencil, math.pi)
        assert len(sols) == 1
        assert sols[0].betas[0] == pytest.approx(-1 / kappa)
        assert sols[0].localization_lengths[0] == pytest.approx(-1 / math.log(kappa))
    assert solve_beta(zigzag_coherent(0.5).stencil, 0.0) == []


def test_cross_roots_factoring():
    beta = 3.0
    sols = solve_beta(cross_2d(beta).stencil, 0.0)
    got = sorted((round(s.betas[0], 10), round(s.betas[1], 10)) for s in sols)
    assert got == [(-(beta / 2 + 1), 1.0), (-(beta / 2 - 1), -1.0)]


def test_cross_solvable_at_every_phase():
    st = cross_2d(3.0).stencil
    for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        assert len(solve_beta(st, float(phi))) >= 1, phi


def test_beta_consistency_relation():
    # Amplitudes are products of per-direction factors, so the two-step
    # factor equals the product of single steps: beta^2 relative amplitude.
    sol = solve_beta(three_site_wire(1.0).stencil, math.pi)[0]
    mode = build_mode(sol, three_site_wire(1.0), (40,))
    amp = np.hypot(mode.vector[0::2], mode.vector[1::2])
    b = abs(sol.betas[0])
    assert amp[2] / amp[0] == pytest.approx((amp[1] / amp[0]) ** 2, rel=1e-8)
    assert amp[1] / amp[0] == pytest.approx(b, rel=1e-8)


def test_build_mode_residual_and_kernel_overlap():
    model = three_site_wire(1.0)
    N = 40
    fr = model.finite_realization((N,), boundary="open")
    d = build_dissipator(fr.operators, num_majoranas=2 * N)
    w, V = np.linalg.eigh(d.X)
    K = V[:, w <= 1e-10]
    for phi in (0.0, math.pi):
        sol = solve_beta(model.stencil, phi)[0]
        mode = build_mode(sol, model, (N,), realization=fr)
        assert mode.residual < 1e-9
        assert np.linalg.norm(K.T @ mode.vector) > 1 - 1e-8


def test_build_mode_2d_cylinder():
    model = cross_2d(3.0)
    ext = (24, 20)
    fr = model.finite_realization(ext, boundary="cylinder")
    for sol in solve_beta(model.stencil, 0.0):
        mode = build_mode(sol, model, ext, boundary="cylinder", realization=fr)
        assert mode.residual < 1e-9
        fit = fit_localization(mode.vector, ext, axis=0)
        assert fit.xi == pytest.approx(sol.localization_lengths[0], rel=1e-6)


def test_build_mode_rejects_nonuniform_on_ring():
    model = three_site_wire(1.0)
    sol = solve_beta(model.stencil, 0.0)[0]   # |beta| = 2
    with pytest.raises(ValueError):
        build_mode(sol, model, (20,), boundary="periodic")


def test_fit_localization_detects_delocalized():
    v = np.ones(80)
    v /= np.linalg.norm(v)
    fit = fit_localization(v, (40,))
    assert fit.delocalized


def test_localization_sweep_matches_formula():
    for kappa in (1.0, 1.5, 1.9):
        model = three_site_wire(kappa)
        sol = solve_beta(model.stencil, math.pi)[0]
        N = max(40, int(12 * sol.localization_lengths[0]))
        mode = build_mode(sol, model, (N,))
        fit = fit_localization(mode.vector, (N,))
        xi_exact = -1.0 / math.log(kappa / 2)
        assert abs(fit.xi - xi_exact) / xi_exact < 0.05


def test_kitaev_perfectly_localized_mode_is_out_of_scope():
    # The ideal single-wire stencil's edge mode has beta = 0 (one-site
    # support); zero roots are excluded by the real-nonzero contract.
    assert solve_beta(kitaev_wire().stencil, 0.0) == []
    assert solve_beta(kitaev_wire().stencil, math.pi) == []


def test_degenerate_stencil_rejected():
    st = BlochStencil(1, ((0,), (1,)), u=(0.5, -0.5), v=(0.5, 0.5), center=(0.5,))
    # u = v termwise makes e^{-i pi} u + v vanish identically: no constraint.
    st2 = BlochStencil(1, ((0,), (1,)), u=(0.5, 0.5), v=(0.5, 0.5), center=None)
    with pytest.raises(ValueError):
        solve_beta(st2, math.pi)
    # Sanity: the first stencil is fine at phi = pi.
    assert isinstance(solve_beta(st, math.pi), list)


def test_cross_closed_form_roots_at_odd_quarter_phases():
    # cross_2d(3) at phi = pi/4: with s = e^{-i phi} the Laurent condition is
    #   3 + (1+s) x + (1-s)/x + (1+is) y + (1-is)/y = 0.
    # Its imaginary part is (y - x)(1 + 1/(xy)) / sqrt(2), so y = x or
    # y = -1/x.  With a = 1 + 1/sqrt2, b = 1 - 1/sqrt2 (a b = 1/2) the real
    # part is 3 + a (x + y) + b (1/x + 1/y):
    #   y = x:     2a x^2 + 3x + 2b = 0  ->  x = -1/a = -(2 - sqrt2) or
    #              x = -1/(2a) = -(1 - 1/sqrt2);
    #   y = -1/x:  sqrt2 x^2 + 3x - sqrt2 = 0  ->  x = (-3/sqrt2 +- sqrt(17/2))/2.
    # At phi = 5pi/4, s changes sign, which swaps a and b and flips the sign
    # of the linear term in the second quadratic.
    st = cross_2d(3.0).stencil
    r2 = math.sqrt(2.0)
    q = math.sqrt(17.0 / 2.0)
    expected = {
        math.pi / 4: [(-(2 - r2),) * 2, (-(1 - 1 / r2),) * 2]
        + [(x, -1 / x) for x in ((-3 / r2 + q) / 2, (-3 / r2 - q) / 2)],
        5 * math.pi / 4: [(-(2 + r2),) * 2, (-(1 + 1 / r2),) * 2]
        + [(x, -1 / x) for x in ((3 / r2 + q) / 2, (3 / r2 - q) / 2)],
    }
    for phi, pairs in expected.items():
        sols = solve_beta(st, phi)
        got = [s.betas for s in sols]
        np.testing.assert_allclose(sorted(got), sorted(pairs), rtol=1e-12)
        # The root set is symmetric under beta_x <-> beta_y.
        np.testing.assert_allclose(sorted(got), sorted((y, x) for x, y in got), rtol=1e-12)
        assert all(s.residual <= 1e-14 for s in sols)
        assert got == sorted(got, key=lambda b: (b[1], b[0]))


def _planted_stencil(seed):
    rng = np.random.default_rng(seed)
    offs = tuple((jx, jy) for jx in (-1, 0, 1) for jy in (-1, 0, 1))
    u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    phase = float(rng.uniform(0.0, 2 * math.pi))
    root = tuple(
        float(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.2), math.log(20.0))))
        for _ in range(2)
    )
    o = np.asarray(offs, float)
    p = np.sum((np.exp(-1j * phase) * u + v) * root[0] ** o[:, 0] * root[1] ** o[:, 1])
    v[offs.index((0, 0))] -= p
    return BlochStencil(2, offs, u=tuple(u), v=tuple(v)), phase, root


@settings(max_examples=60, deadline=None)
@given(strategies.integers(0, 2**32 - 1))
def test_planted_root_is_found(seed):
    stencil, phase, (bx0, by0) = _planted_stencil(seed)
    sols = solve_beta(stencil, phase)
    assert any(
        math.isclose(s.betas[0], bx0, rel_tol=1e-8) and math.isclose(s.betas[1], by0, rel_tol=1e-8)
        for s in sols
    ), (bx0, by0, [s.betas for s in sols])
    offs = np.asarray(stencil.offsets, float)
    c = np.exp(-1j * phase) * np.asarray(stencil.u) + np.asarray(stencil.v)
    for s in sols:
        bx, by = s.betas
        assert abs(np.sum(c * bx ** offs[:, 0] * by ** offs[:, 1])) / np.abs(c).max() <= 1e-8


def test_real_only_2d_condition_rejected():
    # e^{-i phi} u + v is real everywhere at phi = 0: one real equation.
    st = BlochStencil(2, ((0, 0), (1, 0), (0, 1)), u=(0.0, 1.0, 1.0), v=(2.0, 0.5, -1.0))
    with pytest.raises(ValueError, match="no imaginary part"):
        solve_beta(st, 0.0)


def test_common_factor_2d_condition_rejected():
    # P = (beta_x - beta_y)(1 + i beta_x): every (t, t) is a real root.
    st = BlochStencil(2, ((1, 0), (2, 0), (0, 1), (1, 1)),
                      u=(0, 0, 0, 0), v=(1.0, 1.0j, -1.0, -1.0j))
    with pytest.raises(ValueError, match="common factor"):
        solve_beta(st, 0.0)


@pytest.mark.parametrize("beta", [1.0, 2.5, 3.0, -1.0])
@pytest.mark.parametrize("phase", [0.0, math.pi])
@pytest.mark.parametrize("ky", [0.0, math.pi])
def test_cylinder_wire_roots_match_2d_roots(beta, phase, ky):
    # The wire at k_y has the 2D boundary condition at beta_y = e^{-i k_y}
    # = +-1, so its real roots are the beta_x of the 2D roots on that line.
    model = cross_2d(beta)
    wire = sorted(s.betas[0] for s in solve_beta(cylinder_reduce(model, 20, ky).stencil, phase))
    by = math.cos(ky)
    plane = sorted(s.betas[0] for s in solve_beta(model.stencil, phase)
                   if abs(s.betas[1] - by) <= 1e-9)
    assert wire and len(wire) == len(plane)
    assert np.allclose(wire, plane, rtol=0.0, atol=1e-9), (wire, plane)
