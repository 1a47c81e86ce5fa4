"""Mean-field linearization, number equation, and fluctuation scaling."""

import math

import numpy as np
import pytest

from lindtop.bloch import BlochStencil, bz_grid, flatten, momentum_state
from lindtop.meanfield import fluctuation_scaling, linearize, solve_number_equation
from lindtop.models import cross_2d, kitaev_wire, three_site_wire, zigzag_competing


def test_kitaev_half_filling_gives_unit_modulus():
    sol = solve_number_equation(kitaev_wire().stencil, 0.5)
    assert sol.alpha_modulus == pytest.approx(1.0, abs=1e-8)
    assert sol.filling == pytest.approx(0.5, abs=1e-9)
    assert sol.kappa0 == pytest.approx(0.125, abs=1e-8)


def test_three_site_self_consistency():
    sol = solve_number_equation(three_site_wire(1.0).stencil, 0.5)
    st = three_site_wire(1.0).stencil
    ks = bz_grid(256, 1, offset=0.5)
    r = sol.alpha_modulus
    u2, v2 = np.abs(st.u_symbol(ks)) ** 2, np.abs(st.v_symbol(ks)) ** 2
    n = (r * r * v2 / (u2 + r * r * v2)).mean()
    assert n == pytest.approx(0.5, abs=1e-8)


def test_number_equation_monotone_in_r():
    st = three_site_wire(0.8).stencil
    ks = bz_grid(128, 1, offset=0.5)
    u2, v2 = np.abs(st.u_symbol(ks)) ** 2, np.abs(st.v_symbol(ks)) ** 2
    rs = np.linspace(0.0, 5.0, 60)
    ns = [(r * r * v2 / (u2 + r * r * v2)).mean() for r in rs]
    assert all(b >= a - 1e-14 for a, b in zip(ns, ns[1:]))
    assert ns[0] == 0.0


def test_number_equation_evaluates_each_symbol_once(monkeypatch):
    # The bisection reuses |u|^2 and |v|^2 of one grid instead of
    # re-evaluating both symbols at every step.
    calls = {"u_symbol": 0, "v_symbol": 0}
    for name in calls:
        def counted(self, k, _name=name, _symbol=getattr(BlochStencil, name)):
            calls[_name] += 1
            return _symbol(self, k)

        monkeypatch.setattr(BlochStencil, name, counted)
    solve_number_equation(kitaev_wire().stencil, 0.5)
    assert calls == {"u_symbol": 1, "v_symbol": 1}


def test_small_filling_gives_small_r():
    sol = solve_number_equation(kitaev_wire().stencil, 1e-4)
    assert sol.alpha_modulus < 0.02


def test_linearize_kitaev_identity():
    lin = linearize(kitaev_wire().stencil, 1.0)
    assert np.allclose(np.asarray(lin.u, complex), np.asarray(kitaev_wire().stencil.u, complex))
    assert np.allclose(np.asarray(lin.v, complex), np.asarray(kitaev_wire().stencil.v, complex))


def test_linearize_rejects_asymmetric():
    from lindtop.models import zigzag_coherent

    with pytest.raises(ValueError):
        linearize(zigzag_coherent(0.5).stencil, 1.0)


def test_gauge_invariance_of_purity_spectrum():
    ks = bz_grid(16, 2, offset=0.5)
    ref = None
    for theta in (0.0, math.pi / 3, math.pi):
        st = linearize(cross_2d(2.0).stencil, np.exp(1j * theta))
        eps = flatten(momentum_state(st, ks)).eps
        if ref is None:
            ref = eps
        else:
            assert np.abs(eps - ref).max() < 1e-10


def test_dark_state_consistency_at_unit_modulus():
    eps = flatten(momentum_state(linearize(kitaev_wire().stencil, 1.0),
                                 bz_grid(64, 1, offset=0.5))).eps
    assert np.abs(eps - 1.0).max() < 1e-10


def test_fluctuation_scaling_one_over_L():
    table = fluctuation_scaling(kitaev_wire().stencil, 1.0, [16, 32, 64, 128])
    products = [v * L for v, L in zip(table.values, table.sizes)]
    assert max(products) / min(products) < 1.1
    assert table.fitted_power == pytest.approx(-1.0, abs=0.05)


def test_fluctuation_scaling_matched_three_site():
    sol = solve_number_equation(three_site_wire(3.0).stencil, 0.5)
    table = fluctuation_scaling(three_site_wire(3.0).stencil, sol.alpha_modulus,
                                [16, 32, 64, 128])
    assert table.fitted_power == pytest.approx(-1.0, abs=0.1)


def test_empty_state_reported_undefined():
    table = fluctuation_scaling(kitaev_wire().stencil, 0.0, [16, 32])
    assert all(math.isnan(v) for v in table.values)
    assert table.fitted_power is None


def test_filling_domain_errors():
    with pytest.raises(ValueError):
        solve_number_equation(kitaev_wire().stencil, 0.0)
    with pytest.raises(ValueError):
        solve_number_equation(kitaev_wire().stencil, 1.0)


def test_mixed_family_models_use_primary_stencil():
    # The competing-zigzag primary family is a valid symbol for the solver.
    sol = solve_number_equation(zigzag_competing(0.5).stencil, 0.5)
    assert 0 < sol.alpha_modulus < 10
