"""Flow, steady states, kernels, and the mode census."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lindtop.braiding import AdiabaticSchedule, adiabatic_evolve
from lindtop.dynamics import (
    evolve,
    mode_census_and_bulk_edge_check,
    steady_state,
    zero_damping_modes,
)
from lindtop.majorana import build_dissipator, default_tol, purity_spectrum
from lindtop.models import (
    smallest_damping_rates,
    three_site_wire,
    zigzag_coherent,
    zigzag_competing,
)

from conftest import random_anticommuting_family, random_covariance, random_generic_family


def test_steady_state_solves_fixed_point(rng):
    ops = random_generic_family(rng, 5, 5)
    d = build_dissipator(ops)
    res = steady_state(d)
    assert res.residual < 1e-10
    assert not res.undetermined_basis
    lhs = d.X @ res.gamma + res.gamma @ d.X
    assert np.allclose(lhs, d.Y, atol=1e-10)


def test_evolve_converges_to_steady_state(rng):
    ops = random_generic_family(rng, 4, 4)
    d = build_dissipator(ops)
    target = steady_state(d).gamma
    g = evolve(d, np.zeros_like(target), 200.0)
    assert np.allclose(g, target, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 6))
def test_evolve_long_time_is_steady_state(seed, num_modes, num_ops):
    # With fewer operators than modes X has a kernel, on which both routes
    # keep the initial block; elsewhere the flow relaxes at the smallest
    # nonzero rate, so t = 40 / rate leaves e^-40 of the initial state.
    rng = np.random.default_rng(seed)
    d = build_dissipator(random_generic_family(rng, num_modes, num_ops))
    g0 = random_covariance(rng, 2 * num_modes)
    rates = np.linalg.eigvalsh(d.X)
    rate = rates[rates > 1e-8].min()
    assume(rate > 1e-4)
    g = evolve(d, g0, 40.0 / rate)
    assert np.allclose(g, steady_state(d, initial=g0).gamma, atol=1e-9)


def test_evolve_semigroup(rng):
    ops = random_generic_family(rng, 3, 3)
    d = build_dissipator(ops)
    g0 = np.zeros((6, 6))
    a = evolve(d, evolve(d, g0, 0.7), 1.3)
    b = evolve(d, g0, 2.0)
    assert np.allclose(a, b, atol=1e-12)


def test_evolve_preserves_state_validity(rng):
    ops = random_generic_family(rng, 4, 3)
    d = build_dissipator(ops)
    g0 = np.zeros((8, 8))
    for t in (0.1, 1.0, 10.0):
        g = evolve(d, g0, t)
        assert np.allclose(g, -g.T, atol=1e-12)
        vals = purity_spectrum(g).values
        assert np.all(vals <= 1 + 1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_counting_law_dim_ker(seed, num_modes):
    # n < N generic jump operators leave 2(N - n) decoherence-free modes.
    rng = np.random.default_rng(seed)
    num_ops = int(rng.integers(1, num_modes))
    ops = random_generic_family(rng, num_modes, num_ops)
    d = build_dissipator(ops)
    modes = zero_damping_modes(d)
    assert len(modes) == 2 * (num_modes - num_ops)
    # Each kernel vector v is annihilated by every operator: l . v = 0 (plain dot).
    G = np.array(ops)
    for v in modes:
        assert np.abs(G @ v).max() <= 100 * np.sqrt(default_tol(d.X))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.data())
def test_adiabatic_gap_check_uses_the_zero_damping_mask(seed, num_modes, data):
    # A static path refuses a block of b modes exactly when ker X, as
    # zero_damping_modes counts it, has more than b modes.
    rng = np.random.default_rng(seed)
    num_ops = data.draw(st.integers(1, num_modes - 1))
    block_dim = data.draw(st.integers(1, 2 * num_modes - 1))
    d = build_dissipator(random_generic_family(rng, num_modes, num_ops))
    gamma0 = random_covariance(rng, 2 * num_modes)
    sched = AdiabaticSchedule(lambda s: d, 1.0, 2)
    if len(zero_damping_modes(d)) > block_dim:
        with pytest.raises(ValueError, match="is closed"):
            adiabatic_evolve(sched, gamma0, block_dim=block_dim)
    else:
        adiabatic_evolve(sched, gamma0, block_dim=block_dim)


def test_steady_state_kernel_filled_from_initial(rng):
    ops = random_anticommuting_family(rng, 4, 2)
    d = build_dissipator(ops)
    res0 = steady_state(d)
    assert len(res0.undetermined_basis) == 4
    K = np.stack(res0.undetermined_basis, axis=1)
    # Kernel block of the default solution is zero.
    assert np.abs(K.T @ res0.gamma @ K).max() < 1e-10
    # A nonzero initial condition survives on the kernel block.
    init = np.zeros((8, 8))
    init[0, 1] = 1.0
    init[1, 0] = -1.0
    res1 = steady_state(d, initial=init)
    b0 = K.T @ init @ K
    b1 = K.T @ res1.gamma @ K
    assert np.allclose(b1, b0, atol=1e-10)


def test_damping_spectrum_gap_and_selector():
    # The open three-site chain has four zero-damping edge modes; the fifth
    # smallest rate is the bulk gap.
    fr = three_site_wire(1.0).finite_realization((20,), boundary="open")
    rates = smallest_damping_rates(fr, k=5)
    assert np.all(np.diff(rates) >= 0)
    assert rates[3] < 1e-12
    assert rates[4] > 0.1


def test_mode_census_bulk_edge_three_site():
    fr = three_site_wire(1.0).finite_realization((40,), boundary="open")
    d = build_dissipator(fr.operators, num_majoranas=80)
    gamma = steady_state(d).gamma
    edge = list(range(0, 10)) + list(range(70, 80))
    census, ok = mode_census_and_bulk_edge_check(
        d, gamma, nu_left=2, nu_right=0, edge_window=edge
    )
    assert census.zero_damping_count == 4
    assert ok   # m_d + m_p >= |Delta nu| = 2


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("model", [
    zigzag_coherent(0.4), zigzag_coherent(2.0), zigzag_competing(1.0), three_site_wire(1.5),
], ids=["coherent-0.4", "coherent-2.0", "competing-1.0", "three-site-1.5"])
def test_mode_census_counts_zero_purity_planes(model, boundary):
    # These steady states have an exact kernel (eps = 0 planes); a window over
    # the whole chain makes every zero-purity plane an edge plane.
    for N in (20, 40, 60):
        fr = model.finite_realization((N,), boundary=boundary)
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        gamma = steady_state(d).gamma
        census, _ = mode_census_and_bulk_edge_check(d, gamma, 0, 0, range(2 * N))
        expected = int((purity_spectrum(gamma).values <= 1e-6).sum())
        assert census.zero_purity_count == expected, N
        assert census.zero_purity_edge_count == expected, N


@pytest.mark.parametrize("model", [three_site_wire(1.5), zigzag_competing(1.5)],
                         ids=["three-site-1.5", "competing-1.5"])
def test_mode_census_one_end_window_is_basis_free(model):
    # Each end of an open chain holds two zero-damping Majoranas and one
    # zero-purity plane.  The degenerate kernels mix the two ends in whatever
    # basis LAPACK returns; a window on either end must still count one end.
    for N in (20, 40, 60):
        fr = model.finite_realization((N,), boundary="open")
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        gamma = steady_state(d).gamma
        for window in (range(20), range(2 * N - 20, 2 * N)):
            census, _ = mode_census_and_bulk_edge_check(d, gamma, 0, 0, window)
            assert census.zero_damping_edge_count == 2, (N, window)
            assert census.zero_purity_edge_count == 1, (N, window)


def _block_flow(d, g0, p):
    """Largest drift of Gamma_pp along the flow of ``g0``, and whether Gamma_pq
    stays below ``|Gamma_pq(0)| e^{-g t}``, g the smallest rate of X on the
    complement q, at eight times up to t = 20."""
    q = np.setdiff1d(np.arange(g0.shape[0]), p)
    gap_q = np.linalg.eigvalsh(d.X[np.ix_(q, q)]).min()
    pq0 = np.linalg.norm(g0[np.ix_(p, q)])
    drift, decays = 0.0, True
    for t in np.linspace(0.0, 20.0, 9)[1:]:
        g = evolve(d, g0, t)
        drift = max(drift, np.abs(g[np.ix_(p, p)] - g0[np.ix_(p, p)]).max())
        decays &= np.linalg.norm(g[np.ix_(p, q)]) <= pq0 * np.exp(-gap_q * t) * (1 + 1e-8) + 1e-12
    return drift, decays


def test_block_decoupling(rng):
    # Operators acting only on sites 0..2 of a 5-site chain leave the
    # Majorana block p of sites 3..4 conserved, and the cross block decays.
    ops = []
    for _ in range(3):
        l = np.zeros(10, complex)
        l[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ops.append(l)
    p = np.arange(6, 10)
    g0 = random_covariance(np.random.default_rng(7), 10)
    drift, decays = _block_flow(build_dissipator(ops, num_majoranas=10), g0, p)
    assert drift <= 1e-9 and decays
    # An operator that touches the block breaks the conservation.
    ops[0][7] = 0.5
    drift, _ = _block_flow(build_dissipator(ops, num_majoranas=10), g0, p)
    assert drift > 1e-9


def test_evolve_rejects_negative_time(rng):
    d = build_dissipator(random_generic_family(rng, 2, 2))
    with pytest.raises(ValueError):
        evolve(d, np.zeros((4, 4)), -1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_evolve_rejects_non_finite_time(rng, t):
    # At t = inf the zero-rate entries would read 0 * inf = nan.
    d = build_dissipator(random_generic_family(rng, 2, 2))
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {t}"):
        evolve(d, np.zeros((4, 4)), t)
