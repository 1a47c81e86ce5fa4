"""Acceptance gate: 12 end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion is a single test so the gate reports exactly twelve verdicts.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from lindtop.bloch import (
    BlochStencil,
    GapClosedError,
    bz_grid,
    chern_number,
    flatten,
    momentum_state,
    sector_rates,
    winding_number,
    windings_around_u_zeros,
)
from lindtop.braiding import (
    AdiabaticSchedule,
    BraidWord,
    braid_matrix,
    braid_via_schedule,
    vortex_exchange_path,
)
from lindtop.dynamics import mode_census_and_bulk_edge_check, steady_state, zero_damping_modes
from lindtop.edge import build_mode, fit_localization, solve_beta
from lindtop.majorana import build_dissipator, check_covariance
from lindtop.meanfield import fluctuation_scaling, solve_number_equation
from lindtop.models import (
    cross_2d,
    cylinder_reduce,
    kitaev_wire,
    residual_damping_vs_separation,
    smallest_damping_rates,
    three_site_wire,
    vortex_pair,
    zigzag_coherent,
    zigzag_competing,
)


class Checker:
    def __init__(self, n):
        self.n = n
        self.failures = []
        self.t0 = time.perf_counter()

    def ck(self, cond, msg):
        if not cond:
            self.failures.append(msg)

    def done(self, budget=None):
        dt = time.perf_counter() - self.t0
        if budget is not None and dt > budget:
            self.failures.append(f"runtime {dt:.1f}s exceeds {budget:.0f}s budget")
        verdict = "PASS" if not self.failures else "FAIL"
        detail = f"({dt:.1f}s)" if not self.failures else "; ".join(self.failures)
        print(f"\nACCEPTANCE {self.n}: {verdict} {detail}")
        assert not self.failures, f"criterion {self.n}: {detail}"


def _eps_field(model, ks):
    """|eps(k)| of the sector steady state without the flatten gap guard."""
    st = momentum_state(model, ks)
    G = 1j * st.gamma
    sig = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], complex)
    n = 0.5 * np.real(np.einsum("...ij,lji->...l", G, sig))
    return np.linalg.norm(n, axis=-1)


def _localized_kernel_modes(kernel, site_mask, num_sites):
    """Best-localized unit combinations of kernel vectors on a site set.

    Returns (weights, vectors): the extremal weight fractions inside the set
    over the kernel span, with the corresponding Majorana vectors.
    """
    K = np.column_stack(kernel)
    d = np.zeros(2 * num_sites)
    d[0::2] = site_mask
    d[1::2] = site_mask
    M = K.T @ (d[:, None] * K)
    w, U = np.linalg.eigh(M)
    return w[::-1], (K @ U)[:, ::-1]


def test_acceptance_01_three_site_sweep():
    c = Checker(1)
    ks0 = bz_grid(256, 1, offset=0.0)     # contains k = pi: exact gap formula
    ks5 = bz_grid(256, 1, offset=0.5)
    kappas = np.round(np.arange(0.0, 4.0 + 1e-9, 0.05), 10)
    gaps = {}
    for kappa in kappas:
        model = three_site_wire(float(kappa))
        gap = float(sector_rates(model, ks0).min())
        gaps[float(kappa)] = gap
        k = ks0[:, 0]
        formula = float(((8 + 2 * kappa**2 + 8 * kappa * np.cos(k)) / (4 + kappa**2)).min())
        c.ck(abs(gap - formula) < 1e-10, f"gap formula off at kappa={kappa}")
        pg = float(flatten(momentum_state(model, ks5), tol=1e-6).purity_gap)
        c.ck(abs(pg - 1.0) < 1e-10, f"purity gap != 1 at kappa={kappa} ({pg})")
    kmin = min(gaps, key=gaps.get)
    c.ck(abs(kmin - 2.0) <= 0.01 and gaps[kmin] <= 1e-3,
         f"gap minimum {gaps[kmin]:.2e} at kappa={kmin}")
    for kappa, nu in [(0.5, 2), (1.0, 2), (1.5, 2), (2.5, 0), (3.0, 0)]:
        got = winding_number(flatten(momentum_state(three_site_wire(kappa), ks5)))
        c.ck(got == nu, f"winding {got} != {nu} at kappa={kappa}")
    c.done(budget=10.0)


def test_acceptance_02_three_site_edge():
    c = Checker(2)
    N = 60
    for kappa in (1.0, 1.5, 1.9):
        model = three_site_wire(kappa)
        fr = model.finite_realization((N,), boundary="open")
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        modes = zero_damping_modes(d)
        c.ck(len(modes) == 4, f"dim ker X = {len(modes)} != 4 at kappa={kappa}")
        # Total kernel density decays as |beta|^{2m} from each edge; fit the
        # log slope on an interior window clear of both the boundary site and
        # the reflected tail.
        dens = np.zeros(N)
        for m in modes:
            dens += m[0::2] ** 2 + m[1::2] ** 2
        slope = np.polyfit(np.arange(1, 13), np.log(dens[1:13]), 1)[0]
        xi_fit = -2.0 / slope
        xi_exact = -1.0 / math.log(kappa / 2.0)
        c.ck(abs(xi_fit - xi_exact) / xi_exact < 0.05,
             f"xi {xi_fit:.2f} vs {xi_exact:.2f} at kappa={kappa}")
    c.done(budget=30.0)


def test_acceptance_03_coherent_zigzag():
    c = Checker(3)
    ks0 = bz_grid(256, 1, offset=0.0)
    k = ks0[:, 0]
    for kappa in (0.5, 0.6, 2.0):
        rates = sector_rates(zigzag_coherent(kappa), ks0)
        formula = 2 * (1 + 2 * kappa * np.cos(k) + kappa**2) / (1 + kappa + kappa**2)
        c.ck(np.abs(rates.min(axis=1) - np.minimum(formula, rates.max(axis=1))).max() < 1e-10
             or np.abs(rates[:, 0] - formula).max() < 1e-10,
             f"damping formula off at kappa={kappa}")
    for kappa in (1.0, -1.0):
        rates = sector_rates(zigzag_coherent(kappa), ks0)
        c.ck(rates.min() < 1e-12, f"damping gap does not close at kappa={kappa}")
    # Purity gap collapses approaching kappa = 1.
    e99 = _eps_field(zigzag_coherent(0.99), ks0).min() ** 2
    e999 = _eps_field(zigzag_coherent(0.999), ks0).min() ** 2
    c.ck(e99 < 1e-3 and e999 < e99, f"purity gap not collapsing ({e99:.1e}, {e999:.1e})")
    ks5 = bz_grid(256, 1, offset=0.5)
    for kappa, nu in [(0.5, 1), (2.0, 2)]:
        got = winding_number(flatten(momentum_state(zigzag_coherent(kappa), ks5)))
        c.ck(got == nu, f"winding {got} != {nu} at kappa={kappa}")
    for kappa in (0.4, 0.6, 0.8):
        model = zigzag_coherent(kappa)
        sols = solve_beta(model.stencil, math.pi)
        c.ck(len(sols) == 1, f"expected one edge solution at kappa={kappa}")
        xi_exact = -1.0 / math.log(kappa)
        N = max(40, int(12 * xi_exact))
        fit = fit_localization(build_mode(sols[0], model, (N,)).vector, (N,))
        c.ck(abs(fit.xi - xi_exact) / xi_exact < 0.05,
             f"edge xi {fit.xi:.2f} vs {xi_exact:.2f} at kappa={kappa}")
    c.done()


def test_acceptance_04_competing_zigzag():
    c = Checker(4)
    ks0 = bz_grid(256, 1, offset=0.0)
    q = ks0[:, 0]
    from lindtop.bloch import bloch_blocks

    for kappa in (0.3, 0.5, 1.0, 1.5, 2.0):
        model = zigzag_competing(kappa)
        for kv in (0.0, 1.0, math.pi):
            X, _, _ = bloch_blocks(model, kv)
            c.ck(np.abs(X - 2 * np.eye(4)).max() <= 1e-12, f"X_k != 2I at kappa={kappa}")
        eps = _eps_field(model, ks0)
        pg = float((eps**2).min())
        at_pi = float(eps[np.argmin(np.abs(np.abs(q) - math.pi))] ** 2)
        want = (1 - kappa) ** 2 / (1 + kappa) ** 2
        c.ck(abs(pg - want) < 1e-10 and abs(at_pi - want) < 1e-10,
             f"purity gap {pg:.3e} != {want:.3e} at kappa={kappa}")
    ks5 = bz_grid(256, 1, offset=0.5)
    for kappa, nu in [(0.5, 1), (1.5, 2)]:
        got = winding_number(flatten(momentum_state(zigzag_competing(kappa), ks5)))
        c.ck(got == nu, f"winding {got} != {nu} at kappa={kappa}")
    # Open chain: 4 zero-damping modes with kappa-independent profiles.
    N = 40
    profiles = []
    for kappa in (0.3, 0.7, 1.5):
        fr = zigzag_competing(kappa).finite_realization((N,), boundary="open")
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        modes = zero_damping_modes(d)
        c.ck(len(modes) == 4, f"{len(modes)} zero modes != 4 at kappa={kappa}")
        dens = np.zeros(N)
        for m in modes:
            dens += m[0::2] ** 2 + m[1::2] ** 2
        profiles.append(dens)
    for p in profiles[1:]:
        c.ck(np.abs(p - profiles[0]).max() < 1e-8, "edge profiles depend on kappa")
    c.done()


def test_acceptance_05_cross_2d_invariants():
    c = Checker(5)
    ks2 = bz_grid(64, 2, offset=0.5)
    for beta in (1.0, 2.0, 3.0, 5.0):
        model = cross_2d(beta)
        ch = chern_number(flatten(momentum_state(model, ks2)))
        c.ck(ch == 0, f"chern {ch} != 0 at beta={beta}")
        _, total = windings_around_u_zeros(model.stencil, nk=64)
        c.ck(total == 0, f"u-zero winding sum {total} != 0 at beta={beta}")
    ks1 = bz_grid(256, 1, offset=0.5)
    for beta, expected in [(1.0, 2), (2.0, 2), (3.0, 2), (5.0, 0)]:
        nus = []
        for ky in (0.0, math.pi):
            wire = cylinder_reduce(cross_2d(beta), 64, ky)
            nus.append(abs(winding_number(flatten(momentum_state(wire, ks1)))))
        c.ck(max(nus) == expected, f"cylinder winding {nus} != {expected} at beta={beta}")
    c.done(budget=60.0)


@pytest.fixture(scope="module")
def vortex_35():
    """Shared 35x35 two-vortex workload for criteria 6 and 9."""
    L, sep = 35, 16.0
    cx = cy = (L - 1) / 2.0
    cores = [(cx - sep / 2.0, cy), (cx + sep / 2.0, cy)]
    fr = vortex_pair(cross_2d(2.0), (L, L), sep)
    d = fr.dissipator()
    res = steady_state(d)
    rates = smallest_damping_rates(fr, k=6)
    # The three lowest eigenplanes of Gamma: eigenvalues of Gamma^T Gamma come
    # in degenerate pairs eps^2, and plane b is spanned by columns 2b, 2b+1.
    gamma = check_covariance(res.gamma)
    w, vecs = eigh(gamma.T @ gamma, subset_by_index=[0, 5])
    eps = np.sqrt(np.clip(w[0::2], 0.0, None))
    planes = vecs.reshape(-1, 3, 2).transpose(1, 0, 2)
    return {
        "L": L, "cores": cores, "fr": fr, "d": d,
        "gamma": res.gamma, "kernel": res.undetermined_basis,
        "rates": rates, "eps": eps, "planes": planes,
    }


def _disk_mask(L, center, radius):
    xs, ys = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    r = np.hypot(xs - center[0], ys - center[1])
    return (r <= radius).reshape(-1).astype(float)


def test_acceptance_06_two_vortex_numerics(vortex_35):
    c = Checker(6)
    v = vortex_35
    rates, eps = v["rates"], np.sort(v["eps"])
    c.ck(rates[0] <= 1e-10 and rates[1] <= 1e-10 and rates[2] > 1e-10,
         f"damping rates {rates[:3]}")
    c.ck(eps[0] ** 2 <= 1e-6 and eps[1] ** 2 <= 1e-6 and eps[2] ** 2 > 1e-6,
         f"purity values {eps[:3]**2}")
    c.ck(len(v["kernel"]) == 2, f"kernel dim {len(v['kernel'])} != 2")
    for core in v["cores"]:
        w, _ = _localized_kernel_modes(v["kernel"], _disk_mask(v["L"], core, 5.0), v["L"] ** 2)
        c.ck(w[0] >= 0.80, f"core weight {w[0]:.2f} < 0.80 at {core}")
    for beta in (2.8, 3.0, 3.2):
        sweep = residual_damping_vs_separation(beta, [4.0, 6.0, 8.0, 10.0, 12.0], lattice=35)
        branch = sweep.rates[: max(3, int(np.argmin(sweep.rates)) + 1)]
        c.ck(np.all(np.diff(branch[:3]) < 0), f"rates not decreasing at beta={beta}")
        c.ck(sweep.fit_slope < 0 and sweep.fit_r2 >= 0.95,
             f"fit R^2 {sweep.fit_r2:.3f} < 0.95 at beta={beta}")
    c.done(budget=600.0)


def test_acceptance_07_purity_equivalence_suite():
    c = Checker(7)
    from conftest import random_anticommuting_family

    rng = np.random.default_rng(7)
    violations_broken = 0
    for _ in range(1000):
        N = int(rng.integers(2, 6))
        n = int(rng.integers(1, N + 1))
        ops = random_anticommuting_family(rng, N, n)
        d = build_dissipator(ops, num_majoranas=2 * N)
        comm = np.linalg.norm(d.X @ d.Y - d.Y @ d.X, 2)
        quad = np.linalg.norm(d.X @ d.X + d.Y @ d.Y / 4.0, 2)
        if not (comm <= 1e-10 and quad <= 1e-10):
            c.ck(False, f"anticommuting family violates bounds ({comm:.1e}, {quad:.1e})")
            break
        bad = [o.copy() for o in ops]
        bad[0] = bad[0] + 0.3 * (rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N))
        db = build_dissipator(bad, num_majoranas=2 * N)
        commb = np.linalg.norm(db.X @ db.Y - db.Y @ db.X, 2)
        quadb = np.linalg.norm(db.X @ db.X + db.Y @ db.Y / 4.0, 2)
        if commb > 1e-10 or quadb > 1e-10:
            violations_broken += 1
    c.ck(violations_broken >= 990, f"only {violations_broken}/1000 perturbations violate")
    c.done()


def test_acceptance_08_counting_law():
    c = Checker(8)
    from conftest import random_generic_family

    rng = np.random.default_rng(8)
    for _ in range(50):
        N = int(rng.integers(2, 9))
        n = int(rng.integers(1, N))
        ops = random_generic_family(rng, N, n)
        d = build_dissipator(ops, num_majoranas=2 * N)
        dim = len(zero_damping_modes(d))
        c.ck(dim == 2 * (N - n), f"dim ker X = {dim} != {2 * (N - n)} (N={N}, n={n})")
    c.done()


def test_acceptance_09_bulk_edge_inequality(vortex_35):
    c = Checker(9)
    # Edge configurations from criteria 2 and 4: vacuum (nu = 0) against the
    # bulk invariant, with both chain ends as the edge window.
    edge_cases = [
        (three_site_wire(1.5), 60, 2),
        (three_site_wire(1.0), 60, 2),
        (zigzag_competing(1.5), 60, 2),
        (zigzag_competing(0.5), 60, 1),
    ]
    for model, N, nu in edge_cases:
        fr = model.finite_realization((N,), boundary="open")
        d = build_dissipator(fr.operators, num_majoranas=2 * N)
        gamma = steady_state(d).gamma
        window = list(range(0, 20)) + list(range(2 * N - 20, 2 * N))
        census, holds = mode_census_and_bulk_edge_check(d, gamma, 0, nu, window)
        c.ck(holds, f"inequality fails for {model.name} (nu={nu}): "
                    f"m_d={census.zero_damping_edge_count} m_p={census.zero_purity_edge_count}")
    # Vortex case: tight with (m_d, m_p) = (1, 1) against delta nu = 2.
    v = vortex_35
    eps, planes = v["eps"], v["planes"]
    zero_planes = np.nonzero(eps**2 <= 1e-6)[0]
    for core in v["cores"]:
        mask = _disk_mask(v["L"], core, 5.0)
        w, _ = _localized_kernel_modes(v["kernel"], mask, v["L"] ** 2)
        m_d = int(np.sum(w >= 0.5))
        span = [planes[b, :, i] for b in zero_planes for i in (0, 1)]
        wp, _ = _localized_kernel_modes(span, mask, v["L"] ** 2)
        m_p = int(np.sum(wp >= 0.5)) // 2 if len(span) >= 4 else int(np.sum(wp >= 0.5))
        c.ck((m_d, m_p) == (1, 1), f"vortex census ({m_d}, {m_p}) != (1, 1) at {core}")
        c.ck(m_d + m_p >= 2, f"vortex inequality fails at {core}")
    c.done()


def test_acceptance_10_braiding_suite():
    c = Checker(10)
    for word in [BraidWord(((0, 1),), 3), BraidWord(((0, 1), (1, 2)), 3),
                 BraidWord(((0, 2), (1, 2), (0, 1)), 4)]:
        B = braid_matrix(word)
        c.ck(np.linalg.norm(B.T @ B - np.eye(B.shape[0]), 2) <= 1e-12, "not orthogonal")
    B12, B23 = braid_matrix((0, 1), 3), braid_matrix((1, 2), 3)
    c.ck(np.linalg.norm(B12 @ B23 @ B12 - B23 @ B12 @ B23, 2) <= 1e-12, "Yang-Baxter fails")
    c.ck(np.linalg.norm(B12 @ B23 - B23 @ B12, 2) > 0.1, "braid generators commute")
    c.ck(np.linalg.norm(np.linalg.matrix_power(B12, 4) - np.eye(3), 2) <= 1e-12,
         "B^4 != identity")
    # Adiabatic two-vortex exchange: leakage decreases over 3 time-doublings.
    L, sep, delta = 14, 7.0, 0.7
    diss_at = vortex_exchange_path(cross_2d(2.0), (L, L), sep, delta)
    gamma0 = steady_state(diss_at(0.0)).gamma
    leaks = []
    for T in (10.0, 20.0, 40.0, 80.0):
        rep = braid_via_schedule(AdiabaticSchedule(diss_at, T, int(2 * T)), gamma0,
                                 block_dim=2)
        leaks.append(rep.leakage)
    c.ck(all(b < a for a, b in zip(leaks, leaks[1:])),
         f"leakage not monotone: {['%.2e' % l for l in leaks]}")
    c.done()


def test_acceptance_11_mean_field():
    c = Checker(11)
    sol = solve_number_equation(kitaev_wire().stencil, 0.5)
    c.ck(abs(sol.alpha_modulus - 1.0) <= 1e-8, f"r = {sol.alpha_modulus} != 1")
    table = fluctuation_scaling(kitaev_wire().stencil, 1.0, [16, 32, 64, 128])
    prods = [v * L for v, L in zip(table.values, table.sizes)]
    c.ck(max(prods) / min(prods) < 1.1,
         f"DeltaN^2 * L varies by {max(prods)/min(prods):.3f} > 1.1")
    c.done()


def _random_pure_capable_stencil(rng):
    """Random finite-support 2D stencil with u odd and v even about (0, 0)."""
    offs = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
    u = {o: 0.0 for o in offs}
    v = {o: 0.0 for o in offs}
    v[(0, 0)] = complex(*rng.standard_normal(2))
    for o in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        mo = (-o[0], -o[1])
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        u[o], u[mo] = a, -a
        v[o], v[mo] = b, b
    return BlochStencil(2, tuple(offs), tuple(u[o] for o in offs),
                        tuple(v[o] for o in offs), center=(0.0, 0.0))


def test_acceptance_12_quasi_local_chern_zero():
    c = Checker(12)
    rng = np.random.default_rng(12)
    ks = bz_grid(48, 2, offset=0.5)
    tested = 0
    attempts = 0
    while tested < 200 and attempts < 4000:
        attempts += 1
        st = _random_pure_capable_stencil(rng)
        if not st.is_pure_capable():
            c.ck(False, "generator produced a non-pure-capable stencil")
            break
        try:
            flat = flatten(momentum_state(st, ks), tol=0.05)
        except GapClosedError:
            continue
        if float(sector_rates(st, ks).min()) <= 0.05:
            continue
        ch = chern_number(flat)
        if ch != 0:
            # Guard against under-resolved fast-varying fields before
            # declaring a genuine counterexample.
            fine = flatten(momentum_state(st, bz_grid(96, 2, offset=0.5)), tol=0.05)
            ch = chern_number(fine)
        if ch != 0:
            c.ck(False, f"chern {ch} != 0 for a gapped pure-capable stencil")
            break
        tested += 1
    c.ck(tested == 200, f"only {tested}/200 gapped instances found")
    c.done()
