"""Braid algebra and adiabatic transport."""

import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lindtop.braiding import (
    AdiabaticSchedule,
    BraidWord,
    adiabatic_evolve,
    braid_matrix,
    braid_via_schedule,
    vortex_exchange_path,
)
from lindtop.dynamics import evolve, steady_state
from lindtop.majorana import build_dissipator

from conftest import random_covariance, random_generic_family


def test_braid_matrix_single_exchange():
    B = braid_matrix((0, 1), 2)
    assert np.allclose(B, [[0.0, -1.0], [1.0, 0.0]])
    # gamma_0 -> -gamma_1, gamma_1 -> gamma_0.
    assert np.allclose(B @ np.array([1.0, 0.0]), [0.0, 1.0])


def test_braid_matrix_orthogonal_det_one():
    word = BraidWord(((0, 1), (1, 2), (0, 2)), 4)
    B = braid_matrix(word)
    assert np.linalg.norm(B.T @ B - np.eye(4), 2) < 1e-12
    assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-12)


def test_double_exchange_flips_pair():
    B = braid_matrix(BraidWord(((0, 1), (0, 1)), 3))
    expected = np.diag([-1.0, -1.0, 1.0])
    assert np.allclose(B, expected)
    B4 = braid_matrix(BraidWord(((0, 1),) * 4, 3))
    assert np.linalg.norm(B4 - np.eye(3), 2) < 1e-12


def test_yang_baxter_and_non_commutation():
    B12 = braid_matrix((0, 1), 3)
    B23 = braid_matrix((1, 2), 3)
    lhs = B12 @ B23 @ B12
    rhs = B23 @ B12 @ B23
    assert np.linalg.norm(lhs - rhs, 2) < 1e-12
    assert np.linalg.norm(B12 @ B23 - B23 @ B12, 2) > 0.1


def test_braid_matrix_matches_generator_exponential():
    # The label rotation is the SO(2) rotation by pi/2 generated by the
    # antisymmetric pair generator.
    G = np.zeros((3, 3))
    G[0, 1], G[1, 0] = -1.0, 1.0
    assert np.allclose(braid_matrix((0, 1), 3), expm(np.pi / 2 * G), atol=1e-12)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(((0, 0),), 3)
    with pytest.raises(ValueError):
        BraidWord(((0, 5),), 3)


def test_static_schedule_reproduces_evolve(rng):
    ops = random_generic_family(rng, 4, 3)
    d = build_dissipator(ops)
    g0 = np.zeros((8, 8))
    T = 3.0
    sched = AdiabaticSchedule(lambda s: d, total_time=T, steps=16)
    res = adiabatic_evolve(sched, g0)
    direct = evolve(d, g0, T)
    assert np.allclose(res.gamma, direct, atol=1e-10)


def test_schedule_validation():
    d = build_dissipator([np.array([0.5, 0.5j])])
    with pytest.raises(ValueError):
        AdiabaticSchedule(lambda s: d, total_time=0.0, steps=4)
    with pytest.raises(ValueError):
        AdiabaticSchedule(lambda s: d, total_time=1.0, steps=0)
    for total_time in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="total_time .* got (nan|inf)"):
            AdiabaticSchedule(lambda s: d, total_time=total_time, steps=1)
    for steps in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            AdiabaticSchedule(lambda s: d, total_time=1.0, steps=steps)
    AdiabaticSchedule(lambda s: d, total_time=1.0, steps=np.int64(2))


@pytest.fixture(scope="module")
def exchange_6x6():
    from lindtop.models import cross_2d

    path = vortex_exchange_path(cross_2d(2.0), (6, 6), 2.0, 0.7)
    return path, steady_state(path(0.0)).gamma


@pytest.mark.parametrize("block_dim", [-1, 2.5, "2", 72, 80])
def test_block_dim_outside_range_is_refused(exchange_6x6, block_dim):
    path, gamma0 = exchange_6x6
    with pytest.raises(ValueError, match=f"block_dim .* got {block_dim!r}"):
        adiabatic_evolve(AdiabaticSchedule(path, 1.0, 2), gamma0, block_dim=block_dim)


@pytest.mark.parametrize("n", [10, 70])
@pytest.mark.parametrize("block_dim", [0, 2])
def test_gamma0_of_another_dimension_is_refused(exchange_6x6, n, block_dim):
    path, _ = exchange_6x6
    s0 = "0.0000" if block_dim else "0.2500"
    with pytest.raises(ValueError, match=f"s = {s0} is 72x72, but gamma0 is {n}x{n}"):
        adiabatic_evolve(AdiabaticSchedule(path, 1.0, 2), np.zeros((n, n)), block_dim=block_dim)


def test_path_point_of_another_dimension_is_refused(exchange_6x6):
    path, gamma0 = exchange_6x6
    small = build_dissipator(random_generic_family(np.random.default_rng(3), 4, 4))

    def mixed(s):
        return small if s == 0.625 else path(s)

    with pytest.raises(ValueError, match="s = 0.6250 is 8x8, but gamma0 is 72x72"):
        adiabatic_evolve(AdiabaticSchedule(mixed, 1.0, 4), gamma0, block_dim=2)


def _folded_reference(path, gamma0, total_time, steps):
    """Lab-frame steps: ``evolve`` over each step with the dissipator of its midpoint."""
    gamma = gamma0
    for s in _midpoints(steps):
        gamma = evolve(path(s), gamma, total_time / steps)
    return gamma


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 16), st.floats(0.01, 20.0))
def test_moving_basis_matches_lab_frame_steps(seed, num_modes, steps, total_time):
    # The schedule carries Gamma in the eigenbasis of each step's X and
    # leaves it once; stepping in the lab frame must agree to rounding
    # (at most 8.9e-16 over 300 random draws).
    rng = np.random.default_rng(seed)
    n = 2 * num_modes
    num_ops = int(rng.integers(1, n + 1))
    a = random_generic_family(rng, num_modes, num_ops)
    b = random_generic_family(rng, num_modes, num_ops)

    def path(s):
        c, w = np.cos(0.5 * np.pi * s), np.sin(0.5 * np.pi * s)
        return build_dissipator([c * x + w * y for x, y in zip(a, b)], num_majoranas=n)

    gamma0 = random_covariance(rng, n)
    res = adiabatic_evolve(AdiabaticSchedule(path, total_time, steps), gamma0)
    ref = _folded_reference(path, gamma0, total_time, steps)
    assert np.abs(res.gamma - ref).max() <= 1e-13


@pytest.mark.parametrize("N", [10, 12, 16, 20, 24])
def test_closed_gap_is_refused_at_every_frame(N):
    # An open three-site wire has a four-dimensional kernel, so the gap above
    # a one-mode block is zero up to rounding, of either sign.
    from lindtop.models import kitaev_wire, three_site_wire

    d = build_dissipator(three_site_wire(1.0).finite_realization((N,), boundary="open").operators)
    gamma0 = steady_state(d).gamma
    with pytest.raises(ValueError, match="closed .* at s = 0.0000"):
        adiabatic_evolve(AdiabaticSchedule(lambda s: d, 1.0, 2), gamma0, block_dim=1)
    # Above a two-mode block the open Kitaev wire (kernel: its two end
    # Majoranas) is gapped, so a path that closes after s = 0 is refused at
    # its first midpoint, before the path is asked for the next one.
    kitaev = build_dissipator(kitaev_wire().finite_realization((N,), boundary="open").operators)
    asked = []

    def path(s):
        asked.append(s)
        return d if s > 0 else kitaev

    with pytest.raises(ValueError, match="closed .* at s = 0.2500"):
        adiabatic_evolve(AdiabaticSchedule(path, 1.0, 2), steady_state(kitaev).gamma,
                         block_dim=2)
    assert asked == [0.0, 0.25]


@pytest.fixture(scope="module")
def exchange_setup():
    from lindtop.models import cross_2d

    L, sep, delta = 14, 7.0, 0.7
    return vortex_exchange_path(cross_2d(2.0), (L, L), sep, delta)


def test_exchange_holonomy_and_leakage(exchange_setup):
    diss_at = exchange_setup
    gamma0 = steady_state(diss_at(0.0)).gamma
    leaks, orth = [], []
    for T in (10.0, 20.0):
        rep = braid_via_schedule(AdiabaticSchedule(diss_at, T, int(4 * T)), gamma0,
                                 block_dim=2)
        leaks.append(rep.leakage)
        # Both frames of the holonomy are read at the ends of the path.
        orth.append(np.linalg.norm(rep.holonomy.T @ rep.holonomy - np.eye(2), 2))
    assert leaks[1] < leaks[0]
    assert max(orth) <= 1e-12
    assert rep.fidelity_error < 0.1


@pytest.mark.parametrize("lattice, separation, steps", [(8, 4.0, 12), (14, 7.0, 20)])
def test_exchange_holonomy_is_orthogonal(lattice, separation, steps):
    # The holonomy compares the frames at s = 0 and s = 1, two orthonormal
    # bases of the same kernel, so it is orthogonal to rounding at any step.
    from lindtop.models import cross_2d

    path = vortex_exchange_path(cross_2d(2.0), (lattice, lattice), separation, 0.7)
    rep = braid_via_schedule(AdiabaticSchedule(path, 0.5 * steps, steps),
                             steady_state(path(0.0)).gamma)
    assert np.linalg.norm(rep.holonomy.T @ rep.holonomy - np.eye(2), 2) <= 1e-12


def test_exchange_path_keeps_no_dissipator():
    # A schedule asks for each ramp time once; the path must not hold on to
    # what it built, or a long exchange keeps every dissipator alive.
    from lindtop.models import cross_2d

    diss_at = vortex_exchange_path(cross_2d(2.0), (8, 8), 4.0, 0.7)
    first = diss_at(0.25)
    ref = weakref.ref(first)
    again = diss_at(0.25)
    assert again is not first
    assert np.array_equal(again.X, first.X) and np.array_equal(again.Y, first.Y)
    del first, again
    gc.collect()
    assert ref() is None


def test_exchange_path_rejects_circle_outside_lattice():
    from lindtop.models import cross_2d

    with pytest.raises(ValueError, match="leaves lattice"):
        vortex_exchange_path(cross_2d(2.0), (14, 10), 10.0, 0.7)
    vortex_exchange_path(cross_2d(2.0), (14, 10), 9.0, 0.7)   # radius 4.5 = (10 - 1) / 2


# ---------------------------------------------------------------------------
# The exchange pipeline: the next step's frame is computed on a worker thread
# ---------------------------------------------------------------------------

_PIPE_STEPS = 12


@pytest.fixture(scope="module")
def small_exchange():
    from lindtop.models import cross_2d

    path = vortex_exchange_path(cross_2d(2.0), (8, 8), 4.0, 0.7)
    return path, steady_state(path(0.0)).gamma


def _midpoints(steps):
    return [(i + 0.5) / steps for i in range(steps)]


def test_exchange_calls_back_on_caller_thread_in_step_order(small_exchange):
    base, gamma0 = small_exchange
    calls = []

    def path(s):
        calls.append(("path", s, threading.get_ident()))
        return base(s)

    adiabatic_evolve(AdiabaticSchedule(path, 3.0, _PIPE_STEPS), gamma0, block_dim=2)
    assert [s for _, s, _ in calls] == [0.0] + _midpoints(_PIPE_STEPS) + [1.0]
    assert {ident for _, _, ident in calls} == {threading.get_ident()}
    calls.clear()
    adiabatic_evolve(AdiabaticSchedule(path, 3.0, _PIPE_STEPS), gamma0)
    assert [s for _, s, _ in calls] == _midpoints(_PIPE_STEPS)


def test_exchange_path_error_propagates_and_leaves_no_thread(small_exchange):
    base, gamma0 = small_exchange
    third = _midpoints(_PIPE_STEPS)[2]

    class PathFailed(Exception):
        pass

    def path(s):
        if s == third:
            raise PathFailed(s)
        return base(s)

    before = threading.active_count()
    with pytest.raises(PathFailed):
        adiabatic_evolve(AdiabaticSchedule(path, 3.0, _PIPE_STEPS), gamma0, block_dim=2)
    assert threading.active_count() == before


def test_exchange_keeps_at_most_two_dissipators(small_exchange):
    base, gamma0 = small_exchange
    refs, alive = [], []

    def path(s):
        d = base(s)
        refs.append(weakref.ref(d))
        alive.append(sum(r() is not None for r in refs))
        return d

    adiabatic_evolve(AdiabaticSchedule(path, 3.0, _PIPE_STEPS), gamma0, block_dim=2)
    assert len(refs) == _PIPE_STEPS + 2
    assert max(alive) <= 2


def test_pipelined_schedule_equals_folded_evolve(small_exchange):
    # The worker computes the same eigenbasis and tables evolve would; the
    # schedule carries Gamma in the moving eigenbasis instead of returning to
    # the lab frame each step, so it equals the fold of evolve over the
    # midpoints up to rounding (1.7e-16 on this path).
    path, gamma0 = small_exchange
    T = 3.0
    res = adiabatic_evolve(AdiabaticSchedule(path, T, _PIPE_STEPS), gamma0)
    gamma = gamma0
    for s in _midpoints(_PIPE_STEPS):
        gamma = evolve(path(s), gamma, T / _PIPE_STEPS)
    assert np.abs(res.gamma - gamma).max() <= 1e-13
