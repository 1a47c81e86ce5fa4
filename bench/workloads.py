"""The two seeded workloads of the lindtop benchmark.

Each workload is two parts run in turn.  A part has an input generator, which
draws everything that varies from the seed, and a pass function, which runs
the inputs through the library via an :class:`spans.Api`, times each work
item and records one verdict per operation against a physics reference.  A
pass never caches anything for the next pass.  Why each workload exists, and
which layer metric should move which end-to-end metric, is in ``README.md``
next to this file.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from lindtop.bloch import BlochStencil, GapClosedError
from lindtop.braiding import AdiabaticSchedule
from lindtop.models import VortexConfig

# What a library call may raise instead of returning a value.  Each one is a
# failed operation, not a crashed run.
LIBRARY_ERRORS = (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str
    known_defect: bool = False


# Item latency is the process CPU time an item takes.  The benchmark runs on
# one thread, so this is its wall time minus the time the process spent
# descheduled; on a shared host those pauses (0.1 s, several times a minute)
# would otherwise decide item_tail_s.  Pass times stay wall-clock.
item_clock = time.process_time


@dataclass
class Pass:
    """Wall time, work-item latencies and verdicts of one pass."""

    wall: float = 0.0
    items: List[float] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    @contextmanager
    def item(self):
        t0 = item_clock()
        try:
            yield
        finally:
            self.items.append(item_clock() - t0)

    def check(self, label: str, problems: List[str], known_defect: bool = False) -> None:
        self.checks.append(Check(label, not problems, "; ".join(problems), known_defect))


def _error(exc: Exception) -> List[str]:
    return [f"{type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# bloch_edge, part 1: the fig-1d-example1 kappa sweep, then the criterion-12
# Chern batch
# ---------------------------------------------------------------------------

KAPPA_GRID = np.round(np.arange(0.0, 4.0 + 1e-9, 0.05), 10)
# At kappa = 2 the damping gap closes at k = pi, yet the library returns
# winding 1; at 1.95 and 2.05 winding_number rejects the 256-point grid as
# under-resolved.  These rows are counted as failed operations but do not
# mark the run incorrect, so that fixing them shows as fewer failures.
KNOWN_DEFECT_KAPPAS = (1.95, 2.0, 2.05)
GAP_TOL = 1e-10
STENCILS = 10
STENCIL_GAP = 0.05      # criterion 12's margin on both the damping and purity gap


def _random_pure_capable_stencil(rng: np.random.Generator) -> BlochStencil:
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
    st = BlochStencil(2, tuple(offs), tuple(u[o] for o in offs),
                      tuple(v[o] for o in offs), center=(0.0, 0.0))
    if not st.is_pure_capable():
        raise RuntimeError("stencil generator produced a non-pure-capable stencil")
    return st


def _bz_inputs(rng: np.random.Generator, tiny: bool) -> Dict:
    count, nk2 = (2, 16) if tiny else (STENCILS, 48)
    return {
        "kappas": KAPPA_GRID[::10] if tiny else KAPPA_GRID,
        "nk": 64 if tiny else 256,
        "nk2": nk2,
        "stencils": [_random_pure_capable_stencil(rng) for _ in range(count)],
    }


def _kappa_row(api, kappa: float, ks0: np.ndarray, ks5: np.ndarray) -> Tuple[List[str], bool]:
    """Damping gap, purity gap and winding of the three-site wire at kappa.

    Returns the problems found and whether they are exactly this row's known
    defect (a wrong or refused winding next to the gap closing).
    """
    model = api.models.three_site_wire(kappa)
    k = ks0[:, 0]
    exact_gap = float(((8 + 2 * kappa**2 + 8 * kappa * np.cos(k)) / (4 + kappa**2)).min())
    closed = exact_gap <= GAP_TOL
    known = kappa in KNOWN_DEFECT_KAPPAS
    try:
        gap = float(api.bloch.sector_rates(model, ks0).min())
    except LIBRARY_ERRORS as exc:
        return _error(exc), False
    problems = []
    if abs(gap - exact_gap) >= GAP_TOL:
        problems.append(f"damping gap {gap!r} != closed form {exact_gap!r}")
    try:
        flat = api.bloch.flatten(api.bloch.momentum_state(model, ks5), tol=1e-8)
    except GapClosedError as exc:
        if not closed:
            problems.append(f"gap reported closed on an open gap: {exc}")
        return problems, False
    except LIBRARY_ERRORS as exc:
        return problems + _error(exc), False
    if not closed and abs(flat.purity_gap - 1.0) >= GAP_TOL:
        problems.append(f"purity gap {flat.purity_gap!r} != 1")
    try:
        winding = api.bloch.winding_number(flat)
    except GapClosedError as exc:
        if not closed:
            problems.append(f"gap reported closed on an open gap: {exc}")
        return problems, False
    except LIBRARY_ERRORS as exc:
        return problems + _error(exc), known and not problems
    if closed:
        return problems + [f"winding {winding} reported where the damping gap closes"], \
            known and not problems
    expected = 2 if kappa < 2.0 else 0
    if winding != expected:
        problems.append(f"winding {winding} != {expected}")
    return problems, False


# A gapped pure-capable stencil has Chern number 0.  chern_number has no
# resolution guard (winding_number refuses steps of pi/2 or more), so where
# n(k) turns faster than even the fine grid resolves it returns a wrong
# integer: about one stencil in thirty.  Such a stencil is a counted failure
# but, like the kappa rows, does not mark the run incorrect.
CHERN_UNDER_RESOLVED = "chern {} != 0 for a gapped pure-capable stencil on the {} grid"


@dataclass
class StencilResult:
    problems: List[str]
    purity_gap: Optional[float] = None      # set for a gapped instance
    refined: bool = False                   # the Chern number needed the fine grid
    known_defect: bool = False


def _fine_chern(api, st: BlochStencil, fine: np.ndarray) -> StencilResult:
    try:
        chern = api.bloch.chern_number(
            api.bloch.flatten(api.bloch.momentum_state(st, fine), tol=STENCIL_GAP))
    except LIBRARY_ERRORS as exc:
        return StencilResult(_error(exc), refined=True)
    if chern == 0:
        return StencilResult([], refined=True)
    n = int(round(math.sqrt(fine.size // 2)))
    return StencilResult([CHERN_UNDER_RESOLVED.format(chern, f"{n}x{n}")], refined=True,
                         known_defect=True)


def _stencil_attempt(api, st: BlochStencil, ks: np.ndarray, fine: np.ndarray) -> StencilResult:
    """Criterion 12 on one stencil: Chern 0 whenever both gaps are open."""
    api.count("bloch.stencils_attempted")
    try:
        flat = api.bloch.flatten(api.bloch.momentum_state(st, ks), tol=STENCIL_GAP)
        if float(api.bloch.sector_rates(st, ks).min()) <= STENCIL_GAP:
            return StencilResult([])        # damping gap below the margin: not gapped
    except GapClosedError:
        return StencilResult([])            # purity gap closed: not gapped
    except LIBRARY_ERRORS as exc:
        return StencilResult(_error(exc))
    api.count("bloch.stencils_gapped")
    try:
        if api.bloch.chern_number(flat) == 0:
            return StencilResult([], flat.purity_gap)
    except ValueError:
        pass                                # not integral on the coarse grid
    # Refine the grid before calling it a counterexample.
    result = _fine_chern(api, st, fine)
    result.purity_gap = flat.purity_gap
    return result


def _bz_pass(api, inp: Dict, rec: Pass) -> None:
    ks0 = api.bloch.bz_grid(inp["nk"], 1, offset=0.0)     # contains k = pi
    ks5 = api.bloch.bz_grid(inp["nk"], 1, offset=0.5)
    for kappa in inp["kappas"]:
        kappa = float(kappa)
        with rec.item():
            problems, known_defect = _kappa_row(api, kappa, ks0, ks5)
        rec.check(f"kappa={kappa:g}", problems, known_defect)
    ks = api.bloch.bz_grid(inp["nk2"], 2, offset=0.5)
    fine = api.bloch.bz_grid(2 * inp["nk2"], 2, offset=0.5)
    refined, gaps = False, {}
    for i, st in enumerate(inp["stencils"]):
        with rec.item():
            result = _stencil_attempt(api, st, ks, fine)
        rec.check(f"stencil {i}", result.problems, result.known_defect)
        refined |= result.refined
        if result.purity_gap is not None:
            gaps[i] = result.purity_gap
    if not refined and gaps:
        # About one stencil in twenty needs the fine grid.  Refining the
        # least-gapped one when none did keeps the cost of a pass, and its
        # peak memory, from depending on how many the seed happened to draw.
        i = min(gaps, key=gaps.get)
        with rec.item():
            result = _fine_chern(api, inp["stencils"][i], fine)
        rec.check(f"stencil {i} on the fine grid", result.problems, result.known_defect)


# ---------------------------------------------------------------------------
# vortex_braid, part 1: one dense two-vortex solve, then the sparse separation
# sweep
# ---------------------------------------------------------------------------

ZERO_RATE = 1e-10       # criterion 6: quasi-zero damping rate
ZERO_PURITY = 1e-6      # criterion 6: quasi-zero purity value


def _vortex_inputs(rng: np.random.Generator, tiny: bool) -> Dict:
    return {
        "lattice": 11 if tiny else 21,
        "separation": 5.0 if tiny else 10.0,
        "vertical": bool(rng.integers(2)),
        "sweep_beta": float(rng.choice([2.8, 3.0, 3.2])),
        "sweep_lattice": 15 if tiny else 35,
        # Ten separations keep enough items per run for item_tail_s to sit
        # above the median even when only two passes fit.
        "separations": (2.0, 4.0, 6.0) if tiny else tuple(float(d) for d in range(4, 14)),
    }


def _pair_problems(rates: np.ndarray, purity: np.ndarray, kernel_dim: int) -> List[str]:
    problems = []
    if not (rates[0] <= ZERO_RATE and rates[1] <= ZERO_RATE and rates[2] > ZERO_RATE):
        problems.append(f"damping rates {rates[:3]}")
    if not (purity[0] <= ZERO_PURITY and purity[1] <= ZERO_PURITY and purity[2] > ZERO_PURITY):
        problems.append(f"purity values {purity[:3]}")
    if kernel_dim != 2:
        problems.append(f"kernel dim {kernel_dim} != 2")
    return problems


def _separation_fit_problems(ds: np.ndarray, rates: np.ndarray) -> List[str]:
    """Criterion 6: the rate falls with separation, log-linearly (R^2 >= 0.95)."""
    problems = []
    branch = rates[: max(3, int(np.argmin(rates)) + 1)]
    if not np.all(np.diff(branch[:3]) < 0):
        problems.append(f"rates not decreasing: {rates}")
    stop = 1
    while stop < len(rates) and rates[stop] < rates[stop - 1]:
        stop += 1
    if stop < 3:
        return problems + ["monotone branch shorter than 3 points"]
    x, y = ds[:stop], np.log(rates[:stop])
    slope, intercept = np.polyfit(x, y, 1)
    r2 = 1.0 - float(np.sum((y - slope * x - intercept) ** 2)) / float(np.sum((y - y.mean()) ** 2))
    if not (slope < 0 and r2 >= 0.95):
        problems.append(f"log-rate fit slope {slope:.3g}, R^2 {r2:.3f}")
    return problems


def _vortex_pass(api, inp: Dict, rec: Pass) -> None:
    L, sep = inp["lattice"], inp["separation"]
    c = (L - 1) / 2.0
    if inp["vertical"]:
        cores = [(c, c - sep / 2.0), (c, c + sep / 2.0)]
    else:
        cores = [(c - sep / 2.0, c), (c + sep / 2.0, c)]
    with rec.item():
        try:
            model = api.models.cross_2d(2.0)
            fr = api.models.finite_realization(model, (L, L), boundary="open",
                                               placement="truncated",
                                               vortices=[VortexConfig(p, 1) for p in cores])
            rates = api.models.smallest_damping_rates(fr, k=6)
            d = api.majorana.build_dissipator(fr.operators, num_majoranas=2 * L * L)
            res = api.dynamics.steady_state(d)
            purity = api.majorana.purity_spectrum(res.gamma).values
            problems = _pair_problems(rates, purity, len(res.undetermined_basis))
        except LIBRARY_ERRORS as exc:
            problems = _error(exc)
    rec.check("dense two-vortex quasi-zero modes", problems)

    ds = np.asarray(inp["separations"], float)
    rates = np.full(ds.shape, np.nan)
    for i, dist in enumerate(ds):
        with rec.item():
            try:
                sweep = api.models.residual_damping_vs_separation(
                    inp["sweep_beta"], [float(dist)], lattice=inp["sweep_lattice"])
                rates[i] = sweep.rates[0]
                problems = [] if rates[i] > 0 else [f"rate {rates[i]!r}"]
            except LIBRARY_ERRORS as exc:
                problems = _error(exc)
        rec.check(f"separation {dist:g}", problems)
    if np.all(rates > 0):
        rec.check("rate falls with separation", _separation_fit_problems(ds, rates))
    else:
        rec.check("rate falls with separation", ["sweep incomplete"])


# ---------------------------------------------------------------------------
# vortex_braid, part 2: the cli.braid two-vortex exchange at two ramp times
# ---------------------------------------------------------------------------

def _braid_inputs(rng: np.random.Generator, tiny: bool) -> Dict:
    return {
        "lattice": 8 if tiny else 14,
        "separation": 4.0 if tiny else 7.0,
        "core_scale": 0.7,
        "times": (10.0, 20.0),
        "dt": 0.5,
        # The pair starts along one of the four lattice-equivalent axes.
        "theta0": 0.5 * math.pi * int(rng.integers(4)),
    }


def _braid_pass(api, inp: Dict, rec: Pass) -> None:
    L, sep, core = inp["lattice"], inp["separation"], inp["core_scale"]
    ctr = (L - 1) / 2.0
    model = api.models.cross_2d(2.0)
    cache: Dict[float, object] = {}
    last_call = [None]      # time of the previous path call in this schedule

    def diss_at(s: float):
        now = item_clock()
        if last_call[0] is not None:
            rec.items.append(now - last_call[0])
        last_call[0] = now
        api.count("braiding.path_calls")
        if s in cache:
            api.count("braiding.path_hits")
            return cache[s]
        th = inp["theta0"] + math.pi * s
        dx, dy = sep / 2.0 * math.cos(th), sep / 2.0 * math.sin(th)
        vs = [VortexConfig((ctr - dx, ctr - dy), 1, core_scale=core),
              VortexConfig((ctr + dx, ctr + dy), 1, core_scale=core)]
        fr = api.models.finite_realization(model, (L, L), boundary="open",
                                           placement="truncated", vortices=vs)
        cache[s] = api.majorana.build_dissipator(fr.operators, num_majoranas=2 * L * L)
        return cache[s]

    path = api.own("path", diss_at)
    gamma0 = api.dynamics.steady_state(path(0.0)).gamma
    reports = []
    for total in inp["times"]:
        steps = max(2, int(round(total / inp["dt"])))
        api.count("braiding.steps", steps)
        last_call[0] = None
        try:
            rep = api.braiding.braid_via_schedule(AdiabaticSchedule(path, total, steps),
                                                  gamma0, block_dim=2)
        except LIBRARY_ERRORS as exc:
            rec.check(f"exchange T={total:g}", _error(exc))
            continue
        finite = math.isfinite(rep.leakage) and math.isfinite(rep.fidelity_error)
        rec.check(f"exchange T={total:g}", [] if finite else ["non-finite leakage or fidelity"])
        reports.append(rep)
    problems = []
    if len(reports) != len(inp["times"]):
        problems.append("an exchange failed")
    else:
        for a, b in zip(reports, reports[1:]):
            if not b.leakage < a.leakage:
                problems.append(f"leakage {a.leakage:.3e} -> {b.leakage:.3e} does not fall")
            if not b.fidelity_error < a.fidelity_error:
                problems.append(f"fidelity error {a.fidelity_error:.3e} -> "
                                f"{b.fidelity_error:.3e} does not fall")
    rec.check("leakage and fidelity error fall with ramp time", problems)


# ---------------------------------------------------------------------------
# bloch_edge, part 2: 2D edge roots at eight phases, the 1D wire edge, mean
# field
# ---------------------------------------------------------------------------

ROOT_TOL = 1e-8         # residual of the Laurent condition, relative to max |c_j|


def _edge_inputs(rng: np.random.Generator, tiny: bool) -> Dict:
    # One phase per octant; phases 0 and pi, which take the factored path,
    # are reached with probability zero, so every 2D solve scans.
    phases = [0.0, math.pi] if tiny else list(2 * math.pi * (np.arange(8) + rng.random(8)) / 8)
    return {
        "phases": [float(p) for p in phases],
        "kappas": (float(rng.uniform(1.0, 1.45)), float(rng.uniform(1.45, 1.9))),
        "chain": 30 if tiny else 60,
        "sizes": tuple(int(rng.choice([16, 24, 32])) * 2**j for j in range(4)),
    }


def _root_problems(st: BlochStencil, phase: float, sols) -> List[str]:
    """Every returned (beta_x, beta_y) must solve the Laurent condition."""
    if not sols:
        return ["no edge solution"]
    offs = np.asarray(st.offsets, float)
    c = np.exp(-1j * phase) * np.asarray(st.u, complex) + np.asarray(st.v, complex)
    problems = []
    for s in sols:
        bx, by = s.betas
        res = abs(np.sum(c * bx ** offs[:, 0] * by ** offs[:, 1])) / np.abs(c).max()
        if not res <= ROOT_TOL:
            problems.append(f"root {s.betas} has residual {res:.2e}")
    return problems


def _wire_edge_problems(api, wire, phase: float, chain: int, xi_exact: float) -> List[str]:
    """Three-site wire edge mode: fitted decay length within 5% of -1/ln(kappa/2)."""
    try:
        sols = api.edge.solve_beta_1d(wire.stencil, phase)
        if not sols:
            return ["no edge solution"]
        problems = []
        for sol in sols:
            mode = api.edge.build_mode(sol, wire, (chain,))
            fit = api.edge.fit_localization(mode.vector, (chain,))
            if not abs(fit.xi - xi_exact) / xi_exact < 0.05:
                problems.append(f"xi {fit.xi:.3f} vs {xi_exact:.3f}")
        return problems
    except LIBRARY_ERRORS as exc:
        return _error(exc)


def _edge_pass(api, inp: Dict, rec: Pass) -> None:
    st = api.models.cross_2d(3.0).stencil
    for phase in inp["phases"]:
        with rec.item():
            try:
                problems = _root_problems(st, phase, api.edge.solve_beta_2d(st, phase))
            except LIBRARY_ERRORS as exc:
                problems = _error(exc)
        rec.check(f"2D edge roots at phase {phase:.6f}", problems)

    for kappa in inp["kappas"]:
        wire = api.models.three_site_wire(kappa)
        xi_exact = -1.0 / math.log(kappa / 2.0)
        for phase in (0.0, math.pi):
            with rec.item():
                problems = _wire_edge_problems(api, wire, phase, inp["chain"], xi_exact)
            rec.check(f"1D edge at kappa={kappa:.6f}, phase {phase:.6f}", problems)

    kitaev = api.models.kitaev_wire().stencil
    try:
        r = api.meanfield.solve_number_equation(kitaev, 0.5).alpha_modulus
        problems = [] if abs(r - 1.0) <= 1e-8 else [f"r = {r!r} != 1"]
    except LIBRARY_ERRORS as exc:
        problems = _error(exc)
    rec.check("number equation: r = 1 at filling 1/2", problems)
    try:
        table = api.meanfield.fluctuation_scaling(kitaev, 1.0, inp["sizes"])
        prods = [v * L for v, L in zip(table.values, table.sizes)]
        spread = max(prods) / min(prods)
        problems = [] if spread < 1.1 else [f"DeltaN^2 * L varies by {spread:.3f}"]
    except LIBRARY_ERRORS as exc:
        problems = _error(exc)
    rec.check("DeltaN^2 * L constant within 10%", problems)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[np.random.Generator, bool], List[Dict]]
    run: Callable[[object, List[Dict], Pass], None]


def _in_turn(*parts: Tuple[Callable, Callable]) -> Workload:
    """One workload whose pass runs each (inputs, pass) part in turn."""
    def make_inputs(rng: np.random.Generator, tiny: bool) -> List[Dict]:
        return [make(rng, tiny) for make, _ in parts]

    def run(api, inputs: List[Dict], rec: Pass) -> None:
        for (_, run_part), inp in zip(parts, inputs):
            run_part(api, inp, rec)

    return Workload(make_inputs, run)


# Two workloads of about 15 s a pass each, so that a run can be long: on a
# shared host the CPU speed drifts, and a long run averages more of it.
WORKLOADS: Dict[str, Workload] = {
    "bloch_edge": _in_turn((_bz_inputs, _bz_pass), (_edge_inputs, _edge_pass)),
    "vortex_braid": _in_turn((_vortex_inputs, _vortex_pass), (_braid_inputs, _braid_pass)),
}
