"""Per-layer tracing for the lindtop benchmark.

The benchmark never calls ``lindtop`` directly: every call goes through an
:class:`Api`.  Untraced, an ``Api`` hands out the library functions
themselves, so end-to-end timings carry no tracing cost.  Traced, each
function is wrapped in a span that accumulates wall time, self time (wall
time minus the spans nested inside it) and a call count under a
``<module>.<function>`` name, and counters are taken at the same boundary
from the values the call returns.

Only calls made by the benchmark are spans; calls the library makes
internally are part of the caller's span.  Span names starting with
``bench.`` are the benchmark's own code (the braid path callback) and do not
count towards layer coverage.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Callable, Dict

from lindtop import bloch, braiding, dynamics, edge, majorana, meanfield, models

# Every library entry point a workload uses, by span name.  ``solve_beta`` is
# traced under two names so the 1D and 2D root solves show separately.
LIBRARY: Dict[str, Callable] = {
    "bloch.bz_grid": bloch.bz_grid,
    "bloch.momentum_state": bloch.momentum_state,
    "bloch.sector_rates": bloch.sector_rates,
    "bloch.flatten": bloch.flatten,
    "bloch.winding_number": bloch.winding_number,
    "bloch.chern_number": bloch.chern_number,
    "models.three_site_wire": models.three_site_wire,
    "models.cross_2d": models.cross_2d,
    "models.kitaev_wire": models.kitaev_wire,
    "models.finite_realization": models.ModelInstance.finite_realization,
    "models.smallest_damping_rates": models.smallest_damping_rates,
    "models.residual_damping_vs_separation": models.residual_damping_vs_separation,
    "majorana.build_dissipator": majorana.build_dissipator,
    "majorana.purity_spectrum": majorana.purity_spectrum,
    "dynamics.steady_state": dynamics.steady_state,
    "braiding.braid_via_schedule": braiding.braid_via_schedule,
    "edge.solve_beta_1d": edge.solve_beta,
    "edge.solve_beta_2d": edge.solve_beta,
    "edge.build_mode": edge.build_mode,
    "edge.fit_localization": edge.fit_localization,
    "meanfield.solve_number_equation": meanfield.solve_number_equation,
    "meanfield.fluctuation_scaling": meanfield.fluctuation_scaling,
}


def _dissipator_counts(tracer: "Tracer", d) -> None:
    n = d.X.shape[0]
    # Computed, not measured: X and Y are each one dense n x n float64 array.
    tracer.count("majorana.dense_bytes", 2 * 8 * n * n)
    tracer.maximum("majorana.max_dim", n)


# Counters read off a traced call's return value.
_RESULT_COUNTS: Dict[str, Callable] = {
    "bloch.momentum_state": lambda t, r: t.count("bloch.k_points", r.gamma.size // 4),
    "models.finite_realization": lambda t, r: t.count("models.operators", len(r.operators)),
    "majorana.build_dissipator": _dissipator_counts,
    "dynamics.steady_state": lambda t, r: t.maximum("dynamics.steady_state.residual_max",
                                                    r.residual),
    "edge.solve_beta_1d": lambda t, r: t.count("edge.solutions", len(r)),
    "edge.solve_beta_2d": lambda t, r: t.count("edge.solutions", len(r)),
}


class Tracer:
    """Span totals and counters of one traced pass."""

    def __init__(self) -> None:
        self.wall: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self._children = []      # time covered by child spans, one entry per open span

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def span(self, name: str, fn: Callable) -> Callable:
        on_result = _RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except bloch.GapClosedError:
                self.count("bloch.gap_errors")
                raise
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                self.wall[name] = self.wall.get(name, 0.0) + dt
                self.self_time[name] = self.self_time.get(name, 0.0) + dt - child
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._children:
                    self._children[-1] += dt
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def library_self_time(self) -> float:
        """Self time summed over library spans (the benchmark's own excluded)."""
        return sum(t for name, t in self.self_time.items() if not name.startswith("bench."))


class Api:
    """Library entry points as ``api.<module>.<function>``, traced or plain."""

    def __init__(self, tracer: Tracer = None) -> None:
        self.tracer = tracer
        for name, fn in LIBRARY.items():
            module, func = name.split(".")
            if not hasattr(self, module):
                setattr(self, module, SimpleNamespace())
            setattr(getattr(self, module), func, fn if tracer is None else tracer.span(name, fn))

    def count(self, name: str, n: float = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, n)

    def own(self, name: str, fn: Callable) -> Callable:
        """Trace a benchmark-side callback that the library calls back into."""
        return fn if self.tracer is None else self.tracer.span(f"bench.{name}", fn)
