#!/usr/bin/env python3
"""lindtop benchmark: run one seeded workload and print its metrics.

Run from anywhere; the library is imported from ``src/`` next to this
directory:

    python3 bench/run.py --workload bloch_edge --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines start with ``#``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 2 means the library could not be imported (no result is printed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bloch_edge", "vortex_braid")
BLAS_THREADS = 1        # <= nproc; one thread is the steadiest on a shared host
SETUP_RUNS = 3          # set-ups per run: this process plus two fresh ones
MIN_PASSES = 2          # untraced passes per run, however long a pass takes
MIN_COVERAGE = 0.9      # traced layer self time / traced wall time
TAIL_BEYOND = 10        # item_tail_s leaves this many items above it

# Per-layer span totals reported as "<name>.s".
TIMED_SPANS = (
    "bloch.momentum_state", "bloch.sector_rates", "bloch.flatten",
    "bloch.winding_number", "bloch.chern_number",
    "models.finite_realization", "models.smallest_damping_rates",
    "models.residual_damping_vs_separation",
    "majorana.build_dissipator", "majorana.purity_spectrum",
    "dynamics.steady_state", "braiding.braid_via_schedule",
    "edge.solve_beta_2d", "edge.solve_beta_1d", "edge.build_mode", "edge.fit_localization",
    "meanfield.solve_number_equation", "meanfield.fluctuation_scaling",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="seed of the workload's inputs")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measuring time; a pass that would end past it is not started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes")
    # A fresh process that sets up, prints {"setup_s": ...} and exits.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import lindtop from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lindtop

    found = Path(lindtop.__file__).resolve()
    if src.resolve() not in found.parents:
        raise ImportError(f"lindtop imported from {found}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_pass(workload, inputs, tracer=None):
    from spans import Api
    from workloads import Pass

    api, rec = Api(tracer), Pass()
    gc.collect()
    t0 = time.perf_counter()
    workload.run(api, inputs, rec)
    rec.wall = time.perf_counter() - t0
    return rec


def measure(workload, inputs, seconds: float, traced: bool):
    """Untraced passes (and, traced, one traced pass after each) until time is up."""
    from spans import Tracer

    plain, spans = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, inputs))
        if traced:
            tracer = Tracer()
            spans.append((run_pass(workload, inputs, tracer), tracer))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        if rounds >= (1 if traced else MIN_PASSES) and elapsed * (rounds + 1) / rounds > seconds:
            return plain, spans


def setup_elsewhere(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end_metrics(passes, setups, checks):
    items = sorted(x for p in passes for x in p.items)
    failed = sum(not c.ok for c in checks)
    tail = max(0, len(items) - 1 - TAIL_BEYOND)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "item_p50_s": (statistics.median(items), "s"),
        "item_tail_s": (items[tail], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "verified_frac": (1.0 - failed / len(checks), "ratio"),
    }
    counts = {
        "wall_s": f"{len(passes)} passes: " + ", ".join(f"{p.wall:.3f}" for p in passes),
        "item_p50_s": f"{len(items)} items, CPU time",
        "item_tail_s": f"{len(items)} items, CPU time, p{100.0 * (tail + 1) / len(items):.1f}, "
                       f"{len(items) - tail - 1} beyond",
        "setup_s": f"{len(setups)} set-ups",
        "verified_frac": f"failed_frac {failed / len(checks):.4f} = {failed}/{len(checks)} "
                         "operations of one pass",
    }
    return metrics, counts


def layer_metrics(rec, tracer) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    wall, calls, counter = tracer.wall, tracer.calls, tracer.counters
    m = {f"{name}.s": (wall.get(name, 0.0), "s") for name in TIMED_SPANS}
    m.update({
        "bloch.k_points": (counter.get("bloch.k_points", 0), "count"),
        "bloch.k_points_per_s": (ratio(counter.get("bloch.k_points", 0),
                                       wall.get("bloch.momentum_state", 0.0)), "1/s"),
        "bloch.accept_ratio": (ratio(counter.get("bloch.stencils_gapped", 0),
                                     counter.get("bloch.stencils_attempted", 0)), "ratio"),
        "bloch.gap_errors": (counter.get("bloch.gap_errors", 0), "count"),
        "models.operators": (counter.get("models.operators", 0), "count"),
        "majorana.build_dissipator.calls": (calls.get("majorana.build_dissipator", 0), "count"),
        "majorana.max_dim": (counter.get("majorana.max_dim", 0), "count"),
        "majorana.dense_bytes": (counter.get("majorana.dense_bytes", 0), "B"),
        "dynamics.steady_state.calls": (calls.get("dynamics.steady_state", 0), "count"),
        "dynamics.steady_state.residual_max": (
            counter.get("dynamics.steady_state.residual_max", 0.0), "norm"),
        "braiding.self_s": (tracer.self_time.get("braiding.braid_via_schedule", 0.0), "s"),
        "braiding.steps": (counter.get("braiding.steps", 0), "count"),
        "braiding.path_calls": (counter.get("braiding.path_calls", 0), "count"),
        "braiding.path_hit_ratio": (ratio(counter.get("braiding.path_hits", 0),
                                          counter.get("braiding.path_calls", 0)), "ratio"),
        "edge.solutions": (counter.get("edge.solutions", 0), "count"),
        "trace.coverage": (ratio(tracer.library_self_time(), rec.wall), "ratio"),
    })
    return m


def traced_metrics(plain, spans):
    per_pass = [layer_metrics(rec, tracer) for rec, tracer in spans]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    overhead = (statistics.median(rec.wall for rec, _ in spans)
                - statistics.median(p.wall for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, min(m["trace.coverage"][0] for m in per_pass)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        import_library()
    except ImportError as exc:
        print(f"bench: cannot import lindtop from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(np.random.default_rng(args.seed), args.size == "tiny")
    # Warm-up: one pass at smoke-test sizes loads every lazy import and code path.
    run_pass(workload, workload.make_inputs(np.random.default_rng(args.seed), True))
    setups = [time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0
    if not args.trace:
        setups += [setup_elsewhere(args) for _ in range(SETUP_RUNS - 1)]

    plain, spans = measure(workload, inputs, args.seconds, bool(args.trace))
    # Every pass runs the same inputs, so the operations and their verdicts
    # are those of one pass; how many passes fit in the time does not change
    # them.  A pass whose verdicts differ from the first makes the run incorrect.
    checks = plain[0].checks
    failed = [c for c in checks if not c.ok]
    verdicts = [(c.label, c.ok) for c in checks]
    repeatable = all([(c.label, c.ok) for c in rec.checks] == verdicts
                     for rec in plain[1:] + [rec for rec, _ in spans])
    correct = repeatable and all(c.known_defect for c in failed)

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace} seconds {args.seconds:g}")
    if not repeatable:
        print("# verdicts differ between passes over the same inputs")
    if args.trace:
        metrics, coverage = traced_metrics(plain, spans)
        notes = {}
        if coverage < MIN_COVERAGE:
            correct = False
            print(f"# layer coverage {coverage:.3f} < {MIN_COVERAGE}: spans miss part of wall_s")
    else:
        metrics, notes = end_to_end_metrics(plain, setups, checks)
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    for c in {c.label: c for c in failed}.values():
        tag = "known defect" if c.known_defect else "FAILED"
        print(f"# {tag}: {c.label}: {c.detail}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
