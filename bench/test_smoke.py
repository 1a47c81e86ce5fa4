"""Fast smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that every
metric declared in BENCHMARK.json is reported with its unit, that verdicts
were evaluated, and that the reference checks reject wrong answers.  Tiny
sizes are too small for some references (a vortex pair needs a lattice of
about 17 x 17 before its core modes reach 1e-10), so ``correct`` is not
asserted here.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from lindtop.bloch import bz_grid  # noqa: E402
from lindtop.models import cross_2d  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    assert {"git_sha", "nproc", "numpy", "scipy", "blas", "blas_threads"} <= set(env)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "bloch_edge", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    def make():
        return repr(workloads.WORKLOADS[workload].make_inputs(np.random.default_rng(5), False))

    assert make() == make()


def test_reference_checks_reject_wrong_answers():
    assert workloads._pair_problems(np.array([0, 0, 1e-2]), np.array([0, 0, 1e-2]), 2) == []
    assert workloads._pair_problems(np.array([0, 1e-3, 1e-2]), np.array([0, 0, 1e-2]), 2)
    assert workloads._pair_problems(np.array([0, 0, 1e-2]), np.array([0, 0, 1e-2]), 3)

    ds = np.arange(4.0, 10.0)
    assert workloads._separation_fit_problems(ds, np.exp(-ds)) == []
    assert workloads._separation_fit_problems(ds, np.exp(ds))

    st = cross_2d(3.0).stencil
    assert workloads._root_problems(st, 0.3, []) == ["no edge solution"]
    assert workloads._root_problems(st, 0.3, [SimpleNamespace(betas=(0.5, 0.5))])


def test_kappa_row_flags_a_wrong_winding_as_a_new_failure():
    api = spans.Api()
    ks0, ks5 = bz_grid(256, 1, offset=0.0), bz_grid(256, 1, offset=0.5)
    assert workloads._kappa_row(api, 1.0, ks0, ks5) == ([], False)
    assert workloads._kappa_row(api, 3.0, ks0, ks5) == ([], False)
    wrong = SimpleNamespace(models=api.models, bloch=SimpleNamespace(**vars(api.bloch)))
    wrong.bloch.winding_number = lambda flat: 1
    for kappa in (1.0, 1.95):
        assert workloads._kappa_row(wrong, kappa, ks0, ks5) == (["winding 1 != 2"], False)
