"""CLI surface: outputs, metadata, determinism, exit codes, golden files."""

import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from lindtop.cli import MAX_SWEEP_POINTS, _parse_sweep, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(*args):
    runner = CliRunner()
    return runner.invoke(main, list(args), catch_exceptions=False)


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def test_invariant_winding():
    res = run_cli("invariant", "--model", "three_site", "--kappa", "1")
    assert res.exit_code == 0
    meta, header, rows = parse_csv(res.stdout)
    assert header == ["invariant", "value"]
    assert rows == [["winding", "2"]]
    assert meta["version"]
    assert len(meta["config_hash"]) == 12


def test_invariant_chern_spec_example():
    res = run_cli("invariant", "--model", "cross2d", "--beta", "2", "--task", "chern",
                  "--grid", "48")
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert rows == [["chern", "0"]]


def test_invariant_uzeros_metadata():
    res = run_cli("invariant", "--model", "cross2d", "--beta", "2", "--task", "uzeros",
                  "--grid", "48")
    assert res.exit_code == 0
    meta, header, rows = parse_csv(res.stdout)
    assert meta["winding_sum"] == "0"
    assert len(rows) == 4


def test_sweep_row_count():
    res = run_cli("sweep", "--model", "three_site_wire",
                  "--sweep", "kappa=0:4:0.05", "--grid", "16")
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert len(rows) == 81


def test_sweep_keeps_purity_gap_when_only_the_invariant_fails():
    # On an 8-point grid the windings at kappa = 1 and 3 are not integral, but
    # the flattened state exists: its purity gap is reported, not 0.0.
    res = run_cli("sweep", "--model", "three_site", "--sweep", "kappa=1.0,2.0,3.0", "--grid", "8")
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert [r[3] for r in rows] == ["None", "1", "None"]
    assert all(abs(float(r[2]) - 1.0) < 1e-12 for r in rows)


def test_sweep_reads_pi():
    # --sweep reads its numbers as the other numeric options do.
    for spec in ("kappa=1,pi", "kappa=1:pi:2.141592653589793"):
        res = run_cli("sweep", "--model", "three_site", "--sweep", spec, "--grid", "8")
        assert res.exit_code == 0, res.output
        _, _, rows = parse_csv(res.stdout)
        assert [float(r[0]) for r in rows] == [1.0, math.pi]


def test_sweep_json_structure():
    res = run_cli("sweep", "--model", "three_site", "--sweep", "kappa=0.5,1.5",
                  "--grid", "32", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert set(payload) == {"meta", "columns", "rows"}
    assert payload["columns"] == ["kappa", "damping_gap", "purity_gap", "winding"]
    assert len(payload["rows"]) == 2
    assert payload["rows"][0][3] == 2
    assert payload["meta"]["config_hash"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("kappa = 3.0  # overridden below\n")
    res = run_cli("invariant", "--model", "three_site", "--config", str(cfg),
                  "--param", "kappa=1.0")
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert rows == [["winding", "2"]]


def test_json_config_file(tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text('{"kappa": 2.5}')
    res = run_cli("invariant", "--model", "three_site", "--config", str(cfg))
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert rows == [["winding", "0"]]


def test_unknown_model_exits_2():
    res = run_cli("invariant", "--model", "nosuch")
    assert res.exit_code == 2


def test_unknown_parameter_exits_2():
    res = run_cli("invariant", "--model", "three_site", "--param", "zeta=1")
    assert res.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("args", [
    ("spectrum", "--model", "three_site", "--kappa", "{}"),
    ("invariant", "--model", "cross2d", "--task", "chern", "--beta", "{}"),
    ("invariant", "--model", "three_site", "--param", "kappa={}"),
    ("sweep", "--model", "three_site", "--sweep", "kappa=1,{}"),
    ("sweep", "--model", "three_site", "--sweep", "kappa=0:{}:1"),
    ("spectrum", "--model", "three_site", "--tol", "{}"),
    ("edge-modes", "--model", "kitaev", "--phases", "0,{}"),
    ("vortex", "--model", "cross2d", "--beta", "2", "--separation", "{}"),
    ("vortex", "--model", "cross2d", "--beta", "2", "--lattice", "9x9", "--separations", "2,{}"),
    ("braid", "--model", "cross2d", "--beta", "2", "--dt", "{}"),
    ("braid", "--model", "cross2d", "--beta", "2", "--times", "5,{}"),
    ("braid", "--model", "cross2d", "--beta", "2", "--separation", "{}"),
    ("braid", "--model", "cross2d", "--beta", "2", "--core-scale", "{}"),
    # Finite options whose step or point count overflows.
    ("braid", "--model", "cross2d", "--beta", "2", "--times", "1e300", "--dt", "1e-10"),
    ("sweep", "--model", "three_site", "--sweep", "kappa=0:1e300:1e-300"),
])
def test_non_finite_parameter_exits_2(args, value):
    res = run_cli(*(a.format(value) for a in args))
    assert res.exit_code == 2
    assert "not finite" in res.output or "non-finite" in res.output


@pytest.mark.parametrize("option, value", [("--dt", "0"), ("--times", "5,-2")])
def test_non_positive_step_exits_2(option, value):
    res = run_cli("braid", "--model", "cross2d", "--beta", "2", option, value)
    assert res.exit_code == 2
    assert option in res.output and "> 0" in res.output


@pytest.mark.parametrize("args, option", [
    (("vortex", "--model", "cross2d", "--beta", "2", "--separations", ""), "--separations"),
    (("vortex", "--model", "cross2d", "--beta", "2", "--separations", ","), "--separations"),
    (("braid", "--model", "cross2d", "--beta", "2", "--times", ","), "--times"),
    (("edge-modes", "--model", "kitaev", "--phases", ","), "--phases"),
    (("sweep", "--model", "three_site", "--sweep", "kappa=1,2", "--jobs", "0"), "--jobs"),
    (("sweep", "--model", "three_site", "--sweep", "kappa=1,2", "--jobs", "-3"), "--jobs"),
    (("reproduce", "fig-1d-example1", "--jobs", "0"), "--jobs"),
])
def test_empty_list_or_jobs_below_one_exits_2(args, option):
    res = run_cli(*args)
    assert res.exit_code == 2
    assert option in res.output


def test_bad_sweep_exits_2():
    res = run_cli("sweep", "--model", "three_site", "--sweep", "kappa=0:4:-1")
    assert res.exit_code == 2


@pytest.mark.parametrize("spec, count", [("kappa=0:1e300:1", "1e+300"),
                                         ("kappa=0:1e6:1", "1000001")])
def test_sweep_over_point_cap_exits_2(spec, count):
    # Refused while parsing, before any value is built or any row runs.
    res = run_cli("sweep", "--model", "three_site", "--sweep", spec)
    assert res.exit_code == 2
    assert "--sweep" in res.output and f"{count} points" in res.output
    assert str(MAX_SWEEP_POINTS) in res.output


def test_sweep_at_point_cap_is_accepted():
    _, values = _parse_sweep(f"kappa=0:{MAX_SWEEP_POINTS - 1}:1")
    assert len(values) == MAX_SWEEP_POINTS


def test_gap_closure_exits_3():
    res = run_cli("invariant", "--model", "zigzag_coherent", "--kappa", "1.0",
                  "--grid", "64")
    assert res.exit_code == 3


def test_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        res = run_cli("sweep", "--model", "three_site", "--sweep", "kappa=0.5,1.0",
                      "--grid", "32", "--out", str(out))
        assert res.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_edge_modes_output():
    res = run_cli("edge-modes", "--model", "three_site", "--kappa", "1.5",
                  "--lattice", "60")
    assert res.exit_code == 0
    _, header, rows = parse_csv(res.stdout)
    assert header == ["phase", "beta", "xi_analytic", "xi_fitted", "fit_r2", "residual"]
    assert len(rows) == 2
    xi = -1.0 / math.log(0.75)
    for row in rows:
        assert float(row[2]) == pytest.approx(xi, rel=1e-9)
        assert abs(float(row[3]) - xi) / xi < 0.05
        assert float(row[5]) < 1e-9


def test_edge_modes_cross2d_rows():
    args = ("edge-modes", "--model", "cross2d", "--beta", "3", "--lattice", "24x20")
    first, second = run_cli(*args), run_cli(*args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    _, header, rows = parse_csv(first.stdout)
    assert header[:3] == ["phase", "beta_x", "beta_y"]
    got = [(float(r[1]), float(r[2])) for r in rows]
    expected = [(-0.5, -1.0), (-2.5, 1.0), (-2.0, -1.0), (-0.4, 1.0)]
    assert got == [pytest.approx(pair) for pair in expected]
    assert all(float(r[-1]) < 1e-9 for r in rows)


def test_edge_modes_reports_skipped_roots():
    # At phase pi/4 every cross2d root has |beta_y| != 1, so none is
    # single-valued around the 12x10 cylinder: the table is empty and each
    # root appears in the metadata with the reason it was skipped.
    args = ("edge-modes", "--model", "cross2d", "--beta", "3", "--lattice", "12x10",
            "--phases", "0.7853981633974483")
    first, second = run_cli(*args), run_cli(*args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    meta, _, rows = parse_csv(first.stdout)
    assert rows == []
    skipped = json.loads(meta["skipped_roots"])
    assert len(skipped) == 4
    for entry in skipped:
        assert entry["phase"] == pytest.approx(math.pi / 4)
        assert abs(abs(entry["betas"][1]) - 1.0) > 1e-3
        assert "periodic direction 1" in entry["reason"]


def test_spectrum_shape():
    res = run_cli("spectrum", "--model", "kitaev", "--grid", "16")
    assert res.exit_code == 0
    _, header, rows = parse_csv(res.stdout)
    assert header == ["k", "rate_low", "rate_high", "purity_eps"]
    assert len(rows) == 16
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-10)


def test_vortex_small_lattice():
    res = run_cli("vortex", "--model", "cross2d", "--beta", "2", "--beta", "2",
                  "--lattice", "12x12", "--separation", "6")
    assert res.exit_code == 0
    _, header, rows = parse_csv(res.stdout)
    assert header == ["index", "damping_rate", "purity_value"]
    assert float(rows[0][1]) < 1e-4 and float(rows[1][1]) < 1e-4


def test_vortex_lattice_with_fewer_than_six_modes():
    # A 2x2 lattice has 8 Majoranas: 4 purity values, so 4 rows.
    res = run_cli("vortex", "--model", "cross2d", "--beta", "2", "--lattice", "2x2",
                  "--separation", "1")
    assert res.exit_code == 0
    _, _, rows = parse_csv(res.stdout)
    assert len(rows) == 4


def test_vortex_sparse_path_is_deterministic():
    # 17x17 has 578 Majoranas, above the dense limit of smallest_damping_rates.
    args = ("vortex", "--model", "cross2d", "--beta", "2", "--beta", "2", "--lattice", "17x17",
            "--separation", "8")
    first, second = run_cli(*args), run_cli(*args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.stdout == second.stdout


def test_vortex_center_outside_lattice_exits_2():
    res = run_cli("vortex", "--model", "cross2d", "--beta", "2", "--beta", "2",
                  "--lattice", "10x10", "--separation", "30")
    assert res.exit_code == 2
    assert "outside lattice" in res.output
    res = run_cli("vortex", "--model", "cross2d", "--beta", "2", "--beta", "2",
                  "--lattice", "10x10", "--separations", "4,30")
    assert res.exit_code == 2
    assert "outside lattice" in res.output


def test_vortex_separations_needs_square_lattice():
    # The separation sweep runs on an L x L lattice only.
    res = run_cli("vortex", "--model", "cross2d", "--beta", "2", "--beta", "3",
                  "--lattice", "21x15", "--separations", "4,6")
    assert res.exit_code == 2
    assert "square lattice" in res.output


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_vortex_undefined_fit_is_null():
    # Two separations are too few for the decay fit, so its slope and r^2
    # are undefined; both formats write null, never NaN.
    args = ("vortex", "--model", "cross2d", "--beta", "2", "--beta", "3", "--lattice", "9x9",
            "--separations", "2,4")
    res = run_cli(*args, "--format", "json")
    assert res.exit_code == 0
    meta = json.loads(res.stdout, parse_constant=_reject_constant)["meta"]
    assert meta["fit_slope"] is None and meta["fit_r2"] is None
    res = run_cli(*args)
    assert res.exit_code == 0
    meta, _, rows = parse_csv(res.stdout)
    assert meta["fit_slope"] == "null" and meta["fit_r2"] == "null"
    assert len(rows) == 2


def test_json_rows_write_infinity_as_null():
    # At kappa = 2 the three-site wire has an edge root beta = -1, whose decay
    # lengths are infinite: null in JSON, inf in CSV.
    args = ("edge-modes", "--model", "three_site", "--kappa", "2", "--lattice", "20")
    res = run_cli(*args, "--format", "json")
    assert res.exit_code == 0
    rows = json.loads(res.stdout, parse_constant=_reject_constant)["rows"]
    assert rows and all(r[2] is None and r[3] is None for r in rows)
    _, _, rows = parse_csv(run_cli(*args).stdout)
    assert rows and all(r[2] == "inf" and r[3] == "inf" for r in rows)


def test_braid_exchange_circle_outside_lattice_exits_2():
    res = run_cli("braid", "--model", "cross2d", "--beta", "2", "--beta", "2",
                  "--lattice", "8x8", "--separation", "9", "--times", "2")
    assert res.exit_code == 2
    assert "leaves lattice" in res.output


def test_braid_frame_jump_exits_3():
    res = run_cli("braid", "--model", "cross2d", "--beta", "2", "--beta", "2",
                  "--lattice", "8x8", "--separation", "4", "--times", "2")
    assert res.exit_code == 3
    assert "numerical failure" in res.output and "frame jump" in res.output


def test_braid_row_is_the_library_exchange():
    from lindtop.braiding import AdiabaticSchedule, braid_via_schedule, vortex_exchange_path
    from lindtop.dynamics import steady_state
    from lindtop.models import cross_2d

    args = ("braid", "--model", "cross2d", "--beta", "2", "--lattice", "8x8",
            "--separation", "4", "--times", "3", "--dt", "0.25")
    res = run_cli(*args)
    assert res.exit_code == 0
    _, header, rows = parse_csv(res.stdout)
    assert header == ["total_time", "leakage", "fidelity_error", "min_gap"]
    path = vortex_exchange_path(cross_2d(beta=2.0), (8, 8), 4.0, 0.7)
    rep = braid_via_schedule(AdiabaticSchedule(path, 3.0, 12), steady_state(path(0.0)).gamma)
    assert [[float(x) for x in row] for row in rows] == [
        [3.0, rep.leakage, rep.fidelity_error, rep.min_gap]]
    assert run_cli(*args).stdout == res.stdout


@pytest.mark.parametrize("command", ["vortex", "braid", "edge-modes"])
def test_tol_only_on_momentum_commands(command):
    # --tol is a gap tolerance of spectrum, sweep and invariant only.
    res = run_cli(command, "--model", "cross2d", "--beta", "2", "--lattice", "8x8", "--tol", "5")
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_reproduce_golden_files(tmp_path):
    # Tolerance-mode comparison against checked-in recipe outputs (coarse
    # grids so the gate stays fast; the full-resolution recipes share the
    # same code path).
    for recipe, golden in [
        ("fig-1d-example1", "fig-1d-example1.csv"),
        ("fig-1d-example3", "fig-1d-example3.csv"),
    ]:
        path = os.path.join(GOLDEN_DIR, golden)
        out = tmp_path / golden
        res = run_cli("reproduce", recipe, "--out", str(out))
        assert res.exit_code == 0
        _, header, rows = parse_csv(out.read_text())
        _, gheader, grows = parse_csv(open(path).read())
        assert header == gheader
        assert len(rows) == len(grows)
        def num(c):
            return math.nan if c in ("", "None") else float(c)

        got = np.array([[num(c) for c in r] for r in rows])
        want = np.array([[num(c) for c in r] for r in grows])
        assert np.allclose(got, want, atol=1e-8, equal_nan=True)


def test_reproduce_example1_physics(tmp_path):
    out = tmp_path / "fig1.csv"
    res = run_cli("reproduce", "fig-1d-example1", "--out", str(out))
    assert res.exit_code == 0
    _, _, rows = parse_csv(out.read_text())
    data = {round(float(r[0]), 6): (float(r[1]), float(r[2]), r[3]) for r in rows}
    assert data[2.0][0] < 1e-3                    # gap closes at kappa = 2
    for kappa in (0.5, 1.0, 1.5):
        assert data[kappa][2] == "2"
    for kappa in (2.5, 3.0):
        assert data[kappa][2] == "0"
    # Purity gap is 1 wherever flattening succeeded (rows right at the
    # transition report None and are skipped).
    assert all(abs(v[1] - 1.0) < 1e-9 for k, v in data.items()
               if abs(k - 2.0) > 0.01 and v[2] != "None")
