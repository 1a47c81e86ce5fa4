"""Command-line interface: model configs, sweeps, invariants, and recipes.

Every command emits a deterministic table artifact (CSV with a ``#``-prefixed
metadata block, or JSON ``{meta, columns, rows}``) carrying the tool version,
a hash of the normalized run config, and the column schema.

Exit codes: 0 success, 2 config error, 3 numerical failure (a required gap
closed), 4 I/O failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import click
import numpy as np

from . import __version__
from .bloch import (
    GapClosedError,
    bz_grid,
    chern_number,
    flatten,
    momentum_state,
    sector_rates,
    winding_number,
    windings_around_u_zeros,
)
from .edge import build_mode, fit_localization, solve_beta
from .majorana import build_dissipator, purity_spectrum
from .dynamics import steady_state
from .models import (
    VortexConfig,
    cross_2d,
    kitaev_wire,
    residual_damping_vs_separation,
    smallest_damping_rates,
    three_site_wire,
    zigzag_coherent,
    zigzag_competing,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MODELS = {
    "kitaev_wire": (kitaev_wire, ()),
    "kitaev": (kitaev_wire, ()),
    "three_site_wire": (three_site_wire, ("kappa",)),
    "three_site": (three_site_wire, ("kappa",)),
    "zigzag_coherent": (zigzag_coherent, ("kappa",)),
    "zigzag_competing": (zigzag_competing, ("kappa",)),
    "cross_2d": (cross_2d, ("beta",)),
    "cross2d": (cross_2d, ("beta",)),
}


class ConfigError(click.ClickException):
    exit_code = EXIT_CONFIG


def _parse_params(param: Sequence[str], config: Optional[str]) -> Dict[str, float]:
    """Merge ``--config`` file entries with ``--param k=v`` flags (flags win)."""
    out: Dict[str, float] = {}
    if config:
        try:
            with open(config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise click.ClickException(f"cannot read config file: {exc}") from exc
        try:
            loaded = json.loads(text)
            if not isinstance(loaded, dict):
                raise ConfigError("JSON config must be an object of key: value pairs")
            items = loaded.items()
        except json.JSONDecodeError:
            items = []
            for line_no, line in enumerate(text.splitlines(), 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"config line {line_no}: expected key = value")
                k, v = line.split("=", 1)
                items.append((k.strip(), v.strip()))
        for k, v in items:
            out[str(k)] = v
    for p in param:
        if "=" not in p:
            raise ConfigError(f"--param expects key=value, got {p!r}")
        k, v = p.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _make_model(name: str, params: Dict[str, object]):
    if name not in _MODELS:
        raise ConfigError(
            f"unknown model {name!r}; known: {', '.join(sorted(set(_MODELS)))}"
        )
    ctor, accepted = _MODELS[name]
    kwargs = {}
    for k, v in params.items():
        if k not in accepted:
            raise ConfigError(f"model {name!r} does not accept parameter {k!r}")
        try:
            kwargs[k] = float(v)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {k}={v!r} is not a number")
        if not math.isfinite(kwargs[k]):
            raise ConfigError(f"parameter {k}={v!r} is not finite")
    try:
        return ctor(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"model {name!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"model {name!r}: {exc}") from exc


def _normalized_config(**kw) -> Dict[str, object]:
    cfg = {k: v for k, v in sorted(kw.items()) if v is not None}
    return cfg


def _config_hash(cfg: Dict[str, object]) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _json_value(x):
    """``x`` as strict JSON data, converting lists and dicts entry by entry.

    JSON (RFC 8259) has no NaN or infinity, so a non-finite float becomes
    None (null); NumPy scalars become Python numbers.
    """
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, np.integer):
        return int(x)
    return x


def _write_table(
    out: Optional[str],
    fmt: str,
    cfg: Dict[str, object],
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    extra_meta: Optional[Dict[str, object]] = None,
) -> None:
    meta = {
        "tool": "lindtop",
        "version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "columns": list(columns),
    }
    extra_meta = _json_value(extra_meta or {})
    meta.update(extra_meta)

    def fmt_cell(x) -> str:
        if isinstance(x, (float, np.floating)):
            x = float(x)
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            if math.isnan(x):
                return "nan"
            return repr(x)
        if isinstance(x, np.integer):
            return str(int(x))
        return str(x)

    try:
        fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
        try:
            if fmt == "csv":
                for key in ("tool", "version", "config_hash"):
                    fh.write(f"# {key}: {meta[key]}\n")
                fh.write(f"# config: {json.dumps(cfg, sort_keys=True, default=str)}\n")
                for key, value in extra_meta.items():
                    fh.write(f"# {key}: {json.dumps(value, default=str)}\n")
                fh.write(f"# columns: {', '.join(columns)}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(fmt_cell(c) for c in row) + "\n")
            else:
                payload = {"meta": meta, "columns": list(columns), "rows": _json_value(rows)}
                json.dump(payload, fh, indent=2, sort_keys=True, default=str)
                fh.write("\n")
        finally:
            if out:
                fh.close()
    except OSError as exc:
        click.echo(f"I/O error writing {out!r}: {exc}", err=True)
        sys.exit(EXIT_IO)


def _parse_lattice(spec: Optional[str], dim: int, default1d: int = 60, default2d: int = 35):
    if spec is None:
        return (default1d,) if dim == 1 else (default2d, default2d)
    parts = spec.lower().split("x")
    try:
        ext = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--lattice expects N or WxH, got {spec!r}")
    if len(ext) == 1 and dim == 2:
        ext = (ext[0], ext[0])
    if len(ext) != dim:
        raise ConfigError(f"--lattice {spec!r} does not match model dimension {dim}")
    if any(e < 2 for e in ext):
        raise ConfigError("lattice extents must be >= 2")
    return ext


def _default_grid(grid: Optional[int], dim: int) -> int:
    if grid is not None:
        if grid < 8:
            raise ConfigError("--grid must be >= 8")
        return grid
    return 256 if dim == 1 else 64


# ---------------------------------------------------------------------------
# Row computations (module-level for the process pool)
# ---------------------------------------------------------------------------

def _sweep_row(args) -> Tuple[object, ...]:
    name, base_params, sweep_key, value, grid, tol = args
    params = dict(base_params)
    params[sweep_key] = value
    model = _make_model(name, params)
    ks = bz_grid(grid, model.dim, offset=0.5)
    rates = sector_rates(model, ks)
    damping_gap = float(rates.min())
    try:
        flat = flatten(momentum_state(model, ks), tol=tol)
    except GapClosedError:
        return (value, damping_gap, 0.0, None)
    try:
        invariant = winding_number(flat) if model.dim == 1 else chern_number(flat)
    except ValueError:
        invariant = None
    return (value, damping_gap, float(flat.purity_gap), invariant)


def _sweep_rows(name, params, key, values, grid, tol, jobs) -> List[Tuple[object, ...]]:
    """One :func:`_sweep_row` per swept value, in ``jobs`` worker processes."""
    args = [(name, params, key, v, grid, tol) for v in values]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_row, args))
    return [_sweep_row(a) for a in args]


def _parse_sweep(spec: str) -> Tuple[str, List[float]]:
    if "=" not in spec:
        raise ConfigError("--sweep expects key=start:stop:step or key=v1,v2,...")
    key, rng = spec.split("=", 1)
    key = key.strip()
    if ":" in rng:
        parts = rng.split(":")
        if len(parts) != 3:
            raise ConfigError("--sweep range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric sweep range {rng!r}")
        if not all(math.isfinite(p) for p in (start, stop, step)):
            raise ConfigError(f"non-finite sweep range {rng!r}")
        if step <= 0:
            raise ConfigError("sweep step must be > 0")
        n = int(round((stop - start) / step)) + 1
        values = [start + i * step for i in range(n) if start + i * step <= stop + 1e-12]
    else:
        try:
            values = [float(v) for v in rng.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"non-numeric sweep values {rng!r}")
    if not values:
        raise ConfigError("empty sweep")
    return key, values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(version=__version__, prog_name="lindtop")
def main() -> None:
    """Quadratic fermionic Lindblad dynamics and steady-state topology."""


_common = [
    click.option("--model", "model_name", required=True, help="Model zoo name."),
    click.option("--param", "param", multiple=True, help="Model parameter key=value."),
    click.option("--kappa", type=float, default=None, help="Shortcut for --param kappa=V."),
    click.option("--beta", type=float, default=None, help="Shortcut for --param beta=V."),
    click.option("--config", "config_file", default=None, type=click.Path(),
                 help="Key=value or JSON file with model parameters."),
    click.option("--out", "out", default=None, type=click.Path(), help="Output file (default stdout)."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv"),
]
_tol = click.option("--tol", type=float, default=1e-8, help="Gap tolerance.")


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


def _collect_params(param, config_file, kappa, beta) -> Dict[str, object]:
    params = _parse_params(param, config_file)
    if kappa is not None:
        params["kappa"] = kappa
    if beta is not None:
        params["beta"] = beta
    return params


@main.command()
@_with_common
@_tol
@click.option("--grid", type=int, default=None, help="BZ grid points per axis (256 / 64).")
def spectrum(model_name, param, kappa, beta, config_file, out, fmt, tol, grid):
    """Momentum-resolved damping rates and purity eigenvalue."""
    params = _collect_params(param, config_file, kappa, beta)
    model = _make_model(model_name, params)
    grid = _default_grid(grid, model.dim)
    cfg = _normalized_config(task="spectrum", model=model_name, params=params,
                             grid=grid, format=fmt)
    ks = bz_grid(grid, model.dim, offset=0.5)
    rates = sector_rates(model, ks)
    try:
        flat = flatten(momentum_state(model, ks), tol=tol)
    except GapClosedError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    kcols = ["k"] if model.dim == 1 else ["kx", "ky"]
    columns = kcols + ["rate_low", "rate_high", "purity_eps"]
    kflat = ks.reshape(-1, model.dim)
    rflat = rates.reshape(-1, 2)
    eflat = flat.eps.reshape(-1)
    rows = [
        tuple(float(x) for x in kflat[i]) + (float(rflat[i, 0]), float(rflat[i, 1]), float(eflat[i]))
        for i in range(kflat.shape[0])
    ]
    _write_table(out, fmt, cfg, columns, rows)


@main.command()
@_with_common
@_tol
@click.option("--sweep", "sweep_spec", required=True,
              help="Swept parameter: key=start:stop:step or key=v1,v2,...")
@click.option("--grid", type=int, default=None)
@click.option("--jobs", type=int, default=1, help="Worker processes for sweep rows.")
def sweep(model_name, param, kappa, beta, config_file, out, fmt, tol, sweep_spec, grid, jobs):
    """Parameter sweep: damping gap, purity gap, and topological invariant."""
    params = _collect_params(param, config_file, kappa, beta)
    key, values = _parse_sweep(sweep_spec)
    probe = _make_model(model_name, {**params, key: values[0]})
    grid = _default_grid(grid, probe.dim)
    cfg = _normalized_config(task="sweep", model=model_name, params=params,
                             sweep=sweep_spec, grid=grid, format=fmt)
    rows = _sweep_rows(model_name, params, key, values, grid, tol, jobs)
    inv_name = "winding" if probe.dim == 1 else "chern"
    _write_table(out, fmt, cfg, [key, "damping_gap", "purity_gap", inv_name], rows)


@main.command()
@_with_common
@_tol
@click.option("--grid", type=int, default=None)
@click.option("--task", "which", type=click.Choice(["auto", "winding", "chern", "uzeros"]),
              default="auto", help="Which invariant to compute.")
def invariant(model_name, param, kappa, beta, config_file, out, fmt, tol, grid, which):
    """Topological invariant of the flattened steady state."""
    params = _collect_params(param, config_file, kappa, beta)
    model = _make_model(model_name, params)
    grid = _default_grid(grid, model.dim)
    if which == "auto":
        which = "winding" if model.dim == 1 else "chern"
    if which == "winding" and model.dim != 1:
        raise ConfigError("winding is a 1D invariant")
    if which in ("chern", "uzeros") and model.dim != 2:
        raise ConfigError(f"{which} is a 2D invariant")
    cfg = _normalized_config(task="invariant", model=model_name, params=params,
                             grid=grid, invariant=which, format=fmt)
    try:
        if which == "uzeros":
            zeros, total = windings_around_u_zeros(model.stencil, nk=grid)
            columns = ["kx", "ky", "winding"]
            rows = [(z.location[0], z.location[1], z.winding) for z in zeros]
            _write_table(out, fmt, cfg, columns, rows, {"winding_sum": total})
            click.echo(f"u-zero winding sum = {total}", err=True)
            return
        flat = flatten(momentum_state(model, bz_grid(grid, model.dim, offset=0.5)), tol=tol)
        value = winding_number(flat) if which == "winding" else chern_number(flat)
    except (GapClosedError, ValueError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    _write_table(out, fmt, cfg, ["invariant", "value"], [(which, value)])
    click.echo(f"{which} = {value}", err=True)


@main.command("edge-modes")
@_with_common
@click.option("--lattice", default=None, help="Open-chain length (1D) or WxH (2D).")
@click.option("--phases", default="0,pi", help="Comma list of edge phases (radians or 'pi').")
def edge_modes(model_name, param, kappa, beta, config_file, out, fmt, lattice, phases):
    """Analytic edge modes: beta factors, decay lengths, and damping residuals."""
    params = _collect_params(param, config_file, kappa, beta)
    model = _make_model(model_name, params)
    ext = _parse_lattice(lattice, model.dim)
    phase_vals = []
    for tok in phases.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            phase_vals.append(math.pi if tok == "pi" else float(tok))
        except ValueError:
            raise ConfigError(f"bad phase {tok!r}")
    cfg = _normalized_config(task="edge-modes", model=model_name, params=params,
                             lattice="x".join(map(str, ext)), phases=phases, format=fmt)
    boundary = "open" if model.dim == 1 else "cylinder"
    realization = model.finite_realization(ext, boundary=boundary)
    rows, skipped = [], []
    for phi in phase_vals:
        for sol in solve_beta(model.stencil, phi):
            try:
                mode = build_mode(sol, model, ext, boundary=boundary, realization=realization)
            except ValueError as exc:
                # A root that is not single-valued on this lattice (e.g.
                # |beta_y| != 1 around a cylinder) has no mode to tabulate.
                skipped.append({"phase": phi, "betas": [float(b) for b in sol.betas],
                                "reason": str(exc)})
                continue
            fit = fit_localization(mode.vector, ext, axis=0)
            rows.append((
                phi,
                *(float(b) for b in sol.betas),
                float(sol.localization_lengths[0]),
                float(fit.xi),
                float(fit.r_squared),
                float(mode.residual),
            ))
    beta_cols = ["beta"] if model.dim == 1 else ["beta_x", "beta_y"]
    columns = ["phase", *beta_cols, "xi_analytic", "xi_fitted", "fit_r2", "residual"]
    _write_table(out, fmt, cfg, columns, rows, {"skipped_roots": skipped})


@main.command()
@_with_common
@click.option("--lattice", default=None, help="Lattice WxH (default 35x35).")
@click.option("--separation", type=float, default=16.0, help="Vortex pair separation.")
@click.option("--separations", default=None,
              help="Comma list of separations: emit the residual-rate table instead.")
@click.option("--vorticity", type=int, default=1)
def vortex(model_name, param, kappa, beta, config_file, out, fmt,
           lattice, separation, separations, vorticity):
    """Two-vortex spectra: quasi-zero damping/purity modes or rate-vs-d table."""
    params = _collect_params(param, config_file, kappa, beta)
    model = _make_model(model_name, params)
    if model.dim != 2:
        raise ConfigError("vortex analysis needs a 2D model")
    ext = _parse_lattice(lattice, 2)
    if separations:
        if ext[0] != ext[1]:
            raise ConfigError(f"--separations needs a square lattice, got {lattice!r}")
        try:
            ds = [float(v) for v in separations.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad --separations {separations!r}")
        cfg = _normalized_config(task="vortex", model=model_name, params=params,
                                 lattice="x".join(map(str, ext)),
                                 separations=ds, vorticity=vorticity, format=fmt)
        try:
            table = residual_damping_vs_separation(
                float(params.get("beta", 2.0)), ds, lattice=ext[0], ell=vorticity,
            )
        except ValueError as exc:   # a vortex center outside the lattice
            raise ConfigError(str(exc)) from exc
        rows = list(zip(table.separations, table.rates))
        _write_table(out, fmt, cfg, ["separation", "residual_rate"], rows,
                     {"fit_slope": table.fit_slope, "fit_r2": table.fit_r2})
        return
    cfg = _normalized_config(task="vortex", model=model_name, params=params,
                             lattice="x".join(map(str, ext)), separation=separation,
                             vorticity=vorticity, format=fmt)
    cx, cy = (ext[0] - 1) / 2, (ext[1] - 1) / 2
    vs = [
        VortexConfig((cx - separation / 2, cy), vorticity),
        VortexConfig((cx + separation / 2, cy), vorticity),
    ]
    try:
        fr = model.finite_realization(ext, boundary="open", placement="truncated", vortices=vs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rates = smallest_damping_rates(fr, k=6)
    d = build_dissipator(fr.operators, num_majoranas=2 * ext[0] * ext[1])
    gamma = steady_state(d).gamma
    purities = purity_spectrum(gamma).values[:6]
    rows = [(i, float(rates[i]), float(purities[i])) for i in range(min(len(rates), 6))]
    _write_table(out, fmt, cfg, ["index", "damping_rate", "purity_value"], rows)


@main.command()
@_with_common
@click.option("--lattice", default="14x14")
@click.option("--separation", type=float, default=7.0)
@click.option("--times", default="20,40,80", help="Comma list of total times T.")
@click.option("--dt", type=float, default=0.5, help="Integrator step.")
@click.option("--core-scale", type=float, default=0.7)
def braid(model_name, param, kappa, beta, config_file, out, fmt,
          lattice, separation, times, dt, core_scale):
    """Adiabatic two-vortex exchange: leakage and holonomy vs total time."""
    from .braiding import AdiabaticSchedule, braid_via_schedule, vortex_exchange_path

    params = _collect_params(param, config_file, kappa, beta)
    model = _make_model(model_name, params)
    if model.dim != 2:
        raise ConfigError("braid schedules need a 2D model")
    ext = _parse_lattice(lattice, 2)
    try:
        t_list = [float(v) for v in times.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --times {times!r}")
    cfg = _normalized_config(task="braid", model=model_name, params=params,
                             lattice="x".join(map(str, ext)), separation=separation,
                             times=t_list, dt=dt, core_scale=core_scale, format=fmt)
    try:
        diss_at = vortex_exchange_path(model, ext, separation, core_scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gamma0 = steady_state(diss_at(0.0)).gamma
    rows = []
    for T in t_list:
        steps = max(2, int(round(T / dt)))
        try:
            rep = braid_via_schedule(AdiabaticSchedule(diss_at, T, steps), gamma0, block_dim=2)
        except ValueError as exc:   # e.g. a decoherence-free frame jump
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        rows.append((T, float(rep.leakage), float(rep.fidelity_error), float(rep.min_gap)))
    _write_table(out, fmt, cfg, ["total_time", "leakage", "fidelity_error", "min_gap"], rows)


_RECIPES = {
    "fig-1d-example1": {
        "model": "three_site_wire",
        "sweep": "kappa=0:4:0.05",
        "grid": 256,
    },
    "fig-1d-example3": {
        "model": "zigzag_competing",
        "sweep": "kappa=0:3:0.05",
        "grid": 256,
    },
}


@main.command()
@click.argument("recipe", type=click.Choice(sorted(_RECIPES)))
@click.option("--out", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--jobs", type=int, default=1)
def reproduce(recipe, out, fmt, jobs):
    """Re-run a canned figure recipe (gap/invariant sweep)."""
    spec = _RECIPES[recipe]
    key, values = _parse_sweep(spec["sweep"])
    cfg = _normalized_config(task="reproduce", recipe=recipe, **spec, format=fmt)
    rows = _sweep_rows(spec["model"], {}, key, values, spec["grid"], 1e-8, jobs)
    _write_table(out, fmt, cfg, [key, "damping_gap", "purity_gap", "winding"], rows)


if __name__ == "__main__":
    main()
