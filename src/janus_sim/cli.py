"""Command-line entry point: run | mc | frontier | equilibrium.

``main`` loads the config and calls the command, which only computes and
returns an ``Outcome``.  If it holds files, ``main`` makes the output
directory, writes each file to a temp that is renamed on success and removed
on error, then writes ``manifest.json``, sufficient to reproduce the run.
The set is all or nothing: when a write fails, the files the call has
written are removed, and an older manifest was removed before the first.  A
call with no file to write (a config error, an ``equilibrium`` that exits 3)
makes no directory.  Outputs are machine-readable (CSV traces, JSON
summaries) with frozen column order and field names.

Exit codes: 0 success, 2 config/validation error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import NamedTuple

from . import __version__
from .config_io import (
    PRESET_NAMES,
    config_hash,
    load_config,
    load_preset,
    parse_json,
)
from .controller import (
    SolverError,
    classify_stability,
    find_fixed_point,
    jacobian_fd,
    spectral_radius,
)
from .core_state import to_list
# Unused here, but the benchmark tracer patches them; it counts the solver's
# evaluations as calls of ``cli.step_map``, which each must look up here.
from .core_state import from_vector, to_vector  # noqa: F401
from .metrics import decentralization, ponzi_report, trilemma_point
from .sim_engine import (
    ConfigError,
    ScenarioConfig,
    TRACE_COLUMNS,
    frontier_sweep,
    initial_state,
    monte_carlo,
    path_summary,
    simulate_path,
    step_map,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class Outcome(NamedTuple):
    """What a command computed: ``files`` maps each output's name to its
    text, in write order; ``line`` goes to stdout on success and to stderr
    otherwise; ``map_stress`` goes into the manifest."""

    files: dict[str, str]
    n_paths: int
    code: int = EXIT_OK
    line: str = ""
    map_stress: dict | None = None


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_outputs(out: str, files: dict[str, str], manifest: dict, t0: float):
    """Write ``files`` into ``out`` in their order, then ``manifest.json``
    with the run's duration since ``t0``, all or nothing: an older
    ``manifest.json`` is removed first, and when a write fails, the files
    this call has written are removed before the error propagates."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "manifest.json")
    if os.path.lexists(path):
        os.remove(path)
    written = []
    try:
        for name, text in files.items():
            target = os.path.join(out, name)
            _atomic_write(target, text)
            written.append(target)
        manifest["duration_seconds"] = time.perf_counter() - t0
        _atomic_write(path, _json_text(manifest))
    except BaseException:
        for target in written:
            os.remove(target)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load(args) -> ScenarioConfig:
    config = load_preset(args.preset) if args.preset else load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _workers(args) -> int:
    """At most how many processes an ensemble may use."""
    env = os.environ.get("JANUS_SIM_THREADS")
    source = "--workers" if env is None else "JANUS_SIM_THREADS"
    try:
        n = args.workers if env is None else int(env)
    except ValueError:
        raise ConfigError(f"{source} must be an integer, got {env!r}")
    if n < 1:
        raise ConfigError(f"{source} must be >= 1")
    return n


def cmd_run(args, config: ScenarioConfig) -> Outcome:
    trace = simulate_path(config, path_index=0)
    summary = path_summary(trace, config, path_index=0)

    lines = [",".join(TRACE_COLUMNS)]
    for row in trace.rows():
        lines.append(",".join(_fmt(v) for v in row))
    payload = {
        "seed": config.seed,
        "horizon": config.horizon,
        "steps_recorded": len(trace),
        "failed": summary.failed,
        "in_band_fraction": summary.in_band_fraction,
        "mean_efficiency": summary.mean_efficiency,
        "terminal_p_a": summary.terminal_p_a,
        "terminal_p_omega": summary.terminal_p_omega,
        "terminal_p_ref": summary.terminal_p_ref,
        "inflow_r2": summary.inflow_r2,
    }
    files = {"trace.csv": "\n".join(lines) + "\n", "summary.json": _json_text(payload)}
    if trace.diverged:
        t = trace.columns["t"][-1]
        return Outcome(files, 1, EXIT_DIVERGED, f"simulation diverged at step {t} of {config.horizon}")
    return Outcome(files, 1)


def cmd_mc(args, config: ScenarioConfig) -> Outcome:
    workers = _workers(args)
    summary = monte_carlo(config, args.paths, workers)
    point = trilemma_point(config.governance, summary)
    ponzi = ponzi_report(summary)
    payload = {
        "n_paths": summary.n_paths,
        "failures": summary.failures,
        "p_fail": summary.p_fail,
        "p_fail_ci": list(summary.p_fail_ci),
        "safety": 1.0 - summary.p_fail,
        "mean_in_band": summary.mean_in_band,
        "mean_efficiency": summary.mean_efficiency,
        "decentralization": decentralization(config.governance),
        "mean_terminal_p_a": summary.mean_terminal_p_a,
        "mean_terminal_p_omega": summary.mean_terminal_p_omega,
        "median_terminal_p_a": summary.median_terminal_p_a,
        "median_terminal_p_omega": summary.median_terminal_p_omega,
        "terminal_p_ref": summary.terminal_p_ref,
        "trilemma_point": {
            "d": point.d,
            "e": point.e,
            "s": point.s,
            "s_ci": list(point.s_ci),
        },
        "ponzi_report": {
            "anchor_margin": ponzi.anchor_margin,
            "inflow_dependence": ponzi.inflow_dependence,
            "verdict": str(ponzi.verdict),
        },
    }
    return Outcome({"ensemble.json": _json_text(payload)}, args.paths)


def _load_grid(args) -> dict:
    if args.grid is None:
        from importlib import resources

        text = resources.files("janus_sim.presets").joinpath("frontier_grid.json").read_text()
    else:
        try:
            with open(args.grid) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read grid file: {exc}")
    grid = parse_json(text, "grid file")
    lists = isinstance(grid, dict) and all(isinstance(v, list) and v for v in grid.values())
    if not grid or not lists:
        raise ConfigError("sweep grid must be a non-empty object of non-empty lists")
    return grid


def cmd_frontier(args, config: ScenarioConfig) -> Outcome:
    workers = _workers(args)
    grid = _load_grid(args)
    points = frontier_sweep(config, grid, args.paths, workers)
    keys = list(grid.keys())
    lines = [",".join(keys + ["d", "e", "s", "pareto"])]
    for p in points:
        cells = [json.dumps(p.overrides[k]) if isinstance(p.overrides[k], list) else _fmt(p.overrides[k]) for k in keys]
        cells = [c.replace(",", ";") for c in cells]
        lines.append(",".join(cells + [_fmt(p.d), _fmt(p.e), _fmt(p.s), str(int(p.pareto))]))
    return Outcome({"frontier.csv": "\n".join(lines) + "\n"}, args.paths)


def cmd_equilibrium(args, config: ScenarioConfig) -> Outcome:
    # the map's stress clock stays at 0: a window over step 0 acts on every evaluation
    stress = config.stress if config.stress is not None and config.stress.active(0) else None
    map_stress = None if stress is None else {"kind": stress.kind.value, "magnitude": stress.magnitude}
    if stress is not None:
        sys.stderr.write(f"equilibrium map under {stress.kind.value} at t = 0, magnitude {stress.magnitude}\n")

    def F(x):
        return step_map(x, config)

    x0 = to_list(*initial_state(config))
    try:
        report = find_fixed_point(F, x0)
    except SolverError as exc:
        return Outcome({}, 0, EXIT_DIVERGED, f"equilibrium solve diverged: {exc}")
    if not report.converged:
        residual = f"{report.residual:.6e}"
        return Outcome({}, 0, EXIT_DIVERGED, f"equilibrium solve did not converge; last residual {residual}")
    try:
        J = jacobian_fd(F, report.x_star)
        rho = spectral_radius(J)
    except SolverError as exc:
        return Outcome({}, 0, EXIT_DIVERGED, f"stability analysis diverged: {exc}")
    stability = classify_stability(rho)
    payload = {
        "x_star": report.x_star.tolist(),
        "residual": report.residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "spectral_radius": rho,
        "stability": stability.value,
    }
    line = f"stability: {stability.value} (spectral radius {rho:.6f})"
    return Outcome({"equilibrium.json": _json_text(payload)}, 0, EXIT_OK, line, map_stress)


def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a scenario config JSON file")
    src.add_argument("--preset", choices=PRESET_NAMES, help="bundled scenario preset")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory (created if missing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="janus-sim",
        description="Dual-token stablecoin simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one path, write trace.csv + summary.json")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_mc = sub.add_parser("mc", help="Monte Carlo ensemble, write ensemble.json")
    _add_common(p_mc)
    p_mc.add_argument("--paths", type=int, default=100)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.set_defaults(func=cmd_mc)

    p_fr = sub.add_parser("frontier", help="parameter sweep, write frontier.csv")
    _add_common(p_fr)
    p_fr.add_argument("--paths", type=int, default=50)
    p_fr.add_argument("--workers", type=int, default=1)
    p_fr.add_argument("--grid", default=None, help="JSON file mapping parameter to value list")
    p_fr.set_defaults(func=cmd_frontier)

    p_eq = sub.add_parser("equilibrium", help="solve the fixed point, write equilibrium.json")
    _add_common(p_eq)
    p_eq.set_defaults(func=cmd_equilibrium)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        config = _load(args)
        files, n_paths, code, line, map_stress = args.func(args, config)
        if files:
            manifest = {
                "build": f"janus-sim {__version__}",
                "config_hash": config_hash(config),
                "seed": config.seed,
                "n_paths": n_paths,
                "outputs": sorted(files),
                "map_stress": map_stress,
            }
            _write_outputs(args.out, files, manifest, t0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if line:
        print(line, file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
