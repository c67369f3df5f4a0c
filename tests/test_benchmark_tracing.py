"""The benchmark's tracer still sees the layers it reports.

``benchmarks/tracing.py`` patches names in ``janus_sim.cli`` and
``janus_sim.sim_engine`` (``step_map``, ``shock_block``, ``simulate_path``,
...) and divides by their call counts, so a refactor that stops a module
from looking one up, or changes how often it is called, makes ``--trace 1``
report nothing or fail.  The tracer is imported as it is, from its file.
"""

import importlib.util
import json
import math
from pathlib import Path

from janus_sim import cli, sim_engine

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("janus_baseline", "usdc_like", "dai_like", "ust_like", "flatcoin_like")
ITERATIONS = {"janus_baseline": 534, "usdc_like": 1031, "dai_like": 655,
              "ust_like": 10000, "flatcoin_like": 7429}
HORIZON = 365


def declared_layers(*prefixes):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"] for m in declared if m["name"].startswith(prefixes)}


def baseline_config_file(tmp_path):
    """janus_baseline as a config file: the tracer times ``cli.load_config``,
    which ``--preset`` never calls."""
    preset = Path(cli.__file__).parent / "presets" / "janus_baseline.json"
    path = tmp_path / "janus_baseline.json"
    path.write_text(preset.read_text())
    return str(path)


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_equilibrium_reports_every_layer(tmp_path, capsys):
    tracing = load_tracing()
    tr = tracing.Tracer()
    calls = {}
    with tr.patched():
        for preset in PRESETS:
            tr.label = preset
            before = tr.calls("controller.step_map")
            rc = cli.main(["equilibrium", "--preset", preset, "--out", str(tmp_path / preset)])
            assert rc == (cli.EXIT_DIVERGED if preset == "ust_like" else cli.EXIT_OK)
            calls[preset] = tr.calls("controller.step_map") - before
    capsys.readouterr()

    # solver iterations plus 2 x 13 central-difference probes
    assert calls["janus_baseline"] == 534 + 2 * 13
    metrics = tracing.layer_metrics(tr, "equilibrium_presets")
    assert declared_layers("controller.", "core_state.") <= set(metrics)
    assert metrics["controller.step_map.calls"][0] == 19747
    for preset, n in ITERATIONS.items():
        assert metrics[f"controller.find_fixed_point.iterations.{preset}"][0] == n


def traced_cli(tracing, workload, argv):
    tr = tracing.Tracer()
    with tr.patched():
        rc = cli.main(argv)
    assert rc == cli.EXIT_OK
    return tracing.layer_metrics(tr, workload)


def test_traced_mc_and_frontier_report_every_layer(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
    tracing = load_tracing()
    cfg = baseline_config_file(tmp_path)
    mc = traced_cli(tracing, "mc_baseline", ["mc", "--config", cfg, "--paths", "5",
                                             "--workers", "1", "--out", str(tmp_path / "mc")])
    frontier = traced_cli(tracing, "frontier_pool", ["frontier", "--config", cfg, "--paths", "2",
                                                     "--workers", "1", "--out", str(tmp_path / "fr")])
    capsys.readouterr()

    assert declared_layers("rng.", "sim_engine.", "metrics.", "config_io.", "cli.") <= set(mc) | set(frontier)
    assert mc["sim_engine.step.path_steps"][0] == 5 * HORIZON
    assert mc["sim_engine.simulate_path.truncated"][0] == 0
    assert mc["rng.shock_block.calls"][0] == 5
    # one worker runs the sweep in this process: no pool starts
    assert frontier["sim_engine.pool.starts"][0] == 0


def test_traced_batched_mc_reports_every_layer(tmp_path, capsys, monkeypatch):
    # An ensemble at the batch threshold runs as one batch: one
    # ``simulate_path`` call for all its path-steps, one ``shock_block`` call
    # and one ``path_summary`` call a path.
    monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
    tracing = load_tracing()
    n = sim_engine.BATCH_MIN_PATHS
    mc = traced_cli(tracing, "mc_baseline", ["mc", "--config", baseline_config_file(tmp_path),
                                             "--paths", str(n), "--workers", "1",
                                             "--out", str(tmp_path / "mc")])
    capsys.readouterr()

    layers = declared_layers("rng.", "sim_engine.step", "sim_engine.simulate_path",
                             "sim_engine.path_summary", "sim_engine.monte_carlo",
                             "metrics.", "config_io.", "cli.")
    assert layers <= set(mc)
    assert all(math.isfinite(mc[name][0]) for name in layers)
    assert mc["sim_engine.step.path_steps"][0] == n * HORIZON
    assert mc["sim_engine.simulate_path.truncated"][0] == 0
    assert mc["rng.shock_block.calls"][0] == n
