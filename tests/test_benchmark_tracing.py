"""The benchmark's tracer still sees the layers it reports.

``benchmarks/tracing.py`` patches names in ``janus_sim.cli`` (``step_map``,
``to_vector``, ``from_vector``, ...) and divides by their call counts, so a
refactor that stops ``cli`` from looking one up makes ``--trace 1`` report
nothing or fail.  The tracer is imported as it is, from its file.
"""

import importlib.util
import json
from pathlib import Path

from janus_sim import cli

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("janus_baseline", "usdc_like", "dai_like", "ust_like", "flatcoin_like")
ITERATIONS = {"janus_baseline": 534, "usdc_like": 1031, "dai_like": 655,
              "ust_like": 10000, "flatcoin_like": 7429}


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
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if m["name"].startswith(("controller.", "core_state."))}
    assert wanted <= set(metrics)
    assert metrics["controller.step_map.calls"][0] == 19747
    for preset, n in ITERATIONS.items():
        assert metrics[f"controller.find_fixed_point.iterations.{preset}"][0] == n
