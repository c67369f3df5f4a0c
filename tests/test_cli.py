"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import janus_sim.cli as cli
import janus_sim.path_batch as path_batch
import janus_sim.sim_engine as sim_engine
from janus_sim.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from janus_sim.config_io import config_to_dict, load_preset
from janus_sim.controller import SolverError
from janus_sim.sim_engine import TRACE_COLUMNS, FailureDef, StressKind, StressOverlay

from test_sim_engine import (
    SCENARIO_KNOBS,
    diverging_config,
    negative_reward_data,
    quiescent_config,
    quiet_config,
    random_scenario,
    small_config,
)


# Malformed edits of janus_baseline, each a config error.
MALFORMED = {
    "unknown_asset_key": lambda d: d["assets"][0].update(volx=0.1),
    "unknown_governance_key": lambda d: d["governance"].update(weightz=[1.0]),
    "governance_list": lambda d: d.update(governance=[1.0]),
    "stress_scalar": lambda d: d.update(stress=5),
    "market_scalar": lambda d: d.update(market=5),
    "float_horizon": lambda d: d.update(horizon=10.5),
    "bool_horizon": lambda d: d.update(horizon=True),
    "str_seed": lambda d: d.update(seed="x"),
    "float_seed": lambda d: d.update(seed=1.5),
    "null_base_inflow": lambda d: d["demand"].update(base_inflow=None),
    "float_stress_onset": lambda d: d.update(
        stress={"kind": "crypto_crash", "onset": 1.5, "magnitude": 0.5, "duration": 40}
    ),
    "float_failure_grace": lambda d: d["failure"].update(grace=1.5),
    "float_asset_id": lambda d: d["assets"][0].update(id=0.0),
    "int_liq_enabled": lambda d: d["market"].update(liq_enabled=1),
    "str_collateral_weight": lambda d: d.update(collateral_weights=["0.5", 0.5]),
    "unknown_asset_kind": lambda d: d["assets"][0].update(kind="bond"),
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_dict(small_config(horizon=60))))
    return str(path)


@pytest.fixture
def quiescent_file(tmp_path):
    path = tmp_path / "quiescent.json"
    path.write_text(json.dumps(config_to_dict(quiescent_config())))
    return str(path)


# run's trace.csv: (config, extra arguments, exit code, sha256)
TRACE_PINS = {
    "janus_baseline": (
        lambda: load_preset("janus_baseline"), [], EXIT_OK,
        "985b65089024d686eedbf9faef45908b8f7967f249e23dfaf6774e9e0b1f6dd6",
    ),
    # ends on the zeroed record of the step that raised
    "diverging": (
        diverging_config, ["--seed", "1"], EXIT_DIVERGED,
        "21b4fbc6451dcdeddb15e0a8fe577109a55db42738a80d44064e6491bd673bbb",
    ),
    "no_grace": (
        lambda: replace(load_preset("janus_baseline"), failure=FailureDef(grace=0)), [], EXIT_OK,
        "18ba774c256d53e1502f291946a2aa559d19a62615c2fbb2f21f210137e279b8",
    ),
}


class TestRun:
    def test_outputs_and_exit_code(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", scenario_file, "--out", str(out)]) == EXIT_OK
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + 60
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps_recorded"] == 60
        assert summary["horizon"] == 60
        assert isinstance(summary["failed"], bool)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_paths"] == 1
        assert sorted(manifest["outputs"]) == ["summary.json", "trace.csv"]
        assert len(manifest["config_hash"]) == 64

    def test_byte_determinism(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", scenario_file, "--out", str(a)])
        main(["run", "--config", scenario_file, "--out", str(b)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_seed_override_changes_trace(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", scenario_file, "--out", str(a)])
        main(["run", "--config", scenario_file, "--seed", "999", "--out", str(b)])
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        assert json.loads((b / "manifest.json").read_text())["seed"] == 999

    def test_no_tmp_files_left(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", scenario_file, "--out", str(out)])
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    @pytest.mark.parametrize("horizon", [3, 30])
    def test_divergence_exits_diverged(self, tmp_path, horizon):
        # with seed 1, path 0 of this scenario blows up on its third step: at
        # horizon 3 that is the last step, and the trace still has 3 rows
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(config_to_dict(diverging_config(horizon=horizon))))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--seed", "1", "--out", str(out)])
        assert code == EXIT_DIVERGED
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert lines[-1].split(",")[-1] == "1"
        assert json.loads((out / "summary.json").read_text())["failed"] is True

    @pytest.mark.parametrize("name", list(TRACE_PINS))
    def test_traces_keep_their_bytes(self, name, tmp_path):
        make, extra, code, digest = TRACE_PINS[name]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(make())))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)] + extra) == code
        assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, capsys):
        # renaming the trace over a directory fails after its temp is written
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        assert main(["run", "--preset", "janus_baseline", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert [p.name for p in out.iterdir()] == ["trace.csv"]

    def test_failed_later_write_leaves_no_output_set(self, tmp_path, capsys):
        # the trace is written before renaming the summary over a directory
        # fails; the trace is removed, and an older manifest was removed first
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        (out / "manifest.json").write_text("{}\n")
        assert main(["run", "--preset", "janus_baseline", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert [p.name for p in out.iterdir()] == ["summary.json"]


class TestMc:
    def test_ensemble_payload(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["mc", "--config", scenario_file, "--paths", "8", "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads((out / "ensemble.json").read_text())
        assert data["n_paths"] == 8
        assert data["p_fail_ci"][0] <= data["p_fail"] <= data["p_fail_ci"][1]
        assert data["safety"] == pytest.approx(1.0 - data["p_fail"])
        assert data["ponzi_report"]["verdict"] in (
            "very_low", "low", "medium", "high", "very_high"
        )
        assert set(data["trilemma_point"]) == {"d", "e", "s", "s_ci"}

    def test_worker_count_does_not_change_bytes(self, scenario_file, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["mc", "--config", scenario_file, "--paths", "6", "--out", str(a)])
        monkeypatch.setenv("JANUS_SIM_THREADS", "4")
        main(["mc", "--config", scenario_file, "--paths", "6", "--out", str(b)])
        assert (a / "ensemble.json").read_bytes() == (b / "ensemble.json").read_bytes()

    def test_batch_threshold_does_not_change_bytes(self, scenario_file, tmp_path, monkeypatch):
        # One path below the threshold runs path by path, the threshold runs
        # one batch; with two workers either ensemble is still below one
        # batch of path-steps, so it runs the same chunk in this process.
        # Forcing path by path must give the same bytes.
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        threshold = sim_engine.BATCH_MIN_PATHS
        assert [len(c) for c in sim_engine._path_chunks(threshold, 60)] == [threshold]

        def ensemble(tag, n, workers):
            out = tmp_path / tag
            main(["mc", "--config", scenario_file, "--paths", str(n),
                  "--workers", str(workers), "--out", str(out)])
            return (out / "ensemble.json").read_bytes()

        for n in (threshold - 1, threshold):
            blobs = [ensemble(f"{n}-w{w}", n, w) for w in (1, 2)]
            with monkeypatch.context() as m:
                m.setattr(sim_engine, "BATCH_MIN_PATHS", n + 1)
                blobs.append(ensemble(f"{n}-scalar", n, 1))
            assert blobs[1:] == blobs[:1] * 2

    @pytest.mark.parametrize("preset,kind,magnitude,duration,digest", [
        ("janus_baseline", "crypto_crash", 0.5, 40,
         "b575de1dccc3c65e09fef9e1203450f6b8b28bb414129c2942edf68ec962ed27"),
        ("dai_like", "crypto_crash", 0.5, 40,
         "fb1ec0554fa4158b57abfb18b70e991d3a334a769ade8ab5f5c1efc4985cebed"),
        ("flatcoin_like", "demand_collapse", 0.6, 80,
         "e0780bd2406b72fed63913239ecb043e609913d5d1a3e481ae32688e2d03b2f5"),
    ])
    def test_stressed_batches_keep_their_bytes(
        self, preset, kind, magnitude, duration, digest, tmp_path, monkeypatch
    ):
        # Batches whose rare path-steps the scalar core runs again.
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        calls = []
        advance = path_batch._advance
        monkeypatch.setattr(path_batch, "_advance", lambda *a: calls.append(a) or advance(*a))
        data = config_to_dict(load_preset(preset))
        data["stress"] = {"kind": kind, "onset": 60, "magnitude": magnitude, "duration": duration}
        path = tmp_path / "stressed.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["mc", "--config", str(path), "--paths", "100", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256((out / "ensemble.json").read_bytes()).hexdigest() == digest
        assert calls

    def test_single_path_matches_run(self, scenario_file, tmp_path):
        r, m = tmp_path / "r", tmp_path / "m"
        main(["run", "--config", scenario_file, "--out", str(r)])
        main(["mc", "--config", scenario_file, "--paths", "1", "--out", str(m)])
        run_summary = json.loads((r / "summary.json").read_text())
        ensemble = json.loads((m / "ensemble.json").read_text())
        assert ensemble["mean_terminal_p_a"] == run_summary["terminal_p_a"]
        assert ensemble["mean_terminal_p_omega"] == run_summary["terminal_p_omega"]

    def test_bad_thread_env_is_config_error(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("JANUS_SIM_THREADS", "many")
        code = main(["mc", "--config", scenario_file, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_leaves_numpy_ma_unimported(self, scenario_file, tmp_path):
        # numpy.ma costs about 1.3 MB of resident memory; np.median imports it
        src = str(Path(sim_engine.__file__).resolve().parents[1])
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "from janus_sim.cli import main\n"
                f"assert main(['mc', '--config', {scenario_file!r}, '--paths', '40',"
                f" '--out', {str(tmp_path / 'o')!r}]) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("command", ["mc", "frontier"])
    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), ("1", "0"), ("4", "-1")])
    def test_fewer_than_one_worker_is_config_error(
        self, command, flag, env, scenario_file, tmp_path, monkeypatch, capsys
    ):
        if env is None:
            monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("JANUS_SIM_THREADS", env)
        out = tmp_path / "o"
        code = main([command, "--config", scenario_file, "--paths", "2", "--workers", flag,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


def count_pools(monkeypatch) -> list[int]:
    """Count the spawn pools opened: the returned list collects the process
    count of each."""
    opened = []
    spawn_pool = sim_engine._spawn_pool

    def counting_pool(processes):
        opened.append(processes)
        return spawn_pool(processes)

    monkeypatch.setattr(sim_engine, "_spawn_pool", counting_pool)
    return opened


def output_bytes(tmp_path, tag, command, config, n_paths, workers, grid=None) -> bytes:
    """``ensemble.json`` of ``mc``, or ``frontier.csv`` of ``frontier`` over
    ``grid``, for ``config`` with ``n_paths`` paths and ``workers``."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(config_to_dict(config)))
    extra = []
    if command == "frontier":
        grid_path = tmp_path / f"{tag}-grid.json"
        grid_path.write_text(json.dumps(grid))
        extra = ["--grid", str(grid_path)]
    out = tmp_path / tag
    code = main([command, "--config", str(path), "--paths", str(n_paths), *extra,
                 "--workers", str(workers), "--out", str(out)])
    assert code == EXIT_OK
    return (out / ("frontier.csv" if command == "frontier" else "ensemble.json")).read_bytes()


class TestWorkers:
    """``ensemble.json`` and ``frontier.csv`` keep their bytes for 1, 2 and 4
    workers, with the ensemble below one batch of path-steps (in process)
    and past it (``BATCH_PATH_STEPS`` lowered so that a real spawn pool
    runs batched chunks, or path-by-path ones for 4 workers)."""

    @pytest.mark.parametrize("command", ["mc", "frontier"])
    @pytest.mark.parametrize("name", ["scenario", "diverging"])
    def test_bytes_for_any_workers_on_both_sides_of_the_pool(
        self, command, name, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        config = small_config(horizon=60) if name == "scenario" else diverging_config(seed=1)
        grid = {"epsilon": [0.01, 0.03]}
        n = sim_engine.BATCH_MIN_PATHS
        opened = count_pools(monkeypatch)
        blobs = [output_bytes(tmp_path, f"w{w}", command, config, n, w, grid) for w in (1, 2, 4)]
        assert opened == []
        # mc: 2 chunks of n/2 paths; frontier: 2 cells of one n-path chunk,
        # one per process for 2 workers
        chunk = n // 2 if command == "mc" else n
        monkeypatch.setattr(sim_engine, "BATCH_PATH_STEPS", chunk * config.horizon)
        blobs += [output_bytes(tmp_path, f"pool-w{w}", command, config, n, w, grid) for w in (1, 2, 4)]
        assert opened == [2, 4]
        assert blobs == blobs[:1] * 6

    @pytest.mark.parametrize("name", ["scenario", "diverging"])
    def test_cells_sharing_paths_give_the_bytes_of_cells_run_one_by_one(
        self, name, tmp_path, monkeypatch
    ):
        # theta cuts the four cells into two groups of two that step the
        # same paths; each group runs as one batch, here or in a pool
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        config = small_config(horizon=60) if name == "scenario" else diverging_config(seed=1, horizon=60)
        grid = {"theta": [[0.5, 0.5], [0.8, 0.2]], "min_collateral_ratio": [1.4, 1.6]}
        n = sim_engine.BATCH_MIN_PATHS
        with monkeypatch.context() as m:
            m.setattr(sim_engine, "_paths_key", id)  # every cell a group of its own
            alone = output_bytes(tmp_path, "alone", "frontier", config, n, 1, grid)
        opened = count_pools(monkeypatch)
        blobs = [output_bytes(tmp_path, f"w{w}", "frontier", config, n, w, grid) for w in (1, 2)]
        assert opened == []
        monkeypatch.setattr(sim_engine, "BATCH_PATH_STEPS", n * config.horizon)
        blobs += [output_bytes(tmp_path, f"pool-w{w}", "frontier", config, n, w, grid) for w in (1, 2)]
        assert opened == [2]
        assert blobs == [alone] * 4


class TestFrontier:
    def test_single_cell_is_pareto(self, scenario_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epsilon": [0.02]}))
        out = tmp_path / "out"
        code = main(
            ["frontier", "--config", scenario_file, "--grid", str(grid),
             "--paths", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "frontier.csv").read_text().splitlines()
        assert lines[0] == "epsilon,d,e,s,pareto"
        assert len(lines) == 2
        assert lines[1].endswith(",1")

    def test_grid_covers_product(self, scenario_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"epsilon": [0.01, 0.03], "min_collateral_ratio": [1.4, 1.6]}))
        out = tmp_path / "out"
        main(
            ["frontier", "--config", scenario_file, "--grid", str(grid),
             "--paths", "2", "--out", str(out)]
        )
        assert len((out / "frontier.csv").read_text().splitlines()) == 5

    def test_empty_grid_is_config_error(self, scenario_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{}")
        code = main(
            ["frontier", "--config", scenario_file, "--grid", str(grid), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("grid", [
        {"epsilon": 0.02}, {"epsilon": "ab"}, {"epsilon": [0.02, "x"]}, {"theta": [0.5, 0.5]},
        {"theta": [[True, False]], "fee_gain": [True]}, {"epsilon": [True]},
    ])
    def test_malformed_grid_is_config_error(self, grid, scenario_file, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        code = main(
            ["frontier", "--config", scenario_file, "--grid", str(path), "--paths", "2",
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o" / "frontier.csv").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bundled_grid_keeps_its_bytes(self, workers, tmp_path, monkeypatch):
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        out = tmp_path / "o"
        code = main(["frontier", "--preset", "janus_baseline", "--paths", "4",
                     "--workers", workers, "--out", str(out)])
        assert code == EXIT_OK
        digest = hashlib.sha256((out / "frontier.csv").read_bytes()).hexdigest()
        assert digest == "946cf06806fa352727ed133bdb3e526f085131b9c78ce7e2098378789419a2ab"


class TestEquilibrium:
    def test_quiescent_scenario_converges_at_start(self, quiescent_file, tmp_path):
        out = tmp_path / "out"
        code = main(["equilibrium", "--config", quiescent_file, "--out", str(out)])
        assert code == EXIT_OK
        data = json.loads((out / "equilibrium.json").read_text())
        assert data["converged"] is True
        assert data["residual"] <= 1e-10
        assert data["stability"] in ("stable", "marginal")
        # the quiescent scenario is already at its rest point
        assert data["x_star"][1] == pytest.approx(500.0, rel=1e-6)

    def test_runaway_scenario_exits_diverged(self, tmp_path, capsys):
        code = main(["equilibrium", "--preset", "ust_like", "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "equilibrium solve did not converge; last residual 7.656367e-01\n"
        )

    @pytest.mark.parametrize("preset,digest", [
        ("janus_baseline", "f9c2f4109389f5274a3cd5b71be2b206ad13e25fb2f7dfc12522e6cad1418eaf"),
        ("usdc_like", "110468a9116b15ad10c4ab887613ee3c98409747c64aa4f90a70db304db246ff"),
        ("dai_like", "efde929d4a17ed4004ae94ab506f5b06e79872bba5ace6fd126f4a0ecc543571"),
        ("flatcoin_like", "7899e5f4f1b50a3796cd893079dcf0c72bc9243a96bf75ed0e779627390413d0"),
    ])
    def test_presets_keep_their_bytes(self, preset, digest, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["equilibrium", "--preset", preset, "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256((out / "equilibrium.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("onset", [0, 1])
    def test_manifest_names_the_stress_the_map_runs_under(self, onset, tmp_path, capsys):
        # the map runs at stress clock 0: a crash from step 0 acts on every
        # evaluation and is named, one from step 1 never acts
        crash = StressOverlay(StressKind.CRYPTO_CRASH, onset=onset, magnitude=0.3, duration=5)
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(config_to_dict(replace(load_preset("janus_baseline"), stress=crash))))
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", str(path), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        err = capsys.readouterr().err
        if onset == 0:
            assert manifest["map_stress"] == {"kind": "crypto_crash", "magnitude": 0.3}
            assert err == "equilibrium map under crypto_crash at t = 0, magnitude 0.3\n"
        else:
            assert manifest["map_stress"] is None and err == ""
        assert sorted(json.loads((out / "equilibrium.json").read_text())) == [
            "converged", "iterations", "residual", "spectral_radius", "stability", "x_star",
        ]

    def test_solver_evaluates_the_map_on_lists(self, tmp_path, monkeypatch, capsys):
        # The solve passes lists through ``cli.step_map``; only the Jacobian's
        # 2 x 13 central-difference probes are arrays.
        kinds = []
        step_map = cli.step_map

        def recording_step_map(x, config):
            kinds.append(type(x))
            return step_map(x, config)

        monkeypatch.setattr(cli, "step_map", recording_step_map)
        assert main(["equilibrium", "--preset", "janus_baseline", "--out", str(tmp_path)]) == EXIT_OK
        assert kinds == [list] * 534 + [np.ndarray] * (2 * 13)


def stderr_of(argv) -> tuple:
    """(exit code, stderr, warnings raised) of one CLI call."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


class TestStderr:
    """Stderr carries only what the CLI means to say: no numpy warning, on
    scenarios that reach every rare branch of the step."""

    @settings(deadline=None, max_examples=20)
    @given(**SCENARIO_KNOBS)
    def test_random_scenarios_print_only_the_divergence_line(self, **knobs):
        config = random_scenario(**knobs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(config_to_dict(config)))
            code, err, caught = stderr_of(["run", "--config", str(path), "--out", f"{tmp}/run"])
            assert caught == []
            if code == EXIT_DIVERGED:
                steps = len((Path(tmp) / "run" / "trace.csv").read_text().splitlines()) - 1
                assert err == f"simulation diverged at step {steps} of {config.horizon}\n"
            else:
                assert (code, err) == (EXIT_OK, "")
            out = f"{tmp}/mc"
            assert stderr_of(["mc", "--config", str(path), "--paths", "40", "--out", out]) == (EXIT_OK, "", [])

    def test_infinite_mid_price_prints_only_the_divergence_line(self, tmp_path):
        # path 0 ends on a record of infinite Alpha price: the inflow
        # regression over it is NaN, with no numpy warning
        cfg = quiet_config(micro_vol=250.0, seed=1)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        code, err, caught = stderr_of(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert (code, caught) == (EXIT_DIVERGED, [])
        assert err.startswith("simulation diverged at step ") and err.count("\n") == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert math.isnan(summary["inflow_r2"])
        last = (tmp_path / "o" / "trace.csv").read_text().splitlines()[-1].split(",")
        assert "inf" in last[1:3]


class TestErrors:
    def test_malformed_correlation_exits_config(self, tmp_path):
        data = config_to_dict(small_config())
        data["correlation"] = [[1.0, 0.5], [0.3, 1.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_unknown_preset_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "not_a_preset", "--out", str(tmp_path / "o")])

    def test_config_and_preset_mutually_exclusive(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["run", "--config", scenario_file, "--preset", "janus_baseline",
                 "--out", str(tmp_path / "o")]
            )

    @pytest.mark.parametrize("command", ["run", "mc", "equilibrium"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("initial.alpha_price", -1.0),
            ("initial.omega_supply", -1.0),
            ("initial.c_total", -1.0),
            ("collateral_weights", [math.nan, 1.0]),
        ],
    )
    def test_invalid_initial_state_exits_config(self, key, value, command, tmp_path):
        data = config_to_dict(small_config())
        section, _, field = key.rpartition(".")
        (data[section] if section else data)[field] = value
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(data))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "equilibrium"])
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_config_exits_config(self, name, command, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        data = config_to_dict(load_preset("janus_baseline"))
        MALFORMED[name](data)
        path.write_text(json.dumps(data))
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["run", "mc", "frontier", "equilibrium"])
    def test_overflowing_reference_price_exits_config(self, command, tmp_path, capsys):
        # p0 * (1 + g) ** horizon overflows: a config error before any output
        data = config_to_dict(load_preset("janus_baseline"))
        data["ref_policy"]["growth_rate"] = 1.0
        data["horizon"] = 1100
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("paths", ["5", "40"])
    def test_reward_below_minus_one_exits_config(self, paths, tmp_path, capsys):
        path = tmp_path / "reward.json"
        path.write_text(json.dumps(negative_reward_data()))
        code = main(["mc", "--config", str(path), "--paths", paths, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("edit", [
        lambda d: d["assets"][0].update(vol=math.nan),  # the crypto asset
        lambda d: d["market"].update(depth_alpha=math.inf),
    ])
    def test_non_json_constant_in_config_exits_config(self, edit, tmp_path, capsys):
        # Python's json reads NaN and Infinity, which JSON does not have
        data = config_to_dict(load_preset("janus_baseline"))
        edit(data)
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_non_json_constant_in_grid_exits_config(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"sentiment_gain": [NaN]}')
        out = tmp_path / "o"
        code = main(["frontier", "--preset", "janus_baseline", "--grid", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_negative_liquidation_penalty_exits_config(self, tmp_path, capsys):
        # liquidate divided by zero on path 3 of this scenario
        crash = StressOverlay(StressKind.CRYPTO_CRASH, onset=20, magnitude=0.6, duration=30)
        data = config_to_dict(replace(load_preset("dai_like"), stress=crash))
        data["market"]["liq_penalty"] = -0.5
        path = tmp_path / "penalty.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["mc", "--config", str(path), "--paths", "5", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["mc", "--paths", "3"], ["equilibrium"]])
    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["inf", "huge_int"])
    def test_number_no_float_holds_exits_config(self, literal, command, tmp_path, capsys):
        # json reads 1e400 as inf, and 1 followed by 400 zeros as an int
        # that float() cannot convert
        data = config_to_dict(load_preset("janus_baseline"))
        data["market"]["depth_alpha"] = 0.5
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace('"depth_alpha": 0.5', f'"depth_alpha": {literal}'))
        out = tmp_path / "o"
        assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_number_no_float_holds_in_grid_exits_config(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text('{"sentiment_gain": [1e400]}')
        out = tmp_path / "o"
        code = main(["frontier", "--preset", "janus_baseline", "--grid", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
    def test_seed_outside_64_bits_exits_config(self, seed, tmp_path, capsys):
        # the shocks key a path by the seed's 64 bits: these three would
        # repeat the paths of seed 2**64 - 1 under other config hashes
        data = config_to_dict(load_preset("janus_baseline"))
        data["seed"] = seed
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(data))
        for argv in (["--config", str(path)], ["--preset", "janus_baseline", "--seed", str(seed)]):
            out = tmp_path / "o"
            assert main(["mc", "--paths", "3", *argv, "--out", str(out)]) == EXIT_CONFIG
            assert "seed must lie in [0, 2**64)" in capsys.readouterr().err
            assert not out.exists()


def small_data():
    return config_to_dict(small_config(horizon=60))


def zero_depth_data():
    data = config_to_dict(small_config())
    data["market"]["depth_omega"] = 0.0
    return data


def crash_at_start_data():
    crash = StressOverlay(StressKind.CRYPTO_CRASH, onset=0, magnitude=0.3, duration=5)
    return config_to_dict(replace(load_preset("janus_baseline"), stress=crash))


def raise_solver_error(*args):
    raise SolverError("probe")


MISSING = "config error: cannot read config file: [Errno 2] No such file or directory: 'missing.json'\n"
WORKERS = "config error: --workers must be >= 1\n"

# Every exit path of every command: (arguments, config data written to the
# --config file or None, the cli function swapped for one that raises
# SolverError or None, exit code, stdout, stderr, the manifest's outputs or
# None when no directory may be made).
CONTRACT = {
    "run": (["run"], small_data, None, EXIT_OK, "", "", ["summary.json", "trace.csv"]),
    "mc": (["mc", "--paths", "5"], small_data, None, EXIT_OK, "", "", ["ensemble.json"]),
    "frontier": (["frontier", "--paths", "2"], small_data, None, EXIT_OK, "", "", ["frontier.csv"]),
    "equilibrium": (
        ["equilibrium", "--preset", "janus_baseline"], None, None, EXIT_OK,
        "stability: stable (spectral radius 0.917244)\n", "", ["equilibrium.json"],
    ),
    "equilibrium_under_stress": (
        ["equilibrium"], crash_at_start_data, None, EXIT_OK, "stability: stable (spectral radius 0.924069)\n",
        "equilibrium map under crypto_crash at t = 0, magnitude 0.3\n", ["equilibrium.json"],
    ),
    "run_diverges": (
        ["run", "--seed", "1"], lambda: config_to_dict(diverging_config(horizon=30)), None, EXIT_DIVERGED,
        "", "simulation diverged at step 3 of 30\n", ["summary.json", "trace.csv"],
    ),
    "equilibrium_does_not_converge": (
        ["equilibrium", "--preset", "ust_like"], None, None, EXIT_DIVERGED,
        "", "equilibrium solve did not converge; last residual 7.656367e-01\n", None,
    ),
    "equilibrium_solve_raises": (
        ["equilibrium", "--preset", "janus_baseline"], None, "find_fixed_point", EXIT_DIVERGED,
        "", "equilibrium solve diverged: probe\n", None,
    ),
    "equilibrium_jacobian_raises": (
        ["equilibrium", "--preset", "janus_baseline"], None, "jacobian_fd", EXIT_DIVERGED,
        "", "stability analysis diverged: probe\n", None,
    ),
    **{
        f"{command}_missing_config": (
            [command, "--config", "missing.json"], None, None, EXIT_CONFIG, "", MISSING, None,
        )
        for command in ("run", "mc", "frontier", "equilibrium")
    },
    "run_zero_depth": (
        ["run"], zero_depth_data, None, EXIT_CONFIG, "", "config error: market depths must be positive\n", None,
    ),
    "mc_no_workers": (["mc", "--workers", "0"], small_data, None, EXIT_CONFIG, "", WORKERS, None),
    "frontier_no_workers": (["frontier", "--workers", "0"], small_data, None, EXIT_CONFIG, "", WORKERS, None),
    "frontier_bad_grid": (
        ["frontier", "--grid", "scenario.json"], small_data, None, EXIT_CONFIG,
        "", "config error: sweep grid must be a non-empty object of non-empty lists\n", None,
    ),
}


class TestContract:
    """Each exit path keeps its exit code and its exact stdout and stderr,
    and leaves an output directory that holds exactly the manifest's
    outputs and the manifest, or no directory."""

    @pytest.mark.parametrize("name", list(CONTRACT))
    def test_exit_path(self, name, tmp_path, monkeypatch, capsys):
        argv, data, raising, code, stdout, stderr, outputs = CONTRACT[name]
        monkeypatch.chdir(tmp_path)
        if data is not None:
            Path("scenario.json").write_text(json.dumps(data()))
            argv = argv + ["--config", "scenario.json"]
        if raising is not None:
            monkeypatch.setattr(cli, raising, raise_solver_error)
        assert main(argv + ["--out", "out"]) == code
        assert capsys.readouterr() == (stdout, stderr)
        if outputs is None:
            assert not Path("out").exists()
        else:
            manifest = json.loads(Path("out/manifest.json").read_text())
            assert manifest["outputs"] == outputs
            assert sorted(p.name for p in Path("out").iterdir()) == sorted(outputs + ["manifest.json"])
