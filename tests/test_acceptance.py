"""Acceptance gate: end-to-end behavioral criteria for the whole toolkit.

Each test covers one numbered criterion, prints a single PASS/FAIL line, and
asserts at the stated tolerance.  Expensive ensembles are computed once per
session and shared.
"""

import functools
import json
import math
import time
from dataclasses import replace

import numpy as np

from janus_sim.cli import EXIT_DIVERGED, EXIT_OK, main
from janus_sim.config_io import load_preset
from janus_sim.controller import find_fixed_point, jacobian_fd, spectral_radius
from janus_sim.market import cholesky_factor, portfolio_variance
from janus_sim.metrics import (
    RiskClass,
    capital_efficiency,
    ponzi_report,
    trilemma_point,
)
from janus_sim.sim_engine import BURN_IN_STEPS, monte_carlo, path_summary, simulate_path

from test_market import random_correlation
from test_sim_engine import small_config

N_PATHS = 1000
VERDICT_PATHS = 300


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def baseline():
    return load_preset("janus_baseline")


@functools.lru_cache(maxsize=None)
def controller_off(cfg_name="janus_baseline"):
    cfg = load_preset(cfg_name)
    return replace(
        cfg, controller=replace(cfg.controller, fee_gain=0.0, reward_gain=0.0, rate_gain=0.0)
    )


@functools.lru_cache(maxsize=None)
def ensemble_on_off():
    t0 = time.perf_counter()
    on = monte_carlo(baseline(), N_PATHS)
    off = monte_carlo(controller_off(), N_PATHS)
    return on, off, time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def preset_ensemble(name):
    return monte_carlo(load_preset(name), VERDICT_PATHS)


class TestCriterion1MetricExactness:
    def test_trilemma_metrics_match_brute_force(self):
        t0 = time.perf_counter()
        cfg = small_config(horizon=60)
        n = 50
        summary = monte_carlo(cfg, n)
        point = trilemma_point(cfg.governance, summary)

        # brute force: replay every path and recompute each coordinate from raw traces
        d_bf = 1.0 - sum(w * w for w in cfg.governance.weights)
        effs, fails = [], 0
        for i in range(n):
            tr = simulate_path(cfg, i)
            per_step = []
            for s_a, s_o, p_ref, c in zip(
                tr.columns["supply_a"], tr.columns["supply_omega"],
                tr.columns["p_ref"], tr.columns["c_total"],
            ):
                per_step.append(capital_efficiency(s_a + s_o, p_ref, c) if c > 0 else 0.0)
            effs.append(sum(per_step) / len(per_step))
            fails += tr.columns["failed"][-1]
        e_bf = sum(effs) / n
        s_bf = 1.0 - fails / n
        elapsed = time.perf_counter() - t0

        err = max(abs(point.d - d_bf), abs(point.e - e_bf), abs(point.s - s_bf))
        ok = err <= 1e-12 and elapsed < 1.0
        report("criterion 1", ok, f"max |metric - brute force| = {err:.2e}, {elapsed:.2f}s")


class TestCriterion2VarianceFormula:
    def test_portfolio_variance_matches_large_sample(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(12345)
        corr = random_correlation(rng, 3)
        w = np.array([0.5, 0.3, 0.2])
        variances = np.array([0.04, 0.01, 0.0025])
        analytic = portfolio_variance(w, variances, corr)

        n = 1_000_000
        L = cholesky_factor(corr)
        z = rng.standard_normal((n, 3))
        returns = (z @ L.T) * np.sqrt(variances)
        sample = float((returns @ w).var(ddof=1))
        se = sample * math.sqrt(2.0 / (n - 1))
        elapsed = time.perf_counter() - t0

        ok = abs(sample - analytic) <= 3 * se and elapsed < 30.0
        report(
            "criterion 2",
            ok,
            f"|sample - analytic| = {abs(sample - analytic):.2e} vs 3*SE = {3 * se:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3SolverSuite:
    def test_solver_jacobian_and_spectral_radius(self):
        rng = np.random.default_rng(777)
        worst_res = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((n, n))
            A *= 0.85 * rng.random() / max(np.linalg.norm(A, 2), 1e-12)
            b = rng.standard_normal(n)
            rep = find_fixed_point(lambda x, A=A, b=b: A @ x + b, np.zeros(n), tol=1e-12)
            x_true = np.linalg.solve(np.eye(n) - A, b)
            worst_res = max(
                worst_res,
                rep.residual,
                float(np.max(np.abs(rep.x_star - x_true))),
            )

        worst_jac = 0.0
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            J = jacobian_fd(lambda v, A=A: A @ v, rng.standard_normal(n))
            worst_jac = max(worst_jac, float(np.max(np.abs(J - A))))

        worst_rho = 0.0
        for _ in range(50):
            J = rng.standard_normal((5, 5))
            oracle = float(max(abs(np.linalg.eigvals(J))))
            worst_rho = max(worst_rho, abs(spectral_radius(J) - oracle))

        ok = worst_res <= 1e-10 and worst_jac <= 1e-6 and worst_rho <= 1e-6
        report(
            "criterion 3",
            ok,
            f"fixed-point residual {worst_res:.2e} (<=1e-10), "
            f"jacobian error {worst_jac:.2e} (<=1e-6), "
            f"spectral radius error {worst_rho:.2e} (<=1e-6)",
        )


class TestCriterion4ControllerEffect:
    def test_controller_stabilizes_baseline(self):
        on, off, elapsed = ensemble_on_off()

        on_fracs = np.asarray(on.in_band_fractions)
        off_fracs = np.asarray(off.in_band_fractions)
        diffs = on_fracs - off_fracs
        t_stat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))

        # paired failure comparison (McNemar): discordant path counts
        b = sum(1 for fo, fn in zip(off.failed_flags, on.failed_flags) if fo and not fn)
        c = sum(1 for fo, fn in zip(off.failed_flags, on.failed_flags) if fn and not fo)
        z = (b - c) / math.sqrt(b + c) if b + c > 0 else 0.0

        ok = (
            on.mean_in_band >= 0.95
            and t_stat > 1.645
            and z > 1.645
            and elapsed < 60.0
        )
        report(
            "criterion 4",
            ok,
            f"in-band on {on.mean_in_band:.4f} (>=0.95) vs off {off.mean_in_band:.4f} "
            f"(paired t = {t_stat:.1f}), p_fail on {on.p_fail:.3f} vs off {off.p_fail:.3f} "
            f"(McNemar z = {z:.1f}), runtime {elapsed:.1f}s for 2x{N_PATHS} paths",
        )


class TestCriterion5YieldAnchor:
    def test_yield_floor_holds_without_inflows(self):
        cfg = baseline()
        assert any(a.yield_rate > 0 for a in cfg.assets)
        variant = replace(cfg, demand=replace(cfg.demand, base_inflow=0.0))
        held = 0
        worst = math.inf
        batch = simulate_path(variant, range(N_PATHS))
        for i in range(N_PATHS):
            summary = path_summary(batch, variant, i)
            ratio = summary.terminal_p_omega / summary.terminal_p_ref
            worst = min(worst, ratio)
            if ratio >= 0.5:
                held += 1
        frac = held / N_PATHS

        ust = preset_ensemble("ust_like")
        ust_ratio = ust.median_terminal_p_a / ust.terminal_p_ref
        ust_verdict = ponzi_report(ust).verdict

        ok = frac >= 0.99 and ust_ratio < 0.5 and ust_verdict is RiskClass.VERY_HIGH
        report(
            "criterion 5",
            ok,
            f"yield-backed omega held >=0.5*p_ref on {frac:.3f} of paths (min ratio {worst:.3f}); "
            f"unbacked preset median terminal ratio {ust_ratio:.2e} with verdict {ust_verdict}",
        )


class TestCriterion6VerdictOrdering:
    def test_risk_classes_order_the_presets(self):
        verdicts = {
            name: ponzi_report(preset_ensemble(name)).verdict
            for name in ("usdc_like", "dai_like", "flatcoin_like", "ust_like")
        }
        ok = (
            verdicts["usdc_like"] <= verdicts["dai_like"]
            < verdicts["flatcoin_like"]
            < verdicts["ust_like"]
            and verdicts["usdc_like"] is RiskClass.VERY_LOW
            and verdicts["ust_like"] is RiskClass.VERY_HIGH
        )
        report(
            "criterion 6",
            ok,
            "verdicts " + ", ".join(f"{k}={v}" for k, v in verdicts.items()),
        )


class TestCriterion7Equilibrium:
    def test_baseline_stable_and_unbacked_divergent(self, tmp_path):
        out = tmp_path / "base"
        code = main(["equilibrium", "--preset", "janus_baseline", "--out", str(out)])
        data = json.loads((out / "equilibrium.json").read_text()) if code == EXIT_OK else {}
        rho = data.get("spectral_radius", math.inf)
        base_ok = code == EXIT_OK and data.get("stability") == "stable" and rho < 0.95

        ust_code = main(["equilibrium", "--preset", "ust_like", "--out", str(tmp_path / "ust")])
        ust_ok = ust_code == EXIT_DIVERGED
        if ust_code == EXIT_OK:
            ust_data = json.loads((tmp_path / "ust" / "equilibrium.json").read_text())
            ust_ok = ust_data["stability"] == "unstable"

        ok = base_ok and ust_ok
        report(
            "criterion 7",
            ok,
            f"baseline spectral radius {rho:.4f} (stable, <0.95); "
            f"unbacked preset exit code {ust_code} (diverged or unstable)",
        )


class TestCriterion8Determinism:
    def test_byte_identical_outputs(self, tmp_path, monkeypatch):
        monkeypatch.delenv("JANUS_SIM_THREADS", raising=False)
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--preset", "janus_baseline", "--out", str(r1)])
        main(["run", "--preset", "janus_baseline", "--out", str(r2)])
        run_same = (r1 / "trace.csv").read_bytes() == (r2 / "trace.csv").read_bytes() and (
            r1 / "summary.json"
        ).read_bytes() == (r2 / "summary.json").read_bytes()

        blobs = []
        for tag, workers in (("w1", 1), ("w1b", 1), ("w4", 4), ("w8", 8)):
            out = tmp_path / tag
            main(
                ["mc", "--preset", "janus_baseline", "--paths", "32",
                 "--workers", str(workers), "--out", str(out)]
            )
            blobs.append((out / "ensemble.json").read_bytes())
        mc_same = all(b == blobs[0] for b in blobs)

        ok = run_same and mc_same
        report(
            "criterion 8",
            ok,
            f"run outputs identical across repeats: {run_same}; "
            f"ensemble identical across repeats and workers 1/4/8: {mc_same}",
        )


class TestCriterion9PegTracking:
    def test_single_path_tracks_growing_reference(self):
        cfg = baseline()
        tr = simulate_path(cfg, 0)
        mid = 0.5 * (tr.array("p_a") + tr.array("p_omega"))
        p_ref = tr.array("p_ref")
        in_band = tr.array("in_band")[BURN_IN_STEPS:]
        frac = float(in_band.mean())
        drift_ok = p_ref[-1] > p_ref[0] and mid[-1] > mid[0]
        track_err = float(np.mean(np.abs(mid[BURN_IN_STEPS:] / p_ref[BURN_IN_STEPS:] - 1.0)))
        ok = frac >= 0.95 and drift_ok and track_err < cfg.band.epsilon
        report(
            "criterion 9",
            ok,
            f"path-0 in-band fraction {frac:.4f} (>=0.95) after {BURN_IN_STEPS}-step burn-in, "
            f"terminal reference {p_ref[-1]:.4f} with mean tracking error {track_err:.4f}",
        )
