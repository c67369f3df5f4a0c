"""Trilemma coordinates, ponzinomics checks, and the ordinal risk classes."""

import math

import numpy as np
import pytest

from janus_sim.core_state import GovernanceDistribution
from janus_sim.metrics import (
    DEPENDENCE_HIGH,
    DEPENDENCE_LOW,
    MetricError,
    RiskClass,
    capital_efficiency,
    decentralization,
    ponzi_anchor_check,
    ponzi_report,
    ponzi_verdict,
    trilemma_point,
)
from janus_sim.sim_engine import EnsembleSummary, _inflow_r2


def make_summary(**overrides):
    base = dict(
        n_paths=10,
        failures=1,
        p_fail=0.1,
        p_fail_ci=(0.02, 0.4),
        mean_in_band=0.9,
        mean_efficiency=0.7,
        mean_terminal_p_a=1.0,
        mean_terminal_p_omega=1.0,
        median_terminal_p_a=1.0,
        median_terminal_p_omega=1.0,
        terminal_p_ref=1.0,
        minted_notional=1000.0,
        crypto_anchor=600.0,
        rwa_anchor=600.0,
        mean_inflow_r2=0.2,
        in_band_fractions=(0.9,) * 10,
        failed_flags=(True,) + (False,) * 9,
    )
    base.update(overrides)
    return EnsembleSummary(**base)


class TestDecentralization:
    def test_single_holder_is_zero(self):
        assert decentralization(GovernanceDistribution((1.0,))) == 0.0

    def test_complement_of_concentration(self):
        gov = GovernanceDistribution((0.5, 0.3, 0.2))
        concentration = sum(w * w for w in gov.weights)
        assert decentralization(gov) == pytest.approx(1.0 - concentration, rel=1e-15)

    def test_uniform_weights_approach_one(self):
        n = 100
        gov = GovernanceDistribution((1.0 / n,) * n)
        assert decentralization(gov) == pytest.approx(1.0 - 1.0 / n)


class TestCapitalEfficiency:
    def test_formula(self):
        assert capital_efficiency(120.0, 1.5, 300.0) == pytest.approx(0.6)

    def test_zero_supply_is_zero(self):
        assert capital_efficiency(0.0, 1.0, 0.0) == 0.0

    def test_zero_collateral_with_supply_rejected(self):
        with pytest.raises(MetricError):
            capital_efficiency(10.0, 1.0, 0.0)

    def test_bad_reference_price_rejected(self):
        with pytest.raises(MetricError):
            capital_efficiency(1.0, 0.0, 1.0)


class TestAnchorCheck:
    def test_anchored_when_backing_covers_notional(self):
        assert ponzi_anchor_check(100.0, 60.0, 50.0) == pytest.approx(-10.0)

    def test_unanchored_when_backing_short(self):
        assert ponzi_anchor_check(100.0, 10.0, 10.0) == pytest.approx(80.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(MetricError):
            ponzi_anchor_check(-1.0, 0.0, 0.0)


class TestVerdictTable:
    CASES = [
        (-1.0, 0.0, RiskClass.VERY_LOW),
        (-1.0, DEPENDENCE_LOW - 1e-9, RiskClass.VERY_LOW),
        (-1.0, DEPENDENCE_LOW, RiskClass.LOW),
        (0.0, 0.5, RiskClass.LOW),
        (-1.0, DEPENDENCE_HIGH, RiskClass.MEDIUM),
        (-1.0, 1.0, RiskClass.MEDIUM),
        (1.0, 0.0, RiskClass.HIGH),
        (1.0, DEPENDENCE_HIGH - 1e-9, RiskClass.HIGH),
        (1.0, DEPENDENCE_HIGH, RiskClass.VERY_HIGH),
        (1.0, 1.0, RiskClass.VERY_HIGH),
    ]

    @pytest.mark.parametrize("margin,dep,expected", CASES)
    def test_exhaustive(self, margin, dep, expected):
        assert ponzi_verdict(margin, dep) is expected

    def test_classes_are_ordered(self):
        assert (
            RiskClass.VERY_LOW
            < RiskClass.LOW
            < RiskClass.MEDIUM
            < RiskClass.HIGH
            < RiskClass.VERY_HIGH
        )

    def test_str_names(self):
        assert str(RiskClass.VERY_LOW) == "very_low"
        assert str(RiskClass.VERY_HIGH) == "very_high"

    def test_verdict_monotone_in_dependence(self):
        for margin in (-1.0, 1.0):
            verdicts = [ponzi_verdict(margin, d) for d in np.linspace(0, 1, 21)]
            assert verdicts == sorted(verdicts)


class TestInflowDependence:
    """The R-squared that ``path_summary`` gives each path as its inflow
    dependence."""

    def test_perfectly_driven_prices(self):
        rng = np.random.default_rng(1)
        inflow = rng.standard_normal(200)
        mid = np.empty(200)
        mid[0] = 1.0
        for t in range(1, 200):
            mid[t] = mid[t - 1] * math.exp(0.01 * inflow[t])
        assert _inflow_r2(mid, inflow) == pytest.approx(1.0, abs=1e-9)

    def test_independent_prices(self):
        rng = np.random.default_rng(2)
        inflow = rng.standard_normal(400)
        mid = np.exp(np.cumsum(0.01 * rng.standard_normal(400)))
        assert _inflow_r2(mid, inflow) < 0.05

    def test_truncates_at_price_collapse(self):
        rng = np.random.default_rng(3)
        inflow = rng.standard_normal(200)
        mid = np.empty(200)
        mid[0] = 1.0
        for t in range(1, 200):
            mid[t] = mid[t - 1] * math.exp(0.01 * inflow[t])
        mid[120:] = 0.0  # collapsed tail must not poison the regression
        assert _inflow_r2(mid, inflow) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_trace_is_nan(self):
        assert math.isnan(_inflow_r2(np.ones(60), np.zeros(60)))


class TestReports:
    def test_ponzi_report_wiring(self):
        rep = ponzi_report(make_summary())
        assert rep.anchor_margin == pytest.approx(1000.0 - 1200.0)
        assert rep.inflow_dependence == pytest.approx(0.2)
        assert rep.verdict is RiskClass.VERY_LOW

    def test_nan_dependence_treated_as_zero(self):
        rep = ponzi_report(make_summary(mean_inflow_r2=float("nan")))
        assert rep.inflow_dependence == 0.0
        assert rep.verdict is RiskClass.VERY_LOW

    def test_trilemma_point_wiring(self):
        gov = GovernanceDistribution((0.6, 0.4))
        point = trilemma_point(gov, make_summary())
        assert point.d == pytest.approx(decentralization(gov))
        assert point.e == pytest.approx(0.7)
        assert point.s == pytest.approx(0.9)
        assert point.s_ci == (pytest.approx(0.6), pytest.approx(0.98))
        assert point.s_ci[0] <= point.s <= point.s_ci[1]
