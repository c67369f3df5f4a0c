"""Trilemma metrics, ponzinomics checks, and trilemma-point assembly.

Decentralization is one minus the sum of squared governance weights
(defined in ``core_state``, which the engine's frontier sweep also uses);
capital efficiency is supply value over collateral value; safety is one
minus the Monte Carlo failure probability with a Wilson interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

from .core_state import GovernanceDistribution, decentralization
from .sim_engine import EnsembleSummary, FailureDef, ScenarioConfig, SimTrace, _inflow_r2, monte_carlo


class MetricError(ValueError):
    pass


class RiskClass(IntEnum):
    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4

    def __str__(self):
        return self.name.lower()


#: inflow-dependence thresholds separating the ordinal risk classes; these
#: are calibration constants, not claims.
DEPENDENCE_LOW = 0.3
DEPENDENCE_HIGH = 0.6


@dataclass(frozen=True)
class TrilemmaPoint:
    d: float
    e: float
    s: float
    s_ci: tuple[float, float]


@dataclass(frozen=True)
class PonziReport:
    anchor_margin: float
    inflow_dependence: float
    verdict: RiskClass


def capital_efficiency(s_sc: float, p_ref: float, c_total: float) -> float:
    """Supply value at the reference price per unit of locked collateral."""
    if s_sc < 0 or p_ref <= 0:
        raise MetricError("need non-negative supply and positive reference price")
    if s_sc == 0:
        return 0.0
    if c_total <= 0:
        raise MetricError("capital efficiency undefined for zero collateral")
    return s_sc * p_ref / c_total


def failure_probability(
    config: ScenarioConfig,
    failure: FailureDef | None = None,
    n_paths: int = 100,
    base_seed: int | None = None,
    workers: int = 1,
) -> tuple[float, tuple[float, float]]:
    """Monte Carlo failure fraction and its 95% Wilson interval."""
    if n_paths < 1:
        raise MetricError("need at least one path")
    if failure is not None:
        config = replace(config, failure=failure)
    if base_seed is not None:
        config = replace(config, seed=base_seed)
    summary = monte_carlo(config, n_paths, workers)
    return summary.p_fail, summary.p_fail_ci


def ponzi_anchor_check(m: float, v1: float, ev2: float) -> float:
    """Minted notional minus the sum of value anchors; <= 0 means anchored."""
    if m < 0 or v1 < 0 or ev2 < 0:
        raise MetricError("anchor inputs must be non-negative")
    return m - (v1 + ev2)


def inflow_dependence(trace: SimTrace) -> float:
    """R-squared of per-step mid-price log-returns on net inflow, in [0, 1].

    Log-returns keep collapsed-price steps on the same scale as healthy
    ones; the series is truncated at the first non-positive price.  Returns
    NaN for degenerate (zero-variance) traces.
    """
    if len(trace) < 30:
        raise MetricError("trace too short for inflow regression (need >= 30 steps)")
    mid = 0.5 * (trace.array("p_a") + trace.array("p_omega"))
    return _inflow_r2(mid, trace.array("net_inflow"))


def ponzi_verdict(anchor_margin: float, dependence: float) -> RiskClass:
    """Ordinal risk class from the anchor condition and inflow dependence."""
    anchored = anchor_margin <= 0
    if anchored:
        if dependence < DEPENDENCE_LOW:
            return RiskClass.VERY_LOW
        if dependence < DEPENDENCE_HIGH:
            return RiskClass.LOW
        return RiskClass.MEDIUM
    if dependence < DEPENDENCE_HIGH:
        return RiskClass.HIGH
    return RiskClass.VERY_HIGH


def ponzi_report(summary: EnsembleSummary) -> PonziReport:
    margin = ponzi_anchor_check(
        summary.minted_notional, summary.crypto_anchor, summary.rwa_anchor
    )
    dep = summary.mean_inflow_r2
    if math.isnan(dep):
        dep = 0.0
    return PonziReport(anchor_margin=margin, inflow_dependence=dep, verdict=ponzi_verdict(margin, dep))


def trilemma_point(gov: GovernanceDistribution, summary: EnsembleSummary) -> TrilemmaPoint:
    """Assemble (D, E, S) from governance and an ensemble summary."""
    if summary.n_paths < 1:
        raise MetricError("ensemble must contain at least one path")
    lo, hi = summary.p_fail_ci
    return TrilemmaPoint(
        d=decentralization(gov),
        e=summary.mean_efficiency,
        s=1.0 - summary.p_fail,
        s_ci=(1.0 - hi, 1.0 - lo),
    )
