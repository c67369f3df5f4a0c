"""Collateral asset dynamics, demand flows, and portfolio variance.

All functions are pure: randomness enters only through explicit draw
arguments, so callers own the streams and paths can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MarketError(ValueError):
    """Raised for invalid market inputs (bad correlation matrix, shapes)."""


class AssetKind(str, Enum):
    CRYPTO = "crypto"
    RWA = "rwa"


@dataclass(frozen=True)
class AssetSpec:
    """Per-step log-return model for one collateral asset.

    ``yield_rate`` is the external per-step yield (non-zero for RWA assets);
    RWA volatility is typically far below crypto volatility but that is a
    modelling convention, not an enforced constraint.
    """

    id: int
    kind: AssetKind
    drift: float
    vol: float
    yield_rate: float = 0.0

    def __post_init__(self):
        if self.vol < 0:
            raise MarketError("asset volatility must be non-negative")
        if self.yield_rate < 0:
            raise MarketError("asset yield must be non-negative")


@dataclass(frozen=True)
class CorrelationMatrix:
    entries: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MarketError("correlation matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise MarketError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise MarketError("correlation matrix must have unit diagonal")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise MarketError("correlation entries must satisfy |rho| <= 1")
        object.__setattr__(
            self, "entries", tuple(tuple(float(x) for x in row) for row in m)
        )

    @property
    def size(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)

    @classmethod
    def identity(cls, n: int) -> "CorrelationMatrix":
        return cls(tuple(tuple(np.eye(n)[i]) for i in range(n)))


@dataclass(frozen=True)
class DemandParams:
    """Three-term linear demand model plus noise.

    net flow = base * (1 + sentiment_gain * trend + deviation_gain * rel_dev)
               + noise_vol * noise
    """

    base_inflow: float
    sentiment_gain: float = 0.0
    deviation_gain: float = 0.0
    noise_vol: float = 0.0

    def __post_init__(self):
        if self.noise_vol < 0:
            raise MarketError("demand noise volatility must be non-negative")


def cholesky_factor(corr: CorrelationMatrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T == corr.

    Rejects non-positive-semidefinite matrices, naming the failing pivot.
    """
    a = corr.as_array()
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - np.dot(L[j, :j], L[j, :j])
        if pivot < -1e-12:
            raise MarketError(f"correlation matrix not PSD: pivot {j} is {pivot:.3e}")
        L[j, j] = math.sqrt(max(pivot, 0.0))
        for i in range(j + 1, n):
            s = a[i, j] - np.dot(L[i, :j], L[j, :j])
            L[i, j] = s / L[j, j] if L[j, j] > 0 else 0.0
    return L


def book_return_factors(
    z: list[float],
    L: tuple[tuple[float, ...], ...],
    drift: tuple[float, ...],
    vol: tuple[float, ...],
    weights: tuple[float, ...],
    is_crypto: tuple[bool, ...],
    exp=math.exp,
) -> tuple[float, float]:
    """One geometric step of every asset, averaged over each collateral book.

    Asset i moves by exp(mu_i - sigma_i^2/2 + sigma_i * (L z)_i); the crypto
    and RWA books move by the weight-averaged factor of their assets (1 for
    an empty book).  Entries of ``z`` past the last asset are ignored, so the
    step can pass its whole shock row.  ``z[j]`` is a float, or an array
    over steps and paths in ``path_batch``, which passes an element-wise
    ``exp`` that flags an overflow instead of raising it.
    """
    fcs = fcw = frs = frw = 0.0
    for i in range(len(drift)):
        corr_z = 0.0
        row = L[i]
        for j in range(i + 1):
            corr_z += row[j] * z[j]
        f = exp(drift[i] - 0.5 * vol[i] * vol[i] + vol[i] * corr_z)
        w = weights[i]
        if is_crypto[i]:
            fcs += w * f
            fcw += w
        else:
            frs += w * f
            frw += w
    return fcs / fcw if fcw > 0 else 1.0, frs / frw if frw > 0 else 1.0


def demand_flow(
    params: DemandParams,
    base: float,
    weight: float,
    price: float,
    p_ref: float,
    trend: float,
    noise: float,
) -> tuple[float, float]:
    """One token's signed quote-currency demand for one step.

    Returns (full flow, market-facing part): the token's ``weight`` share of
    the structural ``base`` inflow is the part that bypasses the market.
    Floats or arrays over paths.  ``price`` must be positive: a token with
    no positive price draws no flow, and the caller keeps that rule
    (``sim_engine._advance``).
    """
    dev = (price - p_ref) / p_ref
    scaled_base = base * weight
    total = (
        scaled_base
        + params.sentiment_gain * trend * scaled_base
        + params.deviation_gain * dev * scaled_base
        + params.noise_vol * weight * noise
    )
    return total, total - scaled_base


def portfolio_variance(weights, variances, corr: CorrelationMatrix) -> float:
    """Variance of a weighted collateral portfolio under correlation.

    Var = sum_i w_i^2 v_i + 2 sum_{i<j} w_i w_j rho_ij sqrt(v_i v_j)
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(variances, dtype=float)
    if w.shape != v.shape or len(w) != corr.size:
        raise MarketError("weights, variances and correlation size must agree")
    if np.any(v < 0):
        raise MarketError("variances must be non-negative")
    sd = np.sqrt(v)
    cov = corr.as_array() * np.outer(sd, sd)
    return float(w @ cov @ w)
