"""Negative-feedback stabilization loop and equilibrium analysis.

The stabilizer is a proportional, deadbanded, saturated feedback law on the
relative price deviation.  Outside the tolerance band it leans against the
deviation by adjusting the reward emission (supply pressure), transaction
fee, and variable rate; inside the band it does nothing.  The variable rate
is recorded in traces and the state vector but drives no other quantity.

The same module hosts the damped fixed-point solver, finite-difference
Jacobian, and spectral radius used to classify local stability of the
one-step map.  The map, ``step_map``, takes a state vector (the layout of
``core_state``) and returns the successor vector: one step of the engine's
core, ``sim_engine._advance``, with zero shocks, zero trend and the clock
frozen at t = 0, run on the vector's floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core_state import HEADER_DIM, PegBand, from_vector, reference_price, to_vector


class ControlError(ValueError):
    pass


class SolverError(RuntimeError):
    """Raised on non-finite iterates or Jacobian entries."""


@dataclass(frozen=True)
class ControllerParams:
    """Gains, actuation bounds, and relaxation for the feedback law.

    ``leak`` pulls each actuated parameter back toward its neutral value a
    little every step, so one-off interventions decay instead of persisting
    forever.  Zero gains disable the controller (the leak still anchors the
    parameters at neutral).
    """

    fee_gain: float = 0.0
    reward_gain: float = 0.0
    rate_gain: float = 0.0
    fee_min: float = 0.0
    fee_max: float = 0.2
    reward_min: float = -0.05
    reward_max: float = 0.05
    rate_min: float = 0.0
    rate_max: float = 0.01
    leak: float = 0.1
    fee_neutral: float = 0.0
    reward_neutral: float = 0.0
    rate_neutral: float = 0.0

    def __post_init__(self):
        for g in (self.fee_gain, self.reward_gain, self.rate_gain):
            if g < 0:
                raise ControlError("controller gains must be non-negative")
        for lo, hi in (
            (self.fee_min, self.fee_max),
            (self.reward_min, self.reward_max),
            (self.rate_min, self.rate_max),
        ):
            if lo > hi:
                raise ControlError("actuation bounds must be ordered min <= max")
        if not (0.0 <= self.leak <= 1.0):
            raise ControlError("leak must lie in [0, 1]")
        # the reward scales the supplies by 1 + reward, which must not turn
        # a supply negative
        if self.reward_min < -1.0 or self.reward_neutral < -1.0:
            raise ControlError("reward_min and reward_neutral must be at least -1")


@dataclass(frozen=True)
class ControlAction:
    fee_delta: float = 0.0
    reward_delta: float = 0.0
    rate_delta: float = 0.0


# The action of an idle step (inside the band, or no positive price).
# Immutable, so one shared instance serves every such step.
NO_ACTION = ControlAction()


class Stability(str, Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class EquilibriumReport:
    x_star: np.ndarray
    residual: float
    iterations: int
    converged: bool


def _clamp_delta(current: float, delta: float, lo: float, hi: float) -> float:
    """Restrict a delta so the post-application parameter stays in bounds."""
    return min(max(current + delta, lo), hi) - current


def control_action(
    price: float,
    p_ref: float,
    band: PegBand,
    params: ControllerParams,
    current: tuple[float, float, float],
) -> ControlAction:
    """One controller evaluation against the reference price.

    Above the band: raise reward emission (supply expansion, sell pressure)
    and lower fee/variable rate.  Below the band: the mirror image.  Inside the
    band: exactly zero.  Deltas are pre-saturated against the bounds.
    """
    if price <= 0 or p_ref <= 0:
        raise ControlError("prices must be positive")
    fee, reward, rate = current
    d = (price - p_ref) / p_ref
    eps = band.epsilon
    if abs(d) <= eps:
        return NO_ACTION
    excess = abs(d) - eps
    sign = 1.0 if d > 0 else -1.0
    return ControlAction(
        fee_delta=_clamp_delta(fee, -sign * params.fee_gain * excess, params.fee_min, params.fee_max),
        reward_delta=_clamp_delta(
            reward, sign * params.reward_gain * excess, params.reward_min, params.reward_max
        ),
        rate_delta=_clamp_delta(
            rate, -sign * params.rate_gain * excess, params.rate_min, params.rate_max
        ),
    )


def apply_action(
    params: ControllerParams, current: tuple[float, float, float], action: ControlAction
) -> tuple[float, float, float]:
    """Apply saturated deltas, then relax each parameter toward neutral."""
    fee, reward, rate = current
    fee = min(max(fee + action.fee_delta, params.fee_min), params.fee_max)
    reward = min(max(reward + action.reward_delta, params.reward_min), params.reward_max)
    rate = min(max(rate + action.rate_delta, params.rate_min), params.rate_max)
    leak = params.leak
    fee += leak * (params.fee_neutral - fee)
    reward += leak * (params.reward_neutral - reward)
    rate += leak * (params.rate_neutral - rate)
    return fee, reward, rate


@functools.lru_cache(maxsize=64)
def _map_constants(config):
    """What the step map needs of a config, computed once per config: the
    engine's core and units helper, the config's tables, the zero shock row,
    the frozen reference price and the number of holdings.  Imported lazily
    to keep the engine dependency one-directional."""
    from . import sim_engine

    return (
        sim_engine._advance,
        sim_engine.holding_units,
        sim_engine._config_tables(config),
        (0.0,) * sim_engine.shock_width(config),
        reference_price(config.ref_policy, 0),
        len(config.assets),
    )


def step_map(x, config) -> np.ndarray:
    """One deterministic transition of the full system on the state vector
    (the solver's map): vector in, successor vector out.

    ``x`` is read under ``core_state``'s clamp rule; its holding units and
    retired slots do not enter the step.  The step has zero shocks, zero
    trend and a frozen clock (the stress clock at t = 0, the reference price
    at ``reference_price(ref_policy, 0)``), so the map is autonomous.  The
    successor holds the 9 header entries, the holding units derived from the
    class books and the two retired zeros.
    """
    advance, units_of, tables, row, p_ref, n_holdings = _map_constants(config)
    head, _ = from_vector(x, n_holdings)
    out = advance(config, tables, row, 0.0, 0, p_ref, *head)
    return to_vector(out[:HEADER_DIM], units_of(config, tables, out[4], out[5]))


def find_fixed_point(
    F,
    x0: np.ndarray,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> EquilibriumReport:
    """Damped iteration x <- (1 - damping) x + damping F(x).

    Converged when the max-norm residual ||F(x) - x|| drops below tol.
    Raises on non-finite iterates; otherwise reports the last iterate.
    ``F`` maps a 1-D float array to a vector of the same length; the
    iteration itself runs on Python floats, entry by entry with the same
    expressions as the array form, so the iterates are the same bits.
    """
    if not (0.0 < damping <= 1.0):
        raise ControlError("damping must lie in (0, 1]")
    if tol <= 0:
        raise ControlError("tolerance must be positive")
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise ControlError("the start point must be a 1-D vector")
    shape = x.shape
    x = x.tolist()
    keep = 1.0 - damping
    residual = math.inf
    for i in range(1, max_iter + 1):
        fx_array = np.asarray(F(np.array(x)), dtype=float)
        if fx_array.shape != shape:
            raise ControlError(f"the map returned shape {fx_array.shape}, expected {shape}")
        fx = fx_array.tolist()
        if not all(map(math.isfinite, fx)):
            raise SolverError(f"non-finite iterate at iteration {i}")
        residual = float(max([abs(f - xi) for f, xi in zip(fx, x)]))
        if residual <= tol:
            return EquilibriumReport(x_star=fx_array, residual=residual, iterations=i, converged=True)
        x = [keep * xi + damping * f for xi, f in zip(x, fx)]
    return EquilibriumReport(x_star=np.array(x), residual=residual, iterations=max_iter, converged=False)


def jacobian_fd(F, x_star: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-coordinate relative steps.

    Column i uses step h * max(|x_i|, 1), so coordinates near zero still get
    a sensible absolute perturbation.
    """
    if h <= 0:
        raise ControlError("finite-difference step must be positive")
    x = np.asarray(x_star, dtype=float)
    n = len(x)
    J = np.empty((n, n))
    for i in range(n):
        step = h * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        col = (np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2.0 * step)
        if not np.all(np.isfinite(col)):
            raise SolverError(f"non-finite Jacobian entries in column {i}")
        J[:, i] = col
    return J


def spectral_radius(J: np.ndarray) -> float:
    """Largest eigenvalue magnitude, max |eig(J)|."""
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ControlError("matrix must be square")
    if not np.all(np.isfinite(J)):
        raise ControlError("matrix must be finite")
    if J.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(J))))


def classify_stability(rho: float, margin: float = 0.05) -> Stability:
    if rho < 0 or margin <= 0:
        raise ControlError("need rho >= 0 and margin > 0")
    if rho < 1.0 - margin:
        return Stability.STABLE
    if rho > 1.0 + margin:
        return Stability.UNSTABLE
    return Stability.MARGINAL
