"""Negative-feedback stabilization loop and equilibrium analysis.

The stabilizer is a proportional, deadbanded, saturated feedback law on the
relative price deviation.  Outside the tolerance band it leans against the
deviation by adjusting the reward emission (supply pressure), transaction
fee, and variable rate; inside the band it does nothing.  The variable rate
is recorded in traces and the state vector but drives no other quantity.

The same module hosts the damped fixed-point solver, finite-difference
Jacobian, and spectral radius used to classify local stability of the
one-step map.  They take the map as a function; the engine's map,
``sim_engine.step_map``, is one zero-shock step of its core on a state
vector.  This module imports nothing of the engine, which imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import NamedTuple

import numpy as np

from .core_state import PegBand


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


class ControlAction(NamedTuple):
    fee_delta: float = 0.0
    reward_delta: float = 0.0
    rate_delta: float = 0.0


# The action of an idle step (inside the band, or no positive price).
# Immutable, so one shared instance serves every such step.
NO_ACTION = ControlAction()

# ``ControlAction((fee, reward, rate))`` without the cost of its generated
# ``__new__``.
_new_action = tuple.__new__


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


def _clip(v: float, lo: float, hi: float) -> float:
    """``min(max(v, lo), hi)``, NaN and signed zeros included, minus the call cost."""
    v = lo if lo > v else v
    return hi if hi < v else v


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
    band: exactly zero.  Deltas are pre-saturated against the bounds
    (``control_deltas``, behind this function's guards).
    """
    if price <= 0 or p_ref <= 0:
        raise ControlError("prices must be positive")
    d = (price - p_ref) / p_ref
    eps = band.epsilon
    if abs(d) <= eps:
        return NO_ACTION
    excess = abs(d) - eps
    up = 1.0 if d > 0 else -1.0
    return _new_action(ControlAction, (
        control_deltas(current[0], excess, -up, params.fee_gain, params.fee_min, params.fee_max),
        control_deltas(current[1], excess, up, params.reward_gain, params.reward_min, params.reward_max),
        control_deltas(current[2], excess, -up, params.rate_gain, params.rate_min, params.rate_max),
    ))


def control_deltas(current, excess, sign, gain, lo, hi, clip=_clip):
    """The delta of a rate ``current`` that the controller moves by ``sign *
    gain`` per unit of deviation ``excess`` past the band, clipped to
    [lo, hi]; ``sign`` is +1.0 or -1.0, the side of the band times the
    rate's direction (-1 for the fee and the variable rate, +1 for the
    reward).  Floats, or a ``(3, paths)`` stack of the three rates with
    ``(3, 1)`` columns of signed gains (``sign`` then the side alone) and
    bounds and an element-wise ``clip``; ``control_action`` keeps the
    guards (positive prices, the band test)."""
    return clip(current + sign * gain * excess, lo, hi) - current


def apply_action(
    params: ControllerParams, current: tuple[float, float, float], action: ControlAction
) -> tuple[float, float, float]:
    """Apply saturated deltas, then relax each parameter toward neutral.
    The clamps are ``_clip``'s conditionals, written out."""
    fee_delta, reward_delta, rate_delta = action
    fee = current[0] + fee_delta
    fee = params.fee_min if params.fee_min > fee else fee
    fee = params.fee_max if params.fee_max < fee else fee
    reward = current[1] + reward_delta
    reward = params.reward_min if params.reward_min > reward else reward
    reward = params.reward_max if params.reward_max < reward else reward
    rate = current[2] + rate_delta
    rate = params.rate_min if params.rate_min > rate else rate
    rate = params.rate_max if params.rate_max < rate else rate
    leak = params.leak
    fee += leak * (params.fee_neutral - fee)
    reward += leak * (params.reward_neutral - reward)
    rate += leak * (params.rate_neutral - rate)
    return fee, reward, rate


def find_fixed_point(
    F,
    x0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10000,
) -> EquilibriumReport:
    """Damped iteration x <- (1 - damping) x + damping F(x).

    Converged when the max-norm residual ||F(x) - x|| drops below tol.
    Raises on non-finite iterates; otherwise reports the last iterate (an
    ndarray).  ``F`` maps a 1-D float array to one of the same length, or a
    list of floats to a list for a list ``x0`` (no numpy call in the loop).
    The loop runs on floats as the array form would, so the bits are the same.
    """
    if not (0.0 < damping <= 1.0):
        raise ControlError("damping must lie in (0, 1]")
    if tol <= 0:
        raise ControlError("tolerance must be positive")
    if isinstance(x0, list):
        x, G = [float(v) for v in x0], F
    else:
        a = np.asarray(x0, dtype=float)
        if a.ndim != 1:
            raise ControlError("the start point must be a 1-D vector")
        x = a.tolist()

        def G(x):
            fx = np.asarray(F(np.array(x)), dtype=float)
            if fx.shape != a.shape:
                raise ControlError(f"the map returned shape {fx.shape}, expected {a.shape}")
            return fx.tolist()
    keep = 1.0 - damping
    residual = math.inf
    for i in range(1, max_iter + 1):
        fx = G(x)
        if len(fx) != len(x):
            raise ControlError(f"the map returned length {len(fx)}, expected {len(x)}")
        if not all(map(math.isfinite, fx)):
            raise SolverError(f"non-finite iterate at iteration {i}")
        residual = float(max(map(abs, map(sub, fx, x))))
        if residual <= tol:
            return EquilibriumReport(x_star=np.array(fx), residual=residual, iterations=i, converged=True)
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
