"""Protocol state containers and the state vector of the equilibrium solver.

The vector layout and its clamp rule are written here and nowhere else:
``split_vector`` reads a vector under the clamp rule and ``pack_vector``
writes one.  ``from_vector``/``to_vector`` use them to convert between a
vector and a ``ProtocolState``; ``controller.step_map``, the solver's map,
uses them on the vector's floats directly and builds no state.  Order (for k
collateral holdings):

    0            alpha price
    1            alpha supply
    2            omega price
    3            omega supply
    4            crypto collateral value
    5            RWA collateral value
    6            fee rate
    7            reward rate
    8            variable rate
    9 .. 9+k-1   collateral holding units, in holding order
    9+k, 9+k+1   retired: always 0

``c_total`` is derived (crypto + RWA value) and is not a vector coordinate.
The retired slots keep the length of the equilibrium output's ``x_star``:
``pack_vector`` writes 0 there and ``split_vector`` ignores them.

Clamp rule: the solver may probe negative space, so the monetary entries
(prices, supplies, collateral values, units) are floored at +0.0 (``-0.0``
becomes ``0.0``; NaN passes through, as with ``np.maximum``).  The rates
(indices 6..8) may legitimately go negative (buyback-side reward) and are
kept as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

GOV_WEIGHT_TOL = 1e-9
C_TOTAL_REL_TOL = 1e-6

HEADER_DIM = 9  # entries before the per-holding units block
RETIRED_DIM = 2  # retired zeros after the units block


class StateError(ValueError):
    """Raised when a state container violates its invariants."""


@dataclass(frozen=True)
class GovernanceDistribution:
    """Governance weights, one fraction per participant, summing to 1."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if not w:
            raise StateError("governance distribution needs at least one weight")
        for x in w:
            if not (0.0 <= x <= 1.0):
                raise StateError(f"governance weight {x} outside [0, 1]")
        if abs(sum(w) - 1.0) > GOV_WEIGHT_TOL:
            raise StateError(f"governance weights sum to {sum(w)}, expected 1")


def decentralization(gov: GovernanceDistribution) -> float:
    """1 - sum of squared governance weights (0 for a single holder)."""
    return 1.0 - sum(w * w for w in gov.weights)


@dataclass(frozen=True)
class ReferencePricePolicy:
    """Deterministic geometric target-price path."""

    p0: float
    growth_rate: float = 0.0

    def __post_init__(self):
        if self.p0 <= 0:
            raise StateError("reference price p0 must be positive")
        if self.growth_rate < 0:
            raise StateError("reference growth rate must be non-negative")


@dataclass(frozen=True)
class PegBand:
    """Symmetric tolerance band half-width around the reference price."""

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise StateError(f"band half-width {self.epsilon} outside (0, 1)")


@dataclass(frozen=True)
class TokenState:
    price: float
    supply: float

    def __post_init__(self):
        if self.price < 0 or self.supply < 0:
            raise StateError("token price/supply must be non-negative")

    @property
    def value(self) -> float:
        return self.price * self.supply


@dataclass(frozen=True)
class CollateralHolding:
    """One collateral position: asset index, units held, portfolio weight."""

    asset_id: int
    units: float
    weight: float

    def __post_init__(self):
        if self.units < 0:
            raise StateError("collateral units must be non-negative")
        if not (0.0 <= self.weight <= 1.0):
            raise StateError("collateral weight must lie in [0, 1]")


@dataclass(frozen=True)
class ProtocolState:
    """Full system state for one simulation step.

    Immutable; transitions construct successor states.
    """

    time_step: int
    alpha: TokenState
    omega: TokenState
    collateral: tuple[CollateralHolding, ...]
    crypto_value: float
    rwa_value: float
    c_total: float
    fee_rate: float
    reward_rate: float
    var_rate: float
    governance: GovernanceDistribution

    def __post_init__(self):
        for name in ("crypto_value", "rwa_value", "c_total"):
            if getattr(self, name) < 0:
                raise StateError(f"{name} must be non-negative")
        expected = self.crypto_value + self.rwa_value
        if expected > 0 and abs(self.c_total - expected) > C_TOTAL_REL_TOL * expected:
            raise StateError(
                f"c_total {self.c_total} != crypto + rwa = {expected}"
            )
        if self.collateral:
            wsum = sum(h.weight for h in self.collateral)
            if self.c_total > 0 and abs(wsum - 1.0) > GOV_WEIGHT_TOL:
                raise StateError(f"collateral weights sum to {wsum}, expected 1")

    @property
    def supply_value(self) -> float:
        return self.alpha.value + self.omega.value

    @property
    def total_supply(self) -> float:
        return self.alpha.supply + self.omega.supply


def reference_price(policy: ReferencePricePolicy, t: int) -> float:
    """Target price at step t: p0 * (1 + g)^t."""
    if t < 0:
        raise StateError("step index must be non-negative")
    return policy.p0 * (1.0 + policy.growth_rate) ** t


def band_bounds(p_ref: float, band: PegBand) -> tuple[float, float]:
    """Lower/upper tolerance bounds around the reference price.

    Computed from a single half-width product so (hi - p_ref) == (p_ref - lo)
    exactly.
    """
    if p_ref <= 0:
        raise StateError("reference price must be positive")
    half = p_ref * band.epsilon
    return p_ref - half, p_ref + half


def vector_dim(state: ProtocolState) -> int:
    return HEADER_DIM + len(state.collateral) + RETIRED_DIM


def split_vector(v, n_holdings: int) -> tuple[list[float], list[float]]:
    """(head, units) of a state vector for ``n_holdings`` holdings, as
    floats under the clamp rule; the retired slots are dropped.

    ``head`` holds the 9 header entries, ``units`` the holding units.
    """
    a = np.asarray(v, dtype=float)
    dim = HEADER_DIM + n_holdings + RETIRED_DIM
    if a.shape != (dim,):
        raise StateError(f"state vector has length {a.shape}, expected ({dim},)")
    vals = a.tolist()
    # ``0.0 if x <= 0.0 else x`` is np.maximum(x, 0.0) on one float:
    # Python's max(-0.0, 0.0) would keep the -0.0.
    head = [0.0 if x <= 0.0 else x for x in vals[:6]] + vals[6:HEADER_DIM]
    units = [0.0 if x <= 0.0 else x for x in vals[HEADER_DIM:-RETIRED_DIM]]
    return head, units


def pack_vector(head, units) -> np.ndarray:
    """The state vector of the 9 header entries and the holding units."""
    return np.array([*head, *units, *(0.0,) * RETIRED_DIM])


def to_vector(state: ProtocolState) -> np.ndarray:
    """Flatten the numeric sub-state in the documented order."""
    head = (
        state.alpha.price,
        state.alpha.supply,
        state.omega.price,
        state.omega.supply,
        state.crypto_value,
        state.rwa_value,
        state.fee_rate,
        state.reward_rate,
        state.var_rate,
    )
    return pack_vector(head, [h.units for h in state.collateral])


def from_vector(v: np.ndarray, template: ProtocolState) -> ProtocolState:
    """Rebuild a state from a vector under the clamp rule, taking the
    non-numeric fields from template."""
    head, units = split_vector(v, len(template.collateral))
    p_a, s_a, p_o, s_o, crypto, rwa, fee, reward, var = head
    holdings = tuple(replace(h, units=u) for h, u in zip(template.collateral, units))
    return replace(
        template,
        alpha=TokenState(price=p_a, supply=s_a),
        omega=TokenState(price=p_o, supply=s_o),
        collateral=holdings,
        crypto_value=crypto,
        rwa_value=rwa,
        c_total=crypto + rwa,
        fee_rate=fee,
        reward_rate=reward,
        var_rate=var,
    )
