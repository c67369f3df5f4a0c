"""Governance, the reference-price path, the peg band, and the state vector.

The protocol state is the vector's floats: the 9 header entries the engine's
core steps and the holding units derived from the collateral books.  Its
layout and clamp rule are written here and nowhere else: ``from_vector``
reads a list or an array under the clamp rule into ``(head, units)``;
``to_list`` and ``to_vector`` write one.  ``controller.step_map`` and the
``cli``'s start point use them.  Order (for k collateral holdings):

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
``to_vector`` writes 0 there and ``from_vector`` ignores them.

Clamp rule: the solver may probe negative space, so the monetary entries
(prices, supplies, collateral values, units) are floored at +0.0 (``-0.0``
becomes ``0.0``; NaN passes through, as with ``np.maximum``).  The rates
(indices 6..8) may legitimately go negative (buyback-side reward) and are
kept as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOV_WEIGHT_TOL = 1e-9

HEADER_DIM = 9  # entries before the per-holding units block
RETIRED_DIM = 2  # retired zeros after the units block


class StateError(ValueError):
    """Raised on invalid governance weights, reference policy, peg band or
    state vector."""


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


def from_vector(v, n_holdings: int) -> tuple[list[float], list[float]]:
    """(head, units) of a state vector (a list of floats, read with no numpy
    call, or a 1-D float array-like) for ``n_holdings`` holdings, as floats
    under the clamp rule; the retired slots are dropped.  ``head`` holds the
    9 header entries, ``units`` the holding units."""
    if isinstance(v, list):
        vals, shape = v, (len(v),)
    else:
        a = np.asarray(v, dtype=float)
        vals, shape = a.tolist(), a.shape
    dim = HEADER_DIM + n_holdings + RETIRED_DIM
    if shape != (dim,):
        raise StateError(f"state vector has length {shape}, expected ({dim},)")
    # ``0.0 if x <= 0.0 else x`` is np.maximum(x, 0.0) on one float:
    # Python's max(-0.0, 0.0) would keep the -0.0.
    head = [0.0 if x <= 0.0 else x for x in vals[:6]] + vals[6:HEADER_DIM]
    units = [0.0 if x <= 0.0 else x for x in vals[HEADER_DIM:-RETIRED_DIM]]
    return head, units


def to_list(head, units) -> list[float]:
    """The state vector of the 9 header entries and the holding units."""
    return [*head, *units, *(0.0,) * RETIRED_DIM]


def to_vector(head, units) -> np.ndarray:
    """``to_list``'s vector as a float array."""
    return np.array(to_list(head, units))
