"""Deterministic protocol mechanics: mint/redeem, liquidation, and the
treasury skim.

The simulator models one aggregated user; these transitions operate on
aggregate flows.  Each mechanic is a pure function: it takes the token
prices and supplies and the crypto/RWA collateral book values it touches,
and returns their successor values.  The engine's step calls them in its
frozen sub-step order.

``mint_notional`` and ``pay_pro_rata`` work on one token and one book:
on floats, or on ``(2, paths)`` stacks of both with ``(2, 1)`` columns of
per-config values (``path_batch``); the functions that call them keep the
guards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ProtocolError(ValueError):
    """Raised when a protocol transition precondition is violated."""


@dataclass(frozen=True)
class MintPolicy:
    min_collateral_ratio: float
    mint_fee: float = 0.0
    redeem_fee: float = 0.0
    alpha_omega_split: float = 0.5

    def __post_init__(self):
        if self.min_collateral_ratio < 1.0:
            raise ProtocolError("minimum collateral ratio must be >= 1")
        for fee in (self.mint_fee, self.redeem_fee):
            if not (0.0 <= fee <= 0.2):
                raise ProtocolError("fees must lie in [0, 0.2]")
        if not (0.0 <= self.alpha_omega_split <= 1.0):
            raise ProtocolError("alpha/omega split must lie in [0, 1]")


def mint(
    policy: MintPolicy,
    value: float,
    p_a: float,
    p_o: float,
    s_a: float,
    s_o: float,
    cv: float,
    rv: float,
    crypto_share: float,
) -> tuple[float, float, float, float]:
    """Deposit ``value`` of collateral and mint Alpha/Omega at current
    prices (``mint_notional``); a token without a positive price mints
    nothing.  Returns (s_a, s_o, cv, rv)."""
    if value <= 0:
        raise ProtocolError("collateral value must be positive to mint")
    w_a = policy.alpha_omega_split
    n_a, cv = mint_notional(policy, value, w_a, cv, crypto_share)
    n_o, rv = mint_notional(policy, value, 1.0 - w_a, rv, 1.0 - crypto_share)
    if p_a > 0:
        s_a += n_a / p_a
    if p_o > 0:
        s_o += n_o / p_o
    return s_a, s_o, cv, rv


def mint_notional(policy: MintPolicy, value, weight, book, share) -> tuple:
    """(a token's notional, a book's value) after a deposit of ``value``:
    notional = value / min_ratio * (1 - mint_fee), of which the token takes
    its ``weight`` (the policy's split), and the book takes its ``share`` of
    the deposit.  ``mint`` pairs Alpha with the crypto book and Omega with
    the RWA book; ``path_batch`` passes both pairs at once as ``(2, paths)``
    stacks and ``(2, 1)`` columns.  ``mint`` keeps the guards and divides by
    the prices."""
    notional = value / policy.min_collateral_ratio * (1.0 - policy.mint_fee)
    return notional * weight, book + value * share


def redeem(
    policy: MintPolicy,
    a_red: float,
    o_red: float,
    p_a: float,
    p_o: float,
    s_a: float,
    s_o: float,
    cv: float,
    rv: float,
) -> tuple[float, float, float, float]:
    """Burn tokens and release collateral at current prices less the redeem
    fee.  Returns (s_a, s_o, cv, rv).

    The payout is capped at the collateral held; when it cannot cover the
    request, only the covered fraction of tokens is burned (nobody redeems
    for nothing).  Both books pay pro rata; a book that rounding would
    overdraw when the payout takes everything is left empty instead.
    """
    if a_red < 0 or o_red < 0:
        raise ProtocolError("redemption amounts must be non-negative")
    if a_red > s_a * (1 + 1e-12) or o_red > s_o * (1 + 1e-12):
        raise ProtocolError(f"redemption ({a_red}, {o_red}) exceeds supply ({s_a}, {s_o})")
    value = a_red * p_a + o_red * p_o
    if value <= 0:
        return s_a, s_o, cv, rv
    gross = value * (1.0 - policy.redeem_fee)
    total = cv + rv
    payout = total if total < gross else gross  # min(gross, total)
    fill = payout / gross if gross > 0 else 0.0
    s_a -= a_red * fill
    s_o -= o_red * fill
    cv, rv = _pay_out(payout, cv, rv)
    return 0.0 if 0.0 > s_a else s_a, 0.0 if 0.0 > s_o else s_o, cv, rv


def pay_pro_rata(take, book, total):
    """A book after the books, worth ``total`` together, pay ``take`` pro
    rata.  A float, or a ``(2, paths)`` stack of both books; ``_pay_out``
    keeps the cap and the overdraw floor."""
    return book - take * (book / total)


def _pay_out(take: float, cv: float, rv: float) -> tuple[float, float]:
    """Both books pay ``take``, capped at what they hold, pro rata; a book
    that rounding would overdraw is left empty.  Returns (cv, rv).  The tail
    of ``redeem`` and ``liquidate``."""
    total = cv + rv
    if total > 0:
        take = total if total < take else take  # min(take, total)
        cv, rv = pay_pro_rata(take, cv, total), pay_pro_rata(take, rv, total)
        if cv < 0.0 or rv < 0.0:  # rounding overdrew a book the payout empties
            cv, rv = 0.0 if 0.0 > cv else cv, 0.0 if 0.0 > rv else rv
    return cv, rv


def collateral_ratio(c_total: float, supply: float, p_ref: float) -> float:
    """c_total / (supply * p_ref): the collateral held per unit of supply
    value, with ``supply`` the total Alpha plus Omega supply; inf when
    supply is zero."""
    if p_ref <= 0:
        raise ProtocolError("reference price must be positive")
    denom = supply * p_ref
    if denom <= 0:
        return math.inf
    return c_total / denom


def liquidate(
    s_a: float,
    s_o: float,
    cv: float,
    rv: float,
    p_ref: float,
    min_ratio: float,
    penalty: float,
    omega_senior: bool = False,
) -> tuple[float, float, float, float]:
    """Restore the minimum collateral ratio by burning supply.

    Burned holders recover collateral at a haircut below the prevailing
    backing ratio (less the penalty, which is destroyed), so each unit of
    burned supply raises the ratio.  With ``omega_senior`` Alpha is burned
    first and Omega only once Alpha is exhausted; otherwise both pro rata.
    The released collateral leaves both books pro rata; a book that rounding
    would overdraw is left empty instead.  A no-op without supply or when
    already at the minimum; idempotent.  Returns (s_a, s_o, cv, rv).
    """
    supply_value = (s_a + s_o) * p_ref
    ratio = (cv + rv) / supply_value if supply_value > 0 else math.inf
    if not ratio < min_ratio:  # also a no-op on a NaN ratio
        return s_a, s_o, cv, rv
    recovery = (1.0 - penalty) * min(ratio, 1.0)
    # Solve (C - recovery * x) / (V - x) = min_ratio for burned value x.
    x = (min_ratio * supply_value - (cv + rv)) / (min_ratio - recovery)
    burned_value = min(x, supply_value)
    released = recovery * burned_value
    if omega_senior:
        burn_tokens = burned_value / p_ref
        a_burn = min(burn_tokens, s_a)
        o_burn = min(burn_tokens - a_burn, s_o)
    else:
        frac = burned_value / supply_value
        a_burn = frac * s_a
        o_burn = frac * s_o
    s_a = max(s_a - a_burn, 0.0)
    s_o = max(s_o - o_burn, 0.0)
    cv, rv = _pay_out(released, cv, rv)
    return s_a, s_o, cv, rv


def skim(
    cv: float, rv: float, supply: float, p_ref: float, min_ratio: float, rate: float
) -> tuple[float, float]:
    """Pay out ``rate`` of the collateral held above min_ratio * supply value,
    from both books pro rata.  Returns (cv, rv)."""
    target = min_ratio * supply * p_ref
    total = cv + rv
    if total > target:
        f = 1.0 - rate * (total - target) / total
        cv *= f
        rv *= f
    return cv, rv
