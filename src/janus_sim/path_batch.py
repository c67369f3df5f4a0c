"""Paths run side by side: ``simulate_path`` and ``path_summary`` on a
range of paths, with each of the engine's per-path floats held in a NumPy
array over the paths.

``simulate_batch`` runs sub-steps 2-7 of ``sim_engine._advance`` and the
trend, failure and record rules of ``simulate_path`` on arrays of paths
that share the step clock.  Every function here mirrors its scalar
counterpart operation for operation, so each path's floats are
bit-identical to those of ``simulate_path`` on that path alone.  Three
rules keep them so:

- ``exp`` comes from libm, element by element, as in the scalar core;
  ``np.exp`` rounds some inputs differently.
- Python's ``min(a, b)`` and ``max(a, b)`` become ``_min``/``_max``, which
  keep ``a`` unless ``b`` compares smaller/larger, as Python does;
  ``np.minimum``/``np.maximum`` differ on NaN and on signed zero.
- A per-path branch becomes a ``where`` select over both sides, computed
  under ``np.errstate``; config-level branches stay ``if``s.

A batch keeps only what ``path_summary`` reads.  The shocks are stored
time-major, one ``(paths, n_assets + 3)`` block per step, and each step's
record overwrites the shock slots the step has consumed, so a batch holds
little more than its shocks.  ``sim_engine`` imports this module on first
use: ``run`` and ``equilibrium`` never compile it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim_engine
from .sim_engine import (
    PathSummary,
    ScenarioConfig,
    _reduce_path,
    _stress_terms,
    initial_state,
    shock_width,
)


def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _exp_paths(x: np.ndarray, raised: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element.  Where a finite argument overflows (the
    scalar core's ``OverflowError``), the result is inf and the path's
    ``raised`` flag is set."""
    values = x.tolist()
    try:
        return np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:
        out = np.empty(len(values))
        for j, v in enumerate(values):
            try:
                out[j] = math.exp(v)
            except OverflowError:
                out[j] = math.inf
                raised[j] = True
        return out


def _book_factors_paths(z, L, drift, vol, weights, is_crypto, raised):
    """``market.book_return_factors`` on a block of shock rows."""
    fcs = fcw = frs = frw = 0.0
    for i in range(len(drift)):
        corr_z = 0.0
        row = L[i]
        for j in range(i + 1):
            corr_z = corr_z + row[j] * z[:, j]
        f = _exp_paths(drift[i] - 0.5 * vol[i] * vol[i] + vol[i] * corr_z, raised)
        w = weights[i]
        if is_crypto[i]:
            fcs = fcs + w * f
            fcw += w
        else:
            frs = frs + w * f
            frw += w
    return fcs / fcw if fcw > 0 else 1.0, frs / frw if frw > 0 else 1.0


def _demand_paths(params, base, weight, price, p_ref, trend, noise):
    """``market.demand_flow`` on arrays of prices, trends and noises."""
    dev = (price - p_ref) / p_ref
    scaled_base = base * weight
    total = (
        scaled_base
        + params.sentiment_gain * trend * scaled_base
        + params.deviation_gain * dev * scaled_base
        + params.noise_vol * weight * noise
    )
    dead = price <= 0
    return np.where(dead, 0.0, total), np.where(dead, 0.0, total - scaled_base)


def _mint_paths(policy, on, value, p_a, p_o, s_a, s_o, cv, rv, crypto_share):
    """``protocol.mint`` on the paths where ``on`` holds."""
    w_a = policy.alpha_omega_split
    notional = value / policy.min_collateral_ratio * (1.0 - policy.mint_fee)
    s_a = np.where(on & (p_a > 0), s_a + notional * w_a / p_a, s_a)
    s_o = np.where(on & (p_o > 0), s_o + notional * (1.0 - w_a) / p_o, s_o)
    return (
        s_a, s_o,
        np.where(on, cv + value * crypto_share, cv),
        np.where(on, rv + value * (1.0 - crypto_share), rv),
    )


def _pay_out_paths(on, take, cv, rv, total):
    """``protocol._pay_out`` where ``on`` holds, with ``take`` already
    capped at ``total``, the books' sum."""
    on = on & (total > 0)
    cv_paid = cv - take * (cv / total)
    rv_paid = rv - take * (rv / total)
    return (
        np.where(on, _max(cv_paid, 0.0), cv),
        np.where(on, _max(rv_paid, 0.0), rv),
    )


def _redeem_paths(policy, on, a_red, o_red, p_a, p_o, s_a, s_o, cv, rv):
    """``protocol.redeem`` on the paths where ``on`` holds."""
    value = a_red * p_a + o_red * p_o
    on = on & ~(value <= 0)
    gross = value * (1.0 - policy.redeem_fee)
    total = cv + rv
    payout = _min(gross, total)
    fill = np.where(gross > 0, payout / gross, 0.0)
    s_a = np.where(on, _max(s_a - a_red * fill, 0.0), s_a)
    s_o = np.where(on, _max(s_o - o_red * fill, 0.0), s_o)
    cv, rv = _pay_out_paths(on, _min(payout, total), cv, rv, total)
    return s_a, s_o, cv, rv


def _liquidate_paths(on, s_a, s_o, cv, rv, p_ref, min_ratio, penalty, omega_senior):
    """``protocol.liquidate`` on the paths where ``on`` holds; ``on`` implies
    a positive supply value below the minimum ratio."""
    supply_value = (s_a + s_o) * p_ref
    ratio = (cv + rv) / supply_value
    recovery = (1.0 - penalty) * _min(ratio, 1.0)
    x = (min_ratio * supply_value - (cv + rv)) / (min_ratio - recovery)
    burned_value = _min(x, supply_value)
    released = recovery * burned_value
    if omega_senior:
        burn_tokens = burned_value / p_ref
        a_burn = _min(burn_tokens, s_a)
        o_burn = _min(burn_tokens - a_burn, s_o)
    else:
        frac = burned_value / supply_value
        a_burn = frac * s_a
        o_burn = frac * s_o
    s_a = np.where(on, _max(s_a - a_burn, 0.0), s_a)
    s_o = np.where(on, _max(s_o - o_burn, 0.0), s_o)
    total = cv + rv
    cv, rv = _pay_out_paths(on, _min(released, total), cv, rv, total)
    return s_a, s_o, cv, rv


def _advance_paths(config, z, trend, t, p_ref, p_a, s_a, p_o, s_o, cv, rv,
                   fee_rate, reward_rate, var_rate):
    """``_advance`` on arrays of paths that share the clock ``t``; ``z``
    holds one shock row per path.  Returns ``_advance``'s ten arrays and a
    mask of the paths on which ``_advance`` would have raised."""
    tb = config.tables
    n = len(tb.drift)
    eta = z[:, n]
    sigma, crash_drop, rwa_rate, base = _stress_terms(config, t)
    raised = np.zeros(len(p_a), dtype=bool)

    # -- 2: collateral market move
    fc, fr = _book_factors_paths(
        z, tb.L, tb.drift, sigma, config.collateral_weights, tb.crypto_mask, raised
    )
    cv = cv * (fc * crash_drop)
    rv = rv * fr

    # -- 3: RWA yield
    gross_yield = rv * rwa_rate
    retained = gross_yield * config.treasury_split
    rv = rv + retained
    omega_yield_flow = gross_yield - retained

    # -- 4: demand and protocol flows
    policy = config.mint_policy
    w_a = policy.alpha_omega_split
    w_o = 1.0 - w_a
    dmd = config.demand
    flow_a, resp_a = _demand_paths(dmd, base, w_a, p_a, p_ref, trend, eta)
    flow_o, resp_o = _demand_paths(dmd, base, w_o, p_o, p_ref, trend, eta)
    net_inflow = flow_a + flow_o

    s_a, s_o, cv, rv = _mint_paths(
        policy, net_inflow > 0, net_inflow, p_a, p_o, s_a, s_o, cv, rv, tb.wc
    )
    value = -net_inflow
    a_red = _min(np.where(p_a > 0, value * w_a / p_a, 0.0), s_a)
    o_red = _min(np.where(p_o > 0, value * w_o / p_o, 0.0), s_o)
    s_a, s_o, cv, rv = _redeem_paths(
        policy, net_inflow < 0, a_red, o_red, p_a, p_o, s_a, s_o, cv, rv
    )
    if config.turnover > 0:
        s_a, s_o, cv, rv = _redeem_paths(
            policy, True, config.turnover * s_a, config.turnover * s_o,
            p_a, p_o, s_a, s_o, cv, rv,
        )

    # -- 5: price impact
    fee = _min(_max(fee_rate, 0.0), 1.0)
    reward = reward_rate
    sv_a = p_a * s_a
    sv_o = p_o * s_o
    emission_cost = reward * (sv_a + sv_o)
    capped = (emission_cost < 0) & (-emission_cost > cv + rv)
    reward = np.where(capped, reward * ((cv + rv) / -emission_cost), reward)
    emission_cost = reward * (sv_a + sv_o)

    mkt_a = resp_a * (1.0 - fee) - reward * sv_a
    mkt_o = resp_o * (1.0 - fee) - reward * sv_o + omega_yield_flow
    p_a = p_a * _exp_paths(mkt_a / config.depth_alpha, raised)
    p_o = p_o * _exp_paths(mkt_o / config.depth_omega, raised)
    if config.micro_vol > 0:
        p_a = p_a * _exp_paths(config.micro_vol * z[:, n + 1], raised)
        p_o = p_o * _exp_paths(config.micro_vol * z[:, n + 2], raised)

    old_total = cv + rv
    c_total = _max(old_total + emission_cost, 0.0)
    held = old_total > 0
    scale = c_total / old_total
    cv = np.where(held, cv * scale, 0.0)
    rv = np.where(held, rv * scale, c_total)
    s_a = s_a * (1.0 + reward)
    s_o = s_o * (1.0 + reward)

    # -- 6: liquidation and treasury skim
    target_ratio = policy.min_collateral_ratio
    if config.liq_enabled:
        supply_value = (s_a + s_o) * p_ref
        under = (supply_value > 0) & ((cv + rv) / supply_value < target_ratio)
        if under.any():
            s_a, s_o, cv, rv = _liquidate_paths(
                under, s_a, s_o, cv, rv, p_ref, target_ratio,
                config.liq_penalty, config.omega_senior,
            )
    if config.skim_rate > 0:  # protocol.skim
        target = target_ratio * (s_a + s_o) * p_ref
        total = cv + rv
        f = 1.0 - config.skim_rate * (total - target) / total
        over = total > target
        cv = np.where(over, cv * f, cv)
        rv = np.where(over, rv * f, rv)

    # -- 7: controller
    ctl = config.controller
    mid = 0.5 * (p_a + p_o)
    d = (mid - p_ref) / p_ref
    eps = config.band.epsilon
    acts = (mid > 0) & ~(np.abs(d) <= eps)
    excess = np.abs(d) - eps
    sign = np.where(d > 0, 1.0, -1.0)
    rates = []
    for current, gain, lo, hi, neutral in (
        (fee_rate, -sign * ctl.fee_gain, ctl.fee_min, ctl.fee_max, ctl.fee_neutral),
        (reward_rate, sign * ctl.reward_gain, ctl.reward_min, ctl.reward_max, ctl.reward_neutral),
        (var_rate, -sign * ctl.rate_gain, ctl.rate_min, ctl.rate_max, ctl.rate_neutral),
    ):
        # controller.control_action's clamped delta, then apply_action
        delta = np.where(acts, _min(_max(current + gain * excess, lo), hi) - current, 0.0)
        rate = _min(_max(current + delta, lo), hi)
        rates.append(rate + ctl.leak * (neutral - rate))
    fee_rate, reward_rate, var_rate = rates

    return (
        p_a, _max(s_a, 0.0), p_o, _max(s_o, 0.0), _max(cv, 0.0), _max(rv, 0.0),
        fee_rate, reward_rate, var_rate, net_inflow, raised,
    )


@dataclass
class PathBatch:
    """A range of paths run side by side, kept as ``path_summary`` reads
    them.

    ``steps[t, j]`` holds the record of step t + 1 of path ``paths[j]`` in
    its first four slots (efficiency, mid price, net inflow, supply value);
    the step's shock row filled that row until the step consumed it.
    ``in_band[t, j]`` is the record's in-band flag.  Per path: the number
    of records, whether the path diverged, the last record's failure flag
    and its prices and collateral books.  ``len()`` is the number of
    records of all paths.
    """

    paths: range
    steps: np.ndarray
    in_band: np.ndarray
    lengths: np.ndarray
    diverged: np.ndarray
    failed: np.ndarray
    p_a: np.ndarray
    p_omega: np.ndarray
    crypto: np.ndarray
    rwa: np.ndarray

    def __len__(self):
        return int(self.lengths.sum())


def simulate_batch(config: ScenarioConfig, paths: range) -> PathBatch:
    """``simulate_path``'s loop and record rules on the paths of ``paths``
    at once.  A path that stops (its step raised or left a non-finite
    value) gets the record ``simulate_path`` ends it with, and leaves the
    arrays."""
    n_paths = len(paths)
    horizon = config.horizon
    width = shock_width(config)
    used = len(config.assets) + 3  # the spare shock column is never read
    steps = np.empty((horizon, n_paths, used))
    for j, i in enumerate(paths):
        steps[:, j, :] = sim_engine.shock_block(config.seed, i, horizon, width)[:, :used]
    batch = PathBatch(
        paths=paths,
        steps=steps,
        in_band=np.zeros((horizon, n_paths), dtype=bool),
        lengths=np.full(n_paths, horizon),
        diverged=np.zeros(n_paths, dtype=bool),
        failed=np.zeros(n_paths, dtype=bool),
        p_a=np.empty(n_paths),
        p_omega=np.empty(n_paths),
        crypto=np.empty(n_paths),
        rwa=np.empty(n_paths),
    )

    head, _ = initial_state(config)
    state = [np.full(n_paths, v) for v in head]
    trend = np.zeros(n_paths)
    prev_mid = np.full(n_paths, 0.5 * (head[0] + head[2]))
    out_streak = np.zeros(n_paths, dtype=np.int64)
    failed = np.zeros(n_paths, dtype=bool)
    live = np.arange(n_paths)  # batch positions of the paths still running
    tb = config.tables
    p_refs, los, his = tb.p_refs, tb.band_lo, tb.band_hi
    grace = config.failure.grace
    floor = config.failure.floor
    with np.errstate(all="ignore"):
        for t in range(horizon):
            at = slice(None) if len(live) == n_paths else live
            p_ref = p_refs[t]
            lo = los[t]
            hi = his[t]
            *state, net_inflow, raised = _advance_paths(
                config, steps[t, at], trend, t, p_ref, *state
            )
            p_a, s_a, p_o, s_o, cv, rv = state[:6]
            c_total = cv + rv
            in_band = (lo <= p_a) & (p_a <= hi) & (lo <= p_o) & (p_o <= hi)
            mid = 0.5 * (p_a + p_o)
            finite = np.isfinite(mid) & np.isfinite(c_total)
            trend = np.where(prev_mid > 0, (mid - prev_mid) / prev_mid, 0.0)
            prev_mid = mid
            out_streak = np.where(in_band, 0, out_streak + 1)
            if grace > 0:
                failed = failed | (out_streak >= grace)
            else:
                failed = failed | ~in_band
            denom = (s_a + s_o) * p_ref  # protocol.collateral_ratio
            failed = (
                failed
                | ((denom > 0) & (c_total / denom < 1.0))
                | (_min(p_a, p_o) <= floor * p_ref)
                | ~finite
                | raised
            )
            supply_value = s_a * p_ref + s_o * p_ref
            eff = np.where(c_total > 0, supply_value / c_total, 0.0)
            record = np.stack((eff, mid, net_inflow, supply_value), axis=1)
            if raised.any():
                # the step raised: its record is the zeroed terminal record
                record[raised] = 0.0
                in_band = in_band & ~raised
            steps[t, at, :4] = record
            batch.in_band[t, at] = in_band

            stop = raised | ~finite
            if stop.any():
                gone = live[stop]
                batch.lengths[gone] = t + 1
                batch.diverged[gone] = True
                ends = (np.where(raised, 0.0, v)[stop] for v in (p_a, p_o, cv, rv))
                _set_ends(batch, gone, failed[stop], *ends)
                keep = ~stop
                live = live[keep]
                state = [v[keep] for v in state]
                trend, prev_mid, out_streak, failed = (
                    v[keep] for v in (trend, prev_mid, out_streak, failed)
                )
                if not len(live):
                    break
    p_a, _, p_o, _, cv, rv = state[:6]
    _set_ends(batch, live, failed, p_a, p_o, cv, rv)
    return batch


def _set_ends(batch: PathBatch, at, failed, p_a, p_o, cv, rv):
    """Record the last-record values of the paths at batch positions ``at``."""
    batch.failed[at] = failed
    batch.p_a[at] = p_a
    batch.p_omega[at] = p_o
    batch.crypto[at] = cv
    batch.rwa[at] = rv


def batch_path_summary(batch: PathBatch, config: ScenarioConfig, path_index: int) -> PathSummary:
    """``path_summary`` of one path of a batch, from contiguous copies of its
    series: ``np.mean``'s pairwise sums then add in the order they add on
    the path's own trace."""
    j = batch.paths.index(path_index)
    n = int(batch.lengths[j])
    eff, mid, inflow, supply_value = (np.ascontiguousarray(batch.steps[:n, j, k]) for k in range(4))
    p_ref = config.tables.p_refs[n - 1]
    return _reduce_path(
        path_index, bool(batch.failed[j]), batch.in_band[:n, j], eff, mid, inflow, supply_value,
        (batch.p_a[j], batch.p_omega[j], p_ref, batch.crypto[j], batch.rwa[j]),
    )
