"""Paths run side by side: ``simulate_path`` and ``path_summary`` on a
range of paths, with each of the engine's per-path floats held in a NumPy
array over the paths.

``simulate_batch`` runs sub-steps 2-7 of ``sim_engine._advance`` and the
trend and stop test of ``simulate_path`` on arrays of paths that share the
step clock, and records the steps by ``sim_engine``'s ``record_flags`` and
``fold_failed``.  Each path's floats are bit-identical to those of
``simulate_path`` on that path alone.  Four rules keep them so:

- ``exp`` comes from libm, element by element, as in the scalar core;
  ``np.exp`` rounds some inputs differently.
- Python's ``min(a, b)`` and ``max(a, b)`` become ``_min``/``_max``, which
  keep ``a`` unless ``b`` compares smaller/larger, as Python does;
  ``np.minimum``/``np.maximum`` differ on NaN and on signed zero.
- A per-path branch that presets take often (mint or redeem, a redemption
  of no value, skim, the controller acting) becomes a ``where`` select
  over both sides, computed under ``np.errstate``; config-level branches
  stay ``if``s.
- A path-step that would take any other per-path branch (a dead token, an
  ``exp`` overflow, a redemption not paid in full, a capped buyback, empty
  books, a liquidation, a mid price of 0 or less) is flagged and run again
  by ``_advance``, so those mechanics are written once.  A NaN sets every
  flag: a flag is always safe, a missed one loses bits.

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
from .market import book_return_factors
from .sim_engine import (
    PathSummary,
    ScenarioConfig,
    _advance,
    _reduce_path,
    _stress_terms,
    fold_failed,
    initial_state,
    price_impact,
    record_flags,
    shock_width,
)


def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _exp_paths(x: np.ndarray, redo: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element.  Where it may overflow (the scalar
    core's ``OverflowError``, only above log(DBL_MAX) ~ 709.78), the path is
    flagged in ``redo``."""
    values = x.tolist()
    try:
        return np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:
        over = x > 709.0
        redo |= over
        return _exp_paths(np.where(over, 0.0, x), redo)


def _demand_paths(params, base, weight, price, p_ref, trend, noise):
    """``market.demand_flow`` on arrays of positive prices."""
    dev = (price - p_ref) / p_ref
    scaled_base = base * weight
    total = (
        scaled_base
        + params.sentiment_gain * trend * scaled_base
        + params.deviation_gain * dev * scaled_base
        + params.noise_vol * weight * noise
    )
    return total, total - scaled_base


def _mint_paths(policy, on, value, p_a, p_o, s_a, s_o, cv, rv, crypto_share):
    """``protocol.mint`` at positive prices on the paths where ``on`` holds."""
    w_a = policy.alpha_omega_split
    notional = value / policy.min_collateral_ratio * (1.0 - policy.mint_fee)
    return (
        np.where(on, s_a + notional * w_a / p_a, s_a),
        np.where(on, s_o + notional * (1.0 - w_a) / p_o, s_o),
        np.where(on, cv + value * crypto_share, cv),
        np.where(on, rv + value * (1.0 - crypto_share), rv),
    )


def _redeem_paths(policy, on, a_red, o_red, p_a, p_o, s_a, s_o, cv, rv, redo):
    """``protocol.redeem`` on the paths where ``on`` holds and the
    redemption has value.  The books pay it in full there, or the path is
    flagged in ``redo``."""
    value = a_red * p_a + o_red * p_o
    on = on & ~(value <= 0)
    gross = value * (1.0 - policy.redeem_fee)
    total = cv + rv
    cv_paid = cv - gross * (cv / total)
    rv_paid = rv - gross * (rv / total)
    redo |= on & ~((gross > 0) & (gross <= total) & (cv_paid >= 0) & (rv_paid >= 0))
    return (
        np.where(on, _max(s_a - a_red, 0.0), s_a),
        np.where(on, _max(s_o - o_red, 0.0), s_o),
        np.where(on, cv_paid, cv),
        np.where(on, rv_paid, rv),
    )


def _advance_paths(config, z, trend, t, p_ref, p_a, s_a, p_o, s_o, cv, rv,
                   fee_rate, reward_rate, var_rate):
    """``_advance`` on arrays of paths that share the clock ``t``; ``z``
    holds one shock row per path.  Returns ``_advance``'s ten arrays and the
    mask of paths whose step ``_advance`` must run again (their values are
    garbage).  Writes none of its inputs."""
    tb = config.tables
    n = len(tb.drift)
    eta = z[:, n]
    sigma, crash_drop, rwa_rate, base = _stress_terms(config, t)
    redo = ~((p_a > 0) & (p_o > 0))

    def exp(x):
        return _exp_paths(x, redo)

    # -- 2: collateral market move
    fc, fr = book_return_factors(
        z.T, tb.L, tb.drift, sigma, config.collateral_weights, tb.crypto_mask, exp
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
    a_red = _min(value * w_a / p_a, s_a)
    o_red = _min(value * w_o / p_o, s_o)
    s_a, s_o, cv, rv = _redeem_paths(
        policy, net_inflow < 0, a_red, o_red, p_a, p_o, s_a, s_o, cv, rv, redo
    )
    if config.turnover > 0:
        s_a, s_o, cv, rv = _redeem_paths(
            policy, True, config.turnover * s_a, config.turnover * s_o,
            p_a, p_o, s_a, s_o, cv, rv, redo,
        )

    # -- 5: price impact
    fee = _min(_max(fee_rate, 0.0), 1.0)
    reward = reward_rate
    sv_a = p_a * s_a
    sv_o = p_o * s_o
    emission_cost = reward * (sv_a + sv_o)
    old_total = cv + rv
    # a buyback capped by the books, or empty books to rescale
    redo |= ~(((emission_cost >= 0) | (-emission_cost <= old_total)) & (old_total > 0))

    mkt_a = resp_a * (1.0 - fee) - reward * sv_a
    mkt_o = resp_o * (1.0 - fee) - reward * sv_o + omega_yield_flow
    p_a = price_impact(p_a, mkt_a, config.depth_alpha, exp)
    p_o = price_impact(p_o, mkt_o, config.depth_omega, exp)
    if config.micro_vol > 0:
        p_a = p_a * exp(config.micro_vol * z[:, n + 1])
        p_o = p_o * exp(config.micro_vol * z[:, n + 2])

    scale = _max(old_total + emission_cost, 0.0) / old_total
    cv = cv * scale
    rv = rv * scale
    s_a = s_a * (1.0 + reward)
    s_o = s_o * (1.0 + reward)

    # -- 6: liquidation and treasury skim
    target_ratio = policy.min_collateral_ratio
    if config.liq_enabled:
        supply_value = (s_a + s_o) * p_ref
        redo |= ~((supply_value <= 0) | ((cv + rv) / supply_value >= target_ratio))
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
    redo |= ~(mid > 0)
    d = (mid - p_ref) / p_ref
    eps = config.band.epsilon
    acts = ~(np.abs(d) <= eps)
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
        fee_rate, reward_rate, var_rate, net_inflow, redo,
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
    """``simulate_path``'s loop on the paths of ``paths`` at once, with
    ``record_flags`` on each step's arrays and one ``fold_failed`` at the
    end.  A path-step that ``_advance_paths`` flags is run again by
    ``_advance``, and records the zeroed state if it raises there.  A path
    that stops (its step raised or left a non-finite value) leaves the
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
    hard = np.zeros((horizon, n_paths), dtype=bool)

    head, _ = initial_state(config)
    state = [np.full(n_paths, v) for v in head]
    trend = np.zeros(n_paths)
    prev_mid = np.full(n_paths, 0.5 * (head[0] + head[2]))
    live = np.arange(n_paths)  # batch positions of the paths still running
    tb = config.tables
    with np.errstate(all="ignore"):
        for t in range(horizon):
            at = slice(None) if len(live) == n_paths else live
            p_ref = tb.p_refs[t]
            z = steps[t, at]
            start = state
            *state, net_inflow, redo = _advance_paths(config, z, trend, t, p_ref, *start)
            raised = np.zeros(len(redo), dtype=bool)
            for j in np.flatnonzero(redo):  # the scalar core runs the path-step again
                try:
                    out = _advance(
                        config, z[j].tolist(), float(trend[j]), t, p_ref, *(float(v[j]) for v in start)
                    )
                except OverflowError:
                    raised[j] = True
                    out = (0.0,) * 10
                for v, x in zip((*state, net_inflow), out):
                    v[j] = x
            p_a, s_a, p_o, s_o, cv, rv = state[:6]
            c_total = cv + rv
            batch.in_band[t, at], hard[t, at], mid, supply_value, eff = record_flags(
                config.failure, p_a, p_o, p_ref, tb.band_lo[t], tb.band_hi[t], s_a, s_o, c_total
            )
            trend = np.where(prev_mid > 0, (mid - prev_mid) / prev_mid, 0.0)
            prev_mid = mid
            steps[t, at, :4] = np.stack((eff, mid, net_inflow, supply_value), axis=1)

            stop = raised | ~(np.isfinite(mid) & np.isfinite(c_total))
            if stop.any():
                gone = live[stop]
                batch.lengths[gone] = t + 1
                batch.diverged[gone] = True
                _set_ends(batch, gone, *(v[stop] for v in (p_a, p_o, cv, rv)))
                keep = ~stop
                live = live[keep]
                state = [v[keep] for v in state]
                trend, prev_mid = trend[keep], prev_mid[keep]
                if not len(live):
                    break
    p_a, _, p_o, _, cv, rv = state[:6]
    _set_ends(batch, live, p_a, p_o, cv, rv)
    failed = fold_failed(config.failure, batch.in_band, hard)
    batch.failed = failed[batch.lengths - 1, np.arange(n_paths)]
    return batch


def _set_ends(batch: PathBatch, at, p_a, p_o, cv, rv):
    """Record the last-record values of the paths at batch positions ``at``."""
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
