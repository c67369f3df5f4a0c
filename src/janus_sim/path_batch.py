"""Paths run side by side: ``simulate_path`` and ``path_summary`` on a
range of paths, with each of the engine's per-path floats held in a NumPy
array over the paths.

``simulate_batch`` runs a batch as ``simulate_path`` runs one path: sub-steps
2-7 of ``sim_engine._advance`` and the trend and stop test of
``simulate_path`` on arrays of paths that share the step clock, with the
steps recorded by ``sim_engine``'s ``record_flags`` and ``fold_failed``.  It
works a block of up to ``BLOCK_STEPS`` steps at a time: one
``sim_engine.step_inputs`` call gives the block's inputs, stacked once into
one ``(steps, 5, paths)`` array, and one ``record_flags`` call its records.
It builds the ``PathBatch`` once, from its arrays, after ``fold_failed``.

The paths' state is one ``(9, paths)`` stack with the rows (p_a, p_o, s_a,
s_o, cv, rv, fee, reward, rate), so that both prices, both supplies, both
books and the three controller rates are contiguous ``(k, paths)`` views,
and the supplies and books together one ``(4, paths)`` view.  A config's
per-row values are ``(k, 1)`` columns (``_columns``): the tokens' demand
weights, market depths and crypto-book shares of a deposit, and the
controller's signed gains, bounds and neutral rates.  Each mechanic runs
once a step on a stack, not once per token, book or rate.

Each path's floats are bit-identical to those of ``simulate_path`` on that
path alone.  Five rules keep them so:

- A mechanic's arithmetic is the scalar core's own: ``_advance_paths``
  calls the ``market``, ``protocol``, ``controller`` and ``sim_engine``
  functions that take floats or stacks, and adds only selects, ``redo``
  flags and the glue between calls.  A redemption's value less its fee,
  sub-step 5's emission, the skim and the controller's clamps and leak are
  written out: shared, they slowed the scalar step or took more lines than
  they saved (ROADMAP, *Measured and not pursued*).
- An element-wise ufunc gives each element of a stack the bits it gives on
  a 1-D row, so a stacked expression keeps the scalar core's order of
  operations, with a column in place of a float: ``s + (notional * w) /
  p``, ``c - take * (c / total)``, ``(sign * gain) * excess``.
- ``exp`` is libm's, as ``math.exp`` takes it: ``_exp_paths`` calls NumPy's
  complex ``exp``, which is libm's ``cexp`` and gives ``math.exp``'s bits on
  a zero imaginary part; ``np.exp`` on floats rounds some inputs
  differently.
- A per-path branch that presets take often (mint or redeem, skim, the
  controller acting) is a ``where`` select over both sides, computed under
  ``np.errstate``.  A two-float ``min(a, b)``/``max(a, b)`` becomes
  ``_min``/``_max``, which keep ``a`` unless ``b`` compares smaller/larger,
  as Python does; ``np.minimum``/``np.maximum`` differ on NaN and signed
  zero.
- A path-step that would take any other per-path branch (a dead token, an
  ``exp`` above 709.0 in any row, a redemption not paid in full, a capped
  buyback, empty books, a liquidation, a mid price of 0 or less) is flagged
  and run again by ``_advance``, whose functions keep those branches'
  guards.  A NaN sets every flag: a flag is always safe, a missed one loses
  bits.

A batch keeps only what ``path_summary`` reads.  The shocks are stored
time-major, one ``(paths, columns)`` block of ``path_shocks`` per step
(``batch_shocks``), and once a block of steps is done its records overwrite
the shock slots the block has consumed, so a batch holds little more than
its shocks.  A path that stops keeps its slot and is stepped on with the
others; ``diverged`` marks it, and its rows past ``lengths`` hold garbage.
The first ``path_summary`` call for a batch reduces all its paths through
``sim_engine``'s one summary reduction (``batch_path_summary``).  Frontier
cells that step the same paths make the shocks once and each batch one
copy.  ``sim_engine`` imports this module on first use:
``run`` and ``equilibrium`` never compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sim_engine
from .controller import control_deltas
from .market import demand_flow
from .protocol import mint_notional, pay_pro_rata
from .sim_engine import (
    PathSummary,
    ScenarioConfig,
    _advance,
    _reduce_paths,
    fold_failed,
    initial_state,
    price_impact,
    record_flags,
    step_inputs,
)


# Steps whose inputs and records a batch computes together (see ``_blocks``),
# and paths whose summaries it reduces together (``batch_path_summary``).
BLOCK_STEPS = 32

# The rows of the state stack in ``_advance``'s argument order, and back:
# the stack holds (p_a, p_o, s_a, s_o, cv, rv, fee, reward, rate), and
# ``_advance`` takes and returns (p_a, s_a, p_o, s_o, cv, rv, ...).
_ADVANCE_ORDER = [0, 2, 1, 3, 4, 5, 6, 7, 8]


def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _clip(v, lo, hi):
    return _min(_max(v, lo), hi)


def _exp_paths(x: np.ndarray, redo: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element, bit for bit, up to 709.0: NumPy's
    complex ``exp`` is libm's ``cexp``, which returns ``exp(x) * 1.0`` for
    ``x + 0j`` there and rescales above.  An element above 709.0 flags its
    path-step in ``redo`` and its value is garbage; the scalar core runs the
    step again and raises where ``math.exp`` overflows (above log(DBL_MAX)
    ~ 709.78).  ``x`` is shaped as ``redo`` or is a stack of such arrays, and
    a path-step is flagged when any of its rows is above 709.0.  A NaN stays
    NaN and is not flagged, as ``math.exp`` passes it."""
    over = x > 709.0
    redo |= np.logical_or.reduce(over) if over.ndim > redo.ndim else over
    z = x.astype(np.complex128)
    return np.exp(z, out=z).real


class _Columns(NamedTuple):
    """A config's per-row parameters as ``(k, 1)`` columns of the state's
    stacks: the tokens' demand weights, market depths and crypto-book
    shares of a deposit, and the controller's signed gains (``sign`` in
    ``control_deltas``, for the side above the band), bounds and neutral
    rates."""

    weights: np.ndarray
    depths: np.ndarray
    shares: np.ndarray
    gains: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    neutrals: np.ndarray


def _columns(config: ScenarioConfig) -> _Columns:
    ctl = config.controller
    w_a = config.mint_policy.alpha_omega_split
    wc = config.tables.wc
    rows = (
        (w_a, 1.0 - w_a),
        (config.depth_alpha, config.depth_omega),
        (wc, 1.0 - wc),
        (-ctl.fee_gain, ctl.reward_gain, -ctl.rate_gain),
        (ctl.fee_min, ctl.reward_min, ctl.rate_min),
        (ctl.fee_max, ctl.reward_max, ctl.rate_max),
        (ctl.fee_neutral, ctl.reward_neutral, ctl.rate_neutral),
    )
    return _Columns(*(np.array(r)[:, None] for r in rows))


def _redeem(policy, on, red, prices, held, redo) -> np.ndarray:
    """``protocol.redeem`` of ``red`` (the ``(2, paths)`` stack of Alpha and
    Omega burned) from ``held`` (the stack of supplies and books) where
    ``on`` holds and the redemption has value; a path whose books cannot pay
    it in full is flagged in ``redo``."""
    books = held[2:]
    value = red * prices
    value = value[0] + value[1]
    gross = value * (1.0 - policy.redeem_fee)
    total = books[0] + books[1]
    paid = pay_pro_rata(gross, books, total)
    on = on & ~(value <= 0)
    ok = paid >= 0
    redo |= on & ~((gross > 0) & (gross <= total) & ok[0] & ok[1])
    return np.where(on, np.concatenate((_max(held[:2] - red, 0.0), paid)), held)


def _advance_paths(config, cols, inputs, redo, trend, t, p_ref, state):
    """``_advance`` on the ``(9, paths)`` stack ``state`` of paths that share
    the clock ``t``; ``inputs`` holds the step's ``step_inputs`` as one
    ``(5, paths)`` stack (the two book factors, the demand noise and the two
    microstructure factors), and ``redo`` the paths whose inputs overflowed.
    Returns the state after the step, its mid price, the net inflow and the
    mask of paths whose step ``_advance`` must run again (their values are
    garbage).  Writes none of its inputs."""
    tb = config.tables
    out = np.empty_like(state)
    prices, rates = state[:2], state[6:]
    ok = prices > 0
    redo = redo | ~(ok[0] & ok[1])

    def exp(x):
        return _exp_paths(x, redo)

    # -- 2: collateral market move
    factors, eta, micro = inputs[:2], inputs[2], inputs[3:]
    held = state[2:6].copy()  # the supplies and the books
    held[2:] *= factors

    # -- 3: RWA yield
    gross_yield = held[3] * tb.rwa_rates[t]
    retained = gross_yield * config.treasury_split
    held[3] += retained
    omega_yield_flow = gross_yield - retained

    # -- 4: demand and protocol flows
    policy = config.mint_policy
    flows, resp = demand_flow(config.demand, tb.bases[t], cols.weights, prices, p_ref, trend, eta)
    net_inflow = flows[0] + flows[1]
    notional, deposited = mint_notional(policy, net_inflow, cols.weights, held[2:], cols.shares)
    held = np.where(net_inflow > 0, np.concatenate((held[:2] + notional / prices, deposited)), held)
    red = _min(-net_inflow * cols.weights / prices, held[:2])
    held = _redeem(policy, net_inflow < 0, red, prices, held, redo)
    if config.turnover > 0:
        held = _redeem(policy, True, config.turnover * held[:2], prices, held, redo)
    supplies, books = held[:2], held[2:]

    # -- 5: price impact
    fee = _clip(rates[0], 0.0, 1.0)
    reward = rates[1]
    values = prices * supplies
    emission_cost = reward * (values[0] + values[1])
    old_total = books[0] + books[1]
    # a buyback capped by the books, or empty books to rescale
    redo |= ~(((emission_cost >= 0) | (-emission_cost <= old_total)) & (old_total > 0))

    mkt = resp * (1.0 - fee) - reward * values
    mkt[1] += omega_yield_flow
    prices = np.multiply(price_impact(prices, mkt, cols.depths, exp), micro, out=out[:2])

    scale = _max(old_total + emission_cost, 0.0) / old_total
    books = np.multiply(books, scale, out=out[4:6])
    supplies = np.multiply(supplies, 1.0 + reward, out=out[2:4])

    # -- 6: liquidation and treasury skim
    target_ratio = policy.min_collateral_ratio
    supply = supplies[0] + supplies[1]
    total = books[0] + books[1]
    if config.liq_enabled:
        supply_value = supply * p_ref
        redo |= ~((supply_value <= 0) | (total / supply_value >= target_ratio))
    if config.skim_rate > 0:  # protocol.skim, written out
        target = target_ratio * supply * p_ref
        f = 1.0 - config.skim_rate * (total - target) / total
        np.copyto(books, books * f, where=total > target)
    out[2:6] = _max(out[2:6], 0.0)

    # -- 7: controller: control_action, then apply_action
    mid = 0.5 * (prices[0] + prices[1])
    redo |= ~(mid > 0)
    d = (mid - p_ref) / p_ref
    dev = np.abs(d)
    eps = config.band.epsilon
    deltas = control_deltas(rates, dev - eps, np.where(d > 0, 1.0, -1.0), cols.gains, cols.lows, cols.highs, _clip)
    rates = _clip(rates + np.where(dev <= eps, 0.0, deltas), cols.lows, cols.highs)
    np.add(rates, config.controller.leak * (cols.neutrals - rates), out=out[6:])  # the leak
    return out, mid, net_inflow, redo


@dataclass
class PathBatch:
    """A range of paths run side by side, kept as ``path_summary`` reads
    them; ``simulate_batch`` builds it once, after its ``fold_failed``.

    ``steps[t, j]`` holds the record of step t + 1 of path ``paths[j]`` in
    its first four slots (efficiency, mid price, net inflow, supply value);
    the step's shock row filled that row until the step's block was done.
    ``in_band[t, j]`` is the record's in-band flag.  Per path:
    ``lengths[j]``, the number of records; ``diverged[j]``, whether it
    stopped; ``failed[j]``, the last record's failure flag; ``last[:, j]``,
    its state at its last record, in the rows of ``_advance_paths``' stack.
    A stopped path keeps its slot, and its rows past its last record hold
    garbage that nothing reads.  ``summaries`` holds the paths'
    ``PathSummary`` rows, by position, once the first ``path_summary`` call
    has reduced them.  ``len()`` is the number of records of all paths.
    """

    paths: range
    steps: np.ndarray
    in_band: np.ndarray
    lengths: np.ndarray
    diverged: np.ndarray
    failed: np.ndarray
    last: np.ndarray
    summaries: list | None = None

    def __len__(self):
        return int(self.lengths.sum())


def batch_shocks(config: ScenarioConfig, paths: range) -> np.ndarray:
    """The ``path_shocks`` of the paths of ``paths``, time-major: one
    ``(paths, columns)`` block per step."""
    steps = None
    for j, i in enumerate(paths):
        block = sim_engine.path_shocks(config, i)
        if steps is None:
            steps = np.empty((block.shape[0], len(paths), block.shape[1]))
        steps[:, j, :] = block
    return steps


def _blocks(tables, horizon: int):
    """The steps 0..horizon-1 cut into ranges ``(t0, t1)`` of at most
    ``BLOCK_STEPS`` steps whose step inputs ``step_inputs`` computes with one
    clock ``t0``: the asset vols and crash drop stay the same within each."""
    t0 = 0
    while t0 < horizon:
        key = (tables.sigmas[t0], tables.crash_drops[t0])
        t1 = t0 + 1
        while t1 < min(t0 + BLOCK_STEPS, horizon) and (tables.sigmas[t1], tables.crash_drops[t1]) == key:
            t1 += 1
        yield t0, t1
        t0 = t1


def simulate_batch(config: ScenarioConfig, paths: range, steps: np.ndarray | None = None) -> PathBatch:
    """``simulate_path``'s loop on the paths of ``paths`` at once, on their
    rows of ``steps`` (by default ``batch_shocks``), which the batch
    overwrites.

    The paths' state (``_advance_paths``' stack), trend and previous mid
    price step a block of ``_blocks`` at a time.  One ``step_inputs`` call on
    the block's shock rows, one ``(steps, paths)`` array per column, gives
    the block's inputs, stacked once into a ``(steps, 5, paths)`` array.
    Each step keeps its raw record; one ``record_flags`` call on the block's
    records fills the block's rows of the flags, and the records overwrite
    the block's shock slots.  A path-step that ``_advance_paths`` or the
    inputs' ``exp`` flags is run again by ``_advance`` on the inputs of its
    shock row alone, still intact until the block ends, and records the
    zeroed state if it raises there.  A path stops when its step raised or
    left a non-finite mid price or collateral: it keeps its slot and is
    stepped on with the others, but no rerun, ``fold_failed`` (causal along
    steps) or ``batch_path_summary`` reads its later values.  One
    ``fold_failed`` runs at the end, and the ``PathBatch`` is built from its
    flags and the run's arrays."""
    n_paths = len(paths)
    horizon = config.horizon
    tb = config.tables
    if steps is None:
        steps = batch_shocks(config, paths)
    in_band = np.zeros((horizon, n_paths), dtype=bool)
    hard = np.zeros((horizon, n_paths), dtype=bool)
    lengths = np.full(n_paths, horizon)
    live = np.ones(n_paths, dtype=bool)
    last = np.empty((9, n_paths))

    head, _ = initial_state(config)
    # the paths' state, trend and previous mid price
    state = np.repeat(np.array(head)[_ADVANCE_ORDER, None], n_paths, axis=1)
    trend = np.zeros(n_paths)
    prev_mid = np.full(n_paths, 0.5 * (head[0] + head[2]))
    cols = _columns(config)
    with np.errstate(all="ignore"):
        for t0, t1 in _blocks(tb, horizon):
            rows = steps[t0:t1]
            in_redo = np.zeros(rows.shape[:2], dtype=bool)
            (inputs,) = step_inputs(config, (np.moveaxis(rows, 2, 0),), t0, lambda x: _exp_paths(x, in_redo))
            inputs = np.stack([np.broadcast_to(v, in_redo.shape) for v in inputs], axis=1)
            record = np.empty((6, t1 - t0, n_paths))  # p_a, p_o, s_a, s_o, c_total, net_inflow
            for k, t in enumerate(range(t0, t1)):
                p_ref = tb.p_refs[t]
                start = state
                state, mid, net_inflow, redo = _advance_paths(
                    config, cols, inputs[k], in_redo[k], trend, t, p_ref, start
                )
                raised = []
                for j in (redo & live).nonzero()[0].tolist():  # the scalar core runs the path-step again
                    try:
                        (step,) = step_inputs(config, (steps[t, j].tolist(),), t)
                        out = _advance(config, step, float(trend[j]), t, p_ref, *start[_ADVANCE_ORDER, j].tolist())
                    except OverflowError:
                        raised.append(j)
                        out = (0.0,) * 10
                    state[_ADVANCE_ORDER, j] = out[:9]
                    mid[j] = 0.5 * (out[0] + out[2])
                    net_inflow[j] = out[9]
                record[:4, k] = state[:4]
                record[4, k] = state[4] + state[5]
                record[5, k] = net_inflow
                trend = np.where(prev_mid > 0, (mid - prev_mid) / prev_mid, 0.0)
                prev_mid = mid

                stop = live & ~(np.isfinite(mid) & np.isfinite(record[4, k]))
                stop[raised] = True
                if stop.any():
                    lengths[stop] = t + 1
                    live &= ~stop
                    np.copyto(last, state, where=stop)
                    if not live.any():
                        break
            done = slice(t0, t + 1)
            record = record[:, : k + 1]
            p_ref, lo, hi = (np.array(v[done])[:, None] for v in (tb.p_refs, tb.band_lo, tb.band_hi))
            in_band[done], hard[done], mid, supply_value, eff = record_flags(
                config.failure, *record[:2], p_ref, lo, hi, *record[2:5]
            )
            steps[done, :, :4] = np.stack((eff, mid, record[5], supply_value), axis=-1)
            # freed before the next block's arrays, or fold_failed's, are made
            del inputs, in_redo, record, mid, supply_value, eff
            if not live.any():
                break
    np.copyto(last, state, where=live)
    failed = fold_failed(config.failure, in_band, hard)[lengths - 1, np.arange(n_paths)]
    return PathBatch(paths, steps, in_band, lengths, ~live, failed, last)


def batch_path_summary(batch: PathBatch, config: ScenarioConfig, path_index: int) -> PathSummary:
    """``path_summary`` of one path of a batch.  The first call reduces all
    its paths, ``BLOCK_STEPS`` at a time to keep the copies small: those of
    a block with the same number of records in one ``_reduce_paths``, on one
    C-contiguous ``(paths, records)`` copy of each series."""
    if batch.summaries is None:
        batch.summaries = [None] * len(batch.paths)
        for j0 in range(0, len(batch.paths), BLOCK_STEPS):
            block = batch.lengths[j0 : j0 + BLOCK_STEPS]
            for n in set(block.tolist()):
                at = j0 + np.flatnonzero(block == n)
                last = batch.last[:, at]
                ends = (last[0], last[1], [config.tables.p_refs[n - 1]] * len(at), last[4], last[5])
                series = [batch.steps[:n, :, k].T[at] for k in range(4)]
                paths = [batch.paths[j] for j in at]
                summaries = _reduce_paths(paths, batch.failed[at], ends, batch.in_band[:n, at].T, *series)
                for j, s in zip(at.tolist(), summaries):
                    batch.summaries[j] = s
    return batch.summaries[batch.paths.index(path_index)]
