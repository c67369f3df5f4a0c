"""Paths run side by side: ``simulate_path`` and ``path_summary`` on a
range of paths, with each of the engine's per-path floats held in a NumPy
array over the paths.

``simulate_batch`` runs sub-steps 2-7 of ``sim_engine._advance`` and the
trend and stop test of ``simulate_path`` on arrays of paths that share the
step clock, and records the steps by ``sim_engine``'s ``record_flags`` and
``fold_failed``.  It works a block of up to ``BLOCK_STEPS`` steps at a
time: one ``sim_engine.step_inputs`` call gives the block's inputs, stacked
once into ``(steps, k, paths)`` arrays, and one ``record_flags`` call its
records.

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
    the clock ``t``; ``inputs`` holds the step's ``step_inputs`` as the
    ``(2, paths)`` stack of book factors, the demand noise and the stack of
    microstructure factors, and ``redo`` the paths whose inputs overflowed.
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
    factors, eta, micro = inputs
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
    them.

    ``steps[t, j]`` holds the record of step t + 1 of path ``paths[j]`` in
    its first four slots (efficiency, mid price, net inflow, supply value);
    the step's shock row filled that row until the step's block of steps
    was done.  ``in_band[t, j]`` is the record's in-band flag.  A path that
    stops keeps its slot, and its rows past its last record hold garbage
    that nothing reads.  Per path: the number of records, whether the path
    diverged, the last record's failure flag and its prices and collateral
    books.  ``summaries`` maps each path index to its ``PathSummary`` once
    the first ``path_summary`` call has reduced them.  ``len()`` is the
    number of records of all paths.
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
    summaries: dict | None = None

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
    """``simulate_path``'s loop on the paths of ``paths`` at once, a block of
    steps (``_blocks``) at a time (``_run_block``), on their rows of
    ``steps`` (by default ``batch_shocks``), which the batch overwrites.
    One ``fold_failed`` runs at the end.  A path that stops (its step raised
    or left a non-finite value) keeps its slot; ``batch.diverged`` is the
    only record that it stopped."""
    n_paths = len(paths)
    horizon = config.horizon
    if steps is None:
        steps = batch_shocks(config, paths)
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
    # the paths' state, trend and previous mid price
    state = np.repeat(np.array(head)[_ADVANCE_ORDER, None], n_paths, axis=1)
    run = (state, np.zeros(n_paths), np.full(n_paths, 0.5 * (head[0] + head[2])))
    cols = _columns(config)
    with np.errstate(all="ignore"):
        for t0, t1 in _blocks(config.tables, horizon):
            run = _run_block(config, cols, batch, hard, t0, t1, *run)
            if batch.diverged.all():
                break
    _set_ends(batch, ~batch.diverged, run[0])
    failed = fold_failed(config.failure, batch.in_band, hard)
    batch.failed = failed[batch.lengths - 1, np.arange(n_paths)]
    return batch


def _run_block(config, cols, batch, hard, t0, t1, state, trend, prev_mid) -> tuple:
    """Steps t0..t1-1, a block of ``_blocks``, of every path of the batch,
    from their state (``_advance_paths``' stack), trend and previous mid
    price; returns those after the block.

    The block's step inputs come from one ``step_inputs`` call on its rows of
    ``batch.steps``, one ``(steps, paths)`` array per shock column, stacked
    once into ``(steps, 2, paths)`` arrays of the book factors and of the
    microstructure factors.  Each step keeps its raw record, and
    ``record_flags`` runs once on the block's records, which then overwrite
    the block's shock slots and fill its rows of ``batch.in_band`` and
    ``hard``.  A path-step that ``_advance_paths`` or the inputs' ``exp``
    flags is run again by ``_advance`` on the inputs of its shock row alone,
    still intact until the block ends, and records the zeroed state if it
    raises there.  A stop sets ``batch.lengths``, ``batch.diverged`` and the
    path's last-record values; the path keeps its slot, and its later values
    are garbage that no rerun, ``fold_failed`` (causal along steps) or
    ``batch_path_summary`` reads.  The block's arrays are freed on return,
    so none is held while ``fold_failed`` runs."""
    tb = config.tables
    steps = batch.steps
    rows = steps[t0:t1]
    shape = rows.shape[:2]
    in_redo = np.zeros(shape, dtype=bool)
    (inputs,) = step_inputs(config, (np.moveaxis(rows, 2, 0),), t0, lambda x: _exp_paths(x, in_redo))
    f_crypto, f_rwa, eta, micro_a, micro_o = (np.broadcast_to(v, shape) for v in inputs)
    factors, micro = np.stack((f_crypto, f_rwa), axis=1), np.stack((micro_a, micro_o), axis=1)
    record = np.empty((6, *shape))  # p_a, p_o, s_a, s_o, c_total, net_inflow
    live = ~batch.diverged
    for t in range(t0, t1):
        k = t - t0
        p_ref = tb.p_refs[t]
        start = state
        state, mid, net_inflow, redo = _advance_paths(
            config, cols, (factors[k], eta[k], micro[k]), in_redo[k], trend, t, p_ref, start
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
        c_total = np.add(state[4], state[5], out=record[4, k])
        record[5, k] = net_inflow
        trend = np.where(prev_mid > 0, (mid - prev_mid) / prev_mid, 0.0)
        prev_mid = mid

        stop = live & ~(np.isfinite(mid) & np.isfinite(c_total))
        stop[raised] = True
        if stop.any():
            batch.lengths[stop] = t + 1
            batch.diverged |= stop
            live = ~batch.diverged
            _set_ends(batch, stop, state)
            if batch.diverged.all():
                break
    done = slice(t0, t + 1)
    p_ref, lo, hi = (np.array(v[done])[:, None] for v in (tb.p_refs, tb.band_lo, tb.band_hi))
    p_a, p_o, s_a, s_o, c_total, net_inflow = record[:, : t + 1 - t0]
    batch.in_band[done], hard[done], mid, supply_value, eff = record_flags(
        config.failure, p_a, p_o, p_ref, lo, hi, s_a, s_o, c_total
    )
    steps[done, :, :4] = np.stack((eff, mid, net_inflow, supply_value), axis=-1)
    return state, trend, prev_mid


def _set_ends(batch: PathBatch, at, state):
    """Record the last-record values of the paths the mask ``at`` selects."""
    batch.p_a[at] = state[0, at]
    batch.p_omega[at] = state[1, at]
    batch.crypto[at] = state[4, at]
    batch.rwa[at] = state[5, at]


def batch_path_summary(batch: PathBatch, config: ScenarioConfig, path_index: int) -> PathSummary:
    """``path_summary`` of one path of a batch.  The first call reduces all
    its paths, ``BLOCK_STEPS`` at a time to keep the copies small: those of
    a block with the same number of records in one ``_reduce_paths``, on
    contiguous ``(paths, records)`` copies of their series."""
    if batch.summaries is None:
        batch.summaries = {}
        for j0 in range(0, len(batch.paths), BLOCK_STEPS):
            block = batch.lengths[j0 : j0 + BLOCK_STEPS]
            for n in set(block.tolist()):
                at = j0 + np.flatnonzero(block == n)
                ends = (batch.p_a[at], batch.p_omega[at], [config.tables.p_refs[n - 1]] * len(at),
                        batch.crypto[at], batch.rwa[at])
                series = [np.ascontiguousarray(batch.steps[:n, at, k].T) for k in range(4)]
                paths = [batch.paths[j] for j in at]
                for s in _reduce_paths(paths, batch.failed[at], ends, batch.in_band[:n, at].T, *series):
                    batch.summaries[s.path_index] = s
    return batch.summaries[path_index]
