"""Paths run side by side: ``simulate_path`` and ``path_summary`` on a
range of paths, with each of the engine's per-path floats held in a NumPy
array over the paths.

``simulate_batch`` runs sub-steps 2-7 of ``sim_engine._advance`` and the
trend and stop test of ``simulate_path`` on arrays of paths that share the
step clock, and records the steps by ``sim_engine``'s ``record_flags`` and
``fold_failed``.  It works a block of up to ``BLOCK_STEPS`` steps at a
time: one ``sim_engine.step_inputs`` call gives the block's inputs, one
``(steps, paths)`` array per shock column, and one ``record_flags`` call its
records.  Each path's floats are bit-identical to those of
``simulate_path`` on that path alone.  Four rules keep them so:

- A mechanic's arithmetic is the scalar core's own: ``_advance_paths``
  calls the ``market``, ``protocol``, ``controller`` and ``sim_engine``
  functions that take floats or arrays, and adds only selects, ``redo``
  flags and the glue between calls.  A redemption's value less its fee,
  sub-step 5's emission, the skim and the controller's clamps and leak are
  written out: shared, they slowed the scalar step or took more lines than
  they saved (ROADMAP, *Measured and not pursued*).
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
  ``exp`` above 709.0, a redemption not paid in full, a capped buyback,
  empty books, a liquidation, a mid price of 0 or less) is flagged and run
  again by ``_advance``, whose functions keep those branches' guards.  A NaN
  sets every flag: a flag is always safe, a missed one loses bits.

A batch keeps only what ``path_summary`` reads.  The shocks are stored
time-major, one ``(paths, n_assets + 3)`` block per step
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
    shock_width,
    step_inputs,
)


# Steps whose inputs and records a batch computes together (see ``_blocks``),
# and paths whose summaries it reduces together (``batch_path_summary``).
BLOCK_STEPS = 32


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
    ~ 709.78).  A NaN stays NaN and is not flagged, as ``math.exp`` passes
    it."""
    redo |= x > 709.0
    z = x.astype(np.complex128)
    return np.exp(z, out=z).real


def _where(on, new, old) -> tuple:
    """``new`` where ``on`` holds, else ``old``, over two tuples of arrays."""
    return tuple(np.where(on, n, o) for n, o in zip(new, old))


def _redeem(policy, on, a_red, o_red, p_a, p_o, books, redo) -> tuple:
    """``protocol.redeem`` on the books ``(s_a, s_o, cv, rv)`` where ``on``
    holds and the redemption has value; a path whose books cannot pay it in
    full is flagged in ``redo``."""
    s_a, s_o, cv, rv = books
    value = a_red * p_a + o_red * p_o
    gross = value * (1.0 - policy.redeem_fee)
    total = cv + rv
    cv_paid, rv_paid = pay_pro_rata(gross, cv, rv, total)
    on = on & ~(value <= 0)
    redo |= on & ~((gross > 0) & (gross <= total) & (cv_paid >= 0) & (rv_paid >= 0))
    return _where(on, (_max(s_a - a_red, 0.0), _max(s_o - o_red, 0.0), cv_paid, rv_paid), books)


def _advance_paths(config, inputs, redo, trend, t, p_ref, p_a, s_a, p_o, s_o, cv, rv,
                   fee_rate, reward_rate, var_rate):
    """``_advance`` on arrays of paths that share the clock ``t``; ``inputs``
    holds the step's ``step_inputs``, one array over the paths each, and
    ``redo`` the paths whose inputs overflowed.  Returns ``_advance``'s ten
    arrays and the mask of paths whose step ``_advance`` must run again
    (their values are garbage).  Writes none of its inputs."""
    tb = config.tables
    redo = redo | ~((p_a > 0) & (p_o > 0))

    def exp(x):
        return _exp_paths(x, redo)

    # -- 2: collateral market move
    f_crypto, f_rwa, eta, micro_a, micro_o = inputs
    cv = cv * f_crypto
    rv = rv * f_rwa

    # -- 3: RWA yield
    gross_yield = rv * tb.rwa_rates[t]
    retained = gross_yield * config.treasury_split
    rv = rv + retained
    omega_yield_flow = gross_yield - retained

    # -- 4: demand and protocol flows
    policy = config.mint_policy
    w_a = policy.alpha_omega_split
    w_o = 1.0 - w_a
    flow_a, resp_a = demand_flow(config.demand, tb.bases[t], w_a, p_a, p_ref, trend, eta)
    flow_o, resp_o = demand_flow(config.demand, tb.bases[t], w_o, p_o, p_ref, trend, eta)
    net_inflow = flow_a + flow_o
    books = (s_a, s_o, cv, rv)
    n_a, n_o, cv_in, rv_in = mint_notional(policy, net_inflow, cv, rv, tb.wc)
    books = _where(net_inflow > 0, (s_a + n_a / p_a, s_o + n_o / p_o, cv_in, rv_in), books)
    a_red = _min(-net_inflow * w_a / p_a, books[0])
    o_red = _min(-net_inflow * w_o / p_o, books[1])
    books = _redeem(policy, net_inflow < 0, a_red, o_red, p_a, p_o, books, redo)
    if config.turnover > 0:
        a_red, o_red = config.turnover * books[0], config.turnover * books[1]
        books = _redeem(policy, True, a_red, o_red, p_a, p_o, books, redo)
    s_a, s_o, cv, rv = books

    # -- 5: price impact
    fee = _clip(fee_rate, 0.0, 1.0)
    reward = reward_rate
    sv_a = p_a * s_a
    sv_o = p_o * s_o
    emission_cost = reward * (sv_a + sv_o)
    old_total = cv + rv
    # a buyback capped by the books, or empty books to rescale
    redo |= ~(((emission_cost >= 0) | (-emission_cost <= old_total)) & (old_total > 0))

    mkt_a = resp_a * (1.0 - fee) - reward * sv_a
    mkt_o = resp_o * (1.0 - fee) - reward * sv_o + omega_yield_flow
    p_a = price_impact(p_a, mkt_a, config.depth_alpha, exp) * micro_a
    p_o = price_impact(p_o, mkt_o, config.depth_omega, exp) * micro_o

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
    if config.skim_rate > 0:  # protocol.skim, written out
        target = target_ratio * (s_a + s_o) * p_ref
        total = cv + rv
        f = 1.0 - config.skim_rate * (total - target) / total
        cv, rv = _where(total > target, (cv * f, rv * f), (cv, rv))

    # -- 7: controller: control_action, then apply_action
    ctl = config.controller
    mid = 0.5 * (p_a + p_o)
    redo |= ~(mid > 0)
    d = (mid - p_ref) / p_ref
    eps = config.band.epsilon
    current = (fee_rate, reward_rate, var_rate)
    deltas = control_deltas(ctl, current, np.abs(d) - eps, np.where(d > 0, 1.0, -1.0), _clip)
    acts = ~(np.abs(d) <= eps)
    limits = ((ctl.fee_min, ctl.fee_max, ctl.fee_neutral), (ctl.reward_min, ctl.reward_max, ctl.reward_neutral),
              (ctl.rate_min, ctl.rate_max, ctl.rate_neutral))
    rates = [_clip(c + np.where(acts, delta, 0.0), lo, hi) for c, delta, (lo, hi, _) in zip(current, deltas, limits)]
    fee_rate, reward_rate, var_rate = (r + ctl.leak * (n - r) for r, (*_, n) in zip(rates, limits))  # the leak

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
    """The shocks of the paths of ``paths``, time-major: one
    ``(paths, n_assets + 3)`` block per step (the spare column is never
    read)."""
    horizon = config.horizon
    width = shock_width(config)
    used = len(config.assets) + 3
    steps = np.empty((horizon, len(paths), used))
    for j, i in enumerate(paths):
        steps[:, j, :] = sim_engine.shock_block(config.seed, i, horizon, width)[:, :used]
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
    run = ([np.full(n_paths, v) for v in head], np.zeros(n_paths), np.full(n_paths, 0.5 * (head[0] + head[2])))
    with np.errstate(all="ignore"):
        for t0, t1 in _blocks(config.tables, horizon):
            run = _run_block(config, batch, hard, t0, t1, *run)
            if batch.diverged.all():
                break
    p_a, _, p_o, _, cv, rv = run[0][:6]
    _set_ends(batch, ~batch.diverged, p_a, p_o, cv, rv)
    failed = fold_failed(config.failure, batch.in_band, hard)
    batch.failed = failed[batch.lengths - 1, np.arange(n_paths)]
    return batch


def _run_block(config, batch, hard, t0, t1, state, trend, prev_mid) -> tuple:
    """Steps t0..t1-1, a block of ``_blocks``, of every path of the batch,
    from their state (``_advance_paths``' arrays), trend and previous mid
    price; returns those after the block.

    The block's step inputs come from one ``step_inputs`` call on its rows of
    ``batch.steps``, one ``(steps, paths)`` array per shock column.  Each
    step keeps its raw record, and ``record_flags`` runs once on the block's
    records, which then overwrite the block's shock slots and fill its rows
    of ``batch.in_band`` and ``hard``.  A path-step that ``_advance_paths``
    or the inputs' ``exp`` flags is run again by ``_advance`` on the inputs
    of its shock row alone, still intact until the block ends, and records
    the zeroed state if it raises there.  A stop sets ``batch.lengths``,
    ``batch.diverged`` and the path's last-record values; the path keeps its
    slot, and its later values are garbage that no rerun, ``fold_failed``
    (causal along steps) or ``batch_path_summary`` reads.  The block's arrays
    are freed on return, so none is held while ``fold_failed`` runs."""
    tb = config.tables
    steps = batch.steps
    rows = steps[t0:t1]
    shape = rows.shape[:2]
    in_redo = np.zeros(shape, dtype=bool)
    (inputs,) = step_inputs(config, (np.moveaxis(rows, 2, 0),), t0, lambda x: _exp_paths(x, in_redo))
    inputs = [np.broadcast_to(v, shape) for v in inputs]
    record = np.empty((6, *shape))  # p_a, p_o, s_a, s_o, c_total, net_inflow
    for t in range(t0, t1):
        k = t - t0
        p_ref = tb.p_refs[t]
        start = state
        *state, net_inflow, redo = _advance_paths(config, [v[k] for v in inputs], in_redo[k], trend, t, p_ref, *start)
        raised = np.zeros(len(redo), dtype=bool)
        for j in np.flatnonzero(redo & ~batch.diverged):  # the scalar core runs the path-step again
            try:
                (step,) = step_inputs(config, (steps[t, j].tolist(),), t)
                out = _advance(config, step, float(trend[j]), t, p_ref, *(float(v[j]) for v in start))
            except OverflowError:
                raised[j] = True
                out = (0.0,) * 10
            for v, x in zip((*state, net_inflow), out):
                v[j] = x
        p_a, s_a, p_o, s_o, cv, rv = state[:6]
        c_total = cv + rv
        record[:, k] = (p_a, p_o, s_a, s_o, c_total, net_inflow)
        mid = 0.5 * (p_a + p_o)
        trend = np.where(prev_mid > 0, (mid - prev_mid) / prev_mid, 0.0)
        prev_mid = mid

        stop = ~batch.diverged & (raised | ~(np.isfinite(mid) & np.isfinite(c_total)))
        if stop.any():
            batch.lengths[stop] = t + 1
            batch.diverged |= stop
            _set_ends(batch, stop, p_a, p_o, cv, rv)
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


def _set_ends(batch: PathBatch, at, p_a, p_o, cv, rv):
    """Record the last-record values of the paths the mask ``at`` selects."""
    batch.p_a[at] = p_a[at]
    batch.p_omega[at] = p_o[at]
    batch.crypto[at] = cv[at]
    batch.rwa[at] = rv[at]


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
