"""Per-path simulation, Monte Carlo ensembles, stress overlays, and
trilemma frontier sweeps.

One step executes a frozen sub-step order:

    1. draw the step's shock row from the path stream and turn it into the
       step's inputs: the two collateral books' return factors (the crash
       drop applied), the demand noise and the two microstructure factors
    2. move collateral asset values by those factors
    3. accrue external RWA yield
    4. evaluate demand and execute protocol mint/redeem plus holder turnover
    5. update token prices via the exponential price-impact rule
    6. liquidate if undercollateralized, then skim treasury surplus
    7. evaluate the feedback controller and apply saturated deltas
    8. record the step

Sub-step 1 depends on the shocks and the clock alone, never on the state,
so it runs ahead of the path: ``step_inputs`` computes it over a block of
shock rows, once per path.  Sub-steps 2-7 are written once, in
``_advance``: a core that takes one step's inputs and returns the step's
numbers as plain floats (prices, supplies, the two collateral books, the
three controller rates) and calls the mechanic functions of ``market``,
``protocol`` and ``controller``.  The constants it reads of a config
(Cholesky rows, drift, class shares, each step's stress terms, the
reference price track, the zero-shock inputs) are the config's ``tables``,
built once per config object.  The core has two callers.
``simulate_path`` keeps a path's floats in locals, starting from
``initial_state``, runs the core on them step by step and keeps each record
as a tuple of floats.  ``step_map``, the map of ``controller``'s
equilibrium solver, runs the core on the floats of a state vector and takes
the holding units from ``holding_units``.

The record and failure rules are written once too, on arrays:
``record_flags`` (in-band, hard failure, mid, supply value, efficiency) and
``fold_failed`` (the grace streak, then stickiness).  A path's loop keeps
only the step, the stop test and the trend.

The step has a second form for ensembles: ``path_batch`` runs sub-steps 2-7
on NumPy arrays over a range of paths, bit-identical to ``_advance`` path
for path, through the mechanic functions that take floats or arrays, and
records them by the same two functions.  It selects between the sides
of the branches presets take often; a path-step that takes a rare one
(liquidation, a partial payout, a capped buyback, ...) is run again by
``_advance``, whose mechanic functions keep those branches' guards.
``monte_carlo`` and ``frontier_sweep`` run each chunk of at least
``BATCH_MIN_PATHS`` paths as one batch (``simulate_path(config, range)``,
then ``path_summary`` on the ``PathBatch``), smaller chunks path by path:
a batch step costs about 0.3 ms in NumPy calls, so the scalar core wins
below about 36 paths, as in ``run`` and ``step_map``.  The scalar core is
the reference the batch is tested against; which form ran cannot show in
any output.

Frontier cells that differ only in parameters the shocks and step inputs
do not read (``_paths_key``) step the same paths, so each path's shocks,
and its step inputs when it runs alone, are made once for all of them.

Demand routing: the structural base inflow enters through genesis minting
(new holders mint at the protocol, no order-book impact), while the
trend/deviation/noise components are market flows that carry price impact
and are arbitraged into protocol mint/redeem.  Holder turnover redeems a
fixed fraction of supply at the protocol each step.  Reward emission
(positive) sells newly minted tokens into the market; negative reward is a
treasury buyback-and-burn.  This split keeps the step map well posed: it
admits interior fixed points with finite supply.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .controller import NO_ACTION, ControllerParams, apply_action, control_action
from .core_state import (
    HEADER_DIM,
    GovernanceDistribution,
    PegBand,
    ReferencePricePolicy,
    band_bounds,
    decentralization,
    from_vector,
    reference_price,
    to_list,
)
from .market import (
    AssetKind,
    AssetSpec,
    CorrelationMatrix,
    DemandParams,
    book_return_factors,
    cholesky_factor,
    demand_flow,
)
from .protocol import MintPolicy, liquidate, mint, redeem, skim
from .rng import shock_block

if TYPE_CHECKING:
    from .path_batch import PathBatch

BURN_IN_STEPS = 30

# A chunk runs its paths side by side once it holds this many (below it the
# scalar core is faster).  No chunk holds more than this many path-steps,
# which bounds a batch's memory, and no pool starts for this much work or
# less, where a path-step run path by path counts as SCALAR_STEP_COST
# batched ones.  Measured on janus_baseline, dai_like and flatcoin_like on a
# 2-core x86 host: the two forms break even at 32-40 paths, and at 718 paths
# (one full chunk) a path-step takes 11-16 us path by path against 2.5-3.3 us
# batched.
BATCH_MIN_PATHS = 36
BATCH_PATH_STEPS = 1 << 18
SCALAR_STEP_COST = 5


class ConfigError(ValueError):
    pass


class StressKind(str, Enum):
    CRYPTO_CRASH = "crypto_crash"
    RWA_SHORTFALL = "rwa_shortfall"
    DEMAND_COLLAPSE = "demand_collapse"


@dataclass(frozen=True)
class StressOverlay:
    kind: StressKind
    onset: int
    magnitude: float
    duration: int

    def __post_init__(self):
        if not (0.0 < self.magnitude <= 1.0):
            raise ConfigError("stress magnitude must lie in (0, 1]")
        if self.onset < 0 or self.duration < 0:
            raise ConfigError("stress onset/duration must be non-negative")

    def active(self, t: int) -> bool:
        return self.onset <= t < self.onset + self.duration


@dataclass(frozen=True)
class FailureDef:
    """Operational failure event: a prolonged band break, undercollateralization,
    or outright price collapse."""

    grace: int = 14
    floor: float = 0.5

    def __post_init__(self):
        if self.grace < 0:
            raise ConfigError("failure grace must be non-negative")
        if not (0.0 < self.floor < 1.0):
            raise ConfigError("failure floor must lie in (0, 1)")


@dataclass(frozen=True)
class InitialConditions:
    alpha_price: float = 1.0
    alpha_supply: float = 0.0
    omega_price: float = 1.0
    omega_supply: float = 0.0
    c_total: float = 0.0

    def __post_init__(self):
        for name in ("alpha_price", "alpha_supply", "omega_price", "omega_supply", "c_total"):
            if getattr(self, name) < 0:
                raise ConfigError(f"initial {name} must be non-negative")


class StepTables(NamedTuple):
    """A config's constants for the step, ``ScenarioConfig.tables``."""

    L: tuple  # Cholesky rows of the correlation; then, in config.assets order,
    drift: tuple  # each asset's drift and whether it is crypto
    crypto_mask: tuple
    wc: float  # the crypto and RWA shares of the collateral weights
    wr: float
    sigmas: tuple  # at each stress clock 0..horizon-1, under the stress overlay:
    crash_drops: tuple  # the asset vols, the crypto book's crash factor,
    rwa_rates: tuple  # the RWA book's yield rate and the base inflow
    bases: tuple
    p_refs: tuple  # reference price and band bounds after each step 1..horizon
    band_lo: tuple
    band_hi: tuple
    zero_inputs: tuple | None  # step_map's step inputs (zero shocks at t = 0)
    p_ref0: float  # and reference price


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed for a deterministic run."""

    assets: tuple[AssetSpec, ...]
    correlation: CorrelationMatrix
    collateral_weights: tuple[float, ...]
    demand: DemandParams
    mint_policy: MintPolicy
    controller: ControllerParams
    band: PegBand
    ref_policy: ReferencePricePolicy
    governance: GovernanceDistribution
    horizon: int
    initial: InitialConditions
    failure: FailureDef = FailureDef()
    stress: StressOverlay | None = None
    seed: int = 0
    # market microstructure and treasury policy knobs
    depth_alpha: float = 10_000.0
    depth_omega: float = 10_000.0
    turnover: float = 0.0
    micro_vol: float = 0.0
    treasury_split: float = 1.0
    skim_rate: float = 0.0
    liq_penalty: float = 0.1
    liq_enabled: bool = True
    omega_senior: bool = False

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if sorted(s.id for s in self.assets) != list(range(len(self.assets))):
            raise ConfigError("asset ids must be 0..n-1 and unique")
        if len(self.assets) != self.correlation.size:
            raise ConfigError("correlation size must match asset count")
        if len(self.collateral_weights) != len(self.assets):
            raise ConfigError("collateral weights must match asset count")
        if abs(sum(self.collateral_weights) - 1.0) > 1e-9:
            raise ConfigError("collateral weights must sum to 1")
        if not all(0.0 <= w <= 1.0 for w in self.collateral_weights):
            raise ConfigError("collateral weights must lie in [0, 1]")
        if self.depth_alpha <= 0 or self.depth_omega <= 0:
            raise ConfigError("market depths must be positive")
        if not (0.0 <= self.turnover < 1.0):
            raise ConfigError("turnover must lie in [0, 1)")
        if self.micro_vol < 0:
            raise ConfigError("microstructure volatility must be non-negative")
        if not (0.0 <= self.treasury_split <= 1.0):
            raise ConfigError("treasury split must lie in [0, 1]")
        if not (0.0 <= self.skim_rate <= 1.0):
            raise ConfigError("skim rate must lie in [0, 1]")
        if self.stress is not None and self.stress.onset + self.stress.duration > self.horizon:
            raise ConfigError("stress window must fit inside the horizon")
        try:
            p_end = reference_price(self.ref_policy, self.horizon)
        except OverflowError:
            p_end = math.inf
        if not math.isfinite(p_end):
            raise ConfigError("reference price must stay finite up to the horizon")
        cholesky_factor(self.correlation)  # PSD gate at construction

    @functools.cached_property
    def tables(self) -> StepTables:
        """The step's constants, built on first use and kept on this object
        (the config is deeply frozen)."""
        L = tuple(tuple(row) for row in cholesky_factor(self.correlation))
        crypto_mask = tuple(s.kind is AssetKind.CRYPTO for s in self.assets)
        w = self.collateral_weights
        wc = sum(wi for wi, c in zip(w, crypto_mask) if c)
        wr = 1.0 - wc
        yld = sum(wi * s.yield_rate for wi, s in zip(w, self.assets) if s.kind is AssetKind.RWA)
        vol = tuple(s.vol for s in self.assets)
        rwa_rate = yld / wr if wr > 0 else 0.0
        base = self.demand.base_inflow
        # (vols, crash drop, RWA yield rate, base inflow) at each stress clock
        terms = [(vol, 1.0, rwa_rate, base)] * self.horizon
        overlay = self.stress
        if overlay is not None:
            cut = 1.0 - overlay.magnitude
            crash_vol = tuple(s * 2.0 if c else s for s, c in zip(vol, crypto_mask))
            for t in range(overlay.onset, overlay.onset + overlay.duration):
                if overlay.kind is StressKind.CRYPTO_CRASH:
                    terms[t] = (crash_vol, cut if t == overlay.onset else 1.0, rwa_rate, base)
                elif overlay.kind is StressKind.RWA_SHORTFALL:
                    terms[t] = (vol, 1.0, rwa_rate * cut, base)
                else:  # demand collapse
                    terms[t] = (vol, 1.0, rwa_rate, base * cut)
        sigmas, crash_drops, rwa_rates, bases = zip(*terms)
        p_refs = tuple(reference_price(self.ref_policy, t) for t in range(1, self.horizon + 1))
        bounds = [band_bounds(p_ref, self.band) for p_ref in p_refs]
        tables = StepTables(
            L=L,
            drift=tuple(s.drift for s in self.assets),
            crypto_mask=crypto_mask,
            wc=wc,
            wr=wr,
            sigmas=sigmas,
            crash_drops=crash_drops,
            rwa_rates=rwa_rates,
            bases=bases,
            p_refs=p_refs,
            band_lo=tuple(lo for lo, _ in bounds),
            band_hi=tuple(hi for _, hi in bounds),
            zero_inputs=None,
            p_ref0=reference_price(self.ref_policy, 0),
        )
        (zero,) = step_inputs(self, [(0.0,) * shock_width(self)], 0, tables=tables)
        return tables._replace(zero_inputs=zero)


TRACE_COLUMNS = (
    "t",
    "p_a",
    "p_omega",
    "p_ref",
    "band_lo",
    "band_hi",
    "supply_a",
    "supply_omega",
    "c_total",
    "v1",
    "v2",
    "net_inflow",
    "fee_rate",
    "reward_rate",
    "var_rate",
    "in_band",
    "failed",
)


@dataclass
class SimTrace:
    """Column-oriented per-step records for one path.

    ``diverged`` is set when the path stopped on a numerical blow-up: its
    last record holds a non-finite value, or the zeroed state of a step that
    raised.  ``in_band`` and ``failed`` are filled once the path has ended,
    by ``record_flags`` and ``fold_failed`` on its other columns.
    """

    columns: dict[str, list] = field(default_factory=lambda: {c: [] for c in TRACE_COLUMNS})
    diverged: bool = False

    def __len__(self):
        return len(self.columns["t"])

    def array(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name], dtype=float)

    def rows(self):
        cols = [self.columns[c] for c in TRACE_COLUMNS]
        return zip(*cols)


def record_flags(failure: FailureDef, p_a, p_o, p_ref, lo, hi, s_a, s_o, c_total) -> tuple:
    """The record rules, element-wise over arrays of records (one path's
    steps, or one step's paths), whose arguments come in trace-column order:
    in-band, a hard failure (collateral ratio below 1, a price at or below
    ``failure.floor`` of the reference, or a non-finite mid price or
    collateral), mid price, supply value and efficiency (supply value per
    unit of collateral, 0 without collateral).  A raised step's zeroed
    record is out of band (``lo > 0``) and at the floor, so it fails."""
    with np.errstate(all="ignore"):
        in_band = (lo <= p_a) & (p_a <= hi) & (lo <= p_o) & (p_o <= hi)
        mid = 0.5 * (p_a + p_o)
        denom = (s_a + s_o) * p_ref  # protocol.collateral_ratio's; no supply, no shortfall
        hard = (
            ((denom > 0) & (c_total / denom < 1.0))
            | (np.minimum(p_a, p_o) <= failure.floor * p_ref)
            | ~(np.isfinite(mid) & np.isfinite(c_total))
        )
        supply_value = s_a * p_ref + s_o * p_ref
        eff = np.where(c_total > 0, supply_value / c_total, 0.0)
    return in_band, hard, mid, supply_value, eff


def fold_failed(failure: FailureDef, in_band: np.ndarray, hard: np.ndarray) -> np.ndarray:
    """Each record's failure flag, along axis 0 of ``record_flags``' flags: a
    record has failed once a hard failure, or ``max(failure.grace, 1)``
    out-of-band records in a row, happened at or before it."""
    run = max(failure.grace, 1)
    out = np.cumsum(~in_band, axis=0)
    out = np.concatenate((np.zeros_like(out[:1]), out))  # out-of-band counts before each record
    failed = hard.copy()
    failed[run - 1:] |= out[run:] - out[:-run] == run
    return np.logical_or.accumulate(failed, axis=0)


def shock_width(config: ScenarioConfig) -> int:
    # asset draws + demand noise + per-token microstructure noise + spare
    return len(config.assets) + 4


def price_impact(price: float, net_flow: float, depth: float, exp=math.exp) -> float:
    """Exponential impact: positive flow raises price, zero flow is identity.
    ``price`` and ``net_flow`` are floats, or arrays over paths with an
    element-wise ``exp`` (see ``market.book_return_factors``).  ``depth`` is
    positive: ``ScenarioConfig`` rejects any other."""
    return price * exp(net_flow / depth)


def initial_state(config: ScenarioConfig) -> tuple[list[float], list[float]]:
    """The state at step zero as ``(head, units)``, the layout of
    ``core_state``'s vector: the 9 header entries and the units of each
    holding, in ``config.assets`` order."""
    init = config.initial
    c_total = init.c_total
    crypto = c_total * sum(
        w for s, w in zip(config.assets, config.collateral_weights) if s.kind is AssetKind.CRYPTO
    )
    ctl = config.controller
    head = [
        init.alpha_price, init.alpha_supply, init.omega_price, init.omega_supply,
        crypto, c_total - crypto, ctl.fee_neutral, ctl.reward_neutral, ctl.rate_neutral,
    ]
    return head, [w * c_total for w in config.collateral_weights]


def holding_units(config: ScenarioConfig, cv: float, rv: float) -> list[float]:
    """Units of each holding, in ``config.assets`` order (the order of the
    units in ``initial_state`` and in the state vector): its weight's share
    of its own class book.

    Positional: an asset's id need not equal its position in
    ``config.assets``.
    """
    tb = config.tables
    wc, wr = tb.wc, tb.wr
    return [
        (cv * w / wc if wc > 0 else 0.0) if is_crypto else (rv * w / wr if wr > 0 else 0.0)
        for w, is_crypto in zip(config.collateral_weights, tb.crypto_mask)
    ]


def step_inputs(
    config: ScenarioConfig, rows, t0: int, exp=math.exp, tables: StepTables | None = None
) -> list:
    """The state-independent inputs of the steps whose shock rows are
    ``rows``, the first at stress clock ``t0``: for each step the tuple
    (crypto book factor times the crash drop, RWA book factor, demand noise,
    Alpha and Omega microstructure factors) that ``_advance`` takes, or None
    where an ``exp`` overflows, and ``_advance`` raises ``OverflowError``.

    A row is a list of floats, or (in ``path_batch``) a sequence of arrays
    over paths, each entry one shock column, with an element-wise ``exp``
    that flags an overflow instead of raising it.  ``tables`` defaults to
    ``config.tables``, which pass themselves while they are built.
    """
    tb = config.tables if tables is None else tables
    n = len(tb.drift)
    L, drift, mask, w = tb.L, tb.drift, tb.crypto_mask, config.collateral_weights
    sigmas, crash_drops = tb.sigmas, tb.crash_drops
    mv = config.micro_vol
    out = []
    for t, row in enumerate(rows, t0):
        try:
            fc, fr = book_return_factors(row, L, drift, sigmas[t], w, mask, exp)
            micro = (exp(mv * row[n + 1]), exp(mv * row[n + 2])) if mv > 0 else (1.0, 1.0)
        except OverflowError:
            out.append(None)
            continue
        out.append((fc * crash_drops[t], fr, row[n], *micro))
    return out


def _advance(
    config: ScenarioConfig,
    inputs: tuple | None,
    trend: float,
    t: int,
    p_ref: float,
    p_a: float,
    s_a: float,
    p_o: float,
    s_o: float,
    cv: float,
    rv: float,
    fee_rate: float,
    reward_rate: float,
    var_rate: float,
) -> tuple[float, ...]:
    """Sub-steps 2-7 on plain floats: the engine's one copy of the step.

    ``inputs`` are the step's ``step_inputs``, ``t`` the stress clock and
    ``p_ref`` the reference price after the step.
    Returns (p_a, s_a, p_o, s_o, crypto_value, rwa_value, fee_rate,
    reward_rate, var_rate, net_inflow), supplies and books floored at zero.
    Raises OverflowError when a price or a step input blows up.  A two-float
    ``min``/``max`` is written as a conditional that keeps the same operand.
    """
    if inputs is None:
        raise OverflowError("math range error")
    f_crypto, f_rwa, eta, micro_a, micro_o = inputs
    tb = config.tables

    # -- 2: collateral market move -------------------------------------------
    cv *= f_crypto
    rv *= f_rwa

    # -- 3: RWA yield ---------------------------------------------------------
    gross_yield = rv * tb.rwa_rates[t]
    retained = gross_yield * config.treasury_split
    rv += retained
    omega_yield_flow = gross_yield - retained

    # -- 4: demand and protocol flows ----------------------------------------
    policy = config.mint_policy
    w_a = policy.alpha_omega_split
    w_o = 1.0 - w_a
    dmd = config.demand
    base = tb.bases[t]
    # a token with no positive price draws no flow
    flow_a, resp_a = (0.0, 0.0) if p_a <= 0 else demand_flow(dmd, base, w_a, p_a, p_ref, trend, eta)
    flow_o, resp_o = (0.0, 0.0) if p_o <= 0 else demand_flow(dmd, base, w_o, p_o, p_ref, trend, eta)
    net_inflow = flow_a + flow_o

    if net_inflow > 0:
        s_a, s_o, cv, rv = mint(policy, net_inflow, p_a, p_o, s_a, s_o, cv, rv, tb.wc)
    elif net_inflow < 0:
        value = -net_inflow
        a_red = value * w_a / p_a if p_a > 0 else 0.0
        a_red = s_a if s_a < a_red else a_red
        o_red = value * w_o / p_o if p_o > 0 else 0.0
        o_red = s_o if s_o < o_red else o_red
        s_a, s_o, cv, rv = redeem(policy, a_red, o_red, p_a, p_o, s_a, s_o, cv, rv)

    if config.turnover > 0:
        s_a, s_o, cv, rv = redeem(
            policy, config.turnover * s_a, config.turnover * s_o, p_a, p_o, s_a, s_o, cv, rv
        )

    # -- 5: price impact ------------------------------------------------------
    fee = 0.0 if 0.0 > fee_rate else fee_rate
    fee = 1.0 if 1.0 < fee else fee
    reward = reward_rate
    sv_a = p_a * s_a
    sv_o = p_o * s_o
    emission_cost = reward * (sv_a + sv_o)
    if emission_cost < 0 and -emission_cost > cv + rv:
        # buyback budget is capped by available collateral
        reward *= (cv + rv) / -emission_cost
        emission_cost = reward * (sv_a + sv_o)

    mkt_a = resp_a * (1.0 - fee) - reward * sv_a
    mkt_o = resp_o * (1.0 - fee) - reward * sv_o + omega_yield_flow
    p_a = price_impact(p_a, mkt_a, config.depth_alpha) * micro_a
    p_o = price_impact(p_o, mkt_o, config.depth_omega) * micro_o

    # emission proceeds accrue to (or buybacks spend from) the treasury
    old_total = cv + rv
    c_total = old_total + emission_cost
    c_total = 0.0 if 0.0 > c_total else c_total
    if old_total > 0:
        scale = c_total / old_total
        cv *= scale
        rv *= scale
    else:
        cv, rv = 0.0, c_total
    s_a *= 1.0 + reward
    s_o *= 1.0 + reward

    # -- 6: liquidation and treasury skim ------------------------------------
    target_ratio = policy.min_collateral_ratio
    supply_value = (s_a + s_o) * p_ref
    if config.liq_enabled and supply_value > 0 and (cv + rv) / supply_value < target_ratio:
        s_a, s_o, cv, rv = liquidate(
            s_a, s_o, cv, rv, p_ref, target_ratio, config.liq_penalty, config.omega_senior
        )
    if config.skim_rate > 0:
        cv, rv = skim(cv, rv, s_a + s_o, p_ref, target_ratio, config.skim_rate)

    # -- 7: controller --------------------------------------------------------
    mid = 0.5 * (p_a + p_o)
    current = (fee_rate, reward_rate, var_rate)
    if mid > 0:
        action = control_action(mid, p_ref, config.band, config.controller, current)
    else:
        action = NO_ACTION
    fee_rate, reward_rate, var_rate = apply_action(config.controller, current, action)

    return (
        p_a, 0.0 if 0.0 > s_a else s_a, p_o, 0.0 if 0.0 > s_o else s_o,
        0.0 if 0.0 > cv else cv, 0.0 if 0.0 > rv else rv,
        fee_rate, reward_rate, var_rate, net_inflow,
    )


def step_map(x, config: ScenarioConfig):
    """One deterministic transition of the full system on the state vector
    (the equilibrium solver's map): vector in, successor vector out, a list
    (with no numpy call) for a list and an ndarray of the same floats for an
    ndarray.

    ``x`` is read under ``core_state``'s clamp rule (a wrong length raises
    ``StateError``); its units and retired slots do not enter the step.  The
    step is ``_advance`` with zero shocks, zero trend and a frozen clock (the
    stress clock at t = 0, the reference price at ``reference_price(ref_policy,
    0)``), so the map is autonomous.  The successor holds the 9 header
    entries, the holding units derived from the class books and the two
    retired zeros.
    """
    tb = config.tables
    head, _ = from_vector(x, len(config.assets))
    out = _advance(config, tb.zero_inputs, 0.0, 0, tb.p_ref0, *head)
    succ = to_list(out[:HEADER_DIM], holding_units(config, out[4], out[5]))
    return succ if isinstance(x, list) else np.array(succ)


def path_inputs(config: ScenarioConfig, path_index: int) -> list:
    """The ``step_inputs`` of every step of path ``path_index``, from its
    shock block."""
    rows = shock_block(config.seed, path_index, config.horizon, shock_width(config)).tolist()
    return step_inputs(config, rows, 0)


def simulate_path(
    config: ScenarioConfig, path_index: int | range, shared=None
) -> SimTrace | PathBatch:
    """Run one deterministic path; identical inputs give identical traces.

    The path's step inputs are computed once (``path_inputs``); its floats
    go through ``_advance`` step by step, and the records become the trace's
    columns when the path ends.  A step that overflows or
    leaves a non-finite price or collateral value stops the path and sets
    ``diverged``.  A step that overflows leaves no state to record, so its
    record holds zero prices, supplies, collateral and rates.  Once the path
    has ended, ``record_flags`` and ``fold_failed`` fill the ``in_band`` and
    ``failed`` columns; a path's last record is failed when it diverged.

    Given a ``range`` of path indices, the paths run side by side as arrays
    and the result is a ``PathBatch``; ``path_summary`` reads each path's
    summary from it, bit-identical to that of its own trace.

    ``shared`` is what configs that step the same paths (``_paths_key``)
    compute once: for one path its ``path_inputs``, for a range of paths
    the batch's shocks (``path_batch.batch_shocks``), which the batch
    overwrites.
    """
    if isinstance(path_index, range):
        from .path_batch import simulate_batch

        return simulate_batch(config, path_index, shared)
    inputs = path_inputs(config, path_index) if shared is None else shared
    (p_a, s_a, p_o, s_o, cv, rv, fee_rate, reward_rate, var_rate), _ = initial_state(config)
    tb = config.tables
    p_refs, los, his = tb.p_refs, tb.band_lo, tb.band_hi

    records = []
    diverged = False
    trend = 0.0
    prev_mid = 0.5 * (p_a + p_o)
    for t in range(config.horizon):
        p_ref = p_refs[t]
        try:
            p_a, s_a, p_o, s_o, cv, rv, fee_rate, reward_rate, var_rate, net_inflow = _advance(
                config, inputs[t], trend, t, p_ref,
                p_a, s_a, p_o, s_o, cv, rv, fee_rate, reward_rate, var_rate,
            )
        except OverflowError:
            p_a = s_a = p_o = s_o = cv = rv = fee_rate = reward_rate = var_rate = net_inflow = 0.0
            diverged = True
        c_total = cv + rv
        records.append((
            t + 1, p_a, p_o, p_ref, los[t], his[t], s_a, s_o, c_total, cv, rv, net_inflow,
            fee_rate, reward_rate, var_rate,
        ))
        mid = 0.5 * (p_a + p_o)
        if diverged or not (math.isfinite(mid) and math.isfinite(c_total)):
            diverged = True
            break
        trend = (mid - prev_mid) / prev_mid if prev_mid > 0 else 0.0
        prev_mid = mid
    columns = dict(zip(TRACE_COLUMNS, map(list, zip(*records))))
    trace = SimTrace(columns=columns, diverged=diverged)
    in_band, hard = record_flags(config.failure, *map(trace.array, TRACE_COLUMNS[1:9]))[:2]
    trace.columns["in_band"] = in_band.astype(int).tolist()
    trace.columns["failed"] = fold_failed(config.failure, in_band, hard).astype(int).tolist()
    return trace


@dataclass(frozen=True)
class PathSummary:
    path_index: int
    failed: bool
    in_band_fraction: float
    mean_efficiency: float
    terminal_p_a: float
    terminal_p_omega: float
    terminal_p_ref: float
    peak_supply_value: float
    terminal_crypto: float
    terminal_rwa: float
    inflow_r2: float


def path_summary(
    trace: SimTrace | PathBatch, config: ScenarioConfig, path_index: int
) -> PathSummary:
    """Reduce one trace to its failure flag, averages and terminal values.

    ``in_band_fraction`` averages the in-band flag over the records after
    the burn-in (the last record is always kept); ``mean_efficiency``
    averages over all records.  A path that stopped early is averaged over
    the records it has, and the steps it never reached count for nothing.
    The terminal record of a step that raised counts as out of band and,
    holding no collateral, at efficiency 0.

    Given a ``PathBatch``, the summary is that of path ``path_index`` in it.
    """
    if not isinstance(trace, SimTrace):
        from .path_batch import batch_path_summary

        return batch_path_summary(trace, config, path_index)
    cols = trace.columns
    inputs = map(trace.array, TRACE_COLUMNS[1:9])
    _, _, mid, supply_value, eff = record_flags(config.failure, *inputs)
    return _reduce_path(
        path_index, bool(cols["failed"][-1]), trace.array("in_band"), eff, mid,
        trace.array("net_inflow"), supply_value,
        (cols["p_a"][-1], cols["p_omega"][-1], cols["p_ref"][-1], cols["v1"][-1], cols["v2"][-1]),
    )


def _reduce_path(
    path_index: int,
    failed: bool,
    in_band: np.ndarray,
    eff: np.ndarray,
    mid: np.ndarray,
    inflow: np.ndarray,
    supply_value: np.ndarray,
    terminal: tuple,
) -> PathSummary:
    """A path's summary from its per-record series and its terminal
    (p_a, p_omega, p_ref, crypto, rwa): the one reduction behind both forms
    of ``path_summary``."""
    burn = min(BURN_IN_STEPS, max(len(eff) - 1, 0))
    in_band = in_band[burn:]
    p_a, p_o, p_ref, crypto, rwa = terminal
    return PathSummary(
        path_index=path_index,
        failed=failed,
        in_band_fraction=float(np.mean(in_band)) if len(in_band) else 0.0,
        mean_efficiency=float(np.mean(eff)),
        terminal_p_a=float(p_a),
        terminal_p_omega=float(p_o),
        terminal_p_ref=float(p_ref),
        peak_supply_value=float(np.max(supply_value)),
        terminal_crypto=float(crypto),
        terminal_rwa=float(rwa),
        inflow_r2=_inflow_r2(mid, inflow),
    )


def _inflow_r2(mid_prices: np.ndarray, inflow: np.ndarray) -> float:
    """R-squared of mid-price log-returns on the step's net inflow.

    Relative changes keep collapsed-price steps comparable to healthy ones;
    the series is truncated at the first non-positive price.
    """
    positive = mid_prices > 0
    if not positive.all():
        cut = int(np.argmin(positive))
        mid_prices = mid_prices[:cut]
        inflow = inflow[:cut]
    if len(mid_prices) < 3:
        return float("nan")
    # a diverged path's last record of infinite price or inflow makes it
    # NaN, with no numpy warning
    with np.errstate(all="ignore"):
        dp = np.diff(np.log(mid_prices))
        x = inflow[1:]
        if np.std(dp) == 0 or np.std(x) == 0:
            return float("nan")
        # np.corrcoef(x, dp)[0, 1] by its own steps, without np.cov's argument
        # handling: the same means, the same BLAS product on the same shapes
        X = np.stack((x, dp))
        X -= X.mean(axis=1)[:, None]
        c = np.dot(X, X.T.conj())
        c *= np.true_divide(1, X.shape[1] - 1)
        sd = np.sqrt(np.diag(c))
        c /= sd[:, None]
        c /= sd[None, :]
        np.clip(c, -1, 1, out=c)
        r = c[0, 1]
    return float(min(max(r * r, 0.0), 1.0))


@dataclass(frozen=True)
class EnsembleSummary:
    n_paths: int
    failures: int
    p_fail: float
    p_fail_ci: tuple[float, float]
    mean_in_band: float
    mean_efficiency: float
    mean_terminal_p_a: float
    mean_terminal_p_omega: float
    median_terminal_p_a: float
    median_terminal_p_omega: float
    terminal_p_ref: float
    minted_notional: float
    crypto_anchor: float
    rwa_anchor: float
    mean_inflow_r2: float
    in_band_fractions: tuple[float, ...]
    failed_flags: tuple[bool, ...]


def _wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _paths_key(config: ScenarioConfig) -> str:
    """What fixes a path's shocks and step inputs: configs with the same key
    step the same paths.  A repr, so that 0.0 and -0.0 differ."""
    return repr((
        config.seed, config.horizon, config.assets, config.correlation,
        config.collateral_weights, config.micro_vol, config.stress,
    ))


def _summarize_paths(args) -> list[list[PathSummary]]:
    """The summaries of a chunk of consecutive paths, one list per config of
    a group that steps the same paths: each path's shocks, and for a path
    run alone its step inputs, are made once for the group.  A chunk of at
    least ``BATCH_MIN_PATHS`` paths runs side by side, each config on its
    own copy of the shocks, since a batch overwrites them; a smaller one
    runs path by path through the scalar core.  The two give the same bits."""
    configs, paths = args
    if len(paths) >= BATCH_MIN_PATHS:
        from .path_batch import batch_shocks

        shocks = batch_shocks(configs[0], paths)
        done = []
        for k, config in enumerate(configs):
            batch = simulate_path(config, paths, shocks if k == len(configs) - 1 else shocks.copy())
            done.append([path_summary(batch, config, i) for i in paths])
        return done
    done = [[] for _ in configs]
    for i in paths:
        inputs = path_inputs(configs[0], i)
        for config, summaries in zip(configs, done):
            summaries.append(path_summary(simulate_path(config, i, inputs), config, i))
    return done


def _split(items, k: int) -> list:
    """A range of paths, or a list of cells, cut into ``k`` near-equal
    consecutive slices."""
    n = len(items)
    return [items[n * c // k : n * (c + 1) // k] for c in range(k)]


def _path_chunks(n_paths: int, horizon: int) -> list[range]:
    """Paths 0..n-1 split into near-equal consecutive ranges of at most
    ``BATCH_PATH_STEPS`` path-steps each."""
    if n_paths < 1:
        raise ConfigError("need at least one path")
    size = max(BATCH_PATH_STEPS // horizon, 1)
    return _split(range(n_paths), -(-n_paths // size))


def _spawn_pool(processes: int):
    import multiprocessing as mp

    return mp.get_context("spawn").Pool(processes=processes)


def _run_cells(configs: list[ScenarioConfig], n_paths: int, workers: int) -> list[list[PathSummary]]:
    """The summaries of paths 0..n_paths-1 of each config, in config order.

    Configs with the same ``_paths_key`` form a group, and each group's
    paths are cut into ``(configs, range)`` jobs of at most
    ``BATCH_PATH_STEPS`` path-steps a config.  With ``workers > 1`` and more
    than ``BATCH_PATH_STEPS`` of work (every config's path-steps, those run
    path by path weighted by ``SCALAR_STEP_COST``), the jobs are split into
    at least ``workers``, first by config and then by paths, and mapped in
    order on one spawn pool of ``min(workers, len(jobs))`` processes; else
    in-process."""
    groups = {}
    for c, config in enumerate(configs):
        groups.setdefault(_paths_key(config), []).append(c)
    jobs = [
        (cells, paths)
        for cells in groups.values()
        for paths in _path_chunks(n_paths, configs[cells[0]].horizon)
    ]
    cost = sum(
        len(cells) * len(p) * configs[cells[0]].horizon
        * (1 if len(p) >= BATCH_MIN_PATHS else SCALAR_STEP_COST)
        for cells, p in jobs
    )

    def task(job):
        cells, paths = job
        return tuple(configs[c] for c in cells), paths

    if workers > 1 and cost > BATCH_PATH_STEPS:
        parts = -(-workers // len(jobs))
        split = []
        for cells, p in jobs:
            k = min(parts, len(cells))
            split += [(sub, r) for sub in _split(cells, k) for r in _split(p, min(-(-parts // k), len(p)))]
        jobs = split
        with _spawn_pool(min(workers, len(jobs))) as pool:
            done = pool.map(_summarize_paths, [task(job) for job in jobs], chunksize=1)
    else:
        done = [_summarize_paths(task(job)) for job in jobs]
    out = [[] for _ in configs]
    for (cells, _), part in zip(jobs, done):
        for c, summaries in zip(cells, part):
            out[c] += summaries
    return out


def _median(values: list[float]) -> float:
    """``np.median``'s bits, without the ``numpy.ma`` import it makes."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _ensemble_summary(config: ScenarioConfig, summaries: list[PathSummary]) -> EnsembleSummary:
    """The ensemble statistics of ``summaries``, reduced in their order."""
    n_paths = len(summaries)
    failures = sum(1 for s in summaries if s.failed)
    r2s = [s.inflow_r2 for s in summaries if not math.isnan(s.inflow_r2)]
    return EnsembleSummary(
        n_paths=n_paths,
        failures=failures,
        p_fail=failures / n_paths,
        p_fail_ci=_wilson_interval(failures, n_paths),
        mean_in_band=float(np.mean([s.in_band_fraction for s in summaries])),
        mean_efficiency=float(np.mean([s.mean_efficiency for s in summaries])),
        mean_terminal_p_a=float(np.mean([s.terminal_p_a for s in summaries])),
        mean_terminal_p_omega=float(np.mean([s.terminal_p_omega for s in summaries])),
        median_terminal_p_a=_median([s.terminal_p_a for s in summaries]),
        median_terminal_p_omega=_median([s.terminal_p_omega for s in summaries]),
        terminal_p_ref=reference_price(config.ref_policy, config.horizon),
        minted_notional=float(np.mean([s.peak_supply_value for s in summaries])),
        crypto_anchor=float(np.mean([s.terminal_crypto for s in summaries])),
        rwa_anchor=float(np.mean([s.terminal_rwa for s in summaries])),
        mean_inflow_r2=float(np.mean(r2s)) if r2s else float("nan"),
        in_band_fractions=tuple(s.in_band_fraction for s in summaries),
        failed_flags=tuple(s.failed for s in summaries),
    )


def monte_carlo(config: ScenarioConfig, n_paths: int, workers: int = 1) -> EnsembleSummary:
    """Aggregate independent paths 0..n-1 in deterministic index order.

    Results are bitwise identical for any worker count and chunking: each
    path derives its own counter-based stream, a batch reproduces the
    scalar core's bits, and the reduction runs in index order.  ``workers``
    is an upper bound (see ``_run_cells``).
    """
    return _ensemble_summary(config, _run_cells([config], n_paths, workers)[0])


# ---------------------------------------------------------------------------
# frontier sweep


@dataclass(frozen=True)
class FrontierPoint:
    overrides: dict
    d: float
    e: float
    s: float
    pareto: bool = False


def _apply_overrides(config: ScenarioConfig, overrides: dict) -> ScenarioConfig:
    """``config`` with a grid cell's values, built through the config file
    schema, so a cell value is checked as the same value in a file is.  A
    key names the field of the one config-file section that has it;
    ``theta`` names ``collateral_weights``."""
    from .config_io import config_from_dict, config_to_dict

    data = config_to_dict(config)
    for key, value in overrides.items():
        if key == "theta":
            data["collateral_weights"] = value
            continue
        sections = [s for s in data.values() if isinstance(s, dict) and key in s]
        if len(sections) != 1:
            raise ConfigError(f"unknown sweep parameter '{key}'")
        sections[0][key] = value
    return config_from_dict(data)


def pareto_front(points: list[tuple[float, float, float]]) -> list[bool]:
    """Non-domination flags, maximizing every coordinate."""
    flags = []
    for i, p in enumerate(points):
        dominated = any(
            all(qc >= pc for qc, pc in zip(q, p)) and any(qc > pc for qc, pc in zip(q, p))
            for j, q in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags


def frontier_sweep(
    base: ScenarioConfig, grid: dict[str, list], n_paths: int, workers: int = 1
) -> list[FrontierPoint]:
    """Evaluate a parameter grid and mark the Pareto-optimal points.

    All cells run through one ``_run_cells``, so a sweep opens at most one
    pool and cells that step the same paths share their shocks and step
    inputs; each cell is reduced as ``monte_carlo`` reduces an ensemble.
    """
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigError("sweep grid must be non-empty")
    keys = list(grid.keys())
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    configs = [_apply_overrides(base, overrides) for overrides in cells]
    summaries = [
        _ensemble_summary(cfg, done) for cfg, done in zip(configs, _run_cells(configs, n_paths, workers))
    ]
    results = [
        (overrides, decentralization(cfg.governance), summary.mean_efficiency, 1.0 - summary.p_fail)
        for overrides, cfg, summary in zip(cells, configs, summaries)
    ]
    flags = pareto_front([(d, e, s) for _, d, e, s in results])
    return [
        FrontierPoint(overrides=o, d=d, e=e, s=s, pareto=f)
        for (o, d, e, s), f in zip(results, flags)
    ]
