"""Path engine, shock streams, failure logic, ensembles, and sweeps."""

import json
import math
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import janus_sim.path_batch as path_batch
import janus_sim.sim_engine as sim_engine
from janus_sim.config_io import PRESET_NAMES, config_from_dict, config_to_dict, load_preset
from janus_sim.controller import ControllerParams
from janus_sim.core_state import (
    GovernanceDistribution,
    PegBand,
    ReferencePricePolicy,
    band_bounds,
    reference_price,
    to_vector,
)
from janus_sim.protocol import collateral_ratio
from janus_sim.market import AssetKind, AssetSpec, CorrelationMatrix, DemandParams
from janus_sim.protocol import MintPolicy, redeem
from janus_sim.rng import path_generator, shock_block
from janus_sim.sim_engine import (
    ConfigError,
    FailureDef,
    InitialConditions,
    ScenarioConfig,
    SimTrace,
    StressKind,
    StressOverlay,
    TRACE_COLUMNS,
    _wilson_interval,
    frontier_sweep,
    initial_state,
    monte_carlo,
    pareto_front,
    path_summary,
    price_impact,
    simulate_path,
    step_map,
)
from janus_sim.sim_engine import shock_width


def small_config(**overrides):
    base = dict(
        assets=(
            AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.0001, vol=0.02),
            AssetSpec(id=1, kind=AssetKind.RWA, drift=0.0, vol=0.0005, yield_rate=0.0001),
        ),
        correlation=CorrelationMatrix(((1.0, 0.1), (0.1, 1.0))),
        collateral_weights=(0.5, 0.5),
        demand=DemandParams(base_inflow=100.0, deviation_gain=-4.0, noise_vol=20.0),
        mint_policy=MintPolicy(min_collateral_ratio=1.4, mint_fee=0.002, redeem_fee=0.002),
        controller=ControllerParams(reward_gain=2.0, reward_min=-0.04, reward_max=0.04, leak=0.1),
        band=PegBand(0.02),
        ref_policy=ReferencePricePolicy(1.0, 0.0001),
        governance=GovernanceDistribution((0.5, 0.5)),
        horizon=120,
        initial=InitialConditions(1.0, 360.0, 1.0, 360.0, 1250.0),
        seed=3,
        depth_alpha=10_000.0,
        depth_omega=10_000.0,
        turnover=0.1,
        micro_vol=0.001,
        treasury_split=0.5,
        skim_rate=0.12,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def quiescent_config():
    """A scenario already at rest: no flows, no noise, no drift."""
    return ScenarioConfig(
        assets=(AssetSpec(id=0, kind=AssetKind.RWA, drift=0.0, vol=0.0),),
        correlation=CorrelationMatrix.identity(1),
        collateral_weights=(1.0,),
        demand=DemandParams(base_inflow=0.0),
        mint_policy=MintPolicy(min_collateral_ratio=1.0),
        controller=ControllerParams(),
        band=PegBand(0.02),
        ref_policy=ReferencePricePolicy(1.0, 0.0),
        governance=GovernanceDistribution((1.0,)),
        horizon=10,
        initial=InitialConditions(1.0, 500.0, 1.0, 500.0, 1000.0),
        seed=0,
    )


class TestShockStream:
    def test_same_path_same_block(self):
        a = shock_block(7, 3, 50, 6)
        b = shock_block(7, 3, 50, 6)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = shock_block(7, 3, 50, 6)
        b = shock_block(7, 4, 50, 6)
        assert not np.allclose(a, b)

    def test_block_shape_and_scale(self):
        block = shock_block(0, 0, 4000, 5)
        assert block.shape == (4000, 5)
        assert abs(block.mean()) < 0.05
        assert abs(block.std() - 1.0) < 0.05

    def test_generator_keyed_by_seed_and_path(self):
        g1 = path_generator(1, 2)
        g2 = path_generator(1, 2)
        assert g1.random() == g2.random()


class TestPriceImpact:
    def test_zero_flow_identity(self):
        assert price_impact(1.5, 0.0, 1000.0) == 1.5

    def test_exponential_in_flow(self):
        assert price_impact(1.0, 500.0, 1000.0) == pytest.approx(math.exp(0.5))

    def test_symmetric_round_trip(self):
        p = price_impact(price_impact(2.0, 300.0, 1000.0), -300.0, 1000.0)
        assert p == pytest.approx(2.0)

    def test_bad_depth_rejected(self):
        # the config is the one home of the check: price_impact trusts its depth
        for field in ("depth_alpha", "depth_omega"):
            for depth in (0.0, -1.0):
                with pytest.raises(ConfigError, match="market depths must be positive"):
                    small_config(**{field: depth})


class TestConfigValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            small_config(collateral_weights=(0.7, 0.7))

    def test_correlation_size_must_match(self):
        with pytest.raises(ConfigError):
            small_config(correlation=CorrelationMatrix.identity(3))

    def test_horizon_positive(self):
        with pytest.raises(ConfigError):
            small_config(horizon=0)

    def test_stress_must_fit_horizon(self):
        with pytest.raises(ConfigError):
            small_config(
                stress=StressOverlay(StressKind.CRYPTO_CRASH, onset=110, magnitude=0.5, duration=30)
            )

    @pytest.mark.parametrize("weights", [(1.2, -0.2), (math.nan, 1.0), (1.0 + 5e-10, 0.0)])
    def test_weights_must_lie_in_unit_interval(self, weights):
        # a NaN weight, or one just above 1, passes the sum check
        with pytest.raises(ConfigError):
            small_config(collateral_weights=weights)

    @pytest.mark.parametrize("penalty", [-0.5, 1.5, math.nan])
    def test_liquidation_penalty_must_lie_in_unit_interval(self, penalty):
        # below 0 the recovery can reach the target ratio and liquidate
        # divides by zero; above 1 the recovery is negative
        with pytest.raises(ConfigError, match="liquidation penalty"):
            small_config(liq_penalty=penalty)
        for edge in (0.0, 1.0):
            small_config(liq_penalty=edge)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
    def test_seed_must_fit_64_bits(self, seed):
        # rng keys a path by the seed's 64 bits
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=seed)
        for edge in (0, 2**64 - 1):
            small_config(seed=edge)

    @pytest.mark.parametrize(
        "field", ["alpha_price", "alpha_supply", "omega_price", "omega_supply", "c_total"]
    )
    def test_negative_initial_conditions_rejected(self, field):
        with pytest.raises(ConfigError):
            InitialConditions(**{field: -1.0})

    @pytest.mark.parametrize("p0,growth_rate,horizon", [(1.0, 1.0, 1100), (1e306, 0.01, 1000)])
    def test_reference_price_must_stay_finite(self, p0, growth_rate, horizon):
        # (1 + g) ** T raises OverflowError in the first case; the product
        # with p0 becomes inf without raising in the second
        with pytest.raises(ConfigError, match="reference price"):
            small_config(ref_policy=ReferencePricePolicy(p0, growth_rate), horizon=horizon)

    def test_asset_ids_must_index(self):
        with pytest.raises(ConfigError):
            small_config(
                assets=(
                    AssetSpec(id=1, kind=AssetKind.CRYPTO, drift=0.0, vol=0.01),
                    AssetSpec(id=1, kind=AssetKind.RWA, drift=0.0, vol=0.01),
                )
            )


def negative_reward_data() -> dict:
    """flatcoin_like with a reward floor of -1.5: on paths 2 and 4 (seed
    882053) the reward would turn the supplies negative."""
    data = config_to_dict(load_preset("flatcoin_like"))
    data.update(horizon=40, seed=882053)
    data["controller"].update(reward_gain=20.0, reward_min=-1.5)
    data["market"].update(depth_alpha=5.0, depth_omega=5.0)
    data["demand"].update(sentiment_gain=0.0, deviation_gain=0.0, noise_vol=2000.0)
    return data


def reversed_ids_config():
    """janus_baseline with its two asset ids swapped: the crypto asset,
    listed first, has id 1."""
    data = config_to_dict(load_preset("janus_baseline"))
    for asset in data["assets"]:
        asset["id"] = len(data["assets"]) - 1 - asset["id"]
    return config_from_dict(data)


def class_book_shares(cfg, cv, rv):
    """Each holding's weight share of its own class book, in asset order."""
    crypto = [s.kind is AssetKind.CRYPTO for s in cfg.assets]
    wc = sum(w for w, c in zip(cfg.collateral_weights, crypto) if c)
    return [
        cv * w / wc if c else rv * w / (1.0 - wc)
        for w, c in zip(cfg.collateral_weights, crypto)
    ]


class TestHoldingUnits:
    """Holding units come from the holding's own class book when asset ids
    are not in list order."""

    def test_step_map(self):
        cfg = reversed_ids_config()
        assert [s.id for s in cfg.assets] == [1, 0]
        x = step_map(to_vector(*initial_state(cfg)), cfg)
        assert x[4] != pytest.approx(x[5])
        assert list(x[9:11]) == pytest.approx(class_book_shares(cfg, x[4], x[5]), rel=1e-12)

    def test_equilibrium(self, tmp_path):
        from janus_sim.cli import main

        cfg = reversed_ids_config()
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["equilibrium", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        assert main(["equilibrium", "--preset", "janus_baseline", "--out", str(tmp_path / "b")]) == 0
        x = json.loads((tmp_path / "r" / "equilibrium.json").read_text())["x_star"]
        assert x[4] != pytest.approx(x[5])
        assert x[9:11] == pytest.approx(class_book_shares(cfg, x[4], x[5]), rel=1e-12)
        # asset ids are labels: the solve is the preset's
        assert x == json.loads((tmp_path / "b" / "equilibrium.json").read_text())["x_star"]


class TestStepOnce:
    """Single steps of the engine's core through the solver's map."""

    def test_pure_given_inputs(self):
        cfg = small_config()
        x0 = to_vector(*initial_state(cfg))
        before = x0.tobytes()
        assert step_map(x0, cfg).tobytes() == step_map(x0, cfg).tobytes()
        assert x0.tobytes() == before

    def test_quiescent_state_is_fixed(self):
        cfg = quiescent_config()
        x0 = to_vector(*initial_state(cfg))
        x1 = step_map(x0, cfg)
        assert x1[:4].tobytes() == x0[:4].tobytes()  # prices and supplies
        assert x1[4] + x1[5] == pytest.approx(x0[4] + x0[5])

    def test_collateral_identity_preserved(self):
        # the holding units always add up to the two class books
        cfg = small_config()
        x = to_vector(*initial_state(cfg))
        for _ in range(20):
            x = step_map(x, cfg)
            assert x[9:-2].sum() == pytest.approx(x[4] + x[5], rel=1e-9)


class TestSimulatePath:
    def test_deterministic(self):
        cfg = small_config()
        t1 = simulate_path(cfg, 5)
        t2 = simulate_path(cfg, 5)
        for col in TRACE_COLUMNS:
            assert t1.columns[col] == t2.columns[col]

    def test_row_count_matches_horizon(self):
        cfg = small_config()
        assert len(simulate_path(cfg, 0)) == cfg.horizon

    def test_band_columns_consistent(self):
        tr = simulate_path(small_config(), 0)
        lo = tr.array("band_lo")
        hi = tr.array("band_hi")
        p_ref = tr.array("p_ref")
        assert np.allclose(hi - p_ref, p_ref - lo)

    def test_in_band_column_matches_prices(self):
        tr = simulate_path(small_config(), 1)
        computed = (
            (tr.array("band_lo") <= tr.array("p_a"))
            & (tr.array("p_a") <= tr.array("band_hi"))
            & (tr.array("band_lo") <= tr.array("p_omega"))
            & (tr.array("p_omega") <= tr.array("band_hi"))
        )
        assert np.array_equal(computed.astype(int), tr.array("in_band").astype(int))

    def test_grace_streak_triggers_failure(self):
        # reflexive demand with no controller: prices leave the band and stay out
        cfg = small_config(
            demand=DemandParams(base_inflow=100.0, deviation_gain=6.0, noise_vol=20.0),
            controller=ControllerParams(leak=0.0, reward_neutral=0.01, reward_max=0.02),
            failure=FailureDef(grace=5, floor=0.01),
            liq_enabled=False,
        )
        tr = simulate_path(cfg, 0)
        assert tr.columns["failed"][-1] == 1

    def test_failure_is_sticky(self):
        cfg = small_config(
            demand=DemandParams(base_inflow=100.0, deviation_gain=6.0, noise_vol=20.0),
            controller=ControllerParams(leak=0.0, reward_neutral=0.01, reward_max=0.02),
            failure=FailureDef(grace=5, floor=0.01),
            liq_enabled=False,
        )
        flags = simulate_path(cfg, 0).columns["failed"]
        first = flags.index(1)
        assert all(f == 1 for f in flags[first:])

    def test_undercollateralization_fails(self):
        cfg = small_config(
            initial=InitialConditions(1.0, 360.0, 1.0, 360.0, 500.0), liq_enabled=False
        )
        tr = simulate_path(cfg, 0)
        assert tr.columns["failed"][0] == 1


def diverging_config(**overrides):
    """janus_baseline with thin markets, reflexive demand and no fee or
    reward control: most paths blow up within a few steps."""
    cfg = load_preset("janus_baseline")
    return replace(
        cfg,
        depth_alpha=20.0,
        depth_omega=20.0,
        demand=replace(cfg.demand, deviation_gain=4.0, sentiment_gain=5.0),
        controller=replace(cfg.controller, fee_gain=0.0, reward_gain=0.0),
        **overrides,
    )


class TestDivergence:
    def test_diverged_paths_count_as_failures(self):
        cfg = diverging_config()
        for i in range(10):
            tr = simulate_path(cfg, i)
            if len(tr) < cfg.horizon:
                assert tr.diverged
                assert tr.columns["failed"][-1] == 1
                # the terminal record stands for the step that raised
                assert tr.columns["t"][-1] == len(tr)
                assert tr.columns["p_a"][-1] == 0.0 and tr.columns["c_total"][-1] == 0.0
                assert tr.columns["in_band"][-1] == 0
        # paths 1, 2, 5, 6, 8 and 9 blow up within three steps; the failure
        # rules flag the rest from their first step
        assert monte_carlo(cfg, 10).failures == 10

    def test_full_payout_leaves_books_empty_not_diverged(self):
        # Without a liquidation penalty an undercollateralized book burns all
        # supply and pays out all collateral.  Pro rata, a share of these
        # books rounds to more than the book holds; such a book is left empty,
        # so the payout empties both books instead of overdrawing one.
        cfg = replace(
            quiescent_config(),
            assets=(
                AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.0, vol=0.0),
                AssetSpec(id=1, kind=AssetKind.RWA, drift=0.0, vol=0.0),
            ),
            correlation=CorrelationMatrix.identity(2),
            collateral_weights=(0.75, 0.25),
            mint_policy=MintPolicy(min_collateral_ratio=1.1),
            liq_penalty=0.0,
            initial=InitialConditions(1.0, 623.3, 1.0, 742.0, 795.4),
        )
        x = step_map(to_vector(*initial_state(cfg)), cfg)
        assert x[4] == 0.0 and x[5] == 0.0  # the two books
        assert x[1] + x[3] == 0.0  # the two supplies
        assert not x[9:-2].any()  # the holding units
        tr = simulate_path(cfg, 0)
        assert not tr.diverged and len(tr) == cfg.horizon
        assert min(tr.columns["v1"]) >= 0.0 and min(tr.columns["v2"]) >= 0.0

    def test_overflowing_efficiency_is_inf_without_warning(self):
        # supply value over a tiny book overflows the efficiency quotient
        trace = SimTrace()
        for t in range(3):
            row = dict.fromkeys(TRACE_COLUMNS, 0.0)
            row.update(t=t + 1, p_a=1.0, p_omega=1.0, p_ref=1.0, band_lo=0.98, band_hi=1.02,
                       supply_a=1e300, supply_omega=1e300, c_total=1e-300, in_band=1, failed=0)
            for c in TRACE_COLUMNS:
                trace.columns[c].append(row[c])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = path_summary(trace, small_config(), 0)
        assert summary.mean_efficiency == math.inf

    @settings(deadline=None, max_examples=25)
    @given(
        depth=st.floats(5.0, 500.0),
        deviation_gain=st.floats(-6.0, 6.0),
        sentiment_gain=st.floats(0.0, 8.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_truncated_path_is_failed(self, depth, deviation_gain, sentiment_gain, seed):
        cfg = diverging_config(horizon=40, seed=seed)
        cfg = replace(
            cfg,
            depth_alpha=depth,
            depth_omega=depth,
            demand=replace(cfg.demand, deviation_gain=deviation_gain, sentiment_gain=sentiment_gain),
        )
        tr = simulate_path(cfg, 0)
        if len(tr) < cfg.horizon:
            assert path_summary(tr, cfg, 0).failed
        if tr.diverged:
            assert tr.columns["failed"][-1] == 1


def replay(cfg, path_index):
    """Rebuild a path's trace columns by stepping ``_advance`` along its
    shock rows with ``simulate_path``'s trend and failure rules; each step's
    inputs come from ``step_inputs`` on its row alone (``simulate_path``
    computes the whole block's at once), and its reference price and band
    from ``reference_price`` and ``band_bounds``.

    Returns the columns and the step that raised (None if none did).
    """
    (p_a, s_a, p_o, s_o, cv, rv, fee, reward, var), _ = initial_state(cfg)
    shocks = shock_block(cfg.seed, path_index, cfg.horizon, shock_width(cfg))
    cols = {c: [] for c in TRACE_COLUMNS}
    trend = 0.0
    prev_mid = 0.5 * (p_a + p_o)
    out_streak = 0
    failed = False
    grace, floor = cfg.failure.grace, cfg.failure.floor
    for t in range(cfg.horizon):
        p_ref = reference_price(cfg.ref_policy, t + 1)
        lo, hi = band_bounds(p_ref, cfg.band)
        (inputs,) = sim_engine.step_inputs(cfg, [shocks[t].tolist()], t)
        try:
            p_a, s_a, p_o, s_o, cv, rv, fee, reward, var, net_inflow = sim_engine._advance(
                cfg, inputs, trend, t, p_ref,
                p_a, s_a, p_o, s_o, cv, rv, fee, reward, var,
            )
        except OverflowError:
            return cols, t
        in_band = (lo <= p_a <= hi) and (lo <= p_o <= hi)
        mid = 0.5 * (p_a + p_o)
        finite = math.isfinite(mid) and math.isfinite(cv + rv)
        if not finite:
            failed = True
        else:
            trend = (mid - prev_mid) / prev_mid if prev_mid > 0 else 0.0
            prev_mid = mid
            out_streak = 0 if in_band else out_streak + 1
            failed = (
                failed
                or (grace > 0 and out_streak >= grace)
                or (grace == 0 and not in_band)
                or collateral_ratio(cv + rv, s_a + s_o, p_ref) < 1.0
                or min(p_a, p_o) <= floor * p_ref
            )
        row = dict(
            t=t + 1, p_a=p_a, p_omega=p_o, p_ref=p_ref, band_lo=lo, band_hi=hi,
            supply_a=s_a, supply_omega=s_o, c_total=cv + rv, v1=cv, v2=rv,
            net_inflow=net_inflow, fee_rate=fee, reward_rate=reward, var_rate=var,
            in_band=int(in_band), failed=int(failed),
        )
        for c in TRACE_COLUMNS:
            cols[c].append(row[c])
        if not finite:
            break
    return cols, None


def exact(columns):
    """Columns as reprs: equal only for the same floats (NaN included)."""
    return {c: [repr(v) for v in vals] for c, vals in columns.items()}


STRESSES = {
    StressKind.CRYPTO_CRASH: 0.5,
    StressKind.RWA_SHORTFALL: 0.8,
    StressKind.DEMAND_COLLAPSE: 0.9,
}

REPLAY_CASES = [(name, None) for name in PRESET_NAMES] + [
    (name, kind) for name in PRESET_NAMES for kind in STRESSES
]


def reflexive_config(grace):
    """small_config over 40 steps with reflexive demand and a passive
    controller: prices leave the band for runs of up to 25 records, and only
    the grace streak fails a path."""
    return small_config(
        demand=DemandParams(base_inflow=100.0, deviation_gain=6.0, noise_vol=20.0),
        controller=ControllerParams(leak=0.0, reward_neutral=0.01, reward_max=0.02),
        failure=FailureDef(grace=grace, floor=0.01),
        liq_enabled=False,
        horizon=40,
    )


# The edges of the failure rules: a config and a path that shows the edge.
RULE_CASES = {
    "grace_0": (lambda: reflexive_config(grace=0), 0),
    "grace_1": (lambda: reflexive_config(grace=1), 0),
    "horizon_under_grace": (lambda: reflexive_config(grace=60), 0),
    # a lone out-of-band record (step 18) before the two that fail the path
    "streak_reset": (lambda: replace(load_preset("janus_baseline"), failure=FailureDef(grace=2)), 1),
    # ends on a recorded step of NaN prices and collateral
    "non_finite": (lambda: diverging_config(seed=14), 0),
}


def stress_window(kind, onset, duration):
    """janus_baseline over 40 steps under a ``kind`` overlay on steps
    ``onset`` to ``onset + duration - 1``."""
    cfg = replace(load_preset("janus_baseline"), horizon=40)
    return replace(cfg, stress=StressOverlay(kind, onset=onset, magnitude=STRESSES[kind], duration=duration))


# Stress windows at the edges of the clock: the first step alone, the whole
# horizon, the last step alone, a window that ends on the last step, none.
WINDOWS = [(0, 1), (0, 40), (39, 1), (25, 15), (20, 0)]


def stress_terms(cfg, t):
    """The stress overlay's terms at clock ``t`` as the step once computed
    them: (asset vols, crash drop, RWA yield rate, base inflow)."""
    crypto = [s.kind is AssetKind.CRYPTO for s in cfg.assets]
    sigma = tuple(s.vol for s in cfg.assets)
    wr = 1.0 - sum(w for w, c in zip(cfg.collateral_weights, crypto) if c)
    yld = sum(w * s.yield_rate for w, s, c in zip(cfg.collateral_weights, cfg.assets, crypto) if not c)
    rwa_rate = yld / wr if wr > 0 else 0.0
    base = cfg.demand.base_inflow
    crash_drop = 1.0
    overlay = cfg.stress
    if overlay is not None and overlay.active(t):
        if overlay.kind is StressKind.CRYPTO_CRASH:
            if t == overlay.onset:
                crash_drop = 1.0 - overlay.magnitude
            sigma = tuple(v * 2.0 if c else v for v, c in zip(sigma, crypto))
        elif overlay.kind is StressKind.RWA_SHORTFALL:
            rwa_rate *= 1.0 - overlay.magnitude
        else:
            base *= 1.0 - overlay.magnitude
    return sigma, crash_drop, rwa_rate, base


def quiet_config(**overrides):
    """janus_baseline over 40 steps with no demand, turnover or controller
    gain: nothing but the shocks moves the prices."""
    cfg = load_preset("janus_baseline")
    return replace(
        cfg, horizon=40, turnover=0.0,
        demand=replace(cfg.demand, base_inflow=0.0, noise_vol=0.0, deviation_gain=0.0, sentiment_gain=0.0),
        controller=replace(cfg.controller, fee_gain=0.0, reward_gain=0.0, rate_gain=0.0),
        **overrides,
    )


def book_overflow_config(seed):
    """janus_baseline over 40 steps with an unweighted crypto asset whose
    step factor exp(708 - 0.5 + z) overflows once its shock passes 2.28."""
    cfg = load_preset("janus_baseline")
    crypto = replace(cfg.assets[0], drift=708.0, vol=1.0)
    return replace(cfg, horizon=40, seed=seed, assets=(crypto, cfg.assets[1]), collateral_weights=(0.0, 1.0))


# A step input whose exp overflows at a step (path 0 raises there): (config, step)
INPUT_OVERFLOWS = {
    "book_factor": (lambda: book_overflow_config(seed=3), 22),
    "micro_factor": (lambda: quiet_config(micro_vol=250.0, seed=19), 16),
}


def assert_ends_raised(cfg, path, cols, raised):
    """The trace of ``path`` is ``cols`` and then the zeroed terminal record
    of step ``raised``."""
    tr = simulate_path(cfg, path)
    assert tr.diverged and raised == len(tr) - 1
    assert exact(cols) == {c: v[:-1] for c, v in exact(tr.columns).items()}
    p_ref = reference_price(cfg.ref_policy, raised + 1)
    terminal = (raised + 1, 0.0, 0.0, p_ref, *band_bounds(p_ref, cfg.band)) + (0.0,) * 9 + (0, 1)
    assert list(map(repr, list(tr.rows())[-1])) == list(map(repr, terminal))


class TestOneCore:
    """``simulate_path`` replays as ``_advance`` stepped along its shock rows."""

    @pytest.mark.parametrize("name,kind", REPLAY_CASES)
    def test_replay_matches_presets(self, name, kind):
        cfg = load_preset(name)
        if kind is not None:
            cfg = replace(cfg, stress=StressOverlay(kind, onset=60, magnitude=STRESSES[kind], duration=40))
        for i in range(2):
            cols, raised = replay(cfg, i)
            assert raised is None
            assert exact(cols) == exact(simulate_path(cfg, i).columns)

    def test_replay_matches_omega_senior_crash(self):
        base = load_preset("janus_baseline")
        cfg = replace(
            base,
            omega_senior=True,
            stress=StressOverlay(StressKind.CRYPTO_CRASH, onset=40, magnitude=0.7, duration=30),
        )
        for i in range(3):
            cols, raised = replay(cfg, i)
            assert raised is None
            assert exact(cols) == exact(simulate_path(cfg, i).columns)

    @pytest.mark.parametrize("case", list(RULE_CASES))
    def test_replay_matches_failure_rules(self, case):
        make, path = RULE_CASES[case]
        cfg = make()
        cols, raised = replay(cfg, path)
        tr = simulate_path(cfg, path)
        assert raised is None and tr.diverged == (case == "non_finite")
        assert exact(cols) == exact(tr.columns)

    def test_replay_raises_where_diverged_path_ends(self):
        cfg = diverging_config()
        raised_any = False
        for i in range(10):
            cols, raised = replay(cfg, i)
            if raised is None:
                assert exact(cols) == exact(simulate_path(cfg, i).columns)
            else:
                raised_any = True
                # the trace ends with the terminal record of the step that raised
                assert_ends_raised(cfg, i, cols, raised)
        assert raised_any

    @pytest.mark.parametrize("kind", list(STRESSES))
    @pytest.mark.parametrize("onset,duration", WINDOWS)
    def test_stress_terms_at_the_window_edges(self, kind, onset, duration):
        cfg = stress_window(kind, onset, duration)
        tb = cfg.tables
        for t in range(cfg.horizon):
            terms = (tb.sigmas[t], tb.crash_drops[t], tb.rwa_rates[t], tb.bases[t])
            assert repr(terms) == repr(stress_terms(cfg, t))
        for i in range(2):
            cols, raised = replay(cfg, i)
            assert raised is None
            assert exact(cols) == exact(simulate_path(cfg, i).columns)

    def test_price_on_the_floor_is_a_hard_failure(self):
        # min(p_a, p_o) exactly at floor * p_ref fails the record, one ulp
        # above it does not; the books back the supply twice over
        failure = FailureDef(floor=0.5)
        p_ref = 1.02
        on = failure.floor * p_ref
        p_a = np.array([on, 1.0, math.nextafter(on, math.inf), on])
        p_o = np.array([1.0, on, 1.0, math.nextafter(on, 0.0)])
        _, hard, *_ = sim_engine.record_flags(failure, p_a, p_o, p_ref, 0.0, 2.0, 100.0, 100.0, 408.0)
        assert hard.tolist() == [True, True, False, True]

    def test_step_map_takes_the_stress_at_clock_zero(self):
        # an overlay from step 0 reaches the map: a crash drops the crypto book
        calm = replace(load_preset("janus_baseline"), horizon=40)
        crash = stress_window(StressKind.CRYPTO_CRASH, 0, 1)
        x = to_vector(*initial_state(calm))
        (inputs,) = sim_engine.step_inputs(crash, [(0.0,) * shock_width(crash)], 0)
        assert repr(crash.tables.zero_inputs) == repr(inputs)
        assert step_map(x, crash)[4] < 0.6 * step_map(x, calm)[4]

    @pytest.mark.parametrize("case", list(INPUT_OVERFLOWS))
    def test_replay_raises_where_a_step_input_overflows(self, case, tmp_path, capsys):
        from janus_sim.cli import EXIT_DIVERGED, main

        make, step = INPUT_OVERFLOWS[case]
        cfg = make()
        rows = shock_block(cfg.seed, 0, cfg.horizon, shock_width(cfg)).tolist()
        inputs = sim_engine.step_inputs(cfg, rows, 0)
        assert [t for t, x in enumerate(inputs) if x is None][0] == step
        cols, raised = replay(cfg, 0)
        assert raised == step
        assert_ends_raised(cfg, 0, cols, raised)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_DIVERGED
        assert capsys.readouterr().err == f"simulation diverged at step {step + 1} of 40\n"

    def test_infinite_step_input_is_a_non_finite_record(self):
        # exp(inf * z) is inf for z > 0, without raising: the price is inf
        cfg = replace(load_preset("janus_baseline"), horizon=40, micro_vol=math.inf, seed=0)
        cols, raised = replay(cfg, 0)
        tr = simulate_path(cfg, 0)
        assert raised is None and tr.diverged and len(tr) == 1
        assert tr.columns["p_a"][-1] == math.inf and math.isfinite(tr.columns["c_total"][-1])
        assert exact(cols) == exact(tr.columns)


def batch_matches_scalar(cfg, paths):
    """Run ``paths`` as one batch (no warning may leave it) and path by path;
    assert the summaries agree by repr.  Returns the scalar traces."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = simulate_path(cfg, paths)
    traces = [simulate_path(cfg, i) for i in paths]
    assert len(batch) == sum(len(tr) for tr in traces)
    assert list(batch.lengths) == [len(tr) for tr in traces]
    assert list(batch.diverged) == [tr.diverged for tr in traces]
    for i, tr in zip(paths, traces):
        assert repr(path_summary(batch, cfg, i)) == repr(path_summary(tr, cfg, i))
    return traces


def rerun_case(**overrides):
    """janus_baseline over 40 steps with ``overrides``; a dict replaces
    fields of that section."""
    cfg = replace(load_preset("janus_baseline"), horizon=40)
    return replace(cfg, **{
        k: replace(getattr(cfg, k), **v) if isinstance(v, dict) else v for k, v in overrides.items()
    })


# One scenario per reason the batch leaves a path-step to the scalar core;
# in each, that reason is the first to flag some path-step.
RERUN_CASES = {
    # a dead Alpha under outflows: no mint divides by its zero price, so no
    # NaN reaches a later flag and only the dead-token flag catches the step
    "dead_token": lambda: rerun_case(initial=dict(alpha_price=0.0), demand=dict(base_inflow=-300.0)),
    "exp_overflow": lambda: diverging_config(horizon=40),
    "unpaid_redemption": lambda: rerun_case(
        initial=dict(c_total=0.0), demand=dict(base_inflow=0.0), liq_enabled=False
    ),
    "capped_buyback": lambda: rerun_case(
        initial=dict(c_total=1000.0), controller=dict(reward_min=-1.0, reward_neutral=-0.5),
        liq_enabled=False,
    ),
    "empty_books": lambda: rerun_case(
        initial=dict(alpha_supply=0.0, omega_supply=0.0, c_total=0.0), demand=dict(base_inflow=0.0)
    ),
    "liquidation": lambda: rerun_case(mint_policy=dict(min_collateral_ratio=3.0)),
    "mid_price_at_zero": lambda: rerun_case(depth_alpha=1e-3, depth_omega=1e-3),
}


# The knobs of ``random_scenario``.
SCENARIO_KNOBS = dict(
    name=st.sampled_from(PRESET_NAMES),
    depth=st.sampled_from([5.0, 50.0, 10_000.0]),
    turnover=st.sampled_from([0.0, 0.1, 0.9]),
    micro_vol=st.sampled_from([0.0, 0.001, 0.5]),
    skim_rate=st.sampled_from([0.0, 0.12, 1.0]),
    liq=st.sampled_from([(True, False), (True, True), (False, False)]),
    grace=st.sampled_from([0, 1, 14]),
    reward=st.sampled_from([(0.0, None), (2.0, None), (20.0, None), (200.0, -1.0)]),
    initial=st.sampled_from([{}, dict(alpha_price=0.0), dict(c_total=0.0)]),
    min_ratio=st.sampled_from([None, 3.0]),
    fee_bounds=st.sampled_from([None, (-0.5, 3.0)]),
    seed=st.integers(0, 2**32 - 1),
)


def random_scenario(name, depth, turnover, micro_vol, skim_rate, liq, grace, reward, initial,
                    min_ratio, fee_bounds, seed):
    """A preset over 40 steps with drawn knobs.  The draws reach every
    path-step the batch leaves to the scalar core: a dead token, empty
    books, unpaid redemptions, capped buybacks (reward_min -1) and
    liquidations (a minimum ratio of 3); the fee bounds reach both sides of
    the fee clamp."""
    base = load_preset(name)
    ctl = replace(base.controller, reward_gain=reward[0])
    if reward[1] is not None:
        ctl = replace(ctl, reward_min=reward[1])
    if fee_bounds is not None:
        ctl = replace(ctl, fee_min=fee_bounds[0], fee_max=fee_bounds[1])
    policy = base.mint_policy
    if min_ratio is not None:
        policy = replace(policy, min_collateral_ratio=min_ratio)
    return replace(
        base, horizon=40, seed=seed, depth_alpha=depth, depth_omega=depth,
        turnover=turnover, micro_vol=micro_vol, skim_rate=skim_rate,
        liq_enabled=liq[0], omega_senior=liq[1], failure=FailureDef(grace=grace),
        controller=ctl, mint_policy=policy, initial=replace(base.initial, **initial),
    )


B = path_batch.BLOCK_STEPS


class TestPathBatch:
    """A batch of paths summarizes bit for bit as the scalar core's paths."""

    @pytest.mark.parametrize("name,kind", REPLAY_CASES)
    def test_presets_and_stresses(self, name, kind):
        cfg = load_preset(name)
        if kind is not None:
            cfg = replace(cfg, stress=StressOverlay(kind, onset=60, magnitude=STRESSES[kind], duration=40))
        batch_matches_scalar(cfg, range(3, 7))

    def test_omega_senior_crash(self):
        cfg = replace(
            load_preset("janus_baseline"),
            omega_senior=True,
            stress=StressOverlay(StressKind.CRYPTO_CRASH, onset=40, magnitude=0.7, duration=30),
        )
        batch_matches_scalar(cfg, range(6))

    def test_diverging_paths(self):
        # both divergence outcomes: a step that raised (zeroed terminal
        # record) and a recorded non-finite step
        raised = non_finite = 0
        for seed in (1, 7, 14, 41):
            for tr in batch_matches_scalar(diverging_config(seed=seed), range(40)):
                if tr.diverged and tr.columns["c_total"][-1] == 0.0:
                    raised += 1
                elif tr.diverged:
                    non_finite += 1
        assert (raised, non_finite) == (84, 1)

    def test_summary_blocks_keep_bits(self):
        # A batch reduces its paths a block of B at a time, those with the
        # same record count together: 70 paths as one batch and as two of 35
        # cut the blocks and the groups elsewhere, and no summary moves a bit.
        cfg = diverging_config(seed=1)
        whole = simulate_path(cfg, range(70))
        halves = [simulate_path(cfg, r) for r in (range(35), range(35, 70))]
        assert len(set(whole.lengths.tolist())) > 2
        assert [repr(path_summary(whole, cfg, i)) for i in range(70)] == [
            repr(path_summary(halves[i >= 35], cfg, i)) for i in range(70)
        ]

    @pytest.mark.parametrize("overrides", [
        dict(horizon=1), dict(horizon=3), dict(failure=FailureDef(grace=0)),
        dict(horizon=B - 1), dict(horizon=B), dict(horizon=B + 1),  # one block, two
    ])
    def test_short_horizons_and_no_grace(self, overrides):
        batch_matches_scalar(replace(load_preset("janus_baseline"), **overrides), range(8))

    @pytest.mark.parametrize("case", list(RULE_CASES))
    def test_failure_rules(self, case):
        batch_matches_scalar(RULE_CASES[case][0](), range(8))

    @pytest.mark.parametrize("kind", list(STRESSES))
    @pytest.mark.parametrize("onset,duration", [(0, 1), (39, 1), (25, 15)])
    def test_stress_window_edges(self, kind, onset, duration):
        batch_matches_scalar(stress_window(kind, onset, duration), range(4))

    @pytest.mark.parametrize("make", [
        INPUT_OVERFLOWS["book_factor"][0],
        INPUT_OVERFLOWS["micro_factor"][0],
        lambda: replace(load_preset("janus_baseline"), horizon=40, micro_vol=math.inf),
    ], ids=["book_factor_overflow", "micro_factor_overflow", "infinite_micro_factor"])
    def test_step_input_overflows(self, make):
        batch_matches_scalar(make(), range(8))

    def test_reward_below_minus_one_is_a_config_error(self):
        # A reward below -1 would turn the supplies negative and leave the
        # treasury skim dividing by empty books; the scenario is rejected
        # before any path runs.
        with pytest.raises(ConfigError, match="reward_min"):
            config_from_dict(negative_reward_data())

    @settings(deadline=None, max_examples=20)
    @given(**SCENARIO_KNOBS)
    def test_random_scenarios(self, **knobs):
        batch_matches_scalar(random_scenario(**knobs), range(4))

    def test_unflagged_redemptions_match_protocol(self):
        # Half, near-full, full and uncovered payouts of random books: each
        # redemption the batch keeps matches protocol.redeem bit for bit, and
        # a full payout that rounding would overdraw a book with is flagged.
        rng = np.random.default_rng(5)
        n = 4000
        cv, rv = rng.uniform(0.0, 1000.0, (2, n))
        total = cv + rv
        a_red = total * rng.choice([0.5, 1.0 - 2.0**-52, 1.0, 1.5], n)
        s_a, s_o, zeros, ones = 2.0 * a_red, np.full(n, 10.0), np.zeros(n), np.ones(n)
        policy = MintPolicy(min_collateral_ratio=1.0)
        redo = np.zeros(n, dtype=bool)
        red, prices, held = np.stack((a_red, zeros)), np.stack((ones, ones)), np.stack((s_a, s_o, cv, rv))
        out = path_batch._redeem(policy, True, red, prices, held, redo)
        for j in np.flatnonzero(~redo).tolist():
            a, sa, so, c, r = (float(v[j]) for v in (a_red, s_a, s_o, cv, rv))
            scalar = redeem(policy, a, 0.0, 1.0, 1.0, sa, so, c, r)
            assert [repr(float(v[j])) for v in out] == list(map(repr, scalar))
        assert redo[a_red > total].all()
        assert (redo & (a_red <= total)).any()

    @pytest.mark.parametrize("reason", list(RERUN_CASES))
    def test_rare_path_steps_run_through_the_scalar_core(self, reason, monkeypatch):
        calls = []
        advance = path_batch._advance
        monkeypatch.setattr(path_batch, "_advance", lambda *a: calls.append(a) or advance(*a))
        batch_matches_scalar(RERUN_CASES[reason](), range(8))
        assert calls

    def test_crash_window_cuts_blocks(self):
        # the onset alone (its crash drop), the rest of the window (doubled
        # crypto vols), then blocks of at most B steps: one t0 serves each
        h = B // 2
        cfg = replace(
            load_preset("janus_baseline"), horizon=3 * B,
            stress=StressOverlay(StressKind.CRYPTO_CRASH, onset=h, magnitude=0.5, duration=B),
        )
        blocks = list(path_batch._blocks(cfg.tables, cfg.horizon))
        assert blocks == [(0, h), (h, h + 1), (h + 1, h + B), (h + B, h + 2 * B), (h + 2 * B, 3 * B)]
        batch_matches_scalar(cfg, range(8))

    def test_reruns_and_stops_inside_blocks(self, monkeypatch):
        # exp(708 - 0.5 + z) is flagged above 709.0 and overflows above
        # 709.78: path-steps run again by the scalar core mid-block, some
        # going on and some stopping their path, while the block's other
        # paths run on, in the first block and in later ones
        cfg = replace(book_overflow_config(seed=3), horizon=3 * B)
        clocks = []
        advance = path_batch._advance
        monkeypatch.setattr(path_batch, "_advance", lambda *a: clocks.append(a[3]) or advance(*a))
        traces = batch_matches_scalar(cfg, range(16))
        stops = [len(tr) for tr in traces if tr.diverged]
        # nothing reads a stopped path's later values, so only the count of
        # scalar reruns shows a rerun of a stopped path's step
        assert len(clocks) == 61
        assert len(clocks) > len(stops)
        assert any(t % B for t in clocks if t < B) and any(t % B for t in clocks if t > B)
        assert any(n < B for n in stops) and any(B < n < cfg.horizon and n % B for n in stops)

    def test_chunks_cover_paths_under_the_budget(self):
        for n_paths, horizon in [(1, 365), (1000, 365), (5, 10**6)]:
            chunks = sim_engine._path_chunks(n_paths, horizon)
            assert [i for c in chunks for i in c] == list(range(n_paths))
            assert all(len(c) * horizon <= max(sim_engine.BATCH_PATH_STEPS, horizon) for c in chunks)
            assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        assert sim_engine._path_chunks(100, 365) == [range(100)]
        assert sim_engine._path_chunks(1000, 365) == [range(500), range(500, 1000)]


class TestStress:
    def test_crypto_crash_drops_collateral(self):
        cfg = small_config()
        crash = small_config(
            stress=StressOverlay(StressKind.CRYPTO_CRASH, onset=10, magnitude=0.5, duration=20)
        )
        base = simulate_path(cfg, 0).array("v1")
        hit = simulate_path(crash, 0).array("v1")
        assert np.allclose(base[:10], hit[:10])
        assert hit[10] < 0.6 * base[10]

    def test_demand_collapse_cuts_inflow(self):
        cfg = small_config(
            stress=StressOverlay(StressKind.DEMAND_COLLAPSE, onset=5, magnitude=1.0, duration=10)
        )
        tr = simulate_path(cfg, 0)
        base = simulate_path(small_config(), 0)
        assert abs(tr.columns["net_inflow"][7]) < abs(base.columns["net_inflow"][7])

    def test_rwa_shortfall_reduces_rwa_growth(self):
        cfg = small_config(
            demand=DemandParams(base_inflow=0.0),
            turnover=0.0,
            skim_rate=0.0,
            stress=StressOverlay(StressKind.RWA_SHORTFALL, onset=0, magnitude=1.0, duration=120),
        )
        clean = small_config(demand=DemandParams(base_inflow=0.0), turnover=0.0, skim_rate=0.0)
        assert simulate_path(cfg, 0).columns["v2"][-1] < simulate_path(clean, 0).columns["v2"][-1]


class TestWilson:
    def wilson_oracle(self, k, n, z=1.959963984540054):
        p = k / n
        den = 1 + z * z / n
        mid = (p + z * z / (2 * n)) / den
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
        return mid - half, mid + half

    def test_matches_closed_form(self):
        for k, n in [(0, 10), (3, 10), (10, 10), (17, 1000), (999, 1000)]:
            lo, hi = _wilson_interval(k, n)
            olo, ohi = self.wilson_oracle(k, n)
            assert lo == pytest.approx(max(olo, 0.0), abs=1e-12)
            assert hi == pytest.approx(min(ohi, 1.0), abs=1e-12)

    def test_contains_point_estimate(self):
        lo, hi = _wilson_interval(5, 50)
        assert lo < 0.1 < hi


def serial_pools(monkeypatch) -> list[int]:
    """Replace the spawn pool with an in-process map; the returned list
    collects the process count of each pool opened."""
    opened = []

    class SerialPool:
        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(sim_engine, "_spawn_pool", SerialPool)
    return opened


class TestMonteCarlo:
    def test_worker_counts_agree(self):
        cfg = small_config(horizon=40)
        s1 = monte_carlo(cfg, 12, workers=1)
        s4 = monte_carlo(cfg, 12, workers=4)
        assert s1 == s4

    def test_p_fail_counts_failed_paths(self):
        cfg = small_config(horizon=40)
        s = monte_carlo(cfg, 10)
        assert s.p_fail == pytest.approx(sum(s.failed_flags) / 10)
        assert s.n_paths == 10

    def test_single_path_matches_simulate(self):
        cfg = small_config(horizon=40)
        s = monte_carlo(cfg, 1)
        tr = simulate_path(cfg, 0)
        assert s.mean_terminal_p_a == pytest.approx(tr.columns["p_a"][-1])

    def test_requires_paths(self):
        with pytest.raises(ConfigError):
            monte_carlo(small_config(), 0)
        with pytest.raises(ConfigError):
            frontier_sweep(small_config(), {"epsilon": [0.02]}, 0)

    @pytest.mark.parametrize("n_paths, workers, processes", [(4, 2, 2), (4, 8, 4), (3, 8, 3)])
    def test_pool_splits_jobs_up_to_the_workers(self, monkeypatch, n_paths, workers, processes):
        # past one batch, the single chunk is split so that every worker up
        # to one per path gets a job
        cfg = small_config(horizon=40)
        serial = monte_carlo(cfg, n_paths)
        opened = serial_pools(monkeypatch)
        monkeypatch.setattr(sim_engine, "BATCH_PATH_STEPS", cfg.horizon * n_paths - 1)
        assert monte_carlo(cfg, n_paths, workers) == serial
        assert opened == [processes]

    @pytest.mark.parametrize("min_paths, opened_pools", [(4, []), (5, [2])])
    def test_scalar_chunks_weigh_more_toward_a_pool(self, monkeypatch, min_paths, opened_pools):
        # one 4-path chunk, just under the pool threshold when it runs as a
        # batch and over it when it runs path by path
        cfg = small_config(horizon=40)
        serial = monte_carlo(cfg, 4)
        opened = serial_pools(monkeypatch)
        steps = 4 * cfg.horizon * sim_engine.SCALAR_STEP_COST - 1
        monkeypatch.setattr(sim_engine, "BATCH_PATH_STEPS", steps)
        monkeypatch.setattr(sim_engine, "BATCH_MIN_PATHS", min_paths)
        assert monte_carlo(cfg, 4, 2) == serial
        assert opened == opened_pools

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 101, 100])
    def test_median_matches_numpy_bits(self, count):
        values = np.random.default_rng(count).lognormal(size=count).tolist()
        if count > 2:
            values[1] = 0.0
            values[2] = values[0]
        got = sim_engine._median(values)
        assert np.float64(got).tobytes() == np.median(values).tobytes()
        assert math.isnan(sim_engine._median(values + [float("nan")]))
        assert math.isnan(np.median(values + [float("nan")]))

    def test_terminal_p_ref_is_reference_at_horizon(self):
        cfg = diverging_config(seed=1)
        tr = simulate_path(cfg, 0)
        assert tr.diverged and len(tr) < cfg.horizon  # path 0 stops early
        s = monte_carlo(cfg, 3)
        assert s.terminal_p_ref == reference_price(cfg.ref_policy, cfg.horizon)
        assert s.terminal_p_ref != tr.columns["p_ref"][-1]
        # a full-length path 0 ends at the same reference, bit for bit
        full = small_config(horizon=40)
        assert monte_carlo(full, 2).terminal_p_ref == simulate_path(full, 0).columns["p_ref"][-1]


class TestPareto:
    def test_single_point_is_optimal(self):
        assert pareto_front([(1.0, 1.0, 1.0)]) == [True]

    def test_dominated_point_flagged(self):
        flags = pareto_front([(1.0, 1.0, 1.0), (0.5, 0.5, 0.5)])
        assert flags == [True, False]

    def test_incomparable_points_both_kept(self):
        flags = pareto_front([(1.0, 0.0, 0.5), (0.0, 1.0, 0.5)])
        assert flags == [True, True]

    def test_duplicate_points_kept(self):
        flags = pareto_front([(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
        assert flags == [True, True]


class TestFrontier:
    def test_sweep_covers_grid(self):
        cfg = small_config(horizon=30)
        pts = frontier_sweep(cfg, {"epsilon": [0.01, 0.03], "min_collateral_ratio": [1.4, 1.6]}, 3)
        assert len(pts) == 4
        assert any(p.pareto for p in pts)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            frontier_sweep(small_config(), {}, 2)
        with pytest.raises(ConfigError):
            frontier_sweep(small_config(), {"epsilon": []}, 2)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            frontier_sweep(small_config(), {"nonsense": [1]}, 2)

    def test_sweep_below_one_batch_opens_no_pool(self, monkeypatch):
        cfg = small_config(horizon=30)
        grid = {"epsilon": [0.01, 0.03], "min_collateral_ratio": [1.4, 1.6]}
        opened = serial_pools(monkeypatch)
        assert frontier_sweep(cfg, grid, 4, workers=2) == frontier_sweep(cfg, grid, 4, workers=1)
        assert opened == []

    def test_one_pool_gives_serial_points(self, monkeypatch):
        # past one batch of path-steps: 4 cells of 2 one-path chunks are 8
        # jobs, so 16 workers get 8 processes
        cfg = small_config(horizon=30)
        grid = {"epsilon": [0.01, 0.03], "min_collateral_ratio": [1.4, 1.6]}
        serial = frontier_sweep(cfg, grid, 2, workers=1)
        opened = serial_pools(monkeypatch)
        monkeypatch.setattr(sim_engine, "BATCH_PATH_STEPS", cfg.horizon)
        for workers, processes in ((3, 3), (16, 8)):
            assert frontier_sweep(cfg, grid, 2, workers=workers) == serial
            assert opened.pop() == processes and not opened  # one pool for the whole sweep

    def test_any_config_file_field_sweeps(self):
        cfg = small_config(horizon=30)
        (pt,) = frontier_sweep(cfg, {"depth_alpha": [50.0], "noise_vol": [0.5]}, 3)
        swept = replace(cfg, depth_alpha=50.0, demand=replace(cfg.demand, noise_vol=0.5))
        ens = monte_carlo(swept, 3)
        assert (pt.e, pt.s) == (ens.mean_efficiency, 1.0 - ens.p_fail)

    def test_theta_override(self):
        cfg = small_config(horizon=30)
        pts = frontier_sweep(cfg, {"theta": [[0.5, 0.5], [0.9, 0.1]]}, 2)
        assert len(pts) == 2

    # 36 paths: a batch above the threshold, not only at it
    @pytest.mark.parametrize("n_paths", sorted({3, 36, sim_engine.BATCH_MIN_PATHS}))
    def test_cells_that_change_the_paths_step_their_own(self, n_paths):
        # micro_vol and the stress window change the step inputs; epsilon
        # does not, so the eight cells form four groups of two
        crash = StressOverlay(StressKind.CRYPTO_CRASH, onset=10, magnitude=0.5, duration=10)
        cfg = small_config(horizon=30, stress=crash)
        grid = {"micro_vol": [0.001, 0.05], "onset": [5, 10], "epsilon": [0.01, 0.03]}
        for pt in frontier_sweep(cfg, grid, n_paths):
            ens = monte_carlo(sim_engine._apply_overrides(cfg, pt.overrides), n_paths)
            assert (pt.e, pt.s) == (ens.mean_efficiency, 1.0 - ens.p_fail)

    def test_cells_that_step_the_same_paths_draw_them_once(self, monkeypatch):
        calls = []
        block = sim_engine.shock_block
        monkeypatch.setattr(sim_engine, "shock_block", lambda *a: calls.append(a[1]) or block(*a))
        # the bundled grid varies no field of the paths: 4 blocks, not 36
        grid = json.loads(resources.files("janus_sim.presets").joinpath("frontier_grid.json").read_text())
        frontier_sweep(load_preset("janus_baseline"), grid, 4, workers=2)
        assert calls == [0, 1, 2, 3]
        # batched cells too; theta makes two groups
        calls.clear()
        cfg = small_config(horizon=30)
        n = sim_engine.BATCH_MIN_PATHS
        frontier_sweep(cfg, {"epsilon": [0.01, 0.03], "min_collateral_ratio": [1.4, 1.6]}, n)
        assert calls == list(range(n))
        calls.clear()
        frontier_sweep(cfg, {"theta": [[0.5, 0.5], [0.9, 0.1]], "epsilon": [0.01, 0.03]}, 3)
        assert calls == [0, 1, 2] * 2
