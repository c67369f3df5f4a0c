"""Collateral dynamics, demand flows, and the portfolio variance formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from janus_sim.market import (
    AssetKind,
    AssetSpec,
    CorrelationMatrix,
    DemandParams,
    MarketError,
    book_return_factors,
    cholesky_factor,
    demand_flow,
    portfolio_variance,
)
import janus_sim.sim_engine as sim_engine
from janus_sim.protocol import MintPolicy
from janus_sim.sim_engine import ConfigError

from test_sim_engine import small_config


def random_correlation(rng, n):
    """Random valid correlation matrix via a normalized Gram matrix."""
    a = rng.standard_normal((n, n + 2))
    g = a @ a.T
    d = np.sqrt(np.diag(g))
    c = g / np.outer(d, d)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(tuple(tuple(row) for row in c))


class TestCorrelationMatrix:
    def test_identity(self):
        c = CorrelationMatrix.identity(3)
        assert np.allclose(c.as_array(), np.eye(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(MarketError):
            CorrelationMatrix(((1.0, 0.5), (0.3, 1.0)))

    def test_bad_diagonal_rejected(self):
        with pytest.raises(MarketError):
            CorrelationMatrix(((0.9, 0.0), (0.0, 1.0)))

    def test_entry_magnitude_capped(self):
        with pytest.raises(MarketError):
            CorrelationMatrix(((1.0, 1.5), (1.5, 1.0)))


class TestCholesky:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = random_correlation(rng, rng.integers(1, 6))
            L = cholesky_factor(c)
            oracle = np.linalg.cholesky(c.as_array())
            assert np.allclose(L, oracle, atol=1e-10)

    def test_reconstructs_input(self):
        rng = np.random.default_rng(1)
        c = random_correlation(rng, 4)
        L = cholesky_factor(c)
        assert np.allclose(L @ L.T, c.as_array(), atol=1e-12)

    def test_non_psd_names_pivot(self):
        # 3x3 with an impossible correlation pattern
        c = CorrelationMatrix(
            ((1.0, 0.9, -0.9), (0.9, 1.0, 0.9), (-0.9, 0.9, 1.0))
        )
        with pytest.raises(MarketError, match="pivot"):
            cholesky_factor(c)


def factors(specs, L, z, weights=None):
    """(crypto, RWA) book factors of ``specs``, equally weighted by default."""
    return book_return_factors(
        list(z),
        L,
        [s.drift for s in specs],
        [s.vol for s in specs],
        weights or [1.0 / len(specs)] * len(specs),
        [s.kind is AssetKind.CRYPTO for s in specs],
    )


class TestAssetStep:
    def test_geometric_step_formula(self):
        spec = AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.001, vol=0.05)
        fc, fr = factors([spec], np.eye(1), [1.3])
        expected = 2.0 * math.exp(0.001 - 0.5 * 0.05**2 + 0.05 * 1.3)
        assert 2.0 * fc == pytest.approx(expected, rel=1e-14)
        assert fr == 1.0  # an empty book does not move

    def test_zero_vol_is_pure_drift(self):
        spec = AssetSpec(id=0, kind=AssetKind.RWA, drift=0.002, vol=0.0)
        _, fr = factors([spec], np.eye(1), [9.9])
        assert fr == pytest.approx(math.exp(0.002))

    def test_shape_mismatch_rejected(self):
        # the step trusts its shapes: they are checked once, when the
        # scenario is built
        with pytest.raises(ConfigError):
            small_config(collateral_weights=(1.0,))

    def test_correlated_draws_use_cholesky(self):
        rng = np.random.default_rng(3)
        c = random_correlation(rng, 2)
        L = cholesky_factor(c)
        specs = [
            AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.0, vol=0.1),
            AssetSpec(id=1, kind=AssetKind.RWA, drift=0.0, vol=0.2),
        ]
        z = np.array([0.5, -0.7])
        fc, fr = factors(specs, L, z)
        shocks = L @ z
        assert fc == pytest.approx(math.exp(-0.005 + 0.1 * shocks[0]))
        assert fr == pytest.approx(math.exp(-0.02 + 0.2 * shocks[1]))

    def test_book_factor_is_weighted_average(self):
        specs = [
            AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.01, vol=0.0),
            AssetSpec(id=1, kind=AssetKind.CRYPTO, drift=0.03, vol=0.0),
        ]
        fc, _ = factors(specs, np.eye(2), [0.0, 0.0], weights=(0.6, 0.2))
        assert fc == pytest.approx((0.6 * math.exp(0.01) + 0.2 * math.exp(0.03)) / 0.8)


class TestNetDemand:
    def test_components_sum(self):
        params = DemandParams(base_inflow=100.0, sentiment_gain=2.0, deviation_gain=-3.0, noise_vol=5.0)
        flow, market = demand_flow(params, 100.0, 1.0, 1.05, 1.0, 0.01, 0.4)
        expected = 100.0 + 2.0 * 0.01 * 100.0 + (-3.0) * 0.05 * 100.0 + 5.0 * 0.4
        assert flow == pytest.approx(expected, rel=1e-12)
        # only the structural base bypasses the market
        assert market == pytest.approx(expected - 100.0, rel=1e-12)

    def test_token_weight_scales_flow(self):
        params = DemandParams(base_inflow=100.0, sentiment_gain=2.0, deviation_gain=-3.0, noise_vol=5.0)
        whole, _ = demand_flow(params, 100.0, 1.0, 1.05, 1.0, 0.01, 0.4)
        part, _ = demand_flow(params, 100.0, 0.25, 1.05, 1.0, 0.01, 0.4)
        assert part == pytest.approx(0.25 * whole, rel=1e-12)

    def test_at_reference_no_deviation_term(self):
        params = DemandParams(base_inflow=50.0, deviation_gain=-10.0)
        assert demand_flow(params, 50.0, 1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx((50.0, 0.0))

    def test_nonpositive_price_gives_zero_flow(self, monkeypatch):
        # demand_flow leaves this guard to the step's core (path_batch flags
        # such a step): the full flow is the step's net inflow, the market
        # part the flow that moves the Alpha price
        params = DemandParams(base_inflow=1.0, noise_vol=3.0)
        cfg = small_config(demand=params, mint_policy=MintPolicy(1.4, alpha_omega_split=1.0))
        moves = []
        monkeypatch.setattr(sim_engine, "price_impact", lambda price, flow, depth: moves.append(flow) or price)
        # base 1.0, weight 1.0, price 0.0, p_ref 1.0, trend 0.0, noise 2.0
        out = sim_engine._advance(
            cfg, (1.0, 1.0, 2.0, 1.0, 1.0), 0.0, 0, 1.0, 0.0, 360.0, 1.0, 360.0, 625.0, 625.0, 0.0, 0.0, 0.0
        )
        assert (out[9], moves[0]) == (0.0, 0.0)


class TestPortfolioVariance:
    def brute_force(self, w, v, corr):
        n = len(w)
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc += w[i] * w[j] * corr[i][j] * math.sqrt(v[i] * v[j])
        return acc

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            c = random_correlation(rng, n)
            w = rng.random(n)
            v = rng.random(n) * 0.1
            got = portfolio_variance(w, v, c)
            want = self.brute_force(w, v, c.entries)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_single_asset(self):
        c = CorrelationMatrix.identity(1)
        assert portfolio_variance([2.0], [0.09], c) == pytest.approx(4 * 0.09)

    def test_negative_variance_rejected(self):
        with pytest.raises(MarketError):
            portfolio_variance([1.0], [-0.1], CorrelationMatrix.identity(1))

    @pytest.mark.parametrize("weights,variances", [
        ([1.0], [0.04, 0.04]),  # weights and variances differ
        ([0.5, 0.5, 0.0], [0.04, 0.04, 0.04]),  # three assets, a 2x2 correlation
    ])
    def test_mismatched_shapes_rejected(self, weights, variances):
        with pytest.raises(MarketError, match="^weights, variances and correlation size must agree$"):
            portfolio_variance(weights, variances, CorrelationMatrix.identity(2))

    def test_diversification_reduces_variance(self):
        # equal split of uncorrelated assets beats concentration
        c = CorrelationMatrix.identity(2)
        concentrated = portfolio_variance([1.0, 0.0], [0.04, 0.04], c)
        split = portfolio_variance([0.5, 0.5], [0.04, 0.04], c)
        assert split < concentrated


class TestVarianceVersusSimulation:
    @settings(deadline=None, max_examples=5)
    @given(st.integers(0, 10_000))
    def test_sample_variance_agrees(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        c = random_correlation(rng, n)
        w = rng.random(n)
        v = (rng.random(n) * 0.05) ** 2
        L = cholesky_factor(c)
        z = rng.standard_normal((20_000, n))
        returns = (z @ L.T) * np.sqrt(v)
        port = returns @ w
        sample = port.var(ddof=1)
        want = portfolio_variance(w, v, c)
        se = sample * math.sqrt(2.0 / (len(port) - 1))
        assert abs(sample - want) < 4 * se
