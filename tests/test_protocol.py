"""Mint/redeem mechanics, RWA yield, liquidation, and the treasury skim."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from janus_sim.market import AssetKind, AssetSpec, CorrelationMatrix
from janus_sim.protocol import (
    MintPolicy,
    ProtocolError,
    collateral_ratio,
    liquidate,
    mint,
    redeem,
    skim,
)
from janus_sim.core_state import to_vector
from janus_sim.sim_engine import initial_state, step_map

from test_sim_engine import quiescent_config

# (s_a, s_o, crypto, rwa) of a book at ratio 1.5 with both prices at 1
BOOK = (1000.0, 1000.0, 1500.0, 1500.0)


def do_mint(policy, value, prices=(1.0, 1.0), book=BOOK, crypto_share=0.5):
    """Mint into ``book``; returns the successor book and the minted units."""
    s_a, s_o, cv, rv = book
    new = mint(policy, value, *prices, s_a, s_o, cv, rv, crypto_share)
    return new, new[0] - s_a, new[1] - s_o


def do_redeem(policy, a_red, o_red, prices=(1.0, 1.0), book=BOOK):
    """Redeem from ``book``; returns the successor book and the payout."""
    new = redeem(policy, a_red, o_red, *prices, *book)
    return new, (book[2] + book[3]) - (new[2] + new[3])


class TestMint:
    def test_minted_notional_formula(self):
        policy = MintPolicy(min_collateral_ratio=1.5, mint_fee=0.01, alpha_omega_split=0.5)
        book, a, o = do_mint(policy, 300.0)
        notional = 300.0 / 1.5 * 0.99
        assert a == pytest.approx(notional / 2)
        assert o == pytest.approx(notional / 2)
        assert book[2] + book[3] == pytest.approx(3300.0)

    def test_split_respected(self):
        policy = MintPolicy(min_collateral_ratio=1.0, alpha_omega_split=0.25)
        _, a, o = do_mint(policy, 100.0)
        assert a == pytest.approx(25.0)
        assert o == pytest.approx(75.0)

    def test_token_units_scale_with_price(self):
        policy = MintPolicy(min_collateral_ratio=1.0, alpha_omega_split=1.0)
        _, a, _ = do_mint(policy, 100.0, prices=(2.0, 1.0), book=(10.0, 1000.0, 1500.0, 1500.0))
        assert a == pytest.approx(50.0)

    def test_nonpositive_collateral_rejected(self):
        with pytest.raises(ProtocolError):
            do_mint(MintPolicy(1.0), 0.0)

    def test_inflow_follows_weights(self):
        book, _, _ = do_mint(MintPolicy(1.0), 100.0)
        assert book[2] == pytest.approx(1550.0)
        assert book[3] == pytest.approx(1550.0)


class TestRedeem:
    def test_round_trip_without_fees(self):
        policy = MintPolicy(min_collateral_ratio=1.0)
        book, a, o = do_mint(policy, 100.0)
        book2, payout = do_redeem(policy, a, o, book=book)
        assert payout == pytest.approx(100.0)
        assert book2[0] == pytest.approx(BOOK[0])
        assert book2[2] + book2[3] == pytest.approx(BOOK[2] + BOOK[3])

    def test_fee_reduces_payout(self):
        policy = MintPolicy(min_collateral_ratio=1.0, redeem_fee=0.1)
        book, payout = do_redeem(policy, 100.0, 0.0)
        assert payout == pytest.approx(90.0)
        assert book[0] == pytest.approx(900.0)

    def test_redeeming_more_than_supply_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds supply"):
            do_redeem(MintPolicy(1.0), 1000.1, 0.0)

    def test_payout_capped_and_burn_scaled(self):
        # only 50 of collateral left; redeeming 200 of value burns 1/4 of it
        book, payout = do_redeem(MintPolicy(1.0), 200.0, 0.0, book=(1000.0, 1000.0, 50.0, 0.0))
        assert payout == pytest.approx(50.0)
        assert book[2] + book[3] == pytest.approx(0.0)
        assert book[0] == pytest.approx(1000.0 - 50.0)

    def test_empty_treasury_burns_nothing(self):
        book, payout = do_redeem(MintPolicy(1.0), 100.0, 100.0, book=(1000.0, 1000.0, 0.0, 0.0))
        assert payout == 0.0
        assert book[0] == pytest.approx(1000.0)
        assert book[1] == pytest.approx(1000.0)

    def test_zero_request_is_noop(self):
        book, payout = do_redeem(MintPolicy(1.0), 0.0, 0.0)
        assert payout == 0.0
        assert book == BOOK

    def test_full_payout_empties_books_exactly(self):
        # 836.6 / 1313.5 of 1313.5 rounds to more than 836.6: unfloored, the
        # crypto book would end at -1.1e-13
        cv, rv = 836.6, 476.9
        assert cv - (cv + rv) * (cv / (cv + rv)) < 0.0
        book, _ = do_redeem(MintPolicy(1.0), 1000.0, 1000.0, book=(1000.0, 1000.0, cv, rv))
        assert book[2:] == (0.0, 0.0)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(0.0, 1.0))
    def test_payout_never_overdraws_and_keeps_unfloored_bits(self, cv, rv, share):
        # Redeeming ``share`` of the supply at a price that more than covers
        # the book takes the whole book; a smaller price takes part of it.
        total = cv + rv
        if total <= 0.0:
            return
        policy = MintPolicy(1.0)
        amount = 1000.0 * share
        for price in (1e9, total / 2000.0):
            book = redeem(policy, amount, amount, price, price, 1000.0, 1000.0, cv, rv)
            # redeem's own arithmetic for the collateral it pays out
            take = min((amount * price + amount * price) * (1.0 - policy.redeem_fee), total)
            assert book[2] >= 0.0 and book[3] >= 0.0
            for got, held in zip(book[2:], (cv, rv)):
                unfloored = held - take * (held / total)
                assert got == (unfloored if unfloored >= 0.0 else 0.0)

    @given(st.floats(0.0, 0.2), st.floats(1.0, 3.0), st.floats(1.0, 500.0))
    def test_mint_redeem_never_profitable(self, fee, ratio, amount):
        policy = MintPolicy(min_collateral_ratio=ratio, mint_fee=fee, redeem_fee=fee)
        book, a, o = do_mint(policy, amount)
        _, payout = do_redeem(policy, a, o, book=book)
        assert payout <= amount * (1 + 1e-9)


def yield_config(assets, weights, treasury_split):
    """A quiescent scenario (no flows, noise, drift or volatility) over
    ``assets``, so one step changes the books by the RWA yield alone."""
    n = len(assets)
    return replace(
        quiescent_config(),
        assets=tuple(assets),
        correlation=CorrelationMatrix.identity(n),
        collateral_weights=tuple(weights),
        treasury_split=treasury_split,
    )


def one_step(cfg):
    """The state vector before and after one step of ``cfg``: prices at 0
    and 2, the crypto and RWA books at 4 and 5."""
    x0 = to_vector(*initial_state(cfg))
    return x0, step_map(x0, cfg)


YIELD_ASSETS = (
    AssetSpec(id=0, kind=AssetKind.CRYPTO, drift=0.0, vol=0.0),
    AssetSpec(id=1, kind=AssetKind.RWA, drift=0.0, vol=0.0, yield_rate=0.0002),
)


class TestYield:
    def test_weighted_yield_rate(self):
        assets = YIELD_ASSETS + (
            AssetSpec(id=2, kind=AssetKind.RWA, drift=0.0, vol=0.0, yield_rate=0.0007),
        )
        x0, x1 = one_step(yield_config(assets, (0.5, 0.3, 0.2), treasury_split=1.0))
        rate = (0.3 * 0.0002 + 0.2 * 0.0007) / 0.5
        assert x1[5] == pytest.approx(x0[5] * (1.0 + rate), rel=1e-12)
        assert x1[4] == x0[4]

    def test_accrual_split(self):
        cfg = yield_config(YIELD_ASSETS, (0.5, 0.5), treasury_split=0.25)
        x0, x1 = one_step(cfg)
        gross = x0[5] * 0.0002
        assert x1[5] == pytest.approx(x0[5] + 0.25 * gross, rel=1e-12)
        # the rest supports the Omega market as a buy flow
        assert x1[2] == pytest.approx(x0[2] * math.exp(0.75 * gross / cfg.depth_omega), rel=1e-12)
        assert x1[0] == x0[0]

    def test_full_retention(self):
        x0, x1 = one_step(yield_config(YIELD_ASSETS, (0.5, 0.5), treasury_split=1.0))
        assert x1[2] == x0[2]
        assert x1[4] + x1[5] == pytest.approx(x0[4] + x0[5] + x0[5] * 0.0002, rel=1e-12)

    def test_no_rwa_no_yield(self):
        assets = (YIELD_ASSETS[0], AssetSpec(id=1, kind=AssetKind.CRYPTO, drift=0.0, vol=0.0))
        x0, x1 = one_step(yield_config(assets, (0.5, 0.5), treasury_split=0.5))
        assert x1[5] == 0.0
        assert x1[4] + x1[5] == pytest.approx(x0[4] + x0[5], rel=1e-12)


def ratio(book, p_ref=1.0):
    s_a, s_o, cv, rv = book
    return (cv + rv) / ((s_a + s_o) * p_ref)


# ratio 0.5 at p_ref 1
SHORT = (1000.0, 1000.0, 1000.0, 0.0)


class TestLiquidation:
    def test_noop_above_target(self):
        assert liquidate(*BOOK, 1.0, 1.2, 0.1) == BOOK  # ratio 1.5

    def test_restores_min_ratio(self):
        book = liquidate(*SHORT, 1.0, 1.2, 0.1)
        assert book[0] + book[1] < SHORT[0] + SHORT[1]
        assert ratio(book) == pytest.approx(1.2, rel=1e-9)

    def test_idempotent(self):
        book = liquidate(*SHORT, 1.0, 1.2, 0.1)
        assert liquidate(*book, 1.0, 1.2, 0.1) == book

    def test_penalty_destroys_value(self):
        no_pen = liquidate(*SHORT, 1.0, 1.2, 0.0)
        with_pen = liquidate(*SHORT, 1.0, 1.2, 0.3)
        # a harsher penalty burns less supply to reach the same ratio
        assert with_pen[0] + with_pen[1] > no_pen[0] + no_pen[1]

    def test_omega_senior_burns_alpha_first(self):
        # mild shortfall: the alpha tranche alone absorbs the burn
        book = liquidate(1000.0, 1000.0, 2000.0, 0.0, 1.0, 1.05, 0.1, omega_senior=True)
        assert book[0] < 1000.0
        assert book[1] == pytest.approx(1000.0)

    @given(st.floats(1.0, 1e4), st.floats(1.0, 1e4), st.floats(1e-3, 0.99))
    def test_full_liquidation_never_overdraws(self, cv, rv, ratio_):
        # without a penalty a book below ratio 1 is liquidated in full
        supply = (cv + rv) / ratio_ / 2.0
        book = liquidate(supply, supply, cv, rv, 1.0, 1.1, 0.0)
        assert book[2] >= 0.0 and book[3] >= 0.0

    def test_ratio_infinite_without_supply(self):
        assert math.isinf(collateral_ratio(3000.0, 0.0, 1.0))

    def test_ratio_matches_book(self):
        s_a, s_o, cv, rv = BOOK
        assert collateral_ratio(cv + rv, s_a + s_o, 1.25) == ratio(BOOK, 1.25)


class TestSkim:
    def test_pays_out_share_of_surplus(self):
        cv, rv = skim(1500.0, 500.0, 1000.0, 1.0, 1.2, 0.25)
        # surplus 2000 - 1200 = 800; a quarter of it leaves both books pro rata
        assert cv + rv == pytest.approx(1800.0)
        assert cv / rv == pytest.approx(3.0)

    def test_noop_at_or_below_target(self):
        assert skim(600.0, 600.0, 1000.0, 1.0, 1.2, 0.5) == (600.0, 600.0)


class TestPolicyValidation:
    def test_ratio_below_one_rejected(self):
        with pytest.raises(ProtocolError):
            MintPolicy(0.9)

    def test_fee_range(self):
        with pytest.raises(ProtocolError):
            MintPolicy(1.0, mint_fee=0.3)

    def test_split_range(self):
        with pytest.raises(ProtocolError):
            MintPolicy(1.0, alpha_omega_split=1.2)
