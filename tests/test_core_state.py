"""Governance weights, band geometry, the reference path, and the state
vector's layout and clamp rule."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from janus_sim.config_io import load_preset
from janus_sim.core_state import (
    GovernanceDistribution,
    PegBand,
    ReferencePricePolicy,
    StateError,
    band_bounds,
    decentralization,
    from_vector,
    reference_price,
    to_list,
    to_vector,
)
from janus_sim.sim_engine import ConfigError, InitialConditions, initial_state

# (head, units) of a two-holding state: prices, supplies, books, rates
HEAD = [1.0, 100.0, 1.0, 50.0, 120.0, 80.0, 0.01, 0.002, 0.0005]
UNITS = [120.0, 80.0]


class TestGovernance:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(StateError):
            GovernanceDistribution((0.5, 0.4))

    def test_negative_weight_rejected(self):
        with pytest.raises(StateError):
            GovernanceDistribution((1.5, -0.5))

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_normalized_weights_accepted(self, raw):
        total = sum(raw)
        gov = GovernanceDistribution(tuple(w / total for w in raw))
        assert abs(sum(gov.weights) - 1.0) < 1e-9


class TestReferencePrice:
    def test_flat_policy(self):
        pol = ReferencePricePolicy(p0=1.0, growth_rate=0.0)
        assert reference_price(pol, 100) == 1.0

    def test_compound_growth(self):
        pol = ReferencePricePolicy(p0=2.0, growth_rate=0.01)
        # oracle: repeated multiplication
        expected = 2.0
        for _ in range(30):
            expected *= 1.01
        assert reference_price(pol, 30) == pytest.approx(expected, rel=1e-12)

    def test_negative_step_rejected(self):
        with pytest.raises(StateError):
            reference_price(ReferencePricePolicy(1.0), -1)


class TestBandBounds:
    @given(
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 0.999),
    )
    def test_symmetric_around_reference(self, p_ref, eps):
        lo, hi = band_bounds(p_ref, PegBand(eps))
        assert hi - p_ref == pytest.approx(p_ref - lo, rel=0, abs=1e-9 * p_ref)
        assert lo == pytest.approx(p_ref * (1 - eps), rel=1e-12)
        assert hi == pytest.approx(p_ref * (1 + eps), rel=1e-12)

    def test_epsilon_bounds_enforced(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(StateError):
                PegBand(bad)


class TestVectorMapping:
    def test_round_trip_identity(self):
        v = to_vector(HEAD, UNITS)
        assert v.shape == (13,)
        assert from_vector(v, 2) == (HEAD, UNITS)  # nothing to clamp
        assert to_list(HEAD, UNITS) == v.tolist()
        assert from_vector(to_list(HEAD, UNITS), 2) == (HEAD, UNITS)

    def test_retired_slots_are_zero_and_ignored(self):
        v = to_vector(HEAD, UNITS)
        assert v[-2] == 0.0 and v[-1] == 0.0
        probed = v.copy()
        probed[-2:] = (-5.0, 7.0)
        # the negative retired slot is not clamped into the state
        assert from_vector(probed, 2) == from_vector(v, 2) == (HEAD, UNITS)

    def test_negative_monetary_entries_clamped(self):
        v = to_vector(HEAD, UNITS)
        v[1] = -5.0
        v[4] = -1.0
        head, units = from_vector(v, 2)
        assert head[1] == 0.0
        assert head[4] == 0.0
        # every other entry is carried over unchanged
        assert np.array_equal(
            np.delete(to_vector(head, units), [1, 4]), np.delete(to_vector(HEAD, UNITS), [1, 4])
        )

    def test_negative_rates_pass_through(self):
        v = to_vector(HEAD, UNITS)
        v[7] = -0.01  # reward can be a buyback
        head, units = from_vector(v, 2)
        assert head == HEAD[:7] + [-0.01] + HEAD[8:]  # nothing clamped
        assert units == UNITS

    def test_clamp_matches_numpy_maximum(self):
        # -0.0 becomes +0.0 (as np.maximum gives; Python's max would keep
        # -0.0), NaN passes through; rates keep their sign, zero or not;
        # on an array and on a list alike
        v = np.array([-0.0, np.nan, 2.0, -3.0, -0.0, 1.0, -0.0, -0.5, 0.25, -0.0, 4.0, 0.0, 0.0])
        expected = np.where(np.arange(11) // 3 == 2, v[:11], np.maximum(v[:11], 0.0))
        for form in (v, v.tolist()):
            head, units = from_vector(form, 2)
            assert [repr(x) for x in head + units] == [repr(float(x)) for x in expected]
            assert repr(head[0]) == "0.0" and repr(head[6]) == "-0.0"

    def test_wrong_length_rejected(self):
        for v in (np.zeros(3), np.zeros((13, 1)), [0.0] * 3, [0.0] * 14):
            with pytest.raises(StateError):
                from_vector(v, 2)

    @given(st.lists(st.floats(0.0, 1e6), min_size=13, max_size=13))
    def test_arbitrary_nonnegative_vectors_round_trip(self, entries):
        v = np.asarray(entries)
        w = to_vector(*from_vector(v, 2))
        # the two retired slots read back as 0
        assert np.allclose(w[:11], v[:11])
        assert not w[11:].any()


class TestStateInvariants:
    def test_negative_collateral_rejected(self):
        with pytest.raises(ConfigError):
            InitialConditions(1.0, 100.0, 1.0, 50.0, c_total=-1.0)

    def test_herfindahl_matches_bruteforce(self):
        w = (0.5, 0.3, 0.2)
        herfindahl = 1.0 - decentralization(GovernanceDistribution(w))
        assert herfindahl == pytest.approx(sum(x * x for x in w), rel=1e-15)

    def test_is_finite_state(self):
        assert np.all(np.isfinite(to_vector(*initial_state(load_preset("janus_baseline")))))
