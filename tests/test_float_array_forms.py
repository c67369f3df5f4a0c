"""The functions that run on floats and on arrays over paths give the same
bits either way: element j of the array result is, by repr, the result of
the float call on element j.  Hypothesis draws on each function's unguarded
branch (the inputs its float caller lets through), with ±0.0, subnormals,
the largest finite floats, inf and NaN wherever the float form does not
raise.  ``_exp_paths``, the batch's ``exp``, is checked against
``math.exp`` bit for bit."""

import math
import sys

import numpy as np
from hypothesis import given, strategies as st

from janus_sim.controller import ControllerParams, control_deltas
from janus_sim.market import DemandParams, demand_flow
from janus_sim.path_batch import _clip, _exp_paths
from janus_sim.protocol import MintPolicy, mint_notional, pay_pro_rata
from janus_sim.sim_engine import price_impact

ANY = st.floats()
POSITIVE = st.floats(min_value=0.0, exclude_min=True)  # subnormals and inf included
NON_NEGATIVE = st.floats(min_value=0.0)
NONZERO = ANY.filter(lambda x: x != 0.0)
SHARE = st.floats(0.0, 1.0)


def rows(*columns):
    """1 to 8 paths, each a tuple of one draw per column."""
    return st.lists(st.tuples(*columns), min_size=1, max_size=8)


def assert_same_bits(on_floats, on_arrays, paths):
    """``on_arrays`` on one array per column of ``paths`` gives, element by
    element, the bits of ``on_floats`` on each path's floats."""
    columns = [np.array(c, dtype=float) for c in zip(*paths)]
    with np.errstate(all="ignore"):
        out = on_arrays(*columns)
    for j, path in enumerate(paths):
        want = on_floats(*path)
        assert [repr(float(v[j])) for v in out] == [repr(float(w)) for w in want], path


def same(fn):
    return fn, fn


@given(
    st.builds(DemandParams, base_inflow=ANY, sentiment_gain=ANY, deviation_gain=ANY, noise_vol=NON_NEGATIVE),
    ANY, SHARE, NONZERO, rows(POSITIVE, ANY, ANY),
)
def test_demand_flow(params, base, weight, p_ref, paths):
    assert_same_bits(
        *same(lambda price, trend, noise: demand_flow(params, base, weight, price, p_ref, trend, noise)),
        paths,
    )


POLICIES = st.builds(
    MintPolicy,
    min_collateral_ratio=st.floats(1.0, 3.0),
    mint_fee=st.floats(0.0, 0.2),
    redeem_fee=st.floats(0.0, 0.2),
    alpha_omega_split=SHARE,
)


@given(POLICIES, SHARE, rows(ANY, ANY, ANY))
def test_mint_notional(policy, crypto_share, paths):
    assert_same_bits(*same(lambda value, cv, rv: mint_notional(policy, value, cv, rv, crypto_share)), paths)


@given(rows(ANY, ANY, ANY))
def test_pay_pro_rata(paths):
    # only books that hold something: the float form divides by their total
    paths = [(take, cv, rv) for take, cv, rv in paths if cv + rv != 0.0]
    if paths:
        assert_same_bits(*same(lambda take, cv, rv: pay_pro_rata(take, cv, rv, cv + rv)), paths)


def bounds(low=-1e300):
    """An ordered pair of finite floats, the lower at least ``low``; often a
    signed zero, where a clip that does not keep its operand on a tie
    shows."""
    end = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(low, 1e300))
    return st.tuples(end, end).map(sorted)


CONTROLLERS = st.builds(
    lambda gains, fee, reward, rate, leak, neutral: ControllerParams(
        *gains, fee[0], fee[1], reward[0], reward[1], rate[0], rate[1], leak, *neutral
    ),
    st.tuples(NON_NEGATIVE, NON_NEGATIVE, NON_NEGATIVE),
    bounds(), bounds(-1.0), bounds(), SHARE,
    st.tuples(st.floats(-1e300, 1e300), st.floats(-1.0, 1e300), st.floats(-1e300, 1e300)),
)


@given(CONTROLLERS, rows(ANY, ANY, ANY, ANY, st.sampled_from([1.0, -1.0])))
def test_control_deltas(params, paths):
    assert_same_bits(
        lambda fee, reward, rate, excess, sign: control_deltas(params, (fee, reward, rate), excess, sign),
        lambda fee, reward, rate, excess, sign: control_deltas(params, (fee, reward, rate), excess, sign, _clip),
        paths,
    )


@given(POSITIVE, rows(ANY, ANY))
def test_price_impact(depth, paths):
    # only where libm's exp does not overflow: the float form raises there
    paths = [(p, f) for p, f in paths if not f / depth > 709.0]
    if paths:
        assert_same_bits(
            lambda price, flow: (price_impact(price, flow, depth),),
            lambda price, flow: (price_impact(price, flow, depth, lambda x: _exp_paths(x, np.zeros(len(x), bool))),),
            paths,
        )


def libm_exp_edges():
    """Signed zeros, -inf, NaN, results that underflow to subnormals or 0,
    and both sides of 709.0 (the flag) and of log(DBL_MAX) ~ 709.78 (where
    ``math.exp`` overflows)."""
    points = [0.0, -0.0, -math.inf, math.inf, math.nan, -708.4, -740.0, -745.1, -745.2, -746.0, 1e-300]
    for c in (709.0, 709.78, math.log(sys.float_info.max)):
        points += [c, np.nextafter(c, -math.inf), np.nextafter(c, math.inf)]
    return points


def test_exp_paths_is_libm_exp():
    rng = np.random.default_rng(23)
    x = np.concatenate((
        rng.normal(0.0, 30.0, 200_000), rng.uniform(-746.0, 710.0, 200_000),
        np.linspace(705.0, 710.0, 20_001), libm_exp_edges(),
    ))
    redo = np.zeros(len(x), dtype=bool)
    redo[0] = True  # a flag already set stays set
    with np.errstate(all="ignore"):  # as in the batch: a flagged value may overflow
        got = _exp_paths(x, redo)
    assert np.array_equal(redo[1:], x[1:] > 709.0) and redo[0]
    keep = ~(x > 709.0)
    want = np.fromiter(map(math.exp, x[keep].tolist()), float, int(keep.sum()))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got[keep]), nan)
    assert np.array_equal(got[keep][~nan].view(np.int64), want[~nan].view(np.int64))


@given(rows(ANY))
def test_exp_paths_flags_exactly_above_709(paths):
    x = np.array([p for (p,) in paths])
    redo = np.zeros(len(x), dtype=bool)
    with np.errstate(all="ignore"):
        got = _exp_paths(x, redo)
    assert redo.tolist() == [v > 709.0 for v in x.tolist()]
    assert [repr(float(g)) for g, r in zip(got, redo) if not r] == [
        repr(math.exp(v)) for v in x.tolist() if not v > 709.0
    ]
