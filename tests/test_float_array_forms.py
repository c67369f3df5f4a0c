"""The functions that run on floats and on path stacks give the same bits
either way.  ``path_batch`` holds its state as ``(k, paths)`` stacks (both
tokens, both books, the three controller rates) and a config's per-row
values as ``(k, 1)`` columns; element [r, j] of a stacked result is, by
repr, the result of the float call on row r's column values and path j's
floats.  A draw with no row axis checks the ``(paths,)`` form with float
parameters.  Hypothesis draws on each function's unguarded branch (the
inputs its float caller lets through), with ±0.0, subnormals, the largest
finite floats, inf and NaN wherever the float form does not raise.
``_exp_paths``, the batch's ``exp``, is checked against ``math.exp`` bit
for bit."""

import math
import sys

import numpy as np
from hypothesis import given, strategies as st

from janus_sim.controller import control_deltas
from janus_sim.market import DemandParams, demand_flow
from janus_sim.path_batch import _clip, _exp_paths
from janus_sim.protocol import MintPolicy, mint_notional, pay_pro_rata
from janus_sim.sim_engine import price_impact

ANY = st.floats()
POSITIVE = st.floats(min_value=0.0, exclude_min=True)  # subnormals and inf included
NON_NEGATIVE = st.floats(min_value=0.0)
NONZERO = ANY.filter(lambda x: x != 0.0)
SHARE = st.floats(0.0, 1.0)


@st.composite
def stacks(draw, columns=(), rows=(), shared=()):
    """A stack layout and its draws: ``k`` rows (None: no row axis), each
    with a tuple of ``columns`` draws (its per-config values); 1 to 8 paths,
    each with a tuple of ``rows`` draws per row and a tuple of ``shared``
    draws (per-path values common to every row)."""
    k = draw(st.sampled_from([None, 1, 2, 3]))
    n = draw(st.integers(1, 8))
    per_row = draw(st.lists(st.tuples(*columns), min_size=k or 1, max_size=k or 1))
    cells = draw(st.lists(st.lists(st.tuples(*rows), min_size=n, max_size=n), min_size=k or 1, max_size=k or 1))
    common = draw(st.lists(st.tuples(*shared), min_size=n, max_size=n))
    return k, per_row, cells, common


def assert_same_bits(on_floats, on_arrays, case):
    """``on_arrays`` on ``(k, 1)`` columns, ``(k, paths)`` row stacks and
    ``(paths,)`` shared arrays gives at [r, j], for every output, the bits of
    ``on_floats`` on row r's and path j's floats (without a row axis: float
    columns and ``(paths,)`` rows)."""
    k, per_row, cells, common = case

    def array(values, width):
        return [np.array([v[i] for v in values], dtype=float) for i in range(width)]

    n_cols, n_rows, n_shared = len(per_row[0]), len(cells[0][0]), len(common[0])
    if k is None:
        cols = list(per_row[0])
        rows = array(cells[0], n_rows)
    else:
        cols = [c[:, None] for c in array(per_row, n_cols)]
        rows = [np.stack(r) for r in zip(*(array(c, n_rows) for c in cells))]
    with np.errstate(all="ignore"):
        out = on_arrays(*cols, *rows, *array(common, n_shared))
    for r in range(k or 1):
        for j, path in enumerate(common):
            want = on_floats(*per_row[r], *cells[r][j], *path)
            got = [v[j] if k is None else v[r, j] for v in out]
            assert [repr(float(g)) for g in got] == [repr(float(w)) for w in want], (r, j)


def same(fn):
    return fn, fn


@given(
    st.builds(DemandParams, base_inflow=ANY, sentiment_gain=ANY, deviation_gain=ANY, noise_vol=NON_NEGATIVE),
    ANY, NONZERO, stacks(columns=(SHARE,), rows=(POSITIVE,), shared=(ANY, ANY)),
)
def test_demand_flow(params, base, p_ref, case):
    # the token weights as a column, the prices as rows; trend and noise per path
    assert_same_bits(
        *same(lambda weight, price, trend, noise: demand_flow(params, base, weight, price, p_ref, trend, noise)),
        case,
    )


POLICIES = st.builds(
    MintPolicy,
    min_collateral_ratio=st.floats(1.0, 3.0),
    mint_fee=st.floats(0.0, 0.2),
    redeem_fee=st.floats(0.0, 0.2),
    alpha_omega_split=SHARE,
)


@given(POLICIES, stacks(columns=(SHARE, SHARE), rows=(ANY,), shared=(ANY,)))
def test_mint_notional(policy, case):
    # token weights and book shares as columns, the books as rows; the deposit per path
    assert_same_bits(
        *same(lambda weight, share, book, value: mint_notional(policy, value, weight, book, share)), case
    )


@given(stacks(rows=(ANY,), shared=(ANY, NONZERO)))
def test_pay_pro_rata(case):
    # the books as rows; the payout and the books' total per path (the float
    # form divides by the total, so only books that hold something)
    assert_same_bits(*same(lambda book, take, total: (pay_pro_rata(take, book, total),)), case)


def bounds(low=-1e300):
    """An ordered pair of finite floats, the lower at least ``low``; often a
    signed zero, where a clip that does not keep its operand on a tie
    shows."""
    end = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(low, 1e300))
    return st.tuples(end, end).map(sorted)


SIGNED_GAINS = st.one_of(NON_NEGATIVE, NON_NEGATIVE.map(lambda g: -g))


@given(stacks(columns=(SIGNED_GAINS, bounds()), rows=(ANY,), shared=(ANY, st.sampled_from([1.0, -1.0]))))
def test_control_deltas(case):
    # signed gains and bounds as columns, the rates as rows; the excess past
    # the band and the side per path
    k, per_row, cells, common = case
    case = k, [(g, *b) for g, b in per_row], cells, common
    assert_same_bits(
        lambda gain, lo, hi, rate, excess, sign: (control_deltas(rate, excess, sign, gain, lo, hi),),
        lambda gain, lo, hi, rate, excess, sign: (control_deltas(rate, excess, sign, gain, lo, hi, _clip),),
        case,
    )


@given(stacks(columns=(POSITIVE,), rows=(ANY, ANY)))
def test_price_impact(case):
    # only where libm's exp does not overflow: the float form raises there
    k, per_row, cells, common = case
    cells = [[(p, f) if not f / depth > 709.0 else (p, 0.0) for p, f in row] for (depth,), row in zip(per_row, cells)]
    assert_same_bits(
        lambda depth, price, flow: (price_impact(price, flow, depth),),
        lambda depth, price, flow: (price_impact(price, flow, depth, lambda x: _exp_paths(x, np.zeros(x.shape[-1], bool))),),
        (k, per_row, cells, common),
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


@given(stacks(rows=(ANY,)))
def test_exp_paths_flags_exactly_above_709(case):
    # on a stack of rows, a path is flagged when any of its rows is
    k, _, cells, _ = case
    x = np.array([[v for (v,) in row] for row in cells])
    if k is None:
        x = x[0]
    redo = np.zeros(x.shape[-1], dtype=bool)
    with np.errstate(all="ignore"):
        got = _exp_paths(x, redo)
    assert redo.tolist() == [any(row[j][0] > 709.0 for row in cells) for j in range(len(redo))]
    for r, row in enumerate(cells):
        for j, (v,) in enumerate(row):
            if not v > 709.0:
                assert repr(float(got[j] if k is None else got[r, j])) == repr(math.exp(v))
