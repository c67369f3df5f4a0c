"""Reproducible shock streams for Monte Carlo paths.

Each path draws from a counter-based Philox generator keyed by
(base_seed, path_index), so any path can be generated independently of
worker layout or execution order.  Per step the engine consumes one
fixed-width row of standard normals; purposes are indexed by column, so
adding a new draw site means widening the block, never perturbing existing
columns.

Normals come from the inverse CDF applied to uniforms, which consumes
exactly one 64-bit draw per value (rejection samplers would make the
counter consumption data-dependent).  The inverse CDF is a NumPy port of
``ndtri`` from the Cephes Math Library (S. L. Moshier), the routine behind
``scipy.special.ndtri``: the same three rational approximations, evaluated
with the same Horner recurrences and the same order of operations, so the
shocks keep the bits they had when SciPy computed them.  The tails need
the platform libm's ``log``, which the port takes through NumPy's complex
``log`` (``_libm_log``): ``np.log`` on floats has its own SIMD
implementation, which rounds some inputs differently.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_MASK64 = (1 << 64) - 1

# sqrt(2 pi)
_S2PI = 2.50662827463100050242e0
# exp(-2): |y - 0.5| below 0.5 - exp(-2) takes the central approximation
_EXPM2 = 0.13533528323661269189
_ONE_MINUS_EXPM2 = 1.0 - _EXPM2
_DBL_MIN = sys.float_info.min

# y - 0.5 in the centre: x = y + y * y2 * P0(y2) / Q0(y2), y2 = y * y
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tails, z = 1 / sqrt(-2 log y) with sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# far tails, sqrt(-2 log y) >= 8, i.e. y below exp(-32)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^N + ... + coef[N] by Horner's rule, as Cephes ``polevl``."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Like ``_polevl`` with an implied leading coefficient 1 (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(a: np.ndarray) -> np.ndarray:
    """``math.log`` of each element, bit for bit, for elements in (0, 0.5) or
    [2, 2**1023): NumPy's complex ``log`` is libm's ``clog``, whose real part
    for ``x + 0j`` is ``log(hypot(x, 0)) = log(x)`` there (near 1 it takes
    ``log1p``, and it rescales very large and subnormal ``x``).  Subnormals
    go through ``math.log``.  The tails' arguments lie in that domain: below
    exp(-2), and at least 2 (``math.log(_EXPM2)`` is exactly -2.0)."""
    z = a.astype(np.complex128)
    out = np.log(z, out=z).real
    sub = a < _DBL_MIN
    if sub.any():
        out[sub] = [math.log(v) for v in a[sub].tolist()]
    return out


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard-normal inverse CDF of every entry of the float array ``y0``,
    each in (0, 1)."""
    flat = y0.ravel()

    # The central approximation, evaluated everywhere and overwritten on the
    # tails.  There y * y < 0.25 stays below Q0's smallest positive root
    # (0.2556), so the discarded values are finite.
    out = flat - 0.5
    y2 = out * out
    r = _polevl(y2, _P0)
    r *= y2
    r /= _p1evl(y2, _Q0)
    r *= out
    out += r
    out *= _S2PI

    tail = (flat <= _EXPM2) | (flat > _ONE_MINUS_EXPM2)
    yt = np.compress(tail, flat)
    # the upper tail reflected, y = 1 - y0; the lower tail as it is
    x = _libm_log(np.minimum(yt, 1.0 - yt))
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = _libm_log(x)
    x0 /= x
    np.subtract(x, x0, out=x0)
    z = 1.0 / x
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _p1evl(z, _Q1)
    far = x >= 8.0
    if far.any():
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 -= x1
    # x0 > 0: negative on the lower tail, as Cephes's x = -x
    yt -= 0.5
    np.copysign(x0, yt, out=x0)
    np.place(out, tail, x0)
    return out.reshape(y0.shape)


def path_generator(base_seed: int, path_index: int) -> np.random.Generator:
    key = ((base_seed & _MASK64) << 64) | (path_index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def shock_block(base_seed: int, path_index: int, horizon: int, width: int, used: int | None = None) -> np.ndarray:
    """(horizon, width) standard-normal shocks for one path; given ``used``,
    only their first ``used`` columns, from the same draws."""
    g = path_generator(base_seed, path_index)
    u = g.random((horizon, width))[:, :used]
    # Map [0, 1) into (0, 1) so the inverse CDF stays finite.
    u = u * (1.0 - 2e-16) + 1e-16
    return _ndtri(u)
