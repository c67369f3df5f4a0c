"""Shock streams: pinned bits, the inverse-CDF port against SciPy, the tails'
``log`` against ``math.log``, no SciPy import."""

import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import janus_sim
from janus_sim.rng import _EXPM2, _libm_log, _ndtri, shock_block

# SHA-256 of shock_block(seed, path, horizon, width).tobytes(), recorded with
# scipy.special.ndtri as the inverse CDF.  Every ensemble, frontier cell and
# acceptance figure is a function of these bits.
PINNED = {
    (41, 0, 365, 6): "919eb5a3b855de8c0f12181b0c890e360c439e3e0a785ba31328e8fcba90d29f",
    (41, 7, 365, 6): "47c16bc522e86c18a61de97df3f0e1667e8ac2ab34f4e3718d9525cd0c013a57",
    (1, 0, 1, 1): "2c35b4f32fafd7f9f287bbff123b0878cbe9e3151daafde148ef4942477a62a2",
    (0, 0, 10, 4): "d467a1e1cb56744dc139634a6ebc6a24fcbfb59bf47f0fbd02cb67e213a33a58",
    (2024, 3, 500, 40): "cc37bb16b70d5837bb6c60ff4a33e0a19a7c8d11c82c68e248bc961790c29ae6",
    ((1 << 64) - 1, (1 << 64) - 1, 64, 3):
        "24779819b06ea7e4082f46256223d078e02064c6428471c7b0af5963af59f02f",
}


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_shock_block_bits_are_pinned(case):
    assert hashlib.sha256(shock_block(*case).tobytes()).hexdigest() == PINNED[case]


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_used_columns_keep_their_bits(case):
    # the engine inverts only the columns it reads, from the same draws
    for used in sorted({1, case[3] - 1, case[3]} - {0}):
        part = shock_block(*case, used)
        assert part.shape == (case[2], used)
        assert part.tobytes() == np.ascontiguousarray(shock_block(*case)[:, :used]).tobytes()


def boundary_points():
    e2 = math.exp(-2.0)
    points = [0.5, 1e-16, 1.0 - 2.2e-16, 1e-300, 5e-324, 2.0 ** -60, 1e-15, 1.2e-14, 1.3e-14]
    for c in (e2, 1.0 - e2, 0.13533528323661269189, 1.0 - 0.13533528323661269189, math.exp(-32.0)):
        points += [c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)]
    # below exp(-32) sqrt(-2 log y) >= 8: the far-tail approximation
    points += list(np.geomspace(5e-324, math.exp(-32.0), 200))
    points += [1.0 - p for p in points if p < 0.5]
    return np.array([p for p in points if 0.0 < p < 1.0])


class TestAgainstScipy:
    """The port is SciPy's own algorithm, so it must agree bit for bit."""

    @pytest.fixture(autouse=True)
    def scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        self.ndtri = special.ndtri

    def assert_same_bits(self, u):
        got, want = _ndtri(u), self.ndtri(u)
        assert got.shape == want.shape
        diff = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert diff.size == 0, [(u.flat[i], got.flat[i], want.flat[i]) for i in diff[:5]]

    def test_uniform_draws(self):
        u = np.random.default_rng(20240607).random(1_000_000)
        self.assert_same_bits(u * (1.0 - 2e-16) + 1e-16)

    def test_boundary_points(self):
        pts = boundary_points()
        assert (np.sqrt(-2.0 * np.log(np.minimum(pts, 1.0 - pts))) >= 8.0).sum() > 100
        self.assert_same_bits(pts)

    def test_two_dimensional_block(self):
        self.assert_same_bits(np.random.default_rng(5).random((365, 6)))


def test_package_loads_no_scipy():
    src = str(Path(janus_sim.__file__).resolve().parents[1])
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import janus_sim, janus_sim.cli\n"
            "assert janus_sim.__file__.startswith(sys.path[0])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_tail_logs_stay_where_the_complex_log_is_libm_log():
    # the second tail log's argument sqrt(-2 log y) is at least 2 for every
    # tail y <= exp(-2), because the first log gives exactly -2.0 there
    assert math.log(_EXPM2) == -2.0
    assert _libm_log(np.array([_EXPM2])).tolist() == [-2.0]


def test_libm_log_is_math_log():
    rng = np.random.default_rng(29)
    tiny = sys.float_info.min
    a = np.concatenate((
        rng.uniform(1e-16, _EXPM2, 200_000), np.geomspace(tiny, _EXPM2, 100_000),
        rng.uniform(2.0, 40.0, 200_000), np.linspace(2.0, 40.0, 100_001),
        np.geomspace(5e-324, tiny, 2_000), [5e-324, np.nextafter(tiny, 0.0), tiny, 1e-16, _EXPM2, 2.0],
    ))
    want = np.fromiter(map(math.log, a.tolist()), float, a.size)
    assert np.array_equal(_libm_log(a).view(np.int64), want.view(np.int64))
