"""The solver's map on the state vector, pinned to the outputs of the
state-object route it replaced.

That route built a frozen state from the vector, stepped it once with the
clock frozen and flattened the successor.  Before it was deleted, ``step_map``
matched it entry for entry (by ``repr``, exceptions included) on every input
below; the SHA-256 of those outputs, one per variant, is pinned in
``STATE_ROUTE_DIGESTS``.
"""

import hashlib
import zlib
from dataclasses import replace

import numpy as np
import pytest

from janus_sim.config_io import PRESET_NAMES, load_preset
from janus_sim.controller import SolverError, find_fixed_point, step_map
from janus_sim.core_state import HEADER_DIM, StateError, to_vector
from janus_sim.sim_engine import ScenarioConfig, StressKind, StressOverlay, initial_state

RATES = [6, 7, 8]

# SHA-256 over ``repr(outcome(...)) + "\n"`` of each input in order, as the
# state-object route gave them; no input of any variant raises.
STATE_ROUTE_DIGESTS = {
    "janus_baseline": "2a051fa28c20d3463bee57dcf63bfd61b14ef301a48ebd9cb056bad702f5984d",
    "usdc_like": "49f6e62f57f1a61a615d353a552b644a35a351b7903d5188a9b4fd90ef5b6b13",
    "dai_like": "7032345c8d7bea8b1b278aa335e9517d7aae29fc61c9cd3dab4bb6dc00a9dff3",
    "ust_like": "24415b720cdacee4115a24160e546527ee990372a6e351e13f4fdeb33a719a2f",
    "flatcoin_like": "88865ace55d22140aeb829ed5dd03d26b56868d88df201148ca51607663821e4",
    "janus_baseline+crypto_crash@0": "df8acca8318e21b745ddcfb335018fe1fce7c3726b6efdf7a9ac463f32ef501c",
    "janus_baseline+rwa_shortfall@0": "6318f512ba03a28fd75bd26e6b13407a0112344cff66d7a9ce79c60c354a9aea",
    "janus_baseline+demand_collapse@0": "f0d1498f9a950440b78630810c0df9e95704f3daca40a749d6d3aeb8f73cb8d2",
    "janus_baseline+omega_senior": "fbfe92f1ec9c1336b734d3fbd3fb93ee11e0c2611720f3f8496139fd1b92e8aa",
}


def outcome(fn):
    """Every entry's repr as a Python float (exact, and the same text under
    any numpy version), or the exception a call raised."""
    try:
        return [repr(float(v)) for v in fn()]
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


def probes(rng, centres, n):
    """Random vectors around ``centres``: relative and absolute jitter, some
    monetary entries negative, some entries -0.0, some rates negative, and
    nonzero retired slots."""
    out = []
    for k in range(n):
        c = centres[k % len(centres)]
        x = c * (1.0 + rng.normal(0.0, 0.3, c.shape)) + rng.normal(0.0, 0.01, c.shape)
        neg = rng.random(c.shape) < 0.15
        neg[RATES] = False
        x[neg] = -np.abs(x[neg]) - rng.random(int(neg.sum()))
        zero = rng.random(c.shape) < 0.1
        x[zero] = -0.0
        if k % 2:
            x[RATES] = -np.abs(x[RATES]) - 0.01 * rng.random(3)
        x[-2:] = rng.normal(0.0, 100.0, 2)
        out.append(x)
    return out


def variants():
    base = load_preset("janus_baseline")
    cases = [(name, load_preset(name)) for name in PRESET_NAMES]
    # the frozen clock is t = 0, so an overlay with onset 0 is active
    for kind, magnitude in (
        (StressKind.CRYPTO_CRASH, 0.3),
        (StressKind.RWA_SHORTFALL, 0.5),
        (StressKind.DEMAND_COLLAPSE, 0.8),
    ):
        stress = StressOverlay(kind, onset=0, magnitude=magnitude, duration=30)
        cases.append((f"janus_baseline+{kind.value}@0", replace(base, stress=stress)))
    cases.append(("janus_baseline+omega_senior", replace(base, omega_senior=True)))
    return cases


VARIANTS = variants()


def inputs(name, config):
    """The start point, the fixed point (the start point if the solve
    diverges) and 120 probes around them."""
    x0 = to_vector(*initial_state(config))
    try:
        x_star = find_fixed_point(lambda x: step_map(x, config), x0).x_star
    except SolverError:
        x_star = x0
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return [x0, x_star] + probes(rng, [x0, x_star], 120)


@pytest.mark.parametrize("name,config", VARIANTS, ids=[n for n, _ in VARIANTS])
def test_step_map_matches_state_route(name, config):
    xs = inputs(name, config)
    assert len(xs) == 122
    digest = hashlib.sha256()
    for x in xs:
        digest.update((repr(outcome(lambda: step_map(x, config))) + "\n").encode())
    assert digest.hexdigest() == STATE_ROUTE_DIGESTS[name]


@pytest.mark.parametrize("name,config", VARIANTS, ids=[n for n, _ in VARIANTS])
def test_list_form_matches_array_form(name, config):
    xs = inputs(name, config)
    # a head of -0.0 and negative monetary entries, where the clamp rule acts
    clamped = xs[0].copy()
    clamped[:6] = [-0.0, -1.0, -0.0, -2.5, -0.0, -3.0]
    for x in xs + [clamped]:
        want = outcome(lambda: step_map(x, config))
        got = step_map(x.tolist(), config)
        assert type(got) is list and all(type(v) is float for v in got)
        assert [repr(v) for v in got] == want


def test_step_map_ignores_units_and_retired_slots():
    config = load_preset("dai_like")
    x = to_vector(*initial_state(config))
    y = x.copy()
    y[HEADER_DIM:] = [-5.0, 3.0, 7.0][: len(y) - HEADER_DIM]
    assert step_map(x, config).tobytes() == step_map(y, config).tobytes()


def test_step_map_rejects_wrong_length():
    config = load_preset("janus_baseline")
    for x in (np.zeros(3), [0.0] * 3, [0.0] * 14):
        with pytest.raises(StateError):
            step_map(x, config)


def test_reloaded_config_is_not_compared_on_every_call(monkeypatch):
    # The map's constants live on the config object: a cache keyed by the
    # config would compare an equal config loaded again field by field on
    # every call.
    first, again = load_preset("janus_baseline"), load_preset("janus_baseline")
    x = to_vector(*initial_state(first)).tolist()
    assert step_map(x, first) == step_map(x, again)
    compared = []
    eq = ScenarioConfig.__eq__
    monkeypatch.setattr(ScenarioConfig, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    for _ in range(100):
        step_map(x, again)
    assert compared == []
