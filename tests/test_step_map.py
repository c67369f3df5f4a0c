"""The solver's map on the state vector, checked against the state-level
route it replaced: ``to_vector(step_once(from_vector(x), ...))``."""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from janus_sim.config_io import PRESET_NAMES, load_preset
from janus_sim.controller import SolverError, find_fixed_point, step_map
from janus_sim.core_state import HEADER_DIM, from_vector, to_vector
from janus_sim.sim_engine import (
    StressKind,
    StressOverlay,
    initial_state,
    shock_width,
    step_once,
)

RATES = [6, 7, 8]


def state_route(x, config, template):
    """One frozen-clock step through the state containers."""
    zeros = np.zeros(shock_width(config))
    return to_vector(step_once(from_vector(x, template), config, zeros, 0.0, 0, frozen_time=True)[0])


def outcome(fn):
    """Every entry's repr, or the exception a call raised."""
    try:
        return [repr(v) for v in fn()]
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


@pytest.mark.parametrize("name,config", VARIANTS, ids=[n for n, _ in VARIANTS])
def test_step_map_matches_state_route(name, config):
    template = initial_state(config)
    x0 = to_vector(template)
    try:
        x_star = find_fixed_point(lambda x: step_map(x, config), x0).x_star
    except SolverError:
        x_star = x0
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    inputs = [x0, x_star] + probes(rng, [x0, x_star], 120)
    for x in inputs:
        new = outcome(lambda: step_map(x, config))
        old = outcome(lambda: state_route(x, config, template))
        assert new == old, f"{name}: {x!r}"


def test_step_map_ignores_units_and_retired_slots():
    config = load_preset("dai_like")
    x = to_vector(initial_state(config))
    y = x.copy()
    y[HEADER_DIM:] = [-5.0, 3.0, 7.0][: len(y) - HEADER_DIM]
    assert step_map(x, config).tobytes() == step_map(y, config).tobytes()


def test_step_map_rejects_wrong_length():
    config = load_preset("janus_baseline")
    with pytest.raises(ValueError):
        step_map(np.zeros(3), config)
