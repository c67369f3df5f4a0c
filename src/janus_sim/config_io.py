"""Scenario config serialization: JSON files in, validated dataclasses out.

The config dataclasses are the schema.  A section's keys are its
dataclass's fields, and each value must match the field's annotation:
``int`` is an int (not a bool), ``float`` an int or a float (not a bool)
of magnitude at most the largest float, compared exactly (not NaN or inf),
``bool`` a bool, a tuple a list, an enum one of its values, and a nested
dataclass an object.  Unknown keys, missing required keys and wrong value
types are errors in every section (typo protection).  Values are kept as
given (``"drift": 0`` stays an int), so a config hashes as it was written.

The file format departs from the dataclasses twice: ``correlation`` is the
bare matrix, and the market fields of ``ScenarioConfig`` are grouped under
``"market"``.  A missing ``governance`` section, or one without
``weights``, means a single holder.

Presets ship as data files under ``presets/`` so their calibration is
reviewable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import types
import typing
from enum import Enum
from importlib import resources

from .sim_engine import ConfigError, ScenarioConfig

PRESET_NAMES = ("janus_baseline", "usdc_like", "dai_like", "ust_like", "flatcoin_like")

# The ScenarioConfig fields that a config file groups under "market".
_MARKET_KEYS = (
    "depth_alpha",
    "depth_omega",
    "turnover",
    "micro_vol",
    "treasury_split",
    "skim_rate",
    "liq_penalty",
    "liq_enabled",
    "omega_senior",
)

_SCALARS = {
    int: ("an int", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max),
    bool: ("a bool", lambda v: isinstance(v, bool)),
}


@functools.cache
def _schema(cls) -> tuple[dict, list]:
    """``cls``'s field annotations, and its fields that have no default."""
    required = [
        f.name
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    return typing.get_type_hints(cls), required


def _object(name: str, data, allowed) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    return data


def _value(name: str, key: str, hint, value):
    """``value`` as the field ``key`` of section ``name`` holds it."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:  # ``T | None``
        return None if value is None else _value(name, key, typing.get_args(hint)[0], value)
    if origin is tuple:  # ``tuple[T, ...]``
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{key}' in '{name}' must be a list, got {value!r}")
        return tuple(_value(name, key, typing.get_args(hint)[0], v) for v in value)
    if dataclasses.is_dataclass(hint):
        return _build(key, hint, value)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint(value)
    what, ok = _SCALARS[hint]
    if not ok(value):
        raise ConfigError(f"'{key}' in '{name}' must be {what}, got {value!r}")
    return value


def _build(name: str, cls, data):
    """The dataclass ``cls`` from the JSON object ``data`` of section ``name``."""
    hints, required = _schema(cls)
    _object(name, data, hints)
    missing = [k for k in required if k not in data]
    if missing:
        raise ConfigError(f"missing key(s) in '{name}': {missing}")
    try:
        return cls(**{k: _value(name, k, hints[k], v) for k, v in data.items()})
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}' config: {exc}") from exc


def config_from_dict(data: dict) -> ScenarioConfig:
    top = set(_schema(ScenarioConfig)[0]) - set(_MARKET_KEYS) | {"market"}
    data = dict(_object("config", data, top))
    market = _object("market", data.pop("market", {}), _MARKET_KEYS)
    if "correlation" in data:
        data["correlation"] = {"entries": data["correlation"]}
    gov = data.get("governance", {})
    data["governance"] = {"weights": [1.0], **gov} if isinstance(gov, dict) else gov
    return _build("config", ScenarioConfig, {**data, **market})


def _plain(value):
    """Dataclasses as dicts (walking ``fields()``, not ``__dict__``, which
    holds ``ScenarioConfig``'s cached ``tables``), enums as their values,
    tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def config_to_dict(config: ScenarioConfig) -> dict:
    data = _plain(config)
    data["correlation"] = data["correlation"]["entries"]
    data["market"] = {k: data.pop(k) for k in _MARKET_KEYS}
    return data


def config_hash(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_json(text: str, what: str):
    """``text`` read as JSON (RFC 8259): Python's ``json`` also reads
    ``NaN``, ``Infinity`` and ``-Infinity``, which are rejected here."""

    def constant(name):
        raise ConfigError(f"{what} is not valid JSON: {name} is not a JSON number")

    try:
        return json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return config_from_dict(parse_json(text, "config file"))


def load_preset(name: str) -> ScenarioConfig:
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    text = resources.files("janus_sim.presets").joinpath(f"{name}.json").read_text()
    return config_from_dict(parse_json(text, "preset"))
