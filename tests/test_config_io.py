"""Config serialization round-trips, hashing, and the bundled presets."""

import json
from dataclasses import replace

import pytest

from janus_sim.config_io import (
    PRESET_NAMES,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    load_preset,
)
from janus_sim.sim_engine import ConfigError

from test_sim_engine import small_config


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        cfg = small_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_with_stress_and_failure(self):
        from janus_sim.sim_engine import FailureDef, StressKind, StressOverlay

        cfg = small_config(
            stress=StressOverlay(StressKind.DEMAND_COLLAPSE, onset=5, magnitude=0.8, duration=10),
            failure=FailureDef(grace=7, floor=0.4),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_round_trip(self, name):
        cfg = load_preset(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(str(path)) == cfg


class TestValidation:
    def test_unknown_top_key_rejected(self):
        data = config_to_dict(small_config())
        data["typo_section"] = {}
        with pytest.raises(ConfigError, match="typo_section"):
            config_from_dict(data)

    def test_unknown_market_key_rejected(self):
        data = config_to_dict(small_config())
        data["market"]["depht_alpha"] = 1.0
        del data["market"]["depth_alpha"]
        with pytest.raises(ConfigError, match="depht_alpha"):
            config_from_dict(data)

    def test_missing_required_section(self):
        data = config_to_dict(small_config())
        del data["assets"]
        with pytest.raises(ConfigError, match="assets"):
            config_from_dict(data)

    def test_asymmetric_correlation_rejected(self):
        data = config_to_dict(small_config())
        data["correlation"] = [[1.0, 0.5], [0.3, 1.0]]
        with pytest.raises(ConfigError, match="correlation"):
            config_from_dict(data)

    @pytest.mark.parametrize("key", ["depth_alpha", "liq_enabled"])
    def test_market_key_at_top_level_rejected(self, key):
        data = config_to_dict(small_config())
        data[key] = data["market"].pop(key)
        with pytest.raises(ConfigError, match=key):
            config_from_dict(data)

    def test_missing_key_in_section_rejected(self):
        data = config_to_dict(small_config())
        del data["assets"][1]["kind"]
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(data)

    def test_governance_defaults_to_a_single_holder(self):
        data = config_to_dict(small_config())
        del data["governance"]
        assert config_from_dict(data).governance.weights == (1.0,)
        data["governance"] = {}
        assert config_from_dict(data).governance.weights == (1.0,)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


# config_hash of each preset: any change to the serialized form of a config
# changes these digests, and with them every manifest's config_hash.
PRESET_DIGESTS = {
    "janus_baseline": "6745fc1fdb43da95276d502a7d067ece5b34e6869e7961119c1983f666271f32",
    "usdc_like": "a1efdcf652f7479249bf831c66b2f16c830fd3ca5aac647b41c59270c51d8480",
    "dai_like": "7a173abc2bdf6e6e398195d000e58e182d6331b5a1ebaff33494a3e2a7210bbe",
    "ust_like": "b41c7aa65189aa290b43581ba41db6800619e1ece5f43987e4a180d2b0ca1916",
    "flatcoin_like": "78b969c1598da1f321838461396c4bdbd0ad9536516ba1dafc02d7cbb2466f78",
}


class TestHash:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_digests_pinned(self, name):
        assert config_hash(load_preset(name)) == PRESET_DIGESTS[name]

    def test_variant_digest_pinned(self):
        # a stress overlay, a non-default failure rule and int values in
        # float fields (hashed as ints)
        data = config_to_dict(load_preset("janus_baseline"))
        data["assets"][0]["drift"] = 0
        data["market"]["depth_alpha"] = 5000
        data["failure"] = {"grace": 7, "floor": 0.4}
        data["stress"] = {"kind": "crypto_crash", "onset": 60, "magnitude": 0.5, "duration": 40}
        digest = "cad1a06ccefb8bf9d898b09a16ad31c6292e932e885c3aaa174939537fc809ed"
        assert config_hash(config_from_dict(data)) == digest

    def test_stable(self):
        cfg = small_config()
        assert config_hash(cfg) == config_hash(small_config())

    def test_sensitive_to_any_field(self):
        cfg = small_config()
        assert config_hash(cfg) != config_hash(replace(cfg, seed=cfg.seed + 1))
        assert config_hash(cfg) != config_hash(replace(cfg, turnover=cfg.turnover + 0.01))

    def test_hex_digest_shape(self):
        h = config_hash(small_config())
        assert len(h) == 64
        int(h, 16)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_load(self, name):
        cfg = load_preset(name)
        assert cfg.horizon >= 1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("nonexistent")

    def test_baseline_is_dual_asset(self):
        cfg = load_preset("janus_baseline")
        assert len(cfg.assets) == 2
