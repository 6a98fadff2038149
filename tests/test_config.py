"""Experiment config: round trips, strict parsing, content hashing."""

import dataclasses
import json

import pytest

from promptseg.config import (
    ApfConfig,
    DataConfig,
    ExperimentConfig,
    OracleConfig,
    SpgConfig,
    config_hash,
    default_config,
    from_dict,
    load_config,
    save_config,
    to_json,
)
from promptseg.errors import FormatError
from promptseg.styles import StyleJitter


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        cfg = default_config()
        assert from_dict(json.loads(to_json(cfg))) == cfg

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_config(p1, default_config())
        save_config(p2, load_config(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_default_values_survive(self, tmp_path):
        cfg = ExperimentConfig(
            data=DataConfig(size=32, styled_train=48,
                            jitter=StyleJitter(hue_shift=5.0)),
            oracle=OracleConfig(iters=10, widths=(4, 6, 8), kernel=3),
            spg=SpgConfig(variant="full", init="meta", lr=0.25),
            apf=ApfConfig(betas=(0.8, 0.99), mix_styled=False),
            seeds=(7, 8),
        )
        p = tmp_path / "cfg.json"
        save_config(p, cfg)
        loaded = load_config(p)
        assert loaded == cfg
        assert isinstance(loaded.oracle.widths, tuple)
        assert isinstance(loaded.apf.betas, tuple)
        assert isinstance(loaded.seeds, tuple)

    def test_partial_dict_fills_defaults(self):
        cfg = from_dict({"seeds": [3], "spg": {"iters": 7}})
        assert cfg.seeds == (3,)
        assert cfg.spg.iters == 7
        assert cfg.apf == ApfConfig()
        # betas hold floats by default, so ints are numbers there too
        assert from_dict({"apf": {"betas": [0, 0.5]}}).apf.betas == (0, 0.5)


class TestStrictness:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FormatError):
            from_dict({"extra": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(FormatError):
            from_dict({"spg": {"iters": 5, "typo": 1}})

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            load_config(p)

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(FormatError):
            load_config(p)


class TestValidation:
    def test_default_config_is_valid(self):
        default_config().validate()

    @pytest.mark.parametrize("override", [
        {"spg": {"variant": "wedge"}},
        {"spg": {"init": "xavier"}},
        {"data": {"size": 33}},
        {"data": {"size": 0}, "spg": {"variant": "full"}},
        {"data": {"size": -8}, "spg": {"variant": "a_full"}},
        {"data": {"base_train": 0}},
        {"seeds": []},
        {"seeds": [1, 1]},
        # a list whose default holds ints takes ints only
        {"seeds": [0.5]},
        {"seeds": [0, 0.5]},
        {"seeds": [True]},
        {"oracle": {"widths": [16.5, 32, 64]}},
        # a multiple of 8 too small for a scene's sign disc to render
        {"data": {"size": 8}, "spg": {"variant": "full"}},
    ])
    def test_bad_values_rejected(self, override):
        with pytest.raises(ValueError):
            from_dict(override)

    @pytest.mark.parametrize("section", ["oracle", "spg", "apf"])
    @pytest.mark.parametrize("field, value", [("iters", -1), ("batch", 0), ("lr", 0.0)])
    def test_bad_budget_rejected(self, section, field, value):
        with pytest.raises(ValueError, match=section):
            from_dict({section: {field: value}})

    @pytest.mark.parametrize("override", [
        {"spg": {"meta_iters": -1}},
        {"apf": {"embed_dim": 0}},
        {"apf": {"t_mult": 0}},
        {"apf": {"betas": [0.5]}},
        {"apf": {"betas": [0.5, 1.0]}},
        {"apf": {"betas": [-0.1, 0.999]}},
        {"spg": {"depth": 0}},
        {"oracle": {"kernel": 0}},
        {"oracle": {"widths": []}},
        {"oracle": {"widths": [8, 0, 16]}},
        {"spg": {"variant": "border", "pad": 0}},
        {"spg": {"variant": "a_border", "pad": 32}},
        {"data": {"size": 16}, "spg": {"pad": 8}},
    ])
    def test_bad_shapes_rejected(self, override):
        with pytest.raises(ValueError):
            from_dict(override)

    @pytest.mark.parametrize("variant", ["full", "a_full"])
    def test_full_variants_ignore_pad(self, variant):
        # the full-canvas templates build no border, so pad never applies
        from_dict({"spg": {"variant": variant, "pad": 32}})


class TestHashing:
    def test_hash_is_stable(self):
        assert config_hash(default_config()) == config_hash(default_config())

    def test_hash_tracks_every_section(self):
        base = default_config()
        h0 = config_hash(base)
        variants = [
            dataclasses.replace(base, data=DataConfig(base_train=129)),
            dataclasses.replace(base, oracle=OracleConfig(iters=1501)),
            dataclasses.replace(base, spg=SpgConfig(lr=0.011)),
            dataclasses.replace(base, apf=ApfConfig(mix_styled=False)),
        ]
        hashes = {config_hash(v) for v in variants}
        assert h0 not in hashes
        assert len(hashes) == len(variants)

    def test_hash_is_short_hex(self):
        h = config_hash(default_config())
        assert len(h) == 16
        int(h, 16)
