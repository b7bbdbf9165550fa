"""Configuration parsing: schema checks, field paths, bundled files."""

import json

import numpy as np
import pytest

from conftest import config_text
from nullctrl import (CoercivityError, ConfigError, kalman_certificate,
                      load_config, parse_config)


def minimal_doc():
    return {
        "system": {"D": [[1.0]], "Q": [[0.0]], "R": [[1.0]]},
        "model": {"kind": "dirichlet_interval", "num_modes": 4},
        "omegas": ["full"],
    }


class TestBundledConfigs:
    def test_all_bundled_configs_parse(self):
        names = ["case1.json", "case2.json", "case2_fail.json",
                 "case3.json", "torus_stokes.json"]
        for name in names:
            cfg = parse_config(config_text(name))
            assert cfg.masks and len(cfg.masks) == cfg.system.m

    def test_case1_certificate_controllable(self):
        cfg = parse_config(config_text("case1.json"))
        verdict = kalman_certificate(cfg.system, cfg.model)
        assert verdict.controllable

    def test_case2_fail_certificate_fails(self):
        cfg = parse_config(config_text("case2_fail.json"))
        verdict = kalman_certificate(cfg.system, cfg.model)
        assert not verdict.controllable
        assert verdict.p0 == 0

    def test_case3_experiment_block_round_trips(self):
        cfg = parse_config(config_text("case3.json"))
        assert cfg.experiment["tau"] == 0.5
        assert cfg.experiment["gamma"] == 100.0
        assert cfg.seed == 0

    def test_torus_config_uses_period_key(self):
        cfg = parse_config(config_text("torus_stokes.json"))
        assert cfg.model.dim == 2
        assert cfg.system.n == 2


class TestSchemaValidation:
    def test_invalid_json_raises_config_error(self):
        with pytest.raises(ConfigError, match=r"\$: not valid JSON"):
            parse_config("{ not json )")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2, 3]")

    def test_unknown_top_level_field(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match=r"\$\.extra"):
            parse_config(json.dumps(doc))

    def test_unknown_system_field(self):
        doc = minimal_doc()
        doc["system"]["S"] = [[1.0]]
        with pytest.raises(ConfigError, match=r"\$\.system\.S"):
            parse_config(json.dumps(doc))

    def test_unknown_model_field(self):
        doc = minimal_doc()
        doc["model"]["width"] = 2.0
        with pytest.raises(ConfigError, match=r"\$\.model\.width"):
            parse_config(json.dumps(doc))

    def test_length_rejected_for_torus_model(self):
        doc = minimal_doc()
        doc["system"] = {
            "D": [[1.0, 0.0], [0.0, 1.0]],
            "Q": [[0.0, 0.0], [0.0, 0.0]],
            "R": [[1.0], [0.0]],
        }
        doc["model"] = {"kind": "torus_stokes", "num_modes": 4, "length": 2.0}
        with pytest.raises(ConfigError, match=r"\$\.model\.length"):
            parse_config(json.dumps(doc))

    def test_unknown_experiment_field(self):
        doc = minimal_doc()
        doc["experiment"] = {"horizon": 1.0}
        with pytest.raises(ConfigError, match=r"\$\.experiment\.horizon"):
            parse_config(json.dumps(doc))

    def test_missing_required_field_named(self):
        doc = minimal_doc()
        del doc["omegas"]
        with pytest.raises(ConfigError, match=r"\$\.omegas: missing"):
            parse_config(json.dumps(doc))

    def test_wrong_type_reported_with_path(self):
        doc = minimal_doc()
        doc["system"] = "not a dict"
        with pytest.raises(ConfigError, match=r"\$\.system: expected dict"):
            parse_config(json.dumps(doc))

    def test_unknown_model_kind(self):
        doc = minimal_doc()
        doc["model"]["kind"] = "neumann_interval"
        with pytest.raises(ConfigError, match=r"\$\.model\.kind"):
            parse_config(json.dumps(doc))

    def test_experiment_value_type_checked(self):
        doc = minimal_doc()
        doc["experiment"] = {"tau": "soon"}
        with pytest.raises(ConfigError, match=r"\$\.experiment\.tau"):
            parse_config(json.dumps(doc))

    def test_experiment_int_promoted_to_float(self):
        doc = minimal_doc()
        doc["experiment"] = {"tau": 1}
        cfg = parse_config(json.dumps(doc))
        assert isinstance(cfg.experiment["tau"], float)

    def test_bool_rejected_where_int_expected(self):
        doc = minimal_doc()
        doc["experiment"] = {"trials": True}
        with pytest.raises(ConfigError, match=r"\$\.experiment\.trials"):
            parse_config(json.dumps(doc))
        doc = minimal_doc()
        doc["model"]["num_modes"] = True
        with pytest.raises(ConfigError, match=r"\$\.model\.num_modes"):
            parse_config(json.dumps(doc))


class TestOmegas:
    def test_omega_count_must_match_channels(self):
        doc = minimal_doc()
        doc["omegas"] = ["full", "full"]
        with pytest.raises(ConfigError, match=r"\$\.omegas: expected 1"):
            parse_config(json.dumps(doc))

    def test_full_keyword_selects_whole_domain(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        length = np.pi
        assert cfg.masks[0].measure == pytest.approx(length, rel=5e-2)

    def test_boxes_parse_to_mask(self):
        doc = minimal_doc()
        doc["omegas"] = [[[[0.5, 1.5]]]]
        cfg = parse_config(json.dumps(doc))
        assert cfg.masks[0].measure == pytest.approx(1.0, rel=5e-2)

    def test_bad_box_reported_with_index(self):
        doc = minimal_doc()
        doc["omegas"] = [[[[2.0, 1.0]]]]
        with pytest.raises(ConfigError, match=r"\$\.omegas\[0\]"):
            parse_config(json.dumps(doc))

    def test_omega_entry_must_be_list_or_full(self):
        doc = minimal_doc()
        doc["omegas"] = [3.5]
        with pytest.raises(ConfigError, match=r"\$\.omegas\[0\]"):
            parse_config(json.dumps(doc))


class TestDefaultsAndErrors:
    def test_defaults_applied(self):
        cfg = parse_config(json.dumps(minimal_doc()))
        assert cfg.experiment == {}
        assert cfg.seed == 0
        assert cfg.output_dir == "."

    def test_negative_seed_rejected(self):
        doc = minimal_doc()
        doc["seed"] = -1
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            parse_config(json.dumps(doc))

    def test_bool_seed_rejected(self):
        doc = minimal_doc()
        doc["seed"] = True
        with pytest.raises(ConfigError, match=r"\$\.seed"):
            parse_config(json.dumps(doc))

    def test_coercivity_error_not_wrapped(self):
        doc = minimal_doc()
        doc["system"] = {"D": [[-1.0]], "Q": [[0.0]], "R": [[1.0]]}
        with pytest.raises(CoercivityError):
            parse_config(json.dumps(doc))

    def test_shape_error_wrapped_as_config_error(self):
        doc = minimal_doc()
        doc["system"] = {"D": [[1.0]], "Q": [[0.0, 0.0]], "R": [[1.0]]}
        with pytest.raises(ConfigError, match=r"\$\.system"):
            parse_config(json.dumps(doc))

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_doc()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.system.n == 1
