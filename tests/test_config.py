from dataclasses import fields

import pytest

from densegaze.config import CONFIG_KEYS, ConfigError, PipelineConfig, build_config, parse_config_file
from densegaze.core import ScaleLevel, SceneExtent


class TestDefaults:
    def test_stock_defaults(self):
        config = PipelineConfig().validate()
        assert config.downsample == 32.0
        assert config.boundaries == (800.0, 1600.0, 3200.0)
        assert config.grids == (16, 8, 4, 2)
        assert config.threshold == 0.2
        assert config.expansion == 1.2
        assert config.nms_iou == 0.5
        assert config.standard_size is None
        assert config.workers == 1

    def test_key_table_follows_the_fields(self):
        # The dumped file lists keys in table order; every field needs a key.
        assert list(CONFIG_KEYS) == [f.name for f in fields(PipelineConfig)]
        assert len(CONFIG_KEYS) == 8

    def test_grid_specs(self):
        specs = PipelineConfig().grid_specs()
        assert specs[ScaleLevel.LARGE].cells_x == 2

    def test_resolve_standard_size(self):
        config = PipelineConfig()
        assert config.resolve_standard_size(SceneExtent(26368, 14976)) == (1978, 1124)
        fixed = build_config(overrides={"standard_size": (1200, 900)})
        assert fixed.resolve_standard_size(SceneExtent(26368, 14976)) == (1200, 900)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"downsample": 0.5},
            {"boundaries": (1600.0, 800.0, 3200.0)},
            {"grids": (16, 8, 4)},
            {"grids": (16, 8, 4, 0)},
            {"threshold": -0.1},
            {"expansion": 0.8},
            {"downsample": float("nan")},
            {"expansion": float("inf")},
            {"nms_iou": 0.0},
            {"nms_iou": 1.5},
            {"standard_size": (1, 100)},
            {"workers": 0},
            {"seed": -5},
            {"downsample": float("inf")},
            {"boundaries": (800.0, 1600.0, float("inf"))},
            {"boundaries": (800.0, float("nan"), 3200.0)},
            {"threshold": float("nan")},
            {"threshold": float("inf")},
            {"nms_iou": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            build_config(overrides=overrides)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config(overrides={"thresold": 0.3})


class TestConfigFile:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text(
            "# comment line\n"
            "threshold=0.4\n"
            "grids=8,4,2,1  # inline comment\n"
            "standard_size=1200x800\n"
        )
        config = build_config(file_path=path)
        assert config.threshold == 0.4
        assert config.grids == (8, 4, 2, 1)
        assert config.standard_size == (1200, 800)
        # Explicit overrides beat the file.
        config = build_config(file_path=path, overrides={"threshold": 0.6})
        assert config.threshold == 0.6
        assert config.grids == (8, 4, 2, 1)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("thresh=0.4\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    @pytest.mark.parametrize("line", ["alphas=0.01,0.1,10.0,100.0", "count_scale=1000.0", "seed=1"])
    def test_keys_the_pipeline_never_read_are_unknown(self, tmp_path, line):
        path = tmp_path / "pipeline.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="pipeline.cfg:1: unknown config key"):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("threshold 0.4\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(path)

    def test_unparsable_value_rejected(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_text("threshold=high\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "nope.cfg")

    def test_stock_dump_text(self):
        assert PipelineConfig().to_file_text() == (
            "downsample=32.0\n"
            "boundaries=800.0,1600.0,3200.0\n"
            "grids=16,8,4,2\n"
            "threshold=0.2\n"
            "expansion=1.2\n"
            "nms_iou=0.5\n"
            "standard_size=auto\n"
            "workers=1\n"
        )

    def test_round_trip(self, tmp_path):
        original = build_config(
            overrides={"threshold": 0.35, "grids": (12, 6, 3, 1), "standard_size": (1500, 900)}
        )
        path = tmp_path / "dumped.cfg"
        path.write_text(original.to_file_text())
        assert build_config(file_path=path) == original

    def test_round_trip_auto_standard(self, tmp_path):
        original = PipelineConfig().validate()
        path = tmp_path / "dumped.cfg"
        path.write_text(original.to_file_text())
        assert build_config(file_path=path) == original
