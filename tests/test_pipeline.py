import time

import pytest

from densegaze import pipeline
from densegaze.config import PipelineConfig
from densegaze.density import read_dmap, write_dmap
from densegaze.gaze import CostedDetector, OracleDetector
from densegaze.pipeline import run_pipeline


class TestRunPipeline:
    def test_budget_fields(self, small_scene):
        annotations, extent = small_scene
        config = PipelineConfig()
        run = run_pipeline(annotations, extent, config, OracleDetector(annotations))
        standard = config.resolve_standard_size(extent)
        assert run.standard_size == standard
        assert run.budget.patch_count == len(run.patches)
        assert run.budget.pixels_processed == len(run.patches) * standard[0] * standard[1]
        assert run.budget.baseline_name == "sw_16x16"
        expected_ratio = 256 * standard[0] * standard[1] / run.budget.pixels_processed
        assert run.budget.budget_ratio == pytest.approx(expected_ratio)

    def test_wall_seconds_times_the_density_stage(self, small_scene, monkeypatch):
        render = pipeline.render_gt_density

        def slow_render(*args, **kwargs):
            time.sleep(0.05)
            return render(*args, **kwargs)

        monkeypatch.setattr(pipeline, "render_gt_density", slow_render)
        annotations, extent = small_scene
        run = run_pipeline(annotations, extent, PipelineConfig(), OracleDetector(annotations))
        assert run.budget.wall_seconds >= 0.05

    def test_precomputed_density_matches_rendered(self, small_scene, tmp_path):
        annotations, extent = small_scene
        config = PipelineConfig()
        rendered = run_pipeline(annotations, extent, config, OracleDetector(annotations))
        # Round the maps through the DMAP file, as an external model would.
        path = tmp_path / "maps.dmap"
        write_dmap(rendered.density, path)
        loaded = run_pipeline(
            annotations, extent, config, OracleDetector(annotations), density=read_dmap(path)
        )
        assert loaded.detections == rendered.detections
        assert [p.region for p in loaded.patches] == [p.region for p in rendered.patches]

    def test_costed_ledger_matches_budget(self, small_scene):
        annotations, extent = small_scene
        config = PipelineConfig()
        adapter = CostedDetector(OracleDetector(annotations))
        run = run_pipeline(annotations, extent, config, adapter)
        assert adapter.ledger.pixels == run.budget.pixels_processed
        assert adapter.ledger.patches == run.budget.patch_count

    def test_normalized_budget_independent_of_patch_scale(self, default_run):
        # The formal speed statement: every patch costs one standard frame.
        w, h = default_run.standard_size
        assert default_run.budget.pixels_processed == len(default_run.patches) * w * h
