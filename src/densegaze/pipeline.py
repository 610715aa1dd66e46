"""End-to-end orchestration: density, patch selection, detection, merge."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .config import PipelineConfig
from .core import Annotation, SceneExtent
from .density import DensityMapSet, render_gt_density
from .evaluate import BudgetReport, pixel_budget
from .gaze import DetectorAdapter, GazeResult, run_gaze
from .merge import GlobalDetection, merge_run
from .saccade import Patch, saccade


@dataclass
class PipelineRun:
    """Everything a full run produced, for dumping and reporting."""

    density: DensityMapSet
    patches: list[Patch]
    gaze_results: list[GazeResult]
    detections: list[GlobalDetection]
    budget: BudgetReport
    standard_size: tuple[int, int]


def run_pipeline(
    annotations: list[Annotation],
    extent: SceneExtent,
    config: PipelineConfig,
    adapter: DetectorAdapter,
    density: DensityMapSet | None = None,
) -> PipelineRun:
    """Run the two-stage pipeline over a scene.

    The density stage renders ground-truth maps from the annotations
    unless a pre-computed (e.g. model-predicted) map set is supplied.
    The budget ratio compares against a threshold-free sliding window on
    the tiny grid, the densest baseline. The budget's wall_seconds times
    the whole run, density through merge.
    """
    start = time.perf_counter()
    if density is None:
        density = render_gt_density(annotations, extent, config.downsample, config.boundaries)
    standard_size = config.resolve_standard_size(extent)

    patches = saccade(
        density,
        grids=config.grid_specs(),
        threshold=config.threshold,
        expansion=config.expansion,
        extent=extent,
    )
    gaze_results = run_gaze(patches, adapter, standard_size, workers=config.workers)
    detections = merge_run(gaze_results, extent, config.nms_iou)
    elapsed = time.perf_counter() - start

    tiny_grid = config.grids[0]
    baseline_pixels = pixel_budget(tiny_grid * tiny_grid, standard_size)
    pixels = pixel_budget(len(patches), standard_size)
    budget = BudgetReport(
        pixels_processed=pixels,
        patch_count=len(patches),
        wall_seconds=elapsed,
        baseline_name=f"sw_{tiny_grid}x{tiny_grid}",
        budget_ratio=(baseline_pixels / pixels) if pixels else float("inf"),
    )
    return PipelineRun(
        density=density,
        patches=patches,
        gaze_results=gaze_results,
        detections=detections,
        budget=budget,
        standard_size=standard_size,
    )
