"""End-to-end orchestration and its cost: density, patch selection,
detection, merge, and the pixel budget of every run.

Speed against external systems is not reproducible here, so a run
reports a deterministic normalized-pixel budget as the cost proxy, plus
informative wall-clock. The selection-free sliding-window baseline runs
the same detect-and-merge step over every grid cell.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .config import PipelineConfig
from .core import Annotation, Detections, SceneExtent
from .density import DensityMapSet, render_gt_density
from .gaze import DetectorAdapter, GazeResult, run_gaze
from .merge import DEFAULT_NMS_IOU, merge_run
from .saccade import DEFAULT_EXPANSION, Patch, saccade, sliding_window_patches


@dataclass
class BudgetReport:
    """Deterministic pixel budget of a run plus informative wall-clock."""

    pixels_processed: int
    patch_count: int
    wall_seconds: float = 0.0
    baseline_name: str = ""
    budget_ratio: float | None = None

    def to_json_dict(self) -> dict:
        ratio: float | None = self.budget_ratio
        infinite = ratio is not None and math.isinf(ratio)
        return {
            "pixels_processed": self.pixels_processed,
            "patch_count": self.patch_count,
            "wall_seconds": self.wall_seconds,
            "baseline": self.baseline_name,
            "budget_ratio": None if infinite else ratio,
            "budget_ratio_infinite": infinite,
        }


def pixel_budget(patch_count: int, standard_size: tuple[int, int]) -> int:
    """Total normalized-frame pixels for a patch count at one standard size."""
    return patch_count * standard_size[0] * standard_size[1]


def compare_budgets(saccade_report: BudgetReport, baseline_report: BudgetReport) -> float:
    """Baseline pixels over saccade pixels; inf when the saccade run was empty."""
    if saccade_report.pixels_processed == 0:
        return math.inf
    return baseline_report.pixels_processed / saccade_report.pixels_processed


@dataclass
class PipelineRun:
    """Everything a full run produced, for dumping and reporting."""

    density: DensityMapSet
    patches: list[Patch]
    gaze_results: list[GazeResult]
    detections: Detections
    budget: BudgetReport
    standard_size: tuple[int, int]


def select(
    annotations: list[Annotation],
    extent: SceneExtent,
    config: PipelineConfig,
    density: DensityMapSet | None = None,
) -> tuple[DensityMapSet, list[Patch]]:
    """The density maps of a scene and the patches the saccade picks from them.

    Ground-truth maps are rendered from the annotations unless a
    pre-computed (e.g. model-predicted) map set is supplied.
    """
    if density is None:
        density = render_gt_density(annotations, extent, config.downsample, config.boundaries)
    patches = saccade(density, config.grid_specs(), config.threshold, config.expansion, extent)
    return density, patches


def _detect_and_merge(
    patches: list[Patch],
    adapter: DetectorAdapter,
    extent: SceneExtent,
    standard_size: tuple[int, int],
    workers: int,
    nms_iou: float,
    start: float,
) -> tuple[list[GazeResult], Detections, BudgetReport]:
    """Detect on every patch, merge into scene coordinates, and charge each
    patch one standard frame; wall_seconds runs from start."""
    results = run_gaze(patches, adapter, standard_size, workers=workers)
    dets = merge_run(results, extent, nms_iou)
    budget = BudgetReport(
        pixels_processed=pixel_budget(len(patches), standard_size),
        patch_count=len(patches),
        wall_seconds=time.perf_counter() - start,
    )
    return results, dets, budget


def run_pipeline(
    annotations: list[Annotation],
    extent: SceneExtent,
    config: PipelineConfig,
    adapter: DetectorAdapter,
    density: DensityMapSet | None = None,
) -> PipelineRun:
    """Run the two-stage pipeline over a scene.

    The budget ratio compares against a threshold-free sliding window on
    the tiny grid, the densest baseline. The budget's wall_seconds times
    the whole run, density through merge.
    """
    start = time.perf_counter()
    density, patches = select(annotations, extent, config, density)
    standard_size = config.resolve_standard_size(extent)
    gaze_results, detections, budget = _detect_and_merge(
        patches, adapter, extent, standard_size, config.workers, config.nms_iou, start
    )
    tiny_cells = config.grids[0] ** 2
    baseline = BudgetReport(pixels_processed=pixel_budget(tiny_cells, standard_size), patch_count=tiny_cells)
    budget.baseline_name = f"sw_{config.grids[0]}x{config.grids[0]}"
    budget.budget_ratio = compare_budgets(budget, baseline)
    return PipelineRun(density, patches, gaze_results, detections, budget, standard_size)


def sliding_window_run(
    extent: SceneExtent,
    grid: int,
    adapter: DetectorAdapter,
    standard_size: tuple[int, int],
    expansion: float = DEFAULT_EXPANSION,
    workers: int = 1,
    nms_iou: float = DEFAULT_NMS_IOU,
) -> tuple[Detections, BudgetReport]:
    """Selection-free baseline: detect on every grid cell, then merge.

    The budget charges every cell; its clock starts once the cells are built.
    """
    patches = sliding_window_patches(extent, grid, expansion)
    start = time.perf_counter()
    _, dets, report = _detect_and_merge(patches, adapter, extent, standard_size, workers, nms_iou, start)
    return dets, report
