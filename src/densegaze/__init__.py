"""densegaze: dual-stage detection for gigapixel scenes.

The saccade stage reads multi-scale density maps to pick out the few
image regions worth attention; the gaze stage runs a pluggable detector
over those regions at one normalized scale; merged results land back in
original-image coordinates.
"""

from .config import ConfigError, PipelineConfig, build_config
from .core import (
    Annotation,
    Annotations,
    BoundingBox,
    Detection,
    Detections,
    EvalSizeBucket,
    ScaleLevel,
    SceneExtent,
    eval_size_bucket,
    iou,
    load_scene,
    save_scene,
    scale_bucket,
)
from .density import (
    DensityMap,
    DensityMapSet,
    apply_count_scale,
    invert_count_scale,
    read_dmap,
    render_gt_density,
    scale_aware_loss,
    sigma_for,
    write_dmap,
)
from .evaluate import ApResult, EvalReport, ap50, evaluate_detections
from .gaze import (
    AdapterError,
    CostedDetector,
    DetectorAdapter,
    ExternalCommandDetector,
    GazeResult,
    NoisyDetector,
    NormalizedPatch,
    OracleDetector,
    PatchDetection,
    default_standard_size,
    normalize,
    run_gaze,
)
from .merge import GlobalDetection, global_nms, merge_run, to_global
from .pipeline import (
    BudgetReport,
    PipelineRun,
    compare_budgets,
    pixel_budget,
    run_pipeline,
    sliding_window_run,
)
from .saccade import (
    CellDensity,
    GridSpec,
    IntegralImage,
    Patch,
    build_integral,
    default_grids,
    grid_densities,
    saccade,
    select_patches,
)
from .synth import InfeasibleSceneError, SceneSpec, SceneStats, generate_scene, scene_stats

__version__ = "0.1.0"
