"""Closed-loop benchmark of densegaze's run-then-eval path.

One operation is what a user of `densegaze run` followed by
`densegaze eval` gets, done in process:

    core.load_scene -> pipeline.run_pipeline -> merge.write_detections
    -> merge.read_detections -> evaluate.evaluate_detections

One scene is in flight; the next operation starts when the last one
ends. Scenes are generated at set-up from a SceneSpec and the seed
argument and written to a file; the program only ever reads that file.
A run rotates over a few scenes so that one unlucky scene does not set
a run's figures, and reports medians over its operations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from densegaze.config import PipelineConfig
from densegaze.core import ScaleLevel, load_scene, save_scene, scale_bucket
from densegaze.evaluate import EvalReport, evaluate_detections
from densegaze.gaze import CostedDetector, DetectorAdapter, NoisyDetector, OracleDetector
from densegaze.merge import read_detections, write_detections
from densegaze.pipeline import PipelineRun, run_pipeline
from densegaze.synth import InfeasibleSceneError, SceneSpec, generate_scene

from tracing import Tracer, maybe_span, op_layer_times

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    """One set of inputs: scene spec, detector and workers, and how many
    scenes a run rotates over."""

    name: str
    spec: SceneSpec
    adapter: str
    adapter_params: dict = field(default_factory=dict)
    workers: int = 1
    scenes: int = 4


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Scene-to-scene cost varies by about 15% (raw detections feed a
        # quadratic merge), so cheap operations rotate over many scenes.
        Workload("stock_oracle", SceneSpec(), "oracle", scenes=12),
        Workload(
            "crowd_noisy",
            SceneSpec(object_count=1000, foreground_fraction_target=0.07),
            "noisy",
            {"jitter": 2.0, "miss_rate": 0.05, "fp_rate": 3.0},
        ),
        # The busy loop stands in for inference; it is part of the
        # workload, not of the system under test. Its operations evaluate
        # too, so that eval_s is sampled across the whole run.
        Workload("gaze_pool", SceneSpec(), "costed", {"cost_per_pixel": 50.0}, workers=2),
    )
}

# Smoke mode: the same workloads at about 50 objects, for tests.
_SMOKE_SPEC = SceneSpec(object_count=50, foreground_fraction_target=0.02)
_SMOKE_COST_PER_PIXEL = 1.0

# Which end-to-end metric and workload each layer's metrics should move.
FEEDS = {
    "synth": "setup_s; crowd_noisy, where _Placer's per-box vstack dominates",
    "core": "scene_s on crowd_noisy",
    "density": "scene_s on stock_oracle",
    "saccade": "scene_s on stock_oracle",
    "gaze": "scene_s on gaze_pool",
    "merge": "scene_s on crowd_noisy",
    "evaluate": "eval_s on crowd_noisy",
    "pipeline": "scene_s on all workloads",
    "trace": "none; it reports the tracing cost",
}

# Per-layer timings: metric name -> span name summed per operation.
_LAYER_SPANS = {
    "core.load_scene_s": "core.load_scene",
    "density.render_s": "density.render_gt_density",
    "saccade.select_s": "saccade.saccade",
    "gaze.run_s": "gaze.run_gaze",
    "gaze.adapter_busy_s": "gaze.detect",
    "merge.run_s": "merge.merge_run",
    "merge.write_s": "merge.write_detections",
    "evaluate.read_s": "evaluate.read_detections",
    "evaluate.eval_s": "evaluate.evaluate_detections",
    "pipeline.run_s": "pipeline.run_pipeline",
    "pipeline.self_s": "pipeline.self",
}


class SetupError(Exception):
    """A workload's inputs could not be built."""


def smoke(workload: Workload) -> Workload:
    params = dict(workload.adapter_params)
    if "cost_per_pixel" in params:
        params["cost_per_pixel"] = _SMOKE_COST_PER_PIXEL
    return replace(workload, spec=_SMOKE_SPEC, adapter_params=params)


def declared_metrics() -> dict:
    """Metric names, units and directions, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m for m in doc["per_layer"]},
    }


def build_adapter(workload: Workload, annotations, seed: int) -> DetectorAdapter:
    if workload.adapter == "oracle":
        return OracleDetector(annotations)
    if workload.adapter == "noisy":
        return NoisyDetector(annotations, seed=seed, **workload.adapter_params)
    return CostedDetector(OracleDetector(annotations), **workload.adapter_params)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Scene:
    """One generated scene and everything checked against it."""

    index: int
    spec: SceneSpec
    path: Path
    det_path: Path
    adapter: DetectorAdapter
    setup_s: float
    objects: int
    buckets: dict
    reference_digest: str | None = None
    digest: str | None = None
    counts: dict | None = None


def set_up(workload: Workload, seed: int, index: int, workdir: Path, tracer: Tracer | None) -> Scene:
    """Generate and write one scene and build its adapter.

    gaze_pool also makes a workers=1 plain-oracle reference run, whose
    detections every pooled operation must reproduce byte for byte.
    """
    spec = replace(workload.spec, seed=seed * workload.scenes + index)
    path = workdir / f"scene{index}.json"
    start = time.perf_counter()
    with maybe_span(tracer, "synth.generate_scene", None):
        try:
            annotations, extent = generate_scene(spec)
        except InfeasibleSceneError as exc:
            raise SetupError(f"{workload.name}: scene seed {spec.seed} is infeasible: {exc}") from exc
    save_scene(path, annotations, extent)
    adapter = build_adapter(workload, annotations, seed)
    reference = None
    if workload.adapter == "costed":
        ref_path = workdir / f"reference{index}.json"
        ref = run_pipeline(annotations, extent, PipelineConfig(), OracleDetector(annotations))
        write_detections(ref_path, ref.detections)
        reference = _digest(ref_path)
    setup_s = time.perf_counter() - start
    buckets = {s.label: 0 for s in ScaleLevel}
    for ann in annotations:
        buckets[scale_bucket(ann.bbox).label] += 1
    return Scene(
        index=index,
        spec=spec,
        path=path,
        det_path=workdir / f"dets{index}.json",
        adapter=adapter,
        setup_s=setup_s,
        objects=len(annotations),
        buckets=buckets,
        reference_digest=reference,
    )


def evaluate(scene: Scene, annotations, tracer: Tracer | None, op: int | None) -> tuple[EvalReport, float]:
    """read_detections + evaluate_detections, timed from outside."""
    start = time.perf_counter()
    with maybe_span(tracer, "evaluate.read_detections", op):
        dets = read_detections(scene.det_path)
    with maybe_span(tracer, "evaluate.evaluate_detections", op):
        report = evaluate_detections(dets, annotations)
    return report, time.perf_counter() - start


def detection_problems(run: PipelineRun, extent) -> list[str]:
    """Every detection lies inside the scene with a finite score in [0, 1]."""
    problems = []
    w, h = float(extent.width), float(extent.height)
    for i, d in enumerate(run.detections):
        b = d.bbox
        inside = b.x >= 0.0 and b.y >= 0.0 and b.right <= w * (1 + 1e-12) and b.bottom <= h * (1 + 1e-12)
        if not inside:
            problems.append(f"detection {i} {b} lies outside the {extent.width}x{extent.height} scene")
        if not (math.isfinite(d.score) and 0.0 <= d.score <= 1.0):
            problems.append(f"detection {i} has score {d.score} outside [0, 1]")
    return problems


def op_counts(scene: Scene, run: PipelineRun, report: EvalReport, config: PipelineConfig) -> dict:
    """Deterministic per-scene counts; they must repeat exactly."""
    counts = {
        "synth.objects": scene.objects,
        "saccade.cells_scored": sum(g.cells_x * g.cells_y for g in config.grid_specs().values()),
        "saccade.patches": len(run.patches),
        "gaze.raw_dets": sum(len(g.detections) for g in run.gaze_results),
        "gaze.pixels": run.budget.pixels_processed,
        "merge.kept": len(run.detections),
        "merge.bytes_written": scene.det_path.stat().st_size,
        "ap50": report.ap50,
        "evaluate.matched": report.overall.matched,
        "evaluate.false_positives": report.overall.false_positives,
        "evaluate.ap50.small": report.small.ap,
        "evaluate.ap50.middle": report.middle.ap,
        "evaluate.ap50.large": report.large.ap,
    }
    for s in ScaleLevel:
        counts[f"density.mass.{s.label}"] = run.density[s].total_mass()
    return counts


def check_repeat(scene: Scene, digest: str, counts: dict) -> list[str]:
    """The detections file and every count match the scene's first operation."""
    problems = []
    if scene.reference_digest is not None and digest != scene.reference_digest:
        problems.append(f"scene {scene.index}: pooled detections differ from the workers=1 reference")
    if scene.digest is None:
        scene.digest = digest
    elif digest != scene.digest:
        problems.append(f"scene {scene.index}: detections digest changed between repetitions")
    if scene.counts is None:
        scene.counts = counts
    else:
        problems += [
            f"scene {scene.index}: {key} changed from {scene.counts[key]} to {value}"
            for key, value in counts.items()
            if scene.counts[key] != value
        ]
    return problems


@dataclass
class Loop:
    """What the measured operations produced."""

    scene_s: list[float] = field(default_factory=list)
    untraced_by_scene: dict[int, list[float]] = field(default_factory=dict)
    traced_scene_s: list[tuple[int, float]] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    layer_times: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def operation(scene: Scene, config: PipelineConfig, loop: Loop, tracer: Tracer | None, op: int) -> None:
    """One closed-loop operation, timed from outside, then checked."""
    loop.attempted += 1
    gc.collect()
    ledger = getattr(scene.adapter, "ledger", None)
    pixels_before = ledger.pixels if ledger is not None else 0
    try:
        with tracer.instrument(scene.adapter, op) if tracer else nullcontext():
            start = time.perf_counter()
            with maybe_span(tracer, "operation", op):
                with maybe_span(tracer, "core.load_scene", op):
                    annotations, extent = load_scene(scene.path)
                with maybe_span(tracer, "pipeline.run_pipeline", op):
                    run = run_pipeline(annotations, extent, config, scene.adapter)
                with maybe_span(tracer, "merge.write_detections", op):
                    write_detections(scene.det_path, run.detections)
                scene_s = time.perf_counter() - start
                report, eval_s = evaluate(scene, annotations, tracer, op)
    except Exception as exc:  # an operation that raises counts as failed; the run goes on
        loop.failed += 1
        loop.failures.append(f"op {op} scene {scene.index}: {type(exc).__name__}: {exc}")
        return

    problems = detection_problems(run, extent)
    problems += check_repeat(scene, _digest(scene.det_path), op_counts(scene, run, report, config))
    if ledger is not None and ledger.pixels - pixels_before != run.budget.pixels_processed:
        problems.append(f"scene {scene.index}: pixel ledger disagrees with the pixel budget")
    if problems:
        loop.failed += 1
        loop.failures.extend(f"op {op}: {p}" for p in problems)
        return
    loop.eval_s.append(eval_s)
    if tracer:
        loop.traced_scene_s.append((scene.index, scene_s))
        loop.layer_times.append(op_layer_times([s for s in tracer.spans if s["op"] == op]))
    else:
        loop.scene_s.append(scene_s)
        loop.untraced_by_scene.setdefault(scene.index, []).append(scene_s)


def measure(workload: Workload, scenes: list[Scene], seconds: float, tracer: Tracer | None) -> Loop:
    """Run operations round-robin over the scenes for about `seconds`.

    Every scene runs at least once. With a tracer, rounds alternate
    between untraced and traced, and at least one operation is traced.
    No operation starts that would be predicted to end past the deadline.
    """
    config = PipelineConfig(workers=workload.workers)
    loop = Loop()
    k = len(scenes)
    minimum = k + 1 if tracer else k
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    op = 0
    while op < minimum or time.perf_counter() + statistics.median(durations) <= deadline:
        traced = tracer if (tracer and (op // k) % 2 == 1) else None
        started = time.perf_counter()
        operation(scenes[op % k], config, loop, traced, op)
        durations.append(time.perf_counter() - started)
        op += 1
    return loop


def commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _mean_over(scenes: list[Scene], key: str) -> float:
    return statistics.fmean(s.counts[key] for s in scenes)


def _ratio(scenes: list[Scene], num: str, den: str) -> float:
    return sum(s.counts[num] for s in scenes) / sum(s.counts[den] for s in scenes)


def end_to_end_metrics(scenes: list[Scene], loop: Loop) -> dict[str, float]:
    return {
        "setup_s": _median([s.setup_s for s in scenes]),
        "scene_s": _median(loop.scene_s),
        "eval_s": _median(loop.eval_s),
        "ap50": _mean_over(scenes, "ap50"),
        "gaze_mpx": _mean_over(scenes, "gaze.pixels") / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(scenes: list[Scene], loop: Loop, tracer: Tracer) -> dict[str, float]:
    """Layer timings are medians over traced operations; counts are means
    per scene, and ratios are taken over the sums of all scenes."""
    metrics = {
        "synth.generate_s": _median(
            [s["end"] - s["start"] for s in tracer.spans if s["name"] == "synth.generate_scene"]
        ),
    }
    for name, span_name in _LAYER_SPANS.items():
        metrics[name] = _median([t[span_name] for t in loop.layer_times if span_name in t])
    overlaps = [t.get("gaze.detect", 0.0) / t["gaze.run_gaze"] for t in loop.layer_times if "gaze.run_gaze" in t]
    metrics["gaze.overlap"] = _median(overlaps)
    for key in (
        "synth.objects", "saccade.cells_scored", "saccade.patches", "gaze.raw_dets",
        "merge.kept", "merge.bytes_written", "evaluate.matched", "evaluate.false_positives",
        "evaluate.ap50.small", "evaluate.ap50.middle", "evaluate.ap50.large",
    ) + tuple(f"density.mass.{s.label}" for s in ScaleLevel):
        metrics[key] = _mean_over(scenes, key)
    metrics["saccade.selected_ratio"] = _ratio(scenes, "saccade.patches", "saccade.cells_scored")
    metrics["merge.kept_ratio"] = _ratio(scenes, "merge.kept", "gaze.raw_dets")
    # Each traced operation against the untraced ones on the same scene.
    metrics["trace.overhead_ratio"] = _median(
        [t / statistics.median(loop.untraced_by_scene[i]) for i, t in loop.traced_scene_s
         if i in loop.untraced_by_scene]
    )
    return metrics


def metadata(workload: Workload, seed: int, seconds: float, trace: bool, is_smoke: bool) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": is_smoke,
        "workload": {
            "name": workload.name,
            "spec": {**asdict(workload.spec), "seed": None},
            "adapter": workload.adapter,
            "adapter_params": workload.adapter_params,
            "workers": workload.workers,
            "scenes": workload.scenes,
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, is_smoke: bool = False) -> dict:
    """Set up, measure and check one workload; returns the full report.

    Raises SetupError when the workload's scenes cannot be built.
    """
    workload = smoke(WORKLOADS[name]) if is_smoke else WORKLOADS[name]
    declared = declared_metrics()
    tracer = Tracer() if trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        scenes = [set_up(workload, seed, k, workdir, tracer) for k in range(workload.scenes)]
        loop = measure(workload, scenes, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "meta": metadata(workload, seed, seconds, trace, is_smoke),
        "scenes": [
            {"seed": s.spec.seed, "objects": s.objects, "buckets": s.buckets, "digest": s.digest, "counts": s.counts}
            for s in scenes
        ],
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:20],
        "timings": {
            "setup_s": [s.setup_s for s in scenes],
            "scene_s": loop.scene_s,
            "traced_scene_s": [t for _, t in loop.traced_scene_s],
            "eval_s": loop.eval_s,
        },
    }
    if trace:
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps({"meta": report["meta"], "spans": tracer.spans}), encoding="utf-8")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    # Metrics need every scene to have passed an operation.
    if not (all(s.counts for s in scenes) and loop.scene_s):
        report["metrics"] = {}
        return report
    if trace:
        values = per_layer_metrics(scenes, loop, tracer)
        table = declared["per_layer"]
    else:
        values = end_to_end_metrics(scenes, loop)
        table = declared["end_to_end"]
    if set(values) != set(table):
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(table)}")
    report["metrics"] = {k: {"value": values[k], "unit": table[k]["unit"]} for k in table}
    return report
