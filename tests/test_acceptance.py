"""Acceptance suite: one test per release criterion, gates pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines
and the informative wall-clock report.
"""

import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from densegaze.config import PipelineConfig
from densegaze.core import Annotation, BoundingBox, ScaleLevel, SceneExtent, iou
from densegaze.density import (
    DensityMap,
    DensityMapSet,
    DmapMagicError,
    DmapPlaneCountError,
    DmapTruncatedError,
    read_dmap,
    render_gt_density,
    scale_aware_loss,
    write_dmap,
)
from densegaze.evaluate import ap50, match_detections
from densegaze.gaze import CostedDetector, OracleDetector, normalize
from densegaze.merge import GlobalDetection, global_nms, to_global
from densegaze.gaze import PatchDetection
from densegaze.pipeline import pixel_budget, run_pipeline, sliding_window_run
from densegaze.saccade import Patch, build_integral, grid_densities, select_patches
from densegaze.synth import SceneSpec, generate_scene, scene_stats


def _pass(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_01_density_mass_conservation():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    extent = SceneExtent(60000, 40000)
    sides = {
        ScaleLevel.TINY: (60, 790),
        ScaleLevel.SMALL: (810, 1590),
        ScaleLevel.MIDDLE: (1610, 3190),
        ScaleLevel.LARGE: (3210, 4500),
    }
    annotations = []
    i = 0
    for lo, hi in sides.values():
        for _ in range(200):
            side = float(rng.uniform(lo, hi))
            # Keep the whole stamp at least 3 sigma inside every border.
            margin = 3.0 * (side / 3.0) + side / 2.0 + 64.0
            cx = float(rng.uniform(margin, extent.width - margin))
            cy = float(rng.uniform(margin, extent.height - margin))
            annotations.append(Annotation(i, BoundingBox(cx - side / 2, cy - side / 2, side, side)))
            i += 1
    dset = render_gt_density(annotations, extent)
    for scale in ScaleLevel:
        assert dset[scale].total_mass() == pytest.approx(200.0, rel=0.01)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(1, f"800 stamps, each scale mass = 200 +/- 1%, {elapsed:.2f}s < 5s")


def test_02_scale_aware_loss_closed_forms():
    rng = np.random.default_rng(7)
    alphas = (0.01, 0.1, 10.0, 100.0)

    def rand_set():
        return DensityMapSet(
            maps=tuple(
                DensityMap(values=rng.random((64, 64)), downsample=32.0) for _ in ScaleLevel
            )
        )

    for _ in range(10):
        pred, gt = rand_set(), rand_set()
        brute = sum(
            alphas[int(s)] * float(np.mean((pred[s].values - gt[s].values) ** 2))
            for s in ScaleLevel
        )
        assert scale_aware_loss(pred, gt, alphas) == pytest.approx(brute, rel=1e-9)
        assert scale_aware_loss(pred, pred, alphas) == 0.0

    pred, gt = rand_set(), rand_set()
    for idx, alpha in enumerate(alphas):
        unit = [0.0] * 4
        unit[idx] = 1.0
        per_scale = scale_aware_loss(pred, gt, tuple(unit))
        scaled = [0.0] * 4
        scaled[idx] = alpha
        assert scale_aware_loss(pred, gt, tuple(scaled)) == pytest.approx(
            alpha * per_scale, rel=1e-12
        )
    _pass(2, "brute-force match at 1e-9, zero at identity, linear in each alpha")


def test_03_integral_image_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        values = rng.random((256, 256))
        integral = build_integral(DensityMap(values=values, downsample=32.0))
        for _ in range(200):
            x0, x1 = sorted(int(v) for v in rng.integers(0, 257, size=2))
            y0, y1 = sorted(int(v) for v in rng.integers(0, 257, size=2))
            direct = float(values[y0:y1, x0:x1].sum())
            got = integral.rect_sum(x0, y0, x1, y1)
            assert got == pytest.approx(direct, rel=1e-6, abs=1e-9)
            checked += 1
    _pass(3, f"{checked} rectangle queries match direct summation at 1e-6")


def test_04_threshold_sweep_monotonicity():
    thresholds = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    config = PipelineConfig()
    for seed in range(20):
        spec = SceneSpec(object_count=150, foreground_fraction_target=0.03, seed=seed)
        annotations, extent = generate_scene(spec)
        dset = render_gt_density(annotations, extent)
        cells = {
            s: grid_densities(dset[s], config.grid_specs()[s], extent) for s in ScaleLevel
        }
        counts = []
        for threshold in thresholds:
            total = sum(
                len(select_patches(cells[s], threshold, config.expansion, extent))
                for s in ScaleLevel
            )
            counts.append(total)
        assert counts == sorted(counts, reverse=True)
        positive_mass = sum(
            sum(1 for c in cells[s] if c.density > 0.0) for s in ScaleLevel
        )
        assert counts[0] == positive_mass
    _pass(4, "patch counts non-increasing over thresholds 0..1.0 on 20 scenes; t=0 keeps all mass")


def test_05_end_to_end_oracle():
    started = time.perf_counter()
    annotations, extent = generate_scene(SceneSpec())
    stats = scene_stats(annotations, extent)
    assert len(annotations) == 500
    assert 0.03 <= stats.foreground_fraction <= 0.07
    assert stats.side_ratio >= 100.0

    run = run_pipeline(annotations, extent, PipelineConfig(), OracleDetector(annotations))
    result = ap50(run.detections, annotations)
    assert result.ap >= 0.99

    covered = []
    for ann in annotations:
        cx, cy = ann.bbox.center
        if any(
            p.region.x <= cx < p.region.right and p.region.y <= cy < p.region.bottom
            for p in run.patches
        ):
            covered.append(ann.id)
    order, matches = match_detections(run.detections, annotations)
    matched_ids = {annotations[g].id for g in matches if g is not None}
    assert set(covered) <= matched_ids  # recall 1.0 for covered annotations
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _pass(
        5,
        f"AP50={result.ap:.4f} >= 0.99, covered recall 1.0 "
        f"({len(covered)}/{len(annotations)} covered), {elapsed:.1f}s < 30s",
    )


def test_06_speed_mechanism(default_scene, default_run):
    annotations, extent = default_scene
    standard = default_run.standard_size
    sw_pixels = pixel_budget(256, standard)
    saccade_pixels = default_run.budget.pixels_processed
    assert saccade_pixels * 6 <= sw_pixels

    # Informative wall clock with the busy-work adapter at 8 workers.
    # Not gating: on a single-core host the speedup comes from the pixel
    # budget alone, with no thread-level parallelism on top.
    config = PipelineConfig(workers=8)
    cost = 8.0
    adapter = CostedDetector(OracleDetector(annotations), cost_per_pixel=cost)
    started = time.perf_counter()
    run_pipeline(annotations, extent, config, adapter)
    saccade_wall = time.perf_counter() - started
    adapter = CostedDetector(OracleDetector(annotations), cost_per_pixel=cost)
    started = time.perf_counter()
    sliding_window_run(extent, 16, adapter, standard, workers=8)
    sw_wall = time.perf_counter() - started
    speedup = sw_wall / saccade_wall
    gate = f"budget ratio {sw_pixels / saccade_pixels:.2f} >= 6"
    info = f"informative wall-clock speedup {speedup:.1f}x at workers=8 (target >= 4x, not gating)"
    _pass(6, f"{gate}; {info}")


def test_07_cli_determinism(tmp_path):
    scene = tmp_path / "scene.json"
    synth = subprocess.run(
        [sys.executable, "-m", "densegaze.cli", "synth", "--out", str(scene),
         "--objects", "150", "--foreground", "0.03", "--seed", "11"],
        capture_output=True,
        text=True,
    )
    assert synth.returncode == 0, synth.stderr

    outputs = set()
    runs = 0
    for repeat in range(3):
        for workers in (1, 4, 8):
            out = tmp_path / f"dets_{repeat}_{workers}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "densegaze.cli", "run",
                    "--annotations", str(scene), "--out", str(out),
                    "--adapter", "noisy", "--jitter", "3.0", "--miss-rate", "0.1",
                    "--fp-rate", "0.5", "--seed", "42", "--workers", str(workers),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(out.read_bytes())
            runs += 1
    assert len(outputs) == 1
    _pass(7, f"{runs} cmd_run invocations (workers 1/4/8 x 3 repeats) byte-identical")


def _reference_nms(dets, threshold):
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].bbox.x, dets[i].bbox.y, dets[i].source,
                       dets[i].bbox.width, dets[i].bbox.height, dets[i].category),
    )
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if dets[j].category == dets[i].category and iou(dets[i].bbox, dets[j].bbox) > threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return [dets[i] for i in kept]


def test_08_merge_correctness():
    rng = np.random.default_rng(13)
    for trial in range(50):
        dets = []
        for i in range(200):
            x = float(rng.uniform(0, 2000))
            y = float(rng.uniform(0, 2000))
            w = float(rng.uniform(5, 400))
            h = float(rng.uniform(5, 400))
            dets.append(
                GlobalDetection(
                    bbox=BoundingBox(x, y, w, h),
                    score=float(rng.uniform(0, 1)),
                    category=int(rng.integers(2)),
                    source=i,
                )
            )
        assert global_nms(dets, 0.5) == _reference_nms(dets, 0.5)

    patch = Patch(
        scale=ScaleLevel.MIDDLE, ix=1, iy=2,
        region=BoundingBox(5432.5, 871.25, 7910.0, 4500.5), density=1.0,
    )
    np_patch = normalize(patch, (1978, 1124))
    worst = 0.0
    for _ in range(10_000):
        x = float(rng.uniform(patch.region.x, patch.region.right - 60))
        y = float(rng.uniform(patch.region.y, patch.region.bottom - 60))
        w = float(rng.uniform(1, 50))
        h = float(rng.uniform(1, 50))
        fx0, fy0 = np_patch.to_frame(x, y)
        fx1, fy1 = np_patch.to_frame(x + w, y + h)
        g = to_global(PatchDetection(BoundingBox(fx0, fy0, fx1 - fx0, fy1 - fy0), 1.0), np_patch)
        worst = max(
            worst,
            abs(g.bbox.x - x),
            abs(g.bbox.y - y),
            abs(g.bbox.right - (x + w)),
            abs(g.bbox.bottom - (y + h)),
        )
    assert worst < 1e-6
    _pass(8, f"50x200-box NMS equals reference exactly; round-trip error {worst:.2e} px < 1e-6")


def test_09_ap_evaluator_sanity():
    gts = [Annotation(i, BoundingBox(200.0 * i, 100.0, 50, 50)) for i in range(10)]

    perfect = [GlobalDetection(g.bbox, 1.0) for g in gts]
    assert ap50(perfect, gts).ap == 1.0
    assert ap50([], gts).ap == 0.0

    half = [GlobalDetection(g.bbox, 0.9) for g in gts[:5]]
    half += [GlobalDetection(BoundingBox(9000.0 + 100 * i, 5000.0, 40, 40), 0.1) for i in range(5)]
    assert ap50(half, gts).ap == pytest.approx(0.5, abs=0.01)

    rng = np.random.default_rng(21)
    for _ in range(20):
        dets = []
        for g in gts:
            if rng.random() < 0.75:
                dets.append(
                    GlobalDetection(
                        BoundingBox(g.bbox.x + float(rng.uniform(-6, 6)), g.bbox.y, 50, 50),
                        float(rng.uniform(0.05, 0.95)),
                    )
                )
        dets += [
            GlobalDetection(BoundingBox(7000.0 + 90 * k, 8000.0, 45, 45), float(rng.uniform(0.05, 0.95)))
            for k in range(3)
        ]
        base = ap50(dets, gts).ap
        rescaled = [
            GlobalDetection(d.bbox, 0.01 + 0.98 * d.score**2, d.category, d.source) for d in dets
        ]
        assert ap50(rescaled, gts).ap == pytest.approx(base, abs=1e-12)
    _pass(9, "perfect=1.0, empty=0.0, half-recall=0.5 +/- 0.01, rescale-invariant on 20 instances")


def test_10_dmap_format(tmp_path):
    rng = np.random.default_rng(31)
    dset = DensityMapSet(
        maps=tuple(
            DensityMap(
                values=rng.random((40, 56)).astype(np.float32).astype(np.float64),
                downsample=32.0,
            )
            for _ in ScaleLevel
        )
    )
    path = tmp_path / "maps.dmap"
    write_dmap(dset, path)
    loaded = read_dmap(path)
    for scale in ScaleLevel:
        assert np.array_equal(loaded[scale].values, dset[scale].values)
    again = tmp_path / "again.dmap"
    write_dmap(loaded, again)
    assert path.read_bytes() == again.read_bytes()

    blob = path.read_bytes()
    corrupt_magic = tmp_path / "magic.dmap"
    corrupt_magic.write_bytes(b"JUNK" + blob[4:])
    with pytest.raises(DmapMagicError):
        read_dmap(corrupt_magic)

    corrupt_planes = tmp_path / "planes.dmap"
    corrupt_planes.write_bytes(blob[:8] + struct.pack("<I", 3) + blob[12:])
    with pytest.raises(DmapPlaneCountError):
        read_dmap(corrupt_planes)

    truncated = tmp_path / "short.dmap"
    truncated.write_bytes(blob[:-33])
    with pytest.raises(DmapTruncatedError):
        read_dmap(truncated)
    _pass(10, "bit-exact round trip; magic/plane-count/truncation raise distinct errors")
