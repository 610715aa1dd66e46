import functools
import json
import math
import sys
import tempfile
import textwrap
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densegaze.config import PipelineConfig
from densegaze.core import Annotation, BoundingBox, Detections, ScaleLevel, SceneExtent
from densegaze import gaze
from densegaze.density import render_gt_density
from densegaze.merge import write_detections
from densegaze.pipeline import run_pipeline, select
from densegaze.gaze import (
    AdapterError,
    CostedDetector,
    DetectorAdapter,
    ExternalCommandDetector,
    NoisyDetector,
    OracleDetector,
    PatchDetection,
    default_standard_size,
    normalize,
    run_gaze,
)
from densegaze.saccade import Patch, patch_manifest, saccade
from densegaze.synth import SceneSpec, generate_scene


def make_patch(x, y, w, h, scale=ScaleLevel.TINY, ix=0, iy=0, density=1.0):
    return Patch(scale=scale, ix=ix, iy=iy, region=BoundingBox(x, y, w, h), density=density)


def reference_oracle_detect(annotations, np_patch):
    """OracleDetector.detect one annotation at a time: the half-open center
    rule, to_frame on both corners, and the content clip with max/min."""
    region = np_patch.patch.region
    out = []
    for ann in annotations:
        cx, cy = ann.bbox.center
        if not (region.x <= cx < region.right and region.y <= cy < region.bottom):
            continue
        x, y, w, h = ann.bbox.x, ann.bbox.y, ann.bbox.width, ann.bbox.height
        fx0, fy0 = np_patch.to_frame(x, y)
        fx1, fy1 = np_patch.to_frame(x + w, y + h)
        fx0 = max(fx0, 0.0)
        fy0 = max(fy0, 0.0)
        fx1 = min(fx1, np_patch.content_width)
        fy1 = min(fy1, np_patch.content_height)
        if fx1 - fx0 <= 0 or fy1 - fy0 <= 0:
            continue
        out.append(PatchDetection(BoundingBox(fx0, fy0, fx1 - fx0, fy1 - fy0), 1.0, ann.category))
    return out


def reference_noisy_detect(self, np_patch):
    """NoisyDetector.detect with numpy's scalar uniform and normal calls, as
    the adapter first drew them, one row at a time; self is the
    NoisyDetector. A false positive clipped to no size drops after its
    draws."""
    p = np_patch.patch
    rng = np.random.default_rng([self.seed, int(p.scale), p.iy, p.ix])
    rows: list[tuple[float, float, float, float, float, int]] = []  # x, y, w, h, score, category
    fw, fh = np_patch.content_width, np_patch.content_height
    seen = self._oracle.detect(np_patch)
    for (bx, by, bw, bh), category in zip(seen.boxes.tolist(), seen.categories.tolist()):
        if rng.random() < self.miss_rate:
            continue
        if self.jitter > 0:
            dx, dy, dw, dh = rng.normal(0.0, self.jitter, size=4)
        else:
            dx = dy = dw = dh = 0.0
        w = max(bw + dw, 1.0)
        h = max(bh + dh, 1.0)
        x = min(max(bx + dx, 0.0), max(fw - w, 0.0))
        y = min(max(by + dy, 0.0), max(fh - h, 0.0))
        w = min(w, fw - x)
        h = min(h, fh - y)
        if w <= 0 or h <= 0:
            continue
        score = float(rng.uniform(0.6, 1.0)) if self.jitter > 0 or self.miss_rate > 0 else 1.0
        rows.append((x, y, w, h, score, category))
    for _ in range(int(rng.poisson(self.fp_rate))):
        w = float(rng.uniform(4.0, max(fw / 4.0, 8.0)))
        h = float(rng.uniform(4.0, max(fh / 4.0, 8.0)))
        x = float(rng.uniform(0.0, max(fw - w, 1.0)))
        y = float(rng.uniform(0.0, max(fh - h, 1.0)))
        score = float(rng.uniform(0.05, 0.6))
        w, h = min(w, fw - x), min(h, fh - y)
        if w > 0 and h > 0:
            rows.append((x, y, w, h, score, 0))
    columns = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return Detections(columns[:, :4], columns[:, 4], np.array([row[5] for row in rows], dtype=np.int64))


def reference_exec_clip(rows, normalized):
    """The external detector's content clip one row at a time: max/min
    against the row's patch content, rows grouped per patch in row order."""
    results = [[] for _ in normalized]
    for row in rows:
        pid = row["patch_id"]
        x, y, w, h = (float(v) for v in row["bbox"])
        np_p = normalized[pid]
        x0 = max(x, 0.0)
        y0 = max(y, 0.0)
        x1 = min(x + w, np_p.content_width)
        y1 = min(y + h, np_p.content_height)
        if x1 - x0 <= 0 or y1 - y0 <= 0:
            continue
        results[pid].append(
            PatchDetection(BoundingBox(x0, y0, x1 - x0, y1 - y0), float(row["score"]), row.get("category", 0))
        )
    return results


def batch_bits(dets):
    """A Detections batch's boxes, scores and categories as (dtype, shape, bytes)."""
    return [(c.dtype, c.shape, c.tobytes()) for c in (dets.boxes, dets.scores, dets.categories)]


def detection_bits(dets):
    """Each detection's box as float.hex (so -0.0 and 0.0 differ), score and
    category, with the category's type."""
    return [
        (tuple(float(v).hex() for v in (d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height)),
         float(d.score).hex(), type(d.category), d.category)
        for d in dets
    ]


@st.composite
def oracle_cases(draw):
    """A patch on a quarter-pixel grid, far from or near the origin, zoomed
    above or below 1, and boxes around it: centers on every edge
    (including the excluded right and bottom ones) and one ulp to either
    side of it, boxes overhanging each edge, and boxes too thin to
    survive the frame transform."""
    base = draw(st.sampled_from([0.0, 1000.25, 2.6e4]))
    rx, ry = base + draw(st.integers(0, 64)) / 4.0, base + draw(st.integers(0, 64)) / 4.0
    rw, rh = draw(st.integers(1, 256)) / 4.0, draw(st.integers(1, 256)) / 4.0
    standard = (draw(st.integers(1, 512)), draw(st.integers(1, 512)))
    np_patch = normalize(make_patch(rx, ry, rw, rh), standard)
    region = np_patch.patch.region

    def center(lo, size):
        edge = st.sampled_from([lo, lo + size])
        return draw(
            st.one_of(
                st.sampled_from([lo, lo + size, lo + size / 2.0]),
                st.tuples(edge, st.sampled_from([-math.inf, math.inf])).map(lambda e: math.nextafter(*e)),
                st.integers(-32, 4 * int(size) + 32).map(lambda q: lo + q / 4.0),
            )
        )

    side = st.one_of(st.integers(1, 4 * 256).map(lambda q: q / 4.0), st.sampled_from([1e-13, 5e-324, 1e-9]))
    annotations = []
    for i in range(draw(st.integers(0, 12))):
        cx, cy = center(region.x, region.width), center(region.y, region.height)
        w, h = draw(side), draw(side)
        annotations.append(Annotation(i, BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h), draw(st.integers(0, 3))))
    return annotations, np_patch


@st.composite
def exec_clip_cases(draw):
    """One to three patches and rows over them with interleaved patch ids:
    starts at -0.0, below 0, on the content edge and huge; sizes that end
    on or past the content edge, are zero or negative, or overflow the
    end to inf; categories above 2**53."""
    normalized = []
    for ix in range(draw(st.integers(1, 3))):
        rw, rh = draw(st.integers(1, 256)) / 4.0, draw(st.integers(1, 256)) / 4.0
        standard = (draw(st.integers(1, 512)), draw(st.integers(1, 512)))
        normalized.append(normalize(make_patch(0.0, 0.0, rw, rh, ix=ix), standard))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        pid = draw(st.integers(0, len(normalized) - 1))
        bbox = []
        for edge in (normalized[pid].content_width, normalized[pid].content_height):
            start = draw(st.one_of(
                st.sampled_from([-0.0, 0.0, -2.5, edge, 1.7e308]),
                st.integers(-64, 4 * 600).map(lambda q: q / 4.0),
            ))
            size = draw(st.one_of(
                st.sampled_from([0.0, -1.0, edge - start, edge - start + 1.0, 1.7e308]),
                st.integers(1, 4 * 600).map(lambda q: q / 4.0),
            ))
            bbox.append((start, size))
        (x, w), (y, h) = bbox
        rows.append({
            "patch_id": pid,
            "bbox": [x, y, w, h],
            "score": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "category": draw(st.sampled_from([0, 3, 2**53 + 1])),
        })
    return rows, normalized


class TestNormalize:
    def test_identity_zoom(self):
        np_patch = normalize(make_patch(0, 0, 1200, 1200), (1200, 1200))
        assert np_patch.zoom == 1.0
        assert np_patch.content_width == 1200.0

    def test_half_zoom(self):
        np_patch = normalize(make_patch(0, 0, 2400, 2400), (1200, 1200))
        assert np_patch.zoom == 0.5

    def test_point_round_trip(self):
        np_patch = normalize(make_patch(777.5, 312.25, 1934.0, 1101.5), (1978, 1124))
        rng = np.random.default_rng(0)
        for _ in range(200):
            gx = float(rng.uniform(777.5, 777.5 + 1934.0))
            gy = float(rng.uniform(312.25, 312.25 + 1101.5))
            fx, fy = np_patch.to_frame(gx, gy)
            bx, by = np_patch.to_scene(fx, fy)
            assert abs(bx - gx) < 1e-9
            assert abs(by - gy) < 1e-9

    def test_default_grid_zoom_ladder(self, default_scene):
        # Small/middle/large patches land near 1/2, 1/4, 1/8 of tiny zoom.
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        standard = default_standard_size(extent)
        expected = {ScaleLevel.TINY: 1.0, ScaleLevel.SMALL: 0.5,
                    ScaleLevel.MIDDLE: 0.25, ScaleLevel.LARGE: 0.125}
        for patch in patches:
            zoom = normalize(patch, standard).zoom
            assert zoom == pytest.approx(expected[patch.scale], rel=0.15)
            if patch.scale is ScaleLevel.TINY:
                assert 0.8 <= zoom <= 1.25

    def test_rejects_bad_standard(self):
        with pytest.raises(ValueError):
            normalize(make_patch(0, 0, 100, 100), (0, 100))

    def test_default_standard_size_even(self):
        w, h = default_standard_size(SceneExtent(26368, 14976))
        assert (w, h) == (1978, 1124)
        assert w % 2 == 0 and h % 2 == 0


class TestOracleDetector:
    EXTENT = SceneExtent(4000, 4000)

    def test_no_centers_inside(self):
        oracle = OracleDetector([Annotation(0, BoundingBox(3000, 3000, 50, 50))])
        np_patch = normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))
        assert len(oracle.detect(np_patch)) == 0

    def test_contained_box_exact(self):
        ann = Annotation(0, BoundingBox(400, 500, 60, 120), category=3)
        oracle = OracleDetector([ann])
        np_patch = normalize(make_patch(200, 300, 1000, 1000), (500, 500))
        dets = oracle.detect(np_patch)
        assert len(dets) == 1
        det = dets[0]
        assert det.score == 1.0
        assert det.category == 3
        assert det.bbox.x == pytest.approx((400 - 200) * 0.5)
        assert det.bbox.y == pytest.approx((500 - 300) * 0.5)
        assert det.bbox.width == pytest.approx(60 * 0.5)
        assert det.bbox.height == pytest.approx(120 * 0.5)

    def test_overhanging_box_clipped(self):
        # Center inside, box extends past the patch right edge.
        ann = Annotation(0, BoundingBox(950, 400, 200, 100))
        oracle = OracleDetector([ann])
        np_patch = normalize(make_patch(0, 0, 1100, 1100), (1100, 1100))
        det = oracle.detect(np_patch)[0]
        # Brute-force intersection of box and patch region.
        expected_w = min(950 + 200, 1100) - 950
        assert det.bbox.width == pytest.approx(expected_w)
        assert det.bbox.x == pytest.approx(950.0)

    # Random draws tie the near clip edges at 0.0 but do not reach -0.0
    # or the far edges, so those come as fixed cases: at zoom 0.5 a left
    # edge one subnormal left of the patch maps to -0.0, which the clip
    # keeps, and a box ending on the patch's far corner ends on the
    # content's.
    @example((
        [Annotation(0, BoundingBox(-5e-324, -5e-324, 1.0, 1.0), 1),
         Annotation(1, BoundingBox(3.0, 2.5, 1.0, 1.5), 2)],
        normalize(make_patch(0.0, 0.0, 4.0, 4.0), (2, 2)),
    ))
    @settings(max_examples=400, deadline=None)
    @given(oracle_cases())
    def test_matches_the_per_box_reference(self, case):
        annotations, np_patch = case
        expected = reference_oracle_detect(annotations, np_patch)
        got = OracleDetector(annotations).detect(np_patch)
        assert detection_bits(got) == detection_bits(expected)

    def test_center_rule_half_open(self):
        ann = Annotation(0, BoundingBox(950, 0, 100, 100))  # center x exactly 1000
        oracle = OracleDetector([ann])
        left = normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))
        right = normalize(make_patch(1000, 0, 1000, 1000), (1000, 1000))
        assert len(oracle.detect(left)) == 0
        assert len(oracle.detect(right)) == 1


@functools.lru_cache(maxsize=None)
def _crowd_1k(seed):
    return generate_scene(SceneSpec(object_count=1000, foreground_fraction_target=0.07, seed=seed))


def selected_frames(annotations, extent):
    """Every patch the stock config selects on a scene, normalized."""
    config = PipelineConfig()
    _, patches = select(annotations, extent, config)
    standard = config.resolve_standard_size(extent)
    return [normalize(patch, standard) for patch in patches]


class TestNoisyDetector:
    def _scene(self):
        anns = [Annotation(i, BoundingBox(100 + 150 * i, 200, 60, 120)) for i in range(5)]
        return anns, normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))

    def test_degenerate_noise_equals_oracle(self, default_scene):
        annotations, _ = default_scene
        noisy = NoisyDetector(annotations, jitter=0.0, miss_rate=0.0, fp_rate=0.0, seed=1)
        oracle = OracleDetector(annotations)
        for np_patch in selected_frames(*default_scene):
            assert batch_bits(noisy.detect(np_patch)) == batch_bits(oracle.detect(np_patch))

    def test_full_miss_rate(self):
        anns, np_patch = self._scene()
        noisy = NoisyDetector(anns, miss_rate=1.0, seed=1)
        assert len(noisy.detect(np_patch)) == 0

    def test_seeded_determinism(self):
        anns, np_patch = self._scene()
        a = NoisyDetector(anns, jitter=3.0, miss_rate=0.2, fp_rate=1.5, seed=42)
        b = NoisyDetector(anns, jitter=3.0, miss_rate=0.2, fp_rate=1.5, seed=42)
        assert a.detect(np_patch) == b.detect(np_patch)
        assert a.detect(np_patch) == a.detect(np_patch)  # call order irrelevant

    def test_different_seeds_differ(self):
        anns, np_patch = self._scene()
        a = NoisyDetector(anns, jitter=3.0, miss_rate=0.2, fp_rate=1.5, seed=1)
        b = NoisyDetector(anns, jitter=3.0, miss_rate=0.2, fp_rate=1.5, seed=2)
        assert a.detect(np_patch) != b.detect(np_patch)

    # oracle_cases puts boxes across every patch edge, so the content clips
    # them, and gives frames from 1 to 512 px, above and below the false
    # positives' 8 px floor.
    @settings(max_examples=400, deadline=None)
    @given(
        case=oracle_cases(),
        cell=st.tuples(st.sampled_from(list(ScaleLevel)), st.integers(0, 40), st.integers(0, 40)),
        seed=st.integers(0, 2**32),
        jitter=st.sampled_from([0.0, 0.5, 2.0]),
        miss_rate=st.sampled_from([0.0, 0.05, 1.0]),
        fp_rate=st.sampled_from([0.0, 1.5, 3.0]),
    )
    def test_matches_the_numpy_scalar_draws(self, case, cell, seed, jitter, miss_rate, fp_rate):
        annotations, np_patch = case
        scale, ix, iy = cell
        np_patch = normalize(replace(np_patch.patch, scale=scale, ix=ix, iy=iy), np_patch.standard_size)
        adapter = NoisyDetector(annotations, jitter=jitter, miss_rate=miss_rate, fp_rate=fp_rate, seed=seed)
        assert batch_bits(adapter.detect(np_patch)) == batch_bits(reference_noisy_detect(adapter, np_patch))

    # CI's three flag sets for the 1k crowd, and false positives alone.
    @pytest.mark.parametrize("scene_seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "jitter, miss_rate, fp_rate, seed", [(2.0, 0.05, 3.0, 0), (0.0, 0.05, 3.0, 1), (2.0, 0.0, 0.0, 2), (2.0, 1.0, 3.0, 3)]
    )
    def test_whole_crowd_scenes_match_the_numpy_scalar_draws(self, scene_seed, jitter, miss_rate, fp_rate, seed):
        annotations, _ = _crowd_1k(scene_seed)
        adapter = NoisyDetector(annotations, jitter=jitter, miss_rate=miss_rate, fp_rate=fp_rate, seed=seed)
        for np_patch in selected_frames(*_crowd_1k(scene_seed)):
            assert batch_bits(adapter.detect(np_patch)) == batch_bits(reference_noisy_detect(adapter, np_patch))

    def test_a_sub_pixel_frame_keeps_false_positives_inside(self):
        # y is drawn in [0, 1) while the content is 1 x 0.5 px, so some
        # false positives clip to no size and drop; seed 0 draws one such.
        np_patch = normalize(make_patch(0.0, 0.0, 0.5, 0.25), (1, 1))
        batches = [NoisyDetector([], fp_rate=1.5, seed=seed).detect(np_patch) for seed in range(8)]
        assert len(batches[0]) == 0 and sum(map(len, batches)) > 0
        for dets in batches:
            x, y, w, h = dets.boxes.T
            assert (x >= 0).all() and (y >= 0).all() and (w > 0).all() and (h > 0).all()
            assert (x + w <= np_patch.content_width).all() and (y + h <= np_patch.content_height).all()

    def test_refuses_content_of_2_53_px_a_side(self):
        # From 2**53 px, fw - w may round to fw, leaving a jittered box no
        # width after its score was drawn.
        anns = [Annotation(0, BoundingBox(0.0, 0.0, 4.0, 4.0))]
        adapter = NoisyDetector(anns, jitter=1.0, fp_rate=1.0)
        for side in (2.0**53, 2.0**60):
            with pytest.raises(ValueError, match=r"under 2\*\*53 px a side"):
                adapter.detect(normalize(make_patch(0.0, 0.0, 8.0, side), (8, 8)))
        just_under = normalize(make_patch(0.0, 0.0, 8.0, 2.0**53 - 1.0), (8, 8))
        assert batch_bits(adapter.detect(just_under)) == batch_bits(reference_noisy_detect(adapter, just_under))

    def test_validates_rates(self):
        with pytest.raises(ValueError):
            NoisyDetector([], miss_rate=1.5)
        with pytest.raises(ValueError):
            NoisyDetector([], jitter=-1.0)

    def test_rejects_a_negative_seed(self):
        anns, _ = self._scene()
        with pytest.raises(ValueError, match="seed must be >= 0"):
            NoisyDetector(anns, seed=-1)


class TestCostedDetector:
    def test_ledger_arithmetic(self):
        costed = CostedDetector(OracleDetector([]))
        for i in range(3):
            costed.detect(normalize(make_patch(0, 0, 1200, 1200, ix=i), (1200, 1200)))
        assert costed.ledger.pixels == 3 * 1200 * 1200 == 4_320_000
        assert costed.ledger.patches == 3

    def test_empty_run(self):
        costed = CostedDetector(OracleDetector([]))
        assert costed.ledger.pixels == 0

    def test_mixed_scales_charge_standard_area(self, default_scene):
        # The ledger depends only on the standard frame, never patch size.
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        standard = default_standard_size(extent)
        costed = CostedDetector(OracleDetector(annotations))
        run_gaze(patches, costed, standard, workers=2)
        assert costed.ledger.pixels == len(patches) * standard[0] * standard[1]

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            CostedDetector(OracleDetector([]), cost_per_pixel=-1.0)


class _ExplodingAdapter(DetectorAdapter):
    """Fails on the given cells; the first of them fails last in time."""

    def __init__(self, *bad_cells):
        self.bad_cells = bad_cells

    def detect(self, np_patch):
        cell = (np_patch.patch.ix, np_patch.patch.iy)
        if cell == self.bad_cells[0]:
            time.sleep(0.05)
        if cell in self.bad_cells:
            raise RuntimeError(f"synthetic failure at {cell}")
        return []


class TestRunGaze:
    def _patches(self, n=6):
        return [make_patch(i * 1000.0, 0, 1000, 1000, ix=i) for i in range(n)]

    def test_empty(self):
        assert run_gaze([], OracleDetector([]), (100, 100)) == []

    def test_order_matches_input(self):
        anns = [Annotation(i, BoundingBox(i * 1000 + 450, 450, 80, 80)) for i in range(6)]
        results = run_gaze(self._patches(), OracleDetector(anns), (1000, 1000), workers=3)
        assert [r.patch.ix for r in results] == [0, 1, 2, 3, 4, 5]
        for i, r in enumerate(results):
            assert len(r.detections) == 1

    def test_worker_count_never_changes_results(self):
        anns = [Annotation(i, BoundingBox(i * 700 + 300, 300, 90, 180)) for i in range(8)]
        patches = self._patches(8)
        base = run_gaze(patches, NoisyDetector(anns, jitter=2.0, fp_rate=1.0, seed=5), (1000, 1000), workers=1)
        for workers in (2, 4, 8):
            again = run_gaze(
                patches, NoisyDetector(anns, jitter=2.0, fp_rate=1.0, seed=5), (1000, 1000), workers=workers
            )
            assert [r.detections for r in again] == [r.detections for r in base]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_adapter_failure_carries_patch_identity(self, workers):
        patches = self._patches()
        with pytest.raises(AdapterError) as err:
            run_gaze(patches, _ExplodingAdapter((3, 0), (4, 0)), (1000, 1000), workers=workers)
        assert err.value.patch is patches[3]
        assert "cell=(3,0)" in str(err.value)
        assert "failure at (3, 0)" in str(err.value)

    @pytest.mark.parametrize(
        "batch,message",
        [
            (lambda normalized: int("boom"), "invalid literal"),
            (lambda normalized: [[] for _ in normalized[1:]], "returned 5 results for 6 patches"),
        ],
    )
    def test_batch_failure_is_adapter_error(self, batch, message):
        adapter = OracleDetector([])
        adapter.detect_batch = batch
        with pytest.raises(AdapterError, match=message) as err:
            run_gaze(self._patches(), adapter, (1000, 1000))
        assert err.value.patch is None

    def test_a_bad_batch_answer_names_its_patch(self):
        # detect_batch answers go through the same loop as detect answers.
        patches = self._patches()
        adapter = OracleDetector([])

        def batch(normalized):
            answers = [Detections([[1.0, 1.0, 5.0, 5.0]], [0.5], [0]) for _ in normalized]
            answers[3] = [SimpleNamespace(bbox=BoundingBox(1.0, 1.0, 5.0, 5.0), score=1.5, category=0)]
            return answers

        adapter.detect_batch = batch
        with pytest.raises(AdapterError, match=r"cell=\(3,0\): detection row 0: score 1.5") as err:
            run_gaze(patches, adapter, (1000, 1000), workers=4)
        assert err.value.patch is patches[3]

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            run_gaze([], OracleDetector([]), (100, 100), workers=0)

    def test_one_worker_detects_on_the_calling_thread(self, monkeypatch):
        started, callers = [], []
        start = threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)

        class Recording(DetectorAdapter):
            def detect(self, np_patch):
                callers.append(threading.get_ident())
                return []

        results = run_gaze(self._patches(), Recording(), (1000, 1000), workers=1)
        assert len(results) == 6
        assert callers == [threading.get_ident()] * 6
        assert started == []


class _ListOracle(DetectorAdapter):
    """A third-party adapter: the oracle's answer as a list of PatchDetection."""

    def __init__(self, annotations):
        self.oracle = OracleDetector(annotations)

    def detect(self, np_patch):
        return list(self.oracle.detect(np_patch))


class _BadRows(DetectorAdapter):
    """Answers one good row, or on the given cells a bad box or score, in a
    Detections batch, a list of PatchDetection, or a list of unchecked
    duck-typed rows that only the conversion at the boundary checks. The
    first bad cell fails last in time."""

    def __init__(self, form, defect, *bad_cells):
        self.form, self.defect, self.bad_cells = form, defect, bad_cells

    def detect(self, np_patch):
        cell = (np_patch.patch.ix, np_patch.patch.iy)
        box, score = (1.0, 1.0, 5.0, 5.0), 0.5
        if cell in self.bad_cells:
            if cell == self.bad_cells[0]:
                time.sleep(0.05)
            box, score = ((1.0, 1.0, -5.0, 5.0), score) if self.defect == "box" else (box, 1.5)
        if self.form == "detections":
            return Detections([box], [score], [0])
        if self.form == "objects":
            return [PatchDetection(BoundingBox(*box), score)]
        x, y, w, h = box
        return [SimpleNamespace(bbox=SimpleNamespace(x=x, y=y, width=w, height=h), score=score, category=0)]


class TestAdapterReturnForms:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_list_answer_gives_the_oracle_detections_file(self, default_scene, tmp_path, workers):
        annotations, extent = default_scene
        config = PipelineConfig(workers=workers)
        files = []
        for adapter in (OracleDetector(annotations), _ListOracle(annotations)):
            run = run_pipeline(annotations, extent, config, adapter)
            assert all(isinstance(r.detections, Detections) for r in run.gaze_results)
            files.append(tmp_path / f"{type(adapter).__name__}.json")
            write_detections(files[-1], run.detections)
        assert files[0].read_bytes() == files[1].read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("defect", ["box", "score"])
    @pytest.mark.parametrize("form", ["detections", "objects", "duck"])
    def test_bad_rows_blame_the_first_failing_patch(self, form, defect, workers):
        patches = [make_patch(i * 1000.0, 0, 1000, 1000, ix=i) for i in range(6)]
        with pytest.raises(AdapterError, match=r"cell=\(3,0\)") as err:
            run_gaze(patches, _BadRows(form, defect, (3, 0), (4, 0)), (1000, 1000), workers=workers)
        assert err.value.patch is patches[3]
        good = run_gaze(patches, _BadRows(form, defect), (1000, 1000), workers=workers)
        assert [r.detections for r in good] == [Detections([[1.0, 1.0, 5.0, 5.0]], [0.5], [0])] * 6

    @pytest.mark.parametrize("category", [2.5, True, 2**70], ids=["2.5", "True", "2**70"])
    def test_a_list_answer_with_a_non_integer_category_blames_its_patch(self, category):
        class BadCategory(DetectorAdapter):
            def detect(self, np_patch):
                c = category if np_patch.patch.ix == 2 else 0
                return [PatchDetection(BoundingBox(1.0, 1.0, 5.0, 5.0), 0.5, c)]

        patches = [make_patch(i * 1000.0, 0, 1000, 1000, ix=i) for i in range(4)]
        with pytest.raises(AdapterError, match=r"cell=\(2,0\): detection row 0: category") as err:
            run_gaze(patches, BadCategory(), (1000, 1000))
        assert err.value.patch is patches[2]


ECHO_DETECTOR = textwrap.dedent(
    """
    import json, sys
    manifest = json.load(open(sys.argv[1]))
    rows = []
    for entry in manifest:
        rows.append({
            "patch_id": entry["patch_id"],
            "bbox": [10.0, 20.0, 30.0, 40.0],
            "score": 0.75,
            "category": 1,
        })
    json.dump(rows, open(sys.argv[2], "w"))
    """
)


class TestExternalCommandDetector:
    def _write_script(self, tmp_path, body):
        script = tmp_path / "detector.py"
        script.write_text(body)
        return [sys.executable, str(script)]

    def test_batch_round_trip(self, tmp_path):
        adapter = ExternalCommandDetector(self._write_script(tmp_path, ECHO_DETECTOR))
        patches = [make_patch(i * 1000.0, 0, 1000, 1000, ix=i) for i in range(4)]
        results = run_gaze(patches, adapter, (1000, 1000), workers=2)
        assert len(results) == 4
        for r in results:
            assert len(r.detections) == 1
            det = r.detections[0]
            assert det == PatchDetection(bbox=BoundingBox(10, 20, 30, 40), score=0.75, category=1)

    def test_command_failure(self, tmp_path):
        adapter = ExternalCommandDetector(self._write_script(tmp_path, "import sys; sys.exit(3)"))
        with pytest.raises(AdapterError, match="exited 3"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_hung_command_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gaze, "EXEC_TIMEOUT_S", 0.5)
        adapter = ExternalCommandDetector(self._write_script(tmp_path, "import time; time.sleep(60)"))
        started = time.perf_counter()
        with pytest.raises(AdapterError, match="timed out after 0.5 s"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])
        assert time.perf_counter() - started < 30.0

    def test_invalid_json(self, tmp_path):
        body = "import sys\nopen(sys.argv[2], 'w').write('not json')"
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        with pytest.raises(AdapterError, match="invalid JSON"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_no_detections_file(self, tmp_path):
        adapter = ExternalCommandDetector(self._write_script(tmp_path, "pass"))
        with pytest.raises(AdapterError, match="^external detector wrote no detections file$"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_unknown_patch_id(self, tmp_path):
        body = textwrap.dedent(
            """
            import json, sys
            json.dump([{"patch_id": 99, "bbox": [0, 0, 1, 1], "score": 0.5}], open(sys.argv[2], "w"))
            """
        )
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        with pytest.raises(AdapterError, match="unknown patch_id"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_boxes_clipped_to_content(self, tmp_path):
        body = textwrap.dedent(
            """
            import json, sys
            json.dump([{"patch_id": 0, "bbox": [900.0, 900.0, 400.0, 400.0], "score": 0.5}],
                      open(sys.argv[2], "w"))
            """
        )
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        dets = adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])[0]
        assert dets[0].bbox == BoundingBox(900, 900, 100, 100)

    def test_bad_score_rejected(self, tmp_path):
        body = textwrap.dedent(
            """
            import json, sys
            json.dump([{"patch_id": 0, "bbox": [0.0, 0.0, 10.0, 10.0], "score": 1.5}],
                      open(sys.argv[2], "w"))
            """
        )
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        with pytest.raises(AdapterError, match="score"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_nan_score_rejected(self, tmp_path):
        body = textwrap.dedent(
            """
            import sys
            open(sys.argv[2], "w").write('[{"patch_id": 0, "bbox": [0, 0, 10, 10], "score": NaN}]')
            """
        )
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        with pytest.raises(AdapterError, match=r"malformed detection row 0 .*: score nan is outside \[0, 1\]"):
            adapter.detect_batch([normalize(make_patch(0, 0, 1000, 1000), (1000, 1000))])

    def test_manifest_rows_are_patch_manifest_rows(self, tmp_path):
        copy = tmp_path / "manifest_copy.json"
        body = f"import shutil, sys\nshutil.copy(sys.argv[1], {str(copy)!r})\nopen(sys.argv[2], 'w').write('[]')\n"
        adapter = ExternalCommandDetector(self._write_script(tmp_path, body))
        patches = [
            make_patch(0.0, 0.0, 1000.0, 700.0, ix=0, iy=0, density=0.25),
            make_patch(812.5, 96.25, 2400.0, 1680.0, scale=ScaleLevel.SMALL, ix=3, iy=1, density=7.125),
        ]
        standard = (1000, 700)
        adapter.detect_batch([normalize(p, standard) for p in patches])
        manifest = json.loads(copy.read_text())
        assert [list(row) for row in manifest] == [
            ["patch_id", "scale", "cell", "region", "density", "zoom", "standard_size"]
        ] * 2
        for i, (row, patch, expected) in enumerate(zip(manifest, patches, patch_manifest(patches))):
            assert row.pop("patch_id") == i
            assert row.pop("zoom") == normalize(patch, standard).zoom
            assert row.pop("standard_size") == [1000, 700]
            assert row == expected

    # Rows over two patches, interleaved: a -0.0 start kept as -0.0 and an
    # end on the content edge, a negative start and an end past the edge,
    # a start on the edge (zero width, dropped), and a category above 2**53.
    @example((
        [{"patch_id": 1, "bbox": [-0.0, -0.0, 6.0, 6.0], "score": 1.0},
         {"patch_id": 0, "bbox": [-2.5, 1.0, 10.0, 1.0], "score": 0.5, "category": 2},
         {"patch_id": 1, "bbox": [6.0, 0.0, 2.0, 2.0], "score": 0.5},
         {"patch_id": 0, "bbox": [1.0, 1.0, 1.0, 1.0], "score": 0.0, "category": 2**53 + 1}],
        [normalize(make_patch(0.0, 0.0, 8.0, 8.0, ix=0), (4, 4)),
         normalize(make_patch(0.0, 0.0, 2.0, 2.0, ix=1), (6, 6))],
    ))
    @settings(max_examples=150, deadline=None)
    @given(exec_clip_cases())
    def test_clip_matches_the_per_row_reference(self, case):
        rows, normalized = case
        with tempfile.TemporaryDirectory() as tmp:
            answer = f"{tmp}/answer.json"
            with open(answer, "w", encoding="utf-8") as fh:
                json.dump(rows, fh)
            # sh -c gets the answer file as $0, then the manifest and output paths.
            adapter = ExternalCommandDetector(["sh", "-c", 'cat "$0" > "$2"', answer])
            got = adapter.detect_batch(normalized)
        expected = reference_exec_clip(rows, normalized)
        assert [detection_bits(dets) for dets in got] == [detection_bits(dets) for dets in expected]
