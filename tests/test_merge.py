import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densegaze.config import PipelineConfig
from densegaze.core import Annotation, BoundingBox, Detection, Detections, ScaleLevel, SceneExtent, iou
from densegaze.density import render_gt_density
from densegaze.gaze import (
    AdapterError,
    ExternalCommandDetector,
    GazeResult,
    NoisyDetector,
    OracleDetector,
    PatchDetection,
    normalize,
    run_gaze,
)
from densegaze.merge import (
    GlobalDetection,
    global_nms,
    merge_run,
    read_detections,
    to_global,
    write_detections,
)
from densegaze.pipeline import run_pipeline
from densegaze.saccade import Patch, saccade


def det(x, y, w, h, score, category=0, source=0):
    return GlobalDetection(bbox=BoundingBox(x, y, w, h), score=score, category=category, source=source)


def reference_nms(dets, threshold):
    """Independent quadratic greedy NMS used as the oracle."""
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].bbox.x, dets[i].bbox.y, dets[i].source,
                       dets[i].bbox.width, dets[i].bbox.height, dets[i].category),
    )
    kept = []
    for i in order:
        suppressed = False
        for j in kept:
            if dets[j].category == dets[i].category and iou(dets[i].bbox, dets[j].bbox) > threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return [dets[i] for i in kept]


def reference_merge(results, extent, threshold=0.5):
    """Per-object lift and clip through to_global and BoundingBox.clip, then reference_nms."""
    flat = []
    for source, result in enumerate(results):
        for d in result.detections:
            g = to_global(d, result.normalized, source=source)
            clipped = g.bbox.clip(extent)
            if clipped is not None:
                flat.append(GlobalDetection(clipped, g.score, g.category, source))
    return reference_nms(flat, threshold)


# Origins on a small integer grid give shared edges; the 2.6e4 origin is
# where x + w rounds, which iou's extent caps exist for.
_origin = st.sampled_from([0.0, 26_000.0, 26_366.5])
_offset = st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0))
_extent = st.one_of(st.integers(1, 12).map(float), st.floats(1e-3, 12.0))


@st.composite
def detection_sets(draw):
    origin = draw(_origin)
    shapes = draw(
        st.lists(st.tuples(_offset, _offset, _extent, _extent), min_size=1, max_size=10)
    )
    # Picking shapes with replacement makes exact duplicate boxes.
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(shapes) - 1),
                st.sampled_from([0.25, 0.5, 1.0]),
                st.integers(0, 1),
                st.integers(0, 2),
            ),
            max_size=30,
        )
    )
    return [
        det(origin + shapes[k][0], origin + shapes[k][1], shapes[k][2], shapes[k][3], score, category, source)
        for k, score, category, source in picks
    ]


def random_detections(rng, n, span=1000.0, categories=1):
    out = []
    for i in range(n):
        x = float(rng.uniform(0, span))
        y = float(rng.uniform(0, span))
        w = float(rng.uniform(10, span / 4))
        h = float(rng.uniform(10, span / 4))
        out.append(
            det(x, y, w, h, float(rng.uniform(0, 1)), category=int(rng.integers(categories)), source=i)
        )
    return out


class TestToGlobal:
    def test_identity_transform(self):
        np_patch = normalize(
            Patch(ScaleLevel.TINY, 0, 0, BoundingBox(0, 0, 500, 500), 1.0), (500, 500)
        )
        g = to_global(PatchDetection(BoundingBox(10, 20, 30, 40), 0.9), np_patch)
        assert g.bbox == BoundingBox(10, 20, 30, 40)
        assert g.score == 0.9

    def test_analytic_case(self):
        np_patch = normalize(
            Patch(ScaleLevel.SMALL, 0, 0, BoundingBox(1000, 2000, 1000, 1000), 1.0), (500, 500)
        )
        assert np_patch.zoom == 0.5
        g = to_global(PatchDetection(BoundingBox(10, 10, 20, 20), 1.0), np_patch, source=4)
        assert g.bbox.x == pytest.approx(1020.0)
        assert g.bbox.y == pytest.approx(2020.0)
        assert g.bbox.width == pytest.approx(40.0)
        assert g.bbox.height == pytest.approx(40.0)
        assert g.source == 4

    def test_round_trip_thousand_boxes(self):
        rng = np.random.default_rng(1)
        np_patch = normalize(
            Patch(ScaleLevel.MIDDLE, 2, 1, BoundingBox(5432.5, 871.25, 7910.0, 4500.5), 1.0),
            (1978, 1124),
        )
        region = np_patch.patch.region
        for _ in range(1000):
            x = float(rng.uniform(region.x, region.right - 50))
            y = float(rng.uniform(region.y, region.bottom - 50))
            w = float(rng.uniform(1, 40))
            h = float(rng.uniform(1, 40))
            fx0, fy0 = np_patch.to_frame(x, y)
            fx1, fy1 = np_patch.to_frame(x + w, y + h)
            g = to_global(
                PatchDetection(BoundingBox(fx0, fy0, fx1 - fx0, fy1 - fy0), 1.0), np_patch
            )
            assert abs(g.bbox.x - x) < 1e-6
            assert abs(g.bbox.y - y) < 1e-6
            assert abs(g.bbox.right - (x + w)) < 1e-6
            assert abs(g.bbox.bottom - (y + h)) < 1e-6


class TestGlobalNms:
    def test_single_detection(self):
        d = det(0, 0, 10, 10, 0.5)
        assert global_nms([d]) == [d]

    def test_identical_boxes_keep_higher_score(self):
        lo = det(0, 0, 10, 10, 0.8)
        hi = det(0, 0, 10, 10, 0.9)
        assert global_nms([lo, hi]) == [hi]

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            dets = random_detections(rng, 200, categories=1 + trial % 3)
            got = global_nms(dets, 0.5)
            expected = reference_nms(dets, 0.5)
            assert got == expected

    def test_categories_do_not_suppress_each_other(self):
        a = det(0, 0, 10, 10, 0.9, category=0)
        b = det(0, 0, 10, 10, 0.8, category=1)
        assert set((d.category, d.score) for d in global_nms([a, b])) == {(0, 0.9), (1, 0.8)}

    def test_survivors_pairwise_below_threshold(self):
        rng = np.random.default_rng(3)
        dets = random_detections(rng, 150)
        kept = global_nms(dets, 0.4)
        assert set(id(k) for k in kept) <= set(id(d) for d in dets)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.category == b.category:
                    assert iou(a.bbox, b.bbox) <= 0.4

    def test_boundary_iou_survives(self):
        # IoU exactly at the threshold is kept, suppression is strict.
        a = det(0, 0, 10, 10, 0.9)
        b = det(5, 0, 10, 10, 0.8)  # IoU = 1/3
        assert len(global_nms([a, b], 1 / 3)) == 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            global_nms([], 0.0)

    @pytest.mark.parametrize("threshold", [1 / 3, 0.5, 1.0])
    @settings(max_examples=150, deadline=None)
    @given(dets=detection_sets())
    def test_property_matches_reference(self, threshold, dets):
        assert global_nms(dets, threshold) == reference_nms(dets, threshold)


class TestMergeRun:
    def test_empty(self):
        assert len(merge_run([], SceneExtent(100, 100))) == 0

    def test_object_in_two_patches_merges_to_one(self):
        extent = SceneExtent(4000, 2000)
        ann = Annotation(0, BoundingBox(1950, 500, 120, 240))  # center x=2010
        patches = [
            Patch(ScaleLevel.TINY, 0, 0, BoundingBox(0, 0, 2100, 2000), 1.0),
            Patch(ScaleLevel.TINY, 1, 0, BoundingBox(1900, 0, 2100, 2000), 1.0),
        ]
        results = run_gaze(patches, OracleDetector([ann]), (2100, 2000))
        assert all(len(r.detections) == 1 for r in results)
        merged = merge_run(results, extent)
        assert len(merged) == 1
        assert iou(merged[0].bbox, ann.bbox) > 0.99

    def test_full_coverage_matches_ground_truth(self, small_scene):
        annotations, extent = small_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        results = run_gaze(patches, OracleDetector(annotations), (1978, 1124))
        merged = merge_run(results, extent)
        covered = [
            a for a in annotations
            if any(
                p.region.x <= a.bbox.center[0] < p.region.right
                and p.region.y <= a.bbox.center[1] < p.region.bottom
                for p in patches
            )
        ]

        def clipped_at_patch_edge(d):
            region = patches[d.source].region
            b = d.bbox
            eps = 1e-6
            return (
                abs(b.x - region.x) < eps
                or abs(b.y - region.y) < eps
                or abs(b.right - region.right) < eps
                or abs(b.bottom - region.bottom) < eps
            )

        # Every covered annotation is recovered; exactly (IoU >= 0.99)
        # unless the surviving view was clipped at its patch edge.
        for ann in covered:
            best_iou, best_det = max(
                ((iou(d.bbox, ann.bbox), d) for d in merged), key=lambda t: t[0]
            )
            assert best_iou >= 0.5
            assert best_iou >= 0.99 or clipped_at_patch_edge(best_det)
        assert all(d.bbox.clip(extent) == d.bbox for d in merged)

    def test_matches_per_object_reference(self, small_scene):
        annotations, extent = small_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        adapter = NoisyDetector(annotations, jitter=3.0, miss_rate=0.1, fp_rate=2.0, seed=1)
        results = run_gaze(patches, adapter, (1978, 1124))
        for threshold in (1 / 3, 0.5):
            assert list(merge_run(results, extent, threshold)) == reference_merge(results, extent, threshold)

    def test_clips_to_scene_like_boundingbox_clip(self):
        extent = SceneExtent(100, 80)
        patches = [
            Patch(ScaleLevel.TINY, 0, 0, BoundingBox(0, 0, 50, 80), 1.0),
            Patch(ScaleLevel.TINY, 1, 0, BoundingBox(50, 10, 50, 70), 1.0),
        ]
        dets = [
            [PatchDetection(BoundingBox(-5, -3, 20, 10), 0.9),
             PatchDetection(BoundingBox(-50, 0, 10, 10), 0.8)],  # wholly outside
            [PatchDetection(BoundingBox(30, 60, 40, 30), 0.7),
             PatchDetection(BoundingBox(20, 5, 10, 10), 0.6)],
        ]
        results = [GazeResult(normalize(p, (50, 80)), d) for p, d in zip(patches, dets)]
        merged = merge_run(results, extent)
        assert list(merged) == reference_merge(results, extent)
        assert [d.bbox for d in merged] == [
            BoundingBox(0.0, 0.0, 15.0, 7.0),
            BoundingBox(80.0, 70.0, 20.0, 10.0),
            BoundingBox(70.0, 15.0, 10.0, 10.0),
        ]

    def test_clip_keeps_edge_ties_and_negative_zero(self):
        # Boxes that end exactly on the scene's edges, and one lifted to a
        # left and top of -0.0, which the clip keeps as BoundingBox.clip
        # does. -0.0 == 0.0, so the bits are compared.
        extent = SceneExtent(100, 80)
        patches = [
            Patch(ScaleLevel.TINY, 0, 0, BoundingBox(-0.0, -0.0, 50, 80), 1.0),
            Patch(ScaleLevel.TINY, 1, 0, BoundingBox(50, 10, 50, 70), 1.0),
        ]
        dets = [
            [PatchDetection(BoundingBox(-0.0, -0.0, 20, 10), 0.9),
             PatchDetection(BoundingBox(0.0, 70.0, 10, 10), 0.8)],
            [PatchDetection(BoundingBox(40, 60, 10, 10), 0.7)],
        ]
        results = [GazeResult(normalize(p, (50, 80)), d) for p, d in zip(patches, dets)]

        def bits(merged):
            return [
                (tuple(v.hex() for v in (d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height)), d.score, d.source)
                for d in merged
            ]

        merged = merge_run(results, extent)
        assert bits(merged) == bits(reference_merge(results, extent))
        assert [(d.bbox.x, d.bbox.right, d.bbox.bottom) for d in merged] == [
            (0.0, 20.0, 10.0), (0.0, 10.0, 80.0), (90.0, 100.0, 80.0)
        ]
        assert str(merged[0].bbox.x) == str(merged[0].bbox.y) == "-0.0"

    def test_noisy_crowd_matches_reference(self, noisy_crowd):
        _, extent, run = noisy_crowd
        assert list(run.detections) == reference_merge(run.gaze_results, extent)

    @staticmethod
    def _lift(box, zoom):
        """merge_run of one frame box, scored 0.9, from a patch at (100, 200) at the given zoom."""
        patch = Patch(ScaleLevel.TINY, 0, 0, BoundingBox(100, 200, 100 / zoom, 100 / zoom), 1.0)
        result = GazeResult(normalize(patch, (100, 100)), [PatchDetection(BoundingBox(*box), 0.9)])
        return merge_run([result], SceneExtent(1000, 1000))

    def test_lift_drops_a_box_left_with_no_size(self):
        assert len(self._lift((10, 10, 5e-324, 10), 2)) == 0

    def test_lift_overflow_is_bounded_or_dropped_by_the_clip(self):
        assert self._lift((10, 10, 1.7e308, 10), 0.2).boxes.tolist() == [[150.0, 250.0, 850.0, 50.0]]
        assert len(self._lift((1.7e308, 10, 5, 5), 0.2)) == 0

    def test_lift_to_a_nan_corner_raises(self):
        with pytest.raises(ValueError, match="detection row 0: bbox values must be finite"):
            self._lift((-1.7e308, 10, 1.7e308, 10), 0.2)

    def test_worker_count_invariance(self, small_scene):
        annotations, extent = small_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        merged = [
            merge_run(
                run_gaze(patches, OracleDetector(annotations), (1978, 1124), workers=w), extent
            )
            for w in (1, 3, 8)
        ]
        assert merged[0] == merged[1] == merged[2]


def reference_write(path, dets):
    """write_detections through json.dump's indenting encoder."""
    rows = [
        {"bbox": [d.bbox.x, d.bbox.y, d.bbox.width, d.bbox.height], "score": d.score, "category": d.category}
        for d in dets
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


class TestDetectionsIo:
    def test_bytes_equal_json_dump(self, tmp_path, default_run, noisy_crowd):
        # A list is written from its float64 and int64 columns, so the
        # reference dumps those column values: an int 1 reads 1.0.
        odd = [
            GlobalDetection(BoundingBox(-0.0, 5e-324, 1e16, 3), 0.5, 2, 1),
            GlobalDetection(BoundingBox(1, 2, 3.5, 4), 1, 7),
            GlobalDetection(BoundingBox(0.1, 1e-7, 123456789.125, 1e22), 0.30000000000000004),
            GlobalDetection(BoundingBox(5, 5, 5, 5), 0, np.int64(1)),
        ]
        for dets in (default_run.detections, noisy_crowd[2].detections, [], odd):
            write_detections(tmp_path / "new.json", dets)
            reference_write(tmp_path / "ref.json", Detections.of(dets))
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf"), 1.5])
    def test_refuses_a_row_its_reader_rejects(self, tmp_path, score):
        dets = [det(1, 2, 3, 4, 0.5), det(5, 5, 5, 5, score)]
        reference_write(tmp_path / "ref.json", dets)
        with pytest.raises(ValueError, match=r"detection row 1: score") as read_error:
            read_detections(tmp_path / "ref.json")
        path = tmp_path / "dets.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError) as write_error:
            write_detections(path, dets)
        assert str(write_error.value) == str(read_error.value)
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "rows", [[(1.5, 0), (0.5, 2.5)], [(0.5, 0), (True, 0)]], ids=["score-then-category", "True-score"]
    )
    def test_names_the_row_its_reader_names(self, tmp_path, rows):
        dets = [det(1, 2, 3, 4, score, category) for score, category in rows]
        reference_write(tmp_path / "ref.json", dets)
        with pytest.raises(ValueError) as read_error:
            read_detections(tmp_path / "ref.json")
        with pytest.raises(ValueError) as write_error:
            write_detections(tmp_path / "dets.json", dets)
        assert str(write_error.value) == str(read_error.value)

    @pytest.mark.parametrize("category", [2**70, 2.5, True], ids=["2**70", "2.5", "True"])
    def test_refuses_a_category_its_reader_rejects(self, tmp_path, category):
        dets = [det(1, 2, 3, 4, 0.5), det(5, 5, 5, 5, 0.5, category)]
        reference_write(tmp_path / "ref.json", dets)
        with pytest.raises(ValueError, match=r"detection row 1: category") as read_error:
            read_detections(tmp_path / "ref.json")
        path = tmp_path / "dets.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError) as write_error:
            write_detections(path, dets)
        assert str(write_error.value) == str(read_error.value)
        assert path.read_text() == "kept\n"

    def test_rewriting_a_read_file_gives_its_bytes(self, tmp_path, default_run, noisy_crowd):
        for name, dets in (("stock", default_run.detections), ("crowd", noisy_crowd[2].detections)):
            first, second = tmp_path / f"{name}.json", tmp_path / f"{name}_again.json"
            write_detections(first, dets)
            loaded = read_detections(first)
            assert isinstance(loaded, Detections)
            assert np.array_equal(loaded.boxes, dets.boxes) and np.array_equal(loaded.scores, dets.scores)
            write_detections(second, loaded)
            assert second.read_bytes() == first.read_bytes()

    def test_oracle_run_and_write_build_no_per_box_objects(self, tmp_path, default_scene, monkeypatch):
        built = []

        def counting(init):
            def counted(self, *args, **kwargs):
                built.append(type(self))
                init(self, *args, **kwargs)
            return counted

        monkeypatch.setattr(Detection, "__init__", counting(Detection.__init__))
        Detection(BoundingBox(1, 1, 1, 1), 1.0)  # the count sees a construction
        assert built == [Detection]
        annotations, extent = default_scene
        run = run_pipeline(annotations, extent, PipelineConfig(), OracleDetector(annotations))
        write_detections(tmp_path / "dets.json", run.detections)
        assert len(run.detections) > 500 and built == [Detection]

    def test_patch_and_merged_batches_have_one_row_type(self, default_scene, default_run):
        annotations, _ = default_scene
        result = next(r for r in default_run.gaze_results if len(r.detections) > 1)
        patch_batch = OracleDetector(annotations).detect(result.normalized)
        assert patch_batch == result.detections
        rows = list(patch_batch)
        assert all(type(d) is Detection and d.source == -1 for d in rows)
        assert rows == [PatchDetection(d.bbox, 1.0, d.category) for d in rows]
        merged = default_run.detections
        assert all(type(d) is Detection for d in merged)
        assert [d.source for d in merged] == merged.sources.tolist() and merged.sources.min() >= 0
        for batch in (patch_batch, merged):
            assert Detections.of(list(batch)) == batch

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        dets = global_nms(random_detections(rng, 40))
        path = tmp_path / "dets.json"
        write_detections(path, dets)
        loaded = read_detections(path)
        assert len(loaded) == len(dets)
        for a, b in zip(loaded, dets):
            assert a.bbox == b.bbox
            assert a.score == b.score
            assert a.category == b.category

    def _write(self, tmp_path, rows):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(rows))
        return path

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"bbox": [0, 0, 5, 5], "score": 1.7}, "score 1.7 is outside"),
            ({"bbox": [0, 0, 5, 5], "score": -0.1}, "score -0.1 is outside"),
            ({"bbox": [0, 0, 5, 5], "score": float("nan")}, "score nan is outside"),
            ({"bbox": [float("nan"), 0, 5, 5], "score": 0.5}, "must be finite"),
            ({"bbox": [0, float("inf"), 5, 5], "score": 0.5}, "must be finite"),
            ({"bbox": [0, 0, 0, 5], "score": 0.5}, "must be positive"),
            ({"bbox": [0, 0, 5], "score": 0.5}, "not enough values"),
            ({"score": 0.5}, "'bbox'"),
        ],
    )
    def test_rejects_invalid_row_naming_its_index(self, tmp_path, bad, message):
        good = {"bbox": [1.0, 2.0, 3.0, 4.0], "score": 0.9, "category": 0}
        path = self._write(tmp_path, [good, good, bad])
        with pytest.raises(ValueError, match=f"^detection row 2: .*{re.escape(message)}"):
            read_detections(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([{"bbox": [0, 0, 0, 5], "score": 0.5}, {"bbox": [0, 0, 1, 1], "score": 1.5}],
             "0: box dimensions must be positive, got 0.0x5.0"),
            ([{"bbox": [0, 0, 0, 5], "score": 0.5}, {"score": 0.5}],
             "0: box dimensions must be positive, got 0.0x5.0"),
            ([{"bbox": [0, 0, 1, 1], "score": True}, {"bbox": [0, 0, 1], "score": 0.5}],
             "0: score must be a number, got True"),
        ],
        ids=["size-then-score", "size-then-missing-bbox", "score-then-short-bbox"],
    )
    def test_an_earlier_value_fault_is_named_first(self, tmp_path, rows, message):
        with pytest.raises(ValueError, match=f"^detection row {re.escape(message)}$"):
            read_detections(self._write(tmp_path, rows))

    def test_accepts_score_bounds(self, tmp_path):
        path = self._write(
            tmp_path, [{"bbox": [0, 0, 1, 1], "score": 0.0}, {"bbox": [0, 0, 1, 1], "score": 1}]
        )
        assert [d.score for d in read_detections(path)] == [0.0, 1.0]


# Faults a detection row can carry, one at a time: where it goes (a box
# index, "score" or "category") and the values that carry it.
ROW_FAULTS = {
    "box value": ((0, 1, 2, 3), (True, "1", None, 10**400)),
    "finite": ((0, 1, 2, 3), (math.nan, math.inf, -math.inf)),
    "size": ((2, 3), (0, 0.0, -0.0, -1.5)),
    "score value": (("score",), (True, False, "0.5")),
    "score range": (("score",), (math.nan, -0.1, 1.5, math.inf)),
    "category": (("category",), (2.5, True, 2**63)),
}


@st.composite
def fault_rows(draw):
    """One to six (bbox, score, category, size_only) rows, each good or
    carrying one fault of ROW_FAULTS; good values mix ints and floats."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {
            "bbox": [draw(st.one_of(st.integers(-50, 50), st.floats(-50, 50))) for _ in range(2)]
            + [draw(st.one_of(st.integers(1, 50), st.floats(0.25, 50))) for _ in range(2)],
            "score": draw(st.one_of(st.sampled_from([0, 1]), st.floats(0, 1))),
            "category": draw(st.integers(-(2**63), 2**63 - 1)),
        }
        fault = draw(st.sampled_from([None, *ROW_FAULTS]))
        if fault is not None:
            places, values = ROW_FAULTS[fault]
            place, value = draw(st.sampled_from(places)), draw(st.sampled_from(values))
            if place in row:
                row[place] = value
            else:
                row["bbox"][place] = value
        rows.append((row["bbox"], row["score"], row["category"], fault == "size"))
    return rows


def _outcome(make):
    """(make(), None), or (None, the message) when it raises ValueError."""
    try:
        return make(), None
    except ValueError as exc:
        return None, str(exc)


class TestOneRowRule:
    EXEC_PATCH = normalize(Patch(ScaleLevel.TINY, 0, 0, BoundingBox(0, 0, 100, 100), 1.0), (100, 100))

    @settings(max_examples=60, deadline=None)
    @given(fault_rows())
    def test_columns_files_and_exec_rows_name_the_same_fault(self, rows):
        batch, message = _outcome(lambda: Detections(*([r[k] for r in rows] for k in range(3))))
        # The exec clip drops a row whose only fault is its size.
        good_box = [1.0, 2.0, 3.0, 4.0]
        _, exec_expected = _outcome(
            lambda: Detections([good_box if r[3] else r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dets.json"
            path.write_text(json.dumps([{"bbox": b, "score": s, "category": c} for b, s, c, _ in rows]))
            read, read_message = _outcome(lambda: read_detections(path))
            assert read_message == message
            assert read == batch
            answer = Path(tmp) / "answer.json"
            answer.write_text(
                json.dumps([{"patch_id": 0, "bbox": b, "score": s, "category": c} for b, s, c, _ in rows])
            )
            # sh -c gets the answer file as $0, then the manifest and output paths.
            adapter = ExternalCommandDetector(["sh", "-c", 'cat "$0" > "$2"', str(answer)])
            try:
                adapter.detect_batch([self.EXEC_PATCH])
                exec_message = None
            except AdapterError as exc:
                exec_message = str(exc)
        if exec_expected is None:
            assert exec_message is None
        else:
            index, fault = exec_expected.removeprefix("detection row ").split(": ", 1)
            assert exec_message.startswith(f"malformed detection row {index} {{")
            assert exec_message.endswith(f": {fault}")
