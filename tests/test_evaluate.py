import math
import tracemalloc

import numpy as np
import pytest

from densegaze.core import (
    Annotation,
    BoundingBox,
    EvalSizeBucket,
    ScaleLevel,
    SceneExtent,
    eval_size_bucket,
    iou,
)
from densegaze.density import render_gt_density
from densegaze.evaluate import (
    ApResult,
    EvalReport,
    _interpolated_ap,
    ap50,
    curve_csv,
    evaluate_detections,
    match_detections,
)
from densegaze.gaze import OracleDetector, default_standard_size, run_gaze
from densegaze.merge import GlobalDetection, merge_run
from densegaze.pipeline import (
    BudgetReport,
    compare_budgets,
    pixel_budget,
    sliding_window_patches,
    sliding_window_run,
)
from densegaze.saccade import saccade


def gt(x, y, w, h, gt_id=0, category=0):
    return Annotation(id=gt_id, bbox=BoundingBox(x, y, w, h), category=category)


def det(x, y, w, h, score, category=0):
    return GlobalDetection(bbox=BoundingBox(x, y, w, h), score=score, category=category)


def spread_gts(n, side=50.0):
    return [gt(200.0 * i, 100.0, side, side, gt_id=i) for i in range(n)]


def reference_match(dets, gts, iou_threshold=0.5):
    """Independent quadratic greedy matcher used as the oracle."""
    order = sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].bbox.x, dets[i].bbox.y,
                       dets[i].bbox.width, dets[i].bbox.height),
    )
    taken = [False] * len(gts)
    matches = []
    for di in order:
        best, best_iou = None, 0.0
        for gi, g in enumerate(gts):
            if taken[gi] or g.category != dets[di].category:
                continue
            overlap = iou(dets[di].bbox, g.bbox)
            if overlap >= iou_threshold and overlap > best_iou:
                best, best_iou = gi, overlap
        if best is not None:
            taken[best] = True
        matches.append(best)
    return order, matches


def reference_slice(dets, gts, order, matches, size_filter=None):
    """One AP slice of a reference match, object by object."""
    in_slice = [size_filter is None or eval_size_bucket(g.bbox) == size_filter for g in gts]
    flags = []
    for di, gi in zip(order, matches):
        if gi is not None:
            if in_slice[gi]:
                flags.append(True)
        elif size_filter is None or eval_size_bucket(dets[di].bbox) == size_filter:
            flags.append(False)
    tp = np.cumsum([1 if f else 0 for f in flags], dtype=np.float64)
    fp = np.cumsum([0 if f else 1 for f in flags], dtype=np.float64)
    gt_count = sum(in_slice)
    if gt_count == 0 or tp.size == 0:
        return ApResult(0.0, [], gt_count, int(tp[-1]) if tp.size else 0, int(fp[-1]) if fp.size else 0)
    recalls, precisions = tp / gt_count, tp / (tp + fp)
    return ApResult(
        _interpolated_ap(recalls, precisions),
        list(zip(recalls.tolist(), precisions.tolist())),
        gt_count,
        int(tp[-1]),
        int(fp[-1]),
    )


def reference_report(dets, gts):
    order, matches = reference_match(dets, gts)
    return EvalReport(
        *(reference_slice(dets, gts, order, matches, f)
          for f in (None, EvalSizeBucket.SMALL, EvalSizeBucket.MIDDLE, EvalSizeBucket.LARGE))
    )


class TestAp50:
    def test_perfect_detector(self):
        gts = spread_gts(10)
        dets = [det(g.bbox.x, g.bbox.y, g.bbox.width, g.bbox.height, 1.0) for g in gts]
        result = ap50(dets, gts)
        assert result.ap == 1.0
        assert result.matched == 10
        assert result.false_positives == 0

    def test_empty_detections(self):
        result = ap50([], spread_gts(5))
        assert result.ap == 0.0
        assert result.missed == 5

    def test_half_recall_hand_computed(self):
        # 10 gts; 5 exact matches at 0.9 and 5 spurious boxes at 0.1.
        # PR curve: precision 1.0 up to recall 0.5, then drops; the
        # 101-point interpolation gives 51/101.
        gts = spread_gts(10)
        dets = [det(g.bbox.x, g.bbox.y, g.bbox.width, g.bbox.height, 0.9) for g in gts[:5]]
        dets += [det(5000.0 + 200 * i, 3000.0, 50, 50, 0.1) for i in range(5)]
        result = ap50(dets, gts)
        assert result.ap == pytest.approx(51 / 101, abs=1e-12)
        assert result.ap == pytest.approx(0.5, abs=0.01)

    def test_score_rescale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gts = spread_gts(12)
            dets = []
            for i, g in enumerate(gts):
                if rng.random() < 0.7:
                    jx = float(rng.uniform(-5, 5))
                    dets.append(
                        det(g.bbox.x + jx, g.bbox.y, g.bbox.width, g.bbox.height,
                            float(rng.uniform(0.1, 0.9)))
                    )
            dets += [det(9000 + 100 * k, 9000, 40, 40, float(rng.uniform(0.1, 0.9)))
                     for k in range(4)]
            base = ap50(dets, gts).ap
            # Positive monotone rescale: ranking unchanged, AP unchanged.
            rescaled = [
                GlobalDetection(d.bbox, 0.05 + 0.9 * (d.score ** 3), d.category, d.source)
                for d in dets
            ]
            assert ap50(rescaled, gts).ap == pytest.approx(base, abs=1e-12)

    def test_duplicate_lower_score_never_increases_ap(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gts = spread_gts(8)
            dets = [
                det(g.bbox.x, g.bbox.y, g.bbox.width, g.bbox.height, float(rng.uniform(0.5, 1.0)))
                for g in gts[:6]
            ]
            base = ap50(dets, gts).ap
            dup_src = dets[0]
            dup = GlobalDetection(dup_src.bbox, dup_src.score * 0.5, dup_src.category, -1)
            assert ap50(dets + [dup], gts).ap <= base + 1e-12

    def test_matching_requires_same_category(self):
        gts = [gt(0, 0, 50, 50, category=1)]
        dets = [det(0, 0, 50, 50, 1.0, category=0)]
        assert ap50(dets, gts).matched == 0

    def test_matching_prefers_highest_iou(self):
        gts = [gt(0, 0, 100, 100, gt_id=0), gt(60, 0, 100, 100, gt_id=1)]
        dets = [det(55, 0, 100, 100, 1.0)]
        result = ap50(dets, gts)
        assert result.matched == 1
        # The detection overlaps gt 1 more than gt 0; gt 0 stays free.
        assert ap50(dets + [det(0, 0, 100, 100, 0.9)], gts).matched == 2


class TestAgainstReference:
    def _check(self, dets, gts):
        report = evaluate_detections(dets, gts)
        per_box = list(dets)  # the references index detections object by object
        expected = reference_report(per_box, gts)
        assert report.to_json_dict() == expected.to_json_dict()
        assert curve_csv(report.overall) == curve_csv(expected.overall)
        assert report == expected  # every slice's curve too
        assert match_detections(dets, gts) == reference_match(per_box, gts)

    def test_stock_scene(self, default_scene, default_run):
        self._check(default_run.detections, default_scene[0])

    def test_noisy_crowd(self, noisy_crowd):
        annotations, _, run = noisy_crowd
        self._check(run.detections, annotations)

    def test_equal_iou_goes_to_lowest_gt_index(self):
        # The detection overlaps both gts 9x10 (IoU 90/110); gt 0 wins.
        gts = [gt(0, 0, 10, 10, gt_id=0), gt(2, 0, 10, 10, gt_id=1)]
        dets = [det(1, 0, 10, 10, 0.9), det(1, 0, 10, 10, 0.8)]
        assert match_detections(dets, gts) == ([0, 1], [0, 1])
        assert match_detections(dets, gts[::-1]) == ([0, 1], [0, 1])
        duplicate_gts = [gt(1, 0, 10, 10, gt_id=k) for k in range(3)]
        assert match_detections(dets, duplicate_gts) == ([0, 1], [0, 1])
        self._check(dets, gts)

    def test_ties_duplicates_and_categories(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            gts = [
                gt(float(rng.integers(0, 40)) * 10, float(rng.integers(0, 40)) * 10,
                   float(rng.choice([30, 120, 320])), float(rng.choice([30, 120, 320])),
                   gt_id=k, category=int(rng.integers(2)))
                for k in range(25)
            ]
            dets = [
                det(g.bbox.x + float(rng.choice([0, 5, -5])), g.bbox.y, g.bbox.width, g.bbox.height,
                    float(rng.choice([0.3, 0.6, 0.9])), category=g.category)
                for g in gts if rng.random() < 0.8
            ]
            dets += dets[: trial % 4]  # exact duplicates compete for one gt
            self._check(dets, gts)


def test_merge_and_eval_memory_is_sparse(noisy_crowd):
    # A dense detections x ground-truth float64 matrix here is about 9.5 MB.
    annotations, extent, run = noisy_crowd
    tracemalloc.start()
    try:
        dets = merge_run(run.gaze_results, extent)
        evaluate_detections(dets, annotations)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dets == run.detections
    assert peak < 4_000_000


class TestSizeBuckets:
    def _mixed_scene(self):
        gts = [
            gt(0, 0, 50, 50, 0),          # small (2500 px)
            gt(500, 0, 150, 150, 1),      # middle
            gt(2000, 0, 400, 400, 2),     # large
        ]
        return gts

    def test_bucket_slices_perfect(self):
        gts = self._mixed_scene()
        dets = [det(g.bbox.x, g.bbox.y, g.bbox.width, g.bbox.height, 1.0) for g in gts]
        report = evaluate_detections(dets, gts)
        assert report.small.ap == 1.0 and report.small.gt_count == 1
        assert report.middle.ap == 1.0 and report.middle.gt_count == 1
        assert report.large.ap == 1.0 and report.large.gt_count == 1

    def test_ap50_is_the_overall_ap(self):
        gts = self._mixed_scene()
        report = evaluate_detections([det(0, 0, 50, 50, 1.0)], gts)
        assert report.ap50 == report.overall.ap > 0.0

    def test_bucket_matched_counts_sum_to_overall(self, default_run, default_scene):
        annotations, _ = default_scene
        report = evaluate_detections(default_run.detections, annotations)
        assert (
            report.small.matched + report.middle.matched + report.large.matched
            == report.overall.matched
        )
        assert report.small.gt_count + report.middle.gt_count + report.large.gt_count == len(
            annotations
        )

    def test_out_of_bucket_match_ignored(self):
        # A detection matched to a middle gt must not count in the small slice.
        gts = [gt(0, 0, 150, 150, 0)]
        dets = [det(0, 0, 150, 150, 1.0)]
        small = ap50(dets, gts, EvalSizeBucket.SMALL)
        assert small.gt_count == 0
        assert small.false_positives == 0

    def test_unmatched_det_fp_only_in_own_bucket(self):
        gts = [gt(0, 0, 50, 50, 0)]
        spurious_large = det(5000, 5000, 400, 400, 0.9)
        small = ap50([spurious_large], gts, EvalSizeBucket.SMALL)
        assert small.false_positives == 0
        large = ap50([spurious_large], gts, EvalSizeBucket.LARGE)
        assert large.false_positives == 1

    def test_curve_csv(self):
        gts = spread_gts(4)
        dets = [det(g.bbox.x, g.bbox.y, g.bbox.width, g.bbox.height, 1.0) for g in gts]
        text = curve_csv(ap50(dets, gts))
        lines = text.strip().splitlines()
        assert lines[0] == "recall,precision"
        assert len(lines) == 5


class TestSlidingWindow:
    def test_grid_16_gives_256_patches(self):
        patches = sliding_window_patches(SceneExtent(26368, 14976), 16)
        assert len(patches) == 256

    def test_rejects_a_grid_below_one(self):
        with pytest.raises(ValueError, match="^grid must be >= 1, got 0$"):
            sliding_window_patches(SceneExtent(1000, 1000), 0)

    @pytest.mark.parametrize("expansion", [math.nan, math.inf, 0.9])
    def test_rejects_an_expansion_the_config_refuses(self, expansion):
        with pytest.raises(ValueError, match=f"^expansion must be finite and >= 1, got {expansion}$"):
            sliding_window_patches(SceneExtent(1000, 1000), 4, expansion)

    def test_grid_8_gives_64_patches(self):
        patches = sliding_window_patches(SceneExtent(26368, 14976), 8)
        assert len(patches) == 64

    def test_cells_tile_scene(self):
        extent = SceneExtent(1003, 911)
        patches = sliding_window_patches(extent, 7, expansion=1.0)
        assert sum(p.region.area for p in patches) == pytest.approx(extent.area)

    def test_oracle_sw_is_near_perfect(self, crowd_scene):
        # Upper-bound reference: valid where objects fit the window.
        annotations, extent = crowd_scene
        adapter = OracleDetector(annotations)
        standard = default_standard_size(extent)
        dets, report = sliding_window_run(extent, 16, adapter, standard)
        result = ap50(dets, annotations)
        assert result.ap >= 0.99
        assert result.recall == 1.0
        assert report.patch_count == 256
        assert report.pixels_processed == 256 * standard[0] * standard[1]

    def test_sw16_recall_dominates_saccade_when_objects_fit(self, crowd_scene):
        # The domination claim holds when every object fits the expanded
        # window; giants taller than the window break it (no SW-16 view
        # can reach IoU 0.5 on them), which is the multi-scale argument.
        annotations, extent = crowd_scene
        adapter = OracleDetector(annotations)
        standard = default_standard_size(extent)
        sw_dets, _ = sliding_window_run(extent, 16, adapter, standard)
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        sac_dets = merge_run(run_gaze(patches, adapter, standard), extent)
        sw_recall = ap50(sw_dets, annotations).recall
        sac_recall = ap50(sac_dets, annotations).recall
        assert sw_recall >= sac_recall

    def test_multi_scale_beats_sw16_on_default_scene(self, default_scene, default_run):
        # Single-grid windows cannot reach IoU 0.5 on objects taller than
        # the expanded cell, so on the stock scene (with giants) the
        # multi-scale pipeline wins on both recall and AP.
        annotations, extent = default_scene
        adapter = OracleDetector(annotations)
        standard = default_standard_size(extent)
        sw_dets, _ = sliding_window_run(extent, 16, adapter, standard)
        sw = ap50(sw_dets, annotations)
        sac = ap50(default_run.detections, annotations)
        assert sac.recall >= sw.recall
        assert sac.ap >= sw.ap


class TestBudgets:
    def test_identical_runs_ratio_one(self):
        a = BudgetReport(pixels_processed=1000, patch_count=10)
        assert compare_budgets(a, a) == 1.0

    def test_constructed_26_cell_scene(self):
        # 26 of 256 tiny cells selected, nothing on other scales:
        # the budget ratio against SW-256 is exactly 256/26.
        extent = SceneExtent(16384, 16384)
        anns = []
        k = 0
        for iy in range(6):
            for ix in range(5):
                if k >= 26:
                    break
                cx = ix * 1024 + 2048 + 512
                cy = iy * 1024 + 2048 + 512
                anns.append(gt(cx - 50, cy - 100, 100, 200, k))
                k += 1
        dset = render_gt_density(anns, extent)
        patches = saccade(dset, extent=extent)
        tiny = [p for p in patches if p.scale is ScaleLevel.TINY]
        assert len(patches) == len(tiny) == 26
        standard = default_standard_size(extent)
        saccade_budget = BudgetReport(
            pixels_processed=pixel_budget(len(patches), standard), patch_count=len(patches)
        )
        sw_budget = BudgetReport(
            pixels_processed=pixel_budget(256, standard), patch_count=256
        )
        ratio = compare_budgets(saccade_budget, sw_budget)
        assert ratio == pytest.approx(256 / 26, rel=1e-12)
        assert ratio == pytest.approx(9.8, abs=0.1)

    def test_empty_selection_infinite_ratio(self):
        empty = BudgetReport(pixels_processed=0, patch_count=0)
        baseline = BudgetReport(pixels_processed=100, patch_count=1)
        ratio = compare_budgets(empty, baseline)
        assert math.isinf(ratio)
        payload = BudgetReport(
            pixels_processed=0, patch_count=0, baseline_name="sw", budget_ratio=ratio
        ).to_json_dict()
        assert payload["budget_ratio"] is None
        assert payload["budget_ratio_infinite"] is True

    def test_pixel_budget_arithmetic(self):
        assert pixel_budget(3, (1200, 1200)) == 4_320_000
