"""COCO-style AP50 evaluation of detections against ground truth.

Evaluation always happens in original-image coordinates. AP uses greedy
score-ordered matching at IoU >= 0.5 with one match per ground-truth box
and 101-point interpolation; size-bucketed AP follows the COCO area-range
convention (out-of-bucket matches are ignored, unmatched detections count
as false positives only in their own size bucket).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    EVAL_LARGE_AREA,
    EVAL_SMALL_AREA,
    Annotation,
    Annotations,
    Detections,
    EvalSizeBucket,
    GlobalDetection,
    overlap_pairs,
    rank,
)

MATCH_IOU = 0.5
_RECALL_SAMPLES = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class ApResult:
    """AP for one evaluation slice plus its raw precision-recall points."""

    ap: float
    curve: list[tuple[float, float]]
    gt_count: int
    matched: int
    false_positives: int

    @property
    def missed(self) -> int:
        return self.gt_count - self.matched

    @property
    def recall(self) -> float:
        return self.matched / self.gt_count if self.gt_count else 0.0


@dataclass(frozen=True)
class EvalReport:
    """AP50 overall and per size bucket, with match bookkeeping."""

    overall: ApResult
    small: ApResult
    middle: ApResult
    large: ApResult

    @property
    def ap50(self) -> float:
        return self.overall.ap

    def _named_slices(self) -> list[tuple[str, ApResult]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def to_json_dict(self) -> dict:
        return {
            name: {
                "ap50": r.ap,
                "gt_count": r.gt_count,
                "matched": r.matched,
                "false_positives": r.false_positives,
                "missed": r.missed,
                "recall": r.recall,
            }
            for name, r in self._named_slices()
        }

    def to_table(self) -> str:
        return format_table(
            [("slice", "ap50", "gts", "matched", "fps", "missed")]
            + [
                (name, f"{r.ap:.4f}", str(r.gt_count), str(r.matched), str(r.false_positives), str(r.missed))
                for name, r in self._named_slices()
            ]
        )


def format_table(rows: list[tuple[str, ...]]) -> str:
    """Rows of cells as left-justified columns two spaces apart."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


def _sorted_order(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Ranking for matching: score desc, then x, y, width, height; stable.
    rank takes one stable argsort of the scores when no two are equal, and
    the full lexsort when some are (as the oracle's 1.0s are)."""
    return rank((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], -scores))


def _match(
    dets: Detections, gt_boxes: np.ndarray, gt_categories: np.ndarray, iou_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy matching in score order: each detection takes the free
    same-category ground truth with the highest IoU at or above threshold,
    the lowest gt index on equal IoU.

    Returns the detection order and the matched gt index per ordered
    detection (-1 for none).
    """
    order = _sorted_order(dets.boxes, dets.scores)
    i, j, v = overlap_pairs(dets.boxes[order], gt_boxes, iou_threshold)
    # IoU 0.0 never matches, even at a threshold of 0.
    ok = (v > 0.0) & (dets.categories[order][i] == gt_categories[j])
    i, j, v = i[ok], j[ok], v[ok]
    # Pairs arrive (i, j)-ordered, so a stable sort on (i, -v) keeps j ascending.
    preference = np.lexsort((-v, i))
    match = [-1] * len(order)
    taken = [False] * len(gt_boxes)
    for di, gi in zip(i[preference].tolist(), j[preference].tolist()):
        if match[di] < 0 and not taken[gi]:
            match[di] = gi
            taken[gi] = True
    return order, np.array(match, dtype=np.int64)


def match_detections(
    dets: Detections | list[GlobalDetection],
    gts: list[Annotation],
    iou_threshold: float = MATCH_IOU,
) -> tuple[list[int], list[int | None]]:
    """Greedy matching in score order: each detection takes the free
    same-category ground truth with the highest IoU at or above threshold.

    Returns (detection order, matched gt index per ordered detection).
    """
    gts = Annotations.of(gts)
    order, match = _match(Detections.of(dets), gts.boxes, gts.categories, iou_threshold)
    return order.tolist(), [None if gi < 0 else gi for gi in match.tolist()]


def _interpolated_ap(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """101-point interpolated AP from cumulative recall/precision points
    (at least one)."""
    # Precision envelope: best precision achievable at or beyond each recall.
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, _RECALL_SAMPLES, side="left")
    sampled = np.where(idx < len(recalls), envelope[np.minimum(idx, len(recalls) - 1)], 0.0)
    return float(sampled.mean())


_BUCKETS = list(EvalSizeBucket)


def _size_buckets(boxes: np.ndarray) -> np.ndarray:
    """eval_size_bucket of every (x, y, w, h) row, as an index into _BUCKETS."""
    area = boxes[:, 2] * boxes[:, 3]
    return (area >= EVAL_SMALL_AREA).astype(np.int64) + (area >= EVAL_LARGE_AREA)


def _slice_ap(
    match: np.ndarray,
    det_bucket: np.ndarray,
    gt_bucket: np.ndarray,
    size_filter: EvalSizeBucket | None,
) -> ApResult:
    """AP of one slice of a match vector (see the module docstring)."""
    if size_filter is None:
        in_slice = np.ones(len(gt_bucket), dtype=bool)
        det_in_slice = np.ones(len(det_bucket), dtype=bool)
    else:
        code = _BUCKETS.index(size_filter)
        in_slice = gt_bucket == code
        det_in_slice = det_bucket == code
    gt_count = int(in_slice.sum())
    matched = match >= 0
    # A matched detection counts only when its gt is in the slice (the
    # appended False serves match == -1); an unmatched one only when it
    # is itself in the slice's size bucket.
    counted = np.where(matched, np.append(in_slice, False)[match], det_in_slice)
    tp_flags = matched[counted]

    tp = np.cumsum(tp_flags, dtype=np.float64)
    fp = np.cumsum(~tp_flags, dtype=np.float64)
    if gt_count == 0 or tp.size == 0:
        matched_count = int(tp[-1]) if tp.size else 0
        fps = int(fp[-1]) if fp.size else 0
        return ApResult(ap=0.0, curve=[], gt_count=gt_count, matched=matched_count, false_positives=fps)
    recalls = tp / gt_count
    precisions = tp / (tp + fp)
    curve = list(zip(recalls.tolist(), precisions.tolist()))
    return ApResult(
        ap=_interpolated_ap(recalls, precisions),
        curve=curve,
        gt_count=gt_count,
        matched=int(tp[-1]),
        false_positives=int(fp[-1]),
    )


def _slices(
    dets: Detections | list[GlobalDetection],
    gts: list[Annotation],
    size_filters: tuple[EvalSizeBucket | None, ...],
) -> list[ApResult]:
    """Match once at IoU 0.5, then take every requested slice."""
    dets, gts = Detections.of(dets), Annotations.of(gts)
    order, match = _match(dets, gts.boxes, gts.categories, MATCH_IOU)
    det_bucket, gt_bucket = _size_buckets(dets.boxes[order]), _size_buckets(gts.boxes)
    return [_slice_ap(match, det_bucket, gt_bucket, f) for f in size_filters]


def ap50(
    dets: Detections | list[GlobalDetection],
    gts: list[Annotation],
    size_filter: EvalSizeBucket | None = None,
) -> ApResult:
    """AP at IoU 0.5, optionally restricted to one size bucket of ground truth."""
    return _slices(dets, gts, (size_filter,))[0]


def evaluate_detections(dets: Detections | list[GlobalDetection], gts: list[Annotation]) -> EvalReport:
    """Full report: overall AP50 plus the three size-bucket slices, from one match."""
    overall, small, middle, large = _slices(
        dets, gts, (None, EvalSizeBucket.SMALL, EvalSizeBucket.MIDDLE, EvalSizeBucket.LARGE)
    )
    return EvalReport(overall=overall, small=small, middle=middle, large=large)


def curve_csv(result: ApResult) -> str:
    """Precision-recall samples as CSV for plotting."""
    lines = ["recall,precision"]
    lines.extend(f"{r:.6f},{p:.6f}" for r, p in result.curve)
    return "\n".join(lines) + "\n"

