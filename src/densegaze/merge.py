"""Map per-patch detections back to the original scale and merge them.

Overlapping patches see the same object more than once; after the inverse
normalization transform, greedy per-category NMS keeps the best-scoring
view. Output order is canonical, so merged results never depend on patch
processing order. Detections stay in columns throughout: the merge, the
detections file writer and its reader build no per-box objects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import (
    BoundingBox, Detections, GlobalDetection, PatchDetection, SceneExtent, clip_corners, json_list, overlap_pairs,
)
from .gaze import GazeResult, NormalizedPatch

DEFAULT_NMS_IOU = 0.5


def to_global(det: PatchDetection, np_patch: NormalizedPatch, source: int = -1) -> GlobalDetection:
    """Invert the normalization transform: divide by zoom, shift by patch origin."""
    b = det.bbox
    x, y = np_patch.to_scene(b.x, b.y)
    return GlobalDetection(
        bbox=BoundingBox(x, y, b.width / np_patch.zoom, b.height / np_patch.zoom),
        score=det.score,
        category=det.category,
        source=source,
    )


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def _nms_keep(dets: Detections, iou_threshold: float) -> np.ndarray:
    """Rows that greedy NMS keeps, in canonical order.

    The canonical order is (score desc, x, y, source, width, height,
    category), stable for rows equal on all of them. A row's suppressors
    are the same-category rows ranked before it with IoU above the
    threshold. overlap_pairs yields them grouped by row (CSR order), so
    one pass in rank order settles each row before any row it could
    suppress: a row is dropped when one of its suppressors was kept.
    """
    boxes, categories = dets.boxes, dets.categories
    ranked = np.lexsort(
        (categories, boxes[:, 3], boxes[:, 2], dets.sources, boxes[:, 1], boxes[:, 0], -dets.scores)
    )
    cat = categories[ranked]
    ranked_boxes = boxes[ranked]
    i, j, v = overlap_pairs(ranked_boxes, ranked_boxes, iou_threshold)
    hit = (j < i) & (v > iou_threshold) & (cat[i] == cat[j])
    kept = [True] * len(ranked)
    for row, suppressor in zip(i[hit].tolist(), j[hit].tolist()):
        if kept[suppressor]:
            kept[row] = False
    return ranked[np.array(kept, dtype=bool)]


def global_nms(dets: list[GlobalDetection], iou_threshold: float = DEFAULT_NMS_IOU) -> list[GlobalDetection]:
    """Greedy score-descending suppression per category.

    A box is dropped when it overlaps an already-kept box of the same
    category with IoU strictly above the threshold. Ties are broken by
    (score desc, x asc, y asc, source asc, width asc, height asc,
    category asc), so output is deterministic.
    """
    _check_threshold(iou_threshold)
    return [dets[r] for r in _nms_keep(Detections.of(dets), iou_threshold).tolist()]


def _lift_and_clip(
    results: list[GazeResult], box: np.ndarray, sources: np.ndarray, extent: SceneExtent
) -> tuple[np.ndarray, np.ndarray]:
    """to_global then BoundingBox.clip on every patch-frame box row, whose
    result index is in sources, as arrays: the clipped (k, 4) boxes and
    the indices of the k rows left with a positive size. The clip bounds
    or drops a lift that overflows; a NaN corner is left to the caller's
    Detections check."""
    zoom = np.array([r.normalized.zoom for r in results], dtype=np.float64)[sources]
    origin = np.array([(r.patch.region.x, r.patch.region.y) for r in results], dtype=np.float64)[sources]
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = box[:, 0] / zoom + origin[:, 0], box[:, 1] / zoom + origin[:, 1]
        x1, y1 = x + box[:, 2] / zoom, y + box[:, 3] / zoom
        return clip_corners(x, y, x1, y1, float(extent.width), float(extent.height))


def merge_run(
    results: list[GazeResult],
    extent: SceneExtent,
    iou_threshold: float = DEFAULT_NMS_IOU,
) -> Detections:
    """Lift all patch detections to global coordinates, clip, and suppress.

    The result's sources are the indices of the results the kept rows
    came from.
    """
    _check_threshold(iou_threshold)
    if not results:
        return Detections([], [], [])
    batches = [result.detections for result in results]
    sources = np.repeat(np.arange(len(results)), [len(b) for b in batches])
    scores = np.concatenate([b.scores for b in batches])
    categories = np.concatenate([b.categories for b in batches])
    boxes, inside = _lift_and_clip(results, np.concatenate([b.boxes for b in batches]), sources, extent)
    lifted = Detections(boxes, scores[inside], categories[inside], sources[inside])
    return lifted.take(_nms_keep(lifted, iou_threshold))


# One detections-file row in json.dump(rows, indent=1)'s layout.
_ROW = ' {\n  "bbox": [\n   %s,\n   %s,\n   %s,\n   %s\n  ],\n  "score": %s,\n  "category": %s\n }'


def write_detections(path: str | Path, dets: Detections | list[GlobalDetection]) -> None:
    """Write the final detections JSON (a list of bbox/score/category rows).

    The bytes are those of json.dump(rows, indent=1) plus a newline; the
    fixed row layout is written directly rather than through the
    pure-Python indenting encoder. Every input is written from the
    columns of Detections.of(dets), whose values are finite
    floats and ints that str spells as json does. A list row that
    read_detections would reject raises the batch's "detection row i"
    ValueError before the file is opened.
    """
    dets = Detections.of(dets)
    x, y, w, h = dets.boxes.T.tolist()
    text = ",\n".join([_ROW % row for row in zip(x, y, w, h, dets.scores.tolist(), dets.categories.tolist())])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + text + "\n]\n" if text else "[]\n")


def read_detections(path: str | Path) -> Detections:
    """Read a detections JSON written by write_detections (or compatible).

    Each row's bbox, score and category (default 0) go to Detections as
    read, which checks them once. A missing field or a bbox that is not
    four values raises ValueError naming its row, after earlier rows pass.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = json_list(json.load(fh), f"detections file {path}")
    boxes, scores, categories = [], [], []
    for index, row in enumerate(rows):
        try:
            x, y, w, h = row["bbox"]
            scores.append(row["score"])
        except (KeyError, TypeError, ValueError) as exc:
            Detections(boxes, scores, categories)  # an earlier row's fault is named first
            raise ValueError(f"detection row {index}: {exc!s}") from exc
        boxes.append((x, y, w, h))
        categories.append(row.get("category", 0))
    return Detections(boxes, scores, categories)
