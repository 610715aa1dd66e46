"""Map per-patch detections back to the original scale and merge them.

Overlapping patches see the same object more than once; after the inverse
normalization transform, greedy per-category NMS keeps the best-scoring
view. Output order is canonical, so merged results never depend on patch
processing order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    BoundingBox, SceneExtent, box_array, clip_corners, detection_row, json_list, json_number, overlap_pairs,
)
from .gaze import GazeResult, NormalizedPatch, PatchDetection

DEFAULT_NMS_IOU = 0.5


@dataclass(frozen=True)
class GlobalDetection:
    """A detection in original-image coordinates; source is the patch index."""

    bbox: BoundingBox
    score: float
    category: int = 0
    source: int = -1


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


def detection_columns(dets: list[GlobalDetection]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boxes (n, 4), scores, categories and sources of a detection list."""
    return (
        box_array(dets),
        np.array([d.score for d in dets], dtype=np.float64),
        np.array([d.category for d in dets], dtype=np.int64),
        np.array([d.source for d in dets], dtype=np.int64),
    )


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def _nms_keep(
    boxes: np.ndarray,
    scores: np.ndarray,
    categories: np.ndarray,
    sources: np.ndarray,
    iou_threshold: float,
) -> list[int]:
    """Rows that greedy NMS keeps, in canonical order.

    The canonical order is (score desc, x, y, source, width, height,
    category), stable for rows equal on all of them. A row's suppressors
    are the same-category rows ranked before it with IoU above the
    threshold. overlap_pairs yields them grouped by row (CSR order), so
    one pass in rank order settles each row before any row it could
    suppress: a row is dropped when one of its suppressors was kept.
    """
    ranked = np.lexsort(
        (categories, boxes[:, 3], boxes[:, 2], sources, boxes[:, 1], boxes[:, 0], -scores)
    )
    cat = categories[ranked]
    ranked_boxes = boxes[ranked]
    i, j, v = overlap_pairs(ranked_boxes, ranked_boxes, iou_threshold)
    hit = (j < i) & (v > iou_threshold) & (cat[i] == cat[j])
    kept = [True] * len(ranked)
    for row, suppressor in zip(i[hit].tolist(), j[hit].tolist()):
        if kept[suppressor]:
            kept[row] = False
    return [r for r, k in zip(ranked.tolist(), kept) if k]


def global_nms(dets: list[GlobalDetection], iou_threshold: float = DEFAULT_NMS_IOU) -> list[GlobalDetection]:
    """Greedy score-descending suppression per category.

    A box is dropped when it overlaps an already-kept box of the same
    category with IoU strictly above the threshold. Ties are broken by
    (score desc, x asc, y asc, source asc, width asc, height asc,
    category asc), so output is deterministic.
    """
    _check_threshold(iou_threshold)
    return [dets[r] for r in _nms_keep(*detection_columns(dets), iou_threshold)]


def _lift_and_clip(
    results: list[GazeResult], box: np.ndarray, sources: np.ndarray, extent: SceneExtent
) -> tuple[np.ndarray, np.ndarray]:
    """to_global then BoundingBox.clip on every patch-frame box row, whose
    result index is in sources, as arrays: the clipped (k, 4) boxes and
    the indices of the k rows that stay inside the scene."""
    zoom = np.array([r.normalized.zoom for r in results], dtype=np.float64)[sources]
    origin = np.array([(r.patch.region.x, r.patch.region.y) for r in results], dtype=np.float64)[sources]
    x, y = box[:, 0] / zoom + origin[:, 0], box[:, 1] / zoom + origin[:, 1]
    w, h = box[:, 2] / zoom, box[:, 3] / zoom
    lifted = np.stack([x, y, w, h], axis=1)
    invalid = np.flatnonzero(~(np.isfinite(lifted).all(axis=1) & (w > 0) & (h > 0)))
    if invalid.size:
        BoundingBox(*lifted[invalid[0]].tolist())  # raises to_global's ValueError
    # Every row is finite with positive size here, so no clipped size is NaN.
    return clip_corners(x, y, x + w, y + h, float(extent.width), float(extent.height))


def merge_run(
    results: list[GazeResult],
    extent: SceneExtent,
    iou_threshold: float = DEFAULT_NMS_IOU,
) -> list[GlobalDetection]:
    """Lift all patch detections to global coordinates, clip, and suppress.

    GlobalDetection objects are built only for the rows NMS keeps.
    """
    _check_threshold(iou_threshold)
    dets = [det for result in results for det in result.detections]
    if not dets:
        return []
    sources = np.repeat(np.arange(len(results)), [len(result.detections) for result in results])
    scores = np.array([det.score for det in dets], dtype=np.float64)
    categories = np.array([det.category for det in dets], dtype=np.int64)
    boxes, inside = _lift_and_clip(results, box_array(dets), sources, extent)
    kept = _nms_keep(boxes, scores[inside], categories[inside], sources[inside], iou_threshold)
    rows = inside[kept]
    return [
        GlobalDetection(BoundingBox(*box), dets[r].score, dets[r].category, source)
        for r, source, box in zip(rows.tolist(), sources[rows].tolist(), boxes[kept].tolist())
    ]


def write_detections(path: str | Path, dets: list[GlobalDetection]) -> None:
    """Write the final detections JSON (a list of bbox/score/category rows).

    The bytes are those of json.dump(rows, indent=1) plus a newline; the
    fixed row layout is written directly rather than through the
    pure-Python indenting encoder.
    """
    num = json_number
    rows = []
    for d in dets:
        b = d.bbox
        rows.append(
            ' {\n  "bbox": [\n   %s,\n   %s,\n   %s,\n   %s\n  ],\n  "score": %s,\n  "category": %s\n }'
            % (num(b.x), num(b.y), num(b.width), num(b.height), num(d.score), num(d.category))
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")


def read_detections(path: str | Path) -> list[GlobalDetection]:
    """Read a detections JSON written by write_detections (or compatible).

    Every row must pass core.detection_row and have a positive size; a
    row that does not raises ValueError naming its index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = json_list(json.load(fh), f"detections file {path}")
    dets = []
    for index, row in enumerate(rows):
        try:
            box, score, category = detection_row(row)
            dets.append(GlobalDetection(BoundingBox(*box), score, category))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"detection row {index}: {exc!s}") from exc
    return dets
