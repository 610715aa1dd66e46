"""Geometry primitives, scale buckets, detections, and the annotation
interchange format.

Everything here is an immutable value type; instances are safe to share
across threads without coordination.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import chain
from pathlib import Path

import numpy as np

DEFAULT_SCALE_BOUNDARIES = (800.0, 1600.0, 3200.0)

# Pixel-area cutoffs for the evaluation size buckets (96x96 and 288x288).
EVAL_SMALL_AREA = 96.0 * 96.0
EVAL_LARGE_AREA = 288.0 * 288.0


class ConfigError(ValueError):
    """Invalid configuration value, file, or key, or one the input cannot meet."""


class ScaleLevel(IntEnum):
    """Coarse object-size bucket routing objects to density maps and grids.

    Total order: TINY < SMALL < MIDDLE < LARGE.
    """

    TINY = 0
    SMALL = 1
    MIDDLE = 2
    LARGE = 3

    @property
    def label(self) -> str:
        return self.name.lower()


class EvalSizeBucket(Enum):
    """Size buckets for evaluation reporting (area-based, unlike ScaleLevel)."""

    SMALL = "small"
    MIDDLE = "middle"
    LARGE = "large"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box as (left, top, width, height) in pixels.

    The coordinate frame (global image vs. patch) is tracked by context;
    a single collection never mixes frames. Each value is a finite
    json_float number (a ValueError names the field), stored as given.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "width", "height"):
            v = getattr(self, name)
            if not math.isfinite(v if type(v) is float else json_float(v, f"BoundingBox.{name}")):
                raise ValueError(f"BoundingBox.{name} must be finite, got {v!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"BoundingBox dimensions must be positive, got {self.width}x{self.height}")

    @property
    def right(self) -> float:
        return self.x + self.width

    @property
    def bottom(self) -> float:
        return self.y + self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def max_side(self) -> float:
        return max(self.width, self.height)

    def clip(self, extent: "SceneExtent") -> "BoundingBox | None":
        """Intersect with the scene; None when the box lies fully outside."""
        x0 = max(self.x, 0.0)
        y0 = max(self.y, 0.0)
        x1 = min(self.right, float(extent.width))
        y1 = min(self.bottom, float(extent.height))
        if x1 - x0 <= 0 or y1 - y0 <= 0:
            return None
        return BoundingBox(x0, y0, x1 - x0, y1 - y0)


@dataclass(frozen=True)
class Annotation:
    """A labeled object: unique id, global-frame box, integer category."""

    id: int
    bbox: BoundingBox
    category: int = 0


@dataclass(frozen=True)
class SceneExtent:
    """Scene dimensions in original-image pixels."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if not (0 < self.width <= sys.float_info.max and 0 < self.height <= sys.float_info.max):
            raise ValueError(f"SceneExtent must be positive and fit a float, got {self.width}x{self.height}")

    @property
    def area(self) -> float:
        return float(self.width) * float(self.height)


def box_array(items) -> np.ndarray:
    """The (n, 4) float64 x, y, width, height of every item's .bbox."""
    # One pass with no per-item tuples: the array is all this allocates.
    values = chain.from_iterable((b.x, b.y, b.width, b.height) for b in (item.bbox for item in items))
    return np.fromiter(values, dtype=np.float64, count=4 * len(items)).reshape(-1, 4)


def clip_corners(x0, y0, x1, y1, width, height) -> tuple[np.ndarray, np.ndarray]:
    """BoundingBox.clip on arrays of corners, to a width x height frame at
    the origin (one frame for all rows, or one per row): the (k, 4) boxes
    not left with width or height <= 0, and their row indices. The
    comparisons are those of max(v, 0.0) and min(v, edge), which keep v on
    ties, so -0.0 stays -0.0."""
    x0, y0 = np.where(0.0 > x0, 0.0, x0), np.where(0.0 > y0, 0.0, y0)
    x1, y1 = np.where(width < x1, width, x1), np.where(height < y1, height, y1)
    w, h = x1 - x0, y1 - y0
    rows = np.flatnonzero(~((w <= 0) | (h <= 0)))
    return np.stack([x0, y0, w, h], axis=1)[rows], rows


@dataclass(frozen=True, eq=False)
class Annotations(Sequence):
    """Ground truth as columns: (n, 4) float64 x, y, width, height, int64
    categories and a list of int ids (an id need not fit int64). Its items
    are Annotation objects, built when asked for; it equals a list or
    tuple of equal Annotations."""

    boxes: np.ndarray
    categories: np.ndarray
    ids: list

    @classmethod
    def of(cls, annotations) -> "Annotations":
        """annotations when it is an Annotations, else the columns of a list of Annotation objects."""
        if isinstance(annotations, Annotations):
            return annotations
        categories = np.array([a.category for a in annotations], dtype=np.int64)
        return cls(box_array(annotations), categories, [a.id for a in annotations])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(Annotation, self.ids, (BoundingBox(*box) for box in self.boxes.tolist()), self.categories.tolist())

    def __getitem__(self, index: int) -> Annotation:
        r = range(len(self))[operator.index(index)]
        return Annotation(self.ids[r], BoundingBox(*self.boxes[r].tolist()), self.categories[r].item())

    def __eq__(self, other) -> bool:
        return isinstance(other, (Annotations, list, tuple)) and list(self) == list(other)


@dataclass(frozen=True)
class Detection:
    """A scored box, its category and source (the index of its patch, -1
    when unknown), in a frame tracked by context as BoundingBox's is; the
    gaze and merge stages name it PatchDetection and GlobalDetection."""

    bbox: BoundingBox
    score: float
    category: int = 0
    source: int = -1


PatchDetection = GlobalDetection = Detection


def _column(values, dtype, shape=(-1,)) -> np.ndarray | list:
    """values as a dtype array of the given shape if it is a plain column: an
    ndarray of a non-bool dtype that casts safely to dtype, or a list (of
    rows, for boxes) of only ints, and floats unless dtype is int64, that
    converts to that shape without overflow. Else the list of what it holds."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind != "b" and np.can_cast(values.dtype, dtype):
            return values.astype(dtype, copy=False).reshape(shape)
        return values.tolist()
    plain = {int} if dtype is np.int64 else {int, float}
    if set(map(type, chain.from_iterable(values) if len(shape) > 1 else values)) <= plain:
        try:
            return np.asarray(values, dtype).reshape(shape)
        except (OverflowError, ValueError):
            pass
    return list(values)


@dataclass(frozen=True, eq=False)
class Detections:
    """Scored boxes as columns: (n, 4) float64 x, y, width, height, float64
    scores, and int64 categories and sources (-1 when unknown); its rows
    are Detection objects. Every row meets detection_row's rules, checked
    once per batch; the ValueError names the first failing row and gives
    detection_row's message for it. A batch of plain columns (_column)
    costs a dtype or type test and one array screen, and only the first row
    the screen flags meets detection_row; any other batch, such as one with
    a bool in a list, meets detection_row row by row."""

    boxes: np.ndarray
    scores: np.ndarray
    categories: np.ndarray
    sources: np.ndarray | None = None

    def __post_init__(self) -> None:
        columns = [_column(self.boxes, np.float64, (-1, 4)), _column(self.scores, np.float64),
                   _column(self.categories, np.int64)]
        n = len(columns[0])
        sources = np.asarray(np.full(n, -1) if self.sources is None else self.sources, np.int64).reshape(-1)
        for name, column in zip(("scores", "categories", "sources"), (*columns[1:], sources)):
            if len(column) != n:
                raise ValueError(f"{len(column)} {name} for {n} boxes")
        rows = range(n)
        if all(isinstance(c, np.ndarray) for c in columns):
            boxes, scores, _ = columns
            w, h = boxes[:, 2:].T
            screen = np.isfinite(boxes).all(axis=1) & (w > 0) & (h > 0) & (scores >= 0.0) & (scores <= 1.0)
            rows = np.flatnonzero(~screen)[:1].tolist()
        for r in rows:
            try:
                detection_row(*(c[r] for c in columns))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"detection row {r}: {exc}") from exc
        boxes, scores, categories = (np.asarray(c, t) for c, t in zip(columns, (np.float64, np.float64, np.int64)))
        named = {"boxes": boxes.reshape(-1, 4), "scores": scores, "categories": categories, "sources": sources}
        for name, column in named.items():
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, dets) -> "Detections":
        """dets when it is a Detections, else the columns of a sequence of
        Detection objects (a missing source reads -1)."""
        if isinstance(dets, Detections):
            return dets
        dets = list(dets)
        scores, categories = [d.score for d in dets], [d.category for d in dets]
        return cls(box_array(dets), scores, categories, [getattr(d, "source", -1) for d in dets])

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.boxes, self.scores, self.categories, self.sources

    def take(self, rows) -> "Detections":
        """The batch of the given rows (indices or a boolean mask), in order."""
        return Detections(*(c[rows] for c in self._columns()))

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return (Detection(BoundingBox(*box), *row) for box, *row in zip(*(c.tolist() for c in self._columns())))

    def __getitem__(self, index: int) -> Detection:
        r = range(len(self))[operator.index(index)]
        box, *row = (c[r].tolist() for c in self._columns())
        return Detection(BoundingBox(*box), *row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Detections) and all(
            np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())
        )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0.0 when disjoint."""
    if a == b:
        return 1.0
    ix0 = max(a.x, b.x)
    iy0 = max(a.y, b.y)
    ix1 = min(a.right, b.right)
    iy1 = min(a.bottom, b.bottom)
    # Cap by the box extents: rounding of right/bottom at large coordinates
    # must never let the intersection exceed either box.
    iw = min(ix1 - ix0, a.width, b.width)
    ih = min(iy1 - iy0, a.height, b.height)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


# Candidate pairs examined per step of overlap_pairs; bounds its working
# memory whatever the scene's shape.
_SWEEP_CHUNK = 1 << 12


def _range_chunks(lo: np.ndarray, hi: np.ndarray):
    """(row, position) for every lo[row] <= position < hi[row], in row
    order, yielded in pieces of about _SWEEP_CHUNK pairs."""
    counts = hi - lo
    ends = np.cumsum(counts)
    row = 0
    while row < len(lo):
        limit = ends[row] - counts[row] + _SWEEP_CHUNK
        stop = max(int(np.searchsorted(ends, limit, side="right")), row + 1)
        c = counts[row:stop]
        rows = np.repeat(np.arange(row, stop), c)
        yield rows, np.arange(len(rows)) + np.repeat(lo[row:stop] - (np.cumsum(c) - c), c)
        row = stop


def overlap_pairs(
    a: np.ndarray, b: np.ndarray, min_iou: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of boxes a[i], b[j] that overlaps with IoU >= min_iou.

    a and b are (n, 4) and (m, 4) float64 arrays of x, y, width, height.
    Returns int64 arrays i and j and a float64 array of IoUs, ordered by
    (i, j). With min_iou = 0 these are exactly the pairs for which
    iou(a[i], b[j]) is not 0.0 by its extent test; every value is the one
    iou gives, bit for bit (same rounding of right/bottom, extent caps,
    union order and a == b shortcut).

    Boxes are swept in x order: a pair overlaps in x only if b starts in
    [a.x, a.right] or a starts in (b.x, b.right], so each box's partners
    are one range of the other side sorted by x. The ranges are examined
    in fixed-size chunks; memory is O(n + m + pairs), with no n x m matrix.
    A self-join (b is a) runs the first sweep only: the second would find
    the mirror of each of its pairs whose partner starts strictly later.
    """
    self_join = b is a
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    a_right, a_bottom, b_right, b_bottom = ax + aw, ay + ah, bx + bw, by + bh
    b_by_x = np.argsort(bx, kind="stable")
    b_x = bx[b_by_x]
    # IoU >= t gives I >= t * max(A, B) with I <= iw * min(ah, bh), so iw >=
    # t * max(aw, bw): b starts within (1 - t) * aw of a.x, or a within
    # (1 - t) * bw of b.x. A range closes there plus a margin far above the
    # rounding of right, iw and IoU, but not past right, or at right for a
    # side under 1e-145 (its area rounds in absolute terms). It still holds
    # x, so equal boxes whose right rounds onto x reach the a == b shortcut.
    slack = min(1.0, max(0.0, 1.0 - min_iou))

    def reach(x, w, h, right):
        window = np.minimum(x + slack * w + 1e-9 * (np.abs(x) + w), right)
        return np.where(np.minimum(w, h) >= 1e-145, window, right)

    sweeps = [
        (False, b_by_x, np.searchsorted(b_x, ax, "left"), np.searchsorted(b_x, reach(ax, aw, ah, a_right), "right")),
    ]
    if not self_join:
        a_by_x = np.argsort(ax, kind="stable")
        a_x = ax[a_by_x]
        sweeps.append(
            (True, a_by_x, np.searchsorted(a_x, bx, "right"), np.searchsorted(a_x, reach(bx, bw, bh, b_right), "right"))
        )
    parts_i, parts_j, parts_v = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for swapped, by_x, lo, hi in sweeps:
        for rows, pos in _range_chunks(lo, hi):
            i, j = (by_x[pos], rows) if swapped else (rows, by_x[pos])
            near = (by[j] <= a_bottom[i]) & (ay[i] <= b_bottom[j])
            i, j = i[near], j[near]
            iw = np.minimum(
                np.minimum(a_right[i], b_right[j]) - np.maximum(ax[i], bx[j]),
                np.minimum(aw[i], bw[j]),
            )
            ih = np.minimum(
                np.minimum(a_bottom[i], b_bottom[j]) - np.maximum(ay[i], by[j]),
                np.minimum(ah[i], bh[j]),
            )
            same = (ax[i] == bx[j]) & (ay[i] == by[j]) & (aw[i] == bw[j]) & (ah[i] == bh[j])
            hit = ((iw > 0) & (ih > 0)) | same
            i, j, iw, ih, same = i[hit], j[hit], iw[hit], ih[hit], same[hit]
            inter = iw * ih
            v = np.where(same, 1.0, inter / ((aw[i] * ah[i] + bw[j] * bh[j]) - inter))
            keep = v >= min_iou
            parts_i.append(i[keep])
            parts_j.append(j[keep])
            parts_v.append(v[keep])
    i, j, v = np.concatenate(parts_i), np.concatenate(parts_j), np.concatenate(parts_v)
    if self_join:
        # Every term of v commutes in a and b, so the mirror's IoU is v's bits.
        later = bx[j] > ax[i]
        i, j, v = np.concatenate((i, j[later])), np.concatenate((j, i[later])), np.concatenate((v, v[later]))
    order = np.lexsort((j, i))
    return i[order], j[order], v[order]


def scale_bucket(
    box: BoundingBox,
    boundaries: tuple[float, float, float] = DEFAULT_SCALE_BOUNDARIES,
) -> ScaleLevel:
    """Bucket a box by its longest side against three increasing thresholds."""
    b0, b1, b2 = boundaries
    if not (b0 < b1 < b2):
        raise ValueError(f"scale boundaries must be strictly increasing, got {boundaries}")
    side = box.max_side
    if side < b0:
        return ScaleLevel.TINY
    if side < b1:
        return ScaleLevel.SMALL
    if side < b2:
        return ScaleLevel.MIDDLE
    return ScaleLevel.LARGE


def eval_size_bucket(box: BoundingBox) -> EvalSizeBucket:
    """Bucket a box by pixel area for evaluation reporting."""
    area = box.area
    if area < EVAL_SMALL_AREA:
        return EvalSizeBucket.SMALL
    if area < EVAL_LARGE_AREA:
        return EvalSizeBucket.MIDDLE
    return EvalSizeBucket.LARGE


def json_int(v, what: str) -> int:
    """A JSON integer field as a Python int: an integral number that is not
    a bool (numbers.Integral, so numpy integers pass), or a float with no
    fractional part; anything else raises ValueError naming the field."""
    # Plain ints skip the numbers ABC check, which costs about 1 us a call.
    if type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{what} must be an integer, got {v!r}")


def json_float(v, what: str) -> float:
    """A JSON number field as a float: a real number that is not a bool
    (numbers.Real, so numpy floats pass); anything else, or an int beyond
    float range, raises ValueError naming the field."""
    if type(v) is float:
        return v
    if type(v) is int or isinstance(v, numbers.Real) and not isinstance(v, bool):  # as in json_int
        try:
            return float(v)
        except OverflowError:
            raise ValueError(f"{what} {v} is outside float range") from None
    raise ValueError(f"{what} must be a number, got {v!r}")


def json_list(doc, what: str) -> list:
    """doc, which must be a JSON list; anything else raises ValueError."""
    if not isinstance(doc, list):
        raise ValueError(f"{what} must hold a JSON list")
    return doc


def json_category(v, what: str = "category") -> int:
    """A json_int category that fits the int64 columns it is kept in."""
    category = json_int(v, what)
    if not -(2**63) <= category < 2**63:
        raise ValueError(f"{what} {category} is outside int64")
    return category


def detection_row(box, score, category=0, sized: bool = True) -> None:
    """Check one detection row in this order: four json_float box values,
    all finite, a positive width and height (unless sized is False), a
    json_float score in [0, 1], a json_category. The first fault raises
    ValueError (TypeError or ValueError if box does not unpack to four)."""
    x, y, w, h = (json_float(v, "bbox value") for v in box)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
        raise ValueError("bbox values must be finite")
    if sized and not (w > 0 and h > 0):
        raise ValueError(f"box dimensions must be positive, got {w}x{h}")
    score = json_float(score, "score")
    if not 0.0 <= score <= 1.0:  # also rejects NaN
        raise ValueError(f"score {score} is outside [0, 1]")
    json_category(category)


def _clipped_entry(seen: set[int], ann_id: int, x: float, y: float, w: float, h: float, extent, path):
    """load_scene's rules for an entry's id, which joins seen, and box: a
    duplicate id or a box entirely outside the scene raises ValueError. The
    box clipped into the scene if it crosses an edge, else None: clipping
    can move the width by an ulp, so a box inside is kept as read."""
    if ann_id in seen:
        raise ValueError(f"duplicate annotation id {ann_id} in {path}")
    seen.add(ann_id)
    if x >= 0.0 and y >= 0.0 and x + w <= extent.width and y + h <= extent.height:
        return None
    box = BoundingBox(x, y, w, h).clip(extent)
    if box is None:
        raise ValueError(f"annotation {ann_id} lies entirely outside the scene")
    return box


def _scene_row(seen: set[int], index: int, entry, extent: SceneExtent, path) -> Annotation:
    """load_scene's rule for one entry: a json_int id, four json_float box
    values, _clipped_entry, a json_category; the first fault raises
    ValueError naming the entry."""
    try:
        ann_id = json_int(entry["id"], "id")
        x, y, w, h = (v if type(v) is float else json_float(v, "bbox value") for v in entry["bbox"])
        box = _clipped_entry(seen, ann_id, x, y, w, h, extent, path) or BoundingBox(x, y, w, h)
        return Annotation(ann_id, box, json_category(entry.get("category", 0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"annotation entry {index}: {exc!s}") from exc


def load_scene(path: str | Path) -> tuple[Annotations, SceneExtent]:
    """Read the annotation interchange JSON.

    A box inside the scene is kept exactly as read; one that crosses an
    edge is clipped into the scene. An annotation entirely outside the
    scene, a duplicate id, or a non-positive box is an error, raised by
    _scene_row for the first faulty entry. A document of plain columns
    (_column; ids of type int) costs one array screen, and only the first
    entry it flags meets _scene_row; any other meets it entry by entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        scene = doc["scene"]
        extent = SceneExtent(json_int(scene["width"], "width"), json_int(scene["height"], "height"))
        raw = json_list(doc["annotations"], "annotations")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed annotation document {path}: {exc}") from exc

    try:
        ids = [entry["id"] for entry in raw]
        boxes = _column([entry["bbox"] for entry in raw], np.float64, (-1, 4))
        categories = _column([entry.get("category", 0) for entry in raw], np.int64)
        columns = (boxes, categories)
        plain = set(map(type, ids)) <= {int} and all(isinstance(c, np.ndarray) and len(c) == len(ids) for c in columns)
    except (KeyError, TypeError):
        plain = False
    if not plain:
        seen: set[int] = set()
        return Annotations.of([_scene_row(seen, r, entry, extent, path) for r, entry in enumerate(raw)]), extent
    # Python compares a float with an int exactly: test against the largest float at most the size.
    width, height = (math.nextafter(f, 0.0) if f > n else f for n in (extent.width, extent.height) for f in [float(n)])
    x, y, w, h = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        right, bottom = x + w, y + h
        cross = np.flatnonzero(~((x >= 0.0) & (y >= 0.0) & (right <= width) & (bottom <= height)))
        frame = float(extent.width), float(extent.height)
        clipped, kept = clip_corners(x[cross], y[cross], right[cross], bottom[cross], *frame)
    fault = ~(np.isfinite(boxes).all(axis=1) & (w > 0) & (h > 0))
    outside = np.ones(len(cross), dtype=bool)
    outside[kept] = False
    fault[cross[outside]] = True
    if len(set(ids)) < len(ids):
        seen = set()
        fault[next(r for r, v in enumerate(ids) if v in seen or seen.add(v))] = True
    for r in np.flatnonzero(fault)[:1].tolist():
        _scene_row(set(ids[:r]), r, raw[r], extent, path)
    boxes[cross] = clipped
    return Annotations(boxes, categories, ids), extent


def save_scene(path: str | Path, annotations: list[Annotation], extent: SceneExtent) -> None:
    """Write the annotation interchange JSON (deterministic layout).

    The bytes are those of json.dump(doc, indent=1) plus a newline; the
    fixed layout is written directly rather than through the pure-Python
    indenting encoder. What load_scene rejects (by json_int or
    json_category, a duplicate id, a box entirely outside the scene)
    raises its ValueError, naming the annotation's index, before the file
    is opened. A box value is written as a float, but an int keeps
    json.dump's spelling (BoundingBox bounds values to float range).
    """
    size = (json_int(extent.width, "width"), json_int(extent.height, "height"))
    rows, seen = [], set()
    for index, a in enumerate(annotations):
        try:
            ann_id = json_int(a.id, "id")
            box = [v if type(v) is int else float(v) for v in (a.bbox.x, a.bbox.y, a.bbox.width, a.bbox.height)]
            _clipped_entry(seen, ann_id, *[float(v) for v in box], extent, path)  # the floats load_scene reads
            values = (ann_id, *box, json_category(a.category))
        except ValueError as exc:
            raise ValueError(f"annotation entry {index}: {exc!s}") from exc
        rows.append(
            '  {\n   "id": %s,\n   "bbox": [\n    %s,\n    %s,\n    %s,\n    %s\n   ],\n   "category": %s\n  }'
            % values
        )
    body = "[\n" + ",\n".join(rows) + "\n ]" if rows else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '{\n "scene": {\n  "width": %s,\n  "height": %s\n },\n "annotations": %s\n}\n'
            % (*size, body)
        )
