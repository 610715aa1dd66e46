"""Deterministic synthetic scenes with gigapixel crowd statistics.

Generated scenes mimic wide-field surveillance footage at desk scale:
a handful of pedestrian clusters, box sides spanning two orders of
magnitude along a vertical perspective gradient, and only a few percent
of the scene covered by objects.

The population is two-tiered. Crowd objects take sides from the lower
decade of the size gradient, interpolated along y (small far/top, large
near/bottom) and calibrated so total box area hits the coverage target.
The rest of the range up to max_side is realized by a halving ladder of
"giant" objects placed low in the scene, a few per size level and capped
to a share of the area budget, which keeps the large-scale buckets
populated without starving the crowd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigKey, layer_settings
from .core import DEFAULT_SCALE_BOUNDARIES, Annotation, Annotations, BoundingBox, ScaleLevel, SceneExtent
from .density import map_size

DEFAULT_EXTENT = SceneExtent(26368, 14976)

# Pedestrian-like boxes: height is the long side.
_ASPECT_RANGE = (0.4, 0.7)
# Cluster spread (std dev) as fractions of scene width/height. Crowds on a
# ground plane spread sideways more than in depth, so clusters are wide
# ellipses rather than disks.
_CLUSTER_SPREAD_X = 0.016
_CLUSTER_SPREAD_Y = 0.011
# Multiplicative size jitter bounds around the gradient value.
_SIZE_JITTER = (0.85, 1.2)
# Crowd sides span [min_side, _CROWD_SPAN * min_side]; giants cover the rest.
_CROWD_SPAN = 10.0
# Vertical band holding the crowd clusters (fractions of scene height).
_CROWD_BAND = (0.05, 0.84)
# Pairwise overlap cap between generated boxes. Kept well below the 0.5
# merge threshold: patch-edge clipping can inflate the overlap of two
# neighboring views, and ground truth must stay resolvable after that.
_MAX_PAIR_IOU = 0.35
_MAX_PLACEMENT_ATTEMPTS = 1000


class InfeasibleSceneError(Exception):
    """The requested scene cannot be generated within its constraints."""


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines a generated scene; seed included."""

    extent: SceneExtent = DEFAULT_EXTENT
    object_count: int = 500
    foreground_fraction_target: float = 0.05
    size_gradient: tuple[float, float] = (32.0, 3264.0)
    cluster_count: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        min_side, max_side = self.size_gradient
        if not all(math.isfinite(v) for v in self.size_gradient):
            raise ValueError(f"size gradient must be finite, got {self.size_gradient}")
        if min_side < 4:
            raise ValueError(f"min_side must be >= 4, got {min_side}")
        if max_side <= min_side:
            raise ValueError(f"size gradient must increase, got {self.size_gradient}")
        if self.object_count < 0:
            raise ValueError(f"object_count must be >= 0, got {self.object_count}")
        if self.cluster_count < 1:
            raise ValueError(f"cluster_count must be >= 1, got {self.cluster_count}")
        if not 0.0 < self.foreground_fraction_target < 0.5:
            raise ValueError(
                f"foreground_fraction_target must be in (0, 0.5), got {self.foreground_fraction_target}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SceneStats:
    """Summary statistics of a generated (or loaded) scene."""

    scale_counts: dict[ScaleLevel, int]
    foreground_fraction: float
    side_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "scale_counts": {s.label: self.scale_counts[s] for s in ScaleLevel},
            "foreground_fraction": self.foreground_fraction,
            "side_ratio": self.side_ratio,
        }


def _giant_ladder(spec: SceneSpec) -> list[float]:
    """Sides of the giant tier: max_side, then halves, stopping well above
    the crowd range.

    Level k holds up to the (k+1)-th triangular number of objects, so
    counts lean small the way crowd datasets do. The first giant (the
    span anchor at max_side) is always kept; beyond it the tier stops
    claiming area at about two thirds of the coverage budget so the
    crowd keeps room.
    """
    min_side, max_side = spec.size_gradient
    crowd_max = min(_CROWD_SPAN * min_side, max_side)
    area_cap = 0.65 * spec.foreground_fraction_target * spec.extent.area
    nominal_aspect = sum(_ASPECT_RANGE) / 2.0
    sides: list[float] = []
    claimed = 0.0
    level = 0
    side = max_side
    while side > 2.5 * crowd_max and len(sides) < spec.object_count:
        for _ in range((level + 1) * (level + 2) // 2):
            if len(sides) >= spec.object_count:
                break
            cost = nominal_aspect * side * side
            if sides and claimed + cost > area_cap:
                break
            sides.append(side)
            claimed += cost
        level += 1
        side = max_side / (2.0**level)
    return sides


class _Placer:
    """Rejection-samples box positions under the pairwise overlap cap.

    Each placed box is registered in every bucket of a uniform square grid
    that it touches, and a candidate is checked only against the boxes in
    its own buckets, stopping at the first violation. Bucket indices
    floor(v / cell) are monotonic in v, so two boxes that overlap with
    positive width and height share a bucket whatever their spans; a box
    the candidate misses cannot overlap it. The sampling spread widens
    every 25 failed attempts so dense clusters spill outward instead of
    deadlocking.
    """

    def __init__(self, rng: np.random.Generator, extent: SceneExtent, cell: float):
        self.rng = rng
        self.extent = extent
        self.cell = cell
        # Per box: x, y, right, bottom, area, computed once as the check uses them.
        self.buckets: dict[tuple[int, int], list[tuple[float, ...]]] = {}

    def _bucket_keys(self, x: float, y: float, right: float, bottom: float) -> list[tuple[int, int]]:
        """The buckets [x, right] x [y, bottom] touches."""
        c = self.cell
        i0, i1 = math.floor(x / c), math.floor(right / c)
        j0, j1 = math.floor(y / c), math.floor(bottom / c)
        return [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]

    def _clears_overlap_cap(self, x: float, y: float, w: float, h: float) -> bool:
        right, bottom, area = x + w, y + h, w * h
        get = self.buckets.get
        for k in self._bucket_keys(x, y, right, bottom):
            for bx, by, bright, bbottom, barea in get(k, ()):
                # min() and max() spelled inline: same values, no calls.
                iw = (right if right < bright else bright) - (x if x > bx else bx)
                if iw <= 0:
                    continue
                ih = (bottom if bottom < bbottom else bbottom) - (y if y > by else by)
                if ih <= 0:
                    continue
                inter = iw * ih
                if not inter <= _MAX_PAIR_IOU * (area + barea - inter):
                    return False
        return True

    def _add(self, x: float, y: float, w: float, h: float) -> None:
        entry = (x, y, x + w, y + h, w * h)
        for k in self._bucket_keys(*entry[:4]):
            self.buckets.setdefault(k, []).append(entry)

    def place(
        self, w: float, h: float, cx0: float, cy0: float, spread_x: float, spread_y: float
    ) -> BoundingBox:
        for attempt in range(_MAX_PLACEMENT_ATTEMPTS):
            scale = 1.35 ** (attempt // 25)
            cx = cx0 + self.rng.normal(0.0, spread_x * scale)
            cy = cy0 + self.rng.normal(0.0, spread_y * scale)
            x = min(max(cx - w / 2.0, 0.0), self.extent.width - w)
            y = min(max(cy - h / 2.0, 0.0), self.extent.height - h)
            if self._clears_overlap_cap(x, y, w, h):
                self._add(x, y, w, h)
                return BoundingBox(x, y, w, h)
        raise InfeasibleSceneError(
            f"could not place a {w:.0f}x{h:.0f} box without exceeding IoU {_MAX_PAIR_IOU}"
        )


def generate_scene(spec: SceneSpec) -> tuple[list[Annotation], SceneExtent]:
    """Generate a deterministic annotation set for the spec.

    Total box area lands within two percentage points of the coverage
    target (crowd sides are calibrated analytically); an impossible
    packing raises InfeasibleSceneError.
    """
    extent = spec.extent
    rng = np.random.default_rng(spec.seed)
    if spec.object_count == 0:
        return [], extent

    min_side, max_side = spec.size_gradient
    crowd_max = min(_CROWD_SPAN * min_side, max_side)
    giant_sides = _giant_ladder(spec)
    crowd_n = spec.object_count - len(giant_sides)

    w_px, h_px = float(extent.width), float(extent.height)
    area_target = spec.foreground_fraction_target * extent.area
    giant_aspects = rng.uniform(*_ASPECT_RANGE, size=len(giant_sides))
    giant_area = float(np.sum(giant_aspects * np.asarray(giant_sides) ** 2))
    crowd_budget = max(area_target - giant_area, 0.0)

    # Cluster centers: x uniform inside margins, y stratified over the crowd
    # band so the size gradient is exercised end to end.
    c = spec.cluster_count
    cluster_x = rng.uniform(0.1 * w_px, 0.9 * w_px, size=c)
    strata = (np.arange(c) + rng.uniform(0.2, 0.8, size=c)) / c
    band0, band1 = (_CROWD_BAND[0] * h_px, _CROWD_BAND[1] * h_px)
    cluster_y = band0 + strata * (band1 - band0)

    # Crowd sizing: nominal side interpolates along y; one calibration
    # factor scales the whole crowd so total area meets the budget. The
    # first crowd object is pinned to min_side at the top cluster so the
    # generated set always realizes the gradient's small end.
    crowd_cluster = np.arange(crowd_n) % c if crowd_n else np.array([], dtype=int)
    offsets_y = rng.normal(0.0, _CLUSTER_SPREAD_Y * h_px, size=crowd_n)
    ys = np.clip(cluster_y[crowd_cluster] + offsets_y, band0, band1)
    jitter = rng.uniform(*_SIZE_JITTER, size=crowd_n)
    aspects = rng.uniform(*_ASPECT_RANGE, size=crowd_n)
    nominal = min_side + (crowd_max - min_side) * (ys - band0) / (band1 - band0)
    sides = nominal * jitter
    if crowd_n:
        raw_area = float(np.sum(aspects * sides**2))
        f = math.sqrt(crowd_budget / raw_area) if raw_area > 0 and crowd_budget > 0 else 1.0
        # Shrinking is harmless; growing much past the declared gradient
        # is not, so the upward clamp is tight. The coverage tolerance
        # absorbs the residual shortfall.
        f = min(max(f, 0.6), 1.15)
        sides = np.maximum(sides * f, 4.0)
        anchor = int(np.argmin(cluster_y[crowd_cluster]))
        sides[anchor] = min_side
        ys[anchor] = band0

    total_area = giant_area + float(np.sum(aspects * sides**2))
    if abs(total_area / extent.area - spec.foreground_fraction_target) > 0.02:
        raise InfeasibleSceneError(
            f"cannot reach foreground target {spec.foreground_fraction_target:.3f}: "
            f"best achievable is {total_area / extent.area:.3f}"
        )

    # Buckets of half the crowd's nominal top side: a crowd box spans at most four per axis.
    placer = _Placer(rng, extent, crowd_max / 2.0)
    annotations: list[Annotation] = []
    spread_x = _CLUSTER_SPREAD_X * w_px
    spread_y = _CLUSTER_SPREAD_Y * h_px

    for i in range(crowd_n):
        h = float(sides[i])
        w = float(max(h * aspects[i], 4.0))
        bbox = placer.place(w, h, float(cluster_x[crowd_cluster[i]]), float(ys[i]), spread_x, spread_y)
        annotations.append(Annotation(id=i, bbox=bbox, category=0))

    # Giants sit low in the scene, biggest nearest the bottom edge,
    # attached to cluster x positions so the scene stays compact.
    for k, side in enumerate(giant_sides):
        h = float(min(side, h_px))
        w = float(min(max(side * giant_aspects[k], 4.0), w_px))
        depth = side / max_side
        cy = min((0.82 + 0.16 * depth) * h_px, h_px - h / 2.0)
        cy = max(cy, h / 2.0)
        cx = float(cluster_x[k % c])
        bbox = placer.place(w, h, cx, cy, spread_x * 2.0, spread_y * 2.0)
        annotations.append(Annotation(id=crowd_n + k, bbox=bbox, category=0))

    return annotations, extent


SCENE_KEYS: dict[str, ConfigKey] = {
    "width": ConfigKey(int, "scene width in pixels"),
    "height": ConfigKey(int, "scene height in pixels"),
    "object_count": ConfigKey(int, "object count (default 500)", flag="objects"),
    "foreground_fraction_target": ConfigKey(float, "coverage target fraction", flag="foreground"),
    "min_side": ConfigKey(float, "smallest box side"),
    "max_side": ConfigKey(float, "largest box side"),
    "cluster_count": ConfigKey(int, "crowd cluster count", flag="clusters"),
    "seed": ConfigKey(int, "generator seed (default 0)"),
}


def build_scene_spec(file_path=None, overrides: dict | None = None) -> SceneSpec:
    """Layer file values and explicit overrides onto the SceneSpec defaults."""
    values = layer_settings(file_path, overrides, SCENE_KEYS, "scene spec")
    defaults = SceneSpec()
    extent = SceneExtent(
        values.pop("width", defaults.extent.width),
        values.pop("height", defaults.extent.height),
    )
    gradient = (
        values.pop("min_side", defaults.size_gradient[0]),
        values.pop("max_side", defaults.size_gradient[1]),
    )
    return SceneSpec(extent=extent, size_gradient=gradient, **values)


def scene_stats(
    annotations: list[Annotation], extent: SceneExtent, raster_downsample: float = 32.0
) -> SceneStats:
    """Bucket histogram, union foreground coverage, and size span of a scene.

    Coverage is measured on the map_size raster at that downsample: a cell
    counts as foreground when its center falls inside any box, which
    estimates union area without double-counting overlaps. A scene with a
    side under half a cell holds no cell center, so its coverage is 0.0, as
    for a scene without annotations. Everything is read from the box
    columns; no Annotation is built.
    """
    x, y, w, h = Annotations.of(annotations).boxes.T
    longest = np.maximum(w, h)
    # scale_bucket's rule, as the render applies it: boundaries at or below the side.
    levels = np.searchsorted(np.asarray(DEFAULT_SCALE_BOUNDARIES), longest, side="right")
    counts = dict(zip(ScaleLevel, np.bincount(levels, minlength=len(ScaleLevel)).tolist()))

    gw, gh = map_size(extent, raster_downsample)
    if longest.size == 0:
        return SceneStats(scale_counts=counts, foreground_fraction=0.0, side_ratio=0.0)

    d = raster_downsample
    covered = np.zeros((gh, gw), dtype=bool)
    # Each box covers the cells whose centers it holds, clamped to the raster.
    x0 = np.clip(np.ceil(x / d - 0.5), 0, gw).astype(np.int64)
    x1 = np.clip(np.floor((x + w) / d - 0.5) + 1, 0, gw).astype(np.int64)
    y0 = np.clip(np.ceil(y / d - 0.5), 0, gh).astype(np.int64)
    y1 = np.clip(np.floor((y + h) / d - 0.5) + 1, 0, gh).astype(np.int64)
    drawn = np.flatnonzero((x1 > x0) & (y1 > y0))
    for c0, c1, r0, r1 in zip(x0[drawn].tolist(), x1[drawn].tolist(), y0[drawn].tolist(), y1[drawn].tolist()):
        covered[r0:r1, c0:c1] = True
    # Cells whose centers land beyond the scene edge never count.
    in_scene_w = min(gw, int(math.floor(extent.width / d + 0.5)))
    in_scene_h = min(gh, int(math.floor(extent.height / d + 0.5)))
    cells = in_scene_w * in_scene_h
    fraction = float(covered[:in_scene_h, :in_scene_w].sum()) / float(cells) if cells else 0.0

    ratio = longest.max().item() / longest.min().item()
    return SceneStats(scale_counts=counts, foreground_fraction=fraction, side_ratio=ratio)
