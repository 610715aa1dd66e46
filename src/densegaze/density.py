"""Density-map rendering, the scale-aware error metric, and DMAP raster I/O.

Each annotated object contributes a unit-mass Gaussian blob to the map of
its scale bucket, so the integral of a map region estimates the object
count inside it. Kernel width follows the three-sigma rule: sigma is one
third of the longest box side, so the blob support roughly covers the
object. Maps are rendered at a configurable downsample (original pixels
per map cell); rendering accumulates in a fixed annotation order, so
results are deterministic.

The DMAP binary format is the exchange surface for density rasters
produced by external regression models; planes are stored as float32 and
hold unscaled, true-count densities. Trainers that scale densities up for
numeric range (typically by 1000) should undo that before writing, or use
apply_count_scale / invert_count_scale at the boundary.
"""

from __future__ import annotations

import math
import mmap
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DEFAULT_SCALE_BOUNDARIES, Annotation, Annotations, BoundingBox, ScaleLevel, SceneExtent
from .core import scale_bucket

DEFAULT_DOWNSAMPLE = 32.0
DEFAULT_ALPHAS = (0.01, 0.1, 10.0, 100.0)

DMAP_MAGIC = b"DMAP"
DMAP_VERSION = 1
DMAP_PLANES = 4
_DMAP_HEADER = struct.Struct("<4sIIIId")
# Cells per plane above this are rejected as corrupt rather than allocated.
_DMAP_MAX_CELLS = 2**32


class DmapError(Exception):
    """Base class for DMAP format failures."""


class DmapMagicError(DmapError):
    """File does not start with the DMAP magic bytes."""


class DmapVersionError(DmapError):
    """Unsupported DMAP format version."""


class DmapPlaneCountError(DmapError):
    """Plane count in the header is not the required four."""


class DmapDimensionError(DmapError):
    """Declared plane dimensions are zero or implausibly large."""


class DmapTruncatedError(DmapError):
    """File ends before the declared payload is complete."""


class DmapValueError(DmapError):
    """Payload contains negative or non-finite densities."""


@dataclass
class DensityMap:
    """A low-resolution density raster.

    values is a (height, width) float64 array of non-negative intensities
    in persons per map cell; downsample is original pixels per map cell.
    """

    values: np.ndarray
    downsample: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError(f"density map must be a non-empty 2-D grid, got shape {self.values.shape}")
        if not 1 <= self.downsample < math.inf:
            raise ValueError(f"downsample must be finite and >= 1, got {self.downsample}")
        # Two reductions cover both checks: a NaN makes the min NaN, and an
        # infinity of either sign is the min or the max.
        lo, hi = float(self.values.min()), float(self.values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("density map contains non-finite values")
        if lo < 0:
            raise ValueError("density map contains negative values")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def total_mass(self) -> float:
        """Expected object count over the whole map."""
        return float(self.values.sum())


@dataclass
class DensityMapSet:
    """One density map per scale level, all sharing geometry.

    maps are ordered TINY, SMALL, MIDDLE, LARGE; index with a ScaleLevel.
    """

    maps: tuple[DensityMap, DensityMap, DensityMap, DensityMap]

    def __post_init__(self) -> None:
        if len(self.maps) != len(ScaleLevel):
            raise ValueError(f"expected {len(ScaleLevel)} maps, got {len(self.maps)}")
        first = self.maps[0]
        for m in self.maps[1:]:
            if m.values.shape != first.values.shape or m.downsample != first.downsample:
                raise ValueError("all maps in a set must share dimensions and downsample")

    def __getitem__(self, scale: ScaleLevel) -> DensityMap:
        return self.maps[int(scale)]

    @property
    def width(self) -> int:
        return self.maps[0].width

    @property
    def height(self) -> int:
        return self.maps[0].height

    @property
    def downsample(self) -> float:
        return self.maps[0].downsample


def _sigma_pixels(side):
    """sigma_for's rule on a longest side, or an array of them, as floats."""
    return np.maximum(side // 3, 1.0)


def _sigma_cells(side: np.ndarray, downsample: float) -> np.ndarray:
    """sigma_for in map cells, clamped to one cell so a blob spans a few cells."""
    return np.maximum(_sigma_pixels(side) / downsample, 1.0)


def sigma_for(box: BoundingBox) -> int:
    """Kernel width in original-image pixels: longest side over three.

    Integer (floor) division, clamped to at least 1 pixel so degenerate
    boxes still render a representable blob.
    """
    return int(_sigma_pixels(box.max_side))


def _kernels(cx: np.ndarray, cy: np.ndarray, sigma: np.ndarray, radius: int) -> np.ndarray:
    """Truncated unit-mass kernels, (n, 2r+1, 2r+1), for n blob centers in
    map cells that share one radius r; sigma is already clamped.

    Each kernel is evaluated at the cell centers of its support window and
    divided by its own sum, exactly as one stamp on its own would be.
    """
    offsets = np.arange(-radius, radius + 1)
    xs = (np.floor(cx)[:, None] + offsets) + 0.5 - cx[:, None]
    ys = (np.floor(cy)[:, None] + offsets) + 0.5 - cy[:, None]
    kernels = ys[:, :, None] ** 2 + xs[:, None, :] ** 2
    np.negative(kernels, out=kernels)
    np.divide(kernels, (2.0 * sigma * sigma)[:, None, None], out=kernels)
    np.exp(kernels, out=kernels)
    kernels /= kernels.reshape(len(kernels), -1).sum(axis=1)[:, None, None]
    return kernels


def _radii(sigma: np.ndarray) -> np.ndarray:
    """Support half-widths for clamped sigmas: three sigma, rounded up."""
    return np.ceil(3.0 * sigma).astype(np.int64)


# Kernel cells evaluated at once: annotations are rendered in chunks of
# about this many cells, so at most one chunk's kernels exist at a time.
_CHUNK_CELLS = 1 << 15

# madvise(2) advice that maps a range to the kernel's shared zero page, or
# to pages of its own, up front (Linux >= 5.14); the mmap module names neither.
_MADV_POPULATE_READ, _MADV_POPULATE_WRITE = 22, 23


def _zero_planes(shape: tuple[int, int, int], pages) -> np.ndarray:
    """A float64 array of zeros whose pages take memory only once written.

    The block is a private anonymous mapping, unmapped when its last view
    dies. On Linux it is kept off huge pages, each run of the pages named
    in pages (arrays of page indices) is faulted in for writing by one
    call, and the rest is mapped to the shared zero page, so reading a page
    no stamp wrote neither faults nor counts as resident. Where the
    operating system refuses advice, the bytes are the same and pages fault
    later; where there is no private mapping, np.zeros serves.
    """
    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape)
    try:
        block = mmap.mmap(-1, math.prod(shape) * 8, flags=mmap.MAP_PRIVATE)
    except (OverflowError, OSError):
        return np.zeros(shape)  # raises numpy's own error for a size no mapping holds
    if sys.platform == "linux":
        written = np.zeros(-(-len(block) // mmap.PAGESIZE) + 1, dtype=bool)  # ends on an unwritten page
        for p in pages:
            written[p] = True
        edges = (np.flatnonzero(np.diff(written, prepend=False)) * mmap.PAGESIZE).tolist()
        runs = [(_MADV_POPULATE_WRITE, start, stop - start) for start, stop in zip(edges[::2], edges[1::2])]
        for advice, start, length in [(mmap.MADV_NOHUGEPAGE, 0, len(block)), *runs, (_MADV_POPULATE_READ, 0, len(block))]:
            try:
                block.madvise(advice, start, length)
            except OSError:
                pass
    return np.frombuffer(block, dtype=np.float64).reshape(shape)


def _stamp_columns(annotations, extent, downsample, boundaries):
    """Every stamp's center in map cells, longest side and radius, (cx, cy,
    side, radius), once the annotations and boundaries pass the checks a
    render one annotation at a time would make, in its order; the chunk
    loop keeps only these four per annotation."""
    annotations = Annotations.of(annotations)
    x, y, w, h = annotations.boxes.T
    cx, cy = x + w / 2.0, y + h / 2.0
    outside = np.flatnonzero(
        ~((0.0 <= cx) & (cx <= extent.width) & (0.0 <= cy) & (cy <= extent.height))
    )
    first_outside = int(outside[0]) if outside.size else len(annotations)
    if first_outside > 0:
        scale_bucket(annotations[0].bbox, boundaries)  # rejects non-increasing boundaries
    if first_outside < len(annotations):
        ann = annotations[first_outside]
        bx, by = ann.bbox.center
        raise ValueError(f"annotation {ann.id} center ({bx:.1f}, {by:.1f}) lies outside the scene")
    side = np.maximum(w, h)
    return cx / downsample, cy / downsample, side, _radii(_sigma_cells(side, downsample))


def _chunks(cx, cy, side, radius, downsample, boundaries, map_w, map_h):
    """The stamps in chunks of about _CHUNK_CELLS kernel cells, in order:
    each chunk's buckets, support windows clipped to the raster ([x0, x1) x
    [y0, y1) in map cells, then the window's offsets into its kernel),
    centers and clamped sigmas in map cells, and radii."""
    cells = (2 * radius + 1) ** 2
    chunk_of = (np.cumsum(cells) - cells) // _CHUNK_CELLS
    starts = np.flatnonzero(np.diff(chunk_of, prepend=-1)).tolist() + [len(cx)]
    for c in (slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])):
        r = radius[c]
        left, top = np.floor(cx[c]).astype(np.int64) - r, np.floor(cy[c]).astype(np.int64) - r
        x0, y0 = np.maximum(left, 0), np.maximum(top, 0)
        x1, y1 = np.minimum(left + 2 * r + 1, map_w), np.minimum(top + 2 * r + 1, map_h)
        windows = np.stack([x0, x1, y0, y1, x0 - left, x1 - left, y0 - top, y1 - top], axis=1)
        bucket = np.searchsorted(np.asarray(boundaries, dtype=np.float64), side[c], side="right")
        yield bucket, windows, cx[c], cy[c], _sigma_cells(side[c], downsample), r


def _written_pages(bucket, windows, map_h: int, map_w: int) -> np.ndarray:
    """The pages of the (4, map_h, map_w) block that hold the first or the
    last cell of a window row; a row wider than two pages faults the rest."""
    x0, x1, y0, y1 = windows[:, :4].T
    rows = np.where(x0 < x1, np.maximum(y1 - y0, 0), 0)
    stamp = np.repeat(np.arange(len(rows)), rows)
    row = np.arange(len(stamp)) + np.repeat(y0 - (np.cumsum(rows) - rows), rows)
    first = (bucket[stamp] * map_h + row) * map_w + x0[stamp]
    return np.concatenate([first, first + (x1 - x0)[stamp] - 1]) * 8 // mmap.PAGESIZE


def _stamp_chunk(planes, bucket, windows, cx, cy, sigma, radius) -> None:
    """Add one of _chunks to the planes of its buckets, in order."""
    order = np.argsort(radius, kind="stable")
    cuts = np.flatnonzero(np.diff(radius[order])) + 1
    kernels: list = [None] * len(order)
    for group in np.split(order, cuts):
        batch = _kernels(cx[group], cy[group], sigma[group], int(radius[group[0]]))
        for i, kernel in zip(group.tolist(), batch):
            kernels[i] = kernel
    for b, kernel, (ax0, ax1, ay0, ay1, kx0, kx1, ky0, ky1) in zip(bucket.tolist(), kernels, windows.tolist()):
        if ax0 < ax1 and ay0 < ay1:
            planes[b][ay0:ay1, ax0:ax1] += kernel[ky0:ky1, kx0:kx1]


def map_size(extent: SceneExtent, downsample: float) -> tuple[int, int]:
    """A scene's map size in cells, (width, height): per side, ceil(side / downsample), less
    one where rounding puts the last cell's start, (n - 1) * downsample, on or past the edge."""
    if not 1 <= downsample < math.inf:
        raise ValueError(f"downsample must be finite and >= 1, got {downsample}")
    n, m = math.ceil(extent.width / downsample), math.ceil(extent.height / downsample)
    return n - ((n - 1) * downsample >= extent.width), m - ((m - 1) * downsample >= extent.height)


def render_gt_density(
    annotations: list[Annotation],
    extent: SceneExtent,
    downsample: float = DEFAULT_DOWNSAMPLE,
    boundaries: tuple[float, float, float] = DEFAULT_SCALE_BOUNDARIES,
) -> DensityMapSet:
    """Render ground-truth density maps of map_size cells, one per scale bucket.

    Each annotation contributes one unit-mass stamp to the map of its
    bucket; an annotation whose center lies outside the scene is rejected.
    Kernels are evaluated in batches that share a radius, and every map
    cell receives its contributions in annotation order, so the maps do
    not depend on how annotations are batched. The four maps are views of
    one _zero_planes block, so cells no stamp reaches take no memory, and a
    first pass over the chunks names the pages the stamps write, so they
    are faulted in by run. Each chunk's buckets, sigmas, kernels and
    windows exist only while it is marked or stamped.
    """
    map_w, map_h = map_size(extent, downsample)
    columns = (*_stamp_columns(annotations, extent, downsample, boundaries), downsample, boundaries, map_w, map_h)
    pages = (_written_pages(bucket, windows, map_h, map_w) for bucket, windows, *_ in _chunks(*columns))
    planes = list(_zero_planes((len(ScaleLevel), map_h, map_w), pages))
    for chunk in _chunks(*columns):
        _stamp_chunk(planes, *chunk)

    return DensityMapSet(
        maps=tuple(DensityMap(values=p, downsample=float(downsample)) for p in planes)
    )


def scale_aware_loss(
    pred: DensityMapSet,
    gt: DensityMapSet,
    alphas: tuple[float, float, float, float] = DEFAULT_ALPHAS,
) -> float:
    """Weighted sum over scales of the per-cell mean squared difference.

    The per-scale weights counter the heavy example imbalance across
    scale buckets; defaults weight the sparse large scales up.
    """
    if (pred.width, pred.height, pred.downsample) != (gt.width, gt.height, gt.downsample):
        raise ValueError(
            f"geometry mismatch: pred {pred.width}x{pred.height}@{pred.downsample} "
            f"vs gt {gt.width}x{gt.height}@{gt.downsample}"
        )
    if len(alphas) != len(ScaleLevel):
        raise ValueError(f"expected {len(ScaleLevel)} alpha weights, got {len(alphas)}")
    total = 0.0
    for scale in ScaleLevel:
        diff = pred[scale].values - gt[scale].values
        total += alphas[int(scale)] * float(np.mean(diff * diff))
    return total


def apply_count_scale(dmap: DensityMap, factor: float) -> DensityMap:
    """Multiply all densities by a positive factor (training-style scaling)."""
    if not factor > 0:
        raise ValueError(f"count scale factor must be positive, got {factor}")
    return DensityMap(values=dmap.values * factor, downsample=dmap.downsample)


def invert_count_scale(dmap: DensityMap, factor: float) -> DensityMap:
    """Undo apply_count_scale with the same factor."""
    if not factor > 0:
        raise ValueError(f"count scale factor must be positive, got {factor}")
    return DensityMap(values=dmap.values / factor, downsample=dmap.downsample)


def write_dmap(dset: DensityMapSet, path: str | Path) -> None:
    """Write a map set as a DMAP file.

    Planes are stored as little-endian float32 in TINY..LARGE order;
    values outside float32 precision are rounded on write. A plane with a
    value that rounds to a float32 infinity, which read_dmap would reject,
    raises ValueError naming its scale before the file is opened.
    """
    with np.errstate(over="ignore"):
        planes = [np.ascontiguousarray(dset[scale].values, dtype="<f4") for scale in ScaleLevel]
    for scale, plane in zip(ScaleLevel, planes):
        if not np.isfinite(plane).all():
            raise ValueError(f"{scale.label} density map has values beyond float32 range")
    header = _DMAP_HEADER.pack(
        DMAP_MAGIC, DMAP_VERSION, DMAP_PLANES, dset.width, dset.height, dset.downsample
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for plane in planes:
            fh.write(plane.tobytes())


def read_dmap(path: str | Path) -> DensityMapSet:
    """Read a DMAP file, validating magic, version, plane count, and size;
    DensityMap's value check, raised as DmapValueError, covers the planes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _DMAP_HEADER.size:
        raise DmapTruncatedError(f"{path}: {len(blob)} bytes is shorter than the DMAP header")
    magic, version, plane_count, width, height, downsample = _DMAP_HEADER.unpack_from(blob)
    if magic != DMAP_MAGIC:
        raise DmapMagicError(f"{path}: bad magic {magic!r}")
    if version != DMAP_VERSION:
        raise DmapVersionError(f"{path}: unsupported version {version}")
    if plane_count != DMAP_PLANES:
        raise DmapPlaneCountError(f"{path}: expected {DMAP_PLANES} planes, found {plane_count}")
    cells = int(width) * int(height)
    if width == 0 or height == 0 or cells > _DMAP_MAX_CELLS:
        raise DmapDimensionError(f"{path}: implausible plane dimensions {width}x{height}")
    if downsample < 1 or not math.isfinite(downsample):
        raise DmapDimensionError(f"{path}: invalid downsample {downsample}")
    expected = _DMAP_HEADER.size + DMAP_PLANES * cells * 4
    if len(blob) < expected:
        raise DmapTruncatedError(
            f"{path}: payload needs {expected} bytes, file has {len(blob)}"
        )

    planes = np.frombuffer(blob, dtype="<f4", count=DMAP_PLANES * cells, offset=_DMAP_HEADER.size)
    planes = planes.reshape(DMAP_PLANES, height, width).astype(np.float64)
    try:
        maps = tuple(DensityMap(values=p, downsample=float(downsample)) for p in planes)
    except ValueError as exc:
        raise DmapValueError(f"{path}: {exc}") from exc
    return DensityMapSet(maps=maps)
