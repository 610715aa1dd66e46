"""Stage one: pick out the image regions worth detailed detection.

Each scale's density map is partitioned into a coarse grid, the expected
object count of every cell is read off a summed-area table, and cells
above a density threshold become patches, grown about their centers so
neighbors overlap and objects on cell borders stay whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .core import BoundingBox, ConfigError, ScaleLevel, SceneExtent
from .density import DensityMap, DensityMapSet, map_size

DEFAULT_GRID_CELLS = (16, 8, 4, 2)
DEFAULT_DENSITY_THRESHOLD = 0.2
DEFAULT_EXPANSION = 1.2


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry for one scale level."""

    scale: ScaleLevel
    cells_x: int
    cells_y: int

    def __post_init__(self) -> None:
        if self.cells_x < 1 or self.cells_y < 1:
            raise ValueError(f"grid must have at least one cell, got {self.cells_x}x{self.cells_y}")


def default_grids(cells: tuple[int, int, int, int] = DEFAULT_GRID_CELLS) -> dict[ScaleLevel, GridSpec]:
    """Square grids per scale; finer grids for smaller objects."""
    return {s: GridSpec(s, cells[int(s)], cells[int(s)]) for s in ScaleLevel}


@dataclass(frozen=True)
class IntegralImage:
    """Summed-area table over a density map, with a zero top row and left column."""

    table: np.ndarray

    def rect_sum(self, x0: int, y0: int, x1: int, y1: int) -> float:
        """Sum of map cells in the half-open rectangle [x0,x1) x [y0,y1)."""
        t = self.table
        s = t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]
        # Cancellation can leave a tiny negative residue on zero regions.
        return max(float(s), 0.0)


@dataclass(frozen=True)
class Patch:
    """A scored grid cell (CellDensity is another name for it): scale,
    grid position, expected object count (density) and a region in
    original-image pixels, the cell footprint (cells of one grid tile the
    scene exactly) or, once selected, that footprint grown by the
    expansion factor and clipped to the scene.
    """

    scale: ScaleLevel
    ix: int
    iy: int
    region: BoundingBox
    density: float


CellDensity = Patch


def build_integral(dmap: DensityMap) -> IntegralImage:
    """Build the summed-area table for a density map."""
    h, w = dmap.values.shape
    table = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(dmap.values, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return IntegralImage(table=table)


def _cell_bounds(width: int, height: int, cells_x: int, cells_y: int, raster: str) -> tuple[list[int], list[int]]:
    """Cell boundaries (xs, ys) of a grid over a width x height raster, by
    the floor rule so the grid tiles exactly. A grid finer than the raster
    would have empty cells, and is a configuration error."""
    if cells_x > width or cells_y > height:
        raise ConfigError(f"grid {cells_x}x{cells_y} is finer than the {width}x{height} {raster}")
    xs = [(i * width) // cells_x for i in range(cells_x + 1)]
    ys = [(j * height) // cells_y for j in range(cells_y + 1)]
    return xs, ys


def _grid_bounds(dmap: DensityMap, grid: GridSpec, extent: SceneExtent) -> tuple[list[int], list[int]]:
    """Cell boundaries (xs, ys) in map cells. A map of any size but the
    map_size of its scene, which render_gt_density makes, is an input error."""
    xs, ys = _cell_bounds(dmap.width, dmap.height, grid.cells_x, grid.cells_y, "map")
    if (dmap.width, dmap.height) != (size := map_size(extent, dmap.downsample)):
        short = dmap.width < size[0] or dmap.height < size[1]
        raise ValueError(
            f"{dmap.width}x{dmap.height} map at downsample {dmap.downsample} "
            f"{'falls short of' if short else 'overruns'} the {extent.width}x{extent.height} scene"
        )
    return xs, ys


def _cell_patches(scale, cells, densities, xs, ys, downsample, extent, expansion=None) -> list[Patch]:
    """A Patch per grid cell (iy, ix) and its density, in the order given.
    Its region is the cell footprint, the bounds xs and ys times downsample,
    clipped to the scene, then expand_and_clip of it when an expansion is given."""
    patches = []
    for (iy, ix), density in zip(cells, densities):
        x0, y0 = xs[ix] * downsample, ys[iy] * downsample
        x1 = min(xs[ix + 1] * downsample, float(extent.width))
        y1 = min(ys[iy + 1] * downsample, float(extent.height))
        region = BoundingBox(x0, y0, x1 - x0, y1 - y0)
        if expansion is not None:
            region = expand_and_clip(region, expansion, extent)
        patches.append(Patch(scale, ix, iy, region, density))
    return patches


# Map cells folded per step into the running column sums (256 KB of rows).
_FOLD_CELLS = 1 << 15


def _cell_sums(values: np.ndarray, xs: list[int], ys: list[int]) -> np.ndarray:
    """Every cell's build_integral(...).rect_sum, (len(ys)-1, len(xs)-1),
    equal bit for bit, from only the table rows at the y boundaries.

    A table row is the cumsum along x of the running column sums, and
    cumsum along y folds the rows into those sums one at a time. The fold
    here keeps that order: each step reduces the running sums followed by
    the next rows of the map, stacked in a buffer at least two columns
    wide, because a one-column reduce would sum its rows pairwise.
    """
    h, w = values.shape
    step = max(1, _FOLD_CELLS // w)
    stack = np.zeros((step + 1, max(w, 2)), dtype=np.float64)
    running = np.zeros(stack.shape[1], dtype=np.float64)
    running[:w] = values[0]
    done = 1
    row = np.zeros(w + 1, dtype=np.float64)
    corners = np.zeros((len(ys), len(xs)), dtype=np.float64)
    for k, y in enumerate(ys[1:], start=1):
        while done < y:
            rows = min(step, y - done)
            stack[0] = running
            stack[1 : rows + 1, :w] = values[done : done + rows]
            np.add.reduce(stack[: rows + 1], axis=0, out=running)
            done += rows
        np.cumsum(running[:w], out=row[1:])
        corners[k] = row[xs]
    s = ((corners[1:, 1:] - corners[:-1, 1:]) - corners[1:, :-1]) + corners[:-1, :-1]
    # rect_sum's max(s, 0.0): cancellation can leave a tiny negative
    # residue on zero regions; -0.0 and NaN pass through as max keeps them.
    return np.where(0.0 > s, 0.0, s)


def grid_densities(dmap: DensityMap, grid: GridSpec, extent: SceneExtent) -> list[Patch]:
    """Integrate the map over each grid cell: one Patch per cell, whose
    region is the cell footprint, ordered row-major (iy, ix)."""
    xs, ys = _grid_bounds(dmap, grid, extent)
    densities = _cell_sums(dmap.values, xs, ys).ravel().tolist()
    cells = product(range(grid.cells_y), range(grid.cells_x))
    return _cell_patches(grid.scale, cells, densities, xs, ys, dmap.downsample, extent)


def expand_and_clip(region: BoundingBox, expansion: float, extent: SceneExtent) -> BoundingBox:
    """Grow a region about its center, then clip it to the scene."""
    cx, cy = region.center
    w = region.width * expansion
    h = region.height * expansion
    x0 = max(cx - w / 2.0, 0.0)
    y0 = max(cy - h / 2.0, 0.0)
    x1 = min(cx + w / 2.0, float(extent.width))
    y1 = min(cy + h / 2.0, float(extent.height))
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def check_threshold(threshold: float) -> None:
    """The density threshold rule, for selection and PipelineConfig alike."""
    # Chained comparisons are False for NaN, and "< math.inf" rejects infinity.
    if not 0 <= threshold < math.inf:
        raise ConfigError(f"threshold must be finite and >= 0, got {threshold}")


def check_expansion(expansion: float) -> None:
    """The patch growth rule, for selection, sliding windows and PipelineConfig."""
    if not 1 <= expansion < math.inf:
        raise ConfigError(f"expansion must be finite and >= 1, got {expansion}")


def _check_selection(threshold: float, expansion: float, extent: SceneExtent | None) -> None:
    check_threshold(threshold)
    check_expansion(expansion)
    if extent is None:
        raise ValueError("patch selection requires the scene extent for clipping")


def select_patches(
    cells: list[Patch],
    threshold: float = DEFAULT_DENSITY_THRESHOLD,
    expansion: float = DEFAULT_EXPANSION,
    extent: SceneExtent | None = None,
) -> list[Patch]:
    """Keep the cells strictly above the density threshold, each with only
    its region replaced by expand_and_clip of it.

    The comparison is strict, so threshold 0 keeps exactly the cells with
    any mass. Patches clipped at a scene border keep their clipped region
    and are not re-centered. Output is ordered by (scale, iy, ix).
    """
    _check_selection(threshold, expansion, extent)
    selected = [c for c in cells if c.density > threshold]
    selected.sort(key=lambda c: (int(c.scale), c.iy, c.ix))
    return [replace(c, region=expand_and_clip(c.region, expansion, extent)) for c in selected]


def saccade(
    dset: DensityMapSet,
    grids: dict[ScaleLevel, GridSpec] | None = None,
    threshold: float = DEFAULT_DENSITY_THRESHOLD,
    expansion: float = DEFAULT_EXPANSION,
    extent: SceneExtent | None = None,
) -> list[Patch]:
    """Run patch selection over all four scales; output ordered TINY..LARGE.

    The same patches as select_patches over grid_densities, but regions
    are built only for the cells above the threshold.
    """
    _check_selection(threshold, expansion, extent)
    if grids is None:
        grids = default_grids()
    patches: list[Patch] = []
    for scale in ScaleLevel:
        dmap = dset[scale]
        xs, ys = _grid_bounds(dmap, grids[scale], extent)
        densities = _cell_sums(dmap.values, xs, ys)
        hot = densities > threshold
        cells, hot_densities = np.argwhere(hot).tolist(), densities[hot].tolist()
        patches += _cell_patches(scale, cells, hot_densities, xs, ys, dmap.downsample, extent, expansion)
    return patches


def sliding_window_patches(extent: SceneExtent, grid: int, expansion: float = DEFAULT_EXPANSION) -> list[Patch]:
    """Every cell of a grid x grid partition of the scene, expanded like
    saccade patches for parity; no density selection. A grid with more
    cells than the scene has pixels on an axis is a configuration error."""
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    check_expansion(expansion)
    xs, ys = _cell_bounds(extent.width, extent.height, grid, grid, "scene")
    cells = product(range(grid), repeat=2)
    return _cell_patches(ScaleLevel.TINY, cells, [0.0] * grid**2, xs, ys, 1.0, extent, expansion)


def patch_manifest(patches: list[Patch]) -> list[dict]:
    """JSON-ready manifest rows for a patch list."""
    return [
        {
            "scale": p.scale.label,
            "cell": [p.ix, p.iy],
            "region": [p.region.x, p.region.y, p.region.width, p.region.height],
            "density": p.density,
        }
        for p in patches
    ]
