import importlib
import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densegaze.config import PipelineConfig, build_config
from densegaze.core import Annotation, BoundingBox, ConfigError, ScaleLevel, SceneExtent
from densegaze.density import DensityMap, DensityMapSet, map_size, render_gt_density
from densegaze.gaze import OracleDetector
from densegaze.pipeline import sliding_window_run
from densegaze.saccade import (
    CellDensity,
    GridSpec,
    Patch,
    build_integral,
    default_grids,
    expand_and_clip,
    grid_densities,
    patch_manifest,
    saccade,
    select_patches,
    sliding_window_patches,
)


saccade_module = importlib.import_module("densegaze.saccade")


def dmap(values, downsample=32.0):
    return DensityMap(values=np.asarray(values, dtype=np.float64), downsample=downsample)


def reference_densities(dmap_, grid):
    """Cell sums read off the full summed-area table, row-major (iy, ix)."""
    integral = build_integral(dmap_)
    xs = [(i * dmap_.width) // grid.cells_x for i in range(grid.cells_x + 1)]
    ys = [(j * dmap_.height) // grid.cells_y for j in range(grid.cells_y + 1)]
    return [
        integral.rect_sum(xs[ix], ys[iy], xs[ix + 1], ys[iy + 1])
        for iy in range(grid.cells_y)
        for ix in range(grid.cells_x)
    ]


def reference_saccade(dset, grids, threshold, expansion, extent):
    """saccade through a full table per map and a CellDensity per cell."""
    patches = []
    for scale in ScaleLevel:
        dmap_, grid = dset[scale], grids[scale]
        xs = [(i * dmap_.width) // grid.cells_x for i in range(grid.cells_x + 1)]
        ys = [(j * dmap_.height) // grid.cells_y for j in range(grid.cells_y + 1)]
        d = dmap_.downsample
        cells = []
        for density, (iy, ix) in zip(
            reference_densities(dmap_, grid),
            [(iy, ix) for iy in range(grid.cells_y) for ix in range(grid.cells_x)],
        ):
            x0, y0 = xs[ix] * d, ys[iy] * d
            x1 = min(xs[ix + 1] * d, float(extent.width))
            y1 = min(ys[iy + 1] * d, float(extent.height))
            cells.append(CellDensity(scale, ix, iy, BoundingBox(x0, y0, x1 - x0, y1 - y0), density))
        patches.extend(select_patches(cells, threshold, expansion, extent))
    return patches


@st.composite
def grid_cases(draw):
    """Random maps with blocks of 0.0 or -0.0 (where the table's
    cancellation leaves negative residues), grids that need not divide the
    map, and fold steps from one row to the whole map."""
    h, w = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random((h, w)) * 10.0 ** rng.uniform(-6, 2, size=(h, w))
    for _ in range(draw(st.integers(0, 4))):
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        zero = draw(st.sampled_from([0.0, -0.0]))
        values[y0 : y0 + int(rng.integers(1, h + 1)), x0 : x0 + int(rng.integers(1, w + 1))] = zero
    grid = GridSpec(ScaleLevel.TINY, draw(st.integers(1, w)), draw(st.integers(1, h)))
    fold_cells = draw(st.sampled_from([1, 7, 64, 1 << 15]))
    return dmap(values), grid, fold_cells


def zero_set(size, downsample=32.0):
    return DensityMapSet(
        maps=tuple(dmap(np.zeros((size, size)), downsample) for _ in ScaleLevel)
    )


class TestIntegralImage:
    def test_zero_map(self):
        integral = build_integral(dmap(np.zeros((5, 7))))
        assert integral.table.max() == 0.0
        assert integral.rect_sum(0, 0, 7, 5) == 0.0

    def test_ones_full_rectangle(self):
        integral = build_integral(dmap(np.ones((3, 3))))
        assert integral.rect_sum(0, 0, 3, 3) == 9.0

    def test_zero_border_rows(self):
        integral = build_integral(dmap(np.random.default_rng(0).random((6, 4))))
        assert np.all(integral.table[0, :] == 0.0)
        assert np.all(integral.table[:, 0] == 0.0)

    def test_monotone(self):
        integral = build_integral(dmap(np.random.default_rng(1).random((8, 8))))
        assert np.all(np.diff(integral.table, axis=0) >= 0)
        assert np.all(np.diff(integral.table, axis=1) >= 0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        values = rng.random((64, 64))
        integral = build_integral(dmap(values))
        for _ in range(100):
            x0, x1 = sorted(rng.integers(0, 65, size=2))
            y0, y1 = sorted(rng.integers(0, 65, size=2))
            expected = float(values[y0:y1, x0:x1].sum())
            got = integral.rect_sum(int(x0), int(y0), int(x1), int(y1))
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestGridDensities:
    EXTENT = SceneExtent(4096, 4096)

    def test_zero_map(self):
        cells = grid_densities(dmap(np.zeros((128, 128))), GridSpec(ScaleLevel.TINY, 16, 16), self.EXTENT)
        assert len(cells) == 256
        assert all(c.density == 0.0 for c in cells)

    @pytest.mark.parametrize("grid", [1, 3, 7, 16])
    def test_conservation(self, grid):
        rng = np.random.default_rng(3)
        values = rng.random((100, 90))  # non-divisible dims on purpose
        extent = SceneExtent(90 * 32, 100 * 32)
        cells = grid_densities(dmap(values), GridSpec(ScaleLevel.TINY, grid, grid), extent)
        assert sum(c.density for c in cells) == pytest.approx(float(values.sum()), rel=1e-6)

    def test_regions_tile_scene_exactly(self):
        rng = np.random.default_rng(4)
        extent = SceneExtent(4000, 3000)  # not multiples of the downsample
        values = rng.random((94, 125))
        cells = grid_densities(dmap(values), GridSpec(ScaleLevel.TINY, 7, 5), extent)
        assert sum(c.region.area for c in cells) == pytest.approx(extent.area, rel=1e-12)
        # Row-major order, non-overlapping, covering.
        assert cells[0].region.x == 0.0 and cells[0].region.y == 0.0
        last = cells[-1].region
        assert last.right == pytest.approx(extent.width)
        assert last.bottom == pytest.approx(extent.height)

    def test_single_stamp_in_one_cell(self):
        anns = [Annotation(id=0, bbox=BoundingBox(1100, 1100, 90, 90))]
        dset = render_gt_density(anns, self.EXTENT)
        cells = grid_densities(dset[ScaleLevel.TINY], GridSpec(ScaleLevel.TINY, 4, 4), self.EXTENT)
        # Direct-summation oracle per cell region.
        values = dset[ScaleLevel.TINY].values
        hot = [c for c in cells if c.density > 0.9]
        assert len(hot) == 1
        assert hot[0].density == pytest.approx(float(values.sum()), rel=1e-6)

    def test_stamp_straddling_two_cells(self):
        # Center exactly on the vertical midline of a 2x1-ish grid.
        anns = [Annotation(id=0, bbox=BoundingBox(2048 - 45, 1000, 90, 90))]
        dset = render_gt_density(anns, self.EXTENT)
        cells = grid_densities(dset[ScaleLevel.TINY], GridSpec(ScaleLevel.TINY, 2, 1), self.EXTENT)
        densities = sorted(c.density for c in cells)
        assert densities[0] > 0.0 and densities[1] < 1.0
        assert sum(densities) == pytest.approx(1.0, abs=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(grid_cases())
    def test_property_equals_table_rect_sums(self, case):
        dmap_, grid, fold_cells = case
        extent = SceneExtent(dmap_.width * 32, dmap_.height * 32)
        with mock.patch.object(saccade_module, "_FOLD_CELLS", fold_cells):
            cells = grid_densities(dmap_, grid, extent)
        got = np.array([c.density for c in cells])
        assert got.tobytes() == np.array(reference_densities(dmap_, grid)).tobytes()

    def test_map_overrunning_the_scene_is_rejected(self):
        with pytest.raises(ValueError, match="overruns"):
            grid_densities(dmap(np.zeros((8, 8))), GridSpec(ScaleLevel.TINY, 4, 4), SceneExtent(100, 256))

    def test_grid_finer_than_map(self):
        with pytest.raises(ValueError, match="finer"):
            grid_densities(dmap(np.zeros((4, 4))), GridSpec(ScaleLevel.TINY, 8, 8), self.EXTENT)


class TestSelectPatches:
    EXTENT = SceneExtent(1600, 1600)

    def _cells(self, densities, cell=100.0):
        cells = []
        n = int(np.sqrt(len(densities)))
        for iy in range(n):
            for ix in range(n):
                cells.append(
                    CellDensity(
                        scale=ScaleLevel.TINY,
                        ix=ix,
                        iy=iy,
                        region=BoundingBox(ix * cell, iy * cell, cell, cell),
                        density=densities[iy * n + ix],
                    )
                )
        return cells

    def test_all_zero(self):
        assert select_patches(self._cells([0.0] * 16), 0.2, 1.2, self.EXTENT) == []

    def test_one_scored_cell_type(self):
        assert CellDensity is Patch

    def test_selected_cells_keep_all_but_their_region(self):
        cells = self._cells([0.0, 0.5, 0.0, 0.9] + [0.0] * 11 + [0.3])
        patches = select_patches(cells, 0.2, 1.2, self.EXTENT)
        selected = [cells[1], cells[3], cells[15]]
        assert patches == [replace(c, region=expand_and_clip(c.region, 1.2, self.EXTENT)) for c in selected]

    def test_interior_expansion(self):
        cells = self._cells([0.0] * 16)
        cells[5] = CellDensity(ScaleLevel.TINY, 1, 1, BoundingBox(100, 100, 100, 100), 0.5)
        patches = select_patches(cells, 0.2, 1.2, self.EXTENT)
        assert len(patches) == 1
        region = patches[0].region
        assert (region.width, region.height) == (120.0, 120.0)
        assert region.center == (150.0, 150.0)
        assert patches[0].density == 0.5

    def test_threshold_is_strict(self):
        cells = self._cells([0.2] * 16)
        assert select_patches(cells, 0.2, 1.2, self.EXTENT) == []
        kept = select_patches(cells, 0.19999, 1.2, self.EXTENT)
        assert len(kept) == 16

    def test_threshold_zero_keeps_any_mass(self):
        cells = self._cells([0.0, 1e-12, 0.5, 0.0] + [0.0] * 12)
        kept = select_patches(cells, 0.0, 1.2, self.EXTENT)
        assert {(p.ix, p.iy) for p in kept} == {(1, 0), (2, 0)}

    def test_border_patch_clipped_not_recentered(self):
        cells = self._cells([0.9] + [0.0] * 15)
        patch = select_patches(cells, 0.2, 1.2, self.EXTENT)[0]
        assert (patch.region.x, patch.region.y) == (0.0, 0.0)
        assert patch.region.width == pytest.approx(110.0)

    def test_monotone_under_threshold_sweep(self):
        rng = np.random.default_rng(5)
        densities = rng.uniform(0, 1.2, size=64).tolist()
        cells = self._cells(densities)
        prev_keys = None
        for threshold in np.linspace(0, 1.2, 13):
            kept = select_patches(cells, float(threshold), 1.2, self.EXTENT)
            keys = {(p.ix, p.iy) for p in kept}
            brute = {(c.ix, c.iy) for c in cells if c.density > threshold}
            assert keys == brute
            if prev_keys is not None:
                assert keys <= prev_keys
            prev_keys = keys

    def test_output_order(self):
        rng = np.random.default_rng(6)
        densities = rng.uniform(0, 1, size=25).tolist()
        cells = self._cells(densities)
        rng.shuffle(cells)
        patches = select_patches(cells, 0.1, 1.2, self.EXTENT)
        order = [(int(p.scale), p.iy, p.ix) for p in patches]
        assert order == sorted(order)

    def test_validates_arguments(self):
        cells = self._cells([0.5] * 16)
        with pytest.raises(ValueError):
            select_patches(cells, -0.1, 1.2, self.EXTENT)
        with pytest.raises(ValueError):
            select_patches(cells, 0.2, 0.9, self.EXTENT)

    def test_needs_the_scene_extent(self):
        with pytest.raises(ValueError, match="^patch selection requires the scene extent for clipping$"):
            select_patches(self._cells([0.5] * 16), 0.2, 1.2)


# Values PipelineConfig refuses, with its words; a NaN or infinite
# threshold once selected nothing, and an infinite expansion the whole scene.
BAD_SELECTION = [
    ({"threshold": math.nan}, "^threshold must be finite and >= 0, got nan$"),
    ({"threshold": math.inf}, "^threshold must be finite and >= 0, got inf$"),
    ({"threshold": -0.1}, "^threshold must be finite and >= 0, got -0.1$"),
    ({"expansion": math.nan}, "^expansion must be finite and >= 1, got nan$"),
    ({"expansion": math.inf}, "^expansion must be finite and >= 1, got inf$"),
    ({"expansion": 0.9}, "^expansion must be finite and >= 1, got 0.9$"),
]


@pytest.mark.parametrize("bad, message", BAD_SELECTION)
def test_selection_refuses_what_the_config_refuses(small_scene, bad, message):
    annotations, extent = small_scene
    dset = render_gt_density(annotations, extent)
    args = {"threshold": 0.2, "expansion": 1.2, **bad}
    cells = grid_densities(dset[ScaleLevel.TINY], default_grids()[ScaleLevel.TINY], extent)
    with pytest.raises(ConfigError, match=message):
        build_config(overrides=bad)
    with pytest.raises(ConfigError, match=message):
        saccade(dset, extent=extent, **args)
    with pytest.raises(ConfigError, match=message):
        select_patches(cells, extent=extent, **args)


class TestSaccade:
    def test_all_zero_set(self):
        extent = SceneExtent(4096, 4096)
        assert saccade(zero_set(128), extent=extent) == []

    def test_tiny_only_scene(self):
        extent = SceneExtent(8192, 8192)
        anns = [
            Annotation(id=i, bbox=BoundingBox(500 + 700 * i, 3000, 100, 200))
            for i in range(8)
        ]
        dset = render_gt_density(anns, extent)
        patches = saccade(dset, extent=extent)
        assert patches
        assert {p.scale for p in patches} == {ScaleLevel.TINY}
        # Brute-force per-scale check: only the tiny map holds mass.
        for scale in (ScaleLevel.SMALL, ScaleLevel.MIDDLE, ScaleLevel.LARGE):
            assert dset[scale].total_mass() == 0.0

    def test_scales_ordered_tiny_to_large(self, default_scene):
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        scales = [int(p.scale) for p in patches]
        assert scales == sorted(scales)

    def test_default_scene_tiny_cells_bounded(self, default_scene):
        # On the stock 5%-foreground scene the tiny grid keeps at most
        # 26 of its 256 cells. Oracle: brute-force cell sums, no integral.
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        values = dset[ScaleLevel.TINY].values
        h, w = values.shape
        xs = [(i * w) // 16 for i in range(17)]
        ys = [(j * h) // 16 for j in range(17)]
        hot = 0
        for j in range(16):
            for i in range(16):
                if values[ys[j] : ys[j + 1], xs[i] : xs[i + 1]].sum() > 0.2:
                    hot += 1
        assert hot <= 26
        patches = saccade(dset, extent=extent)
        assert sum(1 for p in patches if p.scale is ScaleLevel.TINY) == hot

    def test_coverage_guarantee(self, small_scene):
        # Any cell holding more than the threshold of one annotation's
        # stamp mass must be selected (superposition makes the full-scene
        # cell density at least as large). Oracle: per-annotation solo
        # renders summed per cell.
        annotations, extent = small_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        selected = {(int(p.scale), p.ix, p.iy) for p in patches}
        grids = default_grids()
        from densegaze.core import scale_bucket

        for ann in annotations:
            scale = scale_bucket(ann.bbox)
            solo = render_gt_density([ann], extent)
            for cell in grid_densities(solo[scale], grids[scale], extent):
                if cell.density > 0.2:
                    assert (int(scale), cell.ix, cell.iy) in selected

    def test_stock_scene_matches_reference(self, default_scene):
        annotations, extent = default_scene
        config = PipelineConfig()
        dset = render_gt_density(annotations, extent)
        args = (config.grid_specs(), config.threshold, config.expansion, extent)
        patches = saccade(dset, *args)
        assert patches == reference_saccade(dset, *args)
        assert [p.density for p in patches] == [p.density for p in reference_saccade(dset, *args)]
        assert saccade(dset, args[0], 0.0, 1.5, extent) == reference_saccade(dset, args[0], 0.0, 1.5, extent)

    def test_peak_memory_holds_no_table(self, default_scene):
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        saccade(dset, extent=extent)
        tracemalloc.start()
        try:
            saccade(dset, extent=extent)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_manifest_shape(self, default_scene):
        annotations, extent = default_scene
        dset = render_gt_density(annotations, extent)
        patches = saccade(dset, extent=extent)
        manifest = patch_manifest(patches)
        assert len(manifest) == len(patches)
        row = manifest[0]
        assert set(row) == {"scale", "cell", "region", "density"}
        assert row["scale"] in {"tiny", "small", "middle", "large"}

    @pytest.mark.parametrize("cells", [(0, 4), (4, 0)])
    def test_grid_needs_a_cell(self, cells):
        with pytest.raises(ValueError, match="^grid must have at least one cell"):
            GridSpec(ScaleLevel.TINY, *cells)

    def test_grid_defaults(self):
        grids = default_grids()
        assert [grids[s].cells_x for s in ScaleLevel] == [16, 8, 4, 2]
        assert all(grids[s].cells_x == grids[s].cells_y for s in ScaleLevel)


def cell_keys(patches):
    """Every field of each patch, floats by repr, so -0.0 and 0.0 differ."""
    return [repr((p.scale, p.ix, p.iy, p.region, p.density)) for p in patches]


def reference_footprint(x0, x1, y0, y1, extent):
    """A cell spanning [x0, x1) x [y0, y1) in pixels, clipped to the scene."""
    x1, y1 = min(x1, float(extent.width)), min(y1, float(extent.height))
    return BoundingBox(x0, y0, x1 - x0, y1 - y0)


def reference_sliding_window(extent, grid, expansion):
    """Every (i * W) // grid footprint, grown by expand_and_clip, row-major."""
    w, h = extent.width, extent.height
    patches = []
    for iy in range(grid):
        for ix in range(grid):
            x0, x1 = float(ix * w // grid), float((ix + 1) * w // grid)
            y0, y1 = float(iy * h // grid), float((iy + 1) * h // grid)
            region = expand_and_clip(reference_footprint(x0, x1, y0, y1, extent), expansion, extent)
            patches.append(Patch(ScaleLevel.TINY, ix, iy, region, 0.0))
    return patches


@pytest.fixture(params=["stock", "crowd"])
def scene_maps(request):
    """The rendered maps and extent of the stock scene or the 1k crowd."""
    if request.param == "stock":
        _, extent = request.getfixturevalue("default_scene")
        return request.getfixturevalue("default_run").density, extent
    _, extent, run = request.getfixturevalue("noisy_crowd")
    return run.density, extent


class TestOneCellBuilder:
    """grid_densities, saccade and sliding_window_patches build each cell's
    patch by one rule: the footprint, clipped, then grown if selected."""

    @pytest.mark.parametrize("expansion", [1.0, 1.2, 1.5])
    @pytest.mark.parametrize("threshold", [0.0, 0.2, 1.5])
    def test_saccade_equals_selection_over_grid_densities(self, scene_maps, threshold, expansion):
        dset, extent = scene_maps
        grids = default_grids()
        patches = saccade(dset, grids, threshold, expansion, extent)
        cells = [cell for s in ScaleLevel for cell in grid_densities(dset[s], grids[s], extent)]
        assert patches
        assert cell_keys(patches) == cell_keys(select_patches(cells, threshold, expansion, extent))

    @pytest.mark.parametrize("cells", [(16, 16), (7, 5), (1, 1), (13, 2)])
    def test_grid_density_regions_are_clipped_footprints(self, scene_maps, cells):
        dset, extent = scene_maps
        for scale in ScaleLevel:
            dmap_, grid = dset[scale], GridSpec(scale, *cells)
            d = dmap_.downsample
            xs = [(i * dmap_.width) // grid.cells_x for i in range(grid.cells_x + 1)]
            ys = [(j * dmap_.height) // grid.cells_y for j in range(grid.cells_y + 1)]
            expected = []
            for iy in range(grid.cells_y):
                for ix in range(grid.cells_x):
                    region = reference_footprint(xs[ix] * d, xs[ix + 1] * d, ys[iy] * d, ys[iy + 1] * d, extent)
                    expected.append(repr((scale, ix, iy, region)))
            got = grid_densities(dmap_, grid, extent)
            assert [repr((c.scale, c.ix, c.iy, c.region)) for c in got] == expected

    @pytest.mark.parametrize("expansion", [1.0, 1.2, 1.5])
    @pytest.mark.parametrize("grid", [1, 2, 7, 8, 16])
    @pytest.mark.parametrize(
        "extent",
        [SceneExtent(26368, 14976), SceneExtent(1003, 911), SceneExtent(100000, 80000), SceneExtent(17, 16)],
        ids=str,
    )
    def test_sliding_window_equals_reference(self, extent, grid, expansion):
        got = sliding_window_patches(extent, grid, expansion)
        assert cell_keys(got) == cell_keys(reference_sliding_window(extent, grid, expansion))

    def test_sliding_window_at_one_pixel_per_cell(self):
        extent = SceneExtent(7, 5)
        got = sliding_window_patches(extent, 5, expansion=1.0)
        assert cell_keys(got) == cell_keys(reference_sliding_window(extent, 5, 1.0))
        assert min(p.region.width for p in got) == 1.0 and min(p.region.height for p in got) == 1.0

    @pytest.mark.parametrize("extent, grid", [(SceneExtent(7, 5), 7), (SceneExtent(5, 7), 6), (SceneExtent(3, 3), 4)])
    def test_sliding_window_refuses_a_grid_finer_than_the_scene(self, extent, grid):
        message = f"^grid {grid}x{grid} is finer than the {extent.width}x{extent.height} scene$"
        with pytest.raises(ConfigError, match=message):
            sliding_window_patches(extent, grid)
        with pytest.raises(ConfigError, match=message):
            sliding_window_run(extent, grid, OracleDetector([]), (8, 8))

    def test_pipeline_keeps_the_sliding_window_name(self):
        pipeline = importlib.import_module("densegaze.pipeline")
        assert pipeline.sliding_window_patches is sliding_window_patches


class TestMapCoverage:
    """A map must have the ceil(extent / downsample) cells per axis that
    render_gt_density makes for the scene."""

    # 125 x 94 cells at downsample 32; TestGridDensities takes that map.
    EXTENT = SceneExtent(4000, 3000)

    @pytest.mark.parametrize("shape", [(94, 124), (93, 125), (1, 1)])
    def test_grid_densities_refuses_a_map_short_of_the_scene(self, shape):
        h, w = shape
        message = f"^{w}x{h} map at downsample 32.0 falls short of the 4000x3000 scene$"
        with pytest.raises(ValueError, match=message):
            grid_densities(dmap(np.zeros(shape)), GridSpec(ScaleLevel.TINY, 1, 1), self.EXTENT)

    def test_saccade_refuses_a_map_short_of_the_scene(self, default_scene):
        annotations, extent = default_scene
        inside = [a for a in annotations if a.bbox.right <= 8192 and a.bbox.bottom <= 8192]
        corner = render_gt_density(inside, SceneExtent(8192, 8192))
        assert sum(corner[s].total_mass() for s in ScaleLevel) > 0
        with pytest.raises(ValueError, match="^256x256 map at downsample 32.0 falls short of the 26368x14976 scene$"):
            saccade(corner, extent=extent)


@st.composite
def sized_scenes(draw, smallest=1):
    """Scenes of up to 160 map cells a side at each tested downsample, one
    of them a ratio rounded down, with sides of at least smallest cells."""
    downsample = draw(st.sampled_from([1, 7.5, 32.0, 64.0, math.nextafter(1112 / 15, 0)]))
    side = st.integers(int((smallest - 1) * downsample) + 1, int(160 * downsample))
    return SceneExtent(draw(side), draw(side)), downsample


class TestExactMapSize:
    """A map must be exactly map_size of its scene: one column or row more
    overruns it, and one fewer on either axis falls short of it."""

    @staticmethod
    def message(shape, downsample, extent, verb):
        h, w = shape
        return f"^{re.escape(f'{w}x{h} map at downsample {downsample} {verb} the {extent.width}x{extent.height} scene')}$"

    @settings(max_examples=30, deadline=None)
    @given(sized_scenes())
    def test_a_grid_as_fine_as_the_map_gives_every_cell_an_area(self, case):
        extent, downsample = case
        w, h = map_size(extent, downsample)
        cells = grid_densities(dmap(np.zeros((h, w)), downsample), GridSpec(ScaleLevel.TINY, w, h), extent)
        assert len(cells) == w * h
        assert all(c.region.width > 0 and c.region.height > 0 for c in cells)

    @settings(max_examples=100, deadline=None)
    @given(sized_scenes(smallest=2), st.sampled_from([(0, 1), (1, 0), (1, 1)]))
    def test_an_extra_row_or_column_overruns(self, case, extra):
        extent, downsample = case
        w, h = map_size(extent, downsample)
        shape = (h + extra[0], w + extra[1])
        with pytest.raises(ValueError, match=self.message(shape, downsample, extent, "overruns")):
            grid_densities(dmap(np.zeros(shape), downsample), GridSpec(ScaleLevel.TINY, 1, 1), extent)

    @settings(max_examples=100, deadline=None)
    @given(sized_scenes(smallest=2), st.sampled_from([(0, -1), (-1, 0), (-1, -1), (1, -1), (-1, 1)]))
    def test_a_missing_row_or_column_falls_short(self, case, missing):
        extent, downsample = case
        w, h = map_size(extent, downsample)
        shape = (h + missing[0], w + missing[1])
        with pytest.raises(ValueError, match=self.message(shape, downsample, extent, "falls short of")):
            grid_densities(dmap(np.zeros(shape), downsample), GridSpec(ScaleLevel.TINY, 1, 1), extent)

    def test_a_grid_as_fine_as_a_rounded_map_is_accepted(self):
        extent, downsample = SceneExtent(1112, 1112), math.nextafter(1112 / 15, 0)
        tiny = render_gt_density([], extent, downsample)[ScaleLevel.TINY]
        assert len(grid_densities(tiny, GridSpec(ScaleLevel.TINY, 15, 15), extent)) == 225
        with pytest.raises(ValueError, match=self.message((16, 16), downsample, extent, "overruns")):
            grid_densities(dmap(np.zeros((16, 16)), downsample), GridSpec(ScaleLevel.TINY, 16, 16), extent)

    def test_saccade_refuses_the_stock_map_for_a_narrower_scene(self):
        stock = render_gt_density([], SceneExtent(26368, 14976))
        with pytest.raises(ValueError, match="^824x468 map at downsample 32.0 overruns the 25000x14976 scene$"):
            saccade(stock, extent=SceneExtent(25000, 14976))
