import errno
import math
import mmap
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densegaze.core import Annotation, BoundingBox, ScaleLevel, SceneExtent, scale_bucket
from densegaze.density import (
    DensityMap,
    DensityMapSet,
    DmapDimensionError,
    DmapMagicError,
    DmapPlaneCountError,
    DmapTruncatedError,
    DmapValueError,
    DmapVersionError,
    apply_count_scale,
    invert_count_scale,
    map_size,
    read_dmap,
    render_gt_density,
    scale_aware_loss,
    sigma_for,
    write_dmap,
)
from densegaze.synth import SceneSpec, generate_scene

EXTENT = SceneExtent(4096, 4096)


def ann(x, y, w, h, ann_id=0):
    return Annotation(id=ann_id, bbox=BoundingBox(x, y, w, h))


def reference_stamp(center, sigma):
    """The per-stamp kernel: sigma clamped to 1, support ceil(3 sigma),
    evaluated at cell centers and renormalized to unit mass."""
    sigma = max(float(sigma), 1.0)
    radius = int(math.ceil(3.0 * sigma))
    cx, cy = center
    ix = math.floor(cx)
    iy = math.floor(cy)
    xs = np.arange(ix - radius, ix + radius + 1, dtype=np.float64) + 0.5 - cx
    ys = np.arange(iy - radius, iy + radius + 1, dtype=np.float64) + 0.5 - cy
    kernel = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    return ix - radius, iy - radius, kernel


def reference_render(annotations, extent, downsample=32.0, boundaries=(800.0, 1600.0, 3200.0)):
    """render_gt_density one annotation at a time: a stamp added to its
    bucket's plane with one clipped slice +=, in annotation order."""
    map_w = int(math.ceil(extent.width / downsample))
    map_h = int(math.ceil(extent.height / downsample))
    planes = [np.zeros((map_h, map_w), dtype=np.float64) for _ in ScaleLevel]
    for ann in annotations:
        cx, cy = ann.bbox.center
        if not (0.0 <= cx <= extent.width and 0.0 <= cy <= extent.height):
            raise ValueError(
                f"annotation {ann.id} center ({cx:.1f}, {cy:.1f}) lies outside the scene"
            )
        sigma_map = sigma_for(ann.bbox) / downsample
        x0, y0, k = reference_stamp((cx / downsample, cy / downsample), sigma_map)
        plane = planes[int(scale_bucket(ann.bbox, boundaries))]
        kh, kw = k.shape
        ax0, ay0 = max(x0, 0), max(y0, 0)
        ax1, ay1 = min(x0 + kw, map_w), min(y0 + kh, map_h)
        if ax0 < ax1 and ay0 < ay1:
            plane[ay0:ay1, ax0:ax1] += k[ay0 - y0 : ay1 - y0, ax0 - x0 : ax1 - x0]
    return planes


def assert_renders_like_reference(
    annotations, extent, downsample=32.0, boundaries=(800.0, 1600.0, 3200.0)
):
    """render_gt_density and reference_render give bit-identical planes, or
    raise the same ValueError; True when planes were compared."""
    try:
        expected = reference_render(annotations, extent, downsample, boundaries)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            render_gt_density(annotations, extent, downsample, boundaries)
        return False
    dset = render_gt_density(annotations, extent, downsample, boundaries)
    for scale in ScaleLevel:
        assert dset[scale].values.tobytes() == expected[int(scale)].tobytes()
    return True


@st.composite
def render_cases(draw):
    """Small rasters at each tested downsample with stamps below the sigma
    clamp, with radii past 100 cells, clipped at every scene edge, and
    stacked on one another; boundaries scaled so every bucket occurs."""
    downsample = draw(st.sampled_from([1, 7.5, 32.0, 64.0]))
    width = draw(st.integers(1, int(160 * downsample)))
    height = draw(st.integers(1, int(160 * downsample)))
    extent = SceneExtent(width, height)
    # Quarter-pixel grid: x + w / 2 gives back the drawn center exactly.
    side = st.one_of(st.integers(2, int(12 * downsample)), st.integers(2, int(1320 * downsample)))
    annotations = []
    for i in range(draw(st.integers(0, 12))):
        cx, cy = draw(st.integers(0, 4 * width)) / 4.0, draw(st.integers(0, 4 * height)) / 4.0
        w, h = draw(side) / 4.0, draw(side) / 4.0
        annotations += [Annotation(id=i, bbox=BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h))] * draw(
            st.integers(1, 3)
        )
    b0 = draw(st.floats(1.0, 100.0 * downsample))
    boundaries = (b0, 2.0 * b0, 4.0 * b0)
    return annotations, extent, downsample, boundaries


def random_map_set(rng, size=16, downsample=32.0):
    return DensityMapSet(
        maps=tuple(
            DensityMap(values=rng.random((size, size)), downsample=downsample)
            for _ in ScaleLevel
        )
    )


class TestSigma:
    def test_direct_rule(self):
        assert sigma_for(BoundingBox(0, 0, 90, 30)) == 30

    def test_floor_division(self):
        assert sigma_for(BoundingBox(0, 0, 10, 7)) == 3

    def test_clamped_to_one(self):
        assert sigma_for(BoundingBox(0, 0, 2, 2)) == 1


def one_stamp(center, sigma):
    """render_gt_density of one annotation, on 10-pixel map cells, whose
    blob has the given sigma (map cells, one decimal) and sits at the
    given center (map cells) moved 200 cells in from the borders.

    Returns the annotation's plane, the blob center and the sigma that
    the render used, in map cells.
    """
    downsample = 10.0
    side = round(sigma * downsample) * 3  # sigma_for(box) == side // 3
    cx, cy = (round(c * downsample) + 2000 for c in center)
    box = BoundingBox(cx - side / 2.0, cy - side / 2.0, side, side)
    dset = render_gt_density([Annotation(0, box)], SceneExtent(5000, 5000), downsample)
    plane = dset[scale_bucket(box)].values
    cx, cy = box.center
    return plane, (cx / downsample, cy / downsample), sigma_for(box) / downsample


class TestStamp:
    def test_unit_mass(self):
        for sigma in (1.0, 2.5, 7.0):
            plane, _, _ = one_stamp((100.3, 50.7), sigma)
            assert abs(plane.sum() - 1.0) < 1e-9

    def test_truncation_radius(self):
        plane, _, _ = one_stamp((10.0, 10.0), 2.4)
        rows, cols = np.nonzero(plane)
        # ceil(3 * 2.4) = 8 cells on each side of the center cell.
        assert (rows.max() - rows.min() + 1, cols.max() - cols.min() + 1) == (17, 17)

    def test_sigma_floor(self):
        floor, _, sigma = one_stamp((5.0, 5.0), 0.1)
        assert sigma == 0.1
        assert floor.tobytes() == one_stamp((5.0, 5.0), 1.0)[0].tobytes()

    @pytest.mark.parametrize("center,sigma", [((100.3, 50.7), 1.0), ((0.0, 7.5), 0.2), ((3.9, 2.0), 41.7)])
    def test_matches_reference_stamp(self, center, sigma):
        plane, used_center, used_sigma = one_stamp(center, sigma)
        assert used_sigma == sigma
        x0, y0, kernel = reference_stamp(used_center, used_sigma)
        expected = np.zeros_like(plane)
        expected[y0 : y0 + kernel.shape[0], x0 : x0 + kernel.shape[1]] = kernel
        assert plane.tobytes() == expected.tobytes()


class TestRender:
    def test_empty_scene(self):
        dset = render_gt_density([], EXTENT)
        for scale in ScaleLevel:
            assert dset[scale].total_mass() == 0.0
        assert dset.width == 128 and dset.height == 128

    @pytest.mark.parametrize("downsample", [0.5, math.inf, math.nan])
    def test_rejects_a_bad_downsample(self, downsample):
        with pytest.raises(ValueError, match=r"^downsample must be finite and >= 1, got "):
            render_gt_density([ann(2000, 2000, 90, 30)], EXTENT, downsample)

    def test_single_box_unit_mass(self):
        # 90x30 box well inside: all mass lands on the tiny map.
        dset = render_gt_density([ann(2000, 2000, 90, 30)], EXTENT)
        assert dset[ScaleLevel.TINY].total_mass() == pytest.approx(1.0, abs=1e-3)
        for scale in (ScaleLevel.SMALL, ScaleLevel.MIDDLE, ScaleLevel.LARGE):
            assert dset[scale].total_mass() == 0.0

    def test_fifty_separated_boxes(self):
        anns = []
        for i in range(50):
            x = 300 + (i % 10) * 350
            y = 300 + (i // 10) * 700
            anns.append(ann(x, y, 60, 120, ann_id=i))
        dset = render_gt_density(anns, EXTENT)
        assert dset[ScaleLevel.TINY].total_mass() == pytest.approx(50.0, abs=0.5)
        for scale in (ScaleLevel.SMALL, ScaleLevel.MIDDLE, ScaleLevel.LARGE):
            assert dset[scale].total_mass() == 0.0

    def test_routes_by_scale_bucket(self):
        extent = SceneExtent(30000, 30000)
        anns = [
            ann(14000, 14000, 700, 700, 0),
            ann(4000, 14000, 1000, 1000, 1),
            ann(14000, 4000, 2000, 2000, 2),
            ann(20000, 20000, 4000, 4000, 3),
        ]
        dset = render_gt_density(anns, extent)
        for scale in ScaleLevel:
            assert dset[scale].total_mass() == pytest.approx(1.0, rel=0.01)

    def test_rejects_center_outside(self):
        # Constructed directly (ingestion would have clipped it).
        out = Annotation(id=0, bbox=BoundingBox(4090, 4090, 100, 100))
        with pytest.raises(ValueError, match="outside"):
            render_gt_density([out], EXTENT)

    def test_superposition(self):
        rng = np.random.default_rng(11)
        group_a = [ann(float(x), float(y), 50, 100, i)
                   for i, (x, y) in enumerate(rng.integers(200, 1800, size=(20, 2)))]
        group_b = [ann(float(x), float(y), 50, 100, 100 + i)
                   for i, (x, y) in enumerate(rng.integers(2200, 3800, size=(20, 2)))]
        both = render_gt_density(group_a + group_b, EXTENT)
        sep_a = render_gt_density(group_a, EXTENT)
        sep_b = render_gt_density(group_b, EXTENT)
        for scale in ScaleLevel:
            np.testing.assert_allclose(
                both[scale].values, sep_a[scale].values + sep_b[scale].values, rtol=1e-9, atol=1e-15
            )

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        anns = [ann(float(x), float(y), 80, 160, i)
                for i, (x, y) in enumerate(rng.integers(300, 3700, size=(30, 2)))]
        shuffled = list(anns)
        rng.shuffle(shuffled)
        a = render_gt_density(anns, EXTENT)
        b = render_gt_density(shuffled, EXTENT)
        for scale in ScaleLevel:
            np.testing.assert_allclose(a[scale].values, b[scale].values, rtol=1e-6, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(render_cases())
    def test_property_matches_reference(self, case):
        assert_renders_like_reference(*case)

    @pytest.mark.parametrize("downsample", [1, 7.5, 32.0, 64.0])
    def test_edges_clamp_and_wide_stamps_match_reference(self, downsample):
        extent = SceneExtent(int(150 * downsample), int(110 * downsample))
        w, h = extent.width, extent.height
        big, tiny = 330.0 * downsample, 0.5 * downsample
        boxes = [
            (0.0, 0.0, big),  # radius >= 100 cells, clipped at the top-left corner
            (w, h, big),
            (w / 2.0, 0.0, tiny),  # below the sigma clamp, on the top edge
            (0.0, h / 2.0, 20.0 * downsample),
            (w, h / 3.0, 9.0 * downsample),
            (w / 3.0, h, 2.0 * downsample),
            (w / 2.0, h / 2.0, 6.0 * downsample),
            (w / 2.0, h / 2.0, 6.0 * downsample),  # co-located with the previous box
            (w / 2.0 + 0.3, h / 2.0, 7.0 * downsample),
            (w / 4.0, h / 4.0, 10.0 * downsample),  # sides on the bucket boundaries
            (w / 4.0, h / 4.0, 50.0 * downsample),
        ]
        anns = [
            ann(x - side / 2.0, y - side / 2.0, side, side, i) for i, (x, y, side) in enumerate(boxes)
        ]
        boundaries = (10.0 * downsample, 50.0 * downsample, 200.0 * downsample)
        assert assert_renders_like_reference(anns, extent, downsample, boundaries)

    def test_scenes_match_reference(self, default_scene, noisy_crowd):
        for annotations, extent in (default_scene, noisy_crowd[:2]):
            assert assert_renders_like_reference(annotations, extent)

    def test_first_outside_annotation_is_named(self):
        anns = [ann(100, 100, 50, 50, 3), ann(4090, 10, 100, 100, 7), ann(-90, 10, 100, 100, 9)]
        with pytest.raises(ValueError, match="^annotation 7 center"):
            render_gt_density(anns, EXTENT)

    def test_boundaries_checked_as_scale_bucket_checks_them(self):
        bad = (800.0, 800.0, 3200.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            render_gt_density([ann(100, 100, 50, 50)], EXTENT, boundaries=bad)
        # As one annotation at a time: an outside first annotation is
        # reported before the boundaries, and no annotations check nothing.
        with pytest.raises(ValueError, match="outside"):
            render_gt_density([ann(4090, 10, 100, 100)], EXTENT, boundaries=bad)
        assert render_gt_density([], EXTENT, boundaries=bad).width == 128

    def test_peak_memory_is_the_planes_plus_one_chunk(self, default_scene):
        # The planes are a mapping that tracemalloc does not see, so the
        # traced peak is the render's own working memory: one chunk's
        # kernels and windows, and a few columns per annotation.
        rung_5k = generate_scene(
            SceneSpec(object_count=5000, foreground_fraction_target=0.10, size_gradient=(16.0, 3264.0))
        )
        for annotations, extent in (default_scene, rung_5k):
            render_gt_density(annotations, extent)
            tracemalloc.start()
            try:
                render_gt_density(annotations, extent)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6

    def test_renders_share_no_memory(self, default_scene):
        annotations, extent = default_scene
        first, second = render_gt_density(annotations, extent), render_gt_density(annotations, extent)
        expected = [second[scale].values.tobytes() for scale in ScaleLevel]
        for scale in ScaleLevel:
            assert not np.shares_memory(first[scale].values, second[scale].values)
            first[scale].values += 1.0
        assert [second[scale].values.tobytes() for scale in ScaleLevel] == expected
        del first
        fresh = render_gt_density(annotations, extent)
        assert [fresh[scale].values.tobytes() for scale in ScaleLevel] == expected

    @pytest.mark.parametrize("platform", ["advice refused", "write advice refused", "no private mapping"])
    def test_every_allocation_path_renders_like_reference(self, default_scene, monkeypatch, platform):
        if platform != "no private mapping":
            refused = []

            class RefusingMap(mmap.mmap):
                def madvise(self, advice, *args):
                    if platform == "advice refused" or advice == 23:  # MADV_POPULATE_WRITE
                        refused.append(advice)
                        raise OSError(errno.EINVAL, "advice refused")
                    return super().madvise(advice, *args)

            monkeypatch.setattr(mmap, "mmap", RefusingMap)
        else:
            monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        assert assert_renders_like_reference(*default_scene)
        if platform == "write advice refused" and sys.platform == "linux":
            assert refused and set(refused) == {23}

    @pytest.mark.skipif(sys.platform != "linux", reason="write advice is sent on Linux")
    def test_write_advice_names_the_pages_the_stamps_write(self, default_scene, monkeypatch):
        # The stamps' rows span at most two pages here, so the runs advised
        # for writing cover exactly the pages the reference render writes,
        # and no page a stamp leaves alone becomes resident.
        annotations, extent = default_scene
        advised = set()

        class RecordingMap(mmap.mmap):
            def madvise(self, advice, start=0, length=0):
                if advice == 23:  # MADV_POPULATE_WRITE
                    advised.update(range(start // mmap.PAGESIZE, -(-(start + length) // mmap.PAGESIZE)))
                return super().madvise(advice, start, length)

        monkeypatch.setattr(mmap, "mmap", RecordingMap)
        render_gt_density(annotations, extent)
        map_w, map_h = math.ceil(extent.width / 32.0), math.ceil(extent.height / 32.0)
        written = set()
        for a in annotations:
            cx, cy = a.bbox.center
            x0, y0, k = reference_stamp((cx / 32.0, cy / 32.0), sigma_for(a.bbox) / 32.0)
            ax0, ax1 = max(x0, 0), min(x0 + k.shape[1], map_w)
            for row in range(max(y0, 0), min(y0 + k.shape[0], map_h)) if ax0 < ax1 else ():
                first = (int(scale_bucket(a.bbox)) * map_h + row) * map_w
                written.update(range((first + ax0) * 8 // mmap.PAGESIZE, ((first + ax1) * 8 - 1) // mmap.PAGESIZE + 1))
        assert advised == written

    def test_an_impossible_raster_fails_as_np_zeros_fails(self):
        extent = SceneExtent(10**12, 10**12)
        side = math.ceil(extent.width / 32.0)
        with pytest.raises(ValueError) as expected:
            np.zeros((len(ScaleLevel), side, side))
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            render_gt_density([], extent)

    @pytest.mark.skipif(sys.platform != "linux", reason="untouched pages stay unresident on Linux")
    def test_whole_slide_memory_follows_the_stamps(self):
        # A 100,000 x 80,000 scene: about 250 MB of planes, few of whose
        # rows receive a stamp. The child's peak resident size may grow
        # by the rows stamped and the saccade's working memory only. The
        # peak is VmHWM, the child's own: ru_maxrss keeps this process's
        # peak across the child's exec.
        child = textwrap.dedent(
            """
            from densegaze.config import PipelineConfig
            from densegaze.pipeline import select
            from densegaze.synth import build_scene_spec, generate_scene

            def peak_kb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

            spec = {"width": 100000, "height": 80000, "object_count": 2000,
                    "foreground_fraction_target": 0.01, "seed": 0}
            annotations, extent = generate_scene(build_scene_spec(None, spec))
            before = peak_kb()
            select(annotations, extent, PipelineConfig())
            print(peak_kb() - before)
            """
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 < 25.0

    def test_mass_conservation_away_from_borders(self):
        # Stamps at least 3 sigma from every border: mass equals count to 1%.
        rng = np.random.default_rng(5)
        extent = SceneExtent(60000, 40000)
        anns = []
        sides = {ScaleLevel.TINY: (100, 700), ScaleLevel.SMALL: (900, 1500),
                 ScaleLevel.MIDDLE: (1700, 3100), ScaleLevel.LARGE: (3300, 4200)}
        i = 0
        for scale, (lo, hi) in sides.items():
            for _ in range(40):
                side = float(rng.uniform(lo, hi))
                margin = 3.0 * (side / 3.0) + side / 2.0 + 64
                x = float(rng.uniform(margin, extent.width - margin))
                y = float(rng.uniform(margin, extent.height - margin))
                anns.append(ann(x - side / 2, y - side / 2, side, side, i))
                i += 1
        dset = render_gt_density(anns, extent)
        for scale in ScaleLevel:
            assert dset[scale].total_mass() == pytest.approx(40.0, rel=0.01)


# 1112 / 15 rounded down: the 16th of ceil(1112 / d) cells would start on the scene edge.
ROUNDED_DOWNSAMPLE = math.nextafter(1112 / 15, 0)


@st.composite
def map_size_cases(draw):
    """Scenes of up to 160 map cells a side at each tested downsample,
    one of them a ratio rounded down."""
    downsample = draw(st.sampled_from([1, 7.5, 32.0, 64.0, ROUNDED_DOWNSAMPLE]))
    side = st.integers(1, int(160 * downsample))
    return SceneExtent(draw(side), draw(side)), downsample


class TestMapSize:
    @settings(max_examples=200, deadline=None)
    @given(map_size_cases())
    def test_render_makes_maps_of_map_size(self, case):
        extent, downsample = case
        dset = render_gt_density([], extent, downsample)
        assert (dset.width, dset.height) == map_size(extent, downsample)

    @settings(max_examples=200, deadline=None)
    @given(map_size_cases())
    def test_every_cell_starts_inside_the_scene(self, case):
        extent, downsample = case
        for cells, side in zip(map_size(extent, downsample), (extent.width, extent.height)):
            assert (cells - 1) * downsample < side
            assert cells in (math.ceil(side / downsample), math.ceil(side / downsample) - 1)

    def test_a_last_cell_rounded_onto_the_edge_is_dropped(self):
        extent = SceneExtent(1112, 1112)
        assert ROUNDED_DOWNSAMPLE == 74.13333333333333
        assert math.ceil(1112 / ROUNDED_DOWNSAMPLE) == 16 and 15 * ROUNDED_DOWNSAMPLE >= 1112
        assert map_size(extent, ROUNDED_DOWNSAMPLE) == (15, 15)
        dset = render_gt_density([], extent, ROUNDED_DOWNSAMPLE)
        assert (dset.width, dset.height) == (15, 15)

    def test_stock_scene(self):
        assert map_size(SceneExtent(26368, 14976), 32.0) == (824, 468)
        assert map_size(SceneExtent(25000, 14976), 32.0) == (782, 468)

    @pytest.mark.parametrize("downsample", [0, -1, 0.5, math.inf, math.nan])
    def test_rejects_a_bad_downsample(self, downsample):
        with pytest.raises(ValueError, match=r"^downsample must be finite and >= 1, got "):
            map_size(EXTENT, downsample)


class TestScaleAwareLoss:
    def test_identical_is_zero(self):
        dset = random_map_set(np.random.default_rng(0))
        assert scale_aware_loss(dset, dset) == 0.0

    def test_constant_offset_closed_form(self):
        rng = np.random.default_rng(1)
        gt = random_map_set(rng)
        c = 0.37
        pred_maps = list(gt.maps)
        pred_maps[0] = DensityMap(values=gt.maps[0].values + c, downsample=gt.downsample)
        pred = DensityMapSet(maps=tuple(pred_maps))
        # Brute-force oracle over every cell.
        expected = 0.0
        alphas = (0.01, 0.1, 10.0, 100.0)
        for s in ScaleLevel:
            diff = pred[s].values - gt[s].values
            expected += alphas[int(s)] * float(np.sum(diff**2)) / diff.size
        loss = scale_aware_loss(pred, gt)
        assert loss == pytest.approx(0.01 * c * c, rel=1e-12)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_zero_pred_vs_single_object(self):
        extent = SceneExtent(30000, 30000)
        gt = render_gt_density([ann(14000, 14000, 2000, 2000)], extent)
        zero = DensityMapSet(
            maps=tuple(
                DensityMap(values=np.zeros_like(gt[s].values), downsample=gt.downsample)
                for s in ScaleLevel
            )
        )
        expected = 10.0 * float(np.mean(gt[ScaleLevel.MIDDLE].values ** 2))
        assert scale_aware_loss(zero, gt) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pred = random_map_set(rng, size=64)
            gt = random_map_set(rng, size=64)
            brute = sum(
                (0.01, 0.1, 10.0, 100.0)[int(s)]
                * float(np.mean((pred[s].values - gt[s].values) ** 2))
                for s in ScaleLevel
            )
            assert scale_aware_loss(pred, gt) == pytest.approx(brute, rel=1e-9)

    def test_symmetry_and_alpha_linearity(self):
        rng = np.random.default_rng(4)
        pred = random_map_set(rng)
        gt = random_map_set(rng)
        assert scale_aware_loss(pred, gt) == pytest.approx(scale_aware_loss(gt, pred), rel=1e-12)
        for idx in range(4):
            alphas = [0.0, 0.0, 0.0, 0.0]
            alphas[idx] = 1.0
            base = scale_aware_loss(pred, gt, tuple(alphas))
            alphas[idx] = 7.5
            assert scale_aware_loss(pred, gt, tuple(alphas)) == pytest.approx(7.5 * base, rel=1e-12)

    def test_rejects_a_wrong_alpha_count(self):
        dset = render_gt_density([ann(2000, 2000, 90, 30)], EXTENT)
        with pytest.raises(ValueError, match="^expected 4 alpha weights, got 3$"):
            scale_aware_loss(dset, dset, (1.0, 1.0, 1.0))

    def test_geometry_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="geometry"):
            scale_aware_loss(random_map_set(rng, size=16), random_map_set(rng, size=8))


class TestCountScale:
    def test_round_trip_tight(self):
        rng = np.random.default_rng(7)
        dmap = DensityMap(values=rng.random((32, 32)), downsample=32.0)
        back = invert_count_scale(apply_count_scale(dmap, 1000.0), 1000.0)
        np.testing.assert_allclose(back.values, dmap.values, rtol=1e-12)

    def test_zero_map(self):
        dmap = DensityMap(values=np.zeros((8, 8)), downsample=32.0)
        assert apply_count_scale(dmap, 123.0).total_mass() == 0.0

    def test_scaled_stamp_mass(self):
        dset = render_gt_density([ann(2000, 2000, 90, 30)], EXTENT)
        scaled = apply_count_scale(dset[ScaleLevel.TINY], 1000.0)
        assert scaled.total_mass() == pytest.approx(1000.0, abs=1.0)

    def test_composition(self):
        rng = np.random.default_rng(8)
        dmap = DensityMap(values=rng.random((16, 16)), downsample=32.0)
        once = apply_count_scale(dmap, 6.0)
        np.testing.assert_allclose(
            apply_count_scale(once, 7.0).values,
            apply_count_scale(dmap, 42.0).values,
            rtol=1e-12,
        )

    def test_rejects_non_positive(self):
        dmap = DensityMap(values=np.zeros((4, 4)), downsample=32.0)
        with pytest.raises(ValueError):
            apply_count_scale(dmap, 0.0)
        with pytest.raises(ValueError):
            invert_count_scale(dmap, -2.0)


class TestDmapFormat:
    def _f32_set(self, rng, size=12):
        return DensityMapSet(
            maps=tuple(
                DensityMap(
                    values=rng.random((size, size)).astype(np.float32).astype(np.float64),
                    downsample=32.0,
                )
                for _ in ScaleLevel
            )
        )

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        dset = self._f32_set(rng)
        path = tmp_path / "maps.dmap"
        write_dmap(dset, path)
        loaded = read_dmap(path)
        for scale in ScaleLevel:
            assert np.array_equal(loaded[scale].values, dset[scale].values)
        assert loaded.downsample == dset.downsample

    def test_rewrite_is_stable(self, tmp_path):
        # Rendered f64 maps quantize to f32 once; after that the file is fixed.
        dset = render_gt_density([ann(2000, 2000, 90, 30)], EXTENT)
        p1, p2 = tmp_path / "a.dmap", tmp_path / "b.dmap"
        write_dmap(dset, p1)
        write_dmap(read_dmap(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XMAP"
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapMagicError):
            read_dmap(path)

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapVersionError):
            read_dmap(path)

    def test_wrong_plane_count(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapPlaneCountError):
            read_dmap(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(DmapTruncatedError):
            read_dmap(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "maps.dmap"
        path.write_bytes(b"DMAP\x01")
        with pytest.raises(DmapTruncatedError):
            read_dmap(path)

    def test_dimension_overflow(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<I", 2**31)
        blob[16:20] = struct.pack("<I", 2**31)
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapDimensionError):
            read_dmap(path)

    @pytest.mark.parametrize("downsample", [0.5, math.inf, math.nan])
    def test_invalid_downsample_rejected(self, tmp_path, downsample):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[20:28] = struct.pack("<d", downsample)
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapDimensionError, match="invalid downsample"):
            read_dmap(path)

    def test_write_refuses_a_plane_beyond_float32(self, tmp_path):
        values = [np.zeros((2, 2)) for _ in ScaleLevel]
        values[ScaleLevel.SMALL][1, 0] = 1e39
        dset = DensityMapSet(maps=tuple(DensityMap(values=v, downsample=32.0) for v in values))
        path = tmp_path / "maps.dmap"
        with pytest.raises(ValueError, match="^small density map has values beyond float32 range$"):
            write_dmap(dset, path)
        assert not path.exists()

    def test_negative_values_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[28:32] = struct.pack("<f", -1.0)
        path.write_bytes(bytes(blob))
        with pytest.raises(DmapValueError):
            read_dmap(path)


    def test_nan_plane_rejected_naming_the_file(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "maps.dmap"
        write_dmap(self._f32_set(rng), path)
        blob = bytearray(path.read_bytes())
        last_of_third_plane = 28 + 3 * 12 * 12 * 4 - 4
        blob[last_of_third_plane : last_of_third_plane + 4] = struct.pack("<f", math.nan)
        path.write_bytes(bytes(blob))
        message = f"^{re.escape(str(path))}: density map contains non-finite values$"
        with pytest.raises(DmapValueError, match=message):
            read_dmap(path)


class TestDensityMapInvariants:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DensityMap(values=np.array([[-0.1, 0.0]]), downsample=32.0)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({(0, 1): math.nan}, "non-finite"),
            ({(1, 0): math.inf}, "non-finite"),
            ({(2, 2): -math.inf}, "non-finite"),
            ({(1, 1): -1e-300}, "negative"),
            ({(0, 0): -0.5, (2, 1): math.inf}, "non-finite"),
        ],
    )
    def test_rejects_bad_values_with_their_message(self, bad, message):
        values = np.ones((3, 3))
        for index, v in bad.items():
            values[index] = v
        with pytest.raises(ValueError, match=f"^density map contains {message} values$"):
            DensityMap(values=values, downsample=32.0)

    def test_rejects_bad_downsample(self):
        with pytest.raises(ValueError):
            DensityMap(values=np.ones((2, 2)), downsample=0.5)

    @pytest.mark.parametrize("downsample", [math.inf, math.nan])
    def test_rejects_a_non_finite_downsample(self, downsample):
        with pytest.raises(ValueError, match=r"^downsample must be finite and >= 1, got (inf|nan)$"):
            DensityMap(values=np.ones((2, 2)), downsample=downsample)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4,)])
    def test_rejects_an_empty_grid(self, shape):
        with pytest.raises(ValueError, match="^density map must be a non-empty 2-D grid"):
            DensityMap(values=np.ones(shape), downsample=32.0)

    def test_set_requires_matching_geometry(self):
        a = DensityMap(values=np.zeros((4, 4)), downsample=32.0)
        b = DensityMap(values=np.zeros((4, 5)), downsample=32.0)
        with pytest.raises(ValueError):
            DensityMapSet(maps=(a, a, a, b))

    def test_set_requires_four_maps(self):
        a = DensityMap(values=np.zeros((4, 4)), downsample=32.0)
        with pytest.raises(ValueError):
            DensityMapSet(maps=(a, a, a))
