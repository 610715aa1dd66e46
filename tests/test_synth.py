import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densegaze.core import (
    Annotation,
    Annotations,
    BoundingBox,
    ScaleLevel,
    SceneExtent,
    iou,
    overlap_pairs,
    save_scene,
    scale_bucket,
)
from densegaze.config import ConfigError
from densegaze.synth import (
    DEFAULT_EXTENT,
    _MAX_PAIR_IOU,
    InfeasibleSceneError,
    SceneSpec,
    _Placer,
    build_scene_spec,
    generate_scene,
    scene_stats,
)

# The 2,000-object rung of the scale ladder.
RUNG_2K = SceneSpec(object_count=2000, foreground_fraction_target=0.12)


def union_coverage_oracle(annotations, extent, d=32.0):
    """Independent union-coverage estimate: cell centers inside any box."""
    gw = math.floor(extent.width / d + 0.5)
    gh = math.floor(extent.height / d + 0.5)
    covered = np.zeros((gh, gw), dtype=bool)
    cx = (np.arange(gw) + 0.5) * d
    cy = (np.arange(gh) + 0.5) * d
    for ann in annotations:
        b = ann.bbox
        xs = (cx >= b.x) & (cx < b.right)
        ys = (cy >= b.y) & (cy < b.bottom)
        covered |= ys[:, None] & xs[None, :]
    return covered.mean()


def reference_scene_stats(annotations, extent, raster_downsample=32.0):
    """scene_stats one Annotation at a time: scale_bucket per box and one
    raster window per box from its BoundingBox."""
    annotations = list(annotations)
    counts = {s: 0 for s in ScaleLevel}
    for ann in annotations:
        counts[scale_bucket(ann.bbox)] += 1
    if not annotations:
        return counts, 0.0, 0.0
    d = raster_downsample
    gw = int(math.ceil(extent.width / d))
    gh = int(math.ceil(extent.height / d))
    covered = np.zeros((gh, gw), dtype=bool)
    for ann in annotations:
        b = ann.bbox
        x0 = max(int(math.ceil(b.x / d - 0.5)), 0)
        x1 = min(int(math.floor(b.right / d - 0.5)) + 1, gw)
        y0 = max(int(math.ceil(b.y / d - 0.5)), 0)
        y1 = min(int(math.floor(b.bottom / d - 0.5)) + 1, gh)
        if x1 > x0 and y1 > y0:
            covered[y0:y1, x0:x1] = True
    in_scene_w = min(gw, int(math.floor(extent.width / d + 0.5)))
    in_scene_h = min(gh, int(math.floor(extent.height / d + 0.5)))
    fraction = float(covered[:in_scene_h, :in_scene_w].sum()) / float(in_scene_w * in_scene_h)
    longest = [ann.bbox.max_side for ann in annotations]
    return counts, fraction, max(longest) / min(longest)


class TestGenerateScene:
    def test_zero_objects(self):
        annotations, extent = generate_scene(SceneSpec(object_count=0))
        assert annotations == []
        assert extent == SceneSpec().extent

    def test_deterministic_per_seed(self, tmp_path):
        spec = SceneSpec(seed=123)
        a, extent_a = generate_scene(spec)
        b, extent_b = generate_scene(spec)
        assert a == b and extent_a == extent_b
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(p1, a, extent_a)
        save_scene(p2, b, extent_b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seeds_differ(self):
        a, _ = generate_scene(SceneSpec(seed=1))
        b, _ = generate_scene(SceneSpec(seed=2))
        assert a != b

    def test_default_scene_properties(self, default_scene):
        annotations, extent = default_scene
        assert len(annotations) == 500
        ids = [a.id for a in annotations]
        assert len(set(ids)) == len(ids)
        for ann in annotations:
            b = ann.bbox
            assert b.width > 0 and b.height > 0
            assert b.x >= 0 and b.y >= 0
            assert b.right <= extent.width and b.bottom <= extent.height

    def test_default_coverage_in_band(self, default_scene):
        annotations, extent = default_scene
        fraction = union_coverage_oracle(annotations, extent)
        assert 0.03 <= fraction <= 0.07

    def test_total_box_area_near_target(self, default_scene):
        annotations, extent = default_scene
        total = sum(a.bbox.area for a in annotations)
        assert abs(total / extent.area - 0.05) <= 0.02

    def test_size_span_at_least_100x(self, default_scene):
        annotations, _ = default_scene
        sides = [a.bbox.max_side for a in annotations]
        assert max(sides) / min(sides) >= 100.0

    def test_size_gradient_along_y(self, default_scene):
        # Perspective: boxes low in the scene are bigger on average.
        annotations, extent = default_scene
        top = [a.bbox.max_side for a in annotations if a.bbox.center[1] < extent.height * 0.4]
        bottom = [a.bbox.max_side for a in annotations if a.bbox.center[1] > extent.height * 0.6]
        assert np.mean(bottom) > 2.0 * np.mean(top)

    def test_pairwise_overlap_capped(self, small_scene):
        annotations, _ = small_scene
        boxes = [a.bbox for a in annotations]
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert iou(a, b) <= 0.35 + 1e-12

    def test_all_scales_populated(self, default_scene):
        annotations, _ = default_scene
        buckets = {scale_bucket(a.bbox) for a in annotations}
        assert buckets == set(ScaleLevel)

    def test_infeasible_spec_raises(self):
        # One max-side giant alone exceeds the area target many times over.
        spec = SceneSpec(
            extent=SceneExtent(4096, 4096),
            object_count=10,
            foreground_fraction_target=0.01,
            size_gradient=(32.0, 3900.0),
        )
        with pytest.raises(InfeasibleSceneError):
            generate_scene(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(size_gradient=(2.0, 100.0))
        with pytest.raises(ValueError):
            SceneSpec(size_gradient=(100.0, 100.0))
        with pytest.raises(ValueError):
            SceneSpec(object_count=-1)
        with pytest.raises(ValueError):
            SceneSpec(cluster_count=0)
        with pytest.raises(ValueError):
            SceneSpec(foreground_fraction_target=0.0)
        with pytest.raises(ValueError):
            SceneSpec(seed=-1)


    def test_unknown_spec_override_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown scene spec keys: \['object_cont'\]$"):
            build_scene_spec(overrides={"object_cont": 80, "seed": 1})


def reference_clears(boxes, x, y, w, h):
    """The all-pairs overlap check: one vectorized IoU pass of the
    candidate against every placed box, boxes being an (n, 4) array."""
    if boxes.shape[0] == 0:
        return True
    b = boxes
    iw = np.minimum(x + w, b[:, 0] + b[:, 2]) - np.maximum(x, b[:, 0])
    ih = np.minimum(y + h, b[:, 1] + b[:, 3]) - np.maximum(y, b[:, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = w * h + b[:, 2] * b[:, 3] - inter
    return bool(np.all(inter <= _MAX_PAIR_IOU * union))


CELL = 40.0
EXTENT = DEFAULT_EXTENT


@st.composite
def placement_cases(draw):
    """Placed boxes and candidates in a 600 px window at the scene origin
    or its far corner (coordinates near 2.6e4). Coordinates and sides
    often fall on bucket boundaries; sides reach 26 buckets, past the
    about 21 that the tallest stock giant spans; candidates are often
    shifted copies of placed boxes, so they exactly touch (iw == 0 or
    ih == 0), coincide or partly overlap."""
    base = draw(st.sampled_from([0.0, EXTENT.width - 600.0]))
    coord = st.one_of(
        st.integers(0, 60).map(lambda k: base + k * CELL / 4),
        st.floats(base, base + 600.0, allow_nan=False, allow_infinity=False),
    )
    side = st.one_of(
        st.integers(1, 4 * 26).map(lambda k: k * CELL / 4),
        st.floats(0.5, 26 * CELL, allow_nan=False, allow_infinity=False),
    )
    box = st.tuples(coord, coord, side, side)
    placed = draw(st.lists(box, max_size=30))
    shift = st.sampled_from([-1.0, -0.5, 0.0, 0.1, 1.0])
    candidates = []
    for _ in range(draw(st.integers(1, 12))):
        if placed and draw(st.booleans()):
            bx, by, bw, bh = placed[draw(st.integers(0, len(placed) - 1))]
            grow = draw(st.sampled_from([0.5, 0.7, 0.9, 1.0, 2.0]))
            w, h = bw * grow, bh * grow
            x, y = bx + draw(shift) * bw, by + draw(shift) * bh
        else:
            x, y, w, h = draw(box)
        # Clamp into the scene the way _Placer.place does.
        x = min(max(x, 0.0), EXTENT.width - w)
        y = min(max(y, 0.0), EXTENT.height - h)
        candidates.append((x, y, w, h))
    return placed, candidates


class TestPlacer:
    @given(case=placement_cases())
    def test_bucketed_check_equals_all_pairs(self, case):
        placed, candidates = case
        placer = _Placer(np.random.default_rng(0), EXTENT, CELL)
        boxes = np.empty((0, 4))
        for b in placed:
            placer._add(*b)
            boxes = np.vstack([boxes, b])
        for c in candidates:
            assert placer._clears_overlap_cap(*c) == reference_clears(boxes, *c)

    def test_wide_boxes_are_checked_both_ways(self):
        wide = (0.0, 0.0, 10.0, 5 * CELL)  # spans 6 buckets
        narrow = (0.0, 40.0, 10.0, 100.0)  # IoU 0.5 with wide
        placer = _Placer(np.random.default_rng(0), EXTENT, CELL)
        placer._add(*wide)
        assert not placer._clears_overlap_cap(*narrow)
        placer = _Placer(np.random.default_rng(0), EXTENT, CELL)
        placer._add(*narrow)
        assert not placer._clears_overlap_cap(*wide)

    # sha256 of save_scene output, pinned so that any change to the draw
    # order or to an accept/reject decision shows.
    @pytest.mark.parametrize(
        "spec,digest",
        [
            (SceneSpec(), "1b00f91f99d635da10a92b5a4f156a23bc4967c5f4c77e286eb6f859132cc7e6"),
            (
                SceneSpec(object_count=1000, foreground_fraction_target=0.07),
                "fcff97550cdeaf49dc4f2aeaa795d1734995d163e2861cc853c1666bf4479e7c",
            ),
            (RUNG_2K, "fd357a65e063eb219ae0bfd97599a65e5cfe6ac85decd8bfa65cfe522c88cfee"),
        ],
        ids=["stock", "crowd", "rung_2k"],
    )
    def test_scene_bytes_pinned(self, tmp_path, spec, digest):
        path = tmp_path / "scene.json"
        save_scene(path, *generate_scene(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_overlap_capped_on_2k_rung(self):
        annotations, _ = generate_scene(RUNG_2K)
        boxes = np.array([(a.bbox.x, a.bbox.y, a.bbox.width, a.bbox.height) for a in annotations])
        i, j, v = overlap_pairs(boxes, boxes)
        others = v[i != j]
        assert others.size > 0
        assert others.max() <= 0.35 + 1e-12


class TestSceneStats:
    def test_empty_scene(self):
        stats = scene_stats([], SceneExtent(1000, 1000))
        assert all(v == 0 for v in stats.scale_counts.values())
        assert stats.foreground_fraction == 0.0
        assert stats.side_ratio == 0.0

    def test_single_tiny_box(self):
        ann = Annotation(0, BoundingBox(100, 100, 500, 500))
        stats = scene_stats([ann], SceneExtent(10000, 10000))
        assert stats.scale_counts[ScaleLevel.TINY] == 1
        assert sum(stats.scale_counts.values()) == 1
        assert stats.side_ratio == 1.0

    def test_histogram_matches_brute_force(self, default_scene):
        annotations, extent = default_scene
        stats = scene_stats(annotations, extent)
        brute = {s: 0 for s in ScaleLevel}
        for ann in annotations:
            brute[scale_bucket(ann.bbox)] += 1
        assert stats.scale_counts == brute

    def test_coverage_matches_oracle(self, default_scene):
        annotations, extent = default_scene
        stats = scene_stats(annotations, extent)
        oracle = union_coverage_oracle(annotations, extent)
        assert stats.foreground_fraction == pytest.approx(oracle, abs=1e-6)

    def test_default_max_min_ratio(self, default_scene):
        annotations, extent = default_scene
        assert scene_stats(annotations, extent).side_ratio >= 100.0

    @pytest.mark.parametrize("spec", [SceneSpec(), SceneSpec(object_count=300, seed=4), RUNG_2K], ids=["stock", "300", "2k"])
    def test_equals_reference_for_list_and_record(self, spec):
        annotations, extent = generate_scene(spec)
        expected = repr(reference_scene_stats(annotations, extent))
        for given_as in (annotations, Annotations.of(annotations)):
            stats = scene_stats(given_as, extent)
            assert repr((stats.scale_counts, stats.foreground_fraction, stats.side_ratio)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([-2e16, -100.0, -16.0, -0.0, 0.0, 15.9, 16.0, 48.0, 300.5, 999.0, 1e3, 2e16]),
                st.sampled_from([-64.0, 0.0, 16.0, 17.5, 500.0, 760.0]),
                st.sampled_from([1e-9, 0.5, 16.0, 32.0, 799.0, 800.0, 1600.0, 3200.0, 1e17]),
                st.sampled_from([1e-9, 1.0, 31.9, 64.0, 1599.5, 5000.0]),
            ),
            max_size=12,
        ),
        downsample=st.sampled_from([1.0, 7.0, 32.0]),
    )
    def test_equals_reference_at_raster_and_bucket_edges(self, rows, downsample):
        # Boxes straddle cell centers, scene edges and bucket boundaries,
        # start beyond either side of the raster, or are wide enough that
        # x + w rounds.
        annotations = [Annotation(k, BoundingBox(*row)) for k, row in enumerate(rows)]
        extent = SceneExtent(1000, 770)
        expected = repr(reference_scene_stats(annotations, extent, downsample))
        for given_as in (annotations, Annotations.of(annotations)):
            stats = scene_stats(given_as, extent, downsample)
            assert repr((stats.scale_counts, stats.foreground_fraction, stats.side_ratio)) == expected

    @pytest.mark.parametrize("extent", [SceneExtent(10, 10), SceneExtent(15, 1000), SceneExtent(1000, 15)], ids=str)
    def test_a_side_under_half_a_cell_holds_no_cell_center(self, extent):
        stats = scene_stats([Annotation(0, BoundingBox(1, 1, 2, 2))], extent)
        assert stats.foreground_fraction == 0.0
        assert stats.scale_counts[ScaleLevel.TINY] == 1 and stats.side_ratio == 1.0

    @pytest.mark.parametrize("extent", [SceneExtent(16, 16), SceneExtent(16, 1000), SceneExtent(47, 17)], ids=str)
    def test_a_side_of_half_a_cell_holds_one(self, extent):
        annotations = [Annotation(0, BoundingBox(0, 0, 16, 16))]
        expected = repr(reference_scene_stats(annotations, extent))
        stats = scene_stats(annotations, extent)
        assert repr((stats.scale_counts, stats.foreground_fraction, stats.side_ratio)) == expected
        assert stats.foreground_fraction > 0.0

    @pytest.mark.parametrize("downsample", [0, -1, math.nan, math.inf])
    @pytest.mark.parametrize("annotations", [[], [Annotation(0, BoundingBox(10, 10, 20, 20))]], ids=["empty", "one"])
    def test_rejects_a_bad_raster_downsample(self, annotations, downsample):
        with pytest.raises(ValueError, match=r"^downsample must be finite and >= 1, got "):
            scene_stats(annotations, SceneExtent(1000, 1000), downsample)

    def test_json_dict(self, default_scene):
        annotations, extent = default_scene
        payload = scene_stats(annotations, extent).to_json_dict()
        assert set(payload) == {"scale_counts", "foreground_fraction", "side_ratio"}
        assert set(payload["scale_counts"]) == {"tiny", "small", "middle", "large"}
