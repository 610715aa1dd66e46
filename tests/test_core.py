import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densegaze import core
from densegaze.core import (
    Annotation,
    Annotations,
    BoundingBox,
    Detection,
    Detections,
    EvalSizeBucket,
    GlobalDetection,
    PatchDetection,
    ScaleLevel,
    SceneExtent,
    eval_size_bucket,
    iou,
    load_scene,
    overlap_pairs,
    rank,
    save_scene,
    scale_bucket,
)

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_dim = st.floats(min_value=0.1, max_value=1e6, allow_nan=False, allow_infinity=False)
boxes = st.builds(BoundingBox, x=finite_coord, y=finite_coord, width=positive_dim, height=positive_dim)


class TestBoundingBox:
    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, -1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundingBox(math.nan, 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, math.inf, 1, 1)

    @pytest.mark.parametrize("field", ["x", "y", "width", "height"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "must be a number, got True"),
            (np.bool_(False), "must be a number, got np.False_"),
            ("1", "must be a number, got '1'"),
            (None, "must be a number, got None"),
            (10**400, f"{10**400} is outside float range"),
        ],
        ids=["True", "np.False_", "str", "None", "10**400"],
    )
    def test_refuses_what_json_float_refuses(self, field, value, message):
        values = {"x": 1, "y": 2, "width": 3, "height": 4, field: value}
        with pytest.raises(ValueError, match=f"^BoundingBox.{field} {re.escape(message)}$"):
            BoundingBox(**values)

    def test_keeps_values_as_given(self):
        box = BoundingBox(1, np.float32(0.5), 2**60, 4.0)
        assert [type(v) for v in (box.x, box.y, box.width, box.height)] == [int, np.float32, int, float]

    def test_clip_inside_is_identity(self):
        box = BoundingBox(10, 20, 30, 40)
        assert box.clip(SceneExtent(100, 100)) == box

    def test_clip_outside_returns_none(self):
        assert BoundingBox(200, 200, 10, 10).clip(SceneExtent(100, 100)) is None

    def test_clip_partial(self):
        clipped = BoundingBox(-5, -5, 20, 20).clip(SceneExtent(100, 100))
        assert clipped == BoundingBox(0, 0, 15, 15)


class TestDetections:
    BOXES = [[1.0, 2.0, 3.0, 4.0], [-0.0, 5.5, 0.25, 1e9]]

    def batch(self, **columns):
        return Detections(
            columns.get("boxes", self.BOXES), columns.get("scores", [0.5, 1.0]),
            columns.get("categories", [3, 2**53 + 1]), columns.get("sources"),
        )

    def test_columns_and_len(self):
        d = self.batch()
        assert len(d) == 2
        assert d.boxes.dtype == np.float64 and d.boxes.shape == (2, 4)
        assert d.scores.dtype == np.float64 and d.categories.dtype == np.int64
        assert d.sources.tolist() == [-1, -1]

    def test_empty_batch(self):
        for d in (Detections(np.empty((0, 4)), [], []), Detections([], [], [], [])):
            assert len(d) == 0 and d.boxes.shape == (0, 4)
            assert list(d) == []
            with pytest.raises(IndexError):
                d[0]
        assert Detections([], [], []) == Detections(np.empty((0, 4)), np.empty(0), np.empty(0, np.int64))

    def test_one_detection_type(self):
        assert PatchDetection is GlobalDetection is Detection
        assert Detection(BoundingBox(1, 2, 3, 4), 0.5) == Detection(BoundingBox(1, 2, 3, 4), 0.5, 0, -1)

    def test_patch_frame_rows_are_patch_detections(self):
        d = self.batch()
        rows = list(d)
        assert rows == [
            PatchDetection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, 3),
            PatchDetection(BoundingBox(-0.0, 5.5, 0.25, 1e9), 1.0, 2**53 + 1),
        ]
        assert [d[0], d[1]] == rows and d[-1] == rows[1]
        assert str(rows[1].bbox.x) == "-0.0"
        assert all(type(r) is Detection and r.source == -1 for r in rows)
        assert all(type(r.score) is float and type(r.category) is int and type(r.source) is int for r in rows)
        with pytest.raises(IndexError):
            d[2]
        with pytest.raises(TypeError):
            d[:1]

    def test_scene_frame_rows_are_global_detections(self):
        d = self.batch(sources=[4, 7])
        rows = list(d)
        assert rows == [
            GlobalDetection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, 3, 4),
            GlobalDetection(BoundingBox(-0.0, 5.5, 0.25, 1e9), 1.0, 2**53 + 1, 7),
        ]
        assert [d[0], d[1]] == rows and d[-1] == rows[1] and d[-2] == rows[0]
        assert all(type(r) is Detection and type(r.source) is int for r in rows)
        assert list(self.batch()) == [Detection(r.bbox, r.score, r.category) for r in rows]
        with pytest.raises(IndexError):
            d[2]

    def test_value_equality(self):
        assert self.batch() == self.batch()
        assert self.batch() != self.batch(scores=[0.5, 0.75])
        assert self.batch() != self.batch(categories=[3, 2**53])
        assert self.batch() != self.batch(sources=[0, 1])
        assert self.batch() != self.batch(boxes=[[1.0, 2.0, 3.0, 4.0], [0.0, 5.5, 0.25, 1e9 + 1]])
        assert self.batch() != list(self.batch())

    def test_of_converts_per_box_objects_once(self):
        d = self.batch(sources=[4, 7])
        assert Detections.of(d) is d
        assert Detections.of(list(d)) == d
        patch = self.batch()
        assert Detections.of(list(patch)) == patch

    @pytest.mark.parametrize(
        "category, message",
        [
            (2**70, "detection row 1: category 1180591620717411303424 is outside int64"),
            (2.5, "detection row 1: category must be an integer, got 2.5"),
            (True, "detection row 1: category must be an integer, got True"),
        ],
        ids=["2**70", "2.5", "True"],
    )
    def test_of_checks_categories_naming_the_row(self, category, message):
        rows = [Detection(BoundingBox(1, 2, 3, 4), 0.5), Detection(BoundingBox(1, 2, 3, 4), 0.5, category)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Detections.of(rows)

    def test_of_takes_numpy_integer_categories(self):
        d = Detections.of([Detection(BoundingBox(1, 2, 3, 4), 0.5, np.int64(3))])
        assert d.categories.tolist() == [3]

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"boxes": [[1, 2, 3, 4], [0, 0, math.nan, 1]]}, "detection row 1: bbox values must be finite"),
            ({"boxes": [[1, 2, 3, 4], [0, math.inf, 1, 1]]}, "detection row 1: bbox values must be finite"),
            ({"boxes": [[1, 2, 0, 4], [0, 0, -1, 1]]}, "detection row 0: box dimensions must be positive, got 0.0x4.0"),
            ({"scores": [0.5, 1.5]}, "detection row 1: score 1.5 is outside [0, 1]"),
            ({"scores": [math.nan, 1.0]}, "detection row 0: score nan is outside [0, 1]"),
            ({"scores": [0.5]}, "1 scores for 2 boxes"),
            ({"sources": [1, 2, 3]}, "3 sources for 2 boxes"),
        ],
    )
    def test_validation_names_the_first_failing_row(self, columns, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.batch(**columns)

    def test_category_outside_int64_is_rejected(self):
        with pytest.raises(ValueError, match=r"^detection row 1: category 9223372036854775808 is outside int64$"):
            self.batch(categories=[0, 2**63])

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"categories": [3, 2.5]}, "1: category must be an integer, got 2.5"),
            ({"categories": [2.5, True]}, "0: category must be an integer, got 2.5"),
            ({"categories": np.array([3, True], dtype=object)}, "1: category must be an integer, got True"),
            ({"categories": np.array([3, 2**64 - 1], dtype=np.uint64)},
             "1: category 18446744073709551615 is outside int64"),
            ({"scores": [True, False]}, "0: score must be a number, got True"),
            ({"scores": np.array([0.5, None], dtype=object)}, "1: score must be a number, got None"),
            ({"scores": ["0.5", "1"]}, "0: score must be a number, got '0.5'"),
            ({"boxes": [[1, 2, 3, 4], ["1", "2", "3", "4"]]}, "1: bbox value must be a number, got '1'"),
            ({"boxes": [[1, 2, 3, 4], [1, "2", 3, 4]]}, "1: bbox value must be a number, got '2'"),
            ({"boxes": np.ones((2, 4), dtype=bool)}, "0: bbox value must be a number, got True"),
            ({"boxes": [[1, 2, 3, 4], [1, 2, 3, 10**400]]}, f"1: bbox value {10**400} is outside float range"),
        ],
        ids=["2.5", "2.5-then-True", "object-True", "uint64", "bool-scores", "object-None", "str-scores",
             "str-boxes", "mixed-box", "bool-boxes", "10**400"],
    )
    def test_refuses_what_a_detections_file_refuses(self, columns, message):
        with pytest.raises(ValueError, match=f"^detection row {re.escape(message)}$"):
            self.batch(**columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"boxes": [[1, 2, 3, 4], [1, 2, 0, 4]], "scores": np.array([0.5, True], dtype=object),
              "categories": [0, 2.5]}, "1: box dimensions must be positive, got 0.0x4.0"),
            ({"boxes": [[1, 2, 3, 4], [1, 2, "3", 4]], "scores": [0.5, 1.5]},
             "1: bbox value must be a number, got '3'"),
            ({"scores": np.array([0.5, True], dtype=object), "categories": [0, 2.5]},
             "1: score must be a number, got True"),
            ({"scores": [0.5, 1.5], "categories": [0, 2.5]}, "1: score 1.5 is outside [0, 1]"),
            ({"scores": [1.5, 0.5], "categories": [0, 2.5]}, "0: score 1.5 is outside [0, 1]"),
            ({"scores": [0.5, 1.5], "categories": [2.5, 0]}, "0: category must be an integer, got 2.5"),
        ],
        ids=["box-size-first", "box-value-first", "score-type-first", "score-range-first", "row-0-score",
             "row-0-category"],
    )
    def test_names_the_first_fault_in_row_order(self, columns, message):
        # Rows in order; within a row: box, then score, then category.
        with pytest.raises(ValueError, match=f"^detection row {re.escape(message)}$"):
            self.batch(**columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"categories": [3, True]}, "1: category must be an integer, got True"),
            ({"scores": [0.5, True]}, "1: score must be a number, got True"),
            ({"boxes": [[1, 2, 3, 4], [1, True, 3, 4]]}, "1: bbox value must be a number, got True"),
        ],
        ids=["category", "score", "box-value"],
    )
    def test_a_bool_among_numbers_in_a_list_is_not_a_number(self, columns, message):
        with pytest.raises(ValueError, match=f"^detection row {re.escape(message)}$"):
            self.batch(**columns)

    @pytest.mark.parametrize(
        "boxes, message",
        [
            ([[1, 2, 3, 4], [1, 2, 3]], "1: not enough values to unpack (expected 4, got 3)"),
            ([[1, 2, 3], [1, 2, 3]], "0: not enough values to unpack (expected 4, got 3)"),
        ],
        ids=["ragged", "three-wide"],
    )
    def test_a_box_row_of_other_than_four_values_is_named(self, boxes, message):
        with pytest.raises(ValueError, match=f"^detection row {re.escape(message)}$"):
            self.batch(boxes=boxes)

    def test_of_names_the_first_failing_row(self):
        box = BoundingBox(1, 2, 3, 4)
        with pytest.raises(ValueError, match=r"^detection row 0: score 1\.5 is outside \[0, 1\]$"):
            Detections.of([Detection(box, 1.5), Detection(box, 0.5, 2.5)])
        with pytest.raises(ValueError, match=r"^detection row 1: score must be a number, got True$"):
            Detections.of([Detection(box, 0.5), Detection(box, True)])

    def test_numeric_columns_cost_a_dtype_test(self, monkeypatch):
        checked = []
        monkeypatch.setattr(core, "json_float", lambda v, what: checked.append(v))
        monkeypatch.setattr(core, "json_category", lambda v, what: checked.append(v))
        Detections(np.ones((3, 4)), np.ones(3), np.zeros(3, np.int64))
        Detections([[1, 2, 3, 4]], [1], [2])
        Detections(np.ones((1, 4), np.float32), np.ones(1, np.uint8), np.zeros(1, np.uint32))
        assert checked == []

    def test_empty_columns_of_any_dtype(self):
        empty = Detections(np.array([], dtype="U1"), np.array([], dtype=bool), np.array([], dtype=object))
        assert empty == Detections([], [], [])


class TestIou:
    def test_identity(self):
        box = BoundingBox(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0

    def test_analytic_third(self):
        # Intersection 2, union 6.
        assert iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 0, 2, 2)) == pytest.approx(1 / 3)

    @given(a=boxes, b=boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    @given(a=boxes)
    def test_identity_gives_exactly_one(self, a):
        assert iou(a, BoundingBox(a.x, a.y, a.width, a.height)) == 1.0

    @given(
        a=boxes,
        dx=st.floats(min_value=1e-3, max_value=10.0),
        grow=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_below_one_for_distinct(self, a, dx, grow):
        # Differences at or above float resolution must pull IoU under 1.
        assert iou(a, BoundingBox(a.x + dx, a.y, a.width, a.height)) < 1.0
        assert iou(a, BoundingBox(a.x, a.y, a.width + grow, a.height)) < 1.0


# Boxes on a small integer grid: many equal starts, overlaps and duplicates.
small_rows = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8), st.integers(1, 8))


def as_array(box_list):
    return np.array([(b.x, b.y, b.width, b.height) for b in box_list], dtype=np.float64).reshape(-1, 4)


class TestOverlapPairs:
    @given(a=st.lists(boxes, max_size=12), b=st.lists(boxes, max_size=12), shared=st.integers(0, 4))
    def test_equals_iou_on_every_pair(self, a, b, shared):
        b = a[:shared] + b  # exact duplicates take iou's a == b shortcut
        i, j, v = overlap_pairs(as_array(a), as_array(b))
        expected = {
            (p, q): iou(a[p], b[q])
            for p in range(len(a))
            for q in range(len(b))
            if iou(a[p], b[q]) != 0.0
        }
        assert dict(zip(zip(i.tolist(), j.tolist()), v.tolist())) == expected
        assert list(zip(i.tolist(), j.tolist())) == sorted(expected)
        # The self-join: one array object as both sides, duplicates included.
        same = as_array(b)
        i, j, v = overlap_pairs(same, same)
        assert list(zip(i.tolist(), j.tolist(), v.tolist())) == sorted(
            (p, q, iou(b[p], b[q])) for p in range(len(b)) for q in range(len(b)) if iou(b[p], b[q]) != 0.0
        )

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8), st.integers(1, 8)), max_size=14
        ),
        shared=st.integers(0, 4),
        scale=st.sampled_from([1.0, 0.3, 1e16]),
        min_iou=st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_self_join_equals_the_two_sweeps(self, rows, shared, scale, min_iou):
        # Few distinct starts give equal-x ties; shared rows give duplicate
        # boxes. A copy is another object, so it takes both sweeps.
        boxes_a = np.array(rows + rows[:shared], dtype=np.float64).reshape(-1, 4) * scale
        got = overlap_pairs(boxes_a, boxes_a, min_iou)
        want = overlap_pairs(boxes_a, boxes_a.copy(), min_iou)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert [g.dtype for g in got] == [w.dtype for w in want]

    def test_equal_boxes_whose_right_rounds_onto_x(self):
        # At x = 1e17 a width of 1 vanishes from x + w; iou still says 1.0.
        box = BoundingBox(1e17, 0.0, 1.0, 5.0)
        assert box.right == box.x and iou(box, box) == 1.0
        i, j, v = overlap_pairs(as_array([box]), as_array([box]))
        assert (i.tolist(), j.tolist(), v.tolist()) == ([0], [0], [1.0])
        both = as_array([box, box])
        i, j, v = overlap_pairs(both, both)
        assert (i.tolist(), j.tolist(), v.tolist()) == ([0, 0, 1, 1], [0, 1, 0, 1], [1.0] * 4)

    def test_empty_inputs(self):
        one = as_array([BoundingBox(0, 0, 1, 1)])
        for a, b in ((np.empty((0, 4)), one), (one, np.empty((0, 4)))):
            i, j, v = overlap_pairs(a, b)
            assert i.size == j.size == v.size == 0

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 12])
    def test_chunked_sweep_against_brute_force(self, monkeypatch, chunk):
        monkeypatch.setattr(core, "_SWEEP_CHUNK", chunk)
        rng = np.random.default_rng(5)
        def boxes_array(n):
            return np.column_stack([rng.uniform(0, 2e4, (n, 2)), rng.uniform(1, 3e3, (n, 2))])

        a = boxes_array(150)
        b = np.vstack([a[:30], boxes_array(120)])
        expected = {}
        for p in range(len(a)):
            for q in range(len(b)):
                r = iou(BoundingBox(*a[p]), BoundingBox(*b[q]))
                if r != 0.0:
                    expected[(p, q)] = r
        i, j, v = overlap_pairs(a, b)
        assert dict(zip(zip(i.tolist(), j.tolist()), v.tolist())) == expected
        i, j, v = overlap_pairs(a, b, min_iou=0.5)
        assert dict(zip(zip(i.tolist(), j.tolist()), v.tolist())) == {
            k: r for k, r in expected.items() if r >= 0.5
        }

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 120), st.integers(0, 120), st.integers(1, 80), st.integers(1, 80)), max_size=10),
        st.sampled_from([1.0, 10.0]),
        st.sampled_from([0.0, 1e16, -1e16, 2.0**53]),
        st.one_of(st.sampled_from([1e-9, 0.25, 0.5, 0.75, 0.9, 1.0]), st.floats(1e-9, 1.0)),
    )
    def test_iou_window_equals_iou_above_the_threshold(self, rows, unit, origin, min_iou):
        # Whole units put starts exactly on a window edge x + (1 - t) * w
        # for t in quarters, and tenths round (1 - t) * w below an edge that
        # iou reaches; at 1e16 every sum rounds.
        boxes = [BoundingBox(origin + x / unit, y / unit, w / unit, h / unit) for x, y, w, h in rows]
        pairs = [(p, q, iou(a, b)) for p, a in enumerate(boxes) for q, b in enumerate(boxes)]
        i, j, v = overlap_pairs(as_array(boxes), as_array(boxes[::-1]), min_iou)
        n = len(boxes)
        expected = sorted((p, n - 1 - q, r) for p, q, r in pairs if r != 0.0 and r >= min_iou)
        assert list(zip(i.tolist(), j.tolist(), v.tolist())) == expected
        # The self-join: one array object as both sides.
        same = as_array(boxes)
        i, j, v = overlap_pairs(same, same, min_iou)
        assert list(zip(i.tolist(), j.tolist(), v.tolist())) == sorted(
            (p, q, r) for p, q, r in pairs if r != 0.0 and r >= min_iou
        )

    @pytest.mark.parametrize(
        "a, b, t",
        [
            ((0.0, 0.0, 8.0, 4.0), (4.0, 0.0, 4.0, 4.0), 0.5),
            ((3.0, 0.0, 27.0, 2.0), (5.7, 0.0, 24.3, 2.0), 0.9),
            ((1e16, 0.0, 3.0, 1.0), (1e16 + 2, 0.0, 2.0, 1.0), 2 / 3),
        ],
        ids=["on-the-edge", "past-the-rounded-edge", "rounded-right"],
    )
    def test_iou_window_keeps_a_pair_on_its_edge(self, a, b, t):
        # b spans the rest of a with a's height. Past the rounded edge, IoU
        # rounds to just above t while a.x + (1 - t) * a.width rounds to
        # just below b.x. At 1e16, a.right rounds up by 1, so iou sees an
        # intersection of 2 and IoU 2/3, while a.x + 1 rounds down to a.x.
        # Only the margin keeps these pairs.
        a, b = BoundingBox(*a), BoundingBox(*b)
        assert iou(a, b) >= t
        for first, second in ((a, b), (b, a)):
            i, j, v = overlap_pairs(as_array([first]), as_array([second]), t)
            assert (i.tolist(), j.tolist(), v.tolist()) == ([0], [0], [iou(a, b)])

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(small_rows, max_size=14),
        other=st.lists(small_rows, max_size=8),
        shared=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        min_iou=st.sampled_from([0.0, 0.5]),
    )
    def test_invariant_under_permuting_either_input(self, rows, other, shared, seed, min_iou):
        # Few distinct starts give equal-x ties, which the x-sorted copies
        # must not let leak into the result.
        a = np.array(rows, dtype=np.float64).reshape(-1, 4)
        b = np.array(rows[:shared] + other, dtype=np.float64).reshape(-1, 4)
        rng = np.random.default_rng(seed)
        pa, pb = rng.permutation(len(a)), rng.permutation(len(b))

        def mapped_back(a_rows, b_rows, pairs):
            # Row p of a[a_rows] is row a_rows[p] of a; the output is (i, j)-ordered.
            i, j, v = pairs
            assert list(zip(i.tolist(), j.tolist())) == sorted(zip(i.tolist(), j.tolist()))
            return sorted(zip(a_rows[i].tolist(), b_rows[j].tolist(), v.tolist()))

        want = mapped_back(np.arange(len(a)), np.arange(len(b)), overlap_pairs(a, b, min_iou))
        for a_rows, b_rows in ((pa, np.arange(len(b))), (np.arange(len(a)), pb), (pa, pb)):
            assert mapped_back(a_rows, b_rows, overlap_pairs(a[a_rows], b[b_rows], min_iou)) == want
        # The self-join: one shuffled array object as both sides.
        shuffled = a[pa]
        want = mapped_back(np.arange(len(a)), np.arange(len(a)), overlap_pairs(a, a, min_iou))
        assert mapped_back(pa, pa, overlap_pairs(shuffled, shuffled, min_iou)) == want


@st.composite
def rank_keys(draw):
    """1-7 keys of 0-50 rows, np.lexsort's argument: secondary keys with
    many ties, and a primary (last) key that is all tied, all distinct,
    of signed zeros, integer-valued, or any float, NaN and inf included."""
    n = draw(st.integers(0, 50))
    column = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    dtypes = st.sampled_from([np.int64, np.float64])
    keys = [np.array(draw(column), dtype=draw(dtypes)) for _ in range(draw(st.integers(0, 6)))]
    kind = draw(st.sampled_from(["tied", "distinct", "signed zeros", "integers", "floats"]))
    if kind == "tied":
        primary = np.full(n, draw(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan])))
    elif kind == "distinct":
        primary = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n, unique=True)))
        if 0.0 in primary.tolist():
            primary[primary == 0.0] = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "signed zeros":
        primary = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=n, max_size=n)))
    elif kind == "integers":
        values = st.integers(-3, 3) | st.integers(-(2**52), 2**52)
        primary = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=draw(dtypes))
    else:
        primary = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=np.float64)
    return (*keys, primary)


class TestRank:
    @settings(max_examples=500, deadline=None)
    @given(rank_keys())
    def test_equals_lexsort(self, keys):
        got, want = rank(keys), np.lexsort(keys)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_a_tie_falls_back_to_every_key(self):
        # -0.0 and 0.0 tie, as NaNs do, so the secondary key orders them.
        assert rank((np.array([1, 0]), np.array([0.0, -0.0]))).tolist() == [1, 0]
        assert rank((np.array([1, 0]), np.array([math.nan, math.nan]))).tolist() == [1, 0]
        assert rank((np.array([1, 0]), np.array([0.1, -0.0]))).tolist() == [1, 0]
        assert rank((np.array([0, 1]), np.array([0.1, -0.0]))).tolist() == [1, 0]


class TestScaleBucket:
    @pytest.mark.parametrize(
        "side,expected",
        [
            (799, ScaleLevel.TINY),
            (800, ScaleLevel.SMALL),
            (1599, ScaleLevel.SMALL),
            (1600, ScaleLevel.MIDDLE),
            (3199, ScaleLevel.MIDDLE),
            (3200, ScaleLevel.LARGE),
            (10000, ScaleLevel.LARGE),
        ],
    )
    def test_boundaries(self, side, expected):
        assert scale_bucket(BoundingBox(0, 0, side, 10)) is expected

    def test_uses_longest_side(self):
        assert scale_bucket(BoundingBox(0, 0, 10, 900)) is ScaleLevel.SMALL

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            scale_bucket(BoundingBox(0, 0, 10, 10), boundaries=(800, 800, 3200))

    @given(side=st.floats(min_value=1, max_value=1e5), grow=st.floats(min_value=0, max_value=1e5))
    def test_monotone(self, side, grow):
        a = scale_bucket(BoundingBox(0, 0, side, side))
        b = scale_bucket(BoundingBox(0, 0, side + grow, side + grow))
        assert b >= a

    @given(box=boxes)
    def test_partitions(self, box):
        assert scale_bucket(box) in list(ScaleLevel)

    def test_total_order(self):
        assert ScaleLevel.TINY < ScaleLevel.SMALL < ScaleLevel.MIDDLE < ScaleLevel.LARGE
        assert len(ScaleLevel) == 4


class TestEvalSizeBucket:
    def test_small(self):
        assert eval_size_bucket(BoundingBox(0, 0, 95, 95)) is EvalSizeBucket.SMALL

    def test_middle_boundary(self):
        assert eval_size_bucket(BoundingBox(0, 0, 96, 96)) is EvalSizeBucket.MIDDLE

    def test_large(self):
        assert eval_size_bucket(BoundingBox(0, 0, 300, 300)) is EvalSizeBucket.LARGE

    def test_area_criterion(self):
        # 10x1000 has area 10000 >= 96^2 even though one side is tiny.
        assert eval_size_bucket(BoundingBox(0, 0, 10, 1000)) is EvalSizeBucket.MIDDLE


class TestSceneExtent:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SceneExtent(0, 10)

    def test_large_products_representable(self):
        extent = SceneExtent(125_000, 80_000)
        assert extent.area == 1e10


def reference_save_scene(path, annotations, extent):
    """save_scene through json.dump's indenting encoder."""
    doc = {
        "scene": {"width": extent.width, "height": extent.height},
        "annotations": [
            {"id": a.id, "bbox": [a.bbox.x, a.bbox.y, a.bbox.width, a.bbox.height], "category": a.category}
            for a in annotations
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def reference_load_scene(path):
    """load_scene one entry at a time, as a list of Annotation objects."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        scene = doc["scene"]
        extent = SceneExtent(core.json_int(scene["width"], "width"), core.json_int(scene["height"], "height"))
        raw = core.json_list(doc["annotations"], "annotations")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed annotation document {path}: {exc}") from exc
    annotations, seen = [], set()
    for index, entry in enumerate(raw):
        try:
            ann_id = core.json_int(entry["id"], "id")
            x, y, w, h = (v if type(v) is float else core.json_float(v, "bbox value") for v in entry["bbox"])
            if ann_id in seen:
                raise ValueError(f"duplicate annotation id {ann_id} in {path}")
            seen.add(ann_id)
            box = BoundingBox(x, y, w, h)
            if not (x >= 0.0 and y >= 0.0 and x + w <= extent.width and y + h <= extent.height):
                box = box.clip(extent)
                if box is None:
                    raise ValueError(f"annotation {ann_id} lies entirely outside the scene")
            annotations.append(Annotation(ann_id, box, core.json_category(entry.get("category", 0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"annotation entry {index}: {exc!s}") from exc
    return annotations, extent


# Box positions inside, across and beyond a 10-wide scene, and, at 2**53 in a
# 2**53 + 3 wide one, with sums that round past the width; positive sizes;
# and values that fault a box.
POSITIONS = [-0.5, -0.0, 0.0, 5e-324, 1, 3.0, 4, 9.5]
FAR_POSITIONS = [10, 11.0, 1e16, 2.0**53, 2**53 + 1]
SIZES = [5e-324, 0.5, 1, 2.0, 3.0, 4, 10, 1e16]
BAD_BOX_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0, -0.0, 2**70, 10**400, True, None, "1", [1.0]]


@st.composite
def scene_documents(draw):
    """Scene documents of plain entries (int ids and categories, int or
    float box values), some of them with a duplicate id or a box that is
    not finite, not positive or outside the scene, and up to two odd
    entries: a field of another type, a missing field, or no object."""
    near, far = st.sampled_from(POSITIONS), st.sampled_from(FAR_POSITIONS)
    box = st.tuples(st.one_of(near, near, near, near, near, far), near, st.sampled_from(SIZES), st.sampled_from(SIZES))
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        entry = {"id": draw(st.one_of(st.integers(0, 40), st.just(2**70))), "bbox": list(draw(box))}
        if draw(st.integers(0, 5)) == 0:
            entry["bbox"][draw(st.integers(0, 3))] = draw(st.sampled_from(BAD_BOX_VALUES[:6]))
        if draw(st.booleans()):
            entry["category"] = draw(st.integers(0, 3))
        entries.append(entry)
    odd = {
        "id": st.sampled_from([-(2**70), True, 1.0, 2.5, None, "1"]),
        "bbox": st.one_of(
            st.lists(st.sampled_from(POSITIONS + SIZES + BAD_BOX_VALUES), min_size=3, max_size=5),
            st.sampled_from([None, 7, "abcd", {"x": 1}]),
        ),
        "category": st.sampled_from([2**63, -(2**63), False, 2.0, 0.5, None]),
    }
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        r, kind = draw(st.integers(0, len(entries) - 1)), draw(st.sampled_from([*odd, "missing", "object"]))
        if kind == "object" or not isinstance(entries[r], dict):
            entries[r] = draw(st.sampled_from([[], None, "entry"]))
        elif kind == "missing":
            entries[r].pop(draw(st.sampled_from(["id", "bbox"])), None)
        else:
            entries[r][kind] = draw(odd[kind])
    width = draw(st.sampled_from([10, 2**53 + 3]))
    return {"scene": {"width": width, "height": 10}, "annotations": entries}


class TestSceneIo:
    def _doc(self):
        return {
            "scene": {"width": 1000, "height": 800},
            "annotations": [
                {"id": 0, "bbox": [10.0, 20.0, 30.0, 40.0], "category": 0},
                {"id": 1, "bbox": [500.0, 300.0, 80.0, 60.0], "category": 2},
            ],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(self._doc()))
        annotations, extent = load_scene(path)
        out = tmp_path / "again.json"
        save_scene(out, annotations, extent)
        again, extent2 = load_scene(out)
        assert extent == extent2
        assert again == annotations
        assert again[1].category == 2

    def test_integral_floats_read_as_integers(self, tmp_path):
        doc = self._doc()
        doc["scene"] = {"width": 1000.0, "height": 800.0}
        doc["annotations"][1].update(id=1.0, category=2.0)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        annotations, extent = load_scene(path)
        assert [(type(v), v) for v in (extent.width, extent.height)] == [(int, 1000), (int, 800)]
        assert [(type(a.id), a.id, type(a.category), a.category) for a in annotations] == [
            (int, 0, int, 0), (int, 1, int, 2)
        ]

    def test_generated_scenes_round_trip_exactly(self, tmp_path, default_scene, noisy_crowd):
        # Boxes inside the scene come back as written, not re-clipped.
        for annotations, extent in (default_scene, noisy_crowd[:2]):
            path = tmp_path / "scene.json"
            save_scene(path, annotations, extent)
            assert load_scene(path) == (annotations, extent)

    def test_bytes_equal_json_dump(self, tmp_path, default_scene, noisy_crowd):
        odd = [
            Annotation(0, BoundingBox(0.0, 5e-324, 1e16, 3.5), 2),
            Annotation(7, BoundingBox(1, 2, 3, 4)),
            Annotation(-3, BoundingBox(-0.0, 1e16, 5e-324, 0.1)),
        ]
        cases = (default_scene, noisy_crowd[:2], ([], SceneExtent(10, 20)), (odd, SceneExtent(5, 2 * 10**16)))
        for annotations, extent in cases:
            save_scene(tmp_path / "new.json", annotations, extent)
            reference_save_scene(tmp_path / "ref.json", annotations, extent)
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("id", True, "id must be an integer, got True"),
            ("id", 2.5, "id must be an integer, got 2.5"),
            ("category", True, "category must be an integer, got True"),
            ("category", 2.5, "category must be an integer, got 2.5"),
            ("category", 2**70, "category 1180591620717411303424 is outside int64"),
        ],
        ids=["id-True", "id-2.5", "category-True", "category-2.5", "category-2**70"],
    )
    def test_refuses_what_load_scene_rejects(self, tmp_path, field, value, message):
        bad = Annotation(**{"id": 1, "bbox": BoundingBox(1, 2, 3, 4), "category": 0, field: value})
        annotations = [Annotation(0, BoundingBox(1, 2, 3, 4)), bad]
        path = tmp_path / "scene.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=re.escape(f"annotation entry 1: {message}")):
            save_scene(path, annotations, SceneExtent(10, 10))
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "bad",
        [Annotation(0, BoundingBox(5, 5, 1, 1)), Annotation(1, BoundingBox(50, 60, 3, 4)),
         Annotation(1, BoundingBox(-3, 2, 3, 4)), Annotation(1, BoundingBox(10, 9.5, 1, 1))],
        ids=["duplicate-id", "far-outside", "touches-left-edge", "touches-right-edge"],
    )
    def test_refuses_an_entry_load_scene_rejects(self, tmp_path, bad):
        annotations, extent = [Annotation(0, BoundingBox(1, 2, 3, 4)), bad], SceneExtent(10, 10)
        path = tmp_path / "scene.json"
        reference_save_scene(path, annotations, extent)
        with pytest.raises(ValueError, match="^annotation entry 1: ") as read_error:
            load_scene(path)
        path.write_text("kept\n")
        with pytest.raises(ValueError) as write_error:
            save_scene(path, annotations, extent)
        assert str(write_error.value) == str(read_error.value)
        assert path.read_text() == "kept\n"

    @given(
        st.lists(
            st.tuples(*[st.sampled_from([-3.0, -1.0, -0.0, 0.0, 5e-324, 1.0, 9.0, 9.5, 10.0, 11.0, 1e16])] * 2,
                      *[st.sampled_from([5e-324, 0.5, 1.0, 2.0, 10.0, 1e16])] * 2),
            max_size=4,
        )
    )
    def test_writes_a_box_exactly_when_load_scene_takes_it(self, tmp_path_factory, boxes):
        # Edge-touching, edge-crossing and far boxes, some with widths that vanish in x + w.
        annotations, extent = [Annotation(i, BoundingBox(*b)) for i, b in enumerate(boxes)], SceneExtent(10, 10)
        path = tmp_path_factory.mktemp("scenes") / "scene.json"
        reference_save_scene(path, annotations, extent)
        try:
            loaded = load_scene(path)
        except ValueError as exc:
            loaded = str(exc)
        try:
            save_scene(path, annotations, extent)
        except ValueError as exc:
            assert str(exc) == loaded
        else:
            assert load_scene(path) == loaded

    def test_numpy_values_are_written_as_json_numbers(self, tmp_path):
        annotations = [Annotation(np.int64(5), BoundingBox(np.float64(1.5), 2, np.float32(0.5), 4), np.int64(3))]
        path = tmp_path / "scene.json"
        save_scene(path, annotations, SceneExtent(np.int64(10), 10))
        doc = json.loads(path.read_text())
        assert doc["scene"] == {"width": 10, "height": 10}
        assert doc["annotations"] == [{"id": 5, "bbox": [1.5, 2, 0.5, 4], "category": 3}]
        assert load_scene(path) == ([Annotation(5, BoundingBox(1.5, 2.0, 0.5, 4.0), 3)], SceneExtent(10, 10))

    def test_refuses_a_scene_size_load_scene_rejects(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="^width must be an integer, got True$"):
            save_scene(path, [], SceneExtent(True, 10))
        assert path.read_text() == "kept\n"

    def test_scene_size_must_fit_a_float(self):
        with pytest.raises(ValueError, match="SceneExtent must be positive and fit a float"):
            SceneExtent(10**400, 10)

    def test_json_numbers(self):
        for value in (0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(1)):
            assert type(core.json_float(value, "x")) is float and core.json_float(value, "x") == float(value)
        for value, message in ((True, "got True"), (np.bool_(True), "got np.True_"), ("1", "got '1'"),
                               (None, "got None"), (10**400, f"{10**400} is outside float range")):
            with pytest.raises(ValueError, match=f"^x .*{re.escape(message)}$"):
                core.json_float(value, "x")
        assert [(type(v), v) for v in (core.json_int(np.int64(3), "x"), core.json_int(2.0, "x"))] == [(int, 3), (int, 2)]
        for value in (True, np.bool_(False), 2.5, np.float32(2.0), "2"):
            with pytest.raises(ValueError, match="^x must be an integer"):
                core.json_int(value, "x")

    def test_an_id_beyond_int64_round_trips(self, tmp_path):
        # load_scene bounds categories, which it keeps in int64 columns, but not ids.
        annotations = [Annotation(2**70, BoundingBox(1, 2, 3, 4))]
        save_scene(tmp_path / "scene.json", annotations, SceneExtent(10, 10))
        assert load_scene(tmp_path / "scene.json") == (annotations, SceneExtent(10, 10))

    def test_clips_at_ingestion(self, tmp_path):
        doc = self._doc()
        doc["annotations"][0]["bbox"] = [-10.0, -10.0, 50.0, 50.0]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        annotations, _ = load_scene(path)
        assert annotations[0].bbox == BoundingBox(0, 0, 40, 40)

    def test_rejects_fully_outside(self, tmp_path):
        doc = self._doc()
        doc["annotations"][0]["bbox"] = [2000.0, 2000.0, 10.0, 10.0]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="outside"):
            load_scene(path)

    def test_rejects_duplicate_ids(self, tmp_path):
        doc = self._doc()
        doc["annotations"][1]["id"] = 0
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate"):
            load_scene(path)

    def test_rejects_malformed_document(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"annotations": []}))
        with pytest.raises(ValueError, match="malformed"):
            load_scene(path)

    def test_rejects_annotations_that_are_not_a_list(self, tmp_path):
        doc = self._doc()
        doc["annotations"] = {"0": doc["annotations"][0]}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed annotation document"):
            load_scene(path)

    @settings(max_examples=400, deadline=None)
    @given(scene_documents())
    @example({"scene": {"width": 2**53 + 3, "height": 10}, "annotations": [{"id": 0, "bbox": [2.0**53, 0, 3.0, 1]}]})
    @example({"scene": {"width": 10, "height": 10}, "annotations": [{"id": 2**70, "bbox": [-0.0, -3.0, 11.0, 4]}]})
    @example({"scene": {"width": 10, "height": 10}, "annotations": [{"id": 1.0, "bbox": [1, 2, 3, 4]}]})
    @example({"scene": {"width": 10, "height": 10}, "annotations": [{"id": 1, "bbox": [1, 2, 3, 4], "category": 2.0}]})
    @example(
        {"scene": {"width": 10, "height": 10},
         "annotations": [{"id": i, "bbox": [1, 2, 3, h]} for i, h in enumerate([4, -0.0, math.nan, 0])]}
    )
    @example(
        {"scene": {"width": 10, "height": 10},
         "annotations": [{"id": i, "bbox": [1, 2, w, 4]} for i, w in enumerate([3, 0, math.inf])]}
    )
    @example(
        {"scene": {"width": 10, "height": 10},
         "annotations": [{"id": i, "bbox": [x, 2, 3, 4]} for i, x in ((3, 0), (4, 1), (3, 1), (5, 12.0))]}
    )
    def test_loads_as_the_entry_by_entry_reference(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("scenes") / "scene.json"
        path.write_text(json.dumps(doc))
        try:
            expected = repr(reference_load_scene(path))
        except ValueError as exc:
            with pytest.raises(ValueError) as error:
                load_scene(path)
            assert str(error.value) == str(exc)
            return
        annotations, extent = load_scene(path)
        # repr tells an int from a float and -0.0 from 0.0.
        assert repr((list(annotations), extent)) == expected


class TestAnnotations:
    ROWS = [Annotation(2**70, BoundingBox(-0.0, 2.5, 3.0, 4.0), 2), Annotation(-1, BoundingBox(1, 2, 3, 4))]

    def test_columns_of_a_list_and_rows_as_loaded(self):
        gt = Annotations.of(self.ROWS)
        assert Annotations.of(gt) is gt
        assert gt.boxes.dtype == np.float64 and gt.boxes.tolist() == [[-0.0, 2.5, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]
        assert gt.categories.dtype == np.int64 and gt.categories.tolist() == [2, 0]
        assert gt.ids == [2**70, -1]
        assert len(gt) == 2 and gt == self.ROWS and self.ROWS == gt and gt == tuple(self.ROWS) and gt == gt
        assert repr(list(gt)) == repr(
            [Annotation(2**70, BoundingBox(-0.0, 2.5, 3.0, 4.0), 2), Annotation(-1, BoundingBox(1.0, 2.0, 3.0, 4.0), 0)]
        )
        assert gt[-1] == self.ROWS[1] and [a.id for a in reversed(gt)] == [-1, 2**70]

    def test_differs_from_other_rows_and_other_types(self):
        gt = Annotations.of(self.ROWS)
        assert gt != self.ROWS[:1] and gt != self.ROWS[::-1] and gt != Annotations.of(self.ROWS[:1])
        assert gt != "rows" and gt != np.zeros(2)
        with pytest.raises(IndexError):
            gt[2]
        with pytest.raises(TypeError):
            gt[0:1]

    def test_load_scene_gives_columns(self, tmp_path, default_scene):
        annotations, extent = default_scene
        save_scene(tmp_path / "scene.json", annotations, extent)
        loaded, _ = load_scene(tmp_path / "scene.json")
        assert isinstance(loaded, Annotations)
        assert loaded.boxes.tobytes() == Annotations.of(annotations).boxes.tobytes()
