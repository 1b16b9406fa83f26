import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxal.data_io import Detection, apply_thresholds, load_ground_truth, load_image_passes
from boxal.errors import ValidationError
from boxal.evaluation import consolidate
from boxal.geometry import BoundingBox, iou, iou_matrix
from boxal.grouping import group_passes

from oracles import brute_force_nms, greedy_match, image_passes, mean_box, rasterized_iou


def box(*coords):
    return BoundingBox(*(float(c) for c in coords))


# quantized coordinates keep IoU values exactly representable and avoid
# float-tie ambiguity in property tests
coord = st.integers(min_value=0, max_value=40)


@st.composite
def boxes(draw):
    x0 = draw(coord)
    y0 = draw(coord)
    w = draw(st.integers(min_value=1, max_value=20))
    h = draw(st.integers(min_value=1, max_value=20))
    return box(x0, y0, x0 + w, y0 + h)


def assert_readers_reject_box(tmp_path, coords, message):
    """A one-line detections file and a one-line ground-truth file holding ``coords`` are rejected."""
    det_path = tmp_path / "d.jsonl"
    det_path.write_text(json.dumps({"image_id": "a", "width": 50, "height": 50,
                                    "passes": [[{"bbox": coords, "scores": [1.0, 0.0]}]]}) + "\n")
    gt_path = tmp_path / "gt.jsonl"
    gt_path.write_text(json.dumps({"image_id": "a", "objects": [{"bbox": coords, "category": 0}]}) + "\n")
    for path, load in ((det_path, load_image_passes), (gt_path, partial(load_ground_truth, kappa=2))):
        with pytest.raises(ValidationError, match=re.escape(message)) as excinfo:
            load(path)
        assert str(excinfo.value).startswith(f"{path}:1: "), excinfo.value


class TestBoundingBox:
    """The box rules, which the readers check on every box of a file."""

    def test_valid_box(self):
        b = box(0, 0, 10, 10)
        assert b.as_tuple() == (0.0, 0.0, 10.0, 10.0)

    @pytest.mark.parametrize("coords", [(0, 0, 0, 10), (0, 0, 10, 0), (5, 5, 4, 10), (2, 3, 2, 5)])
    def test_degenerate_box_rejected(self, coords, tmp_path):
        floats = tuple(float(c) for c in coords)
        assert_readers_reject_box(
            tmp_path, list(coords),
            f"box must have strictly positive area (x_max > x_min, y_max > y_min), got {floats}",
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coordinates_rejected(self, bad, tmp_path):
        assert_readers_reject_box(
            tmp_path, [0.0, 0.0, bad, 10.0],
            f"box coordinates must be finite numbers, got {(0.0, 0.0, bad, 10.0)}",
        )


class TestIoU:
    def test_identity(self):
        b = box(3, 4, 9, 11)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 10, 10), box(20, 20, 30, 30)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_half_overlap_is_one_third(self):
        a = box(0, 0, 10, 10)
        b = box(5, 0, 15, 10)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)
        # independent rasterized cell-counting oracle on a fine grid
        assert rasterized_iou(a, b, pitch=0.25) == pytest.approx(1.0 / 3.0, abs=1e-9)

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes(), boxes())
    def test_one_iff_identical(self, a, b):
        assert (iou(a, b) == 1.0) == (a == b)

    @settings(max_examples=60)
    @given(boxes(), boxes())
    def test_matches_rasterized_oracle(self, a, b):
        # integer coordinates, so a unit-pitch grid rasterizes exactly
        assert iou(a, b) == pytest.approx(rasterized_iou(a, b, pitch=1.0), abs=1e-9)


@st.composite
def float_boxes(draw):
    # unquantized corners, so the rounding of every step of IoU is exercised
    x0 = draw(st.floats(min_value=0.0, max_value=1000.0))
    y0 = draw(st.floats(min_value=0.0, max_value=1000.0))
    w = draw(st.floats(min_value=1e-6, max_value=500.0))
    h = draw(st.floats(min_value=1e-6, max_value=500.0))
    return BoundingBox(x0, y0, x0 + w, y0 + h)


TOUCHING = [box(0, 0, 10, 10), box(10, 0, 20, 10), box(0, 10, 10, 20), box(10, 10, 20, 20)]
NESTED = [box(0, 0, 40, 40), box(10, 10, 20, 20), box(12, 11, 13, 19), box(0, 0, 40, 40)]


class TestIoUMatrix:
    """``iou_matrix`` is pinned to the scalar ``iou``: every entry equal, no floating-point warning.

    ``iou`` reads records and plain corner lists alike, to the same bits.
    """

    @staticmethod
    def assert_pinned(a, b):
        with np.errstate(all="raise"):
            got = iou_matrix(a, b)
        assert got.shape == (len(a), len(b))
        assert got.dtype == np.float64
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                assert got[i, j] == iou(x, y) == iou(list(x), list(y)), (i, j, x, y)

    @settings(max_examples=200)
    @given(st.lists(boxes() | float_boxes(), max_size=9), st.lists(boxes() | float_boxes(), max_size=9))
    @example(TOUCHING, TOUCHING)
    @example(NESTED, NESTED)
    @example(NESTED, TOUCHING[:1])
    @example([], TOUCHING)
    @example(NESTED, [])
    @example([], [])
    def test_equals_scalar_iou(self, a, b):
        self.assert_pinned(a, b)

    @given(st.lists(boxes() | float_boxes(), min_size=1, max_size=12))
    def test_same_list_on_both_sides(self, a):
        # grouping passes one list as both arguments
        self.assert_pinned(a, a)


def kernel_mean_box(boxes):
    """The box consolidation predicts for one set whose members, one a pass, have ``boxes``: at match IoU 0 each
    pass's one detection joins the first set."""
    img = image_passes("x", 100, 100, tuple((Detection(b, (1.0, 0.0)),) for b in boxes))
    (prediction,) = consolidate(group_passes(img, 0.0))
    return prediction.box


class TestMeanBox:
    """The mean box, on the scalar rule ``oracles.mean_box``, and the set kernel's, against it."""

    def test_single(self):
        b = box(1, 2, 3, 4)
        assert mean_box([b]) == b

    def test_two_boxes(self):
        got = mean_box([box(0, 0, 10, 10), box(2, 2, 12, 12)])
        assert got == box(1, 1, 11, 11)

    def test_three_boxes(self):
        got = mean_box([box(0, 0, 4, 4), box(2, 2, 6, 6), box(4, 4, 8, 8)])
        assert got == box(2, 2, 6, 6)

    @given(boxes(), st.integers(min_value=1, max_value=8))
    def test_mean_of_copies_is_identity(self, b, k):
        assert mean_box([b] * k) == b

    @given(st.lists(boxes() | float_boxes(), min_size=1, max_size=15))
    def test_equals_the_scalar_mean_box(self, bs):
        assert kernel_mean_box(bs) == mean_box(bs)


class TestGreedyMatch:
    ROWS = [[(0, 0.5), (1, 0.5)], [(0, 0.9), (1, 0.4)], [(1, 0.7)], [(2, 0.0)]]

    def test_each_column_taken_once_and_ties_to_the_first_pair(self):
        assert greedy_match(self.ROWS, 0.5) == [0, -1, 1, -1]

    def test_a_zero_value_matches_at_threshold_zero(self):
        # grouping matches at IoU 0, so the running best starts below every value
        assert greedy_match(self.ROWS, 0.0) == [0, 1, -1, 2]


class TestNms:
    """Greedy NMS, which ``apply_thresholds`` runs on each pass."""

    @staticmethod
    def nms(dets, threshold):
        # scores >= 0.5 make the first of the two categories the max score
        img = image_passes("x", 100, 100, (tuple(Detection(b, (s, 1.0 - s)) for b, s in dets),))
        return [(d.box, max(d.scores)) for d in apply_thresholds(img, 0.0, threshold).passes[0]]

    def test_single_detection_kept(self):
        dets = [(box(0, 0, 10, 10), 0.7)]
        assert self.nms(dets, 0.3) == dets

    def test_identical_boxes_keep_higher_score(self):
        b = box(0, 0, 10, 10)
        assert self.nms([(b, 0.8), (b, 0.9)], 0.3) == [(b, 0.9)]

    def test_chain_keeps_ends(self):
        # A overlaps B, B overlaps C, A and C below threshold, scores A>B>C
        a = box(0, 0, 10, 10)
        b = box(5, 0, 15, 10)
        c = box(10, 0, 20, 10)
        assert iou(a, c) < 0.3 <= min(iou(a, b), iou(b, c))
        got = self.nms([(a, 0.9), (b, 0.8), (c, 0.7)], 0.3)
        assert got == [(a, 0.9), (c, 0.7)]
        assert got == brute_force_nms([(a, 0.9), (b, 0.8), (c, 0.7)], 0.3, iou)

    @pytest.mark.parametrize("survivors", [0, 1, 2])
    def test_confidence_survivors_match_brute_force(self, survivors):
        # overlapping detections below a 0.75 cut, then 0, 1 or 2 above it that overlap too
        low = [(box(0, 0, 10, 10), 0.6), (box(1, 0, 11, 10), 0.7), (box(2, 0, 12, 10), 0.55)]
        high = [(box(3, 0, 13, 10), 0.8), (box(0, 1, 10, 11), 0.9)][:survivors]
        img = image_passes("x", 100, 100, (tuple(Detection(b, (s, 1.0 - s)) for b, s in low + high),))
        got = [(d.box, max(d.scores)) for d in apply_thresholds(img, 0.75, 0.3).passes[0]]
        assert got == brute_force_nms(high, 0.3, iou)

    @settings(max_examples=100)
    @given(
        st.lists(st.tuples(boxes(), st.integers(50, 100)), max_size=8),
        st.integers(1, 10),
    )
    def test_matches_brute_force(self, raw, thr10):
        dets = [(b, s / 100.0) for b, s in raw]
        threshold = thr10 / 10.0
        assert self.nms(dets, threshold) == brute_force_nms(dets, threshold, iou)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(boxes(), st.integers(50, 100)), max_size=8), st.integers(1, 10))
    def test_output_properties(self, raw, thr10):
        dets = [(b, s / 100.0) for b, s in raw]
        threshold = thr10 / 10.0
        kept = self.nms(dets, threshold)
        # kept is a sub-multiset of the input
        pool = list(dets)
        for d in kept:
            pool.remove(d)
        # no two kept boxes overlap at or above the threshold
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                assert iou(kept[i][0], kept[j][0]) < threshold
        # scores are non-increasing in output order
        scores = [s for _, s in kept]
        assert scores == sorted(scores, reverse=True)

    @given(st.lists(st.tuples(boxes(), st.integers(50, 100)), max_size=6))
    def test_threshold_one_keeps_all_non_identical(self, raw):
        dets = [(b, s / 100.0) for b, s in raw]
        kept = self.nms(dets, 1.0)
        survivors = {b.as_tuple() for b, _ in kept}
        assert survivors == {b.as_tuple() for b, _ in dets}
