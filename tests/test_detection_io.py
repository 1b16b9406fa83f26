import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxal.data_io import (
    CategoryCatalog,
    DatasetManifest,
    Detection,
    GroundTruthImage,
    apply_thresholds,
    load_ground_truth,
    load_image_passes,
    load_manifest,
    save_ground_truth,
    save_image_passes,
    save_manifest,
)
from boxal.errors import FormatError, ValidationError
from boxal.geometry import BoundingBox, iou

from oracles import image_key, image_passes, random_passes


def det(x0, y0, x1, y1, scores):
    return Detection(BoundingBox(float(x0), float(y0), float(x1), float(y1)), tuple(scores))


class TestCategoryCatalog:
    def test_valid(self):
        assert len(CategoryCatalog(("a", "b", "c"))) == 3

    @pytest.mark.parametrize("names", [("a",), ("a", "a"), ("a", "")])
    def test_invalid(self, names):
        with pytest.raises(ValidationError):
            CategoryCatalog(names)


def load_scores(tmp_path, scores):
    """Load a one-line detections file whose one detection has ``scores``."""
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"image_id": "a", "width": 50, "height": 50,
                             "passes": [[{"bbox": [0, 0, 10, 10], "scores": list(scores)}]]}) + "\n")
    return load_image_passes(p)


class TestDetection:
    """The score rules, which ``load_image_passes`` checks on every detection."""

    @staticmethod
    def rejected(tmp_path, scores, message):
        with pytest.raises(ValidationError, match=re.escape(message)) as excinfo:
            load_scores(tmp_path, scores)
        assert str(excinfo.value).startswith(f"{tmp_path / 'd.jsonl'}:1: "), excinfo.value

    def test_valid(self, tmp_path):
        (img,) = load_scores(tmp_path, (0.7, 0.3))
        assert img.passes[0][0].scores == (0.7, 0.3) and img.batch.max_scores.tolist() == [0.7]

    def test_scores_must_sum_to_one(self, tmp_path):
        self.rejected(tmp_path, (0.5, 0.3), f"scores must sum to 1 within 1e-06, got {0.5 + 0.3}")

    def test_scores_out_of_range(self, tmp_path):
        self.rejected(tmp_path, (1.2, -0.2), "scores must be finite and lie in [0, 1], got (1.2, -0.2)")

    def test_tolerance_accepts_near_one(self, tmp_path):
        (img,) = load_scores(tmp_path, (0.5 + 4e-7, 0.5))  # within the 1e-6 budget
        assert img.passes[0][0].scores == (0.5 + 4e-7, 0.5)

    @pytest.mark.parametrize("scores", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)])
    def test_nan_scores_rejected(self, scores, tmp_path):
        self.rejected(tmp_path, scores, f"scores must be finite and lie in [0, 1], got {scores}")


class TestImagePasses:
    """The image-level rules, which ``load_image_passes`` checks on each line."""

    @staticmethod
    def load_second_line(tmp_path, record):
        p = tmp_path / "d.jsonl"
        good = {"image_id": "ok", "width": 50, "height": 50, "passes": []}
        p.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValidationError) as excinfo:
            load_image_passes(p)
        assert f"{p}:2: image 'x'" in str(excinfo.value)
        return str(excinfo.value)

    def test_box_outside_bounds_rejected(self, tmp_path):
        record = {"image_id": "x", "width": 100, "height": 100,
                  "passes": [[{"bbox": [0, 0, 120, 10], "scores": [1.0, 0.0]}]]}
        assert "outside image bounds" in self.load_second_line(tmp_path, record)

    def test_inconsistent_score_lengths_rejected(self, tmp_path):
        record = {"image_id": "x", "width": 100, "height": 100,
                  "passes": [[{"bbox": [0, 0, 10, 10], "scores": [1.0, 0.0]},
                              {"bbox": [0, 0, 10, 10], "scores": [1.0, 0.0, 0.0]}]]}
        assert "expected 2 scores, got 3" in self.load_second_line(tmp_path, record)

    def test_nonpositive_size_rejected(self, tmp_path):
        record = {"image_id": "x", "width": 0, "height": 100, "passes": []}
        assert "positive" in self.load_second_line(tmp_path, record)


class TestDetectionsFile:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        assert load_image_passes(p) == []

    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        images = [random_passes(rng, image_id=f"img_{i}") for i in range(8)]
        p = tmp_path / "d.jsonl"
        save_image_passes(images, p)
        assert list(map(image_key, load_image_passes(p))) == list(map(image_key, images))

    def test_passes_out_of_canonical_order_load_and_save_in_it(self, tmp_path):
        # canonical order within a pass: descending max score, then the box corners
        low = {"bbox": [0.0, 0.0, 10.0, 10.0], "scores": [0.6, 0.4]}
        high = {"bbox": [2.0, 0.0, 9.0, 10.0], "scores": [0.1, 0.9]}
        right = {"bbox": [5.0, 1.0, 9.0, 4.0], "scores": [0.7, 0.3]}
        left = {"bbox": [1.0, 5.0, 4.0, 9.0], "scores": [0.3, 0.7]}  # the same max score as right
        shuffled = {"image_id": "a", "width": 50, "height": 50, "passes": [[low, high], [right, left]]}
        ordered = {"image_id": "b", "width": 50, "height": 50, "passes": [[high, low], []]}
        p, out = tmp_path / "d.jsonl", tmp_path / "saved.jsonl"
        p.write_text(json.dumps(shuffled) + "\n" + json.dumps(ordered) + "\n")
        a, b = load_image_passes(p)
        assert a.rows.tolist() == [1, 0, 3, 2] and b.rows.tolist() == [4, 5]
        assert [[d.box for d in dets] for dets in a.passes] == [
            [BoundingBox(2.0, 0.0, 9.0, 10.0), BoundingBox(0.0, 0.0, 10.0, 10.0)],
            [BoundingBox(1.0, 5.0, 4.0, 9.0), BoundingBox(5.0, 1.0, 9.0, 4.0)],
        ]
        save_image_passes([a, b], out)
        assert [json.loads(line) for line in out.read_text().splitlines()] == [
            dict(shuffled, passes=[[high, low], [left, right]]), ordered
        ]

    def test_minimal_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        record = {
            "image_id": "a",
            "width": 50,
            "height": 50,
            "passes": [[{"bbox": [0, 0, 10, 10], "scores": [1.0, 0.0]}], [{"bbox": [1, 0, 11, 10], "scores": [0.5, 0.5]}]],
        }
        p.write_text(json.dumps(record) + "\n")
        (img,) = load_image_passes(p)
        assert len(img.passes) == 2

    def test_bad_score_sum_names_image(self, tmp_path):
        p = tmp_path / "d.jsonl"
        record = {"image_id": "bad_one", "width": 50, "height": 50,
                  "passes": [[{"bbox": [0, 0, 10, 10], "scores": [0.5, 0.3]}]]}
        p.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="bad_one"):
            load_image_passes(p)

    def test_nan_score_names_file_and_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        good = '{"image_id": "a", "width": 50, "height": 50, "passes": []}'
        bad = ('{"image_id": "b", "width": 50, "height": 50, '
               '"passes": [[{"bbox": [0, 0, 10, 10], "scores": [NaN, NaN]}]]}')
        p.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValidationError, match="finite") as excinfo:
            load_image_passes(p)
        assert f"{p}:2" in str(excinfo.value)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"image_id": "a", "width": 9, "height": 9, "passes": []}\n{broken\n')
        with pytest.raises(FormatError, match=":2"):
            load_image_passes(p)

    def test_duplicate_image_id_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        line = json.dumps({"image_id": "a", "width": 9, "height": 9, "passes": []})
        p.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_image_passes(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"image_id": "a", "width": 9, "height": 9}) + "\n")
        with pytest.raises(FormatError, match="missing field"):
            load_image_passes(p)

    def test_expected_n_and_kappa_enforced(self, tmp_path):
        p = tmp_path / "d.jsonl"
        record = {"image_id": "a", "width": 50, "height": 50,
                  "passes": [[{"bbox": [0, 0, 10, 10], "scores": [1.0, 0.0]}]]}
        p.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="passes"):
            load_image_passes(p, expected_n=3)
        with pytest.raises(ValidationError, match="scores"):
            load_image_passes(p, kappa=5)

    def test_float_serialization_is_lossless(self, tmp_path):
        scores = (1.0 / 3.0, 1.0 - 1.0 / 3.0)
        img = image_passes("a", 50, 50, ((det(0.1, 0.2, 10.3, 10.7, scores),),))
        p = tmp_path / "d.jsonl"
        save_image_passes([img], p)
        (loaded,) = load_image_passes(p)
        got = loaded.passes[0][0]
        assert got.scores == scores
        assert got.box.as_tuple() == (0.1, 0.2, 10.3, 10.7)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        gt = {
            "a": GroundTruthImage("a", ((BoundingBox(0, 0, 10, 10), 0),)),
            "b": GroundTruthImage("b", ()),
        }
        p = tmp_path / "gt.jsonl"
        save_ground_truth(gt, p)
        assert load_ground_truth(p, kappa=2) == gt

    def test_category_out_of_range(self, tmp_path):
        gt = {"a": GroundTruthImage("a", ((BoundingBox(0, 0, 10, 10), 7),))}
        p = tmp_path / "gt.jsonl"
        save_ground_truth(gt, p)
        with pytest.raises(ValidationError, match="category"):
            load_ground_truth(p, kappa=3)

    def test_negative_category_rejected(self, tmp_path):
        p = tmp_path / "gt.jsonl"
        p.write_text(json.dumps({"image_id": "a", "objects": [{"bbox": [0, 0, 1, 1], "category": -1}]}) + "\n")
        with pytest.raises(FormatError):
            load_ground_truth(p, kappa=2)


class TestManifest:
    def make(self, **kw):
        base = dict(
            catalog=CategoryCatalog(("a", "b")),
            initial_training=("t1",),
            pool=("p1", "p2"),
            validation=("v1",),
            test=("x1",),
        )
        base.update(kw)
        return DatasetManifest(**base)

    def test_round_trip(self, tmp_path):
        m = self.make()
        p = tmp_path / "m.json"
        save_manifest(m, p)
        assert load_manifest(p) == m

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ValidationError, match="p1"):
            self.make(test=("p1",))

    def test_duplicates_within_partition_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            self.make(pool=("p1", "p1"))

    def test_empty_initial_training_rejected(self):
        with pytest.raises(ValidationError, match="initial_training"):
            self.make(initial_training=())

    def test_fully_empty_manifest_allowed(self):
        m = self.make(initial_training=(), pool=(), validation=(), test=())
        assert m.all_ids == frozenset()

    def test_paper_scale_split_accepted(self):
        # 100 initial / 1796 pool / 660 validation / 449 test = 3005 images
        m = self.make(
            initial_training=tuple(f"t{i}" for i in range(100)),
            pool=tuple(f"p{i}" for i in range(1796)),
            validation=tuple(f"v{i}" for i in range(660)),
            test=tuple(f"x{i}" for i in range(449)),
        )
        assert len(m.all_ids) == 3005

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"categories": ["a", "b"], "pool": [], "validation": [], "test": []}))
        with pytest.raises(FormatError, match="missing field"):
            load_manifest(p)


class TestApplyThresholds:
    def test_no_op_when_nothing_filtered(self):
        img = image_passes("a", 100, 100, ((det(0, 0, 10, 10, (0.9, 0.1)),),
                                           (det(50, 50, 60, 60, (0.6, 0.4)),)))
        assert image_key(apply_thresholds(img, 0.5, 0.3)) == image_key(img)

    def test_low_confidence_removed(self):
        img = image_passes("a", 100, 100, ((det(0, 0, 10, 10, (0.4, 0.6 / 2, 0.3)),),))
        out = apply_thresholds(img, 0.5, 0.3)
        assert out.passes == ((),)
        assert len(out.passes) == 1

    def test_nms_removes_lower_scored_overlap(self):
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b = det(0, 2, 10, 12, (0.8, 0.2))  # IoU 2/3 with a
        assert iou(a.box, b.box) > 0.3
        out = apply_thresholds(image_passes("a", 100, 100, ((a, b),)), 0.5, 0.3)
        assert out.passes == ((a,),)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.integers(1, 10))
    def test_idempotent_and_survivors_confident(self, seed, conf10, nms10):
        rng = np.random.Generator(np.random.PCG64(seed))
        img = random_passes(rng)
        confidence = conf10 / 10.0
        nms_iou = nms10 / 10.0
        once = apply_thresholds(img, confidence, nms_iou)
        assert image_key(apply_thresholds(once, confidence, nms_iou)) == image_key(once)
        assert len(once.passes) == len(img.passes)
        for pass_dets in once.passes:
            for d in pass_dets:
                assert max(d.scores) >= confidence
