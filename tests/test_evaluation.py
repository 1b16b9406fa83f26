import json
import math
import warnings

import mpmath
import numpy as np
import pytest

from boxal import data_io
from boxal.data_io import MAX_DETECTIONS_PER_IMAGE, CategoryCatalog, Detection, GroundTruthImage
from boxal.errors import ValidationError
from boxal.evaluation import (
    COCO_IOU_THRESHOLDS,
    FinalPrediction,
    coco_map,
    consolidate,
    f1_image,
    load_predictions,
    regularized_incomplete_beta,
    ttest_two_sided,
)
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes

from oracles import brute_force_map, image_passes, random_scene, scalar_f1, scalar_prediction

CATALOG3 = CategoryCatalog(("a", "b", "c"))


def det(x0, y0, x1, y1, scores):
    return Detection(BoundingBox(float(x0), float(y0), float(x1), float(y1)), tuple(scores))


def pred(x0, y0, x1, y1, category, score):
    return FinalPrediction(BoundingBox(float(x0), float(y0), float(x1), float(y1)), category, score)


def write_predictions(preds_by_image, path):
    """A predictions file in the documented format: one image per line."""
    path.write_text("".join(
        json.dumps({"image_id": image_id, "predictions": [
            {"bbox": list(p.box.as_tuple()), "category": p.category, "score": p.score} for p in preds
        ]}) + "\n"
        for image_id, preds in preds_by_image.items()
    ))


def assert_matches_brute_force(preds_by_image, gt_by_image, label):
    got = coco_map(preds_by_image, gt_by_image, CATALOG3)
    want_map, want_aps = brute_force_map(preds_by_image, gt_by_image, CATALOG3, iou)
    assert got.map_score == pytest.approx(want_map, abs=1e-9), label
    assert set(got.per_category_ap) == set(want_aps)
    for c, ap in want_aps.items():
        assert got.per_category_ap[c] == pytest.approx(ap, abs=1e-9), f"{label} cat {c}"
    return got


def crowded_scene(rng):
    """Three images with 4-10 objects each and 40-130 predictions, scored from five values."""
    gt_by_image, preds_by_image = {}, {}
    scores = [0.2, 0.4, 0.5, 0.7, 0.9]
    for i in range(3):
        image_id = f"im{i}"
        objects = []
        for _ in range(int(rng.integers(4, 11))):
            x0, y0, w, h = (float(v) for v in rng.integers((0, 0, 10, 10), (160, 160, 40, 40)))
            objects.append((BoundingBox(x0, y0, x0 + w, y0 + h), int(rng.integers(0, 3))))
        gt_by_image[image_id] = GroundTruthImage(image_id, tuple(objects))
        preds = []
        for _ in range(int(rng.integers(40, 131))):
            base, category = objects[int(rng.integers(0, len(objects)))]
            dx, dy = (float(v) for v in rng.integers(-8, 9, size=2))
            if rng.random() < 0.15:
                category = int(rng.integers(0, 3))
            box = BoundingBox(base.x_min + dx, base.y_min + dy, base.x_max + dx, base.y_max + dy)
            preds.append(FinalPrediction(box, category, scores[int(rng.integers(0, len(scores)))]))
        preds_by_image[image_id] = preds
    return preds_by_image, gt_by_image


class TestConsolidate:
    """The prediction of a set, on the scalar rule ``oracles.scalar_prediction``, and the order of an image's."""

    def test_one_hot_set(self):
        d = det(0, 0, 10, 10, (0.0, 1.0))
        p = scalar_prediction(((0, d), (1, d)))
        assert p.box == d.box
        assert p.category == 1
        assert p.score == 1.0

    def test_mean_scores_and_argmax(self):
        a = det(0, 0, 10, 10, (0.8, 0.2))
        b = det(2, 2, 12, 12, (0.6, 0.4))
        p = scalar_prediction(((0, a), (1, b)))
        assert p.box == BoundingBox(1, 1, 11, 11)
        assert p.category == 0
        assert p.score == pytest.approx(0.7, abs=1e-12)

    def test_tied_mean_scores_go_to_the_first_category(self):
        a = det(0, 0, 10, 10, (0.0, 0.6, 0.4))
        b = det(0, 0, 10, 10, (0.0, 0.4, 0.6))
        assert scalar_prediction(((0, a), (1, b))) == FinalPrediction(a.box, 1, 0.5)

    def test_empty_input(self):
        assert consolidate([]) == []

    def test_ordered_by_descending_score(self):
        # the first pass's detection makes the first set, the second pass's the second
        lo, hi = det(0, 0, 10, 10, (0.6, 0.4)), det(30, 30, 40, 40, (0.9, 0.1))
        out = consolidate(group_passes(image_passes("x", 100, 100, ((lo,), (hi,)))))
        assert [p.score for p in out] == [0.9, 0.6]


def f1_one(preds, gt):
    """``f1_image`` of a request of one image."""
    return f1_image({gt.image_id: preds}, {gt.image_id: gt})[gt.image_id]


class TestF1Image:
    GT = GroundTruthImage("x", ((BoundingBox(0, 0, 10, 10), 0), (BoundingBox(30, 30, 40, 40), 1)))

    def test_perfect_predictions(self):
        preds = [pred(0, 0, 10, 10, 0, 0.9), pred(30, 30, 40, 40, 1, 0.8)]
        assert f1_one(preds, self.GT) == 1.0

    def test_no_predictions_nonempty_gt(self):
        assert f1_one([], self.GT) == 0.0

    def test_both_empty_is_one(self):
        assert f1_one([], GroundTruthImage("x", ())) == 1.0

    def test_two_gt_three_preds_one_tp(self):
        preds = [
            pred(0, 0, 10, 10, 0, 0.9),      # TP
            pred(60, 60, 70, 70, 0, 0.8),    # FP: no gt there
            pred(30, 30, 40, 40, 2, 0.7),    # FP: wrong category
        ]
        # P = 1/3, R = 1/2, F1 = 2PR/(P+R) = 0.4
        assert f1_one(preds, self.GT) == pytest.approx(0.4, abs=1e-12)

    def test_category_must_match(self):
        preds = [pred(0, 0, 10, 10, 1, 0.9)]
        assert f1_one(preds, self.GT) == 0.0

    def test_gt_not_double_counted(self):
        preds = [pred(0, 0, 10, 10, 0, 0.9), pred(0, 0, 10, 10, 0, 0.8)]
        # second prediction has no unmatched gt left: P=1/2, R=1/2
        assert f1_one(preds, self.GT) == pytest.approx(0.5, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(0))
        preds_by_image, gt_by_image = random_scene(rng)
        base = f1_image(preds_by_image, gt_by_image)
        shuffled = {image_id: list(preds) for image_id, preds in preds_by_image.items()}
        for preds in shuffled.values():
            rng.shuffle(preds)
        assert f1_image(shuffled, gt_by_image) == base


class TestCocoMap:
    def test_thresholds_are_exact_hundredths(self):
        assert COCO_IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)

    def test_perfect_predictions(self):
        gt = {
            "i1": GroundTruthImage("i1", ((BoundingBox(0, 0, 10, 10), 0),)),
            "i2": GroundTruthImage("i2", ((BoundingBox(5, 5, 25, 25), 2),)),
        }
        preds = {
            "i1": [pred(0, 0, 10, 10, 0, 1.0)],
            "i2": [pred(5, 5, 25, 25, 2, 1.0)],
        }
        result = coco_map(preds, gt, CATALOG3)
        assert result.map_score == pytest.approx(1.0, abs=1e-12)
        assert result.per_category_ap == {0: pytest.approx(1.0), 2: pytest.approx(1.0)}
        assert result.false_positives == 0 and result.false_negatives == 0

    def test_no_predictions(self):
        gt = {"i1": GroundTruthImage("i1", ((BoundingBox(0, 0, 10, 10), 0),))}
        result = coco_map({}, gt, CATALOG3)
        assert result.map_score == 0.0

    def test_single_gt_iou_060_gives_0300_exactly(self):
        # pred shifted down 2.5: intersection 75, union 125, IoU exactly 0.60;
        # AP is 1 at thresholds 0.50/0.55/0.60 and 0 above, so mAP = 0.3
        gt = {"i1": GroundTruthImage("i1", ((BoundingBox(0, 0, 10, 10), 0),))}
        p = pred(0, 2.5, 10, 12.5, 0, 0.9)
        assert iou(p.box, BoundingBox(0, 0, 10, 10)) == 0.6
        result = coco_map({"i1": [p]}, gt, CATALOG3)
        assert result.map_score == 0.3

    def test_empty_ground_truth_rejected(self):
        gt = {"i1": GroundTruthImage("i1", ())}
        with pytest.raises(ValidationError):
            coco_map({}, gt, CATALOG3)

    def test_map_over_gt_present_categories_only(self):
        gt = {"i1": GroundTruthImage("i1", ((BoundingBox(0, 0, 10, 10), 1),))}
        result = coco_map({"i1": [pred(0, 0, 10, 10, 1, 1.0)]}, gt, CATALOG3)
        assert set(result.per_category_ap) == {1}
        assert result.map_score == pytest.approx(1.0, abs=1e-12)

    def test_50_random_scenes_match_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(20240818))
        for case in range(50):
            preds_by_image, gt_by_image = random_scene(rng)
            if all(not g.objects for g in gt_by_image.values()):
                continue
            assert_matches_brute_force(preds_by_image, gt_by_image, f"case {case}")

    def test_long_ranked_lists_match_brute_force(self):
        # dozens of predictions per category and a handful of distinct scores, so the
        # ranked lists are long, full of ties, and cut at the 100-detection cap
        rng = np.random.Generator(np.random.PCG64(7))
        for case in range(8):
            preds_by_image, gt_by_image = crowded_scene(rng)
            got = assert_matches_brute_force(preds_by_image, gt_by_image, f"case {case}")
            # f1_image scores the same 100 best predictions per image as coco_map
            assert got.per_image_f1 == f1_image(preds_by_image, gt_by_image), f"case {case}"

    def test_per_image_f1_matches_f1_image(self):
        # coco_map reads its F1 off the matches at COCO_IOU_THRESHOLDS[0]; f1_image matches alone
        rng = np.random.Generator(np.random.PCG64(20240818))
        for case in range(50):
            preds_by_image, gt_by_image = random_scene(rng)
            if all(not g.objects for g in gt_by_image.values()):
                continue
            got = coco_map(preds_by_image, gt_by_image, CATALOG3).per_image_f1
            assert got == f1_image(preds_by_image, gt_by_image), f"case {case}"

    def test_duplicate_tp_cannot_raise_map(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(10):
            preds_by_image, gt_by_image = random_scene(rng)
            if all(not g.objects for g in gt_by_image.values()):
                continue
            base = coco_map(preds_by_image, gt_by_image, CATALOG3).map_score
            doubled = {
                image_id: list(preds) + [
                    FinalPrediction(p.box, p.category, max(p.score - 0.01, 0.0)) for p in preds
                ]
                for image_id, preds in preds_by_image.items()
            }
            assert coco_map(doubled, gt_by_image, CATALOG3).map_score <= base + 1e-12

    def test_score_scaling_leaves_map_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(10):
            preds_by_image, gt_by_image = random_scene(rng)
            if all(not g.objects for g in gt_by_image.values()):
                continue
            base = coco_map(preds_by_image, gt_by_image, CATALOG3).map_score
            scaled = {
                image_id: [FinalPrediction(p.box, p.category, p.score * 0.5) for p in preds]
                for image_id, preds in preds_by_image.items()
            }
            assert coco_map(scaled, gt_by_image, CATALOG3).map_score == pytest.approx(base, abs=1e-12)

    def test_detection_cap_applied(self):
        gt = {"i1": GroundTruthImage("i1", ((BoundingBox(0, 0, 10, 10), 0),))}
        # 150 disjoint wrong predictions scored above the single right one:
        # the cap drops everything past the first 100, including the TP
        preds = [pred(20 + 3 * i, 20, 22 + 3 * i, 22, 0, 0.9) for i in range(110)]
        preds = [FinalPrediction(p.box, p.category, 0.9 - 0.001 * i) for i, p in enumerate(preds)]
        preds.append(pred(0, 0, 10, 10, 0, 0.1))
        result = coco_map({"i1": preds}, gt, CATALOG3)
        assert result.map_score == 0.0
        assert result.per_image_f1["i1"] == f1_image({"i1": preds}, gt)["i1"] == 0.0


def mixed_request(rng):
    """Forty images in a shuffled, unsorted id order: random and crowded scenes (some with over 100 predictions),
    images with predictions and no objects, objects and no predictions, neither, and an id absent from the ground
    truth; no object is of category 2, which has predictions."""
    gt_by_image, preds_by_image = {}, {}
    for i in range(10):
        preds, gt = random_scene(rng)
        crowded_preds, crowded_gt = crowded_scene(rng)
        for source_preds, source_gt, tag in ((preds, gt, "r"), (crowded_preds, crowded_gt, "c")):
            for image_id, g in source_gt.items():
                name = f"{tag}{i}-{image_id}"
                gt_by_image[name] = GroundTruthImage(name, tuple((b, c % 2) for b, c in g.objects))
                preds_by_image[name] = source_preds.get(image_id, [])
    names = list(gt_by_image)
    for name in names[::7]:
        preds_by_image[name] = []
    for name in names[3::7]:
        gt_by_image[name] = GroundTruthImage(name, ())
    gt_by_image["z-blank"] = GroundTruthImage("z-blank", ())  # no entry in preds_by_image
    preds_by_image["not-in-gt"] = [pred(0, 0, 10, 10, 0, 0.9)]
    order = rng.permutation(len(gt_by_image))
    items = list(gt_by_image.items())
    return preds_by_image, {items[k][0]: items[k][1] for k in order.tolist()}


class TestMatchKernel:
    """``coco_map`` and ``f1_image`` share one lockstep matching kernel; these hold it to the scalar oracles."""

    @pytest.mark.parametrize("budget", ["real", 40])
    def test_a_request_across_chunks_equals_the_scalar_oracles(self, monkeypatch, budget):
        if budget != "real":
            monkeypatch.setattr(data_io, "CHUNK_ELEMENTS", budget)  # a few small images a chunk
        rng = np.random.Generator(np.random.PCG64(71))
        for case in range(3):
            preds_by_image, gt_by_image = mixed_request(rng)
            # an image of 91 or more ranked predictions fills a chunk of the real budget alone
            assert max(len(preds_by_image.get(i, [])) for i in gt_by_image) > MAX_DETECTIONS_PER_IMAGE
            want = {image_id: scalar_f1(preds_by_image.get(image_id, []), gt, iou)
                    for image_id, gt in gt_by_image.items()}
            got = f1_image(preds_by_image, gt_by_image)
            assert list(got) == list(gt_by_image) and got == want, case
            result = assert_matches_brute_force(preds_by_image, gt_by_image, f"case {case}")
            assert result.per_image_f1 == want and list(result.per_image_f1) == list(gt_by_image)
            assert 2 not in result.per_category_ap

    def test_totals_count_the_ranked_predictions_and_the_objects(self):
        rng = np.random.Generator(np.random.PCG64(73))
        preds_by_image, gt_by_image = mixed_request(rng)
        result = coco_map(preds_by_image, gt_by_image, CATALOG3)
        ranked = sum(min(len(preds_by_image.get(i, [])), MAX_DETECTIONS_PER_IMAGE) for i in gt_by_image)
        objects = sum(len(gt.objects) for gt in gt_by_image.values())
        assert result.true_positives + result.false_positives == ranked
        assert result.true_positives + result.false_negatives == objects
        assert 0 < result.true_positives < min(ranked, objects)

    def test_an_iou_tie_goes_to_the_first_object(self):
        # the first prediction reaches both objects at IoU 0.5 and takes the first; the second prediction
        # reaches only that one, so it matches nothing: one TP of two predictions and two objects
        gt = GroundTruthImage("x", ((BoundingBox(0, 0, 10, 20), 0), (BoundingBox(0, 0, 20, 10), 0)))
        preds = [pred(0, 0, 10, 10, 0, 0.9), pred(0, 0, 10, 20, 0, 0.8)]
        assert iou(preds[0].box, gt.objects[0][0]) == iou(preds[0].box, gt.objects[1][0]) == 0.5
        assert f1_one(preds, gt) == scalar_f1(preds, gt, iou) == 0.5
        result = coco_map({"x": preds}, {"x": gt}, CATALOG3)
        assert (result.true_positives, result.false_positives, result.false_negatives) == (1, 1, 1)

    @pytest.mark.parametrize("right_first", [True, False])
    def test_score_and_box_ties_keep_their_order_at_the_cap(self, right_first):
        # 101 predictions of one score and box: the cap keeps the first 100 in the order given, so the one
        # of the object's category is scored only when it comes before the last
        gt = GroundTruthImage("x", ((BoundingBox(0, 0, 10, 10), 0),))
        wrong = [pred(0, 0, 10, 10, 1, 0.5)] * MAX_DETECTIONS_PER_IMAGE
        right = pred(0, 0, 10, 10, 0, 0.5)
        preds = [right] + wrong if right_first else wrong + [right]
        want = 2.0 * 0.01 / 1.01 if right_first else 0.0
        assert f1_one(preds, gt) == scalar_f1(preds, gt, iou) == want
        assert_matches_brute_force({"x": preds}, {"x": gt}, "ties")

    def test_empty_images_raise_no_warning(self):
        objects = ((BoundingBox(0, 0, 10, 10), 0),)
        gt_by_image = {"both": GroundTruthImage("both", ()), "objects": GroundTruthImage("objects", objects),
                       "preds": GroundTruthImage("preds", ()), "none": GroundTruthImage("none", ())}
        preds_by_image = {"preds": [pred(0, 0, 10, 10, 0, 0.9)], "none": []}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f1_image(preds_by_image, gt_by_image) == {"both": 1.0, "objects": 0.0, "preds": 0.0, "none": 1.0}
            assert f1_image({}, {}) == {}
            result = coco_map(preds_by_image, gt_by_image, CATALOG3)
        assert result.map_score == 0.0 and result.per_category_ap == {0: 0.0}


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        preds = {
            "a": [pred(0, 0, 10.5, 10.25, 1, 1.0 / 3.0)],
            "b": [],
        }
        path = tmp_path / "preds.jsonl"
        write_predictions(preds, path)
        assert load_predictions(path, kappa=2) == preds

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        line = '{"image_id": "a", "predictions": []}\n'
        path.write_text(line + line)
        with pytest.raises(ValidationError, match="duplicate"):
            load_predictions(path, kappa=2)


def reference_p_value(df: int, t: float) -> float:
    """Two-sided Student p-value via a 50-digit incomplete-beta evaluation."""
    with mpmath.workdps(50):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        p = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf("0.5"), 0, x, regularized=True)
        return float(p)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(-1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_twenty_reference_points(self):
        # 20 (df, t) points spanning small and large df and tail depths
        points = [
            (1, 0.5), (1, 2.0), (2, 1.0), (3, 0.25), (3, 3.0),
            (5, 0.5), (5, 2.5), (8, 1.0), (10, 0.1), (10, 2.0),
            (12, 4.0), (15, 1.5), (20, 0.75), (20, 3.5), (30, 1.0),
            (40, 2.0), (60, 0.5), (60, 3.0), (120, 1.96), (200, 2.6),
        ]
        assert len(points) == 20
        for df, t in points:
            x = df / (df + t * t)
            got = regularized_incomplete_beta(df / 2.0, 0.5, x)
            want = reference_p_value(df, t)
            assert got == pytest.approx(want, abs=1e-8), f"df={df}, t={t}"


class TestTTest:
    def test_identical_constant_samples(self):
        r = ttest_two_sided([1.0, 1.0, 1.0], [1.0, 1.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_identical_samples(self):
        r = ttest_two_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 0.0
        assert r.p_value == pytest.approx(1.0, abs=1e-12)
        assert r.degrees_of_freedom == 4

    def test_reference_case(self):
        r = ttest_two_sided([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert r.statistic == pytest.approx(-1.0, abs=1e-12)
        assert r.degrees_of_freedom == 8
        assert r.p_value == pytest.approx(0.3466, abs=1e-4)
        # frozen high-precision oracle value
        assert r.p_value == pytest.approx(0.34659350708733416, abs=1e-9)

    def test_swap_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = list(rng.normal(0.0, 1.0, size=10))
        y = list(rng.normal(0.5, 1.2, size=14))
        a = ttest_two_sided(x, y)
        b = ttest_two_sided(y, x)
        assert a.statistic == pytest.approx(-b.statistic, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_zero_variance_unequal_means(self):
        r = ttest_two_sided([0.0, 0.0], [1.0, 1.0])
        assert r.p_value == 0.0
        assert r.statistic == -math.inf
        r2 = ttest_two_sided([1.0, 1.0], [0.0, 0.0])
        assert r2.statistic == math.inf

    def test_small_samples_rejected(self):
        with pytest.raises(ValidationError):
            ttest_two_sided([1.0], [1.0, 2.0])

    def test_p_decreases_as_mean_gap_grows(self):
        rng = np.random.Generator(np.random.PCG64(3))
        base = list(rng.normal(0.0, 1.0, size=20))
        previous = 1.1
        for shift in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
            shifted = [v + shift for v in base]
            p = ttest_two_sided(base, shifted).p_value
            assert p <= previous + 1e-12
            previous = p

    def test_matches_reference_on_random_samples(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            x = list(rng.normal(0.0, 1.0, size=int(rng.integers(3, 15))))
            y = list(rng.normal(rng.uniform(-1, 1), 1.0, size=int(rng.integers(3, 15))))
            r = ttest_two_sided(x, y)
            assert r.p_value == pytest.approx(
                reference_p_value(r.degrees_of_freedom, r.statistic), abs=1e-8
            )
