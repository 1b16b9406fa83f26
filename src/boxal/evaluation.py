"""Detection evaluation: per-image F1, COCO-style mAP, two-sample t-test.

mAP follows the COCO 2017 conventions: IoU thresholds 0.50:0.05:0.95, greedy
score-descending matching against the highest-IoU unmatched ground-truth
object, 101-point interpolated average precision, at most 100 detections per
image, and the mean taken over categories with at least one ground-truth
instance. Area/maxDets breakdowns are out of scope; only the headline mAP and
per-category APs are produced. ``coco_map`` and ``f1_image`` share one
kernel, ``_match``: one ``lexsort`` ranks every image's 100 best predictions,
and lockstep array steps over rank match them at every threshold at once,
choosing as grouping's ``_best_open`` chooses (``tests/oracles.py`` keeps the
scalar rule, ``greedy_match``). Per-image F1 reads the matches at ``F1_IOU``,
so it scores the predictions mAP scores. AP is accumulated as in pycocotools'
``COCOeval.accumulate``, on a category's score-ordered ``(D, 10)`` TP flags:
cumulative sums give precision and recall, the precision envelope is a
running max from the right, a ``searchsorted`` finds the 101 recall points,
and every total is a cumulative sum, which adds left to right.

The t-test is the classic pooled-variance (equal-variance) two-sample Student
test. The two-sided p-value is computed from the regularized incomplete beta
function, implemented here with a Lentz-style continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import data_io
from .data_io import (
    MAX_DETECTIONS_PER_IMAGE,
    CategoryCatalog,
    GroundTruthImage,
    _field,
    _labeled_box,
    _load_by_image,
    _chunks,
    _row_sums,
)
from .errors import ValidationError
from .geometry import BoundingBox, iou_matrix
from .grouping import InstanceSet, SetColumns, _best_open

COCO_IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
F1_IOU = COCO_IOU_THRESHOLDS[0]  # 0.5, the IoU of per-image F1 in f1_image and coco_map


@dataclass(frozen=True)
class FinalPrediction:
    """A single consolidated prediction: box, winning category, its score in [0, 1]."""

    box: BoundingBox
    category: int
    score: float


@dataclass(frozen=True)
class EvalResult:
    per_category_ap: dict[int, float]
    map_score: float
    per_image_f1: dict[str, float]
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    degrees_of_freedom: int
    p_value: float


def _score_order(pred: FinalPrediction) -> tuple:
    """Sort key: descending score, ties broken by the box corners."""
    return (-pred.score, pred.box.as_tuple())


def _predictions(sets: SetColumns) -> list[FinalPrediction]:
    """Every set's prediction, built once: mean box, the first highest mean score's category, that mean up to 1.0."""
    if "predictions" not in sets.results:
        categories, means = np.empty(len(sets.sizes), np.intp), np.empty(len(sets.sizes))
        for part, scores in sets.gathered(sets.batch.scores):
            mean_scores = _row_sums(scores.transpose(0, 2, 1)) / sets.sizes[part, None]
            categories[part], means[part] = mean_scores.argmax(axis=1), mean_scores.max(axis=1)
        boxes = map(BoundingBox._make, sets.mean_boxes.tolist())
        sets.results["predictions"] = list(map(FinalPrediction, boxes, categories.tolist(),
                                               np.minimum(means, 1.0).tolist()))
    return sets.results["predictions"]


def consolidate(sets: Sequence[InstanceSet]) -> list[FinalPrediction]:
    """Reduce instance sets to single predictions: mean box, mean scores, argmax.

    Output is ordered by descending score, ties by box corners.
    """
    preds = [_predictions(s.sets)[s.index] for s in sets]
    preds.sort(key=_score_order)
    return preds


def _f1(tp: int, n_preds: int, n_gt: int) -> float:
    if tp == 0:
        return 1.0 if n_preds == 0 and n_gt == 0 else 0.0
    precision, recall = tp / n_preds, tp / n_gt
    return 2.0 * precision * recall / (precision + recall)


def _padded(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, max count) positions of each run of ``counts`` rows from ``starts``, padded with 0, and which are real."""
    real = np.arange(counts.max()) < counts[:, None]
    return np.where(real, starts[:, None] + np.arange(counts.max()), 0), real


def _match(preds_by_image: Mapping[str, Sequence[FinalPrediction]], gt_by_image: Mapping[str, GroundTruthImage],
           thresholds: Sequence[float]) -> tuple:
    """Greedy matching of every image of ``gt_by_image`` at each of the ascending ``thresholds``: the ranked
    predictions' image (position in ``gt_by_image``), score, category and corner columns, image after image, each
    image's ``MAX_DETECTIONS_PER_IMAGE`` best in ``_score_order``; their (R, T) TP flags; the objects' categories;
    and each image's F1 at the first threshold, in ``gt_by_image`` order.

    At a threshold, each prediction in rank order takes the first untaken object of its image and category of highest
    IoU that reaches the threshold (``grouping._best_open``; pycocotools' ``evaluateImg`` takes the last of a tie).
    Images with predictions and objects go in chunks (``data_io._chunks``), sorted by the larger count D, of B
    images with B * D_max**2 <= ``CHUNK_ELEMENTS``, whose (B, P, G) ``iou_matrix`` is masked to each prediction's
    category. Where no two predictions reach one object at the first threshold, each matches wherever its highest
    IoU reaches the threshold; the C other images step in lockstep, rank after rank, at every threshold at once,
    with a (C * T, G) mask of the objects still open.
    """
    preds = [preds_by_image.get(image_id, ()) for image_id in gt_by_image]
    records = list(chain.from_iterable(preds))
    owner = np.repeat(np.arange(len(preds)), [len(p) for p in preds])
    boxes = np.fromiter(chain.from_iterable(p.box for p in records), np.float64).reshape(-1, 4)
    scores = np.fromiter((p.score for p in records), np.float64, len(records))
    order = np.lexsort((*boxes.T[::-1], -scores, owner))  # owner is sorted, so each image's run keeps its place
    order = order[np.arange(len(order)) - np.searchsorted(owner, owner) < MAX_DETECTIONS_PER_IMAGE]
    owner, boxes, scores = owner[order], boxes[order], scores[order]
    categories = np.fromiter((p.category for p in records), np.intp, len(records))[order]
    objects = [gt.objects for gt in gt_by_image.values()]
    gt_boxes = np.fromiter(chain.from_iterable(box for gt in objects for box, _ in gt), np.float64).reshape(-1, 4)
    gt_categories = np.fromiter((category for gt in objects for _, category in gt), np.intp)
    counts, gt_counts = np.bincount(owner, minlength=len(preds)), np.array([len(gt) for gt in objects], np.intp)
    sizes = np.where((counts > 0) & (gt_counts > 0), np.maximum(counts, gt_counts), 0)
    images = np.flatnonzero(sizes)[np.argsort(sizes[sizes > 0], kind="stable")]
    flags = np.zeros((len(owner), len(thresholds)), bool)
    for run in _chunks(sizes[images].tolist(), lambda b, d: b * d * d <= data_io.CHUNK_ELEMENTS):
        part = images[run]
        at, real = _padded(np.cumsum(counts)[part] - counts[part], counts[part])
        gt_at, gt_real = _padded(np.cumsum(gt_counts)[part] - gt_counts[part], gt_counts[part])
        same = (categories[at][:, :, None] == gt_categories[gt_at][:, None]) & real[:, :, None] & gt_real[:, None]
        values = np.where(same, iou_matrix(boxes[at], gt_boxes[gt_at]), -np.inf)  # (B, P, G)
        hits = values.max(axis=2)[..., None] >= thresholds  # (B, P, T), right where no object is contested
        contested = np.flatnonzero(((values >= thresholds[0]).sum(axis=1) > 1).any(axis=1))
        steps, open_objects = values[contested], np.ones((len(contested) * len(thresholds), values.shape[2]), bool)
        floors = np.tile(thresholds, len(contested))[:, None]  # row c * T + t holds image c at threshold t
        for rank in np.flatnonzero((steps >= thresholds[0]).any(axis=(0, 2))).tolist():
            best = _best_open(np.repeat(steps[:, rank], len(thresholds), axis=0), open_objects, floors)
            taken = np.flatnonzero(best >= 0)
            open_objects[taken, best[taken]] = False
            hits[contested, rank] = (best >= 0).reshape(len(contested), len(thresholds))
        flags[at[real]] = hits[real]

    tp = np.bincount(owner[flags[:, 0]], minlength=len(preds)).tolist()
    per_image_f1 = dict(zip(gt_by_image, map(_f1, tp, counts.tolist(), gt_counts.tolist())))
    return (owner, scores, categories, boxes), flags, gt_categories, per_image_f1


def f1_image(preds_by_image: Mapping[str, Sequence[FinalPrediction]],
             gt_by_image: Mapping[str, GroundTruthImage]) -> dict[str, float]:
    """Each image's detection F1 at IoU ``F1_IOU``, in ``gt_by_image`` order.

    An image's ``MAX_DETECTIONS_PER_IMAGE`` best predictions are scored, as
    in ``coco_map``. A prediction counts as a true positive if it greedily
    matches an unmatched ground-truth object of the same category with IoU
    >= F1_IOU. Both-empty images score 1 so blanks do not read as failures.
    """
    return _match(preds_by_image, gt_by_image, (F1_IOU,))[-1]


def _average_precision(flags: np.ndarray, n_gt: int) -> float:
    """A category's AP: 101-point interpolated AP averaged over ``COCO_IOU_THRESHOLDS``.

    ``flags`` holds the category's score-ordered TP flags, one column per
    threshold, and ``n_gt`` > 0 its ground-truth count. Recall point r reads
    the envelope at the first recall >= r - 1e-12, or 0 past the last.
    """
    tp = np.cumsum(flags, axis=0)
    precision = tp / np.arange(1, len(flags) + 1)[:, None]
    envelope = np.maximum.accumulate(precision[::-1], axis=0)[::-1]
    envelope = np.vstack([envelope, np.zeros(flags.shape[1])])  # read by recall points past the last
    recall_points = np.arange(101) / 100.0 - 1e-12
    points = [envelope[np.searchsorted(recall, recall_points), t] for t, recall in enumerate((tp / n_gt).T)]
    return float(np.cumsum(np.cumsum(points, axis=1)[:, -1] / 101.0)[-1] / flags.shape[1])


def coco_map(
    preds_by_image: Mapping[str, Sequence[FinalPrediction]],
    gt_by_image: Mapping[str, GroundTruthImage],
    catalog: CategoryCatalog,
) -> EvalResult:
    """COCO-style mAP plus per-image F1 at IoU ``F1_IOU``."""
    if all(not gt.objects for gt in gt_by_image.values()):
        raise ValidationError("mAP is undefined with no ground-truth objects")
    (owner, scores, categories, boxes), flags, gt_categories, per_image_f1 = _match(
        preds_by_image, gt_by_image, COCO_IOU_THRESHOLDS)
    # each id's place in string order, a permutation's inverse: a "stable" argsort, as the kernels use, because
    # numpy's default one is a SIMD sort whose code adds 0.2 MB to a run's resident size
    names = np.argsort(sorted(range(len(gt_by_image)), key=list(gt_by_image).__getitem__), kind="stable")
    # a category's detections by descending score, then image id, then corners; ties keep image and rank order
    order = np.lexsort((*boxes.T[::-1], names[owner], -scores, categories))
    bounds = np.searchsorted(categories[order], np.arange(len(catalog) + 1)).tolist()
    gt_count = np.bincount(gt_categories, minlength=len(catalog)).tolist()
    per_category_ap = {
        category: _average_precision(flags[order[bounds[category]:bounds[category + 1]]], gt_count[category])
        for category in range(len(catalog)) if gt_count[category]
    }
    map_score = sum(per_category_ap.values()) / len(per_category_ap)
    tp = int(flags[:, 0].sum())  # at COCO_IOU_THRESHOLDS[0], F1_IOU
    return EvalResult(per_category_ap, map_score, per_image_f1, tp, len(owner) - tp, len(gt_categories) - tp)


# ---------------------------------------------------------------------------
# predictions file format: line-delimited, one image per line:
# {"image_id": str, "predictions": [{"bbox": [x1,y1,x2,y2], "category": int, "score": f}]}


def _parse_prediction(raw, kappa: int) -> FinalPrediction:
    box, category = _labeled_box(raw, kappa)
    score = _field(raw, "score", float)
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"prediction score must be in [0, 1], got {score}")
    return FinalPrediction(box, category, float(score))


def load_predictions(path: str | Path, kappa: int) -> dict[str, list[FinalPrediction]]:
    """Load a predictions file; categories are nonnegative and below ``kappa``."""
    return _load_by_image(path, lambda _, record: [
        _parse_prediction(raw, kappa) for raw in _field(record, "predictions", list)
    ])


# ---------------------------------------------------------------------------
# Student's t-test


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    eps = 1e-15
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0

    def floor(v: float) -> float:
        return tiny if abs(v) < tiny else v

    c = 1.0
    d = 1.0 / floor(1.0 - qab * x / qap)
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # the even then the odd step of the fraction's m-th pair of terms
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / floor(1.0 + aa * d)
            c = floor(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValidationError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def ttest_two_sided(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Two-sided unpaired Student's t-test with pooled variance.

    With zero pooled variance the test degenerates: equal means give
    (t=0, p=1); unequal means give p=0 with t reported as signed infinity.
    """
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise ValidationError(f"both samples need >= 2 values, got {nx} and {ny}")
    mx = sum(x) / nx
    my = sum(y) / ny
    df = nx + ny - 2
    ssq = sum((v - mx) ** 2 for v in x) + sum((v - my) ** 2 for v in y)
    pooled = ssq / df
    if pooled == 0.0:
        if mx == my:
            return TTestResult(0.0, df, 1.0)
        return TTestResult(math.copysign(math.inf, mx - my), df, 0.0)
    t = (mx - my) / math.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(t, df, min(max(p, 0.0), 1.0))
