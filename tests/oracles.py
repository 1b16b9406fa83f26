"""Independently coded reference implementations used as test oracles.

These deliberately avoid reusing the library's internals beyond the plain
data types, so that agreement between the two is meaningful. Each kernel has
its scalar rule here: ``brute_force_nms`` for thresholding,
``brute_force_grouping`` for grouping, ``scalar_triple`` for certainty,
``scalar_prediction`` for consolidation, ``greedy_match`` and ``scalar_f1``
for per-image F1, and ``brute_force_map`` for mAP. ``reference_iteration``
chains them into the scalar reference of one iteration's engine path:
threshold, group, score, consolidate, sample, F1 and mAP.

The builders ``request_of`` and ``image_passes`` put detection records into a
batch, as the readers do, for tests that state their detections as records;
``members_of`` is the one place tests read the sets ``group_passes`` returns
as records, and ``image_key`` is what tests compare images by.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from boxal.data_io import CategoryCatalog, Detection, GroundTruthImage, ImagePasses, _image_views
from boxal.evaluation import FinalPrediction
from boxal.geometry import BoundingBox, iou


# ---------------------------------------------------------------------------
# records into batches


def _columns(detections) -> tuple[np.ndarray, np.ndarray]:
    """The (D, 4) corners and (D, κ) scores of the detection records, one row each, in order."""
    kappa = len(detections[0].scores) if detections else 0
    boxes = np.array([d.box for d in detections], dtype=np.float64).reshape(-1, 4)
    return boxes, np.array([d.scores for d in detections], dtype=np.float64).reshape(len(detections), kappa)


def request_of(images) -> list[ImagePasses]:
    """The images of one request, from (image_id, width, height, passes of detection records) tuples."""
    boxes, scores = _columns([d for *_, passes in images for dets in passes for d in dets])
    return _image_views(boxes, scores, [(*header, [len(dets) for dets in passes]) for *header, passes in images])


def image_passes(image_id: str, width: int, height: int, passes) -> ImagePasses:
    """The image whose passes hold the detection records ``passes``, alone in its request."""
    (img,) = request_of([(image_id, width, height, passes)])
    return img


def members_of(sets) -> list[list[tuple[int, Detection]]]:
    """Each set's (pass index, detection record) pairs, in pass order, for sets that ``group_passes`` returns."""
    return [list(s.members) for s in sets]


def image_key(img: ImagePasses) -> tuple:
    """An image's id, size and detection records: two images that hold the same detections have the same key."""
    return img.image_id, img.width, img.height, img.passes


# ---------------------------------------------------------------------------
# the scalar mean box


def _added(values) -> float:
    """``values`` added left to right from 0.0, as the kernels' cumulative sums add."""
    total = 0.0
    for value in values:
        total += value
    return total


def mean_box(boxes) -> BoundingBox:
    """Coordinate-wise arithmetic mean of a nonempty sequence of boxes, each sum taken in box order."""
    k = len(boxes)
    return BoundingBox(*(_added(corner) / k for corner in zip(*boxes)))


# ---------------------------------------------------------------------------
# rasterized IoU: count unit cells of a fine grid inside each box


def rasterized_iou(a: BoundingBox, b: BoundingBox, pitch: float = 0.25) -> float:
    """IoU computed by counting cell centers of a fixed fine grid.

    Exact when every box coordinate is a multiple of the grid pitch, because
    then no cell straddles a box edge.
    """
    x_lo = math.floor(min(a.x_min, b.x_min) / pitch) * pitch
    x_hi = math.ceil(max(a.x_max, b.x_max) / pitch) * pitch
    y_lo = math.floor(min(a.y_min, b.y_min) / pitch) * pitch
    y_hi = math.ceil(max(a.y_max, b.y_max) / pitch) * pitch
    xs = x_lo + (np.arange(round((x_hi - x_lo) / pitch)) + 0.5) * pitch
    ys = y_lo + (np.arange(round((y_hi - y_lo) / pitch)) + 0.5) * pitch
    gx, gy = np.meshgrid(xs, ys)

    def inside(box):
        return (gx >= box.x_min) & (gx < box.x_max) & (gy >= box.y_min) & (gy < box.y_max)

    in_a = inside(a)
    in_b = inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


# ---------------------------------------------------------------------------
# the scalar greedy assignment rule


def greedy_match(rows, threshold: float) -> list[int]:
    """For each row in order, the column it takes, or -1 if it takes none.

    A row is its ``(column, value)`` pairs. It takes the column of its highest
    value >= ``threshold`` among the columns no earlier row took; ties go to
    the pair listed first.
    """
    taken: set[int] = set()
    matches = []
    for row in rows:
        best, best_value = -1, -1.0
        for column, value in row:
            if value >= threshold and value > best_value and column not in taken:
                best, best_value = column, value
        taken.add(best)  # -1 is no column, so adding it takes nothing
        matches.append(best)
    return matches


def scalar_f1(preds, gt: GroundTruthImage, iou_fn) -> float:
    """One image's F1 at IoU 0.5: its 100 best predictions by descending score, then box corners, each matched
    by ``greedy_match`` to the objects of its category; 1.0 when the image has neither."""
    ranked = sorted(preds, key=lambda p: (-p.score, p.box.as_tuple()))[:100]
    rows = [[(j, iou_fn(p.box, box)) for j, (box, category) in enumerate(gt.objects) if category == p.category]
            for p in ranked]
    tp = sum(j >= 0 for j in greedy_match(rows, 0.5))
    if not ranked and not gt.objects:
        return 1.0
    if tp == 0:
        return 0.0
    precision, recall = tp / len(ranked), tp / len(gt.objects)
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# brute-force greedy NMS written as an elimination sweep rather than a
# keep-list accumulation


def brute_force_nms(detections, iou_threshold, iou_fn):
    remaining = sorted(detections, key=lambda d: (-d[1], d[0].as_tuple()))
    kept = []
    while remaining:
        top = remaining.pop(0)
        kept.append(top)
        remaining = [d for d in remaining if iou_fn(top[0], d[0]) < iou_threshold]
    return kept


# ---------------------------------------------------------------------------
# brute-force cross-pass grouping, restated from the assignment rule


def brute_force_grouping(img: ImagePasses, match_iou: float, iou_fn):
    """Returns a list of lists of (pass_index, Detection), in creation order."""
    groups: list[list[tuple[int, Detection]]] = []
    for p, dets in enumerate(img.passes):
        ordered = sorted(dets, key=lambda d: (-max(d.scores), d.box.as_tuple()))
        taken: set[int] = set()  # groups already fed by this pass (incl. new ones)
        for det in ordered:
            # score every open group by its best member overlap
            candidates = []
            for g, members in enumerate(groups):
                if g in taken:
                    continue
                overlap = max(iou_fn(det.box, m.box) for _, m in members)
                if overlap >= match_iou:
                    candidates.append((overlap, -g))
            if candidates:
                overlap, neg_g = max(candidates)  # highest IoU, then lowest index
                groups[-neg_g].append((p, det))
                taken.add(-neg_g)
            else:
                taken.add(len(groups))
                groups.append([(p, det)])
    return groups


# ---------------------------------------------------------------------------
# brute-force COCO-style mAP via direct 101-point precision interpolation


def _match_flags(detections, gt_by_image, category, thr, iou_fn):
    used = {image_id: [False] * len(gt.objects) for image_id, gt in gt_by_image.items()}
    flags = []
    for _, image_id, pred in detections:
        best = None
        best_v = 0.0
        for j, (gt_box, gt_cat) in enumerate(gt_by_image[image_id].objects):
            if used[image_id][j] or gt_cat != category:
                continue
            v = iou_fn(pred.box, gt_box)
            if v >= thr and v > best_v:
                best = j
                best_v = v
        if best is not None:
            used[image_id][best] = True
        flags.append(best is not None)
    return flags


def brute_force_map(preds_by_image, gt_by_image, catalog: CategoryCatalog, iou_fn):
    """Reference mAP: per category/threshold PR points, direct interpolation."""
    thresholds = [t / 100.0 for t in range(50, 100, 5)]
    aps = {}
    for category in range(len(catalog)):
        n_gt = sum(
            1 for gt in gt_by_image.values() for _, c in gt.objects if c == category
        )
        if n_gt == 0:
            continue
        detections = []
        for image_id in gt_by_image:
            ordered = sorted(
                preds_by_image.get(image_id, ()),
                key=lambda p: (-p.score, p.box.as_tuple()),
            )[:100]
            for p in ordered:
                if p.category == category:
                    detections.append((p.score, image_id, p))
        detections.sort(key=lambda d: (-d[0], d[1], d[2].box.as_tuple()))
        ap_total = 0.0
        for thr in thresholds:
            flags = _match_flags(detections, gt_by_image, category, thr, iou_fn)
            prec, rec = [], []
            tp = 0
            for i, f in enumerate(flags, start=1):
                tp += int(f)
                prec.append(tp / i)
                rec.append(tp / n_gt)
            points = 0.0
            for k in range(101):
                r = k / 100.0
                eligible = [p for p, q in zip(prec, rec) if q >= r - 1e-12]
                points += max(eligible) if eligible else 0.0
            ap_total += points / 101.0
        aps[category] = ap_total / len(thresholds)
    return sum(aps.values()) / len(aps), aps


# ---------------------------------------------------------------------------
# the scalar reference engine: one set's certainty and prediction, and one iteration


def scalar_triple(members, kappa: int, n: int) -> tuple[float, float, float]:
    """(c_sem, c_spa, c_occ) of the set of (pass index, detection record) ``members``, in pass order, of n passes.

    A member's entropy is minus the sum of ``s * math.log(s)`` over its positive scores; c_sem is the mean of
    ``1 - entropy / log(kappa)``, c_spa the mean IoU of ``mean_box`` with each member box, and c_occ the share of
    passes with a member. Every sum adds member after member.
    """
    dets = [d for _, d in members]
    entropies = [-_added(s * math.log(s) for s in d.scores if s > 0.0) for d in dets]
    center = mean_box([d.box for d in dets])
    return (_added(1.0 - h / math.log(kappa) for h in entropies) / len(dets),
            _added(iou(center, d.box) for d in dets) / len(dets),
            len(dets) / n)


def scalar_prediction(members) -> FinalPrediction:
    """The set's prediction: ``mean_box``, each category's mean score, the first category of highest mean, and that
    mean capped at 1.0."""
    dets = [d for _, d in members]
    means = [_added(column) / len(dets) for column in zip(*(d.scores for d in dets))]
    best = max(range(len(means)), key=means.__getitem__)  # max keeps the first of equal keys
    return FinalPrediction(mean_box([d.box for d in dets]), best, min(means[best], 1.0))


class Iteration(NamedTuple):
    """What ``reference_iteration`` computes."""

    sets: dict  # image_id: each set's members, as brute_force_grouping lists them
    predictions: dict  # image_id: the image's predictions by descending score, then box corners
    certainties: dict  # pool image_id: (set count, c_min, (c_sem, c_spa, c_occ) of the first set of c_min)
    sampled: list  # the batch_size pool images of lowest (c_min, image_id), in that order
    f1: dict  # pool image_id: its F1
    map_score: float | None  # the test images' mAP, None when they hold no object


def reference_iteration(images, gt_by_image, catalog: CategoryCatalog, pool_ids, test_ids, *,
                        confidence: float, nms_iou: float, match_iou: float, n: int, batch_size: int) -> Iteration:
    """One iteration of the loop's engine path, scalar, over ``images`` (objects with ``image_id`` and ``passes``).

    Each pass keeps its detections of max score >= ``confidence`` that ``brute_force_nms`` keeps, and
    ``brute_force_grouping`` makes the sets. A pool image's c_min is the least ``c_sem * c_spa * c_occ`` of
    ``scalar_triple`` over its sets, 1.0 with the triple (1.0, 1.0, 1.0) without sets. Predictions are
    ``scalar_prediction``, F1 ``scalar_f1`` and mAP ``brute_force_map``.
    """
    kappa, pool = len(catalog), set(pool_ids)
    sets, predictions, certainties = {}, {}, {}
    for img in images:
        kept = tuple(
            tuple(d for *_, d in brute_force_nms(
                [(d.box, max(d.scores), d) for d in dets if max(d.scores) >= confidence], nms_iou, iou))
            for dets in img.passes)
        found = sets[img.image_id] = brute_force_grouping(SimpleNamespace(passes=kept), match_iou, iou)
        predictions[img.image_id] = sorted(map(scalar_prediction, found), key=lambda p: (-p.score, p.box.as_tuple()))
        if img.image_id in pool:
            triples = [scalar_triple(members, kappa, n) for members in found]
            c_h = [c_sem * c_spa * c_occ for c_sem, c_spa, c_occ in triples]
            c_min = min(c_h, default=1.0)
            certainties[img.image_id] = (len(found), c_min, triples[c_h.index(c_min)] if found else (1.0, 1.0, 1.0))
    ranked = sorted((c_min, image_id) for image_id, (_, c_min, _) in certainties.items())
    gt_test = {image_id: gt_by_image[image_id] for image_id in test_ids}
    has_objects = any(gt.objects for gt in gt_test.values())
    return Iteration(
        sets, predictions, certainties, [image_id for _, image_id in ranked[:batch_size]],
        {image_id: scalar_f1(predictions[image_id], gt_by_image[image_id], iou) for image_id in pool_ids},
        brute_force_map(predictions, gt_test, catalog, iou)[0] if has_objects else None,
    )


# ---------------------------------------------------------------------------
# random scene generator shared by the evaluation tests


def random_scene(rng: np.random.Generator, kappa: int = 3):
    """One small random evaluation scene: gt and predictions for 1-3 images."""
    gt_by_image = {}
    preds_by_image = {}
    n_images = int(rng.integers(1, 4))
    score_pool = list(rng.permutation(np.linspace(0.05, 0.99, 40)))
    for i in range(n_images):
        image_id = f"im{i}"
        objects = []
        for _ in range(int(rng.integers(0, 4))):
            x0 = float(rng.integers(0, 60))
            y0 = float(rng.integers(0, 60))
            w = float(rng.integers(8, 30))
            h = float(rng.integers(8, 30))
            objects.append((BoundingBox(x0, y0, x0 + w, y0 + h), int(rng.integers(0, kappa))))
        gt_by_image[image_id] = GroundTruthImage(image_id, tuple(objects))
        preds = []
        for _ in range(int(rng.integers(0, 5))):
            if objects and rng.random() < 0.6:
                # derive from a gt box with an integer shift so IoU varies
                base, cat = objects[int(rng.integers(0, len(objects)))]
                dx = float(rng.integers(-6, 7))
                dy = float(rng.integers(-6, 7))
                box = BoundingBox(base.x_min + dx, base.y_min + dy, base.x_max + dx, base.y_max + dy)
                if rng.random() < 0.2:
                    cat = int(rng.integers(0, kappa))
            else:
                x0 = float(rng.integers(0, 60))
                y0 = float(rng.integers(0, 60))
                box = BoundingBox(x0, y0, x0 + float(rng.integers(8, 30)), y0 + float(rng.integers(8, 30)))
                cat = int(rng.integers(0, kappa))
            preds.append(FinalPrediction(box, cat, float(score_pool.pop())))
        preds_by_image[image_id] = preds
    return preds_by_image, gt_by_image


def random_passes(rng: np.random.Generator, image_id: str = "img", kappa: int = 3,
                  max_passes: int = 4, max_dets: int = 5) -> ImagePasses:
    """Random multi-pass detections on a coarse grid so overlaps are common."""
    n = int(rng.integers(1, max_passes + 1))
    passes = []
    for _ in range(n):
        dets = []
        for _ in range(int(rng.integers(0, max_dets + 1))):
            x0 = float(rng.integers(0, 8)) * 10.0
            y0 = float(rng.integers(0, 8)) * 10.0
            w = float(rng.integers(1, 4)) * 10.0
            h = float(rng.integers(1, 4)) * 10.0
            raw = rng.gamma(1.0, size=kappa) + 1e-9
            scores = tuple(float(v) for v in raw / raw.sum())
            dets.append(Detection(BoundingBox(x0, y0, min(x0 + w, 100.0), min(y0 + h, 100.0)), scores))
        passes.append(tuple(dets))
    return image_passes(image_id, 100, 100, passes)


def cap_image(rng):
    """An image at the reader's cap: 15 passes of 100 detections, each a jittered copy of one of 100 objects."""
    corners = rng.integers(0, 90, size=(100, 2)) * 10.0
    objects = np.concatenate([corners, corners + rng.integers(2, 6, size=(100, 2)) * 10.0], axis=1)
    passes = []
    for _ in range(15):
        boxes = np.clip(objects + rng.integers(-3, 4, size=(100, 4)), 0.0, 1000.0)
        scores = rng.choice([0.6, 0.7, 0.9], size=100)
        passes.append(tuple(Detection(BoundingBox(*box), (score, 1.0 - score))
                            for box, score in zip(boxes.tolist(), scores.tolist())))
    return image_passes("cap", 1000, 1000, passes)
