"""The engine path of one iteration equals the scalar reference, ``oracles.reference_iteration``.

Seeded requests go through what the loop runs on a detections file:
``apply_thresholds``, then ``orchestrator._predict`` (grouping, certainty and
consolidation), ``sample_min_certainty``, ``f1_image`` and ``coco_map``. Each
request is scored under two match IoUs on its one ``Request``, so a result
kept on the request for one IoU cannot answer for the other. Set counts,
minimum triples, c_min, predictions, the sample and F1 must agree bit for
bit; mAP within the brute-force tolerance. The requests hold empty images and
empty passes, exact zero scores and exact ties of mean scores, κ of 2 to 5
and 33, and an image at the reader's cap; under small chunk budgets the
larger ones span several chunks of NMS, grouping, the set kernels and
matching.
"""

from dataclasses import astuple

import numpy as np
import pytest

from boxal import data_io, grouping
from boxal.data_io import CategoryCatalog, Detection, GroundTruthImage, apply_thresholds
from boxal.evaluation import coco_map, f1_image
from boxal.geometry import BoundingBox
from boxal.orchestrator import RunConfig, _predict
from boxal.sampling import sample_min_certainty

from oracles import cap_image, reference_iteration, request_of

MATCH_IOUS = (0.5, 0.1)
# the mass of an object's own category; the rest goes to one other category, so 0.5 and pairs such as 0.6 and
# 0.4 on two passes tie the two categories' mean scores exactly
SHARES = (1.0, 0.9, 0.7, 0.6, 0.5, 0.4)


def scores(rng, kappa: int, category: int) -> tuple[float, ...]:
    """A score vector: ``category``'s share of ``SHARES`` and one other category's rest, or a random vector with
    exact zeros."""
    vector = np.zeros(kappa)
    if rng.random() < 0.8:
        share = SHARES[int(rng.integers(0, len(SHARES)))]
        vector[category] = share
        vector[(category + int(rng.integers(1, kappa))) % kappa] += 1.0 - share
    else:
        vector = rng.gamma(1.0, size=kappa) * (rng.random(kappa) < 0.6)
        vector[category] += 1.0
        vector /= vector.sum()
    return tuple(vector.tolist())


def random_images(rng, kappa: int, n: int, count: int):
    """``count`` (image_id, width, height, passes) records and their ground truth: 0 to 4 objects on a coarse grid,
    each seen by most passes with jittered corners, and strays; every third image of a request with no detection."""
    records, gt = [], {}
    for i in range(count):
        objects = []
        for _ in range(int(rng.integers(0, 5))):
            x, y = (float(v) * 10.0 for v in rng.integers(0, 8, 2))
            w, h = (float(v) * 10.0 for v in rng.integers(1, 4, 2))
            objects.append((BoundingBox(x, y, x + w, y + h), int(rng.integers(0, kappa))))
        passes = []
        for _ in range(n):
            dets = []
            for box, category in (objects if i % 3 != 2 else ()):
                if rng.random() < 0.75:
                    jittered = BoundingBox(*(np.array(box) + rng.integers(-3, 4, 4)).tolist())
                    dets.append(Detection(jittered, scores(rng, kappa, category)))
            if i % 3 != 2 and rng.random() < 0.3:
                x, y = (float(v) * 10.0 for v in rng.integers(0, 9, 2))
                stray = BoundingBox(x, y, x + 10.0, y + 10.0)
                dets.append(Detection(stray, scores(rng, kappa, int(rng.integers(0, kappa)))))
            passes.append(tuple(dets))
        image_id = f"img_{i}"
        records.append((image_id, 100, 100, tuple(passes)))
        gt[image_id] = GroundTruthImage(image_id, tuple(objects))
    return records, gt


def requests(seed: int):
    """(records, ground truth, κ, n) of 30 seeded requests of 1 to 11 images, then one of κ 33 and one that holds
    ``oracles.cap_image``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(30):
        kappa, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        yield (*random_images(rng, kappa, n, int(rng.integers(1, 12))), kappa, n)
    yield (*random_images(rng, 33, 3, 8), 33, 3)
    records, gt = random_images(rng, 2, 15, 3)
    cap = cap_image(rng)
    objects = {(p.box, int(p.scores[1] > p.scores[0])) for p in cap.passes[0]}  # the first pass's boxes
    gt[cap.image_id] = GroundTruthImage(cap.image_id, tuple(sorted(objects)))
    yield [*records, (cap.image_id, cap.width, cap.height, cap.passes)], gt, 2, 15


@pytest.mark.parametrize("budget", ["real", "small"])
def test_the_engine_path_equals_the_scalar_reference(monkeypatch, budget):
    if budget == "small":  # each request of more than a few images spans several chunks of every kernel
        monkeypatch.setattr(grouping, "CHUNK_ROWS", 16)
        monkeypatch.setattr(grouping, "CHUNK_IOUS", 256)
        monkeypatch.setattr(data_io, "CHUNK_ELEMENTS", 32)
    rng = np.random.Generator(np.random.PCG64(7))
    seen = {"empty image": 0, "empty pass": 0, "zero score": 0, "mean-score tie": 0}
    if budget == "small":
        seen["several chunks"] = 0
    for records, gt, kappa, n in requests(1 if budget == "real" else 2):
        catalog = CategoryCatalog(tuple(f"c{k}" for k in range(kappa)))
        ids = [image_id for image_id, *_ in records]
        pool_ids = [image_id for image_id in ids if rng.random() < 0.6] or ids[:1]
        test_ids = [image_id for image_id in ids if image_id not in pool_ids]
        confidence, nms_iou = (0.5, 0.3) if rng.random() < 0.7 else (0.0, 0.7)
        batch_size = int(rng.integers(0, len(pool_ids) + 1))
        images = request_of(records)
        kept = {img.image_id: apply_thresholds(img, confidence, nms_iou) for img in images}
        rows = sum(len(img.rows) for img in kept.values())
        if budget == "small":
            seen["several chunks"] += rows > 2 * grouping.CHUNK_ROWS and rows * kappa > 2 * data_io.CHUNK_ELEMENTS
        for match_iou in MATCH_IOUS:  # one request, so its cached results, for both IoUs
            want = reference_iteration(images, gt, catalog, pool_ids, test_ids, confidence=confidence,
                                       nms_iou=nms_iou, match_iou=match_iou, n=n, batch_size=batch_size)
            config = RunConfig(passes_n=n, confidence=confidence, nms_iou=nms_iou, match_iou=match_iou)
            preds, certainties = _predict(kept, config, pool_ids)
            assert preds == want.predictions
            assert {i: (c.set_count, c.c_min, astuple(c.min_triple)) for i, c in certainties.items()} == \
                want.certainties
            scored = [(image_id, c.c_min) for image_id, c in certainties.items()]
            assert sample_min_certainty(scored, batch_size) == want.sampled
            assert f1_image({i: preds[i] for i in pool_ids}, {i: gt[i] for i in pool_ids}) == want.f1
            if want.map_score is not None:
                got = coco_map({i: preds[i] for i in test_ids}, {i: gt[i] for i in test_ids}, catalog).map_score
                assert got == pytest.approx(want.map_score, abs=1e-9)
            members = [m for found in want.sets.values() for m in found]
            means = [np.sum([d.scores for _, d in m], axis=0) for m in members]
            seen["mean-score tie"] += sum((m == m.max()).sum() > 1 for m in means)
        seen["empty image"] += sum(not any(img.passes) for img in kept.values())
        seen["empty pass"] += sum(() in img.passes for img in kept.values())
        seen["zero score"] += sum(0.0 in d.scores for *_, passes in records for dets in passes for d in dets)
    assert all(seen.values()), seen
