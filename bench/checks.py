"""Checks of a finished run's outputs, and measurements of its inputs.

Everything here runs after the timed loop. The spot checks compare boxal with
the brute-force oracles of ``tests/oracles.py``, imported from that file and
never changed:

* ``apply_thresholds`` against ``brute_force_nms`` and ``group_passes``
  against ``brute_force_grouping``, on a seeded sample of the images of the
  final detection request;
* ``coco_map`` against ``brute_force_map`` on the test split, and the final
  row of ``log.csv`` against the same oracle value.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import random
import statistics
from pathlib import Path

from boxal import (
    apply_thresholds,
    coco_map,
    consolidate,
    group_passes,
    load_ground_truth,
    load_image_passes,
    load_manifest,
)

ROOT = Path(__file__).resolve().parent.parent
SPOT_CHECK_IMAGES = 16
DESCRIBE_IMAGES = 100


def _oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def box_iou(a, b) -> float:
    """IoU written out here rather than taken from boxal, for the oracles."""
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def log_digest(run_dir: Path) -> str:
    return hashlib.sha256((run_dir / "log.csv").read_bytes()).hexdigest()


def detection_requests(run_dir: Path) -> list[tuple[dict, Path]]:
    """Each detection request with the file that answers it, in iteration order."""
    out = []
    for path in sorted((run_dir / "requests").glob("*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "image_ids" in doc and "passes" in doc:
            out.append((doc, run_dir / "detections" / f"{path.stem}.jsonl"))
    out.sort(key=lambda request: request[0]["iteration"])
    return out


def spot_check(run_dir: Path, config, seed: int) -> list[str]:
    """Mismatches between boxal and the oracles; empty when the outputs agree."""
    oracles = _oracles()
    manifest = load_manifest(run_dir / "manifest.json")
    kappa = len(manifest.catalog)
    _, final_path = detection_requests(run_dir)[-1]
    raw = {img.image_id: img for img in load_image_passes(final_path, config.passes_n, kappa)}
    kept = {i: apply_thresholds(img, config.confidence, config.nms_iou) for i, img in raw.items()}
    errors = []

    sample = random.Random(seed).sample(sorted(raw), min(SPOT_CHECK_IMAGES, len(raw)))
    for image_id in sample:
        for p, dets in enumerate(raw[image_id].passes):
            survivors = [(d.box, max(d.scores), d) for d in dets if max(d.scores) >= config.confidence]
            want = [d for _, _, d in oracles.brute_force_nms(survivors, config.nms_iou, box_iou)]
            if list(kept[image_id].passes[p]) != want:
                errors.append(f"{final_path.name} {image_id} pass {p}: apply_thresholds != brute_force_nms")
        got = [list(s.members) for s in group_passes(kept[image_id], config.match_iou)]
        if got != oracles.brute_force_grouping(kept[image_id], config.match_iou, box_iou):
            errors.append(f"{final_path.name} {image_id}: group_passes != brute_force_grouping")

    gt = load_ground_truth(run_dir / "ground_truth.jsonl", kappa=kappa)
    preds = {i: consolidate(group_passes(kept[i], config.match_iou)) for i in manifest.test}
    gt_test = {i: gt[i] for i in manifest.test}
    want, _ = oracles.brute_force_map(preds, gt_test, manifest.catalog, box_iou)
    got = coco_map(preds, gt_test, manifest.catalog).map_score
    if abs(got - want) > 1e-9:
        errors.append(f"test-split coco_map {got!r} != brute_force_map {want!r}")
    with open(run_dir / "log.csv", "r", encoding="utf-8", newline="") as fh:
        logged = float(list(csv.DictReader(fh))[-1]["map"])
    if abs(logged - want) > 1e-8:
        errors.append(f"log.csv final map {logged!r} != brute_force_map {want!r}")
    return errors


def describe_inputs(run_dir: Path, config, seed: int) -> dict:
    """The input properties the engine's cost depends on, measured on the first request."""
    oracles = _oracles()
    requests = detection_requests(run_dir)
    images = load_image_passes(requests[0][1], config.passes_n)
    sample = random.Random(seed).sample(images, min(DESCRIBE_IMAGES, len(images)))
    sets = [
        len(oracles.brute_force_grouping(
            apply_thresholds(img, config.confidence, config.nms_iou), config.match_iou, box_iou
        ))
        for img in sample
    ]
    dets = [d for img in images for p in img.passes for d in p]
    return {
        "images_per_request": statistics.mean(len(doc["image_ids"]) for doc, _ in requests),
        "detections_per_pass": len(dets) / (len(images) * config.passes_n),
        "instance_sets_per_image": statistics.mean(sets),
        "empty_image_fraction": sum(1 for s in sets if s == 0) / len(sets),
        "score_vector_length": len(dets[0].scores) if dets else 0,
    }
