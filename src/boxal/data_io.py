"""Data model and file formats for multi-pass detections, ground truth, manifests.

File formats (all JSON, floats serialized losslessly via ``repr``):

* Detections: line-delimited, one image per line::

    {"image_id": str, "width": int, "height": int,
     "passes": [[{"bbox": [x1, y1, x2, y2], "scores": [k floats]}, ...], ...]}

* Ground truth: line-delimited, one image per line::

    {"image_id": str, "objects": [{"bbox": [x1, y1, x2, y2], "category": int}, ...]}

* Manifest: a single JSON document::

    {"categories": [...], "initial_training": [ids], "pool": [ids],
     "validation": [ids], "test": [ids]}

Score vectors cover the foreground categories only and must sum to 1 within
1e-6; invalid sums are rejected rather than renormalized, because silent
renormalization would hide producer bugs and corrupt the entropy values
computed downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import FormatError, ValidationError
from .geometry import BoundingBox, iou

SCORE_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class CategoryCatalog:
    """Ordered, fixed set of category names for a run."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) < 2:
            raise ValidationError(f"catalog needs at least 2 categories, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("category names must be unique")
        if any(not n for n in self.names):
            raise ValidationError("category names must be nonempty")

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Detection:
    """One predicted box with its category-probability vector."""

    box: BoundingBox
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        # written so that NaN fails the range test too
        if any(not 0.0 <= s <= 1.0 for s in self.scores):
            raise ValidationError(f"scores must be finite and lie in [0, 1], got {self.scores}")
        total = sum(self.scores)
        if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
            raise ValidationError(f"scores must sum to 1 within {SCORE_SUM_TOLERANCE}, got {total}")

    @property
    def max_score(self) -> float:
        return max(self.scores)

    @property
    def category(self) -> int:
        return max(range(len(self.scores)), key=lambda i: self.scores[i])


@dataclass(frozen=True)
class ImagePasses:
    """All detections for one image, grouped per Monte-Carlo forward pass."""

    image_id: str
    width: int
    height: int
    passes: tuple[tuple[Detection, ...], ...]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"{self.image_id}: width/height must be positive")
        kappa = None
        for pass_dets in self.passes:
            for det in pass_dets:
                b = det.box
                if b.x_min < 0 or b.y_min < 0 or b.x_max > self.width or b.y_max > self.height:
                    raise ValidationError(
                        f"{self.image_id}: box {b.as_tuple()} outside image bounds "
                        f"[0,{self.width}]x[0,{self.height}]"
                    )
                if kappa is None:
                    kappa = len(det.scores)
                elif len(det.scores) != kappa:
                    raise ValidationError(f"{self.image_id}: inconsistent score-vector lengths")

    @property
    def n_passes(self) -> int:
        return len(self.passes)


@dataclass(frozen=True)
class GroundTruthImage:
    """Annotated objects of one image: (box, category index) pairs."""

    image_id: str
    objects: tuple[tuple[BoundingBox, int], ...]

    def validate_categories(self, kappa: int) -> None:
        for _, cat in self.objects:
            if not 0 <= cat < kappa:
                raise ValidationError(f"{self.image_id}: category index {cat} outside [0, {kappa})")


@dataclass(frozen=True)
class DatasetManifest:
    catalog: CategoryCatalog
    initial_training: tuple[str, ...]
    pool: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self) -> None:
        # an entirely empty manifest (zero images) is allowed; otherwise the
        # initial training partition must be nonempty
        if not self.initial_training and (self.pool or self.validation or self.test):
            raise ValidationError("initial_training partition must be nonempty")
        parts = {
            "initial_training": self.initial_training,
            "pool": self.pool,
            "validation": self.validation,
            "test": self.test,
        }
        seen: dict[str, str] = {}
        for name, ids in parts.items():
            if len(set(ids)) != len(ids):
                raise ValidationError(f"duplicate image ids within partition {name}")
            for image_id in ids:
                if image_id in seen:
                    raise ValidationError(
                        f"image id {image_id!r} appears in both {seen[image_id]} and {name}"
                    )
                seen[image_id] = name

    @property
    def all_ids(self) -> frozenset[str]:
        return frozenset(self.initial_training) | frozenset(self.pool) | frozenset(
            self.validation
        ) | frozenset(self.test)


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_box(raw, where: str) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise FormatError(f"{where}: bbox must be a 4-element array, got {raw!r}")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _iter_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise FormatError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, record


# ---------------------------------------------------------------------------
# detections


def load_image_passes(
    path: str | Path,
    expected_n: int | None = None,
    kappa: int | None = None,
) -> list[ImagePasses]:
    """Load and validate a line-delimited detections file.

    When given, ``expected_n`` enforces the run's pass count on every image
    and ``kappa`` enforces the score-vector length.
    """
    path = Path(path)
    out: list[ImagePasses] = []
    seen: set[str] = set()
    for lineno, record in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        try:
            image_id = record["image_id"]
            width = record["width"]
            height = record["height"]
            raw_passes = record["passes"]
        except KeyError as exc:
            raise FormatError(f"{where}: missing field {exc}") from exc
        if image_id in seen:
            raise ValidationError(f"{where}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        passes = []
        for raw_pass in raw_passes:
            dets = []
            for raw_det in raw_pass:
                box = _parse_box(raw_det.get("bbox"), f"{where} image {image_id!r}")
                raw_scores = raw_det.get("scores")
                if not isinstance(raw_scores, list):
                    raise FormatError(f"{where} image {image_id!r}: scores must be an array")
                try:
                    det = Detection(box, tuple(float(s) for s in raw_scores))
                except ValidationError as exc:
                    raise ValidationError(f"{where} image {image_id!r}: {exc}") from exc
                if kappa is not None and len(det.scores) != kappa:
                    raise ValidationError(
                        f"{where} image {image_id!r}: expected {kappa} scores, got {len(det.scores)}"
                    )
                dets.append(det)
            passes.append(tuple(dets))
        img = ImagePasses(image_id, int(width), int(height), tuple(passes))
        if expected_n is not None and img.n_passes != expected_n:
            raise ValidationError(
                f"{where} image {image_id!r}: expected {expected_n} passes, got {img.n_passes}"
            )
        out.append(img)
    return out


def save_image_passes(images: Sequence[ImagePasses], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for img in images:
            record = {
                "image_id": img.image_id,
                "width": img.width,
                "height": img.height,
                "passes": [
                    [{"bbox": list(d.box.as_tuple()), "scores": list(d.scores)} for d in p]
                    for p in img.passes
                ],
            }
            fh.write(json.dumps(record) + "\n")


def canonical_order(detections: Iterable[Detection]) -> list[Detection]:
    """Descending max score; ties broken by the lexicographic order of the box corners."""
    return sorted(detections, key=lambda d: (-d.max_score, d.box.as_tuple()))


def apply_thresholds(img: ImagePasses, confidence: float = 0.5, nms_iou: float = 0.3) -> ImagePasses:
    """Per pass: drop detections with max score below ``confidence``, then greedy NMS.

    NMS visits detections in ``canonical_order`` and keeps one iff its IoU
    with every already-kept detection is below ``nms_iou``; kept detections
    stay in that visiting order. The pass count is unchanged and the
    operation is idempotent.
    """
    if not 0.0 <= confidence <= 1.0 or not 0.0 <= nms_iou <= 1.0:
        raise ValidationError("thresholds must lie in [0, 1]")
    new_passes = []
    for pass_dets in img.passes:
        survivors = [d for d in pass_dets if d.max_score >= confidence]
        kept: list[Detection] = []
        for det in canonical_order(survivors):
            if all(iou(det.box, k.box) < nms_iou for k in kept):
                kept.append(det)
        new_passes.append(tuple(kept))
    return ImagePasses(img.image_id, img.width, img.height, tuple(new_passes))


# ---------------------------------------------------------------------------
# ground truth


def load_ground_truth(path: str | Path, kappa: int | None = None) -> dict[str, GroundTruthImage]:
    path = Path(path)
    out: dict[str, GroundTruthImage] = {}
    for lineno, record in _iter_jsonl(path):
        where = f"{path}:{lineno}"
        try:
            image_id = record["image_id"]
            raw_objects = record["objects"]
        except KeyError as exc:
            raise FormatError(f"{where}: missing field {exc}") from exc
        if image_id in out:
            raise ValidationError(f"{where}: duplicate image_id {image_id!r}")
        objects = []
        for raw in raw_objects:
            box = _parse_box(raw.get("bbox"), f"{where} image {image_id!r}")
            cat = raw.get("category")
            if not isinstance(cat, int) or cat < 0:
                raise FormatError(f"{where} image {image_id!r}: category must be a nonneg integer")
            objects.append((box, cat))
        gt = GroundTruthImage(image_id, tuple(objects))
        if kappa is not None:
            gt.validate_categories(kappa)
        out[image_id] = gt
    return out


def save_ground_truth(images: Mapping[str, GroundTruthImage], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in images:
            gt = images[image_id]
            record = {
                "image_id": gt.image_id,
                "objects": [
                    {"bbox": list(box.as_tuple()), "category": cat} for box, cat in gt.objects
                ],
            }
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# manifest


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return DatasetManifest(
            catalog=CategoryCatalog(tuple(doc["categories"])),
            initial_training=tuple(doc["initial_training"]),
            pool=tuple(doc["pool"]),
            validation=tuple(doc["validation"]),
            test=tuple(doc["test"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    doc = {
        "categories": list(manifest.catalog.names),
        "initial_training": list(manifest.initial_training),
        "pool": list(manifest.pool),
        "validation": list(manifest.validation),
        "test": list(manifest.test),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
