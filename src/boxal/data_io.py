"""Data model, file formats and readers for detections, ground truth, manifests.

File formats (all JSON, floats serialized losslessly via ``repr``):

* Detections: line-delimited, one image per line::

    {"image_id": str, "width": int, "height": int,
     "passes": [[{"bbox": [x1, y1, x2, y2], "scores": [k floats]}, ...], ...]}

* Ground truth: line-delimited, one image per line::

    {"image_id": str, "objects": [{"bbox": [x1, y1, x2, y2], "category": int}, ...]}

* Manifest: a single JSON document::

    {"categories": [...], "initial_training": [ids], "pool": [ids],
     "validation": [ids], "test": [ids]}

Outside data is checked once, by the reader that takes it in; the values a
reader returns, and every value the package derives from them, are not
checked again. A reader raises only ``FormatError`` (invalid JSON, a missing
field or a value of the wrong JSON type) and ``ValidationError`` (a value
that breaks a rule), and each message starts with the file and, for
line-delimited files, the line. Each rule has one implementation here:
``_box_field`` holds the box rules (four finite coordinates, positive area)
for every file that carries boxes, and ``_parse_detection`` the score rules.
``BoundingBox``, ``Detection`` and ``ImagePasses`` are plain records, so the
objects the package builds itself (simulated passes, mean boxes) are trusted:
the detector boundary is the file contract, and the readers guard it.

Score vectors cover the foreground categories only, each score lies in
[0, 1], and they must sum to 1 within ``SCORE_SUM_TOLERANCE``; invalid sums
are rejected rather than renormalized, because silent renormalization would
hide producer bugs and corrupt the entropy values computed downstream.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping, Sequence

from .errors import BoxalError, FormatError, ValidationError
from .geometry import BoundingBox, iou

SCORE_SUM_TOLERANCE = 1e-6
PARTITIONS = ("initial_training", "pool", "validation", "test")


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
    """One predicted box with its category-probability vector (checked on loading)."""

    box: BoundingBox
    scores: tuple[float, ...]

    @property
    def max_score(self) -> float:
        return max(self.scores)


@dataclass(frozen=True)
class ImagePasses:
    """All detections for one image, grouped per Monte-Carlo forward pass (checked on loading)."""

    image_id: str
    width: int
    height: int
    passes: tuple[tuple[Detection, ...], ...]


@dataclass(frozen=True)
class GroundTruthImage:
    """Annotated objects of one image: (box, category index) pairs."""

    image_id: str
    objects: tuple[tuple[BoundingBox, int], ...]


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
        seen: dict[str, str] = {}
        for name in PARTITIONS:
            for image_id in getattr(self, name):
                if image_id in seen:
                    raise ValidationError(f"duplicate id {image_id!r} in {seen[image_id]} and {name}")
                seen[image_id] = name

    @property
    def all_ids(self) -> frozenset[str]:
        return frozenset().union(*(getattr(self, name) for name in PARTITIONS))


# ---------------------------------------------------------------------------
# reading helpers, shared by every reader of outside data

# exact types, because JSON true and false load as bool, a subclass of int
_NUMBER_TYPES = frozenset((int, float))
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object"}


@contextmanager
def _located(where: str):
    """Prefix ``where`` (a file, ``file:line`` or an image) to a BoxalError raised in the block."""
    try:
        yield
    except BoxalError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _field(record, key: str, kind: type):
    """``record[key]``, which must hold a JSON value of type ``kind``; ``float`` admits integers."""
    if type(record) is not dict:
        raise FormatError(f"expected a JSON object, got {record!r:.80}")
    if key not in record:
        raise FormatError(f"missing field {key!r}")
    value = record[key]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise FormatError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r:.80}")
    return value


def _string_list(record, key: str) -> tuple[str, ...]:
    values = _field(record, key, list)
    if not all(type(v) is str for v in values):
        raise FormatError(f"{key} must be an array of strings, got {values!r:.80}")
    return tuple(values)


def _floats(record, key: str) -> tuple[float, ...]:
    """``record[key]``, an array of JSON numbers that each fit a float."""
    values = _field(record, key, list)
    try:
        if _NUMBER_TYPES.issuperset(map(type, values)):
            return tuple(map(float, values))
    except OverflowError:  # an integer beyond the float range
        pass
    raise FormatError(f"{key} must be an array of numbers, got {values!r:.80}")


def _box_field(record) -> BoundingBox:
    """``record``'s box: four finite coordinates with x_max > x_min and y_max > y_min."""
    coords = _floats(record, "bbox")
    if len(coords) != 4:
        raise FormatError(f"bbox must hold 4 numbers, got {len(coords)}")
    if not all(map(math.isfinite, coords)):
        raise ValidationError(f"box coordinates must be finite numbers, got {coords}")
    x_min, y_min, x_max, y_max = coords
    if not (x_max > x_min and y_max > y_min):
        raise ValidationError(
            f"box must have strictly positive area (x_max > x_min, y_max > y_min), got {coords}"
        )
    return BoundingBox(*coords)


def _labeled_box(record, kappa: int) -> tuple[BoundingBox, int]:
    """``record``'s box and category; the category is nonnegative and below ``kappa``."""
    box = _box_field(record)
    category = _field(record, "category", int)
    if category < 0:
        raise FormatError(f"category must be a nonnegative integer, got {category}")
    if category >= kappa:
        raise ValidationError(f"category index {category} outside [0, {kappa})")
    return box, category


def _open_input(path: str | Path, mode: str = "rb", **kwargs):
    """``open(path, mode)``; a file that cannot be opened is a FormatError naming it."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise FormatError(f"{path}: cannot open: {exc.strerror or exc}") from exc


def _iter_jsonl(path: Path) -> Iterable[tuple[int, object]]:
    """(line number, JSON value) for each nonblank line of ``path``."""
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also bytes that are not UTF-8
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield lineno, record


def _load_json(path: str | Path, parse: Callable):
    """``parse`` applied to the JSON document in ``path``; errors name the file."""
    with _open_input(path) as fh:
        text = fh.read()
    with _located(str(path)):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        return parse(doc)


def _load_by_image(path: str | Path, parse: Callable) -> dict:
    """``{image_id: parse(image_id, record)}`` over a line-delimited file of unique image ids."""
    path = Path(path)
    out = {}
    for lineno, record in _iter_jsonl(path):
        with _located(f"{path}:{lineno}"):
            image_id = _field(record, "image_id", str)
            if image_id in out:
                raise ValidationError(f"duplicate image_id {image_id!r}")
            out[image_id] = parse(image_id, record)
    return out


def load_id_list(path: str | Path, known: Container[str] | None = None) -> list[str]:
    """The ids of an id-list file, one per nonblank line; each appears once and, given ``known``, is in it."""
    ids: dict[str, None] = {}  # insertion-ordered set
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                image_id = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: not UTF-8: {exc}") from None
            if not image_id:
                continue
            if image_id in ids:
                raise ValidationError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
            if known is not None and image_id not in known:
                raise ValidationError(f"{path}:{lineno}: unknown image_id {image_id!r}")
            ids[image_id] = None
    return list(ids)


def _save_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# detections


def _parse_detection(raw) -> Detection:
    """``raw``'s box and scores; each score lies in [0, 1] and they sum to 1 within the tolerance."""
    box = _box_field(raw)
    scores = _floats(raw, "scores")
    # written so that NaN fails the range test too
    if any(not 0.0 <= s <= 1.0 for s in scores):
        raise ValidationError(f"scores must be finite and lie in [0, 1], got {scores}")
    total = sum(scores)
    if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
        raise ValidationError(f"scores must sum to 1 within {SCORE_SUM_TOLERANCE}, got {total}")
    return Detection(box, scores)


def _parse_image_passes(image_id: str, record, expected_n: int | None, kappa: int | None) -> ImagePasses:
    width = _field(record, "width", int)
    height = _field(record, "height", int)
    raw_passes = _field(record, "passes", list)
    with _located(f"image {image_id!r}"):
        if width <= 0 or height <= 0:
            raise ValidationError(f"width/height must be positive, got {width}x{height}")
        if expected_n is not None and len(raw_passes) != expected_n:
            raise ValidationError(f"expected {expected_n} passes, got {len(raw_passes)}")
        passes = []
        for raw_pass in raw_passes:
            if type(raw_pass) is not list:
                raise FormatError(f"each pass must be an array, got {raw_pass!r:.80}")
            dets = tuple(map(_parse_detection, raw_pass))
            for det in dets:
                b = det.box
                if b.x_min < 0 or b.y_min < 0 or b.x_max > width or b.y_max > height:
                    raise ValidationError(
                        f"box {b.as_tuple()} outside image bounds [0,{width}]x[0,{height}]"
                    )
                if kappa is None:
                    kappa = len(det.scores)  # the image's first vector sets the length
                elif len(det.scores) != kappa:
                    raise ValidationError(f"expected {kappa} scores, got {len(det.scores)}")
            passes.append(dets)
    return ImagePasses(image_id, width, height, tuple(passes))


def load_image_passes(
    path: str | Path,
    expected_n: int | None = None,
    kappa: int | None = None,
) -> list[ImagePasses]:
    """Load and check a line-delimited detections file.

    Every image needs a positive integer size, unique id, boxes inside the
    image and score vectors of one length. When given, ``expected_n``
    enforces the run's pass count and ``kappa`` the score-vector length.
    """
    parse = partial(_parse_image_passes, expected_n=expected_n, kappa=kappa)
    return list(_load_by_image(path, parse).values())


def save_image_passes(images: Sequence[ImagePasses], path: str | Path) -> None:
    _save_jsonl((
        {
            "image_id": img.image_id,
            "width": img.width,
            "height": img.height,
            "passes": [
                [{"bbox": list(d.box.as_tuple()), "scores": list(d.scores)} for d in p]
                for p in img.passes
            ],
        }
        for img in images
    ), path)


def canonical_order(detections: Iterable[Detection]) -> list[Detection]:
    """Descending max score; ties broken by the lexicographic order of the box corners."""
    return sorted(detections, key=lambda d: (-d.max_score, d.box.as_tuple()))


def apply_thresholds(img: ImagePasses, confidence: float = 0.5, nms_iou: float = 0.3) -> ImagePasses:
    """Per pass: drop detections with max score below ``confidence``, then greedy NMS.

    NMS visits detections in ``canonical_order`` and keeps one iff its IoU
    with every already-kept detection is below ``nms_iou``; kept detections
    stay in that visiting order. The pass count is unchanged and the
    operation is idempotent. Both thresholds lie in [0, 1], which
    ``RunConfig`` checks.
    """
    new_passes = []
    for pass_dets in img.passes:
        survivors = [d for d in pass_dets if d.max_score >= confidence]
        if len(survivors) < 2:  # NMS keeps one detection, in any order
            new_passes.append(tuple(survivors))
            continue
        kept: list[Detection] = []
        for det in canonical_order(survivors):
            if all(iou(det.box, k.box) < nms_iou for k in kept):
                kept.append(det)
        new_passes.append(tuple(kept))
    return ImagePasses(img.image_id, img.width, img.height, tuple(new_passes))


# ---------------------------------------------------------------------------
# ground truth


def load_ground_truth(path: str | Path, kappa: int) -> dict[str, GroundTruthImage]:
    """Load a ground-truth file; categories are nonnegative and below ``kappa``."""
    return _load_by_image(path, lambda image_id, record: GroundTruthImage(
        image_id, tuple(_labeled_box(raw, kappa) for raw in _field(record, "objects", list))
    ))


def save_ground_truth(images: Mapping[str, GroundTruthImage], path: str | Path) -> None:
    _save_jsonl((
        {
            "image_id": gt.image_id,
            "objects": [{"bbox": list(box.as_tuple()), "category": cat} for box, cat in gt.objects],
        }
        for gt in images.values()
    ), path)


# ---------------------------------------------------------------------------
# manifest


def _parse_manifest(doc) -> DatasetManifest:
    """A manifest from a JSON object holding ``categories`` and the four partitions."""
    catalog = CategoryCatalog(_string_list(doc, "categories"))
    return DatasetManifest(catalog, **{name: _string_list(doc, name) for name in PARTITIONS})


def load_manifest(path: str | Path) -> DatasetManifest:
    return _load_json(path, _parse_manifest)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    doc = {"categories": list(manifest.catalog.names)}
    doc.update((name, list(getattr(manifest, name))) for name in PARTITIONS)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
