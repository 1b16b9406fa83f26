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
``_checked_box`` holds the box rules (finite coordinates, positive area)
for every file that carries boxes, and ``_check_scores`` the score rules.
``BoundingBox``, ``Detection`` and ``GroundTruthImage`` are plain records, so
the objects the package builds itself (simulated passes, mean boxes) are
trusted: the detector boundary is the file contract, and the readers guard it.
Every file the package writes is opened by ``_open_output``; ``_write_lines``
replaces a file whole, by a temp file and a rename.

Detections travel as columns. ``load_image_passes``, the one detections
reader, decodes a file line by line into one ``DetectionBatch`` (through flat
``array("d")`` buffers, so the file's JSON is never held at once); its numeric
rules are whole-array screens whose flagged rows the rule functions judge.
A file's images are one ``Request``, the unit of work of thresholding,
grouping, certainty and consolidation: the first call on any of its images
computes every image's share and keeps it on the request. An ``ImagePasses``
is a view of one image, its rows in canonical order; its ``passes`` and a
set's ``members`` are record views, built only when read. Thresholding is
one kernel over a request's ranked rows: greedy NMS runs on every pass at
once, in chunks of at most ``CHUNK_ELEMENTS`` IoUs, so none grows with the
file. ``_chunks`` orders units by size and cuts the chunks, and ``_padded``
lays them out, for NMS, grouping and evaluation's matching alike.

Score vectors cover the foreground categories only, each score lies in
[0, 1], and they must sum to 1 within ``SCORE_SUM_TOLERANCE``; invalid sums
are rejected rather than renormalized, because silent renormalization would
hide producer bugs and corrupt the entropy values computed downstream.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, pairwise
from operator import itemgetter
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import BoxalError, FormatError, ValidationError
from .geometry import BoundingBox, iou_matrix

SCORE_SUM_TOLERANCE = 1e-6
# the most detections a pass of an image may hold, and the most predictions per image that
# mAP and F1 score (COCO's maxDets); grouping's memory is at most quadratic in an image's detections
MAX_DETECTIONS_PER_IMAGE = 100
CHUNK_ELEMENTS = 2**13  # the values a chunked kernel holds per temporary: NMS's IoUs, a set kernel's gathered values
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


def _row_sums(columns: np.ndarray) -> np.ndarray:
    """Each row's sum along the last axis, added left to right from 0.0 as Python's ``sum`` adds floats."""
    if columns.shape[-1] == 0:
        return np.zeros(columns.shape[:-1])
    return np.cumsum(columns, axis=-1)[..., -1] + 0.0  # + 0.0 turns a -0.0 sum into sum's 0.0


@dataclass(eq=False)
class DetectionBatch:
    """Detections as columns: row i of each column belongs to detection i.

    ``boxes`` holds the (D, 4) corners and ``scores`` the (D, κ) score
    vectors, both float64, and ``max_scores`` each row's max score. A
    detections file is read into one batch; the simulator builds one per image.
    """

    boxes: np.ndarray
    scores: np.ndarray
    max_scores: np.ndarray

    def detections(self, rows: Sequence[int]) -> list[Detection]:
        """The records of ``rows``."""
        rows = list(rows)
        return [Detection(BoundingBox._make(b), tuple(s))
                for b, s in zip(self.boxes[rows].tolist(), self.scores[rows].tolist())]


@dataclass(eq=False)
class Request:
    """The images of one detections file, or one image built alone, over one batch.

    ``ranked`` holds every pass's batch rows, pass after pass, and ``counts`` each pass's row count. Image i
    is (image_id, width, height) ``headers[i]`` and holds passes ``firsts[i]`` to ``firsts[i + 1]`` of the
    request; pass p holds ``ranked[offsets[p]:offsets[p + 1]]``, so image i's rows are ``rows(i)``,
    ``ranked[offsets[firsts[i]]:offsets[firsts[i + 1]]]``. ``results`` keeps what is computed once for all
    images, keyed by computation and parameters. A request holds no view, so its last view's end frees it
    and its batch.
    """

    batch: DetectionBatch
    headers: list[tuple[str, int, int]]
    ranked: np.ndarray
    counts: np.ndarray
    firsts: np.ndarray
    offsets: np.ndarray = field(init=False)
    results: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.offsets = np.zeros(len(self.counts) + 1, np.intp)
        np.cumsum(self.counts, out=self.offsets[1:])

    def rows(self, index: int) -> np.ndarray:
        """Image ``index``'s batch rows, pass after pass."""
        return self.ranked[self.offsets[self.firsts[index]]:self.offsets[self.firsts[index + 1]]]


class ImagePasses:
    """All detections for one image, grouped per Monte-Carlo forward pass, as rows of a batch.

    An image is image ``index`` of ``request``. ``rows`` holds its batch rows
    pass after pass, each pass in canonical order: descending max score, then
    the box corners, then the order its detections were read or given; it is
    a slice of the request's ``ranked``, made when read. Pass p is
    ``rows[bounds[p]:bounds[p + 1]]``. ``passes`` is the record view, built
    when it is first read.
    """

    def __init__(self, request: Request, index: int):
        self.request, self.index, self.batch = request, index, request.batch
        self.image_id, self.width, self.height = request.headers[index]

    @property
    def rows(self) -> np.ndarray:
        return self.request.rows(self.index)

    @property
    def bounds(self) -> list[int]:
        offsets = self.request.offsets[self.request.firsts[self.index]:self.request.firsts[self.index + 1] + 1]
        return (offsets - offsets[0]).tolist()

    @cached_property
    def passes(self) -> tuple[tuple[Detection, ...], ...]:
        dets = self.batch.detections(self.rows.tolist())
        return tuple(tuple(dets[start:stop]) for start, stop in pairwise(self.bounds))


def _image_views(
    boxes: np.ndarray, scores: np.ndarray, images: Sequence[tuple[str, int, int, Sequence[int]]]
) -> list[ImagePasses]:
    """One request's images, over one batch of the rows ``boxes`` and ``scores``, each over consecutive rows.

    ``images`` holds each image's (image_id, width, height, detections per
    pass), in row order. Each pass of the batch gets an ordinal, so one
    ``lexsort`` puts every pass in canonical order.
    """
    counts = np.fromiter(chain.from_iterable(image[3] for image in images), np.intp)
    batch = DetectionBatch(boxes, scores, scores.max(axis=1, initial=0.0))
    ordinal = np.repeat(np.arange(len(counts)), counts)
    x_min, y_min, x_max, y_max = boxes.T
    ranked = np.lexsort((y_max, x_max, y_min, x_min, -batch.max_scores, ordinal))
    firsts = np.cumsum([0, *(len(image[3]) for image in images)])
    request = Request(batch, [image[:3] for image in images], ranked, counts, firsts)
    return [ImagePasses(request, index) for index in range(len(images))]


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
                line = image_id.encode(errors="replace").decode().strip()  # what load_id_list reads back
                if not line or line != image_id or "\n" in image_id:  # so trainset_iter_N.txt could not hold it
                    raise ValidationError(f"{name} id {image_id!r} is not a nonempty, stripped UTF-8 line")
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


def _checked_box(coords: tuple[float, ...]) -> BoundingBox:
    """The box of four coordinates, which must be finite with x_max > x_min and y_max > y_min."""
    if not all(map(math.isfinite, coords)):
        raise ValidationError(f"box coordinates must be finite numbers, got {coords}")
    x_min, y_min, x_max, y_max = coords
    if not (x_max > x_min and y_max > y_min):
        raise ValidationError(
            f"box must have strictly positive area (x_max > x_min, y_max > y_min), got {coords}"
        )
    return BoundingBox(*coords)


def _box_field(record) -> BoundingBox:
    """``record``'s box: four numbers that ``_checked_box`` accepts."""
    coords = _floats(record, "bbox")
    if len(coords) != 4:
        raise FormatError(f"bbox must hold 4 numbers, got {len(coords)}")
    return _checked_box(coords)


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


@contextmanager
def _open_output(path: str | Path, mode: str, name: str | Path | None = None) -> Iterator[TextIO]:
    """``open(path, mode)`` as UTF-8 text, lines as written, closed on exit; an OSError in opening, writing or closing
    is a BoxalError naming ``name`` (by default ``path``). Every file the package writes is opened here."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise BoxalError(f"{name or path}: cannot write: {exc.strerror or exc}") from exc


def _write_lines(lines: Iterable[str], path: str | Path) -> None:
    """``lines``, each with its line end, streamed into ``path.tmp``, which then replaces ``path`` whole. Errors name
    ``path``; a crash leaves the old file or none, plus at most the ``.tmp``, which the next write overwrites."""
    tmp = f"{path}.tmp"
    with _open_output(tmp, "w", path) as fh:
        fh.writelines(lines)
        fh.close()  # the lines are in the file before the rename
        os.replace(tmp, path)


def _remove(path: str | Path) -> None:
    """Remove ``path`` if it exists; an OSError is a BoxalError naming it."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise BoxalError(f"{path}: cannot remove: {exc.strerror or exc}") from exc


def _json_value(text):
    """The JSON value that ``text`` holds; invalid JSON is a FormatError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also bytes that are not UTF-8
        raise FormatError(f"invalid JSON: {exc}") from exc


def _load_json(path: str | Path, parse: Callable):
    """``parse`` applied to the JSON document in ``path``; errors name the file."""
    with _open_input(path) as fh:
        text = fh.read()
    with _located(str(path)):
        return parse(_json_value(text))


def _load_by_image(path: str | Path, parse: Callable) -> dict:
    """``{image_id: parse(image_id, record)}`` over a line-delimited file of unique image ids."""
    out = {}
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                with _located(f"{path}:{lineno}"):
                    record = _json_value(line)
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


# ---------------------------------------------------------------------------
# detections


def _check_scores(scores: tuple[float, ...]) -> None:
    """Each score lies in [0, 1], and the scores sum to 1 within ``SCORE_SUM_TOLERANCE``."""
    # written so that NaN fails the range test too
    if any(not 0.0 <= s <= 1.0 for s in scores):
        raise ValidationError(f"scores must be finite and lie in [0, 1], got {scores}")
    total = sum(scores)
    if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
        raise ValidationError(f"scores must sum to 1 within {SCORE_SUM_TOLERANCE}, got {total}")


def _check_detection(box: BoundingBox, scores: tuple[float, ...], width: int, height: int) -> None:
    """The score rules, then ``box`` inside the image."""
    _check_scores(scores)
    if box.x_min < 0 or box.y_min < 0 or box.x_max > width or box.y_max > height:
        raise ValidationError(f"box {box.as_tuple()} outside image bounds [0,{width}]x[0,{height}]")


_bbox, _scores = itemgetter("bbox"), itemgetter("scores")
_EXACT_SIZE = 2**53  # image sizes up to here compare with float coordinates exactly as floats
_SUM_SLACK = 1e-12  # more than any summation order moves a sum of scores; nearer sums are judged by the rule


def _append_passes(raw_passes: list, width: int, height: int, kappa: int | None, line: bytes,
                   boxes: array, scores: array) -> tuple[int | None, list[int]]:
    """Append one image's detections to the buffers; the file's κ and the image's pass sizes.

    The screen checks a line in whole-list steps: each pass an array of at most
    ``MAX_DETECTIONS_PER_IMAGE`` detections, each box 4 numbers and each score
    vector κ numbers (the file's first vector sets κ). A line that fails it, or
    holds JSON ``true`` or ``false`` (read as 1.0 and 0.0 by the buffers), is
    walked detection by detection under every rule, raising its first fault.
    """
    marks = len(boxes), len(scores)
    try:
        if (b"true" not in line and b"false" not in line
                and list(map(type, raw_passes)).count(list) == len(raw_passes)
                and max(counts := list(map(len, raw_passes)), default=0) <= MAX_DETECTIONS_PER_IMAGE):
            dets = list(chain.from_iterable(raw_passes))
            raw_boxes, raw_scores = list(map(_bbox, dets)), list(map(_scores, dets))
            lengths = list(map(len, raw_scores))
            line_kappa = lengths[0] if kappa is None and lengths else kappa
            # a length of 0 is walked: an empty string or object has it too
            if list(map(len, raw_boxes)).count(4) == len(dets) and lengths.count(line_kappa or -1) == len(dets):
                boxes.extend(chain.from_iterable(raw_boxes))
                scores.extend(chain.from_iterable(raw_scores))
                return line_kappa, counts
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    del boxes[marks[0]:], scores[marks[1]:]
    for p, raw_pass in enumerate(raw_passes):
        if type(raw_pass) is not list:
            raise FormatError(f"each pass must be an array, got {raw_pass!r:.80}")
        if len(raw_pass) > MAX_DETECTIONS_PER_IMAGE:
            raise ValidationError(
                f"pass {p} holds {len(raw_pass)} detections, more than {MAX_DETECTIONS_PER_IMAGE}"
            )
        for raw in raw_pass:
            box, values = _box_field(raw), _floats(raw, "scores")
            _check_detection(box, values, width, height)
            kappa = len(values) if kappa is None else kappa
            if len(values) != kappa:
                raise ValidationError(f"expected {kappa} scores, got {len(values)}")
            boxes.extend(box)
            scores.extend(values)
    return kappa, list(map(len, raw_passes))


def _checked_rows(path: Path, boxes: array, scores: array, kappa: int | None,
                  images: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The box and score columns of ``images``' rows, once each row has passed the numeric rules.

    The rules are first whole-array screens; each row a screen flags is judged
    by the rule functions, so a row is rejected exactly when a rule rejects
    it, and the first rejected row's fault is raised, naming its line and image.
    """
    ends = [image[5] for image in images]
    rows, kappa = (ends[-1] if ends else 0), kappa or 0
    box_cols = np.frombuffer(boxes, dtype=np.float64, count=4 * rows).reshape(rows, 4)
    score_cols = np.frombuffer(scores, dtype=np.float64, count=rows * kappa).reshape(rows, kappa)
    sizes = np.diff([0, *ends])
    x_min, y_min, x_max, y_max = box_cols.T
    passed = (
        np.isfinite(box_cols).all(axis=1) & (x_max > x_min) & (y_max > y_min)
        & (x_min >= 0.0) & (y_min >= 0.0)
        & (x_max <= np.repeat([min(image[2], _EXACT_SIZE) for image in images], sizes))
        & (y_max <= np.repeat([min(image[3], _EXACT_SIZE) for image in images], sizes))
        & ((score_cols >= 0.0) & (score_cols <= 1.0)).all(axis=1)
        & (abs(_row_sums(score_cols) - 1.0) <= SCORE_SUM_TOLERANCE - _SUM_SLACK)
    )
    for row in np.flatnonzero(~passed).tolist():
        lineno, image_id, width, height = images[bisect_right(ends, row)][:4]
        with _located(f"{path}:{lineno}: image {image_id!r}"):
            coords, values = tuple(box_cols[row].tolist()), tuple(score_cols[row].tolist())
            _check_detection(_checked_box(coords), values, width, height)
    return box_cols, score_cols


def load_image_passes(
    path: str | Path,
    expected_n: int | None = None,
    kappa: int | None = None,
    known: Container[str] | None = None,
) -> list[ImagePasses]:
    """Load and check a line-delimited detections file.

    Every image needs a positive integer size, unique id, boxes inside the
    image, score vectors of one length and at most ``MAX_DETECTIONS_PER_IMAGE``
    detections per pass. When given, ``expected_n`` enforces the run's pass
    count, ``kappa`` the score-vector length and ``known`` the image ids. The
    file is read into one batch. The error names the first bad line: before a
    line's fault is raised, the rows of the lines above it are checked.
    """
    path = Path(path)
    boxes, scores = array("d"), array("d")
    images: list[tuple] = []  # (line, image_id, width, height, its pass counts, its last row + 1)
    ids: set[str] = set()
    with _open_input(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                image_id = None  # set once the header is read: a later fault names the image too
                record = _json_value(line)
                if (name := _field(record, "image_id", str)) in ids:
                    raise ValidationError(f"duplicate image_id {name!r}")
                if known is not None and name not in known:
                    raise ValidationError(f"unknown image_id {name!r}")
                width, height = _field(record, "width", int), _field(record, "height", int)
                raw_passes = _field(record, "passes", list)
                image_id = name
                if width <= 0 or height <= 0:
                    raise ValidationError(f"width/height must be positive, got {width}x{height}")
                if expected_n is not None and len(raw_passes) != expected_n:
                    raise ValidationError(f"expected {expected_n} passes, got {len(raw_passes)}")
                kappa, counts = _append_passes(raw_passes, width, height, kappa, line, boxes, scores)
                ids.add(image_id)
                images.append((lineno, image_id, width, height, counts, len(boxes) // 4))
        except BoxalError as exc:
            _checked_rows(path, boxes, scores, kappa, images)  # a fault on an earlier line comes first
            where = f"{path}:{lineno}" if image_id is None else f"{path}:{lineno}: image {image_id!r}"
            raise type(exc)(f"{where}: {exc}") from exc
    if not images:
        return []
    box_cols, score_cols = _checked_rows(path, boxes, scores, kappa, images)
    return _image_views(box_cols, score_cols, [image[1:5] for image in images])


def save_image_passes(images: Iterable[ImagePasses], path: str | Path) -> None:
    """One line per image of ``images``, written as each is reached, so an iterator's images need not all be held."""
    def record(img: ImagePasses) -> dict:
        dets = [
            {"bbox": box, "scores": scores}
            for box, scores in zip(img.batch.boxes[img.rows].tolist(), img.batch.scores[img.rows].tolist())
        ]
        return {
            "image_id": img.image_id,
            "width": img.width,
            "height": img.height,
            "passes": [dets[start:stop] for start, stop in pairwise(img.bounds)],
        }

    _write_lines((json.dumps(record(img)) + "\n" for img in images), path)


def _chunks(sizes: np.ndarray, fits: Callable[[int, int], bool]) -> Iterator[np.ndarray]:
    """The units of nonzero ``sizes`` by ascending size, ties in index order, in consecutive runs of unit indices: one
    unit alone, or as many as ``fits(run length, largest size)`` allows. ``fits`` is false for every longer run or
    larger size than one it is false for."""
    units = np.flatnonzero(sizes)[np.argsort(sizes[sizes != 0], kind="stable")]
    ordered, start = sizes[units].tolist(), 0
    while start < len(units):
        stop = start + max(1, bisect_right(range(start, len(units)), False,
                                           key=lambda i: not fits(i + 1 - start, ordered[i])))
        yield units[start:stop]
        start = stop


def _padded(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, max count) positions of each run of ``counts`` rows from ``starts``, padded with 0, and which are real."""
    ranks = np.arange(counts.max())
    real = ranks < counts[:, None]
    return np.where(real, starts[:, None] + ranks, 0), real


def _nms_kept(boxes: np.ndarray, ranked: np.ndarray, counts: np.ndarray, nms_iou: float) -> np.ndarray:
    """Which rows of ``ranked`` greedy NMS keeps, whose passes hold ``counts`` rows each, pass after pass. Lowers
    each pass's count to its kept rows."""
    starts, kept = np.cumsum(counts) - counts, np.ones(len(ranked), bool)
    for passes in _chunks(np.where(counts > 1, counts, 0), lambda b, d: b * d * d <= CHUNK_ELEMENTS):
        at, real = _padded(starts[passes], counts[passes])  # (B, D) positions in ranked
        corners = boxes[ranked[at]]
        # row r of a pass suppresses each real later row whose IoU with it reaches nms_iou
        suppresses = (iou_matrix(corners, corners) >= nms_iou) & ~np.tri(at.shape[1], dtype=bool) & real[:, None, :]
        active = np.flatnonzero(suppresses.any(axis=(0, 2))).tolist()  # a rank that suppresses none changes none
        if active:
            dropped = np.zeros(real.shape, bool)
            for rank in active:  # each pass's row rank is settled: if it is kept, it drops the rows it suppresses
                dropped |= suppresses[:, rank] > dropped[:, rank, None]
            kept[at[dropped]] = False
            counts[passes] -= dropped.sum(axis=1)
    return kept


def _thresholded(request: Request, confidence: float, nms_iou: float) -> Request:
    """``request`` after the confidence cut and greedy NMS of ``apply_thresholds``, every pass at once."""
    confident = request.batch.max_scores[request.ranked] >= confidence
    ranked = request.ranked[confident]
    ordinal = np.repeat(np.arange(len(request.counts)), request.counts)
    counts = np.bincount(ordinal[confident], minlength=len(request.counts))
    if counts.max(initial=0) > 1:  # most of the simulator's one-image requests hold no pass of two rows
        ranked = ranked[_nms_kept(request.batch.boxes, ranked, counts, nms_iou)]
    return Request(request.batch, request.headers, ranked, counts, request.firsts)


def apply_thresholds(img: ImagePasses, confidence: float = 0.5, nms_iou: float = 0.3) -> ImagePasses:
    """Per pass: drop detections with max score below ``confidence``, then greedy NMS.

    NMS visits detections in canonical order (``ImagePasses.rows``) and
    keeps one iff its IoU with every already-kept detection is below
    ``nms_iou``; kept detections stay in that visiting order. The pass count
    is unchanged and the operation is idempotent. Both thresholds lie in
    [0, 1], which ``RunConfig`` checks. The first call on an image of a
    request thresholds all its images at once, into one request kept for
    these parameters; each call returns its image of it. The confidence cut
    is one array test over the request's rows. ``_chunks`` orders the passes
    left with two or more detections by size D and cuts chunks of B passes
    with B * D_max**2 <= ``CHUNK_ELEMENTS``, which ``_padded`` lays out; a
    chunk's (B, D_max, D_max) ``iou_matrix`` >= ``nms_iou`` says which row
    suppresses which later row, and lockstep steps settle rank after rank of
    every pass, one step per rank that suppresses a row in some pass of it.
    """
    request, key = img.request, ("thresholds", confidence, nms_iou)
    if key not in request.results:
        request.results[key] = _thresholded(request, confidence, nms_iou)
    return ImagePasses(request.results[key], img.index)


# ---------------------------------------------------------------------------
# ground truth


def load_ground_truth(path: str | Path, kappa: int) -> dict[str, GroundTruthImage]:
    """Load a ground-truth file; categories are nonnegative and below ``kappa``."""
    return _load_by_image(path, lambda image_id, record: GroundTruthImage(
        image_id, tuple(_labeled_box(raw, kappa) for raw in _field(record, "objects", list))
    ))


def save_ground_truth(images: Mapping[str, GroundTruthImage], path: str | Path) -> None:
    _write_lines((json.dumps({
        "image_id": gt.image_id,
        "objects": [{"bbox": list(box.as_tuple()), "category": cat} for box, cat in gt.objects],
    }) + "\n" for gt in images.values()), path)


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
    _write_lines([json.dumps(doc, indent=2) + "\n"], path)
