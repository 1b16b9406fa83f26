"""Associate detections across forward passes into instance sets.

Each instance set collects the detections, across the n stochastic forward
passes, that are judged to describe the same physical object. Detections from
pass 1 each seed a set. For every later pass, detections are processed in
canonical order (descending max score, then lexicographic box corners); a
detection joins the existing set with the highest max-member IoU, provided
that value reaches the match threshold and the set has not already received a
member from the current pass. Ties go to the earliest-created set: the rule
of ``geometry.greedy_match``. Unmatched detections seed new sets, closed to
further members from the same pass, so a set has at most one member per pass.

The first ``group_passes`` call on an image of a request (``data_io.Request``)
groups all its images; each call returns its image's sets, views of the
request's one ``SetColumns``. Images are sorted by detection count D and
grouped in lockstep, B at a time with B * D_max <= ``CHUNK_ROWS`` and, since
every detection may seed a set, B * D_max**2 <= ``CHUNK_IOUS`` unless B = 1
(18 MB at the reader's cap of 1,500 detections, n = 15). A chunk keeps each
set's running max of its members' IoUs with its image's detections, (B, S, D)
float64 grown as sets appear. Step (pass, rank) takes that detection of every
image that has one: it joins the first open set of highest value >= the match
IoU (an ``argmax``, the rest masked to -inf) or seeds one, and its
``geometry.iou_matrix`` row raises its set's max: the floats of scalar ``iou``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from . import geometry
from .data_io import Detection, DetectionBatch, ImagePasses, Request, _row_sums

CHUNK_ROWS = 4096  # a grouping chunk's images times its largest detection count
CHUNK_IOUS = 2**21  # ... times that count squared: its (B, S, D) entries when every detection seeds a set
SET_ELEMENTS = 2**13  # the values of sets x n x width that a set kernel gathers at once (64 KB)


class SetColumns:
    """Instance sets as columns of one batch: set s holds ``rows[s, :sizes[s]]``, its members' rows in pass order.

    ``results`` keeps what certainty and consolidation compute once for every set, keyed by computation and
    parameters, on chunks of at most ``SET_ELEMENTS`` gathered values: each sum over a set's members is a
    cumulative sum along the member axis, which adds left to right.
    """

    def __init__(self, batch: DetectionBatch, rows: np.ndarray, sizes: np.ndarray):
        self.batch, self.rows, self.sizes = batch, rows, sizes
        self.results: dict = {}

    def gathered(self, column: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Chunks of sets: a slice, and its members' entries of a batch column, (s, n, ...) with 0.0 in the padding."""
        step = max(1, SET_ELEMENTS // max(1, self.rows.shape[1] * column.size // max(1, len(column))))
        for part in map(slice, range(0, len(self.sizes), step), range(step, len(self.sizes) + step, step)):
            values = column[self.rows[part]]
            values[np.arange(self.rows.shape[1]) >= self.sizes[part, None]] = 0.0
            yield part, values

    @cached_property
    def mean_boxes(self) -> np.ndarray:
        """Each set's mean box, (S, 4): each corner summed over the members in order, then divided by the size."""
        means = np.empty((len(self.sizes), 4))
        for part, corners in self.gathered(self.batch.boxes):
            means[part] = _row_sums(corners.transpose(0, 2, 1)) / self.sizes[part, None]
        return means


class InstanceSet:
    """Detections across passes attributed to one physical object: set ``index`` of ``sets``; ``members`` is
    the record view, (pass index, detection) pairs."""

    __slots__ = ("sets", "index")

    def __init__(self, sets: SetColumns, index: int):
        self.sets, self.index = sets, index

    @property
    def size(self) -> int:
        return int(self.sets.sizes[self.index])

    @property
    def rows(self) -> tuple[int, ...]:
        return tuple(self.sets.rows[self.index, : self.size].tolist())

    @property
    def members(self) -> tuple[tuple[int, Detection], ...]:
        batch, rows = self.sets.batch, list(self.rows)
        return tuple(zip(batch.pass_index[rows].tolist(), batch.detections(rows)))


def group_passes(img: ImagePasses, match_iou: float = 0.5) -> list[InstanceSet]:
    """Partition an image's detections into instance sets, in creation order."""
    key = ("sets", match_iou)
    if key not in img.request.results:
        img.request.results[key] = _group_request(img.request, match_iou)
    sets, firsts = img.request.results[key]
    return [InstanceSet(sets, s) for s in range(firsts[img.index], firsts[img.index + 1])]


def _best_open(values: np.ndarray, open_sets: np.ndarray, match_iou: float) -> np.ndarray:
    """Each row's first open column of highest value >= ``match_iou``, or -1: ``greedy_match``'s choice."""
    candidates = np.where(open_sets & (values >= match_iou), values, -np.inf)
    return np.where(candidates.max(axis=1) > -np.inf, candidates.argmax(axis=1), -1)  # argmax: the first max


def _group_chunk(request: Request, images: list[int], match_iou: float) -> tuple[np.ndarray, ...]:
    """Each image's set count, and its batch rows, (B, D) padded with row 0, their sets and which are real."""
    passes = max(len(request.bounds[i]) for i in images) - 1
    edges = np.array([b + b[-1:] * (passes + 1 - len(b)) for b in (request.bounds[i] for i in images)])
    starts, per_pass = edges[:, :-1], np.diff(edges, axis=1)
    real = np.arange(edges[:, -1].max()) < edges[:, -1, None]
    rows = np.zeros(real.shape, np.intp)
    rows[real] = np.concatenate([request.rows(i) for i in images])
    boxes = request.batch.boxes[rows]
    owner = np.zeros(real.shape, np.intp)  # each detection's set in its image
    set_count = np.zeros(len(images), np.intp)
    set_iou = np.zeros((len(images), max(1, per_pass.max()), real.shape[1]))
    for p in range(passes):
        open_sets = np.arange(set_iou.shape[1]) < set_count[:, None]  # made before the pass
        for rank in range(per_pass[:, p].max()):
            live = np.flatnonzero(per_pass[:, p] > rank)
            if set_count[live].max() == set_iou.shape[1]:  # a live image may seed a set past the last: grow
                more = ((0, 0), (0, min(set_iou.shape[1], real.shape[1] - set_iou.shape[1])))
                set_iou, open_sets = np.pad(set_iou, (*more, (0, 0))), np.pad(open_sets, more)
            k = starts[live, p] + rank
            best = _best_open(set_iou[live, :, k], open_sets[live], match_iou)
            matched = best >= 0
            target = np.where(matched, best, set_count[live])
            set_count[live] += ~matched
            open_sets[live, target] = False
            owner[live, k] = target
            iou_rows = geometry.iou_matrix(boxes[live, k, None], boxes[live])[:, 0]
            set_iou[live, target] = np.maximum(set_iou[live, target], iou_rows)
    return set_count, rows, owner, real


def _group_request(request: Request, match_iou: float) -> tuple[SetColumns, list[int]]:
    """Every image's sets as one ``SetColumns``, in image order, and the index of each image's first set."""
    sizes = [bounds[-1] for bounds in request.bounds]
    chunks = [[]]
    for image in sorted(filter(sizes.__getitem__, range(len(sizes))), key=sizes.__getitem__):
        b, d = len(chunks[-1]) + 1, sizes[image]
        if b > 1 and (b * d > CHUNK_ROWS or b * d * d > CHUNK_IOUS):  # B * D_max or B * D_max**2 would not fit
            chunks.append([])
        chunks[-1].append(image)
    grouped = [(images, *_group_chunk(request, images, match_iou)) for images in filter(None, chunks)]
    set_counts = np.zeros(len(sizes), np.intp)
    for images, count, *_ in grouped:
        set_counts[images] = count
    firsts = np.concatenate(([0], np.cumsum(set_counts)))
    # each detection's set and row, in rows order within an image; a stable sort keeps that order in each set
    set_of = np.concatenate([(firsts[images, None] + owner)[real] for images, _, _, owner, real in grouped] or [[]])
    member_rows = np.concatenate([rows[real] for _, _, rows, _, real in grouped] or [[]])
    order = np.argsort(set_of, kind="stable")
    set_of = set_of[order].astype(np.intp)
    set_sizes = np.bincount(set_of, minlength=firsts[-1])
    members = np.zeros((firsts[-1], set_sizes.max(initial=0)), np.intp)
    members[set_of, np.arange(len(set_of)) - (np.cumsum(set_sizes) - set_sizes)[set_of]] = member_rows[order]
    return SetColumns(request.batch, members, set_sizes), firsts.tolist()
