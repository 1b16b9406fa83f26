"""Associate detections across forward passes into instance sets.

Each instance set collects the detections, across the n stochastic forward
passes, that are judged to describe the same physical object. Detections from
pass 1 each seed a set. For every later pass, detections are processed in
canonical order (descending max score, then lexicographic box corners); a
detection joins the existing set with the highest max-member IoU, provided
that value reaches the match threshold and the set has not already received a
member from the current pass. Ties go to the earliest-created set (the rule
of ``tests/oracles.greedy_match``). Unmatched detections seed new sets, closed
to further members from the same pass, so a set has at most one member per pass.

The first ``group_passes`` call on an image of a request (``data_io.Request``)
groups all its images; each call returns its image's sets, views of the
request's one ``SetColumns``. Images are grouped in lockstep, in chunks that
``data_io._chunks`` orders by detection count D and cuts, of B images with
B * D_max <= ``CHUNK_ROWS`` and, since every detection may seed a set,
B * D_max**2 <= ``CHUNK_IOUS`` unless B = 1 (18 MB at the reader's cap of
1,500 detections, n = 15); ``data_io._padded`` lays a chunk out as (B, D)
rows. A chunk keeps each set's running max of its members' IoUs with its
image's detections, (B, S, D) float64, and its member row per pass,
(B, S, n), both grown as sets appear. Step (pass, rank) takes that detection
of every image that has one: it joins the first open set of highest value
>= the match IoU (``_best_open``, evaluation's choice too) or seeds one,
fills that set's slot for the pass, and its ``geometry.iou_matrix`` row
raises its set's max: the floats of scalar ``iou``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from . import data_io, geometry
from .data_io import Detection, DetectionBatch, ImagePasses, Request, _chunks, _padded, _row_sums

CHUNK_ROWS = 4096  # a grouping chunk's images times its largest detection count
CHUNK_IOUS = 2**21  # ... times that count squared: its (B, S, D) entries when every detection seeds a set


class SetColumns:
    """Instance sets as columns of one batch: ``rows[s, p]`` is set s's member from pass p, its batch row, or -1
    when pass p gave it none; ``sizes[s]`` counts its members and ``passes[s]`` its image's passes.

    ``results`` keeps what certainty and consolidation compute once for every set, keyed by computation and
    parameters, on chunks of at most ``data_io.CHUNK_ELEMENTS`` gathered values: each sum over a set's members is a
    cumulative sum along the pass axis, which adds left to right, and a hole adds 0.0, which changes no sum.
    """

    def __init__(self, batch: DetectionBatch, rows: np.ndarray, passes: np.ndarray):
        self.batch, self.rows, self.sizes, self.passes = batch, rows, (rows >= 0).sum(axis=1), passes
        self.results: dict = {}

    def gathered(self, column: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Chunks of sets: a slice, and its members' entries of a batch column, (s, n, ...) with 0.0 in the holes."""
        step = max(1, data_io.CHUNK_ELEMENTS // max(1, self.rows.shape[1] * column.shape[1]))
        for part in map(slice, range(0, len(self.sizes), step), range(step, len(self.sizes) + step, step)):
            values = column[self.rows[part]]
            values[self.rows[part] < 0] = 0.0
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
    def members(self) -> tuple[tuple[int, Detection], ...]:
        rows = self.sets.rows[self.index]
        passes = np.flatnonzero(rows >= 0)
        return tuple(zip(passes.tolist(), self.sets.batch.detections(rows[passes])))


def group_passes(img: ImagePasses, match_iou: float = 0.5) -> list[InstanceSet]:
    """Partition an image's detections into instance sets, in creation order."""
    key = ("sets", match_iou)
    if key not in img.request.results:
        img.request.results[key] = _group_request(img.request, match_iou)
    sets, firsts = img.request.results[key]
    return [InstanceSet(sets, s) for s in range(firsts[img.index], firsts[img.index + 1])]


def _best_open(values: np.ndarray, open_sets: np.ndarray, match_iou: float) -> np.ndarray:
    """Each row's first open column of highest value >= ``match_iou``, or -1: the greedy matching choice."""
    candidates = np.where(open_sets & (values >= match_iou), values, -np.inf)
    return np.where(candidates.max(axis=1) > -np.inf, candidates.argmax(axis=1), -1)  # argmax: the first max


def _group_chunk(request: Request, images: np.ndarray, match_iou: float) -> tuple[np.ndarray, np.ndarray]:
    """Each image's set count, and its sets' member rows by pass, (B, S, n) with -1 in the holes."""
    first, stop = request.firsts[images], request.firsts[images + 1]
    passes = (stop - first).max()
    edges = request.offsets[np.minimum(first[:, None] + np.arange(passes + 1), stop[:, None])]  # padded with the end
    rows = request.ranked[_padded(edges[:, 0], edges[:, -1] - edges[:, 0])[0]]  # (B, D), padded
    starts, per_pass = edges[:, :-1] - edges[:, :1], np.diff(edges, axis=1)
    boxes = request.batch.boxes[rows]  # (B, D, 4), padded with the box of ranked[0]
    set_count = np.zeros(len(images), np.intp)
    set_iou = np.zeros((len(images), max(1, per_pass.max()), rows.shape[1]))
    members = np.full((*set_iou.shape[:2], passes), -1, np.intp)
    for p in range(passes):
        open_sets = np.arange(set_iou.shape[1]) < set_count[:, None]  # made before the pass
        for rank in range(per_pass[:, p].max()):
            live = np.flatnonzero(per_pass[:, p] > rank)
            if set_count[live].max() == set_iou.shape[1]:  # a live image may seed a set past the last: grow
                more = ((0, 0), (0, min(set_iou.shape[1], rows.shape[1] - set_iou.shape[1])))
                set_iou, open_sets = np.pad(set_iou, (*more, (0, 0))), np.pad(open_sets, more)
                members = np.pad(members, (*more, (0, 0)), constant_values=-1)
            k = starts[live, p] + rank
            best = _best_open(set_iou[live, :, k], open_sets[live], match_iou)
            matched = best >= 0
            target = np.where(matched, best, set_count[live])
            set_count[live] += ~matched
            open_sets[live, target] = False
            members[live, target, p] = rows[live, k]
            iou_rows = geometry.iou_matrix(boxes[live, k, None], boxes[live])[:, 0]
            set_iou[live, target] = np.maximum(set_iou[live, target], iou_rows)
    return set_count, members


def _group_request(request: Request, match_iou: float) -> tuple[SetColumns, list[int]]:
    """Every image's sets as one ``SetColumns``, in image order, and the index of each image's first set."""
    sizes, passes = np.diff(request.offsets[request.firsts]), np.diff(request.firsts)
    runs = _chunks(sizes, lambda b, d: b * d <= CHUNK_ROWS and b * d * d <= CHUNK_IOUS)
    grouped = [(run, *_group_chunk(request, run, match_iou)) for run in runs]
    set_counts = np.zeros(len(sizes), np.intp)
    for part, count, _ in grouped:
        set_counts[part] = count
    firsts = np.concatenate(([0], np.cumsum(set_counts)))
    rows = np.full((firsts[-1], passes.max(initial=0)), -1, np.intp)
    for part, count, members in grouped:
        at, made = _padded(firsts[part], count)
        rows[at[made], :members.shape[2]] = members[:, :at.shape[1]][made]
    return SetColumns(request.batch, rows, np.repeat(passes, set_counts)), firsts.tolist()
