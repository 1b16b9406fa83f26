"""Associate detections across forward passes into instance sets.

Each instance set collects the detections, across the n stochastic forward
passes, that are judged to describe the same physical object. Detections from
pass 1 each seed a set. For every later pass, detections are processed in
canonical order (descending max score, then lexicographic box corners); a
detection joins the existing set with the highest max-member IoU, provided
that value reaches the match threshold and the set has not already received a
member from the current pass. Ties go to the earliest-created set. This is
``geometry.greedy_match``, the one greedy rule, which evaluation also matches
with. Unmatched detections seed new sets, which are closed to further members
from the same pass. Every detection therefore lands in exactly one set, and no
set ever holds more than one member per pass (so set sizes never exceed n).

A set that gains a member is closed for the rest of the pass, so each open
set's max-member IoU with the pass's detections is fixed when the pass
begins. Grouping reads these values from one ``geometry.iou_matrix`` over all
the image's detections, taken from its batch in ``ImagePasses.rows`` order
(pass order, canonical order within a pass), so nothing is re-sorted and no
box record is built: each set keeps the running maximum of its members'
matrix rows, and a pass reads only its block of those rows. The matrix holds
the same floats as ``iou``, so the sets are those of scalar ``iou`` calls.
The same corners, turned into lists once, give each set its members' boxes.
Memory grows with the square of the image's detection count D, because the
matrix, the sets' rows and the kernel's temporaries are D x D float64: the
peak is about 25 * D**2 bytes. The detections reader allows at most
``MAX_DETECTIONS_PER_IMAGE`` (100) detections per pass, so D <= 100 * n and
the peak is at most about 56 MB at n = 15.
"""

from __future__ import annotations

from functools import cached_property
from itertools import pairwise

import numpy as np

from . import geometry
from .data_io import Detection, DetectionBatch, ImagePasses
from .geometry import BoundingBox


class InstanceSet:
    """Detections across passes attributed to one physical object, as rows of a batch.

    ``rows`` holds the members' batch rows in pass order and ``boxes`` their
    corners, as lists of four floats in the same order; ``group_passes``
    makes every set. ``members`` is the record view, (pass index, detection)
    pairs built when it is first read.
    """

    def __init__(self, batch: DetectionBatch, rows: tuple[int, ...], boxes: list[list[float]]):
        self.batch, self.rows, self.boxes = batch, rows, boxes

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def members(self) -> tuple[tuple[int, Detection], ...]:
        passes = self.batch.pass_index[list(self.rows)].tolist()
        return tuple(zip(passes, self.batch.detections(self.rows)))

    @cached_property
    def mean_box(self) -> BoundingBox:
        """The members' mean box, computed once and read by spatial certainty and consolidation."""
        return geometry.mean_box(self.boxes)


def group_passes(img: ImagePasses, match_iou: float = 0.5) -> list[InstanceSet]:
    """Partition an image's detections into instance sets, in creation order."""
    boxes = img.batch.boxes[img.rows]
    pairwise_iou = geometry.iou_matrix(boxes, boxes)
    set_iou = np.empty_like(pairwise_iou)  # row s: the max of set s's members' rows of pairwise_iou
    sets: list[list[int]] = []  # each set's members, as positions in img.rows
    for start, stop in pairwise(img.bounds):
        if not sets:  # the first pass with detections seeds a set with each
            set_iou[: stop - start] = pairwise_iou[start:stop]
            sets.extend([k] for k in range(start, stop))
            continue
        # values[i][s]: the i-th detection's max-member IoU with set s, for the sets open to this pass
        values = set_iou[: len(sets), start:stop].T.tolist()
        matches = geometry.greedy_match(map(enumerate, values), match_iou)
        for k, set_index in enumerate(matches, start):
            if set_index >= 0:
                sets[set_index].append(k)
                np.maximum(set_iou[set_index], pairwise_iou[k], out=set_iou[set_index])
            else:
                set_iou[len(sets)] = pairwise_iou[k]
                sets.append([k])
    rows, corners = img.rows.tolist(), boxes.tolist()
    return [InstanceSet(img.batch, tuple(rows[k] for k in members), [corners[k] for k in members])
            for members in sets]
