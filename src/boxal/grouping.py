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
the image's detections (in pass order, canonical order within a pass): each
set keeps the running maximum of its members' matrix rows, and a pass reads
only its block of those rows. The matrix holds the same floats as ``iou``, so
the sets are those of scalar ``iou`` calls. Memory grows with the square of
the image's detection count D, because the matrix, the sets' rows and the
kernel's temporaries are D x D float64: the peak is about 25 * D**2 bytes
(25 MB at D = 1,000, about 0.4 GB at D = 4,000).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .data_io import Detection, ImagePasses, canonical_order
from .geometry import BoundingBox


@dataclass(frozen=True)
class InstanceSet:
    """Detections across passes attributed to one physical object."""

    members: tuple[tuple[int, Detection], ...]  # (pass index, detection)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def boxes(self):
        return tuple(det.box for _, det in self.members)

    @cached_property
    def mean_box(self) -> BoundingBox:
        """The members' mean box, computed once and read by spatial certainty and consolidation."""
        return geometry.mean_box(self.boxes)


def group_passes(img: ImagePasses, match_iou: float = 0.5) -> list[InstanceSet]:
    """Partition an image's detections into instance sets, in creation order."""
    passes = [canonical_order(pass_dets) for pass_dets in img.passes]
    boxes = [det.box for pass_dets in passes for det in pass_dets]
    pairwise = geometry.iou_matrix(boxes, boxes)
    set_iou = np.empty_like(pairwise)  # row s: the max of set s's members' rows of pairwise
    sets: list[list[tuple[int, Detection]]] = []
    start = 0
    for pass_index, pass_dets in enumerate(passes):
        if not pass_dets:
            continue
        # values[i][s]: the i-th detection's max-member IoU with set s, for the sets open to this pass
        values = set_iou[: len(sets), start : start + len(pass_dets)].T.tolist()
        matches = geometry.greedy_match(map(enumerate, values), match_iou)
        for k, (det, set_index) in enumerate(zip(pass_dets, matches), start):
            if set_index >= 0:
                sets[set_index].append((pass_index, det))
                np.maximum(set_iou[set_index], pairwise[k], out=set_iou[set_index])
            else:
                set_iou[len(sets)] = pairwise[k]
                sets.append([(pass_index, det)])
        start += len(pass_dets)
    return [InstanceSet(tuple(members)) for members in sets]
