"""Associate detections across forward passes into instance sets.

Each instance set collects the detections, across the n stochastic forward
passes, that are judged to describe the same physical object. Detections from
pass 1 each seed a set. For every later pass, detections are processed in
canonical order (descending max score, then lexicographic box corners); a
detection joins the existing set with the highest max-member IoU, provided
that value reaches the match threshold and the set has not already received a
member from the current pass. Ties go to the earliest-created set. Unmatched
detections seed new sets, which are closed to further members from the same
pass. Every detection therefore lands in exactly one set, and no set ever
holds more than one member per pass (so set sizes never exceed n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import geometry
from .data_io import Detection, ImagePasses, canonical_order
from .geometry import BoundingBox, iou


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
    sets: list[list[tuple[int, Detection]]] = []
    for pass_index, pass_dets in enumerate(img.passes):
        matched_this_pass: set[int] = set()
        for det in canonical_order(pass_dets):
            best_index = -1
            best_value = -1.0
            for set_index, members in enumerate(sets):
                if set_index in matched_this_pass:
                    continue
                value = max(iou(det.box, member.box) for _, member in members)
                if value >= match_iou and value > best_value:
                    best_value = value
                    best_index = set_index
            if best_index >= 0:
                sets[best_index].append((pass_index, det))
                matched_this_pass.add(best_index)
            else:
                matched_this_pass.add(len(sets))
                sets.append([(pass_index, det)])
    return [InstanceSet(tuple(members)) for members in sets]
