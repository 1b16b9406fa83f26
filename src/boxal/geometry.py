"""Axis-aligned bounding-box primitives: IoU and mean box.

Boxes use the corner convention (x_min, y_min, x_max, y_max) with continuous
coordinates, so areas are exact products and no pixel rasterization is involved.
``BoundingBox`` is a plain record: the readers in ``data_io`` check the box
rules (four finite coordinates, positive area) on every box that comes from a
file, and the boxes the package builds itself are trusted. All operations are
pure and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def mean_box(boxes: Sequence[BoundingBox]) -> BoundingBox:
    """Coordinate-wise arithmetic mean of a nonempty sequence of boxes."""
    k = len(boxes)
    return BoundingBox(
        sum(b.x_min for b in boxes) / k,
        sum(b.y_min for b in boxes) / k,
        sum(b.x_max for b in boxes) / k,
        sum(b.y_max for b in boxes) / k,
    )
