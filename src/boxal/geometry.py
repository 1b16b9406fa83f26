"""Axis-aligned bounding-box primitives: IoU and mean box.

Boxes use the corner convention (x_min, y_min, x_max, y_max) with continuous
coordinates, so areas are exact products and no pixel rasterization is involved.
All operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in coords):
            raise ValidationError(f"box coordinates must be finite numbers, got {coords}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValidationError(
                f"box must have strictly positive area (x_max > x_min, y_max > y_min), got {coords}"
            )

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
    if not boxes:
        raise ValidationError("mean_box requires at least one box")
    k = len(boxes)
    return BoundingBox(
        sum(b.x_min for b in boxes) / k,
        sum(b.y_min for b in boxes) / k,
        sum(b.x_max for b in boxes) / k,
        sum(b.y_max for b in boxes) / k,
    )

