"""Axis-aligned bounding-box primitives: IoU and the IoU matrix.

Boxes use the corner convention (x_min, y_min, x_max, y_max) with continuous
coordinates, so areas are exact products and no pixel rasterization is involved.
``BoundingBox`` is a plain record, a named 4-tuple, so a list of boxes is
also an (N, 4) array of corners: the readers in ``data_io`` check the box
rules (four finite coordinates, positive area) on every box that comes from a
file, and the boxes the package builds itself are trusted. All operations are
pure and check nothing. ``iou`` takes any four corners, a record or a plain
list such as a row of a batch's corner column.

``iou_matrix`` is the numpy form of ``iou`` over every pair of two box lists,
or of two stacks of box lists. It performs the same float operations in the
same order, so each entry equals the scalar ``iou`` bit for bit;
``tests/test_geometry.py::TestIoUMatrix`` pins this. Greedy NMS
(``data_io.apply_thresholds``) takes a (B, D, D) stack of it per chunk of
passes, grouping a row per detection of a chunk of images, evaluation a
(B, P, G) stack per chunk of images, and spatial certainty a row per set.
Grouping and evaluation match greedily in array steps over the choice of
``grouping._best_open``, whose scalar form is ``tests/oracles.greedy_match``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class BoundingBox(NamedTuple):
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


def iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection-over-union of two boxes, each four corners (x_min, y_min, x_max, y_max), in [0, 1]."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def _corners(boxes: Sequence[BoundingBox] | np.ndarray) -> np.ndarray:
    """A (4, ..., N) array: the x_min, y_min, x_max and y_max of every box of a (..., N, 4) stack."""
    corners = np.asarray(boxes, dtype=np.float64)
    if corners.ndim < 2:  # an empty list holds no boxes
        corners = corners.reshape(-1, 4)
    return corners.transpose(-1, *range(corners.ndim - 1))


def iou_matrix(a: Sequence[BoundingBox] | np.ndarray, b: Sequence[BoundingBox] | np.ndarray) -> np.ndarray:
    """The (..., len(a), len(b)) float64 array whose [..., i, j] entry is ``iou(a[..., i], b[..., j])``, bit for bit.

    ``a`` and ``b`` are box lists or (..., N, 4) corner arrays whose leading
    dimensions broadcast.

    The union is ``(area_a + area_b) - inter``, as in ``iou``, and pairs whose
    intersection has no positive width or height are 0.0 without being divided.
    """
    cb = _corners(b)
    ca = cb if a is b else _corners(a)
    ax0, ay0, ax1, ay1 = ca[..., :, None]
    bx0, by0, bx1, by1 = cb[..., None, :]
    # the intersection's width and height, nonpositive when the boxes do not overlap; the
    # arithmetic runs in place, so the largest images allocate few (len(a), len(b)) temporaries
    ix = np.minimum(ax1, bx1)
    ix -= np.maximum(ax0, bx0)
    iy = np.minimum(ay1, by1)
    iy -= np.maximum(ay0, by0)
    overlap = np.minimum(ix, iy) > 0.0
    inter = np.multiply(ix, iy, out=ix)
    union = np.add((ax1 - ax0) * (ay1 - ay0), (bx1 - bx0) * (by1 - by0), out=iy)
    union -= inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=overlap)

