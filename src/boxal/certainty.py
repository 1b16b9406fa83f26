"""Semantic, spatial, occurrence and combined certainties of instance sets.

Semantic certainty is one minus the normalized Shannon entropy of each
member's category-probability vector, averaged over the set (0*log(0) := 0;
the normalizer is log(kappa), so the value is independent of the log base).
Each detection's entropy is computed once, for its whole batch, by
``DetectionBatch.entropies``: ``math.log`` of each positive score, summed left
to right.
Spatial certainty is the mean IoU between each member box and the set's mean
box, both read from the corner lists that grouping hands each set. Occurrence
certainty is the fraction of passes that contributed a member. The combined
certainty is the product of the three, and an image is summarized by the
minimum combined certainty over its instance sets.

Images with no instance sets get certainty 1.0: content the detector never
fires on cannot be prioritized by this method, and treating blanks as
maximally uncertain would flood sampling with empty images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import iou
from .grouping import InstanceSet


@dataclass(frozen=True)
class CertaintyTriple:
    c_sem: float
    c_spa: float
    c_occ: float

    @property
    def c_h(self) -> float:
        return self.c_sem * self.c_spa * self.c_occ


@dataclass(frozen=True)
class ImageCertainty:
    image_id: str
    set_count: int
    min_triple: CertaintyTriple  # the earliest set achieving c_min; all ones for an image without sets

    @property
    def c_min(self) -> float:
        return self.min_triple.c_h


def semantic_certainty(instance_set: InstanceSet, kappa: int) -> float:
    """Mean over members of 1 - H(scores)/log(kappa); the readers ensure kappa >= 2 scores each."""
    h_max = math.log(kappa)
    entropies = instance_set.batch.entropies
    total = 0.0
    for row in instance_set.rows:
        total += 1.0 - entropies[row] / h_max
    return total / instance_set.size


def spatial_certainty(instance_set: InstanceSet) -> float:
    """Mean IoU between each member box and the set's mean box."""
    center = instance_set.mean_box
    return sum(iou(center, box) for box in instance_set.boxes) / instance_set.size


def occurrence_certainty(instance_set: InstanceSet, n: int) -> float:
    """Fraction of the n passes represented in the set (grouping puts at most one member per pass)."""
    return instance_set.size / n


def set_certainty(instance_set: InstanceSet, kappa: int, n: int) -> CertaintyTriple:
    return CertaintyTriple(
        c_sem=semantic_certainty(instance_set, kappa),
        c_spa=spatial_certainty(instance_set),
        c_occ=occurrence_certainty(instance_set, n),
    )


def image_certainty(
    image_id: str, sets: Sequence[InstanceSet], kappa: int, n: int
) -> ImageCertainty:
    """Reduce an image's instance sets to the per-image minimum certainty."""
    scored = (set_certainty(s, kappa, n) for s in sets)
    min_triple = min(scored, key=lambda t: t.c_h, default=CertaintyTriple(1.0, 1.0, 1.0))
    return ImageCertainty(image_id, len(sets), min_triple)
