"""Semantic, spatial, occurrence and combined certainties of instance sets.

Semantic certainty is one minus the normalized Shannon entropy of each
member's category-probability vector, averaged over the set (0*log(0) := 0;
the normalizer is log(kappa), so the value is independent of the log base).
Each member's entropy is computed in the set kernel, on chunks of member
score rows: ``math.log`` of each positive score, summed left to right, so
only the rows that thresholding kept reach it.
Spatial certainty is the mean IoU between each member box and the set's mean
box. Occurrence certainty is the fraction of passes that contributed a
member. The combined certainty c_h is the product of the three, and an image
is summarized by c_min, the minimum c_h over its instance sets.

The first ``image_certainty`` call on a set scores all the sets of its
request (its ``grouping.SetColumns``) for that ``kappa`` and n, as array
expressions: ``_certainties`` computes every set's three factors and their
product, c_h, once, and nothing else computes c_h. Each call reads its own
sets' c_h, takes their minimum as the image's c_min, and reads the factors of
the first set achieving it. ``tests/oracles.scalar_triple`` is the scalar
rule of one set.

Images with no instance sets get certainty 1.0: content the detector never
fires on cannot be prioritized by this method, and treating blanks as
maximally uncertain would flood sampling with empty images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import data_io
from .data_io import _row_sums
from .geometry import iou_matrix
from .grouping import InstanceSet, SetColumns


@dataclass(frozen=True)
class CertaintyTriple:
    c_sem: float
    c_spa: float
    c_occ: float


@dataclass(frozen=True)
class ImageCertainty:
    image_id: str
    set_count: int
    min_triple: CertaintyTriple  # the earliest set achieving c_min; all ones for an image without sets
    c_min: float  # the least c_h of the image's sets; 1.0 for an image without sets


def _certainties(sets: SetColumns, kappa: int, n: int) -> tuple[list[float], np.ndarray]:
    """Every set's c_h, as a list, and its (c_sem, c_spa, c_occ) row, computed once per ``kappa`` and n."""
    key = ("certainty", kappa, n)
    if key not in sets.results:
        c_spa, log_kappa, step = np.empty(len(sets.sizes)), math.log(kappa), max(1, data_io.CHUNK_ELEMENTS // kappa)
        slots, terms = np.flatnonzero(sets.rows >= 0), np.zeros(sets.rows.shape)  # a hole's term is 0.0
        for start in range(0, len(slots), step):
            part = slots[start:start + step]  # the members of a chunk of score rows, in set and pass order
            scores = sets.batch.scores[sets.rows.flat[part]]
            flat = scores.ravel()
            positive = flat > 0.0
            logs = np.zeros_like(flat)
            # a memoryview hands math.log one float at a time, so no list of every score is built
            logs[positive] = np.fromiter(map(math.log, memoryview(flat[positive])), np.float64)
            # a zero score adds a zero term, which leaves every left-to-right sum as it was
            entropies = -_row_sums((flat * logs).reshape(scores.shape))
            terms.flat[part] = 1.0 - entropies / log_kappa
        c_sem = _row_sums(terms) / sets.sizes
        for part, boxes in sets.gathered(sets.batch.boxes):  # a hole's all-zero box has IoU 0.0
            c_spa[part] = _row_sums(iou_matrix(sets.mean_boxes[part, None], boxes)[:, 0]) / sets.sizes[part]
        c_occ = sets.sizes / n
        sets.results[key] = ((c_sem * c_spa * c_occ).tolist(), np.stack((c_sem, c_spa, c_occ), axis=1))
    return sets.results[key]


def image_certainty(
    image_id: str, sets: Sequence[InstanceSet], kappa: int, n: int
) -> ImageCertainty:
    """Reduce an image's instance sets to c_min and the factors of the first set achieving it; the readers ensure
    kappa >= 2 scores per detection."""
    if not sets:
        return ImageCertainty(image_id, 0, CertaintyTriple(1.0, 1.0, 1.0), 1.0)
    c_h, triples = _certainties(sets[0].sets, kappa, n)  # an image's sets share their request's columns
    image = [c_h[s.index] for s in sets]
    c_min = min(image)
    first = sets[image.index(c_min)].index
    return ImageCertainty(image_id, len(sets), CertaintyTriple(*triples[first].tolist()), c_min)
