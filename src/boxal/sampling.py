"""Pool ranking and batch selection: minimum-certainty and uniform-random.

Random sampling is reproducible across platforms and builds: the generator is
numpy's PCG64, and the stream for iteration ``i`` of a run with seed ``s`` is
seeded with ``(s XOR (i * STREAM_STRIDE)) mod 2**64`` where STREAM_STRIDE is
the fixed odd constant below. Inserting or re-running an iteration therefore
never shifts the samples drawn by other iterations.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

STREAM_STRIDE = 0x9E3779B97F4A7C15  # odd 64-bit constant (golden-ratio multiplier)
_MASK64 = (1 << 64) - 1

STRATEGIES = ("min_certainty", "random")


def substream_seed(seed: int, iteration: int) -> int:
    """Derive the per-iteration RNG seed from the run seed."""
    return (seed ^ ((iteration * STREAM_STRIDE) & _MASK64)) & _MASK64


def rank(scores: Iterable[tuple]) -> list[tuple]:
    """Rows starting ``(image_id, c_min)``, ascending by c_min; ties by image_id."""
    return sorted(scores, key=lambda row: (row[1], row[0]))


def sample_min_certainty(scores: Sequence[tuple[str, float]], n: int) -> list[str]:
    """The n image ids of lowest c_min among ``(image_id, c_min)`` pairs, in rank order."""
    if not 0 <= n <= len(scores):
        raise ValidationError(f"cannot sample {n} images from a pool of {len(scores)}")
    return [image_id for image_id, _ in rank(scores)[:n]]


def sample_random(pool_ids: Sequence[str], n: int, seed: int, iteration: int) -> list[str]:
    """Uniform sample of n ids without replacement, sorted lexicographically.

    Deterministic for a given (pool, n, seed, iteration).
    """
    if not 0 <= n <= len(pool_ids):
        raise ValidationError(f"cannot sample {n} images from a pool of {len(pool_ids)}")
    rng = np.random.Generator(np.random.PCG64(substream_seed(seed, iteration)))
    chosen = rng.choice(len(pool_ids), size=n, replace=False)
    return sorted(pool_ids[i] for i in chosen)
