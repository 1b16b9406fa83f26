"""Synthetic dataset generator and a stochastic stand-in detector.

The simulator lets the whole sampling loop run at desk scale. A synthetic
world holds images with ground-truth boxes, a category catalog with Zipf-like
imbalance, and a per-image difficulty in [0, 1]. The detector's skill per
category saturates hyperbolically with annotated-instance exposure,
``skill(c) = e_c / (e_c + k)``, so performance plateaus as the training set
grows. Detection probability, box jitter, and score sharpness all improve
with skill and degrade with image difficulty; false positives decay as mean
skill rises. Everything is reproducible from explicit seeds. A run stores
its world once: ``world.json`` holds only ``{"difficulty": {image_id: d}}``,
and the partitions and objects are the run's ``manifest.json`` and
``ground_truth.jsonl``. The skill is not stored at all: it is counted from
the training set, ``train_update(SkillState.fresh(kappa), ...)``.

The noise model's parameters are module constants: ``HALF_SATURATION`` (k),
``JITTER_SIGMA``, ``FP_RATE``, ``P_LO`` and ``P_HI`` (the detection
probability at zero and full skill), ``NOISE_CONCENTRATION`` and
``FP_CONCENTRATION`` (the Dirichlet concentrations of true- and
false-positive scores).

The world's and the passes' random numbers follow one contract each. The
world draws from ``PCG64(seed)``: per image one ``random()`` for the difficulty,
then one ``integers(lo, hi + 1)`` for the object count; per object four
``random()`` for the box, redrawn while it overlaps, then one ``random()``
located in the cumulative category weights; finally one shuffle of the ids.
Pass k of an image draws from a PCG64 generator seeded as ``np.random.PCG64(s)``
seeds it, where s is the little-endian int of the 8-byte blake2b digest of
``"{pass_seed}|{image_id}|{k}"``, and each pass makes its draws in the order
``simulate_passes`` documents. ``pass_states`` computes the SeedSequence
words of a whole request's generators at once, with numpy's SeedSequence
arithmetic on arrays; each pass hands its words to ``PCG64`` through numpy's
``ISeedSequence`` interface, and PCG64 seeds itself from them.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data_io import (
    _NUMBER_TYPES,
    CategoryCatalog,
    DatasetManifest,
    GroundTruthImage,
    ImagePasses,
    _field,
    _image_views,
    _load_json,
    _write_lines,
    apply_thresholds,
    load_ground_truth,
    load_manifest,
)
from .errors import ValidationError
from .geometry import BoundingBox, iou

IMAGE_SIZE = (640, 480)  # (width, height) of every generated image
MAX_GT_OVERLAP = 0.3  # ground-truth boxes of one image overlap at most this IoU, best effort
CATEGORY_IMBALANCE = 1.2  # Zipf exponent of the category frequencies
HALF_SATURATION = 20.0  # k: exposures at which skill reaches 0.5
JITTER_SIGMA = 0.05  # box-corner jitter, fraction of box diagonal
FP_RATE = 0.3  # Poisson rate of false positives per pass at zero skill
P_LO = 0.45  # detection probability floor (zero skill)
P_HI = 1.0  # detection probability ceiling (full skill)
NOISE_CONCENTRATION = 0.5  # Dirichlet concentration of score noise
FP_CONCENTRATION = 10.0  # Dirichlet concentration of false-positive scores
_STATE_BLOCK = 64  # images whose pass generators are seeded together


@dataclass(frozen=True)
class SyntheticWorld:
    """Each image's difficulty in [0, 1] beside its ground truth, and the dataset partitions."""

    difficulty: dict[str, float]
    gt: dict[str, GroundTruthImage]
    manifest: DatasetManifest

    @property
    def catalog(self) -> CategoryCatalog:
        return self.manifest.catalog

    def ground_truth(self) -> dict[str, GroundTruthImage]:
        return self.gt


@dataclass(frozen=True)
class SkillState:
    """Per-category detector skill: the annotated instances the detector has been trained on."""

    exposures: tuple[int, ...]

    def skill(self, category: int) -> float:
        e = self.exposures[category]
        return e / (e + HALF_SATURATION)

    @property
    def mean_skill(self) -> float:
        return sum(self.skill(c) for c in range(len(self.exposures))) / len(self.exposures)

    @classmethod
    def fresh(cls, kappa: int) -> "SkillState":
        return cls(exposures=(0,) * kappa)


def _category_weights(kappa: int) -> np.ndarray:
    # Zipf-like imbalance: a few dominant categories, a long rare tail
    weights = 1.0 / np.arange(1, kappa + 1) ** CATEGORY_IMBALANCE
    return weights / weights.sum()


def _place_box(u0, u1, u2, u3, width: int, height: int):
    """Corners of a box from four uniforms in [0, 1), as floats or as arrays of them.

    Each side spans 10–28 % of the image's, and the box lies inside the image.
    The arithmetic is numpy's ``uniform(low, high)``, ``low + (high - low) * u``,
    so four ``random()`` draws give the box that four ``uniform`` draws did.
    """
    bw = (0.10 + (0.28 - 0.10) * u0) * width
    bh = (0.10 + (0.28 - 0.10) * u1) * height
    x0 = (width - bw) * u2  # low = 0.0 adds nothing to a value >= +0.0
    y0 = (height - bh) * u3
    return x0, y0, x0 + bw, y0 + bh


def generate_world(
    seed: int,
    image_count: int,
    kappa: int,
    objects_per_image: tuple[int, int] = (1, 4),
    initial_training: int | None = None,
    validation: int | None = None,
    test: int | None = None,
) -> SyntheticWorld:
    """Deterministically generate a world and its dataset partitions.

    Partition sizes default to 10% initial training, 10% validation and 15%
    test (at least one image each when the world is nonempty); the remainder
    is the unlabeled pool.
    """
    lo, hi = objects_per_image
    if lo < 0 or hi < lo:
        raise ValidationError(f"invalid objects_per_image range {objects_per_image}")
    width, height = IMAGE_SIZE
    catalog = CategoryCatalog(tuple(f"cat_{i:02d}" for i in range(kappa)))
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = _category_weights(kappa).cumsum()  # Generator.choice(kappa, p=weights)'s arithmetic
    cdf = (cdf / cdf[-1]).tolist()

    difficulties: dict[str, float] = {}
    gt: dict[str, GroundTruthImage] = {}
    for i in range(image_count):
        image_id = f"img_{i:05d}"
        difficulty = rng.random()  # uniform(0.0, 1.0) is 0.0 + 1.0 * u
        count = int(rng.integers(lo, hi + 1))
        objects: list[tuple[BoundingBox, int]] = []
        for _ in range(count):
            box = BoundingBox(*_place_box(*rng.random(4).tolist(), width, height))
            for _ in range(50):  # bounded-overlap rejection sampling, best effort
                if all(iou(box, other) <= MAX_GT_OVERLAP for other, _ in objects):
                    break
                box = BoundingBox(*_place_box(*rng.random(4).tolist(), width, height))
            category = bisect_right(cdf, rng.random())
            objects.append((box, category))
        difficulties[image_id] = difficulty
        gt[image_id] = GroundTruthImage(image_id, tuple(objects))

    ids = list(gt)
    rng.shuffle(ids)
    n_init = initial_training if initial_training is not None else max(1, image_count // 10)
    n_val = validation if validation is not None else max(1, image_count // 10)
    n_test = test if test is not None else max(1, (image_count * 15) // 100)
    if min(n_init, n_val, n_test) < 0:
        raise ValidationError(f"partition sizes must be >= 0, got {n_init}, {n_val}, {n_test}")
    if image_count == 0:
        n_init = n_val = n_test = 0
    if n_init + n_val + n_test > image_count:
        raise ValidationError(
            f"partitions ({n_init}+{n_val}+{n_test}) exceed image count {image_count}"
        )
    manifest = DatasetManifest(
        catalog=catalog,
        initial_training=tuple(ids[:n_init]),
        validation=tuple(ids[n_init : n_init + n_val]),
        test=tuple(ids[n_init + n_val : n_init + n_val + n_test]),
        pool=tuple(ids[n_init + n_val + n_test :]),
    )
    return SyntheticWorld(difficulties, gt, manifest)


def save_world(world: SyntheticWorld, path: str | Path) -> None:
    """Write what only the world knows, each image's difficulty; the run's files hold the rest."""
    _write_lines([json.dumps({"difficulty": world.difficulty}, indent=1) + "\n"], path)


def load_world(run_dir: str | Path) -> SyntheticWorld:
    """Rebuild a simulator run's world; every manifest id needs a difficulty and objects."""
    run_dir = Path(run_dir)
    world_path, gt_path = run_dir / "world.json", run_dir / "ground_truth.jsonl"
    difficulty = _load_json(world_path, lambda doc: _field(doc, "difficulty", dict))
    manifest = load_manifest(run_dir / "manifest.json")
    gt = load_ground_truth(gt_path, len(manifest.catalog))
    difficulties = {}
    for image_id in sorted(manifest.all_ids):
        d = difficulty.get(image_id)
        if type(d) not in _NUMBER_TYPES or not 0 <= d <= 1:  # None when missing; NaN fails too
            raise ValidationError(
                f"{world_path}: image {image_id!r} needs a difficulty in [0, 1], got {d!r:.80}"
            )
        if image_id not in gt:
            raise ValidationError(f"{gt_path}: image {image_id!r} of the manifest has no record")
        difficulties[image_id] = float(d)
    return SyntheticWorld(difficulties, gt, manifest)


_MASK32 = 0xFFFFFFFF


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s, one row each.

    SeedSequence hashes s's two 32-bit words into a pool of four words, mixes
    the pool, and draws eight uint32 output words from it; the four uint64
    words are those paired, low word first. This runs the same uint32
    arithmetic on whole arrays; array arithmetic wraps without a warning.
    """
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * 0x931E8875) & _MASK32
        value = value * hash_a
        return value ^ (value >> 16)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    low, high = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]  # a seed below 2**32 has a zero high word
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
                pool[dst] = mixed ^ (mixed >> 16)
    hash_b = 0x8B51F9DD
    words = []
    for k in range(8):
        value = pool[k % 4] ^ hash_b
        hash_b = (hash_b * 0x58F38DED) & _MASK32
        value = value * hash_b
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([words[k] | words[k + 1] << 32 for k in range(0, 8, 2)], axis=-1)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """One ``pass_states`` row as ``np.random.PCG64``'s seed sequence.

    PCG64 reads the array it gets as raw memory, so only its request,
    ``generate_state(4, np.uint64)``, is answered.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValidationError(f"a pass's seed is 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def pass_states(pass_seed: int, image_ids: Sequence[str], n: int) -> np.ndarray:
    """The seed words of each image's n pass generators, a ``(len(image_ids), n, 4)`` uint64 array.

    Pass k of an image draws from ``PCG64(s)``, where s is the little-endian
    int of the 8-byte blake2b of ``"{pass_seed}|{image_id}|{k}"``; its row is
    ``_seed_words`` of s, the SeedSequence words PCG64 seeds itself from.
    Blocks of ``_STATE_BLOCK`` images bound the temporaries' memory.
    """
    states = np.empty((len(image_ids), n, 4), dtype=np.uint64)
    for start in range(0, len(image_ids), _STATE_BLOCK):
        block = image_ids[start : start + _STATE_BLOCK]
        digests = b"".join(
            hashlib.blake2b(f"{pass_seed}|{image_id}|{k}".encode(), digest_size=8).digest()
            for image_id in block
            for k in range(n)
        )
        seeds = np.frombuffer(digests, dtype="<u8").astype(np.uint64)
        states[start : start + len(block)] = _seed_words(seeds).reshape(len(block), n, 4)
    return states


def _dirichlet(gamma: np.ndarray) -> np.ndarray:
    """Rows of gamma draws divided by their sums; a row summing to 0 is uniform."""
    total = gamma.sum(axis=-1, keepdims=True)
    uniform = np.full_like(gamma, 1.0 / gamma.shape[-1])
    return np.divide(gamma, total, out=uniform, where=total > 0.0)


def simulate_passes(
    world: SyntheticWorld,
    skill: SkillState,
    image_id: str,
    n: int,
    pass_seed: int,
    confidence: float = 0.5,
    nms_iou: float = 0.3,
    *,
    states: np.ndarray | None = None,
) -> ImagePasses:
    """Run n stochastic forward passes over one image.

    Pass k draws from its own PCG64 generator, seeded from row k of the
    ``(n, 4)`` seed words ``states``, ``pass_states(pass_seed, [image_id],
    n)[0]`` when not given. Per pass, the draws come in this order: for each
    ground-truth object, one uniform (detected or missed), four standard
    normals (corner jitter) and κ standard gammas (score noise), drawn for a
    missed object too; then the Poisson count of false positives; then for
    each false positive four uniforms (its box) and κ gammas (its scores).
    The passes returned already have the confidence and NMS thresholds
    applied.
    """
    if states is None:
        states = pass_states(pass_seed, [image_id], n)[0]
    states = np.ascontiguousarray(states, dtype=np.uint64)  # PCG64 reads each row's memory
    if states.shape != (n, 4):
        raise ValidationError(f"{image_id}: pass states must have shape ({n}, 4), got {states.shape}")
    width, height = IMAGE_SIZE
    kappa = len(world.catalog)
    d = world.difficulty[image_id]
    objects = world.gt[image_id].objects
    m = len(objects)
    fp_rate = FP_RATE * (1.0 - skill.mean_skill)

    uniform, normal, gamma = np.empty((n, m)), np.empty((n, m, 4)), np.empty((n, m, kappa))
    fp_pass, fp_uniform, fp_gamma = [], [], []
    for p, words in enumerate(states):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for j in range(m):
            uniform[p, j] = rng.random()
            rng.standard_normal(out=normal[p, j])
            rng.standard_gamma(NOISE_CONCENTRATION, out=gamma[p, j])
        for _ in range(rng.poisson(fp_rate)):
            fp_pass.append(p)
            fp_uniform.append(rng.random(4))
            fp_gamma.append(rng.standard_gamma(FP_CONCENTRATION, kappa))

    # true positives: every (pass, object) at once, with the scalar rules' float operations
    effective = [skill.skill(category) * (1.0 - d) for _, category in objects]
    p_det = [min(max(P_LO + (P_HI - P_LO) * e, 0.0), 1.0) for e in effective]
    sigma = [
        JITTER_SIGMA * (1.0 - e) * ((box.x_max - box.x_min) ** 2 + (box.y_max - box.y_min) ** 2) ** 0.5
        for e, (box, _) in zip(effective, objects)
    ]
    corners = np.array([box.as_tuple() for box, _ in objects]).reshape(m, 4)
    jittered = corners + normal * np.array(sigma).reshape(m, 1)
    low, high, limit = jittered[..., :2], jittered[..., 2:], (float(width), float(height))
    boxes = np.concatenate([np.where(low > 0.0, low, 0.0), np.where(high < limit, high, limit)], axis=-1)
    collapsed = (boxes[..., 2:] - boxes[..., :2] < 1e-6).any(axis=-1)  # counts as a miss
    kept = (uniform < p_det) & ~collapsed
    alpha = np.array(effective)
    scores = (1.0 - alpha)[:, None] * _dirichlet(gamma)
    scores[:, np.arange(m), [category for _, category in objects]] += alpha
    scores /= scores.sum(axis=-1, keepdims=True)
    det_pass, det_boxes, det_scores = np.nonzero(kept)[0], boxes[kept], scores[kept]

    if fp_pass:  # false positives, all passes' at once, after each pass's true positives
        fp_boxes = np.stack(_place_box(*np.array(fp_uniform).T, width, height), axis=-1)
        fp_scores = _dirichlet(np.array(fp_gamma))
        fp_scores /= fp_scores.sum(axis=-1, keepdims=True)
        det_pass = np.concatenate([det_pass, fp_pass])
        order = np.argsort(det_pass, kind="stable")
        det_pass = det_pass[order]
        det_boxes = np.concatenate([det_boxes, fp_boxes])[order]
        det_scores = np.concatenate([det_scores, fp_scores])[order]

    counts = np.bincount(det_pass, minlength=n).tolist()
    (raw,) = _image_views(det_boxes, det_scores, [(image_id, width, height, counts)])
    return apply_thresholds(raw, confidence, nms_iou)


def train_update(skill: SkillState, newly_annotated: Iterable[GroundTruthImage]) -> SkillState:
    """Add the sampled images' annotated instances (categories in the catalog) to the exposure counts."""
    exposures = list(skill.exposures)
    for gt in newly_annotated:
        for _, category in gt.objects:
            exposures[category] += 1
    return SkillState(tuple(exposures))
