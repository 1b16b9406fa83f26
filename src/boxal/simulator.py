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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .data_io import (
    _NUMBER_TYPES,
    CategoryCatalog,
    DatasetManifest,
    Detection,
    GroundTruthImage,
    ImagePasses,
    _field,
    _load_json,
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


def _place_box(rng: np.random.Generator, width: int, height: int) -> BoundingBox:
    bw = rng.uniform(0.10, 0.28) * width
    bh = rng.uniform(0.10, 0.28) * height
    x0 = rng.uniform(0.0, width - bw)
    y0 = rng.uniform(0.0, height - bh)
    return BoundingBox(x0, y0, x0 + bw, y0 + bh)


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
    weights = _category_weights(kappa)

    difficulties: dict[str, float] = {}
    gt: dict[str, GroundTruthImage] = {}
    for i in range(image_count):
        image_id = f"img_{i:05d}"
        difficulty = float(rng.uniform(0.0, 1.0))
        count = int(rng.integers(lo, hi + 1))
        objects: list[tuple[BoundingBox, int]] = []
        for _ in range(count):
            box = _place_box(rng, width, height)
            for _ in range(50):  # bounded-overlap rejection sampling, best effort
                if all(iou(box, other) <= MAX_GT_OVERLAP for other, _ in objects):
                    break
                box = _place_box(rng, width, height)
            category = int(rng.choice(kappa, p=weights))
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
    doc = {"difficulty": world.difficulty}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


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


def _pass_rng(pass_seed: int, image_id: str, pass_index: int) -> np.random.Generator:
    digest = hashlib.blake2b(
        f"{pass_seed}|{image_id}|{pass_index}".encode(), digest_size=8
    ).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))


def _dirichlet(rng: np.random.Generator, concentration: float, kappa: int) -> np.ndarray:
    draw = rng.gamma(concentration, size=kappa)
    total = draw.sum()
    if total <= 0.0:
        return np.full(kappa, 1.0 / kappa)
    return draw / total


def simulate_passes(
    world: SyntheticWorld,
    skill: SkillState,
    image_id: str,
    n: int,
    pass_seed: int,
    confidence: float = 0.5,
    nms_iou: float = 0.3,
) -> ImagePasses:
    """Run n stochastic forward passes over one image.

    Each pass is deterministic given (pass_seed, image_id, pass index). The
    returned passes already have the confidence and NMS thresholds applied.
    """
    width, height = IMAGE_SIZE
    kappa = len(world.catalog)
    d = world.difficulty[image_id]
    objects = world.gt[image_id].objects
    skills = {category: skill.skill(category) for _, category in objects}  # fixed for the call
    fp_rate = FP_RATE * (1.0 - skill.mean_skill)
    passes = []
    for pass_index in range(n):
        rng = _pass_rng(pass_seed, image_id, pass_index)
        dets: list[Detection] = []
        for box, category in objects:
            effective = skills[category] * (1.0 - d)
            p_det = min(max(P_LO + (P_HI - P_LO) * effective, 0.0), 1.0)
            detected = rng.random() < p_det
            diag = ((box.x_max - box.x_min) ** 2 + (box.y_max - box.y_min) ** 2) ** 0.5
            sigma = JITTER_SIGMA * (1.0 - effective) * diag
            jitter = rng.normal(0.0, 1.0, size=4) * sigma
            noise = _dirichlet(rng, NOISE_CONCENTRATION, kappa)
            if not detected:
                continue
            x0 = max(0.0, box.x_min + jitter[0])
            y0 = max(0.0, box.y_min + jitter[1])
            x1 = min(float(width), box.x_max + jitter[2])
            y1 = min(float(height), box.y_max + jitter[3])
            if x1 - x0 < 1e-6 or y1 - y0 < 1e-6:
                continue  # jitter collapsed the box: counts as a miss
            alpha = effective
            scores = (1.0 - alpha) * noise
            scores[category] += alpha
            scores /= scores.sum()
            dets.append(Detection(BoundingBox(x0, y0, x1, y1), tuple(float(v) for v in scores)))
        fp_count = int(rng.poisson(fp_rate))
        for _ in range(fp_count):
            fp_box = _place_box(rng, width, height)
            fp_scores = _dirichlet(rng, FP_CONCENTRATION, kappa)
            fp_scores /= fp_scores.sum()
            dets.append(Detection(fp_box, tuple(float(v) for v in fp_scores)))
        passes.append(tuple(dets))
    raw = ImagePasses(image_id, width, height, tuple(passes))
    return apply_thresholds(raw, confidence, nms_iou)


def train_update(skill: SkillState, newly_annotated: Iterable[GroundTruthImage]) -> SkillState:
    """Add the sampled images' annotated instances (categories in the catalog) to the exposure counts."""
    exposures = list(skill.exposures)
    for gt in newly_annotated:
        for _, category in gt.objects:
            exposures[category] += 1
    return SkillState(tuple(exposures))
