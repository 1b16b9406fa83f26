"""Certainty-based active learning for object detection, with a built-in
synthetic detector for desk-scale experiments."""

from .certainty import (
    CertaintyTriple,
    ImageCertainty,
    image_certainty,
    occurrence_certainty,
    semantic_certainty,
    set_certainty,
    spatial_certainty,
)
from .data_io import (
    CategoryCatalog,
    DatasetManifest,
    Detection,
    GroundTruthImage,
    ImagePasses,
    apply_thresholds,
    load_ground_truth,
    load_image_passes,
    load_manifest,
)
from .errors import AdapterError, BoxalError, FormatError, ValidationError
from .evaluation import (
    EvalResult,
    FinalPrediction,
    TTestResult,
    coco_map,
    consolidate,
    f1_image,
    regularized_incomplete_beta,
    ttest_two_sided,
)
from .geometry import BoundingBox, iou, mean_box
from .grouping import InstanceSet, group_passes
from .orchestrator import (
    ActiveLearningState,
    DetectorAdapter,
    FileWaitAdapter,
    RunConfig,
    SimulatorDetectorAdapter,
    init_run,
    run_iteration,
    run_loop,
)
from .sampling import rank, sample_min_certainty, sample_random, substream_seed
from .simulator import (
    SkillState,
    SyntheticWorld,
    generate_world,
    load_world,
    save_world,
    simulate_passes,
    train_update,
)

__version__ = "0.1.0"
