"""Certainty-based active learning for object detection, with a built-in
synthetic detector for desk-scale experiments."""

from .data_io import apply_thresholds, load_ground_truth, load_image_passes, load_manifest
from .evaluation import coco_map, consolidate
from .grouping import group_passes
from .orchestrator import DetectorAdapter, RunConfig, run_loop
from .simulator import SkillState

__version__ = "0.1.0"
