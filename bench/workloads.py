"""The benchmark's workloads: inputs made from the seed, set-up, and adapters.

``sim-reference`` reproduces ``boxal simulate-run``: it generates a world,
sets the run up and lets the built-in simulator answer every detection
request inside the loop. The two replay workloads stand in for a real
detector behind the file contract: the simulator renders every image's
passes once, before anything is timed, and ``FrozenDetectorAdapter`` copies
the requested lines of that file into each detections file.

Set-up calls go through the names ``boxal.cli`` binds, so that they are the
calls ``simulate-run`` and ``init`` make.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from boxal import DetectorAdapter, RunConfig, SkillState, cli
from boxal.data_io import save_image_passes
from boxal.simulator import simulate_passes, train_update


@dataclass(frozen=True)
class Workload:
    images: int
    categories: int
    objects: tuple[int, int]
    passes: int
    batch_size: int
    iterations: int
    test: int | None  # test-split size; None keeps generate_world's default of 15 %
    replay: bool
    setup_reps: int  # set-ups timed per repetition; replay set-ups take ~30 ms, so more of them

    def config(self, seed: int) -> RunConfig:
        return RunConfig(
            passes_n=self.passes, batch_size=self.batch_size, iterations=self.iterations, seed=seed
        )

    def world(self, seed: int):
        return cli.generate_world(
            seed=seed,
            image_count=self.images,
            kappa=self.categories,
            objects_per_image=self.objects,
            test=self.test,
        )


WORKLOADS = {
    # `simulate-run --images 2000 --categories 10 --passes-n 15 --batch-size 100 --iterations 5`
    "sim-reference": Workload(2000, 10, (1, 4), 15, 100, 5, None, replay=False, setup_reps=5),
    # crowded scenes, many passes and categories: parsing and grouping dominate
    "replay-crowded": Workload(1000, 20, (3, 8), 20, 50, 5, None, replay=True, setup_reps=15),
    # many small rounds: per-iteration fixed costs (ground-truth reload, state, test mAP)
    "replay-long": Workload(1200, 5, (1, 3), 8, 10, 40, 400, replay=True, setup_reps=15),
}


def render_detections(workload: Workload, seed: int, inputs: Path) -> None:
    """Write every pool and test image's passes, and a byte index into them.

    The replayed detector is trained once on the initial training split and
    never again.
    """
    world = workload.world(seed)
    config = workload.config(seed)
    gt = world.ground_truth()
    skill = train_update(
        SkillState.fresh(len(world.catalog)), (gt[i] for i in world.manifest.initial_training)
    )
    ids = world.manifest.pool + world.manifest.test
    images = [
        simulate_passes(world, skill, i, config.passes_n, seed, config.confidence, config.nms_iou)
        for i in ids
    ]
    inputs.mkdir(parents=True, exist_ok=True)
    save_image_passes(images, inputs / "detections.jsonl")
    index = {}
    offset = 0
    with open(inputs / "detections.jsonl", "rb") as fh:
        for image_id, line in zip(ids, fh):
            index[image_id] = [offset, len(line)]
            offset += len(line)
    if len(index) != len(ids):
        raise RuntimeError(f"rendered {len(index)} detection lines for {len(ids)} images")
    with open(inputs / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh)


class FrozenDetectorAdapter(DetectorAdapter):
    """An external detector that never changes: serves pre-rendered passes per id."""

    def __init__(self, inputs: Path):
        self.detections = inputs / "detections.jsonl"
        with open(inputs / "index.json", "r", encoding="utf-8") as fh:
            self.index = json.load(fh)

    def fulfill_detection_request(self, request_path: Path, output_path: Path) -> None:
        with open(request_path, "r", encoding="utf-8") as fh:
            request = json.load(fh)
        with open(self.detections, "rb") as src, open(output_path, "wb") as out:
            for image_id in request["image_ids"]:
                offset, length = self.index[image_id]
                src.seek(offset)
                out.write(src.read(length))
        Path(str(output_path) + ".done").touch()

    def fulfill_training_request(self, request_path: Path) -> None:
        Path(str(request_path) + ".done").touch()


class Fixture:
    """What one repetition needs before its timed set-up starts."""

    def __init__(self, workload: Workload, seed: int, inputs: Path):
        self.workload = workload
        self.seed = seed
        self.config = workload.config(seed)
        if workload.replay:
            world = workload.world(seed)
            self.manifest = world.manifest
            self.ground_truth = world.ground_truth()
            self.adapter = FrozenDetectorAdapter(inputs)

    def set_up(self, run_dir: Path) -> DetectorAdapter:
        """The timed set-up: everything between the run command and the first iteration."""
        if self.workload.replay:
            cli.init_run(self.manifest, self.config, run_dir, self.ground_truth)
            return self.adapter
        world = self.workload.world(self.seed)
        run_dir.mkdir(parents=True, exist_ok=True)
        cli.save_world(world, run_dir / "world.json")
        cli.init_run(world.manifest, self.config, run_dir, world.ground_truth())
        adapter = cli.SimulatorDetectorAdapter(world, run_dir)
        adapter.initialize(world.manifest.initial_training)
        return adapter
