"""The iterative annotate-retrain loop, run persistence, and adapter protocol.

A run lives in a directory whose layout the README's "Run directory layout"
section describes. The detector adapter is a file contract, not an in-process
interface: the orchestrator writes a JSON request naming the images (and, for
training, the epoch budget), and the adapter must produce a detections file in
the documented format plus a ``<file>.done`` sentinel (for training, the
request's own ``.done``). ``_ask`` makes every request, so a request already
answered with the same bytes is not asked again. The built-in simulator
adapter fulfils the contract in-process; ``FileWaitAdapter`` waits for an
external trainer to do the same.

Each file but ``events.log`` and ``LOCK`` is replaced whole, so a crash
mid-iteration leaves the previous iteration's state intact. Each fact is stored
once: ``state/iter_N.json`` holds N and, from N = 1 on, iteration N-1's record,
whose write commits the iteration: ``sampled`` ([image_id, c_min] pairs) and
``f1_sampled`` in rank order, ``f1_remaining`` in pool order, and ``metrics``
(the log.csv row, keyed by ``LOG_COLUMNS``). T_N is ``initial_training`` plus
the ids records 1 to N sample, P_N the pool without T_N. ``log.csv`` is rebuilt
from the records, and each T_N export, ``trainset_iter_N.txt``, checked on load.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import socket
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from . import sampling
from .certainty import ImageCertainty, image_certainty
from .data_io import (
    _NUMBER_TYPES,
    DatasetManifest,
    GroundTruthImage,
    ImagePasses,
    _field,
    _floats,
    _load_json,
    _open_input,
    _open_output,
    _remove,
    _write_lines,
    apply_thresholds,
    load_ground_truth,
    load_id_list,
    load_image_passes,
    load_manifest,
    save_ground_truth,
    save_image_passes,
    save_manifest,
)
from .errors import AdapterError, BoxalError, FormatError, ValidationError
from .evaluation import (
    FinalPrediction,
    coco_map,
    consolidate,
    f1_image,
    ttest_two_sided,
)
from .grouping import group_passes
from .simulator import SkillState, SyntheticWorld, pass_states, simulate_passes, train_update


@dataclass(frozen=True)
class RunConfig:
    passes_n: int = 15
    dropout_p: float = 0.75  # informational: executed by the detector, not here
    confidence: float = 0.5
    nms_iou: float = 0.3
    match_iou: float = 0.5
    batch_size: int = 100
    iterations: int = 10
    epoch_base: int = 5
    epoch_increment: int = 5
    strategy: str = "min_certainty"
    seed: int = 0

    def __post_init__(self) -> None:
        # bool is a subclass of int, and JSON true/false load as bool
        for name, low in (("passes_n", 2), ("batch_size", 1), ("iterations", 1),
                          ("epoch_base", 0), ("epoch_increment", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("dropout_p", "confidence", "nms_iou", "match_iou"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be a number in [0, 1], got {value!r}")
        if self.strategy not in sampling.STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")

    def epoch_budget(self, iteration: int) -> int:
        return self.epoch_base + self.epoch_increment * iteration

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RunConfig":
        if not isinstance(doc, Mapping):
            raise FormatError(f"config must be a JSON object, got {doc!r:.80}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)


# log.csv columns, in order; they are also the keys of a record's "metrics"
LOG_COLUMNS = ("iteration", "train_size", "map", "mean_f1_sampled", "mean_f1_remaining",
               "t_statistic", "p_value", "mean_cmin_sampled")


def _parse_record(record: dict) -> dict:
    """``record``, checked: [image_id, c_min] pairs, every log.csv column as a number or null, F1 lists."""
    for pair in _field(record, "sampled", list):
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is str
                and type(pair[1]) in _NUMBER_TYPES):
            raise FormatError(f"sampled must hold [image_id, c_min] pairs, got {pair!r:.80}")
    metrics = _field(record, "metrics", dict)
    for column in LOG_COLUMNS:
        if column not in metrics or metrics[column] is not None:
            _field(metrics, column, float)
    _floats(record, "f1_sampled")
    _floats(record, "f1_remaining")
    return record


@dataclass(frozen=True)
class ActiveLearningState:
    """The training set and pool entering ``iteration``, and the records of iterations 0 to ``iteration`` - 1."""

    iteration: int
    training_ids: tuple[str, ...]
    pool_ids: tuple[str, ...]
    records: tuple[dict, ...] = ()  # record k - 1 is the one state/iter_k.json holds


def _pool(manifest: DatasetManifest, training_ids: Iterable[str]) -> tuple[str, ...]:
    """P: the manifest's pool without the training set, in manifest order."""
    training = set(training_ids)
    return tuple(image_id for image_id in manifest.pool if image_id not in training)


def _load_training_set(run_dir: Path, iteration: int, manifest: DatasetManifest) -> tuple[str, ...]:
    """T entering ``iteration``: ``trainset_iter_<iteration>.txt``, of initial-training and pool images only."""
    known = {*manifest.initial_training, *manifest.pool}
    return tuple(load_id_list(run_dir / f"trainset_iter_{iteration}.txt", known))


# ---------------------------------------------------------------------------
# adapters


class DetectorAdapter(ABC):
    """File-contract boundary to whatever produces detections and trains."""

    @abstractmethod
    def fulfill_detection_request(self, request_path: Path, output_path: Path) -> None:
        """Produce a detections file for the images named in the request.

        Must write ``output_path`` in the detections format and touch
        ``output_path.done`` on success.
        """

    @abstractmethod
    def fulfill_training_request(self, request_path: Path) -> None:
        """Retrain on the request's training set with its epoch budget.

        Must touch ``request_path.done`` on success.
        """


class SimulatorDetectorAdapter(DetectorAdapter):
    """Fulfils the adapter contract in-process with the synthetic detector.

    It keeps no file of its own: the detector answering iteration N is a fresh
    one trained on ``trainset_iter_N.txt``, the file a real trainer reads as its
    request's ``trainset_file``.
    """

    def __init__(self, world: SyntheticWorld, run_dir: str | Path):
        self.world = world
        self.run_dir = Path(run_dir)

    def initialize(self, initial_training_ids: Sequence[str]) -> None:
        """Nothing to do: the step-1 model is the one trained on ``trainset_iter_0.txt``."""

    def skill(self, iteration: int) -> SkillState:
        """The detector trained on the training set entering ``iteration``."""
        gt = self.world.ground_truth()
        ids = _load_training_set(self.run_dir, iteration, self.world.manifest)
        return train_update(SkillState.fresh(len(self.world.catalog)), (gt[i] for i in ids))

    def fulfill_detection_request(self, request_path: Path, output_path: Path) -> None:
        request = _load_json(request_path, lambda doc: doc)
        skill = self.skill(request["iteration"])
        image_ids, n, pass_seed = request["image_ids"], request["passes"], request["pass_seed"]
        images = [
            simulate_passes(
                self.world,
                skill,
                image_id,
                n,
                pass_seed,
                request["confidence"],
                request["nms_iou"],
                states=states,
            )
            for image_id, states in zip(image_ids, pass_states(pass_seed, image_ids, n))
        ]
        save_image_passes(images, output_path)
        _write_lines([], f"{output_path}.done")

    def fulfill_training_request(self, request_path: Path) -> None:
        # the next detection request counts the skill from the request's trainset_file
        _write_lines([], f"{request_path}.done")


POLL_SECONDS = 0.5  # how often FileWaitAdapter looks for a request's .done


class FileWaitAdapter(DetectorAdapter):
    """Waits for an external process to fulfil requests via the file contract."""

    def __init__(self, timeout: float = 3600.0):
        if not timeout >= 0:  # NaN fails too; inf waits without end
            raise ValidationError(f"adapter timeout must be >= 0 seconds, got {timeout!r}")
        self.timeout = timeout

    def _wait(self, sentinel: Path) -> None:
        deadline = time.monotonic() + self.timeout
        while not sentinel.exists():
            if time.monotonic() > deadline:
                raise AdapterError(f"timed out waiting for {sentinel}")
            time.sleep(POLL_SECONDS)

    def fulfill_detection_request(self, request_path: Path, output_path: Path) -> None:
        self._wait(Path(str(output_path) + ".done"))

    def fulfill_training_request(self, request_path: Path) -> None:
        self._wait(Path(str(request_path) + ".done"))


# ---------------------------------------------------------------------------
# run directory plumbing


def _write_json(doc: dict, path: Path) -> None:
    _write_lines([json.dumps(doc, indent=1) + "\n"], path)


@contextmanager
def run_lock(run_dir: Path):
    """Exclusive ownership of a run directory: a non-blocking ``flock`` on ``RUNDIR/LOCK``.

    The kernel releases the lock when its owner exits or is killed, so nothing
    is ever judged stale. While held, LOCK holds ``<pid> <host>``; on release it
    is emptied, not unlinked, since a process that opened the unlinked file and
    one that creates a new LOCK could both own the run. POSIX only.
    """
    lock_path = run_dir / "LOCK"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    except FileNotFoundError:
        raise BoxalError(f"{run_dir}: no such run directory") from None
    except NotADirectoryError:
        raise BoxalError(f"{run_dir}: not a directory") from None
    except OSError as exc:
        raise BoxalError(f"{lock_path}: cannot lock: {exc.strerror or exc}") from None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        os.close(fd)
        if isinstance(exc, BlockingIOError):
            raise BoxalError(f"run directory is locked by another process: {lock_path}") from None
        raise BoxalError(f"{lock_path}: cannot lock: {exc.strerror or exc}") from None
    try:
        os.ftruncate(fd, 0)  # a killed owner's text may be longer than ours
        os.write(fd, f"{os.getpid()} {socket.gethostname()}\n".encode())
        yield
    finally:
        os.ftruncate(fd, 0)
        os.close(fd)  # closing the only descriptor releases the lock


def _log_event(run_dir: Path, message: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    with _open_output(run_dir / "events.log", "a") as fh:
        fh.write(f"{stamp} {message}\n")


def state_path(run_dir: Path, iteration: int) -> Path:
    return Path(run_dir) / "state" / f"iter_{iteration}.json"


def _load_record(run_dir: Path, iteration: int) -> dict | None:
    """The record in ``state/iter_<iteration>.json`` (from iteration 1 on); other keys, such as the
    ``training_ids`` and ``pool_ids`` that earlier versions wrote, are ignored."""
    def parse(doc) -> dict | None:
        if _field(doc, "iteration", int) != iteration:
            raise FormatError(f"iteration {doc['iteration']} does not match the file name")
        return _parse_record(_field(doc, "record", dict)) if iteration >= 1 else None

    return _load_json(state_path(run_dir, iteration), parse)


def load_state(run_dir: str | Path, iteration: int | None = None) -> ActiveLearningState:
    """The state entering ``iteration``, or the latest: T from the manifest and the records, each export checked."""
    run_dir = Path(run_dir)
    if iteration is None:
        files = sorted((run_dir / "state").glob("iter_*.json"))
        if not files:
            raise BoxalError(f"no persisted state under {run_dir / 'state'}")
        stray = [f for f in files if not re.fullmatch(r"iter_(0|[1-9][0-9]*)", f.stem)]
        if stray:
            raise FormatError(f"{stray[0]}: not a state file name; state files are named iter_<N>.json")
        iteration = max(int(f.stem[len("iter_"):]) for f in files)
    last = _load_record(run_dir, iteration)  # read first, so that a missing state file is the one named
    manifest = load_manifest(run_dir / "manifest.json")
    records = [*(_load_record(run_dir, k) for k in range(iteration)), last]  # state/iter_0.json holds none
    training_ids, left = list(manifest.initial_training), set(manifest.pool)
    for k, record in enumerate(records):
        for image_id, _ in record["sampled"] if record else ():
            if image_id not in left:  # outside the pool, already in T, or sampled twice
                raise FormatError(f"{state_path(run_dir, k)}: sampled image {image_id!r} is not in P_{k - 1}")
            left.remove(image_id)
            training_ids.append(image_id)
        found = _load_training_set(run_dir, k, manifest)  # the export, as a trainer reads it, must list T_k
        for n, (want, got) in enumerate(zip_longest(training_ids, found), start=1):
            if want != got:
                raise ValidationError(f"{run_dir / f'trainset_iter_{k}.txt'}:{n}: expected {want!r}, found {got!r}")
    return ActiveLearningState(iteration, tuple(training_ids), _pool(manifest, training_ids), tuple(records[1:]))


def load_config(run_dir: str | Path) -> RunConfig:
    return _load_json(Path(run_dir) / "config.json", RunConfig.from_dict)


def init_run(
    manifest: DatasetManifest,
    config: RunConfig,
    run_dir: str | Path,
    ground_truth: Mapping[str, GroundTruthImage] | None = None,
) -> ActiveLearningState:
    """Create the run directory and persist iteration-0 state; a directory holding a run is refused."""
    run_dir = Path(run_dir)
    subdirs = [run_dir / sub for sub in ("state", "requests", "detections")]
    for path in (*reversed(run_dir.parents), run_dir, *subdirs):  # all before any mkdir
        if path.exists() and not path.is_dir():
            raise BoxalError(f"{path}: not a directory")
    if any((run_dir / "state").glob("iter_*.json")):
        raise BoxalError(f"{run_dir} already holds a run (state/ has state files); use a fresh directory")
    missing = manifest.all_ids - ground_truth.keys() if ground_truth is not None else None
    if missing:
        raise ValidationError(
            f"ground truth missing for {len(missing)} manifest images, e.g. {sorted(missing)[:3]}"
        )
    for subdir in subdirs:
        subdir.mkdir(parents=True, exist_ok=True)
    _write_json(config.to_dict(), run_dir / "config.json")
    save_manifest(manifest, run_dir / "manifest.json")
    if ground_truth is not None:
        save_ground_truth(ground_truth, run_dir / "ground_truth.jsonl")
    state = ActiveLearningState(0, manifest.initial_training, manifest.pool)
    _write_lines((image_id + "\n" for image_id in state.training_ids), run_dir / "trainset_iter_0.txt")
    _write_json({"iteration": 0}, state_path(run_dir, 0))
    _log_event(run_dir, f"init |T_0|={len(state.training_ids)} |P_0|={len(state.pool_ids)}")
    return state


def _read_detections(path: str | Path, config: RunConfig, kappa: int) -> dict[str, ImagePasses]:
    """The detections in ``path``, checked for the run's pass count and ``kappa``, then thresholded."""
    return {
        img.image_id: apply_thresholds(img, config.confidence, config.nms_iou)
        for img in load_image_passes(path, expected_n=config.passes_n, kappa=kappa)
    }


def _ask(doc: dict, request_path: Path, done: Path, fulfill: Callable[[], None]) -> None:
    """Write the request ``doc`` and have ``fulfill`` call the adapter, which must create ``done``.

    A request already on disk with these exact bytes and a ``done`` is answered, so the
    adapter is not called again; otherwise a ``done`` left by another request is removed first.
    """
    text = json.dumps(doc, indent=1) + "\n"
    if done.exists() and request_path.exists():
        with _open_input(request_path) as fh:
            if fh.read() == text.encode():
                return
    _remove(done)
    _write_lines([text], request_path)
    fulfill()
    if not done.exists():
        raise AdapterError(f"adapter did not signal completion: {done} is missing")


def _request_detections(
    run_dir: Path,
    adapter: DetectorAdapter,
    config: RunConfig,
    kappa: int,
    iteration: int,
    image_ids: Sequence[str],
    split: str,
) -> dict[str, ImagePasses]:
    """Ask the adapter for detections of ``image_ids`` as ``iter_<iteration>_<split>``, then read them."""
    request_path = run_dir / "requests" / f"iter_{iteration}_{split}.json"
    output_path = run_dir / "detections" / f"iter_{iteration}_{split}.jsonl"
    doc = {
        "iteration": iteration,
        "image_ids": list(image_ids),
        "passes": config.passes_n,
        "dropout_p": config.dropout_p,
        "confidence": config.confidence,
        "nms_iou": config.nms_iou,
        "pass_seed": sampling.substream_seed(config.seed, iteration),
    }
    _ask(doc, request_path, Path(str(output_path) + ".done"),
         lambda: adapter.fulfill_detection_request(request_path, output_path))
    images = _read_detections(output_path, config, kappa)
    requested = set(image_ids)
    for image_id in images:
        if image_id not in requested:
            raise AdapterError(f"{output_path}: adapter returned unrequested image {image_id!r}")
    missing = requested - images.keys()
    if missing:
        raise AdapterError(
            f"{output_path}: adapter omitted {len(missing)} requested images, e.g. {sorted(missing)[:3]}"
        )
    return images


def _predict(
    detections: Mapping[str, ImagePasses],
    config: RunConfig,
    kappa: int,
    pool_ids: Iterable[str] = (),
) -> tuple[dict[str, list[FinalPrediction]], dict[str, ImageCertainty]]:
    """Group each image once; consolidate every image and score the pool images.

    Only the predictions and certainties are kept, not the instance sets.
    """
    pool = set(pool_ids)
    preds = {}
    certainties = {}
    for image_id, img in detections.items():
        sets = group_passes(img, config.match_iou)
        if image_id in pool:
            certainties[image_id] = image_certainty(image_id, sets, kappa, config.passes_n)
        preds[image_id] = consolidate(sets)
    return preds, certainties


def _fmt(value) -> str:
    """A report value: empty for None, an integer as is, a float to 9 significant digits."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


def _test_map(
    run_dir: Path,
    adapter: DetectorAdapter,
    config: RunConfig,
    manifest: DatasetManifest,
    gt: Mapping[str, GroundTruthImage],
    iteration: int,
) -> float | None:
    """The test split's mAP for the model entering ``iteration``, from the request ``iter_<N>_test``."""
    if not manifest.test:
        return None
    kappa = len(manifest.catalog)
    detections = _request_detections(run_dir, adapter, config, kappa, iteration, manifest.test, "test")
    preds, _ = _predict(detections, config, kappa)
    gt_test = {image_id: gt[image_id] for image_id in manifest.test}
    return coco_map(preds, gt_test, manifest.catalog).map_score


def _run_iteration_locked(
    run_dir: Path,
    adapter: DetectorAdapter,
    state: ActiveLearningState,
    config: RunConfig,
    manifest: DatasetManifest,
    gt: Mapping[str, GroundTruthImage],
) -> ActiveLearningState:
    i = state.iteration
    kappa = len(manifest.catalog)

    detections = _request_detections(run_dir, adapter, config, kappa, i, state.pool_ids, "pool")
    preds, certainties = _predict(detections, config, kappa, state.pool_ids)

    if config.strategy == "min_certainty":
        sampled = sampling.sample_min_certainty(
            [(ic.image_id, ic.c_min) for ic in certainties.values()], config.batch_size)
    else:
        sampled = sampling.sample_random(sorted(state.pool_ids), config.batch_size, config.seed, i)

    per_image_f1 = f1_image(preds, {image_id: gt[image_id] for image_id in state.pool_ids})
    sampled_set = set(sampled)
    sampled_f1 = [per_image_f1[s] for s in sampled]
    remaining_f1 = [f for s, f in per_image_f1.items() if s not in sampled_set]
    if len(sampled_f1) >= 2 and len(remaining_f1) >= 2:
        # the t-test sums the sampled F1 in pool order; the record keeps rank order
        ttest = ttest_two_sided([f for s, f in per_image_f1.items() if s in sampled_set], remaining_f1)
    else:
        ttest = None
    map_score = _test_map(run_dir, adapter, config, manifest, gt, i)

    metrics = dict(zip(LOG_COLUMNS, (
        i,
        len(state.training_ids),
        map_score,
        sum(sampled_f1) / len(sampled_f1) if sampled_f1 else None,
        sum(remaining_f1) / len(remaining_f1) if remaining_f1 else None,
        ttest.statistic if ttest else None,
        ttest.p_value if ttest else None,
        sum(certainties[s].c_min for s in sampled) / len(sampled),
    )))
    record = {
        "sampled": [[s, certainties[s].c_min] for s in sampled],
        "metrics": metrics,
        "f1_sampled": sampled_f1,
        "f1_remaining": remaining_f1,
    }
    training_ids = state.training_ids + tuple(sampled)
    new_state = ActiveLearningState(i + 1, training_ids, _pool(manifest, training_ids), (*state.records, record))

    _write_lines((image_id + "\n" for image_id in training_ids), run_dir / f"trainset_iter_{i + 1}.txt")
    train_request = run_dir / "requests" / f"train_iter_{i + 1}.json"
    doc = {
        "iteration": i + 1,
        "epochs": config.epoch_budget(i + 1),
        "trainset_file": f"trainset_iter_{i + 1}.txt",
        "new_image_ids": list(sampled),
    }
    _ask(doc, train_request, Path(str(train_request) + ".done"),
         lambda: adapter.fulfill_training_request(train_request))

    _write_json({"iteration": i + 1, "record": record}, state_path(run_dir, i + 1))
    _log_event(
        run_dir,
        f"iteration {i} sampled {len(sampled)} images (strategy={config.strategy}); "
        f"|T_{i + 1}|={len(new_state.training_ids)} |P_{i + 1}|={len(new_state.pool_ids)}",
    )
    return new_state


def run_loop(
    run_dir: str | Path, adapter: DetectorAdapter, iterations: int | None = None
) -> ActiveLearningState:
    """Run ``iterations`` more iterations and write the log.csv report.

    Without ``iterations`` the loop runs the iterations the config has left,
    up to ``config.iterations`` in all. The report carries one row per
    completed iteration (metrics measured with the model as trained entering
    that iteration) plus a final row evaluating the model after the last
    retraining. That evaluation is the next iteration's test request, so a
    later loop reuses its answer.
    """
    if iterations is not None and not 0 <= iterations:
        raise ValidationError(f"cannot run {iterations} iterations")
    run_dir = Path(run_dir)
    with run_lock(run_dir):
        state = load_state(run_dir)
        config = load_config(run_dir)
        manifest = load_manifest(run_dir / "manifest.json")
        gt = load_ground_truth(run_dir / "ground_truth.jsonl", kappa=len(manifest.catalog))
        if iterations is None:
            iterations = max(0, config.iterations - state.iteration)
        needed = iterations * config.batch_size
        if len(state.pool_ids) < needed:
            raise ValidationError(f"pool has {len(state.pool_ids)} images, cannot sample {needed} "
                                  f"({iterations} iterations of {config.batch_size})")
        for _ in range(iterations):
            state = _run_iteration_locked(run_dir, adapter, state, config, manifest, gt)

        final_iter = state.iteration
        final_map = _test_map(run_dir, adapter, config, manifest, gt, final_iter)

        metrics = [record["metrics"] for record in state.records]
        # the final row evaluates the last model, so only its first three columns apply
        metrics.append(dict(zip(LOG_COLUMNS, (final_iter, len(state.training_ids), final_map))))
        rows = [LOG_COLUMNS, *([_fmt(m.get(c)) for c in LOG_COLUMNS] for m in metrics)]
        # csv's default line end; numbers and column names need no quoting
        _write_lines((",".join(row) + "\r\n" for row in rows), run_dir / "log.csv")
        _log_event(run_dir, f"loop complete at iteration {final_iter}")
        return state
