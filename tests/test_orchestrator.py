import csv
import errno
import fcntl
import gc
import io
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from boxal import data_io, orchestrator
from boxal.certainty import image_certainty
from boxal.cli import main
from boxal.data_io import CategoryCatalog, DatasetManifest, load_image_passes
from boxal.errors import AdapterError, BoxalError, FormatError, ValidationError
from boxal.grouping import group_passes
from boxal.orchestrator import (
    ActiveLearningState,
    DetectorAdapter,
    FileWaitAdapter,
    RunConfig,
    SimulatorDetectorAdapter,
    init_run,
    load_config,
    load_state,
    run_lock,
    run_loop,
    state_path,
)
from boxal.evaluation import ttest_two_sided
from boxal.sampling import rank, sample_min_certainty
from boxal.simulator import generate_world


def small_world(seed=17, images=60, kappa=3):
    return generate_world(
        seed=seed, image_count=images, kappa=kappa,
        initial_training=8, validation=4, test=8,
    )


def small_config(**kw):
    base = dict(passes_n=5, batch_size=10, iterations=2, seed=3)
    base.update(kw)
    return RunConfig(**base)


def start_run(tmp_path, world=None, config=None, name="run"):
    world = world or small_world()
    config = config or small_config()
    run_dir = tmp_path / name
    init_run(world.manifest, config, run_dir, world.ground_truth())
    return run_dir, SimulatorDetectorAdapter(world, run_dir), world


class TestRunConfig:
    def test_defaults_match_documented_protocol(self):
        c = RunConfig()
        assert (c.passes_n, c.dropout_p, c.confidence, c.nms_iou, c.match_iou) == (15, 0.75, 0.5, 0.3, 0.5)
        assert (c.batch_size, c.iterations) == (100, 10)

    def test_epoch_schedule(self):
        c = RunConfig()
        assert [c.epoch_budget(i) for i in range(4)] == [5, 10, 15, 20]

    @pytest.mark.parametrize("kw", [
        dict(passes_n=1), dict(iterations=0), dict(batch_size=0),
        dict(confidence=1.5), dict(strategy="entropy"),
        dict(nms_iou=-0.1), dict(nms_iou=1.5),
        dict(passes_n="15"), dict(passes_n=15.5), dict(seed="x"), dict(batch_size=True),
    ])
    def test_invalid_config_rejected(self, kw):
        with pytest.raises(ValidationError):
            RunConfig(**kw)

    def test_round_trip_and_unknown_keys(self):
        c = small_config()
        assert RunConfig.from_dict(c.to_dict()) == c
        with pytest.raises(ValidationError, match="unknown"):
            RunConfig.from_dict({"passes_n": 5, "mystery": 1})


class TestActiveLearningState:
    def test_round_trip(self, tmp_path):
        # the state files hold the records; T comes back from the manifest and the records, P from the manifest
        world = small_world()
        run_dir = tmp_path / "run"
        state0 = init_run(world.manifest, small_config(), run_dir, world.ground_truth())
        state1 = run_loop(run_dir, SimulatorDetectorAdapter(world, run_dir), 1)
        assert state0 == ActiveLearningState(0, world.manifest.initial_training, world.manifest.pool)
        sampled = [image_id for image_id, _ in state1.records[-1]["sampled"]]
        assert state1.training_ids == state0.training_ids + tuple(sampled)
        assert state1.pool_ids == tuple(p for p in state0.pool_ids if p not in sampled)
        assert load_state(run_dir, 0) == state0
        assert load_state(run_dir, 1) == load_state(run_dir) == state1

    def test_record_required_from_iteration_1(self, tmp_path):
        run_dir, adapter, _ = start_run(tmp_path)
        run_loop(run_dir, adapter, 1)
        path = state_path(run_dir, 1)
        path.write_text(json.dumps({"iteration": 1}))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: missing field 'record'"):
            load_state(run_dir)


class TestInitRun:
    def test_paper_shaped_manifest(self, tmp_path):
        manifest = DatasetManifest(
            catalog=CategoryCatalog(("a", "b")),
            initial_training=tuple(f"t{i}" for i in range(100)),
            pool=tuple(f"p{i}" for i in range(300)),
            validation=tuple(f"v{i}" for i in range(60)),
            test=tuple(f"x{i}" for i in range(40)),
        )
        state = init_run(manifest, small_config(), tmp_path / "r")
        assert state.iteration == 0
        assert len(state.training_ids) == 100
        assert len(state.pool_ids) == 300
        assert load_state(tmp_path / "r") == state

    def test_empty_pool_is_valid(self, tmp_path):
        manifest = DatasetManifest(
            catalog=CategoryCatalog(("a", "b")),
            initial_training=("t0",), pool=(), validation=(), test=(),
        )
        state = init_run(manifest, small_config(), tmp_path / "r")
        assert state.pool_ids == ()

    def test_ground_truth_must_cover_manifest(self, tmp_path):
        world = small_world()
        gt = dict(world.ground_truth())
        gt.pop(next(iter(gt)))
        with pytest.raises(ValidationError, match="missing"):
            init_run(world.manifest, small_config(), tmp_path / "r", gt)

    def test_config_persisted(self, tmp_path):
        run_dir, _, _ = start_run(tmp_path)
        assert load_config(run_dir) == small_config()


class TestRunIteration:
    def test_bookkeeping(self, tmp_path):
        run_dir, adapter, world = start_run(tmp_path)
        before = load_state(run_dir)
        after = run_loop(run_dir, adapter, 1)
        assert after.iteration == 1
        assert len(after.training_ids) == len(before.training_ids) + 10
        assert len(after.pool_ids) == len(before.pool_ids) - 10
        assert set(after.training_ids) & set(after.pool_ids) == set()
        assert set(after.training_ids) >= set(before.training_ids)

    def test_min_certainty_takes_lowest_ranked(self, tmp_path):
        run_dir, adapter, world = start_run(tmp_path)
        state0 = load_state(run_dir)
        after = run_loop(run_dir, adapter, 1)
        sampled = sorted(set(after.training_ids) - set(state0.training_ids))
        config = load_config(run_dir)
        detections = load_image_passes(run_dir / "detections" / "iter_0_pool.jsonl")
        pool = [img for img in detections if img.image_id in set(state0.pool_ids)]
        ranking = rank(
            (img.image_id, image_certainty(group_passes(img, config.match_iou)).c_min)
            for img in pool
        )
        assert sorted(sample_min_certainty(ranking, 10)) == sampled

    def test_random_strategy(self, tmp_path):
        run_dir, adapter, _ = start_run(tmp_path, config=small_config(strategy="random"))
        state0 = load_state(run_dir)
        after = run_loop(run_dir, adapter, 1)
        sampled = set(after.training_ids) - set(state0.training_ids)
        assert len(sampled) == 10
        assert sampled <= set(state0.pool_ids)

    def test_pool_too_small_rejected(self, tmp_path):
        world = small_world(images=20)  # pool = 20 - 8 - 4 - 8 = 0
        run_dir, adapter, _ = start_run(tmp_path, world=world)
        with pytest.raises(ValidationError, match="pool"):
            run_loop(run_dir, adapter, 1)

    def test_crash_before_persist_preserves_state(self, tmp_path):
        run_dir, adapter, world = start_run(tmp_path)
        before = load_state(run_dir)

        class CrashingAdapter(SimulatorDetectorAdapter):
            def fulfill_training_request(self, request_path):
                raise AdapterError("injected crash")

        crasher = CrashingAdapter(world, run_dir)
        with pytest.raises(AdapterError, match="injected"):
            run_loop(run_dir, crasher, 1)
        assert not state_path(run_dir, 1).exists()
        assert load_state(run_dir) == before
        # the run recovers with a working adapter
        after = run_loop(run_dir, adapter, 1)
        assert after.iteration == 1

    def test_ledger_conservation(self, tmp_path):
        run_dir, adapter, world = start_run(tmp_path)
        m = world.manifest
        fixed = set(m.validation) | set(m.test)
        for _ in range(3):
            state = run_loop(run_dir, adapter, 1)
            t, p = set(state.training_ids), set(state.pool_ids)
            assert t | p | fixed == m.all_ids
            assert not (t & p) and not (t & fixed) and not (p & fixed)

    def test_reload_resume_equals_uninterrupted(self, tmp_path):
        world = small_world()
        config = small_config()
        # run A: two iterations within one process
        dir_a, adapter_a, _ = start_run(tmp_path, world, config, name="a")
        run_loop(dir_a, adapter_a, 1)
        state_a = run_loop(dir_a, adapter_a, 1)
        # run B: iterate, then resume from persisted state with a fresh adapter
        dir_b, adapter_b, _ = start_run(tmp_path, world, config, name="b")
        run_loop(dir_b, adapter_b, 1)
        fresh_adapter = SimulatorDetectorAdapter(world, dir_b)
        state_b = run_loop(dir_b, fresh_adapter, 1)
        assert state_a.training_ids == state_b.training_ids
        assert state_a.pool_ids == state_b.pool_ids

    def test_training_request_carries_epoch_budget(self, tmp_path):
        run_dir, adapter, _ = start_run(tmp_path)
        run_loop(run_dir, adapter, 1)
        with open(run_dir / "requests" / "train_iter_1.json") as fh:
            request = json.load(fh)
        assert request["epochs"] == small_config().epoch_budget(1)
        assert len(request["new_image_ids"]) == 10


class TamperingAdapter(SimulatorDetectorAdapter):
    """Simulator adapter whose detections file ``target`` is rewritten by ``tamper`` before completion."""

    def __init__(self, world, run_dir, target, tamper):
        super().__init__(world, run_dir)
        self.target, self.tamper = target, tamper

    def fulfill_detection_request(self, request_path, output_path):
        super().fulfill_detection_request(request_path, output_path)
        if output_path.name == self.target:
            records = [json.loads(line) for line in output_path.read_text().splitlines()]
            self.tamper(records)
            output_path.write_text("".join(json.dumps(r) + "\n" for r in records))


# rewrites of a detections file's records: an image added that was not requested, a requested one left out
TAMPERS = {
    "unrequested": lambda records: records.append(dict(records[0], image_id="not_requested")),
    "omitted": lambda records: records.pop(3),
}


class TestAdapterOutputValidation:
    def test_wrong_score_length_on_test_image_rejected(self, tmp_path):
        run_dir, _, world = start_run(tmp_path)

        def widen_scores(records):
            # a fourth score of 0 keeps each sum at 1; only the length (kappa=3) is wrong
            record = next(r for r in records if any(r["passes"]))
            for pass_dets in record["passes"]:
                for det in pass_dets:
                    det["scores"].append(0.0)

        before = load_state(run_dir)
        with pytest.raises(BoxalError, match="iter_0_test.jsonl") as excinfo:
            run_loop(run_dir, TamperingAdapter(world, run_dir, "iter_0_test.jsonl", widen_scores), 1)
        assert "expected 3 scores" in str(excinfo.value)
        assert load_state(run_dir) == before

    def test_unrequested_image_rejected(self, tmp_path):
        run_dir, _, world = start_run(tmp_path)

        def add_extra(records):
            records.append(dict(records[0], image_id="not_requested"))

        line = len(load_state(run_dir).pool_ids) + 1  # the appended record's line
        with pytest.raises(ValidationError, match=f"iter_0_pool.jsonl:{line}: ") as excinfo:
            run_loop(run_dir, TamperingAdapter(world, run_dir, "iter_0_pool.jsonl", add_extra), 1)
        assert "not_requested" in str(excinfo.value)

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_a_tampered_answer_is_named_and_exits_2_through_the_cli(self, tmp_path, capsys, tamper):
        run_dir, _, world = start_run(tmp_path)
        pool = load_state(run_dir).pool_ids  # the pool file lists the request's images in order
        where, image_id = {"unrequested": (f":{len(pool) + 1}: ", "not_requested"), "omitted": (": ", pool[3])}[tamper]
        with pytest.raises(BoxalError) as excinfo:
            run_loop(run_dir, TamperingAdapter(world, run_dir, "iter_0_pool.jsonl", TAMPERS[tamper]), 1)
        # the tampered answer stays with its .done, so the file adapter's loop reads it again, asking nothing
        capsys.readouterr()
        assert main(["loop", "--run", str(run_dir), "--adapter", "file", "--adapter-timeout", "0"]) == 2
        for message in (f"error: {excinfo.value}\n", capsys.readouterr().err):
            assert message.startswith(f"error: {run_dir / 'detections' / 'iter_0_pool.jsonl'}{where}"), message
            assert repr(image_id) in message


class TestRunLoop:
    def test_report_written(self, tmp_path):
        run_dir, adapter, _ = start_run(tmp_path)
        state = run_loop(run_dir, adapter, 2)
        assert state.iteration == 2
        with open(run_dir / "log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3  # two iterations + final evaluation row
        assert [int(r["iteration"]) for r in rows] == [0, 1, 2]
        assert [int(r["train_size"]) for r in rows] == [8, 18, 28]
        for row in rows:
            assert 0.0 <= float(row["map"]) <= 1.0
        assert rows[2]["p_value"] == ""  # final row is evaluation only

    def test_deterministic_reports(self, tmp_path):
        world = small_world()
        config = small_config()
        outputs = []
        for name in ("r1", "r2"):
            run_dir, adapter, _ = start_run(tmp_path, world, config, name=name)
            run_loop(run_dir, adapter, 2)
            outputs.append((run_dir / "log.csv").read_bytes())
        assert outputs[0] == outputs[1]


class InjectedCrash(Exception):
    """Stands for the process dying; not a BoxalError, so nothing handles it."""


class CrashingAdapter(DetectorAdapter):
    """Delegates to ``inner`` and raises InjectedCrash at the ``at``-th visit of ``point``.

    ``before_detections`` comes right after the previous state write (or init),
    ``after_detections`` after the detections file and its ``.done``,
    ``before_training`` after the training set file and the train request, and
    ``after_training`` after the adapter has trained, still before the state write.
    """

    def __init__(self, inner, point, at):
        self.inner, self.point, self.left = inner, point, at

    def _visit(self, point):
        if point == self.point:
            self.left -= 1
            if self.left == 0:
                raise InjectedCrash(point)

    def fulfill_detection_request(self, request_path, output_path):
        self._visit("before_detections")
        self.inner.fulfill_detection_request(request_path, output_path)
        self._visit("after_detections")

    def fulfill_training_request(self, request_path):
        self._visit("before_training")
        self.inner.fulfill_training_request(request_path)
        self._visit("after_training")


class CountingAdapter(DetectorAdapter):
    """Delegates to ``inner`` and counts in ``counts`` how often each image is detected."""

    def __init__(self, inner, counts):
        self.inner, self.counts = inner, counts

    def fulfill_detection_request(self, request_path, output_path):
        self.counts.update(json.loads(request_path.read_text())["image_ids"])
        self.inner.fulfill_detection_request(request_path, output_path)

    def fulfill_training_request(self, request_path):
        self.inner.fulfill_training_request(request_path)


def dead_pid():
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    return child.stdout.strip()


class TestCrashResume:
    ITERATIONS = 3

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """The uninterrupted loop's log.csv and how often it detected each image."""
        run_dir, adapter, _ = start_run(tmp_path_factory.mktemp("ref"))
        counts = Counter()
        run_loop(run_dir, CountingAdapter(adapter, counts), self.ITERATIONS)
        return (run_dir / "log.csv").read_bytes(), counts

    def test_split_loop_equals_one_loop(self, tmp_path):
        # the split loop's final evaluation is iteration 2's test request, which the second call reuses
        world = small_world()
        whole, adapter, _ = start_run(tmp_path, world, name="whole")
        whole_counts = Counter()
        run_loop(whole, CountingAdapter(adapter, whole_counts), 4)
        split, adapter, _ = start_run(tmp_path, world, name="split")
        split_counts = Counter()
        run_loop(split, CountingAdapter(adapter, split_counts), 2)
        run_loop(split, CountingAdapter(SimulatorDetectorAdapter(world, split), split_counts), 2)
        assert (split / "log.csv").read_bytes() == (whole / "log.csv").read_bytes()
        assert split_counts == whole_counts

    # detection visits: iteration k's pool request is visit 2k+1 and its test request 2k+2;
    # the final evaluation, iteration 3's test request, is visit 7
    @pytest.mark.parametrize("point, at, stale_lock", [
        ("after_detections", 1, False),  # iteration 0's pool request
        ("after_detections", 2, False),  # iteration 0's test request
        ("after_detections", 3, False),  # iteration 1's pool request
        ("before_training", 2, False),
        ("after_training", 2, False),
        ("before_detections", 3, False),  # right after state/iter_1.json
        ("after_detections", 7, False),  # in the final evaluation, after state/iter_3.json
        ("before_training", 3, True),  # and the killed process's LOCK is left behind
    ])
    def test_resume_after_crash_gives_same_report(self, tmp_path, reference, point, at, stale_lock):
        run_dir, adapter, world = start_run(tmp_path)
        counts = Counter()
        with pytest.raises(InjectedCrash):
            run_loop(run_dir, CrashingAdapter(CountingAdapter(adapter, counts), point, at), self.ITERATIONS)
        if stale_lock:
            (run_dir / "LOCK").write_text(f"{dead_pid()} {socket.gethostname()}\n")
        done = load_state(run_dir).iteration
        resumed = CountingAdapter(SimulatorDetectorAdapter(world, run_dir), counts)
        run_loop(run_dir, resumed, self.ITERATIONS - done)
        assert (run_dir / "log.csv").read_bytes() == reference[0]
        assert counts == reference[1]  # an answered request is not asked again

    def test_done_of_another_request_is_removed_and_asked_again(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "POLL_SECONDS", 0.01)
        run_dir, adapter, world = start_run(tmp_path)
        run_loop(run_dir, adapter, 1)
        log = (run_dir / "log.csv").read_bytes()
        waiting = FileWaitAdapter(timeout=0.05)
        run_loop(run_dir, waiting, 0)  # iter_1_test is answered, so there is nothing to wait for
        request = run_dir / "requests" / "iter_1_test.json"
        done = run_dir / "detections" / "iter_1_test.jsonl.done"
        asked = request.read_bytes()
        request.write_bytes(asked.replace(b'"passes": 5', b'"passes": 6'))  # as after a config edit
        with pytest.raises(AdapterError, match="timed out"):
            run_loop(run_dir, waiting, 0)
        assert request.read_bytes() == asked and not done.exists()
        counts = Counter()
        run_loop(run_dir, CountingAdapter(adapter, counts), 0)
        assert counts == Counter(world.manifest.test)
        assert (run_dir / "log.csv").read_bytes() == log

    def test_training_without_done_is_named(self, tmp_path):
        run_dir, _, world = start_run(tmp_path)

        class NoTrainingDone(SimulatorDetectorAdapter):
            def fulfill_training_request(self, request_path):
                super().fulfill_training_request(request_path)
                Path(str(request_path) + ".done").unlink()

        done = run_dir / "requests" / "train_iter_1.json.done"
        with pytest.raises(AdapterError, match=re.escape(str(done))):
            run_loop(run_dir, NoTrainingDone(world, run_dir), 1)
        assert load_state(run_dir).iteration == 0

    def test_each_state_file_holds_its_own_record(self, tmp_path):
        run_dir, adapter, _ = start_run(tmp_path)
        run_loop(run_dir, adapter, self.ITERATIONS)
        docs = [json.loads(state_path(run_dir, k).read_text()) for k in range(self.ITERATIONS + 1)]
        assert docs[0] == {"iteration": 0}
        for k, doc in enumerate(docs[1:], start=1):
            assert set(doc) == {"iteration", "record"}
            assert doc["iteration"] == k
            assert doc["record"]["metrics"]["iteration"] == k - 1
            assert len(doc["record"]["sampled"]) == len(doc["record"]["f1_sampled"]) == 10
        assert not (run_dir / "samples").exists()


class HalfWritten(io.StringIO):
    """A write killed half-way: on close, the first half of its text reaches the file, then the crash."""

    def __init__(self, opening):
        super().__init__()
        self.opening = opening  # the real _open_output of the file, not yet entered

    def close(self):
        if not self.closed:
            text = self.getvalue()
            super().close()
            with self.opening as fh:
                fh.write(text[: len(text) // 2])
            raise InjectedCrash("half-way through a write")


class Mutations:
    """Numbers the file mutations in order, each ``_open_output``, ``os.replace`` and ``Path.unlink``, and crashes
    just before mutation ``before`` or half-way through the text written by mutation ``half``.

    Every mutation must be of a file under ``run_dir``; ``targets`` collects those files, ``writes`` the numbers
    of the ``_open_output`` mutations.
    """

    def __init__(self, run_dir, before=None, half=None):
        self.run_dir, self.before, self.half = run_dir, before, half
        self.count, self.writes, self.targets = 0, [], set()

    def _mutation(self, path) -> int:
        k, self.count = self.count, self.count + 1
        self.targets.add(Path(path).relative_to(self.run_dir).as_posix())
        if k == self.before:
            raise InjectedCrash(f"before mutation {k}, of {path}")
        return k

    @contextmanager
    def installed(self):
        real_open, real_replace, real_unlink = data_io._open_output, os.replace, Path.unlink

        @contextmanager
        def open_output(path, mode, *args):
            k = self._mutation(path)
            self.writes.append(k)
            if k != self.half:
                with real_open(path, mode, *args) as fh:
                    yield fh
            else:
                fh = HalfWritten(real_open(path, mode, *args))
                yield fh
                fh.close()

        def replace(src, dst):
            self._mutation(dst)
            real_replace(src, dst)

        def unlink(path, missing_ok=False):
            self._mutation(path)
            real_unlink(path, missing_ok)

        with pytest.MonkeyPatch.context() as m:
            for module in (data_io, orchestrator):
                m.setattr(module, "_open_output", open_output)
            m.setattr(os, "replace", replace)
            m.setattr(Path, "unlink", unlink)
            yield self


def run_files(run_dir):
    """{path under ``run_dir``: bytes} of each file but events.log and LOCK, which a crash may leave different."""
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in run_dir.rglob("*")
            if p.is_file() and p.name not in ("events.log", "LOCK")}


class TestCrashSweep:
    """A crash before any file mutation, or half-way through any write, then a resume: ``init_run`` again if
    ``state/iter_0.json`` is missing, then ``run_loop``. Each case ends with an unbroken run's files."""

    @staticmethod
    def run(run_dir, world, config):
        if not state_path(run_dir, 0).exists():
            init_run(world.manifest, config, run_dir, world.ground_truth())
        run_loop(run_dir, SimulatorDetectorAdapter(world, run_dir))

    def test_every_crash_resumes_to_the_unbroken_run(self, tmp_path):
        world, config = small_world(), small_config()
        with Mutations(tmp_path / "unbroken").installed() as unbroken:
            self.run(tmp_path / "unbroken", world, config)
        expected = run_files(tmp_path / "unbroken")
        assert expected.keys() <= unbroken.targets  # init_run's files too: no write bypasses the sweep
        cases = [("before", k) for k in range(unbroken.count)] + [("half", k) for k in unbroken.writes]
        for kind, k in cases:
            run_dir = tmp_path / f"{kind}_{k}"
            with Mutations(run_dir, **{kind: k}).installed(), pytest.raises(InjectedCrash):
                self.run(run_dir, world, config)
            self.run(run_dir, world, config)
            got = run_files(run_dir)
            differing = sorted(name for name in expected.keys() | got.keys() if got.get(name) != expected.get(name))
            assert not differing, (kind, k, differing)
            assert not list(run_dir.rglob("*.tmp")), (kind, k)
            shutil.rmtree(run_dir)


# holds the run lock on the directory argv[1] until killed
LOCK_HOLDER = """import sys, time
from pathlib import Path
from boxal.orchestrator import run_lock
with run_lock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(60)
"""


class TestRunLock:
    def test_lock_is_exclusive(self, tmp_path):
        run_dir = tmp_path
        with run_lock(run_dir):
            with pytest.raises(BoxalError, match="locked"):
                with run_lock(run_dir):
                    pass
        # released on exit
        with run_lock(run_dir):
            pass

    def test_a_killed_owner_releases_the_lock(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        holder = subprocess.Popen([sys.executable, "-c", LOCK_HOLDER, str(tmp_path)],
                                  stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert holder.stdout.readline() == "locked\n"
            assert (tmp_path / "LOCK").read_text() == f"{holder.pid} {socket.gethostname()}\n"
            with pytest.raises(BoxalError, match="locked by another process"):
                with run_lock(tmp_path):
                    pass
            holder.kill()
            holder.wait()
            with run_lock(tmp_path):  # nothing cleaned up in between
                assert (tmp_path / "LOCK").read_text() == f"{os.getpid()} {socket.gethostname()}\n"
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()

    def test_dead_owner_is_replaced(self, tmp_path):
        (tmp_path / "LOCK").write_text(f"{dead_pid()} {socket.gethostname()}\n")
        with run_lock(tmp_path):
            assert (tmp_path / "LOCK").read_text() == f"{os.getpid()} {socket.gethostname()}\n"
        assert (tmp_path / "LOCK").read_text() == ""  # emptied on release, not unlinked

    # only the kernel lock counts: the text a killed owner left behind, whatever it says, does not block
    @pytest.mark.parametrize("owner", [
        f"{os.getpid()} {socket.gethostname()}",  # a reused pid: in a restarted container, PID 1 is ours
        f"{os.getpid()} not-{socket.gethostname()}",  # another host, and longer than our text
        "",  # killed before its text was written
    ], ids=lambda owner: owner.replace(str(os.getpid()), "pid").replace(socket.gethostname(), "host"))
    def test_leftover_owner_text_does_not_block(self, tmp_path, owner):
        (tmp_path / "LOCK").write_text(owner)
        with run_lock(tmp_path):
            assert (tmp_path / "LOCK").read_text() == f"{os.getpid()} {socket.gethostname()}\n"
        assert (tmp_path / "LOCK").read_text() == ""

    def test_a_file_system_without_locks_is_named(self, tmp_path, monkeypatch):
        def no_locks(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(fcntl, "flock", no_locks)
        with pytest.raises(BoxalError, match=re.escape(f"{tmp_path / 'LOCK'}: cannot lock: ")):
            with run_lock(tmp_path):
                pass


def adapter_peak(adapter, request_dir, image_ids, n=15):
    """The tracemalloc peak, in bytes, of the adapter answering one iteration-0 request for ``image_ids``."""
    request = {"iteration": 0, "image_ids": list(image_ids), "passes": n, "pass_seed": 5,
               "confidence": 0.5, "nms_iou": 0.3}
    path = request_dir / f"request_{len(image_ids)}.json"
    path.write_text(json.dumps(request))
    tracemalloc.start()
    try:
        adapter.fulfill_detection_request(path, request_dir / f"out_{len(image_ids)}.jsonl")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestRequestMemory:
    """One request's detections in memory at a time."""

    def test_the_adapter_holds_one_image_at_a_time(self, tmp_path):
        # the simulate-run reference's scenes: 10 categories, 1 to 4 objects, 15 passes
        world = generate_world(seed=0, image_count=400, kappa=10, initial_training=8, validation=1, test=1)
        (tmp_path / "trainset_iter_0.txt").write_text("".join(f"{i}\n" for i in world.manifest.initial_training))
        adapter, ids, n = SimulatorDetectorAdapter(world, tmp_path), world.manifest.pool, 90
        adapter_peak(adapter, tmp_path, ids[:5])  # first-call allocations are not the request's
        small = adapter_peak(adapter, tmp_path, ids[:n])
        large = adapter_peak(adapter, tmp_path, ids[:4 * n])
        # a request held whole until its write grows the peak by about 5 KB per image; its seed words take 480 B
        assert (large - small) / (3 * n) < 1500

    def test_the_pool_request_is_freed_before_the_test_request_is_asked(self, tmp_path, monkeypatch):
        run_dir, _, world = start_run(tmp_path)
        batches, load = {}, orchestrator.load_image_passes

        def load_keeping_refs(path, *args, **kwargs):
            images = load(path, *args, **kwargs)
            batches[Path(path).name] = weakref.ref(images[0].batch)
            return images

        pool_alive = {}

        class CheckingAdapter(SimulatorDetectorAdapter):
            def fulfill_detection_request(self, request_path, output_path):
                pool = output_path.name.replace("_test", "_pool")
                if output_path.name.endswith("_test.jsonl") and pool in batches:
                    pool_alive[pool] = batches[pool]() is not None
                super().fulfill_detection_request(request_path, output_path)

        monkeypatch.setattr(orchestrator, "load_image_passes", load_keeping_refs)
        gc.disable()  # a reference cycle would keep the batch until a collection
        try:
            run_loop(run_dir, CheckingAdapter(world, run_dir), 2)
        finally:
            gc.enable()
        # iteration 2's test request is the final evaluation, which reads no pool request
        assert pool_alive == {"iter_0_pool.jsonl": False, "iter_1_pool.jsonl": False}


class TestFileWaitAdapter:
    def test_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "POLL_SECONDS", 0.01)
        adapter = FileWaitAdapter(timeout=0.05)
        with pytest.raises(AdapterError, match="timed out"):
            adapter.fulfill_detection_request(tmp_path / "req.json", tmp_path / "out.jsonl")

    def test_satisfied_by_sentinel(self, tmp_path):
        out = tmp_path / "out.jsonl"
        Path(str(out) + ".done").touch()
        FileWaitAdapter(timeout=0.5).fulfill_detection_request(tmp_path / "req.json", out)


class TestCompareSampledVsRemaining:
    """The pool F1 split into sampled and remaining, compared by ``ttest_two_sided``."""

    def test_identical_distributions(self):
        r = ttest_two_sided([0.5] * 4, [0.5] * 6)
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_degenerate_separation(self):
        r = ttest_two_sided([0.0] * 5, [1.0] * 5)
        assert r.p_value == 0.0
        assert r.statistic == -float("inf")

    def test_null_hypothesis_sanity(self):
        # sampled and remaining drawn from the same distribution: p should
        # exceed 0.05 in at least 90% of 50 null runs
        rng = np.random.Generator(np.random.PCG64(123))
        calm = 0
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, size=60)
            sampled = set(rng.choice(60, size=15, replace=False).tolist())
            x = [float(v) for i, v in enumerate(values) if i in sampled]
            y = [float(v) for i, v in enumerate(values) if i not in sampled]
            if ttest_two_sided(x, y).p_value > 0.05:
                calm += 1
        assert calm >= 45
