import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from boxal.cli import main
from boxal.data_io import load_image_passes, load_manifest, save_ground_truth, save_manifest
from boxal.evaluation import consolidate
from boxal.grouping import group_passes
from boxal.orchestrator import _fmt, load_config, load_state
from boxal.simulator import generate_world, save_world


def run_cli(*argv):
    return main([str(a) for a in argv])


def simulate(tmp_path, name="run", expect=0, **overrides):
    args = [
        "simulate-run", "--out", tmp_path / name,
        "--images", 60, "--categories", 3,
        "--initial-training", 8, "--validation", 4, "--test", 8,
        "--passes-n", 5, "--batch-size", 10, "--iterations", 2, "--seed", 3,
    ]
    for flag, value in overrides.items():
        args += [f"--{flag}", value]
    assert run_cli(*args) == expect
    return tmp_path / name


def run_files(run_dir):
    """The bytes of a finished run's report, config, world and state files."""
    names = ["log.csv", "config.json", "world.json"]
    names += sorted(f"state/{f.name}" for f in (run_dir / "state").iterdir())
    return {name: (run_dir / name).read_bytes() for name in names}


class TestSimulateRun:
    def test_full_loop(self, tmp_path, capsys):
        run_dir = simulate(tmp_path)
        out = capsys.readouterr().out
        assert "simulate-run complete" in out
        state = load_state(run_dir)
        assert state.iteration == 2
        assert len(state.training_ids) == 28
        with open(run_dir / "log.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 3
        assert not list(run_dir.rglob("*.tmp"))  # every file was renamed into place

    def test_byte_identical_reports(self, tmp_path):
        a = simulate(tmp_path, name="a")
        b = simulate(tmp_path, name="b")
        assert (a / "log.csv").read_bytes() == (b / "log.csv").read_bytes()

    def test_directory_holding_a_run_is_refused(self, tmp_path, capsys):
        run_dir = simulate(tmp_path)
        before = run_files(run_dir)
        capsys.readouterr()
        simulate(tmp_path, expect=2, seed=4)
        assert capsys.readouterr().err.startswith(f"error: {run_dir} already holds a run")
        assert run_cli("init", "--manifest", run_dir / "manifest.json", "--out", run_dir) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert run_files(run_dir) == before

    def test_a_run_with_old_layout_state_files_resumes(self, tmp_path):
        # earlier versions also wrote T and P into each state file; those keys are ignored,
        # so not even a pool id that the manifest lacks reaches the detector
        whole = simulate(tmp_path, name="whole", iterations=3)
        run_dir = simulate(tmp_path)
        for k in (0, 1, 2):
            state, path = load_state(run_dir, k), run_dir / "state" / f"iter_{k}.json"
            old = {"iteration": k, "training_ids": list(state.training_ids),
                   "pool_ids": [*state.pool_ids, "bogus"]}
            if k:
                old["record"] = state.records[-1]
            path.write_text(json.dumps(old, indent=1) + "\n")
        assert run_cli("loop", "--run", run_dir, "--iterations", 1) == 0
        assert (run_dir / "log.csv").read_bytes() == (whole / "log.csv").read_bytes()

    @pytest.mark.parametrize("edit", ["deleted", "reordered"])
    def test_an_edited_training_set_export_is_named_and_the_report_kept(self, tmp_path, capsys, edit):
        # T_1 comes from the records, so an earlier iteration's export that no longer lists it is named
        run_dir = simulate(tmp_path)
        export = run_dir / "trainset_iter_1.txt"
        ids = export.read_text().split()
        if edit == "deleted":
            ids, line = ids[1:], 1
        else:  # the last two sampled images change places
            ids, line = [*ids[:-2], ids[-1], ids[-2]], len(ids) - 1
        export.write_text("".join(f"{i}\n" for i in ids))
        log = (run_dir / "log.csv").read_bytes()
        capsys.readouterr()
        assert run_cli("loop", "--run", run_dir, "--iterations", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {export}:{line}: "), err
        assert (run_dir / "log.csv").read_bytes() == log

    def test_a_stale_done_that_cannot_be_removed_is_named(self, tmp_path, capsys):
        # after a config edit the final test request differs, so its old .done must go; a directory cannot
        run_dir = simulate(tmp_path)
        done = run_dir / "detections" / "iter_2_test.jsonl.done"
        done.unlink()
        done.mkdir()
        config = json.loads((run_dir / "config.json").read_text())
        (run_dir / "config.json").write_text(json.dumps(dict(config, confidence=0.4)))
        capsys.readouterr()
        assert run_cli("loop", "--run", run_dir, "--iterations", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {done}: cannot remove: "), err

    def test_a_request_that_cannot_be_read_is_named(self, tmp_path, capsys):
        # the final test request is answered, so the loop reads it back to compare; a directory cannot be read
        run_dir = simulate(tmp_path)
        request = run_dir / "requests" / "iter_2_test.json"
        request.unlink()
        request.mkdir()
        capsys.readouterr()
        assert run_cli("loop", "--run", run_dir, "--iterations", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {request}: cannot open: "), err

    @staticmethod
    def criterion_8(run_dir):
        assert run_cli(
            "simulate-run", "--out", run_dir,
            "--images", 120, "--categories", 4,
            "--initial-training", 15, "--validation", 5, "--test", 15,
            "--passes-n", 5, "--batch-size", 20, "--iterations", 3, "--seed", 9,
        ) == 0
        return run_dir

    def test_criterion_8_log_digest_is_pinned(self, tmp_path):
        # the criterion-8 run; its log.csv must not change between versions
        run_dir = self.criterion_8(tmp_path / "c8")
        digest = hashlib.sha256((run_dir / "log.csv").read_bytes()).hexdigest()
        assert digest == "ded232a06095689721b36d081f92fdce127dfc81c7ec51b05dcc40f6ef688fd5"

    def test_criterion_8_state_files_identical(self, tmp_path):
        a = self.criterion_8(tmp_path / "a")
        b = self.criterion_8(tmp_path / "b")
        for i in (1, 2, 3):
            name = f"state/iter_{i}.json"
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def init_simulated(tmp_path, *flags):
    """``boxal init`` with ground truth, plus the simulator's world."""
    world = generate_world(seed=2, image_count=40, kappa=3,
                           initial_training=5, validation=3, test=4)
    manifest_path = tmp_path / "manifest.json"
    save_manifest(world.manifest, manifest_path)
    gt_path = tmp_path / "gt.jsonl"
    save_ground_truth(world.ground_truth(), gt_path)
    run_dir = tmp_path / "run"
    assert run_cli(
        "init", "--manifest", manifest_path, "--ground-truth", gt_path,
        "--out", run_dir, "--passes-n", 4, "--batch-size", 5, "--seed", 1, *flags,
    ) == 0
    save_world(world, run_dir / "world.json")
    return run_dir


class TestInitIterateLoop:
    def test_init_with_config_file_and_override(self, tmp_path, capsys):
        world = generate_world(seed=2, image_count=30, kappa=3,
                               initial_training=5, validation=3, test=4)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(world.manifest, manifest_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"passes_n": 4, "batch_size": 99}))
        run_dir = tmp_path / "run"
        assert run_cli(
            "init", "--manifest", manifest_path, "--config", config_path,
            "--batch-size", 6, "--out", run_dir,
        ) == 0
        assert "|T_0|=5" in capsys.readouterr().out
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved["passes_n"] == 4       # from the file
        assert saved["batch_size"] == 6     # flag overrides file

    def test_iterate_then_loop(self, tmp_path, capsys):
        run_dir = init_simulated(tmp_path)
        assert run_cli("iterate", "--run", run_dir) == 0
        assert "iteration 1" in capsys.readouterr().out
        with open(run_dir / "log.csv", newline="") as fh:  # iterate is loop --iterations 1
            assert [row["iteration"] for row in csv.DictReader(fh)] == ["0", "1"]
        assert run_cli("loop", "--run", run_dir, "--iterations", 1) == 0
        assert load_state(run_dir).iteration == 2

    def test_bare_loop_runs_to_the_configured_total(self, tmp_path):
        run_dir = init_simulated(tmp_path, "--iterations", 3)
        assert run_cli("iterate", "--run", run_dir) == 0
        assert run_cli("loop", "--run", run_dir) == 0
        assert load_state(run_dir).iteration == 3
        with open(run_dir / "log.csv", newline="") as fh:
            assert [row["iteration"] for row in csv.DictReader(fh)] == ["0", "1", "2", "3"]

    def test_loop_on_the_saved_world_continues_the_run(self, tmp_path):
        # `boxal loop` rebuilds the world from world.json, manifest.json and ground_truth.jsonl;
        # it must simulate what simulate-run's in-memory world does
        flags = ["--images", 300, "--categories", 4, "--passes-n", 5, "--batch-size", 20, "--seed", 3]
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert run_cli("simulate-run", "--out", whole, *flags, "--iterations", 3) == 0
        assert run_cli("simulate-run", "--out", split, *flags, "--iterations", 1) == 0
        assert run_cli("loop", "--run", split, "--iterations", 2) == 0
        assert (split / "log.csv").read_bytes() == (whole / "log.csv").read_bytes()

    def test_a_killed_iterate_resumes_to_the_same_report(self, tmp_path):
        # a file-adapter iterate waits on its first detection request; SIGKILLed there, it leaves
        # nothing that blocks the rerun, and the rerun reports what an unbroken loop does
        (tmp_path / "whole").mkdir()
        (tmp_path / "killed").mkdir()
        whole = init_simulated(tmp_path / "whole", "--iterations", 2)
        killed = init_simulated(tmp_path / "killed", "--iterations", 2)
        assert run_cli("loop", "--run", whole) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        iterate = [sys.executable, "-m", "boxal.cli", "iterate", "--run", str(killed),
                   "--adapter", "file", "--adapter-timeout", "60"]
        waiter = subprocess.Popen(iterate, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  start_new_session=True)
        try:
            deadline = time.monotonic() + 30.0
            while not (killed / "requests" / "iter_0_pool.json").exists():
                assert waiter.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            second = subprocess.run(iterate, env=env, capture_output=True, text=True)
            assert second.returncode == 2 and "locked" in second.stderr
            waiter.kill()
            waiter.wait()
            assert run_cli("loop", "--run", killed) == 0
        finally:
            waiter.kill()
            waiter.wait()
        assert (killed / "log.csv").read_bytes() == (whole / "log.csv").read_bytes()

    def test_missing_world_is_reported(self, tmp_path, capsys):
        world = generate_world(seed=2, image_count=30, kappa=3,
                               initial_training=5, validation=3, test=4)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(world.manifest, manifest_path)
        run_dir = tmp_path / "run"
        run_cli("init", "--manifest", manifest_path, "--out", run_dir)
        assert run_cli("iterate", "--run", run_dir) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_ground_truth_is_reported(self, tmp_path, capsys):
        world = generate_world(seed=2, image_count=30, kappa=3,
                               initial_training=5, validation=3, test=4)
        manifest_path = tmp_path / "manifest.json"
        save_manifest(world.manifest, manifest_path)
        run_dir = tmp_path / "run"
        assert run_cli("init", "--manifest", manifest_path, "--out", run_dir) == 0
        assert run_cli("iterate", "--run", run_dir, "--adapter", "file", "--adapter-timeout", 0.01) == 2
        assert capsys.readouterr().err.startswith(f"error: {run_dir / 'ground_truth.jsonl'}: ")


    def test_missing_run_directory_is_named(self, tmp_path, capsys):
        run_dir = tmp_path / "does-not-exist"
        for command in ("loop", "iterate"):
            assert run_cli(command, "--run", run_dir, "--adapter", "file", "--adapter-timeout", 0.01) == 2
            assert capsys.readouterr().err == f"error: {run_dir}: no such run directory\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize("command", ["init", "simulate-run", "loop"])
    def test_run_directory_that_is_a_file_is_named(self, tmp_path, capsys, command):
        world = generate_world(seed=2, image_count=30, kappa=3, initial_training=5, validation=3, test=4)
        save_manifest(world.manifest, tmp_path / "manifest.json")
        run_file = tmp_path / "run"
        run_file.write_text("not a run\n")
        argv = {
            "init": ["init", "--manifest", tmp_path / "manifest.json", "--out", run_file],
            "simulate-run": ["simulate-run", "--out", run_file, "--images", 30, "--categories", 3],
            "loop": ["loop", "--run", run_file, "--adapter", "file", "--adapter-timeout", 0.01],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {run_file}: not a directory\n"
        assert run_file.read_text() == "not a run\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["manifest.json", "run"]

    @pytest.mark.parametrize("command", ["init", "simulate-run"])
    @pytest.mark.parametrize("subdir", ["state", "requests", "detections"])
    def test_run_subdirectory_that_is_a_file_is_named(self, tmp_path, capsys, command, subdir):
        # every subdirectory is checked before the first is made, so nothing is written
        world = generate_world(seed=2, image_count=30, kappa=3, initial_training=5, validation=3, test=4)
        save_manifest(world.manifest, tmp_path / "manifest.json")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / subdir).write_text("not a directory\n")
        argv = {
            "init": ["init", "--manifest", tmp_path / "manifest.json", "--out", run_dir],
            "simulate-run": ["simulate-run", "--out", run_dir, "--images", 30, "--categories", 3],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {run_dir / subdir}: not a directory\n"
        assert [f.name for f in run_dir.iterdir()] == [subdir]
        assert (run_dir / subdir).read_text() == "not a directory\n"

    def test_run_directory_inside_a_file_is_named(self, tmp_path, capsys):
        world = generate_world(seed=2, image_count=30, kappa=3, initial_training=5, validation=3, test=4)
        save_manifest(world.manifest, tmp_path / "manifest.json")
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run_cli("init", "--manifest", tmp_path / "manifest.json", "--out", blocker / "run") == 2
        assert capsys.readouterr().err == f"error: {blocker}: not a directory\n"
        assert blocker.read_text() == "not a directory\n"

    def test_incomplete_ground_truth_writes_nothing(self, tmp_path, capsys):
        world = generate_world(seed=2, image_count=30, kappa=3,
                               initial_training=5, validation=3, test=4)
        manifest_path, gt_path = tmp_path / "manifest.json", tmp_path / "gt.jsonl"
        save_manifest(world.manifest, manifest_path)
        dropped = sorted(world.manifest.pool)[:3]
        save_ground_truth({i: g for i, g in world.ground_truth().items() if i not in dropped}, gt_path)
        run_dir = tmp_path / "run"
        assert run_cli("init", "--manifest", manifest_path, "--ground-truth", gt_path, "--out", run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ground truth missing for 3 manifest images") and dropped[0] in err, err
        assert not run_dir.exists()

    def test_nan_adapter_timeout_exits_2(self, tmp_path, capsys):
        # the timeout is checked before the run directory is opened, so a NaN never waits
        run_dir = tmp_path / "does-not-exist"
        assert run_cli("loop", "--run", run_dir, "--adapter", "file", "--adapter-timeout", "nan") == 2
        err = capsys.readouterr().err
        assert err == "error: adapter timeout must be >= 0 seconds, got nan\n", err

    def test_negative_partition_size_exits_2(self, tmp_path, capsys):
        for flag in ("initial-training", "test"):
            simulate(tmp_path, name=flag, expect=2, **{flag: -1})
            assert capsys.readouterr().err.startswith("error: partition sizes must be >= 0"), flag
            assert not (tmp_path / flag).exists()


class TestRankSampleEvaluateTtest:
    def test_rank_sample_round_trip(self, tmp_path):
        run_dir = simulate(tmp_path)
        manifest_path = run_dir / "manifest.json"
        ranking_path = tmp_path / "ranking.csv"
        assert run_cli(
            "rank", "--detections", run_dir / "detections" / "iter_0_pool.jsonl",
            "--manifest", manifest_path, "--passes-n", 5, "--out", ranking_path,
        ) == 0
        with open(ranking_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        cmins = [float(r["c_min"]) for r in rows]
        assert cmins == sorted(cmins)
        assert set(rows[0]) == {"image_id", "c_min", "set_count", "min_c_sem", "min_c_spa", "min_c_occ"}

        chosen_path = tmp_path / "chosen.txt"
        assert run_cli(
            "sample", "--strategy", "min_certainty", "--ranking", ranking_path,
            "--n", 5, "--out", chosen_path,
        ) == 0
        chosen = chosen_path.read_text().split()
        assert chosen == [r["image_id"] for r in rows[:5]]

        pool_path = tmp_path / "pool.txt"
        pool_path.write_text("".join(r["image_id"] + "\n" for r in rows))
        random_path = tmp_path / "random.txt"
        assert run_cli(
            "sample", "--strategy", "random", "--pool", pool_path,
            "--n", 5, "--seed", 7, "--iteration", 1, "--out", random_path,
        ) == 0
        picked = random_path.read_text().split()
        assert len(picked) == 5
        assert set(picked) <= {r["image_id"] for r in rows}

    def test_sample_requires_matching_input(self, tmp_path, capsys):
        assert run_cli("sample", "--strategy", "min_certainty", "--n", 3) == 2
        assert "ranking" in capsys.readouterr().err

    def test_negative_sample_size_exits_2(self, tmp_path, capsys):
        ranking_path = tmp_path / "ranking.csv"
        ranking_path.write_text("image_id,c_min\na,0.1\nb,0.2\nc,0.3\n")
        pool_path = tmp_path / "pool.txt"
        pool_path.write_text("a\nb\nc\n")
        for flags in (["--ranking", ranking_path], ["--strategy", "random", "--pool", pool_path]):
            assert run_cli("sample", *flags, "--n", -1) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: cannot sample -1 images"), err

    def test_negative_iterations_exits_2(self, tmp_path, capsys):
        run_dir = simulate(tmp_path)
        written = [run_dir / "log.csv", *sorted((run_dir / "requests").iterdir())]
        before = {path: path.read_bytes() for path in written}
        capsys.readouterr()
        assert run_cli("loop", "--run", run_dir, "--iterations", -1) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot run -1 iterations"), err
        assert sorted((run_dir / "requests").iterdir()) == written[1:]
        assert {path: path.read_bytes() for path in written} == before

    def test_pool_too_small_for_every_iteration_exits_2_before_any_request(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(
            "simulate-run", "--out", run_dir, "--images", 100, "--batch-size", 30,
            "--iterations", 5, "--passes-n", 3,
        ) == 2
        pool = len(load_state(run_dir, 0).pool_ids)
        err = capsys.readouterr().err
        assert err.startswith(f"error: pool has {pool} images, cannot sample 150 (5 iterations of 30)"), err
        assert sorted(p.name for p in (run_dir / "state").iterdir()) == ["iter_0.json"]
        assert list((run_dir / "requests").iterdir()) == []
        assert not (run_dir / "log.csv").exists()

    def test_rank_scores_as_the_loop_samples(self, tmp_path):
        # boxal rank and the loop share one scoring path: ranking iteration 0's detections
        # with the run's config and keeping the pool images gives the loop's sampled batch
        run_dir = simulate(tmp_path)
        ranking_path = tmp_path / "ranking.csv"
        assert run_cli(
            "rank", "--detections", run_dir / "detections" / "iter_0_pool.jsonl",
            "--manifest", run_dir / "manifest.json", "--config", run_dir / "config.json",
            "--out", ranking_path,
        ) == 0
        pool = set(load_state(run_dir, 0).pool_ids)
        with open(ranking_path, newline="") as fh:
            ranked = [(r["image_id"], r["c_min"]) for r in csv.DictReader(fh) if r["image_id"] in pool]
        config = load_config(run_dir)
        sampled = load_state(run_dir, 1).records[0]["sampled"]
        assert len(sampled) == config.batch_size
        assert ranked[: config.batch_size] == [(image_id, _fmt(c_min)) for image_id, c_min in sampled]

    def test_evaluate(self, tmp_path):
        run_dir = simulate(tmp_path)
        manifest = load_manifest(run_dir / "manifest.json")
        detections = load_image_passes(run_dir / "detections" / "iter_2_test.jsonl")
        preds_path = tmp_path / "preds.jsonl"
        with open(preds_path, "w", encoding="utf-8") as fh:
            for img in detections:
                if img.image_id in manifest.test:
                    records = [{"bbox": list(p.box.as_tuple()), "category": p.category, "score": p.score}
                               for p in consolidate(group_passes(img))]
                    fh.write(json.dumps({"image_id": img.image_id, "predictions": records}) + "\n")
        report_path = tmp_path / "report.json"
        f1_path = tmp_path / "f1.csv"
        assert run_cli(
            "evaluate", "--predictions", preds_path,
            "--ground-truth", run_dir / "ground_truth.jsonl",
            "--manifest", run_dir / "manifest.json",
            "--out-report", report_path, "--out-f1", f1_path,
        ) == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["map"] <= 1.0
        assert set(report["per_category_ap"]) <= set(manifest.catalog.names)
        with open(f1_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(0.0 <= float(r["f1"]) <= 1.0 for r in rows)

    def test_evaluate_rejects_an_image_the_ground_truth_lacks(self, tmp_path, capsys):
        run_dir = simulate(tmp_path)
        image_id = load_manifest(run_dir / "manifest.json").test[0]
        preds_path = tmp_path / "preds.jsonl"
        prediction = {"bbox": [1, 1, 5, 5], "category": 0, "score": 0.9}
        with open(preds_path, "w", encoding="utf-8") as fh:
            for name in (image_id, image_id + "_typo"):
                fh.write(json.dumps({"image_id": name, "predictions": [prediction]}) + "\n")
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--predictions", preds_path,
            "--ground-truth", run_dir / "ground_truth.jsonl", "--manifest", run_dir / "manifest.json",
        ) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {preds_path}: image '{image_id}_typo' "), err

    def test_ttest(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        x.write_text("value\n1\n2\n3\n4\n5\n")
        y.write_text("value\n2\n3\n4\n5\n6\n")
        assert run_cli("ttest", x, y) == 0
        out = capsys.readouterr().out
        assert "t=-1" in out
        assert "df=8" in out
        assert "p=0.346593507" in out
