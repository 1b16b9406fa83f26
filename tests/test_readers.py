"""Every reader of outside data lets only BoxalError out, naming the file (and line).

Each reader gets a valid input, then inputs mutated from it: a value
replaced by NaN, infinity, a wrong type or a non-object, a key or element
deleted, a record or id duplicated, a score vector lengthened (wrong kappa);
a reader given a path that does not exist must name it too.
The probes of ``PROBES`` are fixed mutations that earlier versions let
through or crashed on; the CLI commands that read them must exit 2.
"""

import copy
import csv
import json
import math
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxal.cli import _read_column, _read_ranking, main
from boxal.data_io import (
    load_ground_truth,
    load_id_list,
    load_image_passes,
    load_manifest,
    save_ground_truth,
    save_manifest,
)
from boxal.errors import BoxalError, FormatError, ValidationError
from boxal.evaluation import load_predictions
from boxal.orchestrator import RunConfig, SimulatorDetectorAdapter, load_config, load_state
from boxal.simulator import generate_world, load_world, save_world

DET = {"bbox": [1.0, 2.0, 11.0, 12.0], "scores": [0.7, 0.3]}
VALID = {
    "detections": [
        {"image_id": "x1", "width": 50, "height": 40, "passes": [[DET], []]},
        {"image_id": "x2", "width": 50, "height": 40, "passes": [[DET], [DET]]},
    ],
    "ground_truth": [
        {"image_id": "x1", "objects": [{"bbox": [1, 2, 11, 12], "category": 0}]},
        {"image_id": "x2", "objects": [{"bbox": [5, 5, 25, 30], "category": 1}]},
    ],
    "predictions": [
        {"image_id": "x1", "predictions": [{"bbox": [1, 2, 11, 12], "category": 0, "score": 0.9}]},
        {"image_id": "x2", "predictions": [{"bbox": [5, 5, 25, 30], "category": 1, "score": 0.8}]},
    ],
    "manifest": {"categories": ["cat_a", "cat_b"], "initial_training": ["t1"], "pool": ["p1", "p2"],
                 "validation": [], "test": ["x1", "x2"]},
    "config": RunConfig().to_dict(),
    "ranking": [["image_id", "c_min", "set_count"], ["p1", "0.25", "2"], ["p2", "0.5", "1"]],
    "column": [["f1"], ["0.5"], ["0.6"], ["0.7"], ["0.9"]],
    "pool": ["p1", "p2", "p3"],
    "state": {
        "iteration": 1,
        "record": {
            "sampled": [["p1", 0.25]],
            "metrics": {"iteration": 0, "train_size": 1, "map": 0.5, "mean_f1_sampled": 0.5,
                        "mean_f1_remaining": 0.75, "t_statistic": None, "p_value": None,
                        "mean_cmin_sampled": 0.25},
            "f1_sampled": [0.5],
            "f1_remaining": [0.75],
        },
    },
}
SKILL_WORLD = generate_world(seed=1, image_count=6, kappa=2, initial_training=1, validation=1, test=1)
# a training set of SKILL_WORLD, as trainset_iter_N.txt holds it
VALID["trainset"] = [*SKILL_WORLD.manifest.initial_training, *SKILL_WORLD.manifest.pool]
# a world file in the layout earlier versions wrote: the world's own copy of the run's files
OLD_WORLD = {"seed": 1, "categories": ["cat_00", "cat_01"], "manifest": {}, "images": []}


def _world_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("world") / "world.json"
    save_world(SKILL_WORLD, path)
    return json.loads(path.read_text())


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _write_json(path, doc):
    path.write_text(json.dumps(doc))


def _write_state(path, doc):
    """``doc`` as state/iter_1.json of a one-iteration run: the manifest, state/iter_0.json and the exports of
    T_0 and T_1, ``trainset_iter_1.txt`` listing t1 and then the ids that ``doc`` samples, so that only ``doc``
    can be at fault."""
    run_dir = path.parent.parent
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, doc)
    _write_json(run_dir / "state" / "iter_0.json", {"iteration": 0})
    _write_json(run_dir / "manifest.json", VALID["manifest"])
    _write_lines(run_dir / "trainset_iter_0.txt", ["t1"])
    try:
        sampled = [pair[0] for pair in doc["record"]["sampled"]]
    except (KeyError, IndexError, TypeError):  # a mutated doc without [image_id, c_min] pairs
        sampled = []
    _write_lines(run_dir / "trainset_iter_1.txt", ["t1", *sampled])


def _write_world(path, doc):
    """``doc`` as world.json, beside the manifest.json and ground_truth.jsonl of ``SKILL_WORLD``."""
    _write_json(path, doc)
    save_manifest(SKILL_WORLD.manifest, path.parent / "manifest.json")
    save_ground_truth(SKILL_WORLD.ground_truth(), path.parent / "ground_truth.jsonl")


def _write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


# name -> (file name, writer, reader, whether errors name a line)
READERS = {
    "detections": ("d.jsonl", _write_jsonl, lambda p: load_image_passes(p, 2, 2), True),
    "ground_truth": ("gt.jsonl", _write_jsonl, lambda p: load_ground_truth(p, kappa=2), True),
    "predictions": ("preds.jsonl", _write_jsonl, lambda p: load_predictions(p, kappa=2), True),
    "manifest": ("manifest.json", _write_json, load_manifest, False),
    "world": ("world.json", _write_world, lambda p: load_world(p.parent), False),
    "config": ("config.json", _write_json, lambda p: load_config(p.parent), False),
    "ranking": ("ranking.csv", _write_csv, _read_ranking, True),
    "column": ("column.csv", _write_csv, _read_column, True),
    "pool": ("pool.txt", _write_lines, load_id_list, True),
    "state": ("state/iter_1.json", _write_state, lambda p: load_state(p.parent.parent, 1), False),
    "trainset": ("trainset_iter_1.txt", _write_lines,
                 lambda p: SimulatorDetectorAdapter(SKILL_WORLD, p.parent).skill(1), True),
}
JUNK = [math.nan, math.inf, -math.inf, None, True, False, 0, -3, 1.5, 50.7, 10**30, 10**400,
        "", "abc", "15", [], [1], {}, {"x": 1}]
CSV_JUNK = ["nan", "inf", "-1", "2", "1e999", "", "abc", "0.5"]
DELETE = object()


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


def _mutated(doc, path, action, junk):
    """A copy of ``doc`` with the value at ``path`` replaced, deleted or duplicated."""
    doc = json.loads(json.dumps(doc))  # a copy in which the records share no DET dict
    if not path:
        return junk
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action is DELETE:
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = junk
    return doc


def _check(name, path, doc):
    """Read ``doc`` written to ``path``; any error must be a BoxalError that locates itself."""
    _, write, read, by_line = READERS[name]
    write(path, doc)
    try:
        read(path)
    except BoxalError as exc:
        message = str(exc)
        assert re.match(re.escape(str(path)) + (r":\d+: " if by_line else ": "), message), message
        return message
    return None


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    return dict(VALID, world=_world_doc(tmp_path_factory))


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_input_reads(name, valid, tmp_path):
    assert _check(name, tmp_path / READERS[name][0], valid[name]) is None


@pytest.mark.parametrize("name", sorted(READERS))
def test_missing_file_is_named(name, tmp_path):
    target = tmp_path / READERS[name][0]
    with pytest.raises(BoxalError) as excinfo:
        READERS[name][2](target)
    assert str(excinfo.value).startswith(f"{target}: "), excinfo.value


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_raises_only_boxal_errors(name, valid, tmp_path_factory, data):
    doc = valid[name]
    is_csv = name in ("ranking", "column")
    # a JSONL or CSV file stays a list of records or rows; a CSV row or cell is what changes
    paths = [p for p in _paths(doc) if (p or not READERS[name][3]) and not (is_csv and len(p) > 2)]
    path = data.draw(st.sampled_from(paths), label="path")
    action = data.draw(st.sampled_from(["replace", "duplicate", DELETE]) if path else st.just("replace"))
    junk = data.draw(st.sampled_from(CSV_JUNK if is_csv else JUNK))
    if is_csv and len(path) == 1 and action == "replace":
        junk = [junk]  # a row is a list of cells
    target = tmp_path_factory.mktemp(name) / READERS[name][0]
    message = _check(name, target, _mutated(doc, path, action, junk))
    if name == "detections" and message is not None:
        # the mutated record's line, or the copy's line after a duplicated record
        line = path[0] + 1 + (action == "duplicate" and len(path) == 1)
        assert message.startswith(f"{target}:{line}: "), message


# (reader, path into the valid input, new value or DELETE)
PROBES = [
    ("detections", (1, "width"), "abc"),
    ("detections", (1, "passes"), 5),
    ("detections", (1, "image_id"), [1]),
    ("detections", (1, "passes", 0, 0), "x"),
    ("detections", (1, "width"), 50.7),
    ("detections", (1, "width"), True),
    ("detections", (1, "passes", 1, 0, "scores"), [0.7, 0.3, 0.0]),
    ("detections", (1, "passes", 1, 0, "scores"), [math.nan, math.nan]),
    ("detections", (1, "image_id"), "x1"),
    ("detections", (1, "passes", 1), [DET] * 101),  # one more than MAX_DETECTIONS_PER_IMAGE
    ("ground_truth", (1, "objects", 0), "x"),
    ("ground_truth", (1, "objects"), 3),
    ("ground_truth", (1, "objects", 0, "category"), True),
    ("ground_truth", (1, "objects", 0, "category"), 2),
    ("manifest", ("pool",), 5),
    ("manifest", (), ["a"]),
    ("manifest", ("categories",), "ab"),
    ("manifest", ("pool",), ["x1"]),
    # ids that a line of trainset_iter_N.txt cannot hold
    ("manifest", ("pool", 0), " p1"),
    ("manifest", ("initial_training", 0), ""),
    ("manifest", ("pool", 1), "p2\n"),
    ("manifest", ("test", 0), "\ud800"),
    ("predictions", (1, "predictions", 0, "bbox"), DELETE),
    ("predictions", (1, "predictions", 0, "category"), "x"),
    ("predictions", (1, "predictions", 0, "category"), -3),
    ("predictions", (1, "predictions", 0, "score"), math.inf),
    ("predictions", (1, "predictions", 0, "category"), 7),
    ("world", ("difficulty", "img_00003"), 1.5),
    ("world", ("difficulty", "img_00000"), DELETE),
    ("world", (), OLD_WORLD),
    ("config", ("passes_n",), "15"),
    ("config", ("passes_n",), 15.5),
    ("config", ("seed",), "x"),
    ("config", ("batch_size",), True),
    ("config", ("nms_iou",), math.nan),
    ("ranking", (0, 1), "score"),
    ("ranking", (1, 1), "nan"),
    ("column", (2, 0), "abc"),
    ("pool", (2,), "p1"),
    ("state", ("record", "metrics"), DELETE),
    ("state", ("record", "metrics", "map"), "0.5"),
    ("state", ("record", "sampled", 0), ["p1"]),
    ("state", ("record", "f1_remaining", 0), None),
    ("state", ("iteration",), 7),
    ("state", ("record", "sampled", 0, 0), "x1"),  # a test image
    ("state", ("record", "sampled", 0, 0), "t1"),  # already in T
    ("state", ("record", "sampled"), [["p1", 0.25], ["p1", 0.5]]),  # sampled twice
    ("trainset", (1,), "img_99999"),
    ("trainset", (1,), VALID["trainset"][0]),
    ("trainset", (1,), SKILL_WORLD.manifest.test[0]),
]


def _probe_id(probe):
    return f"{probe[0]}-{'-'.join(map(str, probe[1]))}"


def _probe(probe, valid, tmp_path):
    name, path, value = probe
    action = DELETE if value is DELETE else "replace"
    target = tmp_path / READERS[name][0]
    message = _check(name, target, _mutated(valid[name], path, action, value))
    assert message is not None, f"{name} accepted {value!r} at {path}"
    if READERS[name][3]:
        assert message.startswith(f"{target}:{path[0] + 1}: "), message
    return target


@pytest.mark.parametrize("probe", PROBES, ids=_probe_id)
def test_probe_rejected_with_location(probe, valid, tmp_path):
    _probe(probe, valid, tmp_path)


def _cli(tmp_path, valid, name, target):
    """The command that reads the probed file, with valid files for its other inputs."""
    files = {}
    for other in ("manifest", "ground_truth", "predictions", "column"):
        files[other] = tmp_path / f"valid_{READERS[other][0]}"
        READERS[other][1](files[other], valid[other])
    files[name] = target
    if name in ("manifest", "ground_truth", "predictions"):
        return ["evaluate", "--predictions", files["predictions"],
                "--ground-truth", files["ground_truth"], "--manifest", files["manifest"]]
    if name == "ranking":
        return ["sample", "--strategy", "min_certainty", "--ranking", target, "--n", 1]
    if name == "column":
        return ["ttest", target, files["column"]]
    if name == "pool":
        return ["sample", "--strategy", "random", "--pool", target, "--n", 1]
    if name == "state":
        return ["loop", "--run", target.parent.parent, "--adapter", "file"]
    if name == "world":
        return ["loop", "--run", target.parent]
    return ["init", "--manifest", files["manifest"], "--config", target, "--out", tmp_path / "run"]


CLI_PROBES = [p for p in PROBES if p[0] not in ("detections", "trainset")]


@pytest.mark.parametrize("probe", CLI_PROBES, ids=_probe_id)
def test_cli_exits_2_on_probe(probe, valid, tmp_path, capsys):
    target = _probe(probe, valid, tmp_path)
    capsys.readouterr()
    assert main([str(a) for a in _cli(tmp_path, valid, probe[0], target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err, err


@pytest.mark.parametrize("name", ["manifest", "ranking", "column", "config", "pool"])
def test_cli_accepts_valid_input(name, valid, tmp_path):
    target = tmp_path / READERS[name][0]
    READERS[name][1](target, valid[name])
    assert main([str(a) for a in _cli(tmp_path, valid, name, target)]) == 0


@pytest.mark.parametrize("name", ["pool", "trainset"])
def test_id_list_line_that_is_not_utf8_is_named(name, valid, tmp_path):
    target = tmp_path / READERS[name][0]
    target.write_bytes(f"{valid[name][0]}\n".encode() + b"\xff\n")
    with pytest.raises(FormatError) as excinfo:
        READERS[name][2](target)
    assert str(excinfo.value).startswith(f"{target}:2: not UTF-8"), excinfo.value


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    """A finished one-iteration simulate-run on a 2-category world."""
    run_dir = tmp_path_factory.mktemp("sim") / "run"
    assert main([str(a) for a in [
        "simulate-run", "--out", run_dir, "--images", 30, "--categories", 2, "--initial-training", 5,
        "--validation", 2, "--test", 4, "--passes-n", 3, "--batch-size", 5, "--iterations", 1,
    ]]) == 0
    return run_dir


def _loop_again(sim_run, tmp_path, trainset=None):
    """``boxal loop --iterations 0`` on a copy of ``sim_run`` whose final test request lost its ``.done``.

    Given ``trainset``, the copy's last training-set file holds those lines.
    """
    run_dir = shutil.copytree(sim_run, tmp_path / "run")
    (run_dir / "detections" / "iter_1_test.jsonl.done").unlink()
    if trainset is not None:
        _write_lines(run_dir / READERS["trainset"][0], trainset)
    return main(["loop", "--run", str(run_dir), "--iterations", "0"]), run_dir


def test_simulator_counts_its_skill_from_the_training_set_file(sim_run, tmp_path):
    assert not (sim_run / "sim").exists()
    code, run_dir = _loop_again(sim_run, tmp_path)
    assert code == 0
    for name in ("detections/iter_1_test.jsonl", "log.csv"):
        assert (run_dir / name).read_bytes() == (sim_run / name).read_bytes(), name


@pytest.mark.parametrize("fault", ["unknown", "duplicate", "test"])
def test_cli_loop_exits_2_on_a_bad_training_set_file(fault, sim_run, tmp_path, capsys):
    # a test image would train the detector whose test mAP the loop reports
    ids = (sim_run / READERS["trainset"][0]).read_text().split()
    ids[1] = {"unknown": "img_99999", "duplicate": ids[0],
              "test": load_manifest(sim_run / "manifest.json").test[0]}[fault]
    code, run_dir = _loop_again(sim_run, tmp_path, ids)
    trainset = run_dir / READERS["trainset"][0]
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {trainset}:2: "), err
    # the file adapter does not read the training set, but resuming the run does
    flags = ["--adapter", "file", "--adapter-timeout", "0"]
    assert main(["loop", "--run", str(run_dir), "--iterations", "0", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trainset}:2: "), err
    with pytest.raises(ValidationError) as excinfo:
        load_state(run_dir)
    assert str(excinfo.value).startswith(f"{trainset}:2: "), excinfo.value


@pytest.mark.parametrize("case", ["requests", "detections", "rank", "sample", "evaluate-report", "evaluate-f1"])
def test_file_that_cannot_be_written_is_named(case, sim_run, valid, tmp_path, capsys):
    # the loop's requests/ or the simulator adapter's detections/ is gone, or an --out names a missing directory
    missing = tmp_path / "missing"
    if case in ("requests", "detections"):
        run_dir = shutil.copytree(sim_run, tmp_path / "run")
        shutil.rmtree(run_dir / case)
        target = run_dir / case / ("iter_1_pool.json" if case == "requests" else "iter_1_pool.jsonl")
        argv = ["loop", "--run", run_dir, "--iterations", 1]
    elif case == "rank":
        target = missing / "ranking.csv"
        argv = ["rank", "--detections", sim_run / "detections" / "iter_0_pool.jsonl",
                "--manifest", sim_run / "manifest.json", "--config", sim_run / "config.json", "--out", target]
    elif case == "sample":
        target = missing / "sample.txt"
        argv = ["sample", "--strategy", "random", "--pool", sim_run / "trainset_iter_1.txt", "--n", 1,
                "--out", target]
    else:
        predictions = tmp_path / READERS["predictions"][0]
        READERS["predictions"][1](predictions, valid["predictions"])
        target = missing / ("report.json" if case == "evaluate-report" else "f1.csv")
        argv = [*_cli(tmp_path, valid, "predictions", predictions),
                "--out-report" if case == "evaluate-report" else "--out-f1", target]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: cannot write: "), err


def test_events_log_that_cannot_be_appended_is_named(sim_run, tmp_path, capsys):
    # a directory in its place fails the append even for a user whom permissions do not stop
    run_dir = shutil.copytree(sim_run, tmp_path / "run")
    (run_dir / "events.log").unlink()
    (run_dir / "events.log").mkdir()
    assert main(["loop", "--run", str(run_dir), "--iterations", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir / 'events.log'}: cannot write: "), err


@pytest.mark.parametrize("name", ["iter_x.json", "iter_01.json", "iter_.json", "iter_2.bak.json"])
def test_stray_state_file_is_named(name, valid, tmp_path, capsys):
    # a copy or backup left beside the state files is not read as, or instead of, a state file
    run_dir = tmp_path / "run"
    _write_state(run_dir / READERS["state"][0], valid["state"])
    stray = run_dir / "state" / name
    shutil.copy(run_dir / READERS["state"][0], stray)
    with pytest.raises(FormatError) as excinfo:
        load_state(run_dir)
    assert str(excinfo.value).startswith(f"{stray}: "), excinfo.value
    assert main(["loop", "--run", str(run_dir), "--adapter", "file"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stray}: "), err


# (k, the lines of trainset_iter_k.txt after the edit, the first line that differs) in the state run, whose
# trainset_iter_0.txt lists t1 and trainset_iter_1.txt lists t1 and p1
EXPORT_EDITS = {
    "0-deleted": (0, [], 1),
    "0-added": (0, ["t1", "p2"], 2),
    "1-deleted": (1, ["p1"], 1),
    "1-swapped": (1, ["p1", "t1"], 1),
    "1-added": (1, ["t1", "p1", "p2"], 3),
}


@pytest.mark.parametrize("edit", sorted(EXPORT_EDITS))
def test_training_set_export_unlike_the_records_is_named(edit, valid, tmp_path, capsys):
    # T_k comes from the manifest and the records; its export must list it, line for line
    k, lines, line = EXPORT_EDITS[edit]
    run_dir = tmp_path / "run"
    _write_state(run_dir / READERS["state"][0], valid["state"])
    assert load_state(run_dir).training_ids == ("t1", "p1")
    export = run_dir / f"trainset_iter_{k}.txt"
    _write_lines(export, lines)
    with pytest.raises(ValidationError) as excinfo:
        load_state(run_dir)
    assert str(excinfo.value).startswith(f"{export}:{line}: "), excinfo.value
    assert main(["loop", "--run", str(run_dir), "--adapter", "file"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {export}:{line}: "), err


def test_cli_missing_file_exits_2(valid, tmp_path, capsys):
    target = tmp_path / "nofile.csv"
    assert main([str(a) for a in _cli(tmp_path, valid, "column", target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: "), err


@pytest.mark.parametrize("flags", [["--passes-n", "1"], ["--confidence", "nan"], ["--seed", "-1"]])
def test_cli_flag_out_of_range_exits_2(flags, valid, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    _write_json(manifest, valid["manifest"])
    assert main(["init", "--manifest", str(manifest), "--out", str(tmp_path / "run"), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
