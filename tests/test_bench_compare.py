"""``scripts/bench_compare.py`` writes its report when a workload has no pair both sides measured,
and refuses two checkouts that hold different benchmark code."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {
    "run_seconds": 1,
    "workloads": [{"name": "steady"}, {"name": "broken"}],
    "end_to_end": [{"name": "loop_s", "better": "lower"}, {"name": "images_per_s", "better": "higher"}],
}


def untraced(workload, pair, side, loop_s=None):
    """One untraced run; without ``loop_s`` it is a run that failed before measuring the loop."""
    run = {"kind": "untraced", "workload": workload, "pair": pair, "side": side}
    if loop_s is None:
        return {**run, "correct": False, "error": "Traceback ..."}
    return {**run, "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"loop_s": loop_s, "images_per_s": 100.0 / loop_s}}


def test_a_workload_failed_on_one_side_reports_no_pairs():
    runs = [
        untraced("steady", 0, "parent", 2.0), untraced("steady", 0, "change", 1.0),
        untraced("steady", 1, "change", 3.0), untraced("steady", 1, "parent", 4.0),
        untraced("broken", 0, "parent", 2.0), untraced("broken", 0, "change"),
        untraced("broken", 1, "change"), untraced("broken", 1, "parent", 4.0),
    ]
    doc = load_script().report(runs, SPEC)
    broken = doc["workloads"]["broken"]
    assert broken["correct"] == {"parent": [True, True], "change": [False, False]}
    for name in ("loop_s", "images_per_s"):
        assert broken["end_to_end"][name] == {"parent": None, "change": None, "change_wins": 0, "pairs": 0}
    steady = doc["workloads"]["steady"]["end_to_end"]["loop_s"]
    assert steady["pairs"] == 2 and steady["change_wins"] == 2
    assert steady["parent"]["runs"] == [2.0, 4.0] and steady["change"]["median"] == 2.0


def checkout(root, files):
    """A checkout holding ``files``, {relative path: text}."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH_FILES = {"BENCHMARK.json": "{}", "bench/run.py": "run", "bench/workloads.py": "workloads"}


@pytest.mark.parametrize("changed, name", [
    ({"bench/workloads.py": "other workloads"}, "bench/workloads.py"),
    ({"bench/extra.py": "extra"}, "bench/extra.py"),
    ({"BENCHMARK.json": '{"run_seconds": 1}'}, "BENCHMARK.json"),
], ids=["edited", "added", "spec"])
def test_checkouts_with_different_benchmark_code_are_refused(tmp_path, capsys, changed, name):
    parent = checkout(tmp_path / "parent", BENCH_FILES)
    change = checkout(tmp_path / "change", {**BENCH_FILES, **changed})
    out = tmp_path / "BENCH.json"
    assert load_script().main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the checkouts hold different benchmark code: {name} differs\n"
    assert sorted(tmp_path.iterdir()) == [change, parent]  # no report and no runs file


def test_same_benchmark_code_with_different_bytecode_is_one_benchmark(tmp_path):
    parent = checkout(tmp_path / "parent", {**BENCH_FILES, "bench/__pycache__/run.pyc": "a"})
    change = checkout(tmp_path / "change", {**BENCH_FILES, "bench/__pycache__/run.pyc": "b"})
    assert load_script()._benchmark_difference(parent, change) is None
