"""``scripts/bench_compare.py`` writes its report when a workload has no pair both sides measured,
refuses two checkouts that hold different benchmark code or a runs file that already exists, and leaves
no benchmark running when stopped."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
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


def test_an_existing_runs_file_is_refused_before_any_run(tmp_path, capsys):
    marker = tmp_path / "ran"  # left by bench/run.py if it runs
    spec = {"run_seconds": 1, "workloads": [{"name": "steady"}], "end_to_end": []}
    files = {"BENCHMARK.json": json.dumps(spec), "bench/run.py": f"open({str(marker)!r}, 'w').close()"}
    parent, change = checkout(tmp_path / "parent", files), checkout(tmp_path / "change", files)
    out = tmp_path / "BENCH.json"
    log = tmp_path / "BENCH.json.runs.jsonl"
    log.write_text('{"kind": "untraced"}\n')
    assert load_script().main(["--parent", str(parent), "--change", str(change), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {log} exists; move it away or choose another --out\n"
    assert log.read_text() == '{"kind": "untraced"}\n'
    assert not marker.exists() and not out.exists()


def test_same_benchmark_code_with_different_bytecode_is_one_benchmark(tmp_path):
    parent = checkout(tmp_path / "parent", {**BENCH_FILES, "bench/__pycache__/run.pyc": "a"})
    change = checkout(tmp_path / "change", {**BENCH_FILES, "bench/__pycache__/run.pyc": "b"})
    assert load_script()._benchmark_difference(parent, change) is None


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited; an exited child waits as a zombie until reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


# bench/run.py starts a repetition and waits for it, as a long benchmark run does; the two pids go in a file
SLEEPER = """import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
with open({part!r}, "w") as fh:
    fh.write(f"{{os.getpid()}} {{child.pid}}")
os.replace({part!r}, {pids!r})
child.wait()
"""


# starts the script with SIGINT ignored, as a shell starts a background job; exec keeps the disposition
IGNORING_SIGINT = ("import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                   "os.execv(sys.executable, sys.argv[1:])")


@pytest.mark.parametrize("signum, ignored",
                         [(signal.SIGTERM, False), (signal.SIGINT, False), (signal.SIGINT, True)],
                         ids=["SIGTERM", "SIGINT", "SIGINT-ignored-at-start"])
def test_a_stopped_comparison_ends_the_benchmark_it_runs(tmp_path, signum, ignored):
    pid_file = tmp_path / "run.pids"
    spec = {"run_seconds": 1, "workloads": [{"name": "steady"}], "end_to_end": []}
    files = {"BENCHMARK.json": json.dumps(spec),
             "bench/run.py": SLEEPER.format(part=str(tmp_path / "run.part"), pids=str(pid_file))}
    parent, change = checkout(tmp_path / "parent", files), checkout(tmp_path / "change", files)
    out = tmp_path / "BENCH.json"
    cmd = [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change), "--out", str(out)]
    if ignored:
        cmd = [sys.executable, "-c", IGNORING_SIGINT, *cmd]
    script = subprocess.Popen(cmd, stderr=subprocess.DEVNULL)
    pids = []
    try:
        deadline = time.monotonic() + 30.0
        while not pid_file.is_file() and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(pid) for pid in pid_file.read_text().split()]
        script.send_signal(signum)
        assert script.wait(timeout=10.0) != 0
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
        assert not out.exists()
    finally:
        script.kill()
        script.wait()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
