"""Compare two boxal checkouts with the benchmark, in alternating pairs, and write a BENCH file.

    python3 scripts/bench_compare.py --parent ../parent --change . --out BENCH_10.json

For each workload of ``BENCHMARK.json``, pair i runs ``bench/run.py --seed i``
for the benchmark's ``run_seconds`` once in each checkout, with the parent
first in even pairs and the change first in odd ones. Each side of a pair
uses its own checkout's ``bench/``, so the two sides must hold the same
benchmark code: the script refuses two checkouts whose ``bench/`` trees or
``BENCHMARK.json`` differ, naming the first differing file. Per workload, the file records each run's ``correct``,
``attempted`` and ``failed``; per end-to-end metric, each side's median and
quartiles and the pairs the change won (ties count for neither side). Then
it makes ``TRACED`` alternating pairs of traced runs (seed 0) for the
per-layer metrics, and times ``test_criterion_6`` in each checkout as often.
Every finished run is appended to ``<out>.runs.jsonl`` as it ends, so an
interrupted comparison keeps what it measured; the script refuses to start
when that file exists, so one comparison's runs never mix with another's.
Each child runs in a session of its own; on ``SIGTERM`` or ``SIGINT`` the
script kills the running child's process group, waits for it and exits with
status 1, so no benchmark is left running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

CRITERION_6 = "tests/test_acceptance.py::test_criterion_6_qualitative_reproduction"
PAIRS = 10  # untraced pairs per workload, as a gain claim is judged on
TRACED = 3  # traced pairs per workload, and test_criterion_6 timings per side


def _run(cmd: list[str], checkout: Path, env: dict | None = None) -> subprocess.CompletedProcess:
    """``cmd`` run in ``checkout`` in a session of its own; if interrupted, its process group is killed first."""
    with subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)  # the child leads its group, which holds its own children
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = _run(cmd, checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-2000:]}
    doc = json.loads(lines[-1])
    return {"correct": doc["correct"], "attempted": doc["attempted"], "failed": doc["failed"],
            "metrics": {name: m["value"] for name, m in doc["metrics"].items()}}


def _benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first of ``BENCHMARK.json`` and the files under ``bench/`` whose bytes differ between two checkouts.

    A file that only one checkout holds differs too; ``__pycache__`` holds no benchmark code.
    """
    def files(root: Path) -> set[str]:
        return {"BENCHMARK.json"} | {
            path.relative_to(root).as_posix() for path in (root / "bench").rglob("*")
            if path.is_file() and "__pycache__" not in path.relative_to(root).parts
        }

    for name in sorted(files(parent) | files(change)):
        ours, theirs = parent / name, change / name
        if not (ours.is_file() and theirs.is_file() and ours.read_bytes() == theirs.read_bytes()):
            return name
    return None


def _criterion_6_s(checkout: Path) -> float:
    start = time.perf_counter()
    _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", CRITERION_6],
         checkout, env=dict(os.environ, PYTHONPATH="src")).check_returncode()
    return time.perf_counter() - start


def _host() -> dict:
    """The machine and software the comparison ran on."""
    import numpy

    return {"machine": platform.machine(), "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _spread(values: list[float]) -> dict | None:
    """Median and quartiles of a side's runs; None when no pair measured the metric."""
    if not values:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _sides(pair: int) -> tuple[str, str]:
    """The order of the two sides in a pair: the parent first in even pairs."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def report(runs: list[dict], spec: dict) -> dict:
    """The BENCH document of the runs recorded in ``<out>.runs.jsonl``."""
    sides = ("parent", "change")
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    doc = {"host": _host(), "pairs": PAIRS, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = {side: sorted((r for r in runs if r["kind"] == "untraced" and r["workload"] == workload
                                  and r["side"] == side), key=lambda r: r["pair"])
                    for side in sides}
        row = {key: {side: [r.get(key) for r in untraced[side]] for side in sides}
               for key in ("correct", "attempted", "failed")}
        row["end_to_end"], row["traced"] = {}, {}
        # pairs in which both sides measured the loop
        measured = [(p, c) for p, c in zip(untraced["parent"], untraced["change"])
                    if "metrics" in p and "metrics" in c]
        for name, lower in lower_is_better.items():
            parent = [p["metrics"][name] for p, _ in measured]
            change = [c["metrics"][name] for _, c in measured]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            row["end_to_end"][name] = {"parent": _spread(parent), "change": _spread(change),
                                       "change_wins": wins, "pairs": len(measured)}
        for r in runs:
            if r["kind"] == "traced" and r["workload"] == workload and "metrics" in r:
                row["traced"].setdefault(r["side"], []).append(r["metrics"])
        doc["workloads"][workload] = row
    doc["criterion_6_s"] = {side: [r["seconds"] for r in runs if r["kind"] == "criterion_6"
                                   and r["side"] == side] for side in sides}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differing = _benchmark_difference(checkouts["parent"], checkouts["change"])
    if differing is not None:
        print(f"error: the checkouts hold different benchmark code: {differing} differs", file=sys.stderr)
        return 2
    log = args.out.with_name(args.out.name + ".runs.jsonl")
    if log.exists():  # its runs would mix with this comparison's, while the report holds only these
        print(f"error: {log} exists; move it away or choose another --out", file=sys.stderr)
        return 2
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []

    def record(entry: dict) -> None:
        runs.append(entry)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        print(json.dumps(entry)[:300], file=sys.stderr, flush=True)

    # both signals raise KeyboardInterrupt, SIGINT too when it was started ignored, as a background job is
    previous = {signum: signal.signal(signum, signal.default_int_handler)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                for side in _sides(pair):
                    result = _bench(checkouts[side], workload, pair, seconds, trace=False)
                    record({"kind": "untraced", "workload": workload, "pair": pair, "side": side, **result})
            for pair in range(TRACED):
                for side in _sides(pair):
                    result = _bench(checkouts[side], workload, 0, seconds, trace=True)
                    record({"kind": "traced", "workload": workload, "pair": pair, "side": side, **result})
        for pair in range(TRACED):
            for side in _sides(pair):
                record({"kind": "criterion_6", "pair": pair, "side": side,
                        "seconds": _criterion_6_s(checkouts[side])})
    except KeyboardInterrupt:
        print(f"stopped; the {len(runs)} finished runs are in {log}", file=sys.stderr)
        return 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    args.out.write_text(json.dumps(report(runs, spec), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
