"""boxal benchmark: drive ``run_loop`` on a seeded workload and report its metrics.

    python3 bench/run.py --workload sim-reference --seed 0 --seconds 40 --trace 0

Each repetition runs in a fresh process (``repetition.py``). An untraced run
repeats the workload while another repetition still fits in ``--seconds``
(at least once) and reports the median of each end-to-end metric. A traced
run (``--trace 1``) makes one untraced and one traced repetition and reports
the per-layer metrics; ``trace.overhead_s`` is the difference of their loop
times. Outputs are checked after every repetition: ``log.csv`` against the
digest recorded in ``digests.json`` for the workload and seed, and a sample
of results against the oracles of ``tests/oracles.py``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0  # a run, builds aside, must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("engine_s", "s"),
    ("images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rundir_mb", "MB"),
)


def _repetition(workload: str, seed: int, trace: bool, inputs: Path, workdir: Path,
                deadline: float) -> dict:
    """Run one repetition in a fresh process; its figures, or {"errors": [...]}."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "repetition.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--inputs", str(inputs),
           "--workdir", str(workdir), "--out", str(out)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return {"errors": ["repetition timed out"]}
    if proc.returncode != 0 or not out.exists():
        return {"errors": [f"repetition exited with code {proc.returncode}"]}
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _recorded_digest(workload: str, seed: int) -> str | None:
    with open(BENCH / "digests.json", "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _check_digests(reps: list[dict], recorded: str | None) -> set[str]:
    """Fail repetitions whose log.csv differs from the recorded digest, or from each other."""
    digests = {r["log_sha256"] for r in reps if "log_sha256" in r}
    for rep in reps:
        if "log_sha256" not in rep:
            continue
        if recorded is not None and rep["log_sha256"] != recorded:
            rep["errors"].append(f"log.csv sha256 {rep['log_sha256']} != recorded {recorded}")
        elif len(digests) > 1:
            rep["errors"].append(f"log.csv differs between repetitions: {sorted(digests)}")
    return digests


def _traced_metrics(reps: list[dict]) -> dict | None:
    if len(reps) != 2 or "loop_s" not in reps[0] or "layers" not in reps[1]:
        return None
    untraced, traced = reps
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = [traced["loop_s"] - untraced["loop_s"], "s"]
    for name, value in traced["inputs"].items():
        print(f"input {name:40s} {value:.6g}")
    if traced["absent_targets"]:
        print(f"absent trace targets (0 calls): {', '.join(traced['absent_targets'])}")
    return {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}


def _end_to_end_metrics(reps: list[dict]) -> dict | None:
    # medians over the repetitions that passed their checks, else over all that measured
    measured = [r for r in reps if not r["errors"]] or [r for r in reps if "loop_s" in r]
    if not measured:
        return None
    return {
        name: {"value": statistics.median(r[name] for r in measured), "unit": unit}
        for name, unit in END_TO_END
    }


def main(argv=None) -> int:
    started = monotonic()
    if not (ROOT / "src" / "boxal" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no boxal checkout (src/boxal and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs boxal on the path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    deadline = started + RUN_LIMIT_S
    reps: list[dict] = []
    try:
        inputs = work / "inputs"
        if workload.replay:
            workloads.render_detections(workload, args.seed, inputs)
        window = monotonic()
        while True:
            rep_start = monotonic()
            trace = bool(args.trace) and len(reps) == 1
            reps.append(_repetition(args.workload, args.seed, trace, inputs,
                                    work / f"rep_{len(reps)}", deadline))
            last = monotonic() - rep_start
            if args.trace:
                if len(reps) == 2:
                    break
            elif monotonic() - window + last > args.seconds or monotonic() + last > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = _check_digests(reps, _recorded_digest(args.workload, args.seed))
    for i, rep in enumerate(reps):
        if "loop_s" in rep:
            print(f"repetition {i}{' (traced)' if 'layers' in rep else ''}: setup_s {rep['setup_s']:.4f}"
                  f" loop_s {rep['loop_s']:.3f} engine_s {rep['engine_s']:.3f}")
        for error in rep["errors"]:
            print(f"repetition {i} FAILED: {error}")
    failed = sum(1 for r in reps if r["errors"])
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions, {failed} failed")
    for digest in sorted(digests):
        print(f"log.csv sha256 {digest}")

    metrics = _traced_metrics(reps) if args.trace else _end_to_end_metrics(reps)
    if metrics is None:
        print("error: no repetition measured the loop", file=sys.stderr)
        return 1
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':40s} {failed / len(reps):14.6g} failed/attempted")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
