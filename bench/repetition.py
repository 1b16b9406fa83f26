"""One repetition of a workload, in a process of its own.

    python3 bench/repetition.py --workload NAME --seed N --trace 0|1 \
        --inputs DIR --workdir DIR --out FILE

Sets the run up ``setup_reps`` times (each timed, into a fresh directory),
runs the loop once on the last set-up, then checks the outputs and writes
its figures to ``--out`` as JSON. ``run.py`` starts one such process per
repetition, so that ``peak_rss_mb`` belongs to this workload alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from boxal import load_manifest, run_loop  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    fixture = workloads.Fixture(workload, args.seed, args.inputs)
    config = fixture.config

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    setup_s = []
    for k in range(workload.setup_reps):
        run_dir = args.workdir / f"run_{k}"
        start = perf_counter()
        adapter = fixture.set_up(run_dir)
        setup_s.append(perf_counter() - start)
        if k + 1 < workload.setup_reps:
            shutil.rmtree(run_dir)
    tracer.pool_ids = frozenset(load_manifest(run_dir / "manifest.json").pool)

    loop_span = len(tracer.spans)
    tracer.wrap("loop", run_loop)(run_dir, tracer.adapter(adapter), config.iterations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    totals = tracer.totals(loop_span)
    loop_s = totals["loop"][1]
    requests = checks.detection_requests(run_dir)
    images = sum(len(doc["image_ids"]) for doc, _ in requests)
    state_files = sorted((run_dir / "state").glob("iter_*.json"), key=lambda f: int(f.stem[5:]))
    result = {
        "setup_s": statistics.median(setup_s),
        "loop_s": loop_s,
        "engine_s": loop_s - totals["adapter"][1],
        "images_per_s": images / loop_s,
        "peak_rss_mb": peak_rss_mb,
        "rundir_mb": _dir_bytes(run_dir) / 1e6,
        "log_sha256": checks.log_digest(run_dir),
        "errors": checks.spot_check(run_dir, config, args.seed),
    }
    if args.trace:
        pool_images = sum(len(tracer.pool_ids.intersection(doc["image_ids"])) for doc, _ in requests)
        layers = tracing.layer_metrics(tracer, loop_span, config.passes_n, images, pool_images)
        layers["orchestrator.state_bytes"] = [sum(f.stat().st_size for f in state_files), "B"]
        layers["orchestrator.state_bytes_last"] = [state_files[-1].stat().st_size, "B"]
        accounted = sum(self_s for _, _, self_s in totals.values())
        if abs(accounted - loop_s) > 1e-6 * loop_s:
            result["errors"].append(f"span self times sum to {accounted} s, traced loop took {loop_s} s")
        result["layers"] = layers
        result["absent_targets"] = tracer.absent
        result["inputs"] = checks.describe_inputs(run_dir, config, args.seed)
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
