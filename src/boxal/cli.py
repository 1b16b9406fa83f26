"""Command-line interface.

Subcommands: init, iterate, loop, rank, sample, evaluate, ttest,
simulate-run. Run parameters come from a flat JSON config file mirroring
RunConfig; CLI flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import astuple, replace
from pathlib import Path

from .data_io import _load_json, _open_input, _open_output, load_ground_truth, load_id_list, load_manifest
from .errors import BoxalError, FormatError, ValidationError
from .evaluation import coco_map, load_predictions, ttest_two_sided
from .orchestrator import (
    FileWaitAdapter,
    RunConfig,
    SimulatorDetectorAdapter,
    _fmt,
    _predict,
    _read_detections,
    init_run,
    run_loop,
)
from .sampling import rank, sample_min_certainty, sample_random
from .simulator import generate_world, load_world, save_world


def _output(path: str | None):
    """A text stream to ``path``, or to stdout when no path is given."""
    return _open_output(path, "w") if path else nullcontext(sys.stdout)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field, ``--passes-n`` for ``passes_n``, typed like its default."""
    for name, field in RunConfig.__dataclass_fields__.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=type(field.default), default=None)


def _build_config(args: argparse.Namespace, config_path: str | None) -> RunConfig:
    """The config file's RunConfig (the defaults without a file) with the flags given applied."""
    config = _load_json(config_path, RunConfig.from_dict) if config_path else RunConfig()
    flags = {name: getattr(args, name) for name in RunConfig.__dataclass_fields__}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _csv_rows(path: str) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each nonblank CSV row; unreadable rows are a FormatError."""
    rows = []
    with _open_input(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if "".join(row).strip():
                    rows.append((reader.line_num, row))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}:{reader.line_num + 1}: unreadable CSV: {exc}") from exc
    return rows


def _csv_number(path: str, lineno: int, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}:{lineno}: numbers must be finite, got {text!r}")
    return value


def _read_ranking(path: str) -> list[tuple[str, float]]:
    """(image_id, c_min) pairs from a ranking CSV whose header names both columns."""
    rows = _csv_rows(path)
    header_line, header = rows[0] if rows else (1, [])
    if "image_id" not in header or "c_min" not in header:
        raise FormatError(f"{path}:{header_line}: the header must name the columns image_id and c_min")
    id_col, c_col = header.index("image_id"), header.index("c_min")
    ranking = {}
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        if not row[id_col] or row[id_col] in ranking:
            raise ValidationError(f"{path}:{lineno}: empty or duplicate image_id {row[id_col]!r}")
        ranking[row[id_col]] = _csv_number(path, lineno, row[c_col])
    return list(ranking.items())


def _make_adapter(args: argparse.Namespace, run_dir: Path):
    if args.adapter == "simulator":
        return SimulatorDetectorAdapter(load_world(run_dir), run_dir)
    return FileWaitAdapter(timeout=args.adapter_timeout)


def _cmd_init(args) -> int:
    config = _build_config(args, args.config)
    manifest = load_manifest(args.manifest)
    ground_truth = None
    if args.ground_truth:
        ground_truth = load_ground_truth(args.ground_truth, kappa=len(manifest.catalog))
    state = init_run(manifest, config, args.out, ground_truth)
    print(f"initialized run at {args.out}: |T_0|={len(state.training_ids)}, "
          f"|P_0|={len(state.pool_ids)}")
    return 0


def _cmd_loop(args) -> int:
    run_dir = Path(args.run)
    adapter = _make_adapter(args, run_dir)
    state = run_loop(run_dir, adapter, args.iterations)
    print(f"loop complete: iteration {state.iteration}, |T|={len(state.training_ids)}; "
          f"report at {run_dir / 'log.csv'}")
    return 0


def _cmd_rank(args) -> int:
    config = _build_config(args, args.config)
    detections = _read_detections(args.detections, config, len(load_manifest(args.manifest).catalog))
    _, certainties = _predict(detections, config, detections)
    rows = [(image_id, ic.c_min, ic.set_count, *astuple(ic.min_triple)) for image_id, ic in certainties.items()]
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["image_id", "c_min", "set_count", "min_c_sem", "min_c_spa", "min_c_occ"])
        for image_id, *values in rank(rows):
            writer.writerow([image_id, *map(_fmt, values)])
    return 0


def _cmd_sample(args) -> int:
    if args.strategy == "min_certainty":
        if not args.ranking:
            raise BoxalError("min_certainty sampling needs --ranking (CSV from `boxal rank`)")
        chosen = sample_min_certainty(_read_ranking(args.ranking), args.n)
    else:
        if not args.pool:
            raise BoxalError("random sampling needs --pool (one image_id per line)")
        chosen = sample_random(load_id_list(args.pool), args.n, args.seed, args.iteration)
    with _output(args.out) as out:
        out.writelines(image_id + "\n" for image_id in chosen)
    return 0


def _cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    gt = load_ground_truth(args.ground_truth, kappa=len(manifest.catalog))
    preds = load_predictions(args.predictions, kappa=len(manifest.catalog))
    unknown = sorted(preds.keys() - gt.keys())
    if unknown:
        raise ValidationError(f"{args.predictions}: image {unknown[0]!r} is not in the ground truth")
    result = coco_map(preds, gt, manifest.catalog)
    report = {
        "map": result.map_score,
        "per_category_ap": {
            manifest.catalog.names[c]: ap for c, ap in sorted(result.per_category_ap.items())
        },
        "true_positives": result.true_positives,
        "false_positives": result.false_positives,
        "false_negatives": result.false_negatives,
    }
    with _output(args.out_report) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    if args.out_f1:
        with _output(args.out_f1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["image_id", "f1"])
            for image_id in sorted(result.per_image_f1):
                writer.writerow([image_id, _fmt(result.per_image_f1[image_id])])
    return 0


def _read_column(path: str) -> list[float]:
    """The finite numbers in the first CSV column; only the first row may be a header."""
    rows = _csv_rows(path)
    try:
        float(rows[0][1][0])
    except (IndexError, ValueError):
        rows = rows[1:]  # no rows, or a header
    return [_csv_number(path, lineno, row[0]) for lineno, row in rows]


def _cmd_ttest(args) -> int:
    x = _read_column(args.x)
    y = _read_column(args.y)
    result = ttest_two_sided(x, y)
    print(f"t={_fmt(result.statistic)} df={result.degrees_of_freedom} p={_fmt(result.p_value)}")
    return 0


def _cmd_simulate_run(args) -> int:
    run_dir = Path(args.out)
    config = _build_config(args, args.config)
    world = generate_world(
        seed=config.seed,
        image_count=args.images,
        kappa=args.categories,
        objects_per_image=(args.objects_min, args.objects_max),
        initial_training=args.initial_training,
        validation=args.validation,
        test=args.test,
    )
    # init_run refuses a directory that already holds a run, so it goes before save_world
    init_run(world.manifest, config, run_dir, world.ground_truth())
    save_world(world, run_dir / "world.json")
    state = run_loop(run_dir, SimulatorDetectorAdapter(world, run_dir))
    print(f"simulate-run complete: iteration {state.iteration}, "
          f"|T|={len(state.training_ids)}; report at {run_dir / 'log.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a run directory from a manifest and config")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_init)

    for name, iterations, summary in (("iterate", 1, "run one iteration: loop --iterations 1"),
                                      ("loop", None, "run an existing run's iterations")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--run", required=True)
        p.add_argument("--adapter", choices=["simulator", "file"], default="simulator")
        p.add_argument("--adapter-timeout", type=float, default=3600.0)
        if name == "loop":
            p.add_argument("--iterations", type=int, default=None)
        p.set_defaults(func=_cmd_loop, iterations=iterations)

    p = sub.add_parser("rank", help="rank a detections file by ascending c_min")
    p.add_argument("--detections", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("sample", help="select a batch of image ids")
    p.add_argument("--strategy", choices=["min_certainty", "random"], default="min_certainty")
    p.add_argument("--ranking", default=None, help="ranking CSV (min_certainty)")
    p.add_argument("--pool", default=None, help="pool id list, one per line (random)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iteration", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("evaluate", help="COCO-style mAP and per-image F1")
    p.add_argument("--predictions", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-f1", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ttest", help="two-sided unpaired Student's t-test on two CSV columns")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("simulate-run", help="generate a synthetic world and run the full loop")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--images", type=int, default=500)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--objects-min", type=int, default=1)
    p.add_argument("--objects-max", type=int, default=4)
    p.add_argument("--initial-training", type=int, default=None)
    p.add_argument("--validation", type=int, default=None)
    p.add_argument("--test", type=int, default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_simulate_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoxalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
