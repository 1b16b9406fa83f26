"""End-to-end acceptance suite.

One test per acceptance criterion, in order; each prints a single
``CRITERION n: PASS`` line when it succeeds (visible with ``pytest -s`` or in
the captured output), and the test name itself carries the verdict under
``pytest -v``.
"""

import statistics
import time

import mpmath
import numpy as np
import pytest

from boxal.certainty import image_certainty
from boxal.cli import main as cli_main
from boxal.data_io import Detection
from boxal.evaluation import FinalPrediction, coco_map, regularized_incomplete_beta, ttest_two_sided
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes
from boxal.orchestrator import (
    RunConfig,
    SimulatorDetectorAdapter,
    init_run,
    load_state,
    run_loop,
)
from boxal.data_io import CategoryCatalog, GroundTruthImage
from boxal.simulator import generate_world

from oracles import (
    brute_force_grouping, brute_force_map, image_passes, members_of, random_passes, random_scene, scalar_triple,
)


def test_criterion_1_scale_statement():
    # Full-scale GPU results (Faster R-CNN on the real dataset) are out of
    # scope by design; the desk-scale substitutes are criteria 2-8 below.
    print("CRITERION 1: PASS (full-scale GPU reproduction out of scope; "
          "desk-scale property suite substitutes)")


def test_criterion_2_certainty_math_under_one_second():
    t0 = time.perf_counter()

    def det(scores, box=(0, 0, 10, 10)):
        return Detection(BoundingBox(*(float(c) for c in box)), tuple(scores))

    def single(scores, kappa):
        return scalar_triple(((0, det(scores)),), kappa, 1)[0]

    # semantic certainty examples
    assert single((1.0, 0.0, 0.0), 3) == pytest.approx(1.0, abs=1e-9)
    assert single((0.25,) * 4, 4) == pytest.approx(0.0, abs=1e-9)
    with mpmath.workdps(50):
        p, q = mpmath.mpf("0.9"), mpmath.mpf("0.1")
        oracle = float(1 - (-(p * mpmath.log(p) + q * mpmath.log(q))) / mpmath.log(2))
    assert single((0.9, 0.1), 2) == pytest.approx(oracle, abs=1e-9)
    assert single((0.9, 0.1), 2) == pytest.approx(0.531004, abs=1e-5)

    # spatial / occurrence / combined / image examples
    from boxal.sampling import rank

    pair = ((0, det((1.0, 0.0), (0, 0, 10, 10))), (1, det((1.0, 0.0), (2, 0, 12, 10))))
    assert scalar_triple(pair, 2, 15)[1] == pytest.approx(90.0 / 110.0, abs=1e-9)
    solo = ((0, det((1.0, 0.0))),)
    assert scalar_triple(solo, 2, 15)[1] == pytest.approx(1.0, abs=1e-9)
    fifteen = tuple((p, det((1.0, 0.0))) for p in range(15))
    assert scalar_triple(fifteen, 2, 15)[2] == pytest.approx(1.0, abs=1e-9)
    assert scalar_triple(solo, 2, 15)[2] == pytest.approx(1.0 / 15.0, abs=1e-9)
    # c_h is the product: c_sem 1, c_spa 90/110 and c_occ 2/15 for the pair, the image's one set
    paired = image_passes("pair", 20, 20, tuple((d,) for _, d in pair) + ((),) * 13)
    ic = image_certainty("pair", group_passes(paired), 2, 15)
    assert ic.c_min == pytest.approx(90.0 / 110.0 * 2.0 / 15.0, abs=1e-9)

    blank = image_passes("blank", 10, 10, ((), ()))
    ic = image_certainty("blank", group_passes(blank), 2, 2)
    assert (ic.c_min, ic.set_count) == (1.0, 0)
    ranking = rank([(ic.image_id, ic.c_min)])
    assert ranking == [("blank", 1.0)]

    # base invariance over 1,000 random probability vectors
    import math

    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(1000):
        kappa = int(rng.integers(2, 12))
        raw = rng.gamma(rng.uniform(0.2, 3.0), size=kappa) + 1e-12
        p = raw / raw.sum()
        natural = 1.0 - (-sum(v * math.log(v) for v in p)) / math.log(kappa)
        base2 = 1.0 - (-sum(v * math.log2(v) for v in p)) / math.log2(kappa)
        assert abs(natural - base2) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"CRITERION 2: PASS (certainty examples + base invariance, {elapsed:.2f}s)")


def test_criterion_3_grouping_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(777))
    for i in range(500):
        img = random_passes(rng, image_id=f"acc_{i}", max_passes=4, max_dets=5)
        sets = members_of(group_passes(img, 0.5))
        assert sets == brute_force_grouping(img, 0.5, iou)
        n = len(img.passes)
        flattened = [m for s in sets for m in s]
        original = [(p, d) for p, dets in enumerate(img.passes) for d in dets]
        assert sorted(flattened, key=repr) == sorted(original, key=repr)
        assert all(1 <= len(s) <= n for s in sets)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"CRITERION 3: PASS (500 instances match brute force, {elapsed:.2f}s)")


def test_criterion_4_map_oracle():
    catalog = CategoryCatalog(("a", "b", "c"))
    gt = {"i": GroundTruthImage("i", ((BoundingBox(0, 0, 10, 10), 0),))}
    shifted = FinalPrediction(BoundingBox(0, 2.5, 10, 12.5), 0, 0.9)
    assert iou(shifted.box, BoundingBox(0, 0, 10, 10)) == 0.6
    assert coco_map({"i": [shifted]}, gt, catalog).map_score == 0.3

    perfect = FinalPrediction(BoundingBox(0, 0, 10, 10), 0, 1.0)
    assert coco_map({"i": [perfect]}, gt, catalog).map_score == pytest.approx(1.0, abs=1e-12)

    rng = np.random.Generator(np.random.PCG64(31415))
    checked = 0
    while checked < 50:
        preds_by_image, gt_by_image = random_scene(rng)
        if all(not g.objects for g in gt_by_image.values()):
            continue
        got = coco_map(preds_by_image, gt_by_image, catalog).map_score
        want, _ = brute_force_map(preds_by_image, gt_by_image, catalog, iou)
        assert got == pytest.approx(want, abs=1e-9)
        checked += 1
    print("CRITERION 4: PASS (exact 0.300 case, perfect case, 50 scenes vs brute force)")


def test_criterion_5_ttest_references():
    points = [
        (1, 0.5), (1, 2.0), (2, 1.0), (3, 0.25), (3, 3.0),
        (5, 0.5), (5, 2.5), (8, 1.0), (10, 0.1), (10, 2.0),
        (12, 4.0), (15, 1.5), (20, 0.75), (20, 3.5), (30, 1.0),
        (40, 2.0), (60, 0.5), (60, 3.0), (120, 1.96), (200, 2.6),
    ]
    assert len(points) == 20
    for df, t in points:
        with mpmath.workdps(50):
            x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
            want = float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf("0.5"),
                                        0, x, regularized=True))
        got = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
        assert got == pytest.approx(want, abs=1e-8)

    r = ttest_two_sided([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert r.statistic == pytest.approx(-1.0, abs=1e-12)
    assert r.p_value == pytest.approx(0.3466, abs=1e-4)
    print("CRITERION 5: PASS (20 incomplete-beta reference points + frozen t-test case)")


def _qualitative_runs(tmp_path, seeds=5, images=500, batch=50, iterations=8):
    """Both strategies over several seeds; returns the iteration records and report rows."""
    import csv

    results = {}
    for strategy in ("min_certainty", "random"):
        records_by_seed, reports = [], []
        for seed in range(seeds):
            world = generate_world(
                seed=100 + seed, image_count=images, kappa=10,
                initial_training=30, validation=20, test=50,
            )
            config = RunConfig(
                passes_n=10, batch_size=batch, iterations=iterations,
                seed=seed, strategy=strategy,
            )
            run_dir = tmp_path / f"{strategy}_{seed}"
            init_run(world.manifest, config, run_dir, world.ground_truth())
            run_loop(run_dir, SimulatorDetectorAdapter(world, run_dir), iterations)
            records_by_seed.append(list(load_state(run_dir).records))
            with open(run_dir / "log.csv", newline="") as fh:
                reports.append(list(csv.DictReader(fh)))
        results[strategy] = (records_by_seed, reports)
    return results


def test_criterion_6_qualitative_reproduction(tmp_path):
    t0 = time.perf_counter()
    iterations = 8
    results = _qualitative_runs(tmp_path, iterations=iterations)

    # (a) annotation-budget saving: min-certainty reaches the random
    # strategy's final mAP with >= 20% fewer annotated images
    curves = {}
    for strategy, (_, reports) in results.items():
        curves[strategy] = [
            (int(reports[0][i]["train_size"]),
             statistics.mean(float(r[i]["map"]) for r in reports))
            for i in range(iterations + 1)
        ]
    random_final_train, random_final_map = curves["random"][-1]
    reached_at = None
    running_best = 0.0
    for train_size, mean_map in curves["min_certainty"]:
        running_best = max(running_best, mean_map)
        if running_best >= random_final_map:
            reached_at = train_size
            break
    assert reached_at is not None, "min-certainty never reached the random final mAP"
    assert reached_at <= 0.8 * random_final_train, (
        f"min-certainty needed {reached_at} images vs budget {0.8 * random_final_train:.0f}"
    )

    # (b) sampled images read harder than the remaining pool: in at least
    # half of iterations 3+ the sampled mean F1 is lower with p <= 0.05
    # (per-image F1 pooled across seeds per iteration)
    records_by_seed = results["min_certainty"][0]
    significant = comparable = 0
    for i in range(2, iterations):
        sampled, remaining = [], []
        for records in records_by_seed:
            sampled += records[i]["f1_sampled"]
            remaining += records[i]["f1_remaining"]
        if len(remaining) < 2:
            continue  # final iteration consumes the whole pool
        comparable += 1
        r = ttest_two_sided(sampled, remaining)
        if statistics.mean(sampled) < statistics.mean(remaining) and r.p_value <= 0.05:
            significant += 1
    assert 2 * significant >= comparable, f"only {significant}/{comparable} iterations significant"

    # (c) certainty of the sampled batch grows: across-seed mean c_min of the
    # sampled images is nondecreasing with at most one violation
    mean_cmins = [
        statistics.mean(
            statistics.mean(c for _, c in records[i]["sampled"]) for records in records_by_seed
        )
        for i in range(iterations)
    ]
    violations = sum(1 for a, b in zip(mean_cmins, mean_cmins[1:]) if b < a - 1e-12)
    assert violations <= 1, f"mean sampled c_min sequence {mean_cmins} has {violations} drops"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        "CRITERION 6: PASS "
        f"(a: reached random final mAP {random_final_map:.3f} at {reached_at} vs "
        f"{random_final_train} images; b: {significant}/{comparable} iterations significant; "
        f"c: {violations} certainty violations; {elapsed:.1f}s)"
    )


def test_criterion_7_loop_bookkeeping(tmp_path):
    world = generate_world(
        seed=7, image_count=1150, kappa=4,
        initial_training=100, validation=0, test=50,
    )
    assert len(world.manifest.pool) == 1000
    config = RunConfig(passes_n=4, batch_size=100, iterations=10, seed=1)
    run_dir = tmp_path / "run"
    init_run(world.manifest, config, run_dir, world.ground_truth())

    fixed = set(world.manifest.validation) | set(world.manifest.test)
    for i in range(10):
        # a fresh adapter each iteration: everything needed must come from
        # the persisted run directory (reload-resume)
        state = run_loop(run_dir, SimulatorDetectorAdapter(world, run_dir), 1)
        assert state.iteration == i + 1
        assert len(state.training_ids) == 100 + 100 * (i + 1)
        training, pool = set(state.training_ids), set(state.pool_ids)
        assert training | pool | fixed == world.manifest.all_ids
        assert not (training & pool) and not (training & fixed) and not (pool & fixed)
        assert load_state(run_dir) == state

    final = load_state(run_dir)
    assert len(final.training_ids) == 1100
    assert final.pool_ids == ()
    print("CRITERION 7: PASS (|T_10| = 1100; conservation and reload-resume at all iterations)")


def test_criterion_8_cli_determinism(tmp_path):
    def simulate(name):
        out = tmp_path / name
        argv = [
            "simulate-run", "--out", str(out),
            "--images", "120", "--categories", "4",
            "--initial-training", "15", "--validation", "5", "--test", "15",
            "--passes-n", "5", "--batch-size", "20", "--iterations", "3", "--seed", "9",
        ]
        assert cli_main(argv) == 0
        return (out / "log.csv").read_bytes()

    first = simulate("a")
    second = simulate("b")
    assert first == second
    print("CRITERION 8: PASS (byte-identical log.csv across two simulate-run executions)")
