import hashlib
import json
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxal import simulator
from boxal.certainty import image_certainty
from boxal.data_io import (
    CategoryCatalog,
    DatasetManifest,
    GroundTruthImage,
    save_ground_truth,
    save_image_passes,
    save_manifest,
)
from boxal.errors import ValidationError
from boxal.evaluation import consolidate, f1_image
from boxal.geometry import BoundingBox
from boxal.grouping import group_passes
from boxal.orchestrator import SimulatorDetectorAdapter
from boxal.simulator import (
    SkillState,
    SyntheticWorld,
    generate_world,
    load_world,
    pass_states,
    save_world,
    simulate_passes,
    train_update,
)

from oracles import image_key, members_of, scalar_triple


def hand_world(difficulty, objects, kappa=2):
    """A world whose images, the keys of ``difficulty``, all hold ``objects``."""
    ids = list(difficulty)
    manifest = DatasetManifest(
        catalog=CategoryCatalog(tuple(f"cat_{i}" for i in range(kappa))),
        initial_training=ids[:1],
        pool=tuple(ids[1:]),
        validation=(),
        test=(),
    )
    return SyntheticWorld(difficulty, {i: GroundTruthImage(i, objects) for i in ids}, manifest)


def save_run_world(world, run_dir):
    """The files a simulator run holds its world in: world.json, manifest.json, ground_truth.jsonl."""
    save_world(world, run_dir / "world.json")
    save_manifest(world.manifest, run_dir / "manifest.json")
    save_ground_truth(world.ground_truth(), run_dir / "ground_truth.jsonl")


class TestGenerateWorld:
    def test_same_seed_byte_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_world(generate_world(seed=11, image_count=40, kappa=4), a)
        save_world(generate_world(seed=11, image_count=40, kappa=4), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = generate_world(seed=1, image_count=10, kappa=3)
        b = generate_world(seed=2, image_count=10, kappa=3)
        assert a.ground_truth() != b.ground_truth()

    def test_empty_world_valid_manifest(self):
        world = generate_world(seed=0, image_count=0, kappa=3)
        assert world.difficulty == {} and world.ground_truth() == {}
        assert world.manifest.all_ids == frozenset()

    def test_fixed_object_count(self):
        world = generate_world(seed=3, image_count=25, kappa=3, objects_per_image=(3, 3))
        assert all(len(gt.objects) == 3 for gt in world.ground_truth().values())

    def test_partitions_cover_world(self):
        world = generate_world(seed=5, image_count=100, kappa=4)
        m = world.manifest
        assert m.all_ids == set(world.difficulty) == set(world.ground_truth())
        assert len(m.initial_training) == 10
        assert len(m.validation) == 10
        assert len(m.test) == 15

    def test_explicit_partition_sizes(self):
        world = generate_world(
            seed=5, image_count=100, kappa=4, initial_training=30, validation=20, test=50
        )
        m = world.manifest
        assert (len(m.initial_training), len(m.validation), len(m.test), len(m.pool)) == (30, 20, 50, 0)

    def test_oversized_partitions_rejected(self):
        with pytest.raises(ValidationError):
            generate_world(seed=0, image_count=10, kappa=3, initial_training=20)
        for size in ("initial_training", "validation", "test"):
            with pytest.raises(ValidationError, match=">= 0"):
                generate_world(seed=0, image_count=40, kappa=3, **{size: -1})

    def test_difficulties_in_unit_interval(self):
        world = generate_world(seed=9, image_count=50, kappa=3)
        assert all(0.0 <= d <= 1.0 for d in world.difficulty.values())

    def test_save_load_round_trip(self, tmp_path):
        world = generate_world(seed=21, image_count=30, kappa=5)
        save_run_world(world, tmp_path)
        assert json.loads((tmp_path / "world.json").read_text()) == {"difficulty": world.difficulty}
        loaded = load_world(tmp_path)
        assert loaded.difficulty == world.difficulty
        assert list(loaded.difficulty) == list(world.difficulty)
        assert loaded.ground_truth() == world.ground_truth()
        assert loaded.manifest == world.manifest

    def test_load_world_bad_category(self, tmp_path):
        save_run_world(generate_world(seed=21, image_count=10, kappa=2), tmp_path)
        path = tmp_path / "ground_truth.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[3])
        record["objects"] = [{"bbox": [0, 0, 10, 10], "category": 5}]
        lines[3] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValidationError, match="category index 5") as excinfo:
            load_world(tmp_path)
        assert str(excinfo.value).startswith(f"{path}:4: "), excinfo.value

    def test_manifest_id_without_ground_truth_is_named(self, tmp_path):
        world = generate_world(seed=21, image_count=10, kappa=2)
        save_run_world(world, tmp_path)
        dropped = world.manifest.pool[0]
        gt = {i: g for i, g in world.ground_truth().items() if i != dropped}
        save_ground_truth(gt, tmp_path / "ground_truth.jsonl")
        with pytest.raises(ValidationError) as excinfo:
            load_world(tmp_path)
        assert str(excinfo.value) == (
            f"{tmp_path / 'ground_truth.jsonl'}: image {dropped!r} of the manifest has no record"
        )

    def test_pinned_world_digest(self, tmp_path):
        digest = hashlib.sha256()
        for kwargs in PINNED_WORLDS:
            save_run_world(generate_world(**kwargs), tmp_path)
            for name in ("world.json", "ground_truth.jsonl", "manifest.json"):
                digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == PINNED_WORLD_SHA256


# sha256 of the files save_run_world writes for each of PINNED_WORLDS, recorded while
# generate_world drew categories with Generator.choice and difficulties with uniform(0, 1);
# any change to a world draw, its order or the arithmetic moves it
PINNED_WORLD_SHA256 = "44a3309af5a07532bdc4417395fa9081704cc258cf7a6bb9a42ae839b3232a77"
PINNED_WORLDS = (
    dict(seed=0, image_count=300, kappa=10),
    dict(seed=3, image_count=200, kappa=20, objects_per_image=(3, 8)),  # crowded: many rejections
    dict(seed=5, image_count=100, kappa=2, objects_per_image=(0, 5)),
)


class TestSimulatePasses:
    def test_deterministic(self):
        world = generate_world(seed=4, image_count=5, kappa=3)
        image_id = next(iter(world.difficulty))
        skill = SkillState.fresh(3)
        a = simulate_passes(world, skill, image_id, n=6, pass_seed=77)
        b = simulate_passes(world, skill, image_id, n=6, pass_seed=77)
        assert image_key(a) == image_key(b)

    def test_different_pass_seeds_differ(self):
        world = generate_world(seed=4, image_count=5, kappa=3)
        image_id = next(iter(world.difficulty))
        skill = train_update(
            SkillState.fresh(3), world.ground_truth().values()
        )
        a = simulate_passes(world, skill, image_id, n=6, pass_seed=77)
        b = simulate_passes(world, skill, image_id, n=6, pass_seed=78)
        assert image_key(a) != image_key(b)

    def test_high_skill_zero_difficulty_converges_to_ground_truth(self):
        # e_c = 10^6 >> k and d = 0: detections collapse onto the gt boxes
        # with near-one-hot scores, so every certainty approaches 1
        objects = ((BoundingBox(100, 100, 220, 200), 0), (BoundingBox(400, 250, 520, 380), 1))
        world = hand_world({"easy": 0.0}, objects)
        skill = SkillState(exposures=(10**6, 10**6))
        passes = simulate_passes(world, skill, "easy", n=10, pass_seed=5)
        ic = image_certainty(group_passes(passes))
        assert ic.set_count == 2
        assert ic.c_min > 0.98
        preds = consolidate(group_passes(passes))
        assert f1_image({"easy": preds}, {"easy": world.ground_truth()["easy"]}) == {"easy": 1.0}

    def test_zero_skill_semantic_certainty_low(self, monkeypatch):
        # alpha = 0 (no exposures): scores are pure Dirichlet noise. At
        # kappa=2 a flatter concentration keeps survivors past the 0.5
        # confidence threshold while their entropy stays near maximal.
        monkeypatch.setattr(simulator, "NOISE_CONCENTRATION", 4.0)
        world = generate_world(seed=6, image_count=100, kappa=2, objects_per_image=(2, 4))
        skill = SkillState.fresh(2)
        sems = []
        for image_id in world.difficulty:
            passes = simulate_passes(world, skill, image_id, n=10, pass_seed=13)
            sems.extend(scalar_triple(members, 2, 10)[0] for members in members_of(group_passes(passes)))
        assert len(sems) >= 500
        assert sum(sems) / len(sems) < 0.2

    def test_monotone_skill_means_monotone_certainty(self):
        # mean c_min over a fixed evaluation set is nondecreasing across
        # three increasing skill levels (1% slack)
        world = generate_world(seed=8, image_count=40, kappa=3)
        image_ids = sorted(world.difficulty)
        means = []
        for exposures in (0, 30, 400):
            skill = SkillState(exposures=(exposures,) * 3)
            cmins = []
            for image_id in image_ids:
                passes = simulate_passes(world, skill, image_id, n=10, pass_seed=55)
                cmins.append(image_certainty(group_passes(passes)).c_min)
            means.append(sum(cmins) / len(cmins))
        assert means[1] >= means[0] - 0.01
        assert means[2] >= means[1] - 0.01
        assert means[2] > means[0]

    def test_difficulty_lowers_f1(self):
        # same gt layout, same skill: hard images (d >= 0.8) score strictly
        # lower mean F1 than easy images (d <= 0.2)
        objects = ((BoundingBox(100, 100, 220, 200), 0), (BoundingBox(400, 250, 520, 380), 1))
        easy = [f"easy_{i}" for i in range(25)]
        hard = [f"hard_{i}" for i in range(25)]
        world = hand_world({**dict.fromkeys(easy, 0.1), **dict.fromkeys(hard, 0.9)}, objects)
        skill = SkillState(exposures=(60, 60))

        def mean_f1(image_ids):
            preds = {}
            for image_id in image_ids:
                passes = simulate_passes(world, skill, image_id, n=8, pass_seed=31)
                preds[image_id] = consolidate(group_passes(passes))
            scores = f1_image(preds, {image_id: world.ground_truth()[image_id] for image_id in image_ids})
            return sum(scores.values()) / len(scores)

        assert mean_f1(hard) < mean_f1(easy)

    def test_passes_respect_run_thresholds(self):
        world = generate_world(seed=10, image_count=10, kappa=3)
        skill = SkillState.fresh(3)
        for image_id in world.difficulty:
            passes = simulate_passes(world, skill, image_id, n=5, pass_seed=3, confidence=0.5)
            assert len(passes.passes) == 5
            for pass_dets in passes.passes:
                for d in pass_dets:
                    assert max(d.scores) >= 0.5


def generator_at(row):
    """A generator seeded from a ``pass_states`` row."""
    words = np.ascontiguousarray(row, dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(simulator._SeedWords(words)))


def first_draws(generator):
    return (
        generator.random(3).tolist(),
        generator.standard_normal(3).tolist(),
        generator.standard_gamma(0.5, 3).tolist(),
    )


class TestPassStates:
    """The bulk seed words equal numpy's own, and the pass seed rule is the documented one."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_equals_pcg64_seeding(self, seeds):
        rows = simulator._seed_words(np.array(seeds, dtype=np.uint64))
        assert rows.shape == (len(seeds), 4) and rows.dtype == np.uint64
        for seed, row in zip(seeds, rows):
            assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            expected = np.random.PCG64(seed)
            assert np.random.PCG64(simulator._SeedWords(row)).state == expected.state
            assert first_draws(generator_at(row)) == first_draws(np.random.Generator(expected))

    @pytest.mark.parametrize(
        "n_words, dtype", [(2, np.uint64), (8, np.uint64), (4, np.uint32), (4, np.float64)]
    )
    def test_seed_words_answer_only_pcg64s_request(self, n_words, dtype):
        words = simulator._SeedWords(np.zeros(4, dtype=np.uint64))
        assert words.generate_state(4, np.uint64).tolist() == [0, 0, 0, 0]
        with pytest.raises(ValidationError):
            words.generate_state(n_words, dtype)

    def test_blake2b_seed_per_image_and_pass(self):
        pass_seed = 2**40 + 3
        ids = [f"img_{i}" for i in range(simulator._STATE_BLOCK + 6)]  # more than one block
        states = pass_states(pass_seed, ids, 3)
        assert states.shape == (len(ids), 3, 4) and states.dtype == np.uint64
        for i, image_id in enumerate(ids):
            assert states[i].tolist() == pass_states(pass_seed, [image_id], 3)[0].tolist()
            for k in range(3):
                digest = hashlib.blake2b(f"{pass_seed}|{image_id}|{k}".encode(), digest_size=8).digest()
                seed = int.from_bytes(digest, "little")
                assert first_draws(generator_at(states[i, k].tolist())) == first_draws(
                    np.random.Generator(np.random.PCG64(seed))
                )
        assert pass_states(pass_seed, [], 3).shape == (0, 3, 4)

    def test_simulate_passes_takes_any_layout_of_n_rows_only(self):
        world = generate_world(seed=4, image_count=4, kappa=3, objects_per_image=(2, 4))
        skill, image_id = SkillState.fresh(3), sorted(world.gt)[0]
        states = pass_states(5, [image_id], 6)[0]
        reversed_view = states[::-1]  # not contiguous: its rows are read through a copy
        assert image_key(simulate_passes(world, skill, image_id, 6, 5, states=reversed_view)) == image_key(
            simulate_passes(world, skill, image_id, 6, 5, states=states[::-1].copy())
        )
        for bad in (states[:5], states[:, :2], states.reshape(3, 8), states[None]):
            with pytest.raises(ValidationError, match=r"shape \(6, 4\)"):
                simulate_passes(world, skill, image_id, 6, 5, states=bad)


class TestArrayForms:
    """The array forms ``simulate_passes`` draws and computes with equal the scalar calls."""

    def test_out_draws_equal_sized_draws(self):
        a, b = np.random.Generator(np.random.PCG64(5)), np.random.Generator(np.random.PCG64(5))
        for kappa in (2, 9, 33):
            normal = np.empty(4)
            a.standard_normal(out=normal)
            assert normal.tolist() == b.normal(0.0, 1.0, size=4).tolist()
            for shape in (simulator.NOISE_CONCENTRATION, simulator.FP_CONCENTRATION):
                gamma = np.empty(kappa)
                a.standard_gamma(shape, out=gamma)
                assert gamma.tolist() == b.gamma(shape, size=kappa).tolist()

    def test_row_sums_equal_vector_sums(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for kappa in range(2, 34):
            gamma = rng.gamma(0.5, size=(20, 5, kappa))
            sums = gamma.sum(axis=-1, keepdims=True)
            assert sums.ravel().tolist() == [row.sum() for row in gamma.reshape(-1, kappa)]

    def test_place_box_equals_uniform_draws(self):
        a, b = np.random.Generator(np.random.PCG64(11)), np.random.Generator(np.random.PCG64(11))
        width, height = simulator.IMAGE_SIZE
        u = b.random((2000, 4))
        rows = np.stack(simulator._place_box(*u.T, width, height), axis=-1).tolist()
        for row, draws in zip(rows, u.tolist()):
            bw = a.uniform(0.10, 0.28) * width
            bh = a.uniform(0.10, 0.28) * height
            x0 = a.uniform(0.0, width - bw)
            y0 = a.uniform(0.0, height - bh)
            assert simulator._place_box(*draws, width, height) == (x0, y0, x0 + bw, y0 + bh)
            assert tuple(row) == (x0, y0, x0 + bw, y0 + bh)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_category_draw_equals_choice(self, seed):
        for kappa in range(2, 34):
            a, b = np.random.Generator(np.random.PCG64(seed)), np.random.Generator(np.random.PCG64(seed))
            weights = simulator._category_weights(kappa)
            cdf = weights.cumsum()
            cdf = (cdf / cdf[-1]).tolist()
            drawn = [bisect_right(cdf, a.random()) for _ in range(2000)]
            assert drawn == [int(b.choice(kappa, p=weights)) for _ in range(2000)]
            assert a.bit_generator.state == b.bit_generator.state

    def test_difficulty_draw_equals_uniform(self):
        a, b = np.random.Generator(np.random.PCG64(17)), np.random.Generator(np.random.PCG64(17))
        for _ in range(2000):
            assert a.random() == b.uniform(0.0, 1.0)
        assert a.bit_generator.state == b.bit_generator.state


# sha256 of save_image_passes over pinned_passes(), recorded before the simulator drew
# its passes into arrays; any change to a draw, its order or the arithmetic moves it
PINNED_PASSES_SHA256 = "ebcd5cb5284f20db7474995ef81ca2bbb287fbf6857af5d35f8a8f7206b5033c"


def pinned_passes():
    """κ = 2 and 12, object-free images, zero to high skill, a pass seed past 2**32, raw and cut passes."""
    images = []
    for kappa, seed in ((2, 2), (12, 9)):
        world = generate_world(seed=seed, image_count=8, kappa=kappa, objects_per_image=(0, 5))
        assert any(not gt.objects for gt in world.gt.values())
        skills = (
            SkillState.fresh(kappa),
            train_update(SkillState.fresh(kappa), world.gt.values()),
            SkillState((10**6,) * kappa),
        )
        for skill in skills:
            for pass_seed in (3, 2**32 + 17):
                for confidence, nms_iou in ((0.5, 0.3), (0.0, 1.0)):
                    images.extend(
                        simulate_passes(world, skill, i, 7, pass_seed, confidence, nms_iou)
                        for i in sorted(world.gt)
                    )
    return images


class TestPinnedOutput:
    def test_pinned_digest(self, tmp_path):
        path = tmp_path / "passes.jsonl"
        save_image_passes(pinned_passes(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_PASSES_SHA256

    def test_adapter_request_equals_per_image_calls(self, tmp_path):
        world = generate_world(
            seed=9, image_count=simulator._STATE_BLOCK + 16, kappa=12, objects_per_image=(0, 5)
        )
        ids = sorted(world.gt)
        (tmp_path / "trainset_iter_0.txt").write_text("".join(f"{i}\n" for i in world.manifest.initial_training))
        request = {
            "iteration": 0, "image_ids": ids, "passes": 7, "pass_seed": 2**32 + 17,
            "confidence": 0.5, "nms_iou": 0.3,
        }
        (tmp_path / "request.json").write_text(json.dumps(request))
        adapter = SimulatorDetectorAdapter(world, tmp_path)
        adapter.fulfill_detection_request(tmp_path / "request.json", tmp_path / "out.jsonl")
        skill = adapter.skill(0)
        expected = [simulate_passes(world, skill, i, 7, 2**32 + 17, 0.5, 0.3) for i in ids]
        save_image_passes(expected, tmp_path / "expected.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


class TestSkillState:
    def test_skill_saturates(self):
        s = SkillState(exposures=(0, 20, 10**9))
        assert s.skill(0) == 0.0
        assert s.skill(1) == pytest.approx(0.5)
        assert 0.999 < s.skill(2) < 1.0

    def test_train_update_counts_instances(self):
        s = SkillState.fresh(5)
        gt = GroundTruthImage(
            "a", ((BoundingBox(0, 0, 10, 10), 3), (BoundingBox(20, 20, 30, 30), 3))
        )
        updated = train_update(s, [gt])
        assert updated.exposures == (0, 0, 0, 2, 0)

    def test_train_update_empty_batch(self):
        s = SkillState(exposures=(1, 2))
        assert train_update(s, []) == s

    def test_train_update_monotone_skill(self):
        s = SkillState.fresh(2)
        gt = GroundTruthImage("a", ((BoundingBox(0, 0, 10, 10), 0),))
        updated = train_update(s, [gt])
        assert updated.skill(0) >= s.skill(0)
        assert updated.skill(1) == s.skill(1)
