import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from boxal import grouping
from boxal.certainty import image_certainty
from boxal.data_io import Detection, apply_thresholds, load_image_passes, save_image_passes
from boxal.evaluation import consolidate
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, cap_image, greedy_match, image_passes, members_of, random_passes, request_of


def det(x0, y0, x1, y1, scores=(1.0, 0.0)):
    return Detection(BoundingBox(float(x0), float(y0), float(x1), float(y1)), tuple(scores))


class TestExamples:
    def test_two_passes_overlapping_one_set(self):
        a = det(0, 0, 10, 10)
        b = det(1, 0, 11, 10)
        assert iou(a.box, b.box) >= 0.5  # ~0.818
        img = image_passes("x", 100, 100, ((a,), (b,)))
        assert members_of(group_passes(img)) == [[(0, a), (1, b)]]

    def test_two_passes_disjoint_two_sets(self):
        a = det(0, 0, 10, 10)
        b = det(50, 50, 60, 60)
        img = image_passes("x", 100, 100, ((a,), (b,)))
        assert members_of(group_passes(img)) == [[(0, a)], [(1, b)]]  # creation order

    def test_all_passes_empty(self):
        img = image_passes("x", 100, 100, ((), (), ()))
        assert group_passes(img) == []

    def test_one_member_per_pass(self):
        # two near-identical detections in pass 2 both match the pass-1 seed;
        # only the canonical-first one may join, the other seeds a new set
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b1 = det(0, 0, 10, 10, (0.8, 0.2))
        b2 = det(1, 0, 11, 10, (0.7, 0.3))
        img = image_passes("x", 100, 100, ((a,), (b1, b2)))
        assert members_of(group_passes(img)) == [[(0, a), (1, b1)], [(1, b2)]]

    def test_best_match_wins(self):
        # pass-1 seeds two sets; the pass-2 box overlaps both but more with b
        a = det(0, 0, 20, 10, (0.9, 0.1))
        b = det(4, 0, 24, 10, (0.8, 0.2))
        c = det(3, 0, 23, 10, (0.9, 0.1))  # IoU 17/23 with a, 19/21 with b
        assert iou(c.box, a.box) >= 0.5 and iou(c.box, b.box) > iou(c.box, a.box)
        img = image_passes("x", 100, 100, ((a, b), (c,)))
        assert members_of(group_passes(img))[1] == [(0, b), (1, c)]

    def test_new_set_closed_to_same_pass_joins(self):
        # both pass-1 detections overlap each other, but same-pass detections
        # never share a set
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b = det(1, 0, 11, 10, (0.8, 0.2))
        img = image_passes("x", 100, 100, ((a, b),))
        assert members_of(group_passes(img)) == [[(0, a)], [(0, b)]]


class TestInvariants:
    # 0.0 and 1.0 decide the ``>=`` rule and the earliest-set tie rule
    @pytest.mark.parametrize("match_iou", [0.0, 0.3, 0.5, 1.0])
    def test_oracle_equivalence_500_instances(self, match_iou):
        rng = np.random.Generator(np.random.PCG64(20240817))
        for i in range(500):
            img = random_passes(rng, image_id=f"case_{i}")
            got = members_of(group_passes(img, match_iou))
            want = brute_force_grouping(img, match_iou, iou)
            assert got == want, f"case {i} diverged"

    @pytest.mark.parametrize("seed", range(40))
    def test_partition_and_size_invariants(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        img = random_passes(rng)
        n = len(img.passes)
        everything = []
        for members in members_of(group_passes(img)):
            assert 1 <= len(members) <= n
            pass_indices = [p for p, _ in members]
            assert len(set(pass_indices)) == len(pass_indices)
            everything.extend(members)
        original = [(p, d) for p, dets in enumerate(img.passes) for d in dets]
        assert sorted(everything, key=repr) == sorted(original, key=repr)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(99))
        img = random_passes(rng)
        assert members_of(group_passes(img)) == members_of(group_passes(img))


def random_request(rng, images):
    """A request of ``images`` random images of 1 to 5 passes and 0 to 25 detections per pass.

    Every seventh image has an empty first pass, and every fifth holds no detection at all.
    """
    specs = []
    for i in range(images):
        img = random_passes(rng, f"img_{i}", max_passes=5, max_dets=int(rng.choice([1, 4, 10, 25])))
        passes = img.passes
        if i % 7 == 0:
            passes = ((),) + passes[1:]
        if i % 5 == 0:
            passes = tuple(() for _ in passes)
        specs.append((img.image_id, img.width, img.height, passes))
    return request_of(specs)


class TestLockstep:
    """The array form of the greedy rule, and requests grouped in lockstep chunk by chunk."""

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
    def test_array_steps_equal_greedy_match(self, threshold):
        # several value tables in lockstep, one row of each per step, as grouping steps its images;
        # five levels make ties everywhere, and a table's padded columns are never open
        rng = np.random.Generator(np.random.PCG64(19))
        levels = np.array([0.0, 0.3, 0.5, 0.7, 1.0])
        for case in range(300):
            tables = [levels[rng.integers(0, 5, size=(rng.integers(0, 7), rng.integers(1, 7)))] for _ in range(4)]
            rows, columns = max(map(len, tables)), max(t.shape[1] for t in tables)
            values = np.zeros((len(tables), rows, columns))
            open_sets = np.zeros((len(tables), columns), dtype=bool)
            for b, table in enumerate(tables):
                values[b, : len(table), : table.shape[1]] = table
                open_sets[b, : table.shape[1]] = True
            got = [[] for _ in tables]
            for r in range(rows):
                live = np.array([b for b, table in enumerate(tables) if len(table) > r])
                best = grouping._best_open(values[live, r], open_sets[live], threshold)
                for b, column in zip(live.tolist(), best.tolist()):
                    got[b].append(column)
                open_sets[live[best >= 0], best[best >= 0]] = False
            want = [greedy_match([list(enumerate(row)) for row in table.tolist()], threshold) for table in tables]
            assert got == want, case

    @pytest.mark.parametrize("chunk_rows", [grouping.CHUNK_ROWS, 40])
    @pytest.mark.parametrize("match_iou", [0.0, 0.3, 0.5, 1.0])
    def test_a_request_across_chunks_equals_brute_force_grouping(self, monkeypatch, chunk_rows, match_iou):
        monkeypatch.setattr(grouping, "CHUNK_ROWS", chunk_rows)
        images = random_request(np.random.Generator(np.random.PCG64(23)), 200)
        sizes = [len(img.rows) for img in images]
        # more than one chunk, and images without sets
        assert max(sizes) * sum(map(bool, sizes)) > grouping.CHUNK_ROWS and 0 in sizes
        assert len({len(img.bounds) for img in images}) > 1  # unequal pass counts
        width = max(len(img.bounds) for img in images) - 1
        for img in images:
            sets, want = group_passes(img, match_iou), brute_force_grouping(img, match_iou, iou)
            assert members_of(sets) == want, img.image_id
            # set s holds a batch row in pass slot p exactly when its members list pass p
            slots = [np.flatnonzero(s.sets.rows[s.index] >= 0).tolist() for s in sets]
            assert slots == [[p for p, _ in members] for members in want], img.image_id
            assert all(s.sets.rows.shape[1] == width for s in sets)

    @pytest.mark.parametrize("match_iou", [0.0, 0.3, 0.5, 1.0])
    def test_an_image_at_the_cap_equals_brute_force_grouping(self, match_iou):
        img = cap_image(np.random.Generator(np.random.PCG64(29)))
        assert [len(p) for p in img.passes] == [100] * 15
        assert members_of(group_passes(img, match_iou)) == brute_force_grouping(img, match_iou, iou)


def scored(images, match_iou):
    """Each image's certainty and predictions, the first calls making every set of its request."""
    out = []
    for img in images:
        sets = group_passes(img, match_iou)
        out.append((image_certainty(sets), consolidate(sets)))
    return out


def kernel_peak(images, match_iou) -> tuple[int, int]:
    """The most bytes that grouping, certainty and consolidation of a request hold at once, and the bytes
    they leave held: the request's sets, scores and predictions."""
    tracemalloc.start()
    try:
        results = scored(images, match_iou)
        retained, peak = tracemalloc.get_traced_memory()
        assert results
        return peak, retained
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_a_request_of_many_small_images_holds_a_few_mb_of_temporaries(self):
        images = random_request(np.random.Generator(np.random.PCG64(31)), 2000)
        peak, retained = kernel_peak(images, 0.5)
        assert peak - retained < 4e6  # a (B, D, D) block of the chunk budget alone would take another 4 MB

    @pytest.mark.parametrize("match_iou, bound", [(0.5, 8e6), (1.0, 32e6)])
    def test_an_image_at_the_cap_stays_below_the_old_bound(self, match_iou, bound):
        # at match IoU 1 no jittered copy joins another, so every detection seeds a set: the worst case;
        # the old bound, a D x D matrix and its temporaries, was about 56 MB
        peak, _ = kernel_peak([cap_image(np.random.Generator(np.random.PCG64(29)))], match_iou)
        assert peak < bound

    def test_two_images_at_the_cap_are_grouped_apart(self):
        # B * D_max fits the row budget, but two (S, D) blocks of every detection's set would take 36 MB
        rng = np.random.Generator(np.random.PCG64(41))
        images = request_of([(f"cap{i}", 1000, 1000, cap_image(rng).passes) for i in range(2)])
        assert 2 * 1500 <= grouping.CHUNK_ROWS
        peak, _ = kernel_peak(images, 1.0)
        assert peak < 32e6

    def test_dropping_a_requests_views_frees_its_batch(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_image_passes(random_request(np.random.Generator(np.random.PCG64(37)), 50), path)

        def score():
            images = load_image_passes(path)
            kept = [apply_thresholds(img, 0.5, 0.3) for img in images]
            return weakref.ref(images[0].batch), scored(kept, 0.5)

        gc.disable()  # a reference cycle would keep the batch until a collection
        try:
            batch, results = score()
            assert results and batch() is None
        finally:
            gc.enable()
