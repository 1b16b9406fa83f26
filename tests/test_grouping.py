import numpy as np
import pytest

from boxal.data_io import Detection
from boxal.geometry import BoundingBox, iou
from boxal.grouping import group_passes

from oracles import brute_force_grouping, image_passes, random_passes


def det(x0, y0, x1, y1, scores=(1.0, 0.0)):
    return Detection(BoundingBox(float(x0), float(y0), float(x1), float(y1)), tuple(scores))


def members_of(sets):
    return [list(s.members) for s in sets]


class TestExamples:
    def test_two_passes_overlapping_one_set(self):
        a = det(0, 0, 10, 10)
        b = det(1, 0, 11, 10)
        assert iou(a.box, b.box) >= 0.5  # ~0.818
        img = image_passes("x", 100, 100, ((a,), (b,)))
        (s,) = group_passes(img)
        assert s.members == ((0, a), (1, b))
        assert s.size == 2

    def test_two_passes_disjoint_two_sets(self):
        a = det(0, 0, 10, 10)
        b = det(50, 50, 60, 60)
        img = image_passes("x", 100, 100, ((a,), (b,)))
        sets = group_passes(img)
        assert [s.size for s in sets] == [1, 1]
        assert [s.members for s in sets] == [((0, a),), ((1, b),)]  # creation order

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
        sets = group_passes(img)
        assert [s.size for s in sets] == [2, 1]
        assert sets[0].members == ((0, a), (1, b1))
        assert sets[1].members == ((1, b2),)

    def test_best_match_wins(self):
        # pass-1 seeds two sets; the pass-2 box overlaps both but more with b
        a = det(0, 0, 20, 10, (0.9, 0.1))
        b = det(4, 0, 24, 10, (0.8, 0.2))
        c = det(3, 0, 23, 10, (0.9, 0.1))  # IoU 17/23 with a, 19/21 with b
        assert iou(c.box, a.box) >= 0.5 and iou(c.box, b.box) > iou(c.box, a.box)
        img = image_passes("x", 100, 100, ((a, b), (c,)))
        sets = group_passes(img)
        assert sets[1].members == ((0, b), (1, c))

    def test_new_set_closed_to_same_pass_joins(self):
        # both pass-1 detections overlap each other, but same-pass detections
        # never share a set
        a = det(0, 0, 10, 10, (0.9, 0.1))
        b = det(1, 0, 11, 10, (0.8, 0.2))
        img = image_passes("x", 100, 100, ((a, b),))
        assert [s.size for s in group_passes(img)] == [1, 1]


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
        sets = group_passes(img)
        n = len(img.passes)
        everything = []
        for s in sets:
            assert 1 <= s.size <= n
            pass_indices = [p for p, _ in s.members]
            assert len(set(pass_indices)) == len(pass_indices)
            everything.extend(s.members)
        original = [(p, d) for p, dets in enumerate(img.passes) for d in dets]
        assert sorted(everything, key=repr) == sorted(original, key=repr)

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(99))
        img = random_passes(rng)
        assert [s.members for s in group_passes(img)] == [s.members for s in group_passes(img)]
