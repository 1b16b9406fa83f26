"""The certainty definitions, on the scalar rule ``oracles.scalar_triple``, and the image reduction to c_min.

``tests/test_reference.py`` holds the set kernel to ``scalar_triple`` bit for bit.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest

from boxal.certainty import CertaintyTriple, _certainties, image_certainty
from boxal.data_io import Detection
from boxal.geometry import BoundingBox
from boxal.grouping import group_passes
from boxal.sampling import rank

from oracles import image_passes, members_of, random_passes, request_of, scalar_triple

# frozen high-precision value for 1 - H(0.9, 0.1)/log(2), computed with a
# 50-digit arbitrary-precision evaluation
C_SEM_09_01 = 0.53100440641071878


def det(x0, y0, x1, y1, scores):
    return Detection(BoundingBox(float(x0), float(y0), float(x1), float(y1)), tuple(scores))


def make_set(*members):
    """A set's (pass index, detection) members, in pass order."""
    return members


def semantic_certainty(s, kappa):
    return scalar_triple(s, kappa, len(s))[0]


def spatial_certainty(s):
    return scalar_triple(s, 2, len(s))[1]


def occurrence_certainty(s, n):
    return scalar_triple(s, 2, n)[2]


def certainty_of(img):
    return image_certainty(group_passes(img))


def set_triples(img, kappa, n):
    """The scalar certainty triple of each instance set of ``img``, in set order."""
    return [scalar_triple(members, kappa, n) for members in members_of(group_passes(img))]


def product(triple):
    """c_h: the product of the three factors."""
    c_sem, c_spa, c_occ = triple
    return c_sem * c_spa * c_occ


class TestSemanticCertainty:
    def test_one_hot_is_one(self):
        for kappa in (2, 5, 9):
            scores = (1.0,) + (0.0,) * (kappa - 1)
            s = make_set((0, det(0, 0, 10, 10, scores)))
            assert semantic_certainty(s, kappa) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_is_zero(self):
        for kappa in (2, 4, 10):
            scores = (1.0 / kappa,) * kappa
            s = make_set((0, det(0, 0, 10, 10, scores)))
            assert semantic_certainty(s, kappa) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_binary_case(self):
        s = make_set((0, det(0, 0, 10, 10, (0.9, 0.1))))
        got = semantic_certainty(s, 2)
        assert got == pytest.approx(C_SEM_09_01, abs=1e-9)
        assert got == pytest.approx(0.531004, abs=1e-5)

    def test_mean_over_members(self):
        a = det(0, 0, 10, 10, (1.0, 0.0))
        b = det(0, 0, 10, 10, (0.5, 0.5))
        s = make_set((0, a), (1, b))
        assert semantic_certainty(s, 2) == pytest.approx(0.5, abs=1e-9)

    def test_base_invariance_1000_vectors(self):
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(1000):
            kappa = int(rng.integers(2, 12))
            raw = rng.gamma(rng.uniform(0.2, 3.0), size=kappa) + 1e-12
            p = raw / raw.sum()
            h_nat = -sum(v * math.log(v) for v in p if v > 0)
            h_two = -sum(v * math.log2(v) for v in p if v > 0)
            natural = 1.0 - h_nat / math.log(kappa)
            base2 = 1.0 - h_two / math.log2(kappa)
            assert abs(natural - base2) <= 1e-12


class TestSpatialCertainty:
    def test_identical_boxes(self):
        d = det(5, 5, 15, 15, (1.0, 0.0))
        s = make_set((0, d), (1, d), (2, d))
        assert spatial_certainty(s) == pytest.approx(1.0, abs=1e-9)

    def test_single_member(self):
        s = make_set((0, det(5, 5, 15, 15, (1.0, 0.0))))
        assert spatial_certainty(s) == pytest.approx(1.0, abs=1e-9)

    def test_two_shifted_boxes(self):
        # mean of (0,0,10,10) and (2,0,12,10) is (1,0,11,10);
        # IoU of each member with the mean is 90/110
        s = make_set((0, det(0, 0, 10, 10, (1.0, 0.0))), (1, det(2, 0, 12, 10, (1.0, 0.0))))
        assert spatial_certainty(s) == pytest.approx(90.0 / 110.0, abs=1e-9)


class TestOccurrenceCertainty:
    @pytest.mark.parametrize("r,n,want", [(15, 15, 1.0), (3, 15, 0.2), (1, 15, 1.0 / 15.0)])
    def test_ratio(self, r, n, want):
        d = det(0, 0, 10, 10, (1.0, 0.0))
        s = make_set(*((p, d) for p in range(r)))
        assert occurrence_certainty(s, n) == pytest.approx(want, abs=1e-9)

    def test_a_set_is_a_share_of_its_own_images_passes(self):
        # one request whose images have 2 and 4 passes: each set's c_occ divides by its image's pass count
        d, e = det(0, 0, 10, 10, (0.8, 0.2)), det(50, 50, 60, 60, (0.3, 0.7))
        images = request_of([("two", 100, 100, ((d, e), (d,))), ("four", 100, 100, ((d,), (), (d, e), (e,)))])
        got = []
        for img, n in zip(images, (2, 4)):
            sets = group_passes(img)
            _, triples = _certainties(sets[0].sets)
            for s, members in zip(sets, members_of(sets)):
                assert triples[s.index, 2] == scalar_triple(members, 2, n)[2]
                got.append(triples[s.index, 2])
        assert got == [1.0, 0.5, 0.5, 0.5]


class TestCombinedCertainty:
    def test_all_ones(self):
        # a one-hot detection at one place in every pass: each factor is 1, and so is c_h
        d = det(0, 0, 10, 10, (1.0, 0.0))
        assert scalar_triple(make_set((0, d), (1, d)), 2, 2) == (1.0, 1.0, 1.0)
        assert certainty_of(image_passes("x", 100, 100, ((d,), (d,)))).c_min == 1.0

    def test_product(self):
        # one-hot scores (c_sem 1), two shifted boxes (c_spa 90/110) in 2 of 4 passes (c_occ 0.5)
        a, b = det(0, 0, 10, 10, (1.0, 0.0)), det(2, 0, 12, 10, (1.0, 0.0))
        ic = certainty_of(image_passes("x", 100, 100, ((a,), (b,), (), ())))
        assert ic.c_min == pytest.approx(90.0 / 110.0 * 0.5, abs=1e-12)
        assert ic.c_min == product(astuple(ic.min_triple))

    def test_bounded_by_factors(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(200):
            img = random_passes(rng)
            for triple in set_triples(img, kappa=3, n=len(img.passes)):
                assert 0.0 <= product(triple) <= min(triple) + 1e-15


class TestImageCertainty:
    def test_min_over_sets(self):
        # three spatially separated sets with distinct certainties
        passes = (
            (det(0, 0, 10, 10, (1.0, 0.0)), det(40, 40, 50, 50, (0.6, 0.4))),
            (det(0, 0, 10, 10, (1.0, 0.0)),),
        )
        img = image_passes("x", 100, 100, passes)
        ic = certainty_of(img)
        triples = set_triples(img, kappa=2, n=2)
        assert ic.set_count == len(triples) == 2
        assert ic.c_min == min(map(product, triples))
        assert astuple(ic.min_triple) == min(triples, key=product)

    def test_single_set(self):
        img = image_passes("x", 100, 100, ((det(0, 0, 10, 10, (0.8, 0.2)),), ()))
        ic = certainty_of(img)
        assert ic.set_count == 1
        assert ic.c_min == product(set_triples(img, kappa=2, n=2)[0])

    def test_no_detections_certainty_one(self):
        img = image_passes("blank", 100, 100, ((), (), ()))
        ic = certainty_of(img)
        assert ic.set_count == 0
        assert ic.c_min == 1.0
        assert ic.min_triple == CertaintyTriple(1.0, 1.0, 1.0)

    def test_permuting_members_leaves_triple_unchanged(self):
        rng = np.random.Generator(np.random.PCG64(3))
        d1 = det(0, 0, 10, 10, (0.7, 0.3))
        d2 = det(1, 0, 11, 10, (0.6, 0.4))
        d3 = det(0, 1, 10, 11, (0.9, 0.1))
        dets = [d1, d2, d3]  # a set's members are summed in pass order: permute which pass holds which
        base = scalar_triple(make_set(*enumerate(dets)), kappa=2, n=5)
        for _ in range(5):
            rng.shuffle(dets)
            shuffled = scalar_triple(make_set(*enumerate(dets)), kappa=2, n=5)
            assert shuffled[:2] == pytest.approx(base[:2], abs=1e-12)
            assert shuffled[2] == base[2]

    def test_adding_a_set_cannot_increase_cmin(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(30):
            img = random_passes(rng)
            ic = certainty_of(img)
            # append an extra detection far from the 100x100 content grid
            extra = det(110, 110, 118, 118, (0.5, 0.3, 0.2))
            bigger = image_passes(
                img.image_id, 120, 120,
                (img.passes[0] + (extra,),) + img.passes[1:],
            )
            ic2 = certainty_of(bigger)
            assert ic2.set_count == ic.set_count + 1
            assert ic2.c_min <= ic.c_min + 1e-15

    def test_all_values_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(50):
            img = random_passes(rng)
            ic = certainty_of(img)
            assert 0.0 <= ic.c_min <= 1.0
            for t in set_triples(img, kappa=3, n=len(img.passes)):
                for v in (*t, product(t)):
                    assert -1e-12 <= v <= 1.0 + 1e-12
                assert ic.c_min <= product(t)


class TestRankPool:
    def blank(self, image_id):
        return image_passes(image_id, 10, 10, ((), ()))

    def one_set(self, image_id, scores):
        return image_passes(image_id, 100, 100, ((det(0, 0, 10, 10, scores),), ()))

    def rank_pool(self, pool):
        return rank((img.image_id, certainty_of(img).c_min) for img in pool)

    def test_singleton_pool(self):
        assert self.rank_pool([self.blank("only")]) == [("only", 1.0)]

    def test_ascending_order(self):
        sharp = self.one_set("sharp", (1.0, 0.0))      # higher c_min
        fuzzy = self.one_set("fuzzy", (0.55, 0.45))    # lower c_min
        ranking = self.rank_pool([sharp, fuzzy])
        assert [r[0] for r in ranking] == ["fuzzy", "sharp"]
        assert ranking[0][1] <= ranking[1][1]

    def test_tie_broken_by_image_id(self):
        ranking = self.rank_pool([self.blank("b"), self.blank("a")])
        assert [r[0] for r in ranking] == ["a", "b"]
