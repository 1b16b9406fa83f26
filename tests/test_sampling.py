import numpy as np
import pytest

from boxal.errors import ValidationError
from boxal.sampling import (
    STREAM_STRIDE,
    rank,
    sample_min_certainty,
    sample_random,
    substream_seed,
)


class TestSubstreamSeed:
    def test_stride_is_odd_64_bit(self):
        assert STREAM_STRIDE % 2 == 1
        assert STREAM_STRIDE < 2**64

    def test_matches_documented_derivation(self):
        for seed, iteration in [(0, 0), (7, 3), (2**63, 41)]:
            want = (seed ^ ((iteration * STREAM_STRIDE) % 2**64)) % 2**64
            assert substream_seed(seed, iteration) == want

    def test_distinct_across_iterations(self):
        seeds = {substream_seed(123, i) for i in range(100)}
        assert len(seeds) == 100


class TestMinCertaintySampling:
    RANKING = [("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4), ("e", 0.5)]

    def test_takes_lowest(self):
        assert sample_min_certainty(self.RANKING, 2) == ["a", "b"]

    def test_whole_pool(self):
        assert sample_min_certainty(self.RANKING, 5) == ["a", "b", "c", "d", "e"]

    def test_oversampling_rejected(self):
        for n in (6, -1):
            with pytest.raises(ValidationError):
                sample_min_certainty(self.RANKING, n)

    def test_ranks_unordered_input(self):
        scores = [("d", 0.4), ("b", 0.1), ("a", 0.2), ("c", 0.1)]
        assert sample_min_certainty(scores, 3) == ["b", "c", "a"]

    def test_split_point_property(self):
        # max c_min of the selection <= min c_min of the remainder
        rng = np.random.Generator(np.random.PCG64(0))
        values = sorted(float(v) for v in rng.uniform(0, 1, size=50))
        ranking = [(f"im{i:02d}", v) for i, v in enumerate(values)]
        chosen = set(sample_min_certainty(ranking, 20))
        selected_max = max(v for i, v in ranking if i in chosen)
        remainder_min = min(v for i, v in ranking if i not in chosen)
        assert selected_max <= remainder_min


class TestRank:
    def test_ascending_then_image_id_keeping_extra_columns(self):
        rows = [("b", 0.5, "x"), ("c", 0.2, "y"), ("a", 0.5, "z")]
        assert rank(rows) == [("c", 0.2, "y"), ("a", 0.5, "z"), ("b", 0.5, "x")]


class TestRandomSampling:
    POOL = [f"im{i:03d}" for i in range(30)]

    def test_deterministic(self):
        a = sample_random(self.POOL, 10, seed=5, iteration=2)
        b = sample_random(self.POOL, 10, seed=5, iteration=2)
        assert a == b

    def test_whole_pool(self):
        assert sample_random(self.POOL, 30, seed=1, iteration=0) == sorted(self.POOL)

    def test_oversampling_rejected(self):
        for n in (31, -1):
            with pytest.raises(ValidationError):
                sample_random(self.POOL, n, seed=1, iteration=0)

    def test_duplicate_free_subset_sorted(self):
        out = sample_random(self.POOL, 12, seed=9, iteration=4)
        assert len(out) == 12
        assert len(set(out)) == 12
        assert set(out) <= set(self.POOL)
        assert out == sorted(out)

    def test_iterations_draw_differently(self):
        draws = {tuple(sample_random(self.POOL, 10, seed=5, iteration=i)) for i in range(10)}
        assert len(draws) > 1

    def test_uniformity_10000_draws(self):
        # 10,000 single draws from 10 items: each count within 5 sigma of
        # 1000 (sigma = sqrt(10000 * 0.1 * 0.9) = 30)
        pool = [f"p{i}" for i in range(10)]
        counts = {p: 0 for p in pool}
        for i in range(10_000):
            (chosen,) = sample_random(pool, 1, seed=2024, iteration=i)
            counts[chosen] += 1
        for p, c in counts.items():
            assert 850 <= c <= 1150, f"{p} drawn {c} times"
