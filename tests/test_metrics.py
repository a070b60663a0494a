import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_force_acceptable_pairs,
    brute_force_c_index,
    duplicated_scores,
    make_dataset,
    random_survival_dataset,
)
from censrank.errors import UndefinedMetricError
from censrank.metrics import _enumerate_pairs, acceptable_pairs, c_index, c_index_from_pairs


def _listed(pairs):
    return list(zip(pairs.i.tolist(), pairs.j.tolist()))


class TestAcceptablePairs:
    def test_two_observed_records(self):
        data = make_dataset([1.0, 2.0], [True, True])
        assert _listed(acceptable_pairs(data)) == [(0, 1)]

    def test_censored_anchor_excluded(self):
        # a censored record never anchors a pair but may terminate one
        data = make_dataset([1.0, 2.0, 3.0], [True, False, True])
        assert set(_listed(acceptable_pairs(data))) == {(0, 1), (0, 2)}

    def test_all_censored_is_empty(self):
        data = make_dataset([1.0, 2.0, 3.0], [False, False, False])
        assert len(acceptable_pairs(data)) == 0

    def test_equal_times_never_pair(self):
        data = make_dataset([2.0, 2.0], [True, True])
        assert len(acceptable_pairs(data)) == 0

    def test_grid_resolution_merges_same_bin_times(self):
        # 1.0 and 1.5 share a bin at width 2, so no pair survives binning
        data = make_dataset([1.0, 1.5], [True, True], bin_width=2.0)
        assert len(acceptable_pairs(data)) == 1
        assert len(_enumerate_pairs(data.bins, data.observed)[0]) == 0

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            got = set(_listed(acceptable_pairs(data)))
            assert got == brute_force_acceptable_pairs(times, observed)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_batch_listing_matches_brute_force_on_tied_bins(self, n):
        rng = np.random.default_rng(n)
        bins = rng.integers(0, 4, size=n)  # few bins, so most records tie
        for observed in (rng.random(n) < 0.6, np.zeros(n, dtype=bool)):
            i, j = _enumerate_pairs(bins, observed)
            assert i.dtype == j.dtype == np.int64
            assert list(zip(i.tolist(), j.tolist())) == sorted(
                brute_force_acceptable_pairs(bins, observed))


class TestCIndex:
    def test_perfect_ranking(self):
        times = np.asarray([3.0, 1.0, 2.0, 5.0])
        data = make_dataset(times, [True] * 4)
        assert c_index(data, times) == 1.0

    def test_constant_scores_give_half(self):
        data = make_dataset([1.0, 2.0, 3.0], [True, True, True])
        assert c_index(data, [7.0, 7.0, 7.0]) == 0.5

    def test_mixed_example(self):
        data = make_dataset([1.0, 2.0, 3.0], [True, False, True])
        assert c_index(data, [0.5, 0.2, 0.9]) == 0.5

    def test_all_censored_raises(self):
        data = make_dataset([1.0, 2.0], [False, False])
        with pytest.raises(UndefinedMetricError):
            c_index(data, [0.0, 1.0])

    def test_nonfinite_scores_rejected(self):
        data = make_dataset([1.0, 2.0], [True, True])
        with pytest.raises(ValueError):
            c_index(data, [0.0, float("nan")])

    def test_length_mismatch_rejected(self):
        data = make_dataset([1.0, 2.0], [True, True])
        with pytest.raises(ValueError):
            c_index(data, [0.0, 1.0, 2.0])

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            times, observed = random_survival_dataset(rng, max_n=50)
            data = make_dataset(times, observed)
            scores = rng.normal(size=len(times))
            pairs = acceptable_pairs(data)
            if len(pairs) == 0:
                continue
            base = c_index_from_pairs(pairs, scores)
            for transform in (lambda s: 3.0 * s + 2.0, np.tanh, lambda s: s**3):
                assert c_index_from_pairs(pairs, transform(scores)) == base

    def test_negating_scores_flips_concordance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            times, observed = random_survival_dataset(rng, max_n=50)
            scores = rng.normal(size=len(times))  # continuous, ties have measure 0
            data = make_dataset(times, observed)
            pairs = acceptable_pairs(data)
            if len(pairs) == 0:
                continue
            c = c_index_from_pairs(pairs, scores)
            assert c_index_from_pairs(pairs, -scores) == pytest.approx(1.0 - c, abs=1e-15)

    def test_matches_brute_force_with_duplicate_scores(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(60):
            times, observed = random_survival_dataset(rng, max_n=200)
            data = make_dataset(times, observed)
            scores = duplicated_scores(rng, len(times))
            try:
                expected = brute_force_c_index(times, observed, scores)
            except ZeroDivisionError:
                with pytest.raises(UndefinedMetricError):
                    c_index(data, scores)
                continue
            # bitwise equality, not approx: both sides are one exact
            # integer ratio away from the same rational
            assert c_index(data, scores) == expected
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1025])
    def test_matches_brute_force_across_block_boundaries(self, n):
        # sizes on either side of powers of two exercise the last, partial
        # block of every level; few distinct times and scores force ties
        rng = np.random.default_rng(n)
        for trial in range(4):
            times = rng.integers(0, max(2, n // 4), size=n).astype(np.float64)
            observed = rng.random(n) < 0.7
            scores = (
                duplicated_scores(rng, n) if trial % 2 else rng.integers(0, 5, size=n) * 0.5
            )
            data = make_dataset(times, observed)
            try:
                expected = brute_force_c_index(times, observed, scores)
            except ZeroDivisionError:
                with pytest.raises(UndefinedMetricError):
                    c_index(data, scores)
                continue
            assert c_index(data, scores) == expected

    def test_memory_is_linear_in_records(self):
        # about 3M acceptable pairs: listing them would take tens of MB
        rng = np.random.default_rng(11)
        n = 3000
        data = make_dataset(rng.exponential(100.0, size=n), rng.random(n) < 0.7)
        scores = duplicated_scores(rng, n)
        tracemalloc.start()
        try:
            c_index(data, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
