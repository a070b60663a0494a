import numpy as np
import pytest

from censrank.core import Dataset, TimeGrid, build_time_grid


class TestBuildTimeGrid:
    def test_unit_width_integer_times(self):
        grid = build_time_grid([0.0, 1.0, 2.0, 3.0], 1.0)
        assert grid.num_bins == 4
        assert grid.bin_width == 1.0

    def test_width_two(self):
        # max time 5 with width 2: floor(5/2)+1 = 3 bins
        assert build_time_grid([0.0, 5.0], 2.0).num_bins == 3

    def test_single_time(self):
        assert build_time_grid([10.0], 1.0).num_bins == 11

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError):
            build_time_grid([], 1.0)

    def test_bad_width_rejected(self):
        # 1e-320 is positive, but 1 / 1e-320 bins is more than a float can count
        for width in (0.0, -1.0, float("nan"), float("inf"), 1e-320, True):
            with pytest.raises(ValueError, match=f"bin_width {width}|got {width}"):
                build_time_grid([1.0], width)

    def test_a_width_that_needs_2_53_bins_or_more_is_too_small(self):
        # from 2^53 bins on, floor(max / width) + 1 no longer counts exactly and the
        # grid would miss its own last time
        for width in (1e-300, 7.25 / 2.0**53, 7.25 / (2.0**53 - 1)):
            with pytest.raises(ValueError, match="too small to count the grid's bins"):
                build_time_grid([1.5, 3.0, 7.25], width)
        grid = build_time_grid([1.5, 3.0, 7.25], 7.25 / (2.0**53 - 2))
        assert grid.num_bins < 2**53
        assert grid.bin_indices([1.5, 3.0, 7.25])[-1] == grid.num_bins - 1

    @pytest.mark.parametrize("width, bins, named", [
        (1.0, 2.9, "num_bins must be an integer >= 1"),
        (1.0, True, "num_bins must be an integer >= 1"),
        (1.0, 0, "num_bins must be an integer >= 1"),
        (True, 3, "bin_width must be a real number"),
        ("1", 3, "bin_width must be a real number"),
    ])
    def test_a_grid_checks_the_types_of_its_fields(self, width, bins, named):
        with pytest.raises(ValueError, match=named):
            TimeGrid(bin_width=width, num_bins=bins)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            build_time_grid([1.0, -0.5], 1.0)

    def test_built_grid_covers_its_times_without_clamping(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            times = rng.exponential(20.0, size=int(rng.integers(1, 40)))
            width = float(rng.uniform(0.1, 5.0))
            grid = build_time_grid(times, width)
            bins = grid.bin_indices(times)
            assert bins.min() >= 0 and bins.max() == grid.num_bins - 1

    def test_left_edges(self):
        grid = TimeGrid(bin_width=2.0, num_bins=3)
        assert np.array_equal(grid.left_edges(), [0.0, 2.0, 4.0])


def bin_index(grid, time):
    return int(grid.bin_indices([time])[0])


class TestBinIndex:
    def test_floor_semantics(self):
        grid = TimeGrid(bin_width=1.0, num_bins=4)
        assert bin_index(grid, 2.4) == 2

    def test_wide_bins(self):
        grid = TimeGrid(bin_width=2.0, num_bins=3)
        assert bin_index(grid, 5.0) == 2

    def test_negative_time_rejected(self):
        grid = TimeGrid(bin_width=1.0, num_bins=4)
        with pytest.raises(ValueError):
            bin_index(grid, -0.1)

    def test_monotone_in_time(self):
        grid = TimeGrid(bin_width=0.7, num_bins=58)  # covers [0, 40.6)
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 40.0, size=200))
        idx = grid.bin_indices(times)
        assert np.all(np.diff(idx) >= 0)
        assert np.array_equal(idx, [bin_index(grid, t) for t in times])

    def test_unclamped_lookup_rejects_overflow(self):
        grid = TimeGrid(bin_width=1.0, num_bins=4)
        assert bin_index(grid, 3.999) == 3
        for time in (4.0, 9.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"time {time} falls outside the 4-bin grid"):
                grid.bin_indices([1.0, time, 2.0])


class TestDataset:
    def _small(self):
        grid = TimeGrid(bin_width=1.0, num_bins=5)
        return Dataset(
            np.asarray([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
            np.asarray([0.5, 2.5, 4.0]),
            np.asarray([True, False, True]),
            grid,
        )

    def test_len_and_shapes(self):
        data = self._small()
        assert len(data) == 3
        assert data.n_features == 2

    def test_columns_frozen(self):
        data = self._small()
        with pytest.raises(ValueError):
            data.times[0] = 1.0
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.observed[0] = False

    def test_binned_times(self):
        data = self._small()
        assert np.array_equal(data.bins, [0, 2, 4])
        assert data.bins.dtype == np.int64
        with pytest.raises(ValueError):
            data.bins[0] = 1

    def test_censored_fraction(self):
        assert self._small().censored_fraction == pytest.approx(1.0 / 3.0)

    def test_subset_keeps_grid(self):
        data = self._small()
        sub = data.subset([2, 0])
        assert len(sub) == 2
        assert sub.grid is data.grid
        assert np.array_equal(sub.times, [4.0, 0.5])
        assert np.array_equal(sub.observed, [True, True])
        assert np.array_equal(sub.bins, [4, 0])

    def test_rejects_bad_time(self):
        grid = TimeGrid(bin_width=1.0, num_bins=5)
        for time in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Dataset(np.zeros((2, 1)), [1.0, time], [True, True], grid)

    def test_mismatched_lengths_rejected(self):
        grid = TimeGrid(bin_width=1.0, num_bins=5)
        with pytest.raises(ValueError):
            Dataset(
                np.zeros((3, 2)), np.asarray([1.0, 2.0]), np.asarray([True, True]), grid
            )

    def test_times_past_the_grid_rejected(self):
        data = self._small()
        tight = TimeGrid(bin_width=1.0, num_bins=2)
        with pytest.raises(ValueError, match="time 2.5 falls outside the 2-bin grid"):
            Dataset(data.features, data.times, data.observed, tight)
