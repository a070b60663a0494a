"""Survival data model: columnar datasets, the discrete time grid, and binning.

Times live on a uniform grid of left-closed/right-open bins
``[k*w, (k+1)*w)`` from 0; a time at an exact bin boundary belongs to the
higher bin.  A Dataset bins its records once, when it is built, and a time
outside its grid is an error there, never moved into the last bin.  All
types are immutable after construction and safe to share across workers.
"""

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "Dataset", "build_time_grid"]


def _frozen_array(values, dtype):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _check_int(name, value, least):
    """Raise a ValueError naming `name` unless `value` is an integer (not a bool) >= `least`."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name, value):
    """Raise a ValueError naming `name` unless `value` is a real number (not a bool)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discrete time axis from 0: `num_bins` bins of width
    `bin_width` days."""

    bin_width: float
    num_bins: int

    def __post_init__(self):
        _check_real("bin_width", self.bin_width)
        if not (np.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        _check_int("num_bins", self.num_bins, 1)
        object.__setattr__(self, "bin_width", float(self.bin_width))
        object.__setattr__(self, "num_bins", int(self.num_bins))

    def left_edges(self):
        """Left edge of every bin, shape (num_bins,)."""
        return self.bin_width * np.arange(self.num_bins)

    def bin_indices(self, times):
        """Bin of every time, ``floor(t / bin_width)``.

        Raises ValueError naming the first time that falls outside
        [0, num_bins * bin_width); no time is moved into an edge bin.
        """
        times = np.asarray(times, dtype=np.float64)
        scaled = times / self.bin_width
        outside = ~((scaled >= 0) & (scaled < self.num_bins))  # NaN is outside too
        if outside.any():
            raise ValueError(
                f"time {times.reshape(-1)[np.argmax(outside)]} falls outside the "
                f"{self.num_bins}-bin grid of width {self.bin_width}"
            )
        return np.floor(scaled).astype(np.int64)


def build_time_grid(times, bin_width):
    """Build the grid covering `times`: ``floor(max/width) + 1`` bins from 0.

    Raises ValueError on an empty input, a non-positive width, a width so
    small that the grid would hold 2^53 bins or more, or any
    negative/non-finite time.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("cannot build a time grid from zero times")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("all times must be finite and >= 0")
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    top = float(times.max()) / float(bin_width)  # inf, with no warning, if it overflows
    # from 2^53 bins on, floor(top) + 1 no longer rounds exactly and the last time falls outside
    if not top < 2.0**53 - 1:
        raise ValueError(f"bin_width {bin_width} is too small to count the grid's bins")
    num_bins = int(np.floor(top)) + 1
    return TimeGrid(bin_width=bin_width, num_bins=num_bins)


class Dataset:
    """Survival records sharing one time grid, stored as columnar arrays:
    a features matrix, event-or-censoring times (days), observed flags
    (False = right-censored) and each record's grid bin.

    Every time must fall inside `grid`; building the Dataset raises a
    ValueError naming the first one that does not.
    """

    def __init__(self, features, times, observed, grid):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix (records x columns)")
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        observed = np.asarray(observed, dtype=bool).reshape(-1)
        if not (len(features) == len(times) == len(observed)):
            raise ValueError("features, times and observed must have equal length")
        if len(times) == 0:
            raise ValueError("a dataset must contain at least one record")
        self.features = _frozen_array(features, np.float64)
        self.times = _frozen_array(times, np.float64)
        self.observed = _frozen_array(observed, bool)
        self.grid = grid
        self.bins = _frozen_array(grid.bin_indices(times), np.int64)

    def __len__(self):
        return len(self.times)

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def censored_fraction(self):
        return float(np.count_nonzero(~self.observed)) / len(self)

    def subset(self, indices):
        """New dataset with the selected rows, sharing this grid."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices], self.times[indices], self.observed[indices], self.grid
        )

