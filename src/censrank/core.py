"""Survival data model: columnar datasets, the discrete time grid, and binning.

Times live on a uniform grid of left-closed/right-open bins
``[k*w, (k+1)*w)``; a time at an exact bin boundary belongs to the higher
bin.  All types are immutable after construction and safe to share across
workers.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "Dataset", "build_time_grid"]


def _frozen_array(values, dtype):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _scratch_rows(work, rows, cols):
    """The leading `rows` rows of a reusable float64 scratch array of shape
    (at least rows, cols), or a fresh (rows, cols) array when `work` is None."""
    if work is None:
        return np.empty((rows, cols))
    if work.dtype != np.float64 or work.ndim != 2 or work.shape[0] < rows \
            or work.shape[1] != cols:
        raise ValueError(
            f"a scratch array must be float64 of shape (>= {rows}, {cols}), "
            f"got {work.dtype} {work.shape}"
        )
    return work[:rows]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discrete time axis with `num_bins` bins of width `bin_width`
    days, starting at `origin`."""

    bin_width: float
    num_bins: int
    origin: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")
        object.__setattr__(self, "bin_width", float(self.bin_width))
        object.__setattr__(self, "num_bins", int(self.num_bins))
        object.__setattr__(self, "origin", float(self.origin))

    def left_edges(self):
        """Left edge of every bin, shape (num_bins,)."""
        return self.origin + self.bin_width * np.arange(self.num_bins)

    def bin_indices(self, times, clamp=True):
        """Vectorized bin lookup.

        With ``clamp=False`` raises if any time falls outside the grid;
        clamping to the last bin is meant for inference on unseen data only,
        training-fold times must fit the grid exactly.
        """
        times = np.asarray(times, dtype=np.float64)
        if np.any(times < self.origin):
            raise ValueError("times before the grid origin are not representable")
        raw = np.floor((times - self.origin) / self.bin_width).astype(np.int64)
        if clamp:
            return np.minimum(raw, self.num_bins - 1)
        if np.any(raw > self.num_bins - 1):
            worst = float(times.reshape(-1)[int(np.argmax(raw))])
            raise ValueError(
                f"time {worst} falls past the last bin of a {self.num_bins}-bin grid"
            )
        return raw

    def covers(self, times):
        """True when every time maps inside [0, num_bins-1] without clamping."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return True
        return bool(
            times.min() >= self.origin
            and np.floor((times.max() - self.origin) / self.bin_width) <= self.num_bins - 1
        )


def build_time_grid(times, bin_width):
    """Build the grid covering `times`: ``floor(max/width) + 1`` bins from 0.

    Raises ValueError on an empty input, a non-positive width, or any
    negative/non-finite time.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("cannot build a time grid from zero times")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("all times must be finite and >= 0")
    if not (np.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    num_bins = int(np.floor(times.max() / bin_width)) + 1
    return TimeGrid(bin_width=float(bin_width), num_bins=num_bins, origin=0.0)


class Dataset:
    """Survival records sharing one time grid, stored as columnar arrays:
    a features matrix, event-or-censoring times (days) and observed flags
    (False = right-censored)."""

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
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise ValueError("record times must be finite and >= 0")
        self.features = _frozen_array(features, np.float64)
        self.times = _frozen_array(times, np.float64)
        self.observed = _frozen_array(observed, bool)
        self.grid = grid

    def __len__(self):
        return len(self.times)

    @property
    def n_features(self):
        return self.features.shape[1]

    def binned_times(self, clamp=True):
        """Bin index of every record; see TimeGrid.bin_indices for clamping."""
        return self.grid.bin_indices(self.times, clamp=clamp)

    @property
    def fits_grid(self):
        """True when no record time would need clamping."""
        return self.grid.covers(self.times)

    @property
    def censored_fraction(self):
        return float(np.count_nonzero(~self.observed)) / len(self)

    def subset(self, indices):
        """New dataset with the selected rows, sharing this grid."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[indices], self.times[indices], self.observed[indices], self.grid
        )

