"""Kaplan-Meier estimation and CDF-matching target rows over the time grid.

The product-limit estimate is computed on grid bins: every record leaves
the risk set after its own bin, all events inside one bin share a single
multiplicative step ``1 - d_k/n_k`` with the at-risk count taken before
any of them leave.

Targets for training the CDF-matching loss: an observed record becomes a
Dirac step at its event bin; a censored record is imputed from the curve,
either conditionally on having survived its censoring bin (default) or as
``1 - survival`` set to zero through the censoring bin ("global").  Either
way a censored record's target is exactly zero at and before its censoring
bin.  A target row depends only on the record's bin, its observed flag and
the curve, so training builds the rows of one block of a batch at a time
(at most 1 MiB of them, `target_cdf_matrix(rows=)`), which the loss then
consumes, and holds O(block x T) target memory, not O(n x T).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, TimeGrid, _frozen_array

__all__ = ["IMPUTE_MODES", "KaplanMeierCurve", "kaplan_meier", "target_cdf_matrix"]

IMPUTE_MODES = ("conditional", "global")


@dataclass(frozen=True)
class KaplanMeierCurve:
    """Step-function survival estimate on a grid.

    survival[k] is the estimate at bin k's right edge; event_counts and
    at_risk hold the per-bin d_k and n_k of the product-limit formula.
    """

    grid: TimeGrid
    survival: np.ndarray
    event_counts: np.ndarray
    at_risk: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("survival", np.float64),
            ("event_counts", np.int64),
            ("at_risk", np.int64),
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))


def kaplan_meier(dataset: Dataset) -> KaplanMeierCurve:
    """Product-limit survival estimate of `dataset` over its grid bins."""
    num_bins = dataset.grid.num_bins
    events = np.bincount(dataset.bins[dataset.observed], minlength=num_bins)
    leaving = np.bincount(dataset.bins, minlength=num_bins)
    # n_k = records still present just before bin k.
    at_risk = len(dataset) - np.concatenate(([0], np.cumsum(leaving)[:-1]))
    # The running product is kept as an exact integer ratio (gcd-reduced so
    # consecutive factors telescope); each emitted value is one correctly
    # rounded division.  Without censoring the ratio reduces to
    # survivors/n, so the curve equals the empirical survival function
    # bit for bit.  A float prefactor absorbs the ratio if it ever grows
    # past 512 bits (only reachable with censoring).
    survival = np.empty(num_bins)
    num, den, pre = 1, 1, 1.0
    for k in range(num_bins):
        n_k, d_k = int(at_risk[k]), int(events[k])
        if n_k > 0 and d_k > 0:
            num *= n_k - d_k
            den *= n_k
            g = math.gcd(num, den)
            num //= g
            den //= g
            if den.bit_length() > 512:
                pre *= num / den
                num, den = 1, 1
        survival[k] = pre * (num / den)
    return KaplanMeierCurve(
        grid=dataset.grid, survival=survival, event_counts=events, at_risk=at_risk
    )


def _fill_target_rows(out, bins, observed, survival, mode):
    """Write each record's target CDF into the matching row of `out`.

    An observed record at bin k is 1 from k on.  A censored record at bin
    k is 0 through k and, beyond it, 1 - S(t)/S(k) ("conditional", or 1
    when S(k) = 0) or the running maximum of 1 - S(t) from k + 1 ("global").
    """
    if mode not in IMPUTE_MODES:
        raise ValueError(f"unknown imputation mode {mode!r}; choose one of {IMPUTE_MODES}")
    for row, k, obs in zip(out, bins.tolist(), observed.tolist()):
        if obs:
            row[:k] = 0.0
            row[k:] = 1.0
            continue
        row[: k + 1] = 0.0
        tail = row[k + 1 :]
        if mode == "global":
            np.subtract(1.0, survival[k + 1 :], out=tail)
            np.maximum.accumulate(tail, out=tail)
        elif survival[k] <= 0.0:
            tail[:] = 1.0
        else:
            np.divide(survival[k + 1 :], survival[k], out=tail)
            np.subtract(1.0, tail, out=tail)


def target_cdf_matrix(dataset: Dataset, km: KaplanMeierCurve, mode="conditional", rows=None):
    """Stacked target CDFs, shape (n, num_bins); row i is record i's target.

    `km` must come from the training fold only, on `dataset`'s grid (a
    ValueError otherwise).  With `rows` (indices into `dataset`) only those
    records' targets are built, in that order.
    """
    if km.grid != dataset.grid:
        raise ValueError(f"the curve's grid {km.grid} is not the dataset's {dataset.grid}")
    bins, observed = dataset.bins, dataset.observed
    if rows is not None:
        bins, observed = bins[rows], observed[rows]
    out = np.empty((len(bins), km.grid.num_bins))
    _fill_target_rows(out, bins, observed, km.survival, mode)
    return out
