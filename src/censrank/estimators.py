"""Kaplan-Meier estimation and CDF-matching target rows over the time grid.

The product-limit estimate is computed on grid bins: every record leaves
the risk set after its own bin, all events inside one bin share a single
multiplicative step ``1 - d_k/n_k`` with the at-risk count taken before
any of them leave.

Targets for training the CDF-matching loss span the L + 2 outputs of the
pmf head (`target_cdf_matrix`): the grid's bins up to the training fold's
last observed event L, and one output for "after L".  An observed record
becomes a Dirac step at its event bin; a censored record is imputed from
the curve, either conditionally on having survived its censoring bin
(default) or as ``1 - survival`` set to zero through the censoring bin
("global").  A target row depends only on the record's bin, its observed
flag and the curve, so training builds the rows of one block of a batch at
a time (at most 256 KiB of them, `target_cdf_matrix(rows=)`), which the
loss then consumes, and holds O(block x (L + 2)) target memory, not
O(n x (L + 2)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, TimeGrid, _frozen_array

__all__ = [
    "IMPUTE_MODES", "KaplanMeierCurve", "kaplan_meier", "last_event_bin", "target_cdf_matrix",
]

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


def last_event_bin(dataset: Dataset) -> int:
    """L: the last grid bin holding an observed event of `dataset`, or -1 if it has none.

    A pmf head trained on `dataset` has L + 2 outputs: bins 0..L and one
    more for "after L"."""
    return int(dataset.bins[dataset.observed].max(initial=-1))


def target_cdf_matrix(dataset: Dataset, km: KaplanMeierCurve, mode="conditional", rows=None):
    """Stacked target CDFs over the L + 2 outputs of a pmf head trained on
    `dataset` (L = `last_event_bin(dataset)`), shape (n, L + 2).

    `dataset` is the training fold and `km` its curve, on the same grid (a
    ValueError otherwise).  Columns 0..L follow `_fill_target_rows`, with a
    record censored past L taken as censored at L and S(L + 1) as 0, so
    every row ends at 1; with no observed event every row is [1].  With
    `rows` (indices into `dataset`) only those records' targets are built,
    in that order.
    """
    if km.grid != dataset.grid:
        raise ValueError(f"the curve's grid {km.grid} is not the dataset's {dataset.grid}")
    if mode not in IMPUTE_MODES:
        raise ValueError(f"unknown imputation mode {mode!r}; choose one of {IMPUTE_MODES}")
    last = last_event_bin(dataset)
    bins, observed = dataset.bins, dataset.observed
    if rows is not None:
        bins, observed = bins[rows], observed[rows]
    if last < 0:  # a one-output head: every record's mass lies "after L"
        return np.ones((len(bins), 1))
    out = np.empty((len(bins), last + 2))
    # every observed bin is <= L, so the clip moves only records censored past L
    curve = np.append(km.survival[: last + 1], 0.0)
    _fill_target_rows(out, np.minimum(bins, last), observed, curve, mode)
    return out
