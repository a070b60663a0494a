"""Acceptable pairs and the concordance index.

An acceptable pair (i, j) has record i observed and record j's
event-or-censoring time strictly greater than i's event time.  The
concordance index is the mean over acceptable pairs of 1 for a concordant
prediction (score(i) < score(j)), 1/2 for exactly equal scores, 0
otherwise.  Scores are oriented "higher = later predicted event"; any
conversion (e.g. negating Cox risk) happens at the caller.

`c_index` counts the pairs exactly in O(n log n) time and O(n) memory,
without listing them (the sorted-tree count of Harrell et al., 1982).
`acceptable_pairs` lists them by raw time and `c_index_from_pairs` scores
that list; no training or evaluation path calls them, they are the
reference the count is checked against.  Training batches list their pairs
with `_enumerate_pairs` over grid bins, so records sharing a bin never pair.
"""

from dataclasses import dataclass

import numpy as np

from .core import _frozen_array
from .errors import UndefinedMetricError

__all__ = ["AcceptablePairSet", "acceptable_pairs", "c_index", "c_index_from_pairs"]


@dataclass(frozen=True)
class AcceptablePairSet:
    """Index pairs (i, j), lexicographically ordered, over `num_records` records."""

    i: np.ndarray
    j: np.ndarray
    num_records: int

    def __post_init__(self):
        for name in ("i", "j"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), np.int64))

    def __len__(self):
        return len(self.i)


def _enumerate_pairs(times, observed):
    """(i, j) index arrays of every acceptable pair of the arrays `times` and
    `observed`, in lexicographic order."""
    mask = observed[:, None] & (times[None, :] > times[:, None])
    return np.divmod(np.flatnonzero(mask), len(times))  # np.nonzero's (i, j), faster


def acceptable_pairs(dataset):
    """Enumerate acceptable pairs of `dataset`, by raw record time, in lexicographic order."""
    i_idx, j_idx = _enumerate_pairs(dataset.times, dataset.observed)
    return AcceptablePairSet(i=i_idx, j=j_idx, num_records=len(dataset))


def c_index_from_pairs(pairs, scores):
    """Concordance index over a precomputed pair set."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != pairs.num_records:
        raise ValueError(
            f"scores have length {len(scores)}, pair set covers {pairs.num_records} records"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if len(pairs) == 0:
        raise UndefinedMetricError(
            "no acceptable pairs: the concordance index is undefined"
        )
    s_i = scores[pairs.i]
    s_j = scores[pairs.j]
    concordant = int(np.count_nonzero(s_i < s_j))
    tied = int(np.count_nonzero(s_i == s_j))
    # Integer counts first, one final division: deterministic under any
    # partitioned reduction.
    return (2 * concordant + tied) / (2 * len(pairs))


def c_index(data, scores):
    """Concordance index of `scores` on `data` (higher score = later event).

    `data` is anything with `times` and `observed` arrays (a Dataset, a
    RawTable, a PreprocessResult).  Records are laid out by decreasing
    time, so the records strictly later than an observed record i form a
    prefix of length h_i.  That prefix splits into at most log2(n) aligned
    blocks, one per set bit of h_i, and each block's scores are sorted once
    per level; a binary search in the block counts its later records that
    score above or equal to i.  Counts are integers, so the result is the
    same float as counting every pair.

    Raises ValueError on a length mismatch or a non-finite score and
    UndefinedMetricError when `data` admits no acceptable pair.
    """
    times = np.asarray(data.times, dtype=np.float64)
    observed = np.asarray(data.observed, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(times)
    if len(scores) != n:
        raise ValueError(f"scores have length {len(scores)}, data has {n} records")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    # number of records with a strictly later time, per observed record
    later = n - np.searchsorted(np.sort(times), times[observed], side="right")
    pairs = int(later.sum())
    if pairs == 0:
        raise UndefinedMetricError(
            "no acceptable pairs: the concordance index is undefined"
        )
    values, ranks = np.unique(scores, return_inverse=True)
    width = len(values)
    anchor_ranks = ranks[observed]
    order = np.argsort(-times, kind="stable")
    position = np.arange(n)
    # level k: ranks sorted within aligned blocks of 2**k records (in time
    # order), offset by block * width so the whole array is sorted
    keys = position * width + ranks[order]
    concordant = at_least = 0
    for k in range(n.bit_length()):
        if k:
            keys = np.sort((position >> k) * width + keys % width, kind="stable")
        hit = (later >> k) & 1 == 1
        block = (later[hit] >> k) - 1
        probe = block * width + anchor_ranks[hit]
        stop = (block + 1) << k
        concordant += int((stop - np.searchsorted(keys, probe, side="right")).sum())
        at_least += int((stop - np.searchsorted(keys, probe, side="left")).sum())
    tied = at_least - concordant
    # Integer counts first, one final division: deterministic under any
    # partitioned reduction.
    return (2 * concordant + tied) / (2 * pairs)
