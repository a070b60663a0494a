"""Property tests: binning against the grid, invariances of the C-index,
and the shift invariance of the Cox loss.

Examples are derandomized, so every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from censrank.core import Dataset, TimeGrid, build_time_grid
from censrank.errors import UndefinedMetricError
from censrank.losses import cox_nll_with_grad
from censrank.metrics import acceptable_pairs, c_index, c_index_from_pairs

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)

finite_times = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
)
widths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(finite_times, widths)
def test_a_built_grid_bins_every_time_by_floor(times, width):
    times = np.asarray(times)
    grid = build_time_grid(times, width)
    data = Dataset(np.zeros((len(times), 1)), times, np.ones(len(times), dtype=bool), grid)
    assert np.array_equal(data.bins, np.floor(times / width))
    assert data.bins.max() == grid.num_bins - 1


@SETTINGS
@given(finite_times, widths)
def test_a_grid_one_bin_short_is_rejected(times, width):
    times = np.asarray(times)
    grid = build_time_grid(times, width)
    assume(grid.num_bins > 1)
    short = TimeGrid(bin_width=width, num_bins=grid.num_bins - 1)
    with pytest.raises(ValueError, match=f"falls outside the {short.num_bins}-bin grid"):
        Dataset(np.zeros((len(times), 1)), times, np.ones(len(times), dtype=bool), short)


@st.composite
def scored_records(draw):
    """(Dataset, scores) with tied times and tied scores likely."""
    n = draw(st.integers(min_value=2, max_value=40))
    times = draw(st.lists(st.integers(0, 12).map(float), min_size=n, max_size=n))
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    score = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    scores = np.asarray(draw(st.lists(score, min_size=n, max_size=n)))
    data = Dataset(np.zeros((n, 1)), times, observed, build_time_grid(times, 1.0))
    try:
        c_index(data, scores)
    except UndefinedMetricError:
        assume(False)
    return data, scores


@SETTINGS
@given(scored_records(), st.randoms(use_true_random=False))
def test_c_index_is_bitwise_unchanged_under_a_permutation(case, rnd):
    data, scores = case
    order = np.asarray(rnd.sample(range(len(data)), len(data)))
    assert c_index(data.subset(order), scores[order]) == c_index(data, scores)


@SETTINGS
@given(scored_records())
def test_c_index_is_bitwise_unchanged_under_dense_ranks(case):
    data, scores = case
    ranks = np.unique(scores, return_inverse=True)[1].astype(np.float64)
    assert c_index(data, ranks) == c_index(data, scores)


@SETTINGS
@given(scored_records())
def test_c_index_equals_the_listed_pairs_bitwise(case):
    data, scores = case
    assert c_index(data, scores) == c_index_from_pairs(acceptable_pairs(data), scores)


INCREASING = {  # strictly increasing in s for every a > 0
    "affine": lambda s, a, b: a * s + b,
    "cube": lambda s, a, b: a * s**3 + b,
    "arctan": lambda s, a, b: np.arctan(s / a),
    "exp": lambda s, a, b: np.exp(s / a),
}


@SETTINGS
@given(scored_records(), st.sampled_from(sorted(INCREASING)),
       st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-1e3, max_value=1e3))
def test_c_index_is_bitwise_unchanged_under_an_increasing_transform(case, kind, a, b):
    data, scores = case
    with np.errstate(over="ignore"):  # an overflow is rejected below
        moved = INCREASING[kind](scores, a, b)
    # rounding may merge neighbouring scores, which is a new tie, not the same order
    assume(np.all(np.isfinite(moved)) and len(np.unique(moved)) == len(np.unique(scores)))
    assert c_index(data, moved) == c_index(data, scores)


@st.composite
def cox_batches(draw):
    """(scores, bins, observed) of 2 to 40 records with at least one event."""
    n = draw(st.integers(min_value=2, max_value=40))
    bins = np.asarray(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    observed = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(observed.any())
    scores = np.asarray(draw(st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=n, max_size=n)))
    return scores, bins, observed


@SETTINGS
@given(cox_batches(), st.floats(min_value=-10.0, max_value=10.0),
       st.sampled_from(["breslow", "efron"]))
def test_cox_loss_is_unchanged_when_every_score_shifts(batch, c, tie_method):
    scores, bins, observed = batch
    value, _ = cox_nll_with_grad(scores, bins, observed, tie_method)
    # a loss near 0 (an event alone in its risk set) holds only rounding
    assume(value >= 0.01)
    shifted, _ = cox_nll_with_grad(scores + c, bins, observed, tie_method)
    assert shifted == pytest.approx(value, rel=1e-12, abs=0.0)


@SETTINGS
@given(cox_batches(), st.sampled_from(["breslow", "efron"]))
def test_cox_gradient_sums_to_zero(batch, tie_method):
    scores, bins, observed = batch
    _, grad = cox_nll_with_grad(scores, bins, observed, tie_method)
    assert abs(grad.sum()) <= 1e-12 * np.abs(grad).max()
