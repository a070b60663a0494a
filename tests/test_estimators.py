import numpy as np
import pytest

from conftest import brute_force_km, make_dataset, random_survival_dataset
from censrank.core import Dataset, build_time_grid
from censrank.estimators import kaplan_meier, target_cdf_matrix


class TestKaplanMeier:
    def test_fully_observed_hand_example(self):
        data = make_dataset([1.0, 2.0, 3.0], [True, True, True])
        km = kaplan_meier(data)
        assert km.survival[0] == 1.0
        assert km.survival[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert km.survival[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert km.survival[3] == 0.0

    def test_censored_middle_record(self):
        data = make_dataset([1.0, 2.0, 3.0], [True, False, True])
        km = kaplan_meier(data)
        # the censored record holds survival flat through its bin, then
        # leaves the risk set, so the last event wipes out the remainder
        assert km.survival[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert km.survival[2] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert km.survival[3] == 0.0
        assert np.array_equal(km.event_counts, [0, 1, 0, 1])
        assert np.array_equal(km.at_risk, [3, 3, 2, 1])

    def test_all_censored_is_flat_one(self):
        data = make_dataset([1.0, 4.0, 2.0], [False, False, False])
        km = kaplan_meier(data)
        assert np.array_equal(km.survival, np.ones(data.grid.num_bins))

    def test_no_censoring_equals_empirical_exactly(self):
        # bitwise equality, per the product-limit telescoping argument
        rng = np.random.default_rng(9)
        for _ in range(60):
            times, _ = random_survival_dataset(rng, max_n=120)
            data = make_dataset(times, np.ones(len(times), dtype=bool))
            km = kaplan_meier(data)
            bins = data.bins
            empirical = np.asarray(
                [np.count_nonzero(bins > k) / len(data) for k in range(data.grid.num_bins)]
            )
            assert np.array_equal(km.survival, empirical)

    def test_censored_within_tolerance_of_direct_product(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            times, observed = random_survival_dataset(rng, max_n=120)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            assert np.max(np.abs(km.survival - brute_force_km(data))) < 1e-12

    def test_per_step_recurrence(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=80)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            prev = 1.0
            for k in range(data.grid.num_bins):
                d, n = km.event_counts[k], km.at_risk[k]
                if d > 0:
                    assert abs(km.survival[k] - prev * (1.0 - d / n)) < 1e-12
                else:
                    assert km.survival[k] == prev
                prev = km.survival[k]

    def test_monotone_within_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=80)
            km = kaplan_meier(make_dataset(times, observed))
            assert km.survival[0] <= 1.0
            assert np.all(km.survival >= 0.0) and np.all(km.survival <= 1.0)
            assert np.all(np.diff(km.survival) <= 0.0)

    def test_position_of_post_event_censoring_is_irrelevant(self):
        # a record censored after the last event sits in every event-bin
        # risk set no matter which later bin it occupies
        early = kaplan_meier(make_dataset([1.0, 2.0, 5.0], [True, True, False]))
        late = kaplan_meier(make_dataset([1.0, 2.0, 9.0], [True, True, False]))
        assert np.array_equal(early.survival[:3], late.survival[:3])
        assert np.all(early.survival[2:] == early.survival[2])
        assert np.all(late.survival[2:] == late.survival[2])

    def test_late_censored_record_still_counts_at_risk(self):
        # removing it shrinks every event bin's risk set, so survival moves;
        # pins the risk-set convention against shortcutting
        with_record = kaplan_meier(make_dataset([1.0, 2.0, 5.0], [True, True, False]))
        without = kaplan_meier(make_dataset([1.0, 2.0], [True, True]))
        assert with_record.survival[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert without.survival[1] == pytest.approx(0.5, abs=1e-15)


def _three_bin_km():
    # survival [2/3, 1/3, 0] over bins 0..2
    return kaplan_meier(make_dataset([0.0, 1.0, 2.0], [True, True, True]))


def _target_row(data, i, km, mode="conditional"):
    """Record i's target CDF, built on its own."""
    return target_cdf_matrix(data, km, mode=mode, rows=[i])[0]


def _record_target(km, time, observed, mode="conditional"):
    record = Dataset(np.zeros((1, 1)), [time], [observed], km.grid)
    return _target_row(record, 0, km, mode)


class TestImputeTargetCdf:
    def test_observed_record_is_dirac_step(self):
        km = _three_bin_km()
        assert np.array_equal(_record_target(km, 1.0, True), [0.0, 1.0, 1.0])

    def test_conditional_imputation(self):
        km = _three_bin_km()
        target = _record_target(km, 0.5, False, mode="conditional")
        assert np.allclose(target, [0.0, 0.5, 1.0], atol=1e-15)

    def test_global_imputation(self):
        km = _three_bin_km()
        target = _record_target(km, 0.5, False, mode="global")
        assert np.allclose(target, [0.0, 2.0 / 3.0, 1.0], atol=1e-15)

    def test_censored_in_last_bin_gets_no_mass(self):
        km = _three_bin_km()
        for mode in ("conditional", "global"):
            assert np.array_equal(_record_target(km, 2.0, False, mode=mode), np.zeros(3))

    def test_zero_mass_at_or_before_censoring_bin(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            bins = data.bins
            for i, k in enumerate(bins):
                if data.observed[i]:
                    continue
                for mode in ("conditional", "global"):
                    cdf = _target_row(data, i, km, mode=mode)
                    assert np.all(cdf[: k + 1] == 0.0)

    def test_every_target_is_a_valid_cdf(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            for mode in ("conditional", "global"):
                for i in range(len(data)):
                    cdf = _target_row(data, i, km, mode=mode)
                    assert np.all(np.diff(cdf) >= 0.0)
                    assert np.all(cdf >= 0.0) and np.all(cdf <= 1.0)
                    if data.observed[i]:
                        assert cdf[-1] == 1.0

    def test_conditional_final_value_follows_renormalization(self):
        # ends at 1 - S(T-1)/S(k): exactly 1 whenever the curve hits zero
        rng = np.random.default_rng(15)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            bins = data.bins
            for i, k in enumerate(bins):
                if data.observed[i] or k + 1 >= km.grid.num_bins:
                    continue
                cdf = _target_row(data, i, km, mode="conditional")
                s_k = km.survival[k]
                s_end = km.survival[-1]
                expected = 1.0 if s_k <= 0.0 else 1.0 - s_end / s_k
                assert abs(cdf[-1] - expected) < 1e-12
                if s_end == 0.0:
                    assert cdf[-1] == 1.0

    def test_matrix_matches_per_record_imputation(self):
        times, observed = random_survival_dataset(np.random.default_rng(16), max_n=40)
        data = make_dataset(times, observed)
        km = kaplan_meier(data)
        for mode in ("conditional", "global"):
            matrix = target_cdf_matrix(data, km, mode=mode)
            assert matrix.shape == (len(data), data.grid.num_bins)
            for i, row in enumerate(matrix):
                assert np.array_equal(row, _target_row(data, i, km, mode=mode))


def _literal_target_row(k, observed, survival, mode):
    """A record's target CDF as first written: one fresh row, then slices."""
    num_bins = len(survival)
    cdf = np.zeros(num_bins)
    if observed:
        cdf[k:] = 1.0
        return cdf
    if k + 1 >= num_bins:
        return cdf
    tail = survival[k + 1 :]
    if mode == "conditional":
        s_at = survival[k]
        cdf[k + 1 :] = 1.0 if s_at <= 0.0 else 1.0 - tail / s_at
    else:
        cdf[k + 1 :] = np.maximum.accumulate(1.0 - tail)
    return cdf


def _target_cases():
    rng = np.random.default_rng(17)
    for _ in range(20):
        data = make_dataset(*random_survival_dataset(rng, max_n=40))
        yield data, kaplan_meier(data)
    # a curve that reaches S = 0 at bin 2 of a 6-bin grid, applied to records
    # censored where S = 0 (the S(k) <= 0 branch) and in the last bin
    grid = build_time_grid(np.arange(6.0), 1.0)
    fit = Dataset(np.zeros((3, 1)), [0.0, 1.0, 2.0], [True, True, True], grid)
    times = [0.5, 2.0, 3.0, 5.0, 1.0, 4.0, 0.0]
    observed = [True, False, False, False, False, True, False]
    yield Dataset(np.zeros((7, 1)), times, observed, grid), kaplan_meier(fit)


class TestTargetRows:
    def test_batch_rows_match_full_matrix_and_literal_formula(self):
        hit_zero_curve = hit_last_bin = False
        for data, km in _target_cases():
            num_bins = km.grid.num_bins
            bins = km.grid.bin_indices(data.times)
            order = np.random.default_rng(len(data)).permutation(len(data))
            for mode in ("conditional", "global"):
                full = target_cdf_matrix(data, km, mode=mode)
                for start in range(0, len(data), 4):  # the last batch may be short
                    idx = order[start : start + 4]
                    got = target_cdf_matrix(data, km, mode=mode, rows=idx)
                    assert got.shape == (len(idx), num_bins)
                    assert np.array_equal(got, full[idx])
                    for row, i in zip(got, idx):
                        k, obs = int(bins[i]), bool(data.observed[i])
                        literal = _literal_target_row(k, obs, km.survival, mode)
                        assert np.array_equal(row, literal)
                        assert np.array_equal(row, _target_row(data, i, km, mode))
                        if not obs:
                            hit_last_bin |= k == num_bins - 1
                            hit_zero_curve |= k + 1 < num_bins and km.survival[k] == 0.0
        assert hit_zero_curve and hit_last_bin

    def test_rejects_a_curve_on_another_grid(self):
        data = make_dataset([0.0, 1.0, 2.0], [True, False, True])
        wider = Dataset(data.features, data.times, data.observed, build_time_grid([5.0], 1.0))
        with pytest.raises(ValueError, match="is not the dataset's"):
            target_cdf_matrix(data, kaplan_meier(wider))
