import numpy as np
import pytest

from conftest import brute_force_km, make_dataset, random_survival_dataset
from censrank.core import Dataset, build_time_grid
from censrank.estimators import kaplan_meier, last_event_bin, target_cdf_matrix


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


# A training fold on a 5-bin grid: events in bins 0, 1 and 2 (so L = 2), a
# record censored in bin 0 and two censored past L, in bins 3 and 4.  Its
# curve is S = [5/6, 5/8, 5/12, 5/12, 5/12], and its targets span L + 2 = 4
# outputs: bins 0..2 and "after bin 2".
_FOLD = ([0.0, 1.0, 2.0, 0.5, 3.0, 4.0], [True, True, True, False, False, False])


def _fold_target(i, mode="conditional"):
    """Record i of `_FOLD`'s target CDF, built on its own."""
    data = make_dataset(*_FOLD)
    return target_cdf_matrix(data, kaplan_meier(data), mode=mode, rows=[i])[0]


def _last_event_bin(data):
    return max((int(k) for k, obs in zip(data.bins, data.observed) if obs), default=-1)


def _target_row(data, i, km, mode="conditional"):
    """Record i's target CDF, built on its own."""
    return target_cdf_matrix(data, km, mode=mode, rows=[i])[0]


class TestImputeTargetCdf:
    def test_last_event_bin_is_the_last_bin_with_an_observed_event(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            data = make_dataset(*random_survival_dataset(rng, max_n=60))
            assert last_event_bin(data) == _last_event_bin(data)
        assert last_event_bin(make_dataset(*_FOLD)) == 2
        assert last_event_bin(make_dataset([1.0, 5.0], [False, False])) == -1

    def test_observed_record_is_dirac_step(self):
        assert np.array_equal(_fold_target(1), [0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(_fold_target(2), [0.0, 0.0, 1.0, 1.0])

    def test_conditional_imputation(self):
        # 1 - S(t)/S(0) through L, and S(L)/S(0) = 1/2 of the mass after L
        assert np.allclose(_fold_target(3, "conditional"), [0.0, 0.25, 0.5, 1.0], atol=1e-15)

    def test_global_imputation(self):
        # 1 - S(t) through L, and S(L) = 5/12 of the mass after L
        target = _fold_target(3, "global")
        assert np.allclose(target, [0.0, 3.0 / 8.0, 7.0 / 12.0, 1.0], atol=1e-15)

    def test_a_record_censored_after_the_last_event_has_mass_only_after_it(self):
        for i in (4, 5):
            for mode in ("conditional", "global"):
                assert np.array_equal(_fold_target(i, mode), [0.0, 0.0, 0.0, 1.0])

    def test_random_records_censored_at_or_after_the_last_event_have_mass_only_after_it(self):
        rng = np.random.default_rng(12)
        seen = 0
        for _ in range(30):
            data = make_dataset(*random_survival_dataset(rng, max_n=60))
            km, last = kaplan_meier(data), _last_event_bin(data)
            for i, k in enumerate(data.bins):
                if data.observed[i] or k < last:
                    continue
                seen += 1
                for mode in ("conditional", "global"):
                    want = np.zeros(last + 2)
                    want[-1] = 1.0
                    assert np.array_equal(_target_row(data, i, km, mode), want)
        assert seen > 0

    def test_a_fold_with_no_observed_event_has_one_output(self):
        data = make_dataset([0.5, 3.0, 1.0], [False, False, False])
        for mode in ("conditional", "global"):
            targets = target_cdf_matrix(data, kaplan_meier(data), mode)
            assert np.array_equal(targets, np.ones((3, 1)))

    def test_zero_mass_at_or_before_censoring_bin(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            last = _last_event_bin(data)
            for i, k in enumerate(data.bins):
                if data.observed[i]:
                    continue
                for mode in ("conditional", "global"):
                    cdf = _target_row(data, i, km, mode=mode)
                    assert np.all(cdf[: min(k, last) + 1] == 0.0)

    def test_every_target_is_a_valid_cdf_that_ends_at_one(self):
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
                    assert cdf[-1] == 1.0

    def test_conditional_mass_after_the_last_event_follows_renormalization(self):
        # a record censored at k < L puts S(L)/S(k) in the last output
        rng = np.random.default_rng(15)
        for _ in range(30):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            km = kaplan_meier(data)
            last = _last_event_bin(data)
            for i, k in enumerate(data.bins):
                if data.observed[i] or k >= last:
                    continue
                cdf = _target_row(data, i, km, mode="conditional")
                assert abs((1.0 - cdf[-2]) - km.survival[last] / km.survival[k]) < 1e-12

    def test_matrix_matches_per_record_imputation(self):
        times, observed = random_survival_dataset(np.random.default_rng(16), max_n=40)
        data = make_dataset(times, observed)
        km = kaplan_meier(data)
        for mode in ("conditional", "global"):
            matrix = target_cdf_matrix(data, km, mode=mode)
            assert matrix.shape == (len(data), _last_event_bin(data) + 2)
            for i, row in enumerate(matrix):
                assert np.array_equal(row, _target_row(data, i, km, mode=mode))


def _literal_target_row(k, observed, survival, last, mode):
    """A record's target CDF over the L + 2 outputs, one output at a time:
    output L + 1 means "after L", where the curve is taken as 0, and a record
    censored past L counts as censored at L."""
    cdf = np.zeros(last + 2)
    if observed:
        cdf[k:] = 1.0
        return cdf
    k = min(k, last)
    curve = [float(s) for s in survival[: last + 1]] + [0.0]
    for t in range(k + 1, last + 2):
        if mode == "conditional":
            cdf[t] = 1.0 if curve[k] <= 0.0 else 1.0 - curve[t] / curve[k]
        else:
            cdf[t] = max(1.0 - curve[u] for u in range(k + 1, t + 1))
    return cdf


def _target_cases():
    rng = np.random.default_rng(17)
    for _ in range(20):
        data = make_dataset(*random_survival_dataset(rng, max_n=40))
        yield data, kaplan_meier(data)
    # a fold's own curve is above 0 at every censored record, so take the curve of
    # another fold that reaches S = 0 at bin 2 of a 6-bin grid, and apply it to records
    # censored where S = 0 (the S(k) <= 0 branch) and past the last event (L = 4)
    grid = build_time_grid(np.arange(6.0), 1.0)
    fit = Dataset(np.zeros((3, 1)), [0.0, 1.0, 2.0], [True, True, True], grid)
    times = [0.5, 2.0, 3.0, 5.0, 1.0, 4.0, 0.0]
    observed = [True, False, False, False, False, True, False]
    yield Dataset(np.zeros((7, 1)), times, observed, grid), kaplan_meier(fit)


class TestTargetRows:
    def test_batch_rows_match_full_matrix_and_literal_formula(self):
        hit_zero_curve = hit_after_last = False
        for data, km in _target_cases():
            last = _last_event_bin(data)
            bins = km.grid.bin_indices(data.times)
            order = np.random.default_rng(len(data)).permutation(len(data))
            for mode in ("conditional", "global"):
                full = target_cdf_matrix(data, km, mode=mode)
                for start in range(0, len(data), 4):  # the last batch may be short
                    idx = order[start : start + 4]
                    got = target_cdf_matrix(data, km, mode=mode, rows=idx)
                    assert got.shape == (len(idx), last + 2)
                    assert np.array_equal(got, full[idx])
                    for row, i in zip(got, idx):
                        k, obs = int(bins[i]), bool(data.observed[i])
                        literal = _literal_target_row(k, obs, km.survival, last, mode)
                        assert np.array_equal(row, literal)
                        assert np.array_equal(row, _target_row(data, i, km, mode))
                        assert row[-1] == 1.0
                        if not obs:
                            hit_after_last |= k > last
                            hit_zero_curve |= k < last and km.survival[k] == 0.0
        assert hit_zero_curve and hit_after_last

    def test_rejects_a_curve_on_another_grid(self):
        data = make_dataset([0.0, 1.0, 2.0], [True, False, True])
        wider = Dataset(data.features, data.times, data.observed, build_time_grid([5.0], 1.0))
        with pytest.raises(ValueError, match="is not the dataset's"):
            target_cdf_matrix(data, kaplan_meier(wider))
