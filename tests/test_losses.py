import math

import numpy as np
import pytest

from conftest import (
    brute_force_cox,
    central_difference,
    make_dataset,
    max_relative_error,
    random_survival_dataset,
)
from censrank.losses import (
    bin_weights,
    cox_nll_with_grad,
    phi_with_grad,
    ranking_loss_with_grad,
    wm_batch_with_grad,
)
from censrank.metrics import acceptable_pairs, c_index_from_pairs


def _sigma(z):
    return 1.0 / (1.0 + math.exp(-z))


def cox_nll(scores, data, tie_method="breslow"):
    return cox_nll_with_grad(scores, data.bins, data.observed, tie_method)[0]


def ranking_loss(scores, pairs, kind, **options):
    return ranking_loss_with_grad(scores, pairs, kind, **options)[0]


def phi(kind, z, hinge_clip=1.0):
    return phi_with_grad(kind, z, hinge_clip)[0]


def phi_prime(kind, z, hinge_clip=1.0):
    return phi_with_grad(kind, z, hinge_clip)[1]


class TestPhi:
    def test_values_at_zero(self):
        assert phi("sigmoid", 0.0) == 0.5
        assert phi("log_sigmoid", 0.0) == pytest.approx(math.log(0.5), abs=1e-15)
        assert phi("hinge", 0.0) == 0.0
        assert phi("exponential", 0.0) == 0.0

    def test_hinge_shift_and_clip(self):
        z = np.asarray([-1.0, 0.5, 1.0, 1.5, 2.0, 5.0])
        assert np.array_equal(phi("hinge", z, hinge_clip=1.0), [0, 0, 0, 0.5, 1, 1])
        assert np.array_equal(phi("hinge", z, hinge_clip=None), [0, 0, 0, 0.5, 1, 4])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            phi_with_grad("relu", 1.0)

    def test_phi_prime_matches_finite_differences_on_smooth_kinds(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-4.0, 4.0, size=64)
        for kind in ("sigmoid", "log_sigmoid", "exponential"):
            numeric = (phi(kind, z + 1e-6) - phi(kind, z - 1e-6)) / 2e-6
            assert max_relative_error(phi_prime(kind, z), numeric) < 1e-6

    def test_hinge_prime_active_window(self):
        z = np.asarray([0.5, 1.5, 2.5])
        assert np.array_equal(phi_prime("hinge", z, hinge_clip=1.0), [0.0, 1.0, 0.0])
        assert np.array_equal(phi_prime("hinge", z, hinge_clip=None), [0.0, 1.0, 1.0])


# The event-bin loop that computed the Cox loss before the one-pass
# form, kept literally as a reference at batch scale (brute_force_cox is
# exact but stops at about 10 records).
def cox_loop_reference(scores, bins, observed, tie_method="breslow"):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    bins = np.asarray(bins).reshape(-1)
    observed = np.asarray(observed, dtype=bool).reshape(-1)

    shift = scores.max()
    w = np.exp(scores - shift)  # shift cancels in every log-ratio below

    order = np.argsort(bins, kind="stable")
    sorted_bins = bins[order]
    sorted_w = w[order]
    # suffix_w[p] = sum of w over positions p.. in sorted order
    suffix_w = np.concatenate((np.cumsum(sorted_w[::-1])[::-1], [0.0]))
    unique_bins, first_pos = np.unique(sorted_bins, return_index=True)
    risk_sum_at = {int(b): suffix_w[p] for b, p in zip(unique_bins, first_pos)}

    event_bins = np.unique(bins[observed])
    loglik = float(np.sum(scores[observed] - shift))
    tied_extra = np.zeros(len(scores))

    running = 0.0  # cumulative d_g/S_g (or Efron analogue) over event bins so far
    per_bin_running = {}
    for b in event_bins:
        tied_idx = np.nonzero(observed & (bins == b))[0]
        m = len(tied_idx)
        risk = risk_sum_at[int(b)]
        if tie_method == "breslow":
            loglik -= m * np.log(risk)
            running += m / risk
        else:
            tied_sum = float(w[tied_idx].sum())
            ranks = np.arange(m) / m
            denoms = risk - ranks * tied_sum
            loglik -= float(np.log(denoms).sum())
            inv = 1.0 / denoms
            running += float(inv.sum())
            tied_extra[tied_idx] = float((ranks * inv).sum())
        per_bin_running[int(b)] = running

    # grad of loglik: obs_k - w_k * (sum over event bins <= bin_k of inverse
    # denominators) + w_k * tied-correction (Efron only, own event bin).
    keys = np.array(sorted(per_bin_running))
    vals = np.array([per_bin_running[int(k)] for k in keys])
    pos = np.searchsorted(keys, bins, side="right")
    has_any = pos > 0
    cum_at_bin = np.zeros(len(scores))
    cum_at_bin[has_any] = vals[pos[has_any] - 1]
    grad_loglik = observed.astype(np.float64) - w * cum_at_bin
    if tie_method == "efron":
        grad_loglik += w * tied_extra
    return -loglik, -grad_loglik


# The two-call ranking loss (phi, then phi') as it stood before
# phi_with_grad, kept literally: the one-call form must match it bitwise.
def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_sigmoid_reference(z):
    # -softplus(-z), split for stability at both tails
    out = np.where(z > 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))
    return out


def _phi_reference(kind, z, hinge_clip=1.0):
    z = np.asarray(z, dtype=np.float64)
    if kind == "sigmoid":
        return _sigmoid_reference(z)
    if kind == "log_sigmoid":
        return _log_sigmoid_reference(z)
    if kind == "hinge":
        raw = np.maximum(0.0, z - 1.0)
        return raw if hinge_clip is None else np.minimum(raw, hinge_clip)
    if kind == "exponential":
        return 1.0 - np.exp(-z)
    raise ValueError(kind)


def _phi_prime_reference(kind, z, hinge_clip=1.0):
    z = np.asarray(z, dtype=np.float64)
    if kind == "sigmoid":
        s = _sigmoid_reference(z)
        return s * (1.0 - s)
    if kind == "log_sigmoid":
        return _sigmoid_reference(-z)
    if kind == "hinge":
        active = z > 1.0
        if hinge_clip is not None:
            active &= z - 1.0 < hinge_clip
        return active.astype(np.float64)
    if kind == "exponential":
        return np.exp(-z)
    raise ValueError(kind)


def ranking_two_call_reference(scores, pairs, kind, hinge_clip=1.0):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    z, direction = scores[pairs.j] - scores[pairs.i], +1.0
    value = float(-np.mean(_phi_reference(kind, z, hinge_clip)))
    per_pair = -_phi_prime_reference(kind, z, hinge_clip) / len(pairs)
    grad = np.zeros_like(scores)
    np.add.at(grad, pairs.j, direction * per_pair)
    np.add.at(grad, pairs.i, -direction * per_pair)
    return value, grad


class TestCoxNll:
    def test_two_record_hand_example(self):
        data = make_dataset([1.0, 2.0], [True, True])
        assert cox_nll([0.0, 0.0], data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_record_is_zero(self):
        data = make_dataset([1.0], [True])
        assert cox_nll([0.7], data) == pytest.approx(0.0, abs=1e-12)

    def test_no_events_rejected(self):
        data = make_dataset([1.0, 2.0], [False, False])
        with pytest.raises(ValueError):
            cox_nll([0.0, 0.0], data)

    def test_efron_equals_breslow_without_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            times = rng.permutation(np.arange(n)).astype(np.float64)
            observed = rng.random(n) < 0.7
            observed[int(rng.integers(0, n))] = True
            data = make_dataset(times, observed)
            scores = rng.normal(size=n)
            assert cox_nll(scores, data, "breslow") == cox_nll(scores, data, "efron")

    def test_efron_and_breslow_differ_on_ties(self):
        data = make_dataset([1.0, 1.0, 2.0], [True, True, True])
        scores = np.asarray([0.3, -0.2, 0.1])
        assert cox_nll(scores, data, "breslow") != cox_nll(scores, data, "efron")

    def test_matches_literal_formula_on_small_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            times = rng.integers(0, 4, size=n).astype(np.float64)
            observed = rng.random(n) < 0.7
            observed[int(rng.integers(0, n))] = True
            data = make_dataset(times, observed)
            scores = rng.uniform(-1.5, 1.5, size=n)
            bins = data.bins
            for ties in ("breslow", "efron"):
                expected = brute_force_cox(scores, bins, observed, ties=ties)
                assert cox_nll(scores, data, ties) == pytest.approx(expected, abs=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        times, observed = random_survival_dataset(rng, max_n=40)
        data = make_dataset(times, observed)
        scores = rng.normal(size=len(times))
        for ties in ("breslow", "efron"):
            base = cox_nll(scores, data, ties)
            for shift in (7.3, -50.0, 300.0):
                assert abs(cox_nll(scores + shift, data, ties) - base) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for ties in ("breslow", "efron"):
            for _ in range(10):
                n = int(rng.integers(3, 12))
                times = rng.integers(0, 4, size=n).astype(np.float64)
                observed = rng.random(n) < 0.7
                observed[int(rng.integers(0, n))] = True
                data = make_dataset(times, observed)
                scores = rng.uniform(-1.0, 1.0, size=n)
                _, grad = cox_nll_with_grad(scores, data.bins, observed, ties)
                numeric = central_difference(lambda s: cox_nll(s, data, ties), scores)
                assert max_relative_error(grad, numeric) < 1e-6

    def test_unknown_tie_method_rejected(self):
        data = make_dataset([1.0], [True])
        with pytest.raises(ValueError):
            cox_nll([0.0], data, "exact")

    @staticmethod
    def _batch(rng, n=256, num_bins=2030):
        bins = rng.integers(0, num_bins, size=n)
        observed = rng.random(n) < 0.68
        observed[0] = True
        return rng.normal(0.0, 2.0, size=n), bins, observed

    @staticmethod
    def _assert_close(got, expected):
        assert got[0] == pytest.approx(expected[0], rel=1e-12, abs=0.0)
        assert np.max(np.abs(got[1] - expected[1])) <= 1e-12 * np.max(np.abs(expected[1]))

    def test_matches_the_loop_reference_at_batch_scale(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores, bins, observed = self._batch(rng)
            for ties in ("breslow", "efron"):
                self._assert_close(cox_nll_with_grad(scores, bins, observed, ties),
                                   cox_loop_reference(scores, bins, observed, ties))

    def test_matches_the_loop_reference_on_a_large_tie(self):
        # one bin with 20 tied events: the loop's per-bin np.sum goes pairwise
        rng = np.random.default_rng(14)
        scores, bins, observed = self._batch(rng)
        bins[:30] = 7
        observed[:20] = True
        assert np.sum(observed & (bins == 7)) >= 12
        for ties in ("breslow", "efron"):
            self._assert_close(cox_nll_with_grad(scores, bins, observed, ties),
                               cox_loop_reference(scores, bins, observed, ties))

    def test_gradient_sums_to_zero(self):
        # the value is shift-invariant, so its directional derivative along
        # (1, ..., 1) vanishes
        rng = np.random.default_rng(15)
        for num_bins in (5, 2030):
            scores, bins, observed = self._batch(rng, num_bins=num_bins)
            for ties in ("breslow", "efron"):
                _, grad = cox_nll_with_grad(scores, bins, observed, ties)
                assert abs(grad.sum()) <= 1e-12 * np.abs(grad).sum()

    def test_permuting_records_permutes_the_gradient(self):
        rng = np.random.default_rng(16)
        for num_bins in (5, 2030):
            scores, bins, observed = self._batch(rng, num_bins=num_bins)
            perm = rng.permutation(len(scores))
            for ties in ("breslow", "efron"):
                value, grad = cox_nll_with_grad(scores, bins, observed, ties)
                self._assert_close(
                    cox_nll_with_grad(scores[perm], bins[perm], observed[perm], ties),
                    (value, grad[perm]),
                )


class TestRankingLoss:
    def _pair(self):
        return acceptable_pairs(make_dataset([1.0, 2.0], [True, True]))

    def test_constant_scores_sigmoid(self):
        pairs = acceptable_pairs(make_dataset([1.0, 2.0, 3.0], [True] * 3))
        assert ranking_loss([1.0, 1.0, 1.0], pairs, "sigmoid") == -0.5

    def test_sigmoid_hand_example(self):
        assert ranking_loss([0.0, 3.0], self._pair(), "sigmoid") == pytest.approx(
            -_sigma(3.0), abs=1e-12
        )

    def test_exponential_hand_example(self):
        assert ranking_loss([0.0, 3.0], self._pair(), "exponential") == pytest.approx(
            -(1.0 - math.exp(-3.0)), abs=1e-12
        )

    def test_log_sigmoid_hand_example(self):
        assert ranking_loss([0.0, 3.0], self._pair(), "log_sigmoid") == pytest.approx(
            math.log(1.0 + math.exp(-3.0)), abs=1e-12
        )

    def test_hinge_clipping(self):
        assert ranking_loss([0.0, 3.0], self._pair(), "hinge") == -1.0
        assert ranking_loss([0.0, 3.0], self._pair(), "hinge", hinge_clip=None) == -2.0

    def test_empty_pairs_rejected(self):
        pairs = acceptable_pairs(make_dataset([1.0, 2.0], [False, False]))
        with pytest.raises(ValueError):
            ranking_loss([0.0, 1.0], pairs, "sigmoid")
        with pytest.raises(ValueError):
            ranking_loss_with_grad([0.0, 1.0], pairs, "sigmoid")

    def test_bounded_surrogates_lower_bound_the_concordance(self):
        # pointwise phi(z) <= 1(z>0) + 0.5*1(z=0) holds for log_sigmoid,
        # exponential and clipped hinge, hence for the means
        rng = np.random.default_rng(5)
        for _ in range(40):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            pairs = acceptable_pairs(data)
            if len(pairs) == 0:
                continue
            scores = rng.normal(size=len(times))
            c = c_index_from_pairs(pairs, scores)
            for kind in ("log_sigmoid", "exponential", "hinge"):
                assert -ranking_loss(scores, pairs, kind, hinge_clip=1.0) <= c + 1e-12

    def test_sigmoid_surrogate_can_exceed_the_concordance(self):
        # sigma(z) > 0 on discordant pairs, so the sigmoid mean is NOT a
        # lower bound; fixed counterexample: one pair, ranked backwards
        pairs = self._pair()
        scores = [3.0, 0.0]
        assert c_index_from_pairs(pairs, scores) == 0.0
        assert -ranking_loss(scores, pairs, "sigmoid") > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for kind in ("sigmoid", "log_sigmoid", "exponential", "hinge"):
            for _ in range(12):
                times, observed = random_survival_dataset(rng, max_n=20)
                data = make_dataset(times, observed)
                pairs = acceptable_pairs(data)
                if len(pairs) == 0:
                    continue
                scores = rng.uniform(-2.0, 2.0, size=len(times))
                if kind == "hinge":
                    # keep margins away from the kinks at z=1 and z=2
                    z = scores[pairs.j] - scores[pairs.i]
                    if np.any(np.abs(z - 1.0) < 1e-3) or np.any(np.abs(z - 2.0) < 1e-3):
                        continue
                _, grad = ranking_loss_with_grad(scores, pairs, kind)
                numeric = central_difference(lambda s: ranking_loss(s, pairs, kind), scores)
                assert max_relative_error(grad, numeric) < 1e-5

    def test_one_call_equals_the_two_call_formula_bitwise(self):
        rng = np.random.default_rng(17)
        times, observed = random_survival_dataset(rng, max_n=80)
        pairs = acceptable_pairs(make_dataset(times, observed))
        assert len(pairs) > 0
        scores = rng.normal(0.0, 3.0, size=len(times))
        scores[:4] = [1.0, 2.0, 0.0, 3.0]  # margins on the hinge kinks
        for kind in ("sigmoid", "log_sigmoid", "exponential", "hinge"):
            for hinge_clip in (1.0, None):
                value, grad = ranking_loss_with_grad(scores, pairs, kind, hinge_clip)
                expected = ranking_two_call_reference(scores, pairs, kind, hinge_clip)
                assert value == expected[0]
                assert np.array_equal(grad, expected[1])


class TestBinWeights:
    def test_smoothing_one_hand_example(self):
        # two events in bin 0 and one in bin 1 (L = 1); the record censored in
        # bin 2 lies in the third output, "after bin 1", which holds no event
        data = make_dataset([0.2, 0.5, 1.0, 2.0], [True, True, True, False])
        got = bin_weights(data, 1.0)
        assert np.allclose(got, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)

    def test_no_observed_event_gives_one_output(self):
        data = make_dataset([0.5, 1.5], [False, False])
        assert np.array_equal(bin_weights(data, 1.0), [1.0])

    def test_large_smoothing_hand_example(self):
        data = make_dataset([1.0], [True])
        got = bin_weights(data, 10.0)
        assert np.allclose(got, [10.0 / 31.0, 11.0 / 31.0, 10.0 / 31.0], atol=1e-15)

    def test_weights_span_the_outputs_up_to_the_last_event_plus_one(self):
        # brute force: one weight per bin 0..L, where L is the last bin with an
        # observed event, then one for "after L"; bins past L add no output
        rng = np.random.default_rng(8)
        for _ in range(25):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            smoothing = float(rng.uniform(0.1, 20.0))
            last = max((int(k) for k, obs in zip(data.bins, data.observed) if obs), default=-1)
            counts = [sum(1 for k, obs in zip(data.bins, data.observed) if obs and k == b)
                      for b in range(last + 1)] + [0]
            want = np.array(counts, dtype=float) + smoothing
            want /= sum(counts) + smoothing * len(counts)
            np.testing.assert_allclose(bin_weights(data, smoothing), want, rtol=1e-14, atol=0.0)

    def test_nonpositive_smoothing_rejected(self):
        data = make_dataset([1.0], [True])
        for smoothing in (0.0, -1.0):
            with pytest.raises(ValueError):
                bin_weights(data, smoothing)

    def test_normalization_property(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            times, observed = random_survival_dataset(rng, max_n=60)
            data = make_dataset(times, observed)
            weights = bin_weights(data, float(rng.uniform(0.1, 20.0)))
            assert abs(float(weights.sum()) - 1.0) < 1e-12
            assert np.all(weights > 0)


def _dirac(bin_idx, num_bins):
    pmf = np.zeros(num_bins)
    pmf[bin_idx] = 1.0
    return pmf


def _uniform(num_bins):
    return np.full(num_bins, 1.0 / num_bins)


def wm_loss(pmf, target_cdf, weights, l=1.5):
    """One record's loss through the batch function (a batch of one)."""
    return wm_batch_with_grad(np.asarray([pmf]), np.asarray([target_cdf]), weights, l=l)[0]


def wm_literal(pmf, target_cdf, weights, l):
    """The loss as defined: sum_t w[t] * |cdf_t - target_t|^l."""
    return float(np.sum(weights * np.abs(np.cumsum(pmf) - target_cdf) ** l))


def _target_rows(rng, batch, num_bins):
    """Random non-decreasing target CDF rows: 0 in the first 3 bins, 1 in the last."""
    target = np.sort(rng.uniform(0.0, 1.0, size=(batch, num_bins)), axis=1)
    target[:, :3] = 0.0
    target[:, -1] = 1.0
    return target


def _wm_literal_step(pmf, target, weights, l):
    """The batch loss as first written, one fresh array per step, then the
    softmax step as the network's backward first took it."""
    batch = pmf.shape[0]
    diff = np.cumsum(pmf, axis=1) - target
    value = float(np.sum(weights * np.abs(diff) ** l) / batch)
    inner = weights * l * np.abs(diff) ** (l - 1.0) * np.sign(diff) / batch
    grad = np.cumsum(inner[:, ::-1], axis=1)[:, ::-1]
    return value, pmf * (grad - np.sum(grad * pmf, axis=1, keepdims=True))


class TestWmLoss:
    def test_identical_distributions(self):
        pmf = _dirac(1, 3)
        assert wm_loss(pmf, np.cumsum(pmf), _uniform(3)) == 0.0

    def test_dirac_pair_uniform_weights(self):
        for l in (1.0, 1.5, 2.0, 3.7):
            got = wm_loss(_dirac(0, 3), np.cumsum(_dirac(2, 3)), _uniform(3), l=l)
            assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_dirac_pair_event_weights(self):
        weights = np.asarray([0.5, 1.0 / 3.0, 1.0 / 6.0])
        got = wm_loss(_dirac(0, 3), np.cumsum(_dirac(2, 3)), weights, l=1.5)
        assert got == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pmf_a = rng.dirichlet(np.ones(5))
            pmf_b = rng.dirichlet(np.ones(5))
            weights = rng.dirichlet(np.ones(5))
            assert wm_loss(pmf_a, np.cumsum(pmf_b), weights) == wm_loss(
                pmf_b, np.cumsum(pmf_a), weights
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.dirichlet(np.ones(4))
            b = rng.dirichlet(np.ones(4))
            assert wm_loss(a, np.cumsum(b), _uniform(4)) >= 0.0

    def test_zero_iff_equal_on_positive_weight_bins(self):
        # zero weight on the only differing bin hides the difference
        weights = np.asarray([0.5, 0.5, 0.0])
        a = np.asarray([0.0, 0.5, 0.5])
        assert wm_loss(a, [0.0, 0.5, 1.0], weights) == 0.0
        assert wm_loss(a, [0.0, 1.0, 1.0], weights) > 0.0
        assert wm_loss(a, [0.0, 0.5, 1.0 - 1e-9], weights) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wm_loss(_dirac(0, 3), np.cumsum(_dirac(1, 4)), _uniform(3))
        with pytest.raises(ValueError):
            wm_loss(_dirac(0, 3), np.cumsum(_dirac(1, 3)), _uniform(4))

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            wm_loss(_dirac(0, 3), np.cumsum(_dirac(1, 3)), _uniform(3), l=0.5)
        with pytest.raises(ValueError, match="exponent"):
            wm_loss(_dirac(0, 3), np.cumsum(_dirac(1, 3)), _uniform(3), l=float("nan"))

    def test_batch_value_is_mean_of_per_record_losses(self):
        rng = np.random.default_rng(10)
        weights = rng.dirichlet(np.ones(6))
        pmf = rng.dirichlet(np.ones(6), size=8)
        target = np.sort(rng.uniform(0.0, 1.0, size=(8, 6)), axis=1)
        target[:, -1] = 1.0
        value, _ = wm_batch_with_grad(pmf, target.copy(), weights, l=1.5)
        per_record = [wm_literal(pmf[i], target[i], weights, l=1.5) for i in range(8)]
        assert value == pytest.approx(float(np.mean(per_record)), abs=1e-14)

    def test_batch_gradient_matches_finite_differences(self):
        # the gradient is w.r.t. the logits of the softmax that gave the pmf
        rng = np.random.default_rng(11)
        for l in (1.5, 2.0, 3.0):
            pmf = rng.dirichlet(np.ones(5), size=4)
            target = np.sort(rng.uniform(0.0, 1.0, size=(4, 5)), axis=1)
            # keep cdf differences away from the |.|^(l-1) kink at zero
            target = np.clip(target + 0.05, None, 1.0)
            weights = rng.dirichlet(np.ones(5))

            def f(flat_logits):
                e = np.exp(flat_logits.reshape(4, 5))
                return wm_batch_with_grad(e / e.sum(axis=1, keepdims=True), target.copy(),
                                          weights, l=l)[0]

            _, grad = wm_batch_with_grad(pmf, target.copy(), weights, l=l)
            numeric = central_difference(f, np.log(pmf).reshape(-1)).reshape(4, 5)
            assert max_relative_error(grad, numeric) < 1e-5

    def test_a_consumed_target_gives_the_literal_gradient_bit_for_bit(self):
        rng = np.random.default_rng(12)
        num_bins = 37
        for l in (1.0, 1.25, 1.5, 2.0, 3.0):
            for batch in (9, 5):
                pmf = rng.dirichlet(np.ones(num_bins), size=batch)
                target = _target_rows(rng, batch, num_bins)
                target[0] = np.cumsum(pmf[0])  # zero differences: sign 0, 0^(l-1)
                weights = rng.dirichlet(np.ones(num_bins))
                expected_value, expected_grad = _wm_literal_step(pmf, target, weights, l)
                given = target.copy()
                value, grad = wm_batch_with_grad(pmf, given, weights, l=l)
                assert np.shares_memory(grad, given)  # the gradient is written over the target
                assert np.array_equal(grad, expected_grad)
                # |d| * (w l |d|^(l-1)) / l may differ from w |d|^l in the last bits
                assert value == pytest.approx(expected_value, rel=1e-13, abs=0.0)
                # the gradient written over the pmf itself, or into a fresh array
                over_pmf = pmf.copy()
                for given_pmf, out in ((over_pmf, over_pmf), (pmf, np.full(pmf.shape, np.nan))):
                    _, grad = wm_batch_with_grad(given_pmf, target.copy(), weights, l=l, out=out)
                    assert grad is out
                    assert np.array_equal(grad, expected_grad)

    @pytest.mark.parametrize("l", [1.5, 2.0])
    def test_a_target_it_cannot_write_is_left_untouched(self, l):
        # read-only, float32, a list, or not C-contiguous: the loss works on a copy
        rng = np.random.default_rng(31)
        num_bins, batch = 41, 6
        pmf = rng.dirichlet(np.ones(num_bins), size=batch)
        weights = rng.dirichlet(np.ones(num_bins))
        target = _target_rows(rng, batch, num_bins)
        target[0] = np.cumsum(pmf[0])  # zero differences
        read_only = target.copy()
        read_only.flags.writeable = False
        for given in (read_only, target.astype(np.float32), target.tolist(),
                      np.asfortranarray(target)):
            kept = np.array(given, copy=True)
            expected = wm_batch_with_grad(pmf, np.array(given, dtype=np.float64), weights, l=l)
            value, grad = wm_batch_with_grad(pmf, given, weights, l=l)
            assert np.array_equal(np.asarray(given), kept)
            assert value == expected[0]
            assert np.array_equal(grad, expected[1])

    @pytest.mark.parametrize("l", [1.5, 2.0])
    def test_a_target_view_is_consumed_in_place(self, l):
        # the leading rows of a taller array: only those rows are written
        rng = np.random.default_rng(33)
        num_bins, batch = 41, 6
        pmf = rng.dirichlet(np.ones(num_bins), size=batch)
        weights = rng.dirichlet(np.ones(num_bins))
        target = _target_rows(rng, batch, num_bins)
        expected_value, expected_grad = wm_batch_with_grad(pmf, target.copy(), weights, l=l)
        tall = np.full((batch + 2, num_bins), np.nan)
        tall[:batch] = target
        value, grad = wm_batch_with_grad(pmf, tall[:batch], weights, l=l)
        assert np.shares_memory(grad, tall)
        assert np.isnan(tall[batch:]).all()
        assert value == expected_value
        assert np.array_equal(grad, expected_grad)

    def test_rejects_an_out_array_of_the_wrong_shape_or_type(self):
        pmf = np.full((4, 5), 0.2)
        target = np.cumsum(pmf, axis=1)
        weights = np.full(5, 0.2)
        for out in (np.empty((3, 5)), np.empty((4, 6)), np.empty((6, 5)),
                    np.empty((4, 5), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be float64"):
                wm_batch_with_grad(pmf, target, weights, out=out)

    @pytest.mark.parametrize("l", [1.0, 1.5])
    def test_row_blocks_given_the_batch_size_sum_to_the_batch(self, l):
        rng = np.random.default_rng(32)
        num_bins, batch = 23, 11
        pmf = rng.dirichlet(np.ones(num_bins), size=batch)
        target = np.sort(rng.uniform(0.0, 1.0, size=(batch, num_bins)), axis=1)
        target[:, -1] = 1.0
        weights = rng.dirichlet(np.ones(num_bins))
        value, grad = wm_batch_with_grad(pmf, target.copy(), weights, l=l)
        blocked = pmf.copy()
        values = [wm_batch_with_grad(blocked[rows], target[rows], weights, l=l,
                                     out=blocked[rows], batch_size=batch)[0]
                  for rows in (slice(0, 4), slice(4, 8), slice(8, batch))]
        assert np.array_equal(blocked, grad)
        assert sum(values) == pytest.approx(value, rel=1e-14, abs=0.0)
