"""Trainer, grid search, cross-validation, censoring experiments, report files."""

import csv
import gc
import itertools
import json
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import censrank.harness as harness
from censrank.core import Dataset
from censrank.errors import (
    ExperimentFailedError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from censrank.harness import (
    CENSORING_MODES,
    AblationCell,
    AblationResult,
    ExperimentReport,
    FoldResult,
    SweepResult,
    TrainRun,
    apply_censoring_mode,
    censoring_ablation,
    censoring_sweep,
    cv_splits,
    derived_seed,
    emit_report,
    eval_scores,
    predict_scores,
    run_cv,
    train_model,
)
from censrank.estimators import kaplan_meier, last_event_bin, target_cdf_matrix
from censrank.losses import bin_weights
from censrank.metrics import acceptable_pairs, c_index, c_index_from_pairs
from censrank.neural import Network, NetworkConfig
from censrank.pipeline import generate_synthetic, load_csv, save_csv, schema_for_features

from conftest import make_dataset

# Small-but-learnable settings: every training call in this file finishes in
# well under a second, yet the oracle signal is strong enough to clear 0.9.
FAST = dict(
    hidden_dims=(16,),
    dropout=0.0,
    batch_size=64,
    max_epochs=20,
    patience=5,
    learning_rate=1e-2,
    l2=1e-4,
)


@pytest.fixture(scope="module")
def synth():
    return generate_synthetic(400, 6, 0.3, 0.05, seed=11)


@pytest.fixture(scope="module")
def fold(synth):
    tr, va, te = cv_splits(len(synth), 3, 0.2, 7)[0]
    return synth.subset(tr), synth.subset(va), synth.subset(te)


class TestDerivedSeed:
    def test_pinned_values(self):
        # frozen so that checkpointed experiments stay reproducible across
        # releases; a change here invalidates every recorded report
        assert derived_seed(0, "fold", 0, "grid", 0) == 4177838170
        assert derived_seed(5, "fold", 0, "grid", 0) == 2096316479
        assert derived_seed(0, "split") == 3770521055

    def test_deterministic_and_part_sensitive(self):
        assert derived_seed(3, "a", 1) == derived_seed(3, "a", 1)
        assert derived_seed(3, "a", 1) != derived_seed(3, "a", 2)
        assert derived_seed(3, "a", 1) != derived_seed(4, "a", 1)
        assert derived_seed(0, "fold", 0, "grid", 1) != derived_seed(0, "fold", 1, "grid", 0)


class TestTrainRunValidation:
    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            TrainRun(loss="brier")

    def test_zero_max_epochs(self):
        with pytest.raises(ValueError, match="max_epochs"):
            TrainRun(loss="wm", max_epochs=0)

    def test_zero_patience(self):
        with pytest.raises(ValueError, match="patience"):
            TrainRun(loss="wm", patience=0)

    def test_batch_of_one(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainRun(loss="wm", batch_size=1)

    def test_nonpositive_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainRun(loss="wm", learning_rate=0.0)

    def test_infinite_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainRun(loss="wm", learning_rate=float("inf"))

    def test_negative_l2(self):
        with pytest.raises(ValueError, match="l2"):
            TrainRun(loss="wm", l2=-1e-4)

    def test_nan_l2(self):
        with pytest.raises(ValueError, match="l2"):
            TrainRun(loss="wm", l2=float("nan"))

    def test_infinite_l2(self):
        with pytest.raises(ValueError, match="l2_coefficient"):
            TrainRun(loss="wm", l2=float("inf"))

    def test_bad_wm_score(self):
        with pytest.raises(ValueError, match="wm_score"):
            TrainRun(loss="wm", wm_score="mode")

    def test_wm_exponent_below_one_or_nan(self):
        for l in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="wm_l"):
                TrainRun(loss="wm", wm_l=l)

    def test_hinge_clip_not_positive_or_nan(self):
        for clip in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="hinge_clip"):
                TrainRun(loss="rank-hinge", hinge_clip=clip)
        assert TrainRun(loss="rank-hinge", hinge_clip=None).hinge_clip is None

    def test_hidden_dims_coerced_to_tuple(self):
        assert TrainRun(loss="wm", hidden_dims=[32, 16]).hidden_dims == (32, 16)

    @pytest.mark.parametrize("option, value, named", [
        ("dropout", 1.5, "dropout_rate"),
        ("dropout", -0.1, "dropout_rate"),
        ("hidden_dims", (0,), "width in hidden_dims must be an integer >= 1"),
        ("hidden_dims", (), "at least one hidden layer"),
        ("wm_smoothing", 0.0, "wm_smoothing"),
        ("wm_smoothing", float("nan"), "wm_smoothing"),
        ("wm_smoothing", float("inf"), "wm_smoothing"),
        ("km_impute", "bogus", "unknown km_impute 'bogus'"),
        # a count, width or seed must be an integer: not a float, a bool or below its least
        ("batch_size", 64.0, "batch_size must be an integer"),
        ("max_epochs", 2.0, "max_epochs must be an integer"),
        ("max_epochs", True, "max_epochs must be an integer"),
        ("patience", 2.5, "patience must be an integer"),
        ("hidden_dims", (8.7,), "width in hidden_dims must be an integer"),
        ("seed", -1, "seed must be an integer >= 0"),
        ("seed", 1.5, "seed must be an integer"),
        # a rate, exponent, smoothing, clip, dropout or l2 must be a real number, not a bool
        ("learning_rate", True, "learning_rate must be a real number"),
        ("wm_l", True, "wm_l must be a real number"),
        ("wm_l", "2", "wm_l must be a real number"),
        ("wm_smoothing", True, "wm_smoothing must be a real number"),
        ("hinge_clip", True, "hinge_clip must be a real number"),
        ("dropout", False, "dropout_rate must be a real number"),
        ("l2", True, "l2_coefficient must be a real number"),
    ])
    def test_every_option_is_checked_when_built(self, option, value, named):
        # rejected here, not when the first fold trains
        with pytest.raises(ValueError, match=named):
            TrainRun(loss="wm", **{option: value})


class TestEvalScores:
    def test_cox_outputs_are_negated(self):
        out = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(eval_scores(TrainRun(loss="cox"), out), -out)

    def test_ranking_outputs_pass_through(self):
        out = np.array([0.3, -0.1])
        assert np.array_equal(eval_scores(TrainRun(loss="rank-hinge"), out), out)

    def test_pmf_mean_scores_by_expected_bin(self):
        pmf = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        assert np.allclose(eval_scores(TrainRun(loss="wm"), pmf), [1.3, 0.0], atol=1e-15)

    def test_pmf_median_scores_by_median_bin(self):
        pmf = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25]])
        run = TrainRun(loss="wm", wm_score="median")
        given = pmf.copy()
        assert np.array_equal(eval_scores(run, pmf), [1.0, 0.0, 0.0])
        assert np.array_equal(pmf, given)  # the caller's outputs are not overwritten


class TestPredictScores:
    # 4,096 bins: 32 rows of outputs fill the scoring budget
    BINS = 4096
    BLOCK = harness._SCORE_BLOCK_BYTES // (8 * BINS)

    def _case(self, run, n):
        head = ("softmax", self.BINS) if run.loss == "wm" else ("scalar_linear", 1)
        net = Network(NetworkConfig(input_dim=5, hidden_dims=(8,), head=head[0],
                                    num_outputs=head[1], seed=n))
        rng = np.random.default_rng(n)
        data = make_dataset(rng.uniform(0.0, 50.0, size=n), rng.random(n) < 0.7,
                            features=rng.normal(size=(n, 5)))
        return net, data

    @pytest.mark.parametrize("run", [TrainRun(loss="cox"), TrainRun(loss="rank-sigmoid"),
                                     TrainRun(loss="wm"), TrainRun(loss="wm", wm_score="median")],
                             ids=["cox", "rank", "wm-mean", "wm-median"])
    @pytest.mark.parametrize("n", [BLOCK // 2, BLOCK, 2 * BLOCK + 37])
    def test_blocked_scores_match_one_full_forward(self, run, n):
        net, data = self._case(run, n)
        full = eval_scores(run, net.forward(data.features, train=False))
        blocked = predict_scores(run, net, data.features)
        if run.loss == "wm":
            # splitting the rows may move the last bits of the head's matmul
            np.testing.assert_allclose(blocked, full, rtol=1e-12, atol=0.0)
            assert c_index(data, blocked) == c_index(data, full)
        else:  # a scalar head scores any n here in one block
            assert np.array_equal(blocked, full)

    @pytest.mark.parametrize("loss, net_loss, head", [
        ("wm", "cox", "scalar_linear"), ("cox", "wm", "softmax"),
    ])
    def test_a_network_of_another_head_is_rejected(self, loss, net_loss, head):
        net, data = self._case(TrainRun(loss=net_loss), 10)
        with pytest.raises(ValueError, match=f"loss '{loss}' .* has a '{head}' head"):
            predict_scores(TrainRun(loss=loss), net, data.features)

    @pytest.mark.parametrize("wm_score", ["mean", "median"])
    def test_one_block_of_outputs_is_alive_at_a_time(self, monkeypatch, wm_score):
        rows = 64  # 2 MiB of outputs per block, 4 blocks
        monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", 8 * self.BINS * rows)
        run = TrainRun(loss="wm", wm_score=wm_score)  # a median's CDF overwrites its block
        net, data = self._case(run, 4 * rows)
        predict_scores(run, net, data.features)  # allocator warm-up
        tracemalloc.start()
        try:
            predict_scores(run, net, data.features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * self.BINS * rows

    def test_a_2030_bin_head_scores_in_blocks_of_at_most_1_mib(self, monkeypatch):
        # 64 rows a block, so one block and its hidden activations fit a 2 MiB L2
        net = Network(NetworkConfig(input_dim=5, hidden_dims=(8,), head="softmax",
                                    num_outputs=2030, seed=0))
        forward, rows = Network.forward, []

        def spy(self, batch, train, *args, **kwargs):
            out = forward(self, batch, train, *args, **kwargs)
            assert out.nbytes <= 1 << 20
            rows.append(len(out))
            return out

        monkeypatch.setattr(Network, "forward", spy)
        features = np.random.default_rng(0).normal(size=(200, 5))
        predict_scores(TrainRun(loss="wm"), net, features)
        assert rows == [64, 64, 64, 8]

    def test_non_finite_outputs_in_the_last_block_are_rejected(self):
        net, data = self._case(TrainRun(loss="wm"), 2 * self.BLOCK + 37)
        features = np.array(data.features)
        features[-1, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="non-finite network outputs"):
            predict_scores(TrainRun(loss="wm"), net, features)


def _whole_batch_reference(pmf, target, weights, l):
    """A literal copy of the whole-batch wm step as it was before the loss took
    row blocks: `wm_batch_with_grad` with its two (batch, T) scratch arrays, then
    the softmax step of `Network.backward` in a third."""
    batch = pmf.shape[0]
    diff, inner = np.empty(pmf.shape), np.empty(pmf.shape)
    np.cumsum(pmf, axis=1, out=inner)
    np.subtract(inner, target, out=diff)
    np.abs(diff, out=inner)
    if l == 1:
        value = float(np.sum(inner @ weights) / batch)
        np.sign(diff, out=inner)
        np.multiply(weights * l, inner, out=inner)
    else:
        if l == 1.5:
            np.sqrt(inner, out=inner)
        else:
            np.power(inner, l - 1.0, out=inner)
        np.multiply(weights * l, inner, out=inner)
        np.copysign(inner, diff, out=inner)
        value = float(np.vdot(diff, inner) / l / batch)
    np.divide(inner, batch, out=inner)
    reversed_view = inner[:, ::-1]
    np.cumsum(reversed_view, axis=1, out=reversed_view)
    dlogits = np.empty(pmf.shape)
    np.multiply(inner, pmf, out=dlogits)
    dot = np.sum(dlogits, axis=1, keepdims=True)
    np.subtract(inner, dot, out=dlogits)
    np.multiply(pmf, dlogits, out=dlogits)
    return value, dlogits


class TestWmStep:
    @pytest.mark.parametrize("bins, batch, blocks", [
        (2030, 256, [16] * 16),  # the bench table's bins: the batch splits evenly
        (2030, 195, [16] * 12 + [3]),  # the short last batch of each bench fold
        (37, 256, [256]),  # a small T: one block
    ], ids=["even", "short-last", "one-block"])
    @pytest.mark.parametrize("l", [1.5, 1.0, 2.0])
    def test_blocked_logit_gradient_equals_the_whole_batch_step_bit_for_bit(
            self, monkeypatch, bins, batch, blocks, l):
        rng = np.random.default_rng(bins + batch)
        n = 300
        observed = rng.random(n) < 0.7
        observed[-1] = True  # an event in the grid's last bin: the head has bins + 1 outputs
        train = make_dataset(np.append(rng.uniform(0.0, bins - 1.0, size=n - 1), bins - 0.5),
                             observed, features=rng.normal(size=(n, 3)))
        assert train.grid.num_bins == bins and last_event_bin(train) == bins - 1
        run = TrainRun(loss="wm", wm_l=l, km_impute="global" if l == 2.0 else "conditional")
        km, weights = kaplan_meier(train), bin_weights(train, run.wm_smoothing)
        idx = rng.permutation(n)[:batch]
        pmf = rng.dirichlet(np.full(bins + 1, 0.5), size=batch)
        targets = target_cdf_matrix(train, km, mode=run.km_impute, rows=idx)
        want_value, want = _whole_batch_reference(pmf, targets, weights, l)

        loss, seen = harness.wm_batch_with_grad, []

        def spy(pmf_rows, *args, **kwargs):
            seen.append(len(pmf_rows))
            return loss(pmf_rows, *args, **kwargs)

        monkeypatch.setattr(harness, "wm_batch_with_grad", spy)
        got = pmf.copy()
        value = harness._wm_step(run, train, km, weights, idx, got)
        assert seen == blocks
        assert np.array_equal(got, want)
        # the value is summed block by block, so only its last bits may move
        assert value == pytest.approx(want_value, rel=1e-13, abs=0.0)


class TestTrainModel:
    def test_scripted_early_stopping_returns_best_epoch_params(self, fold, monkeypatch):
        # validation C sequence 0.6, 0.7, 0.65 with patience 1: stop after
        # epoch 3 and hand back the epoch-2 network
        train, val, _ = fold
        queue = [0.6, 0.7, 0.65]
        recorded = []

        def scripted(data, scores):
            recorded.append(np.array(scores, copy=True))
            return queue[len(recorded) - 1]

        monkeypatch.setattr(harness, "c_index", scripted)
        run = TrainRun(loss="rank-sigmoid", seed=3, **{**FAST, "patience": 1, "max_epochs": 10})
        net, history = train_model(run, train, val)

        assert history["stopped_epoch"] == 3
        assert history["best_epoch"] == 2
        assert history["best_val_c_index"] == 0.7
        assert history["val_c_index"] == [0.6, 0.7, 0.65]
        returned_scores = eval_scores(run, net.forward(val.features, train=False))
        assert np.array_equal(returned_scores, recorded[1])

    def test_wm_target_memory_is_per_batch_not_per_record(self):
        # n >> batch size: an n x (L + 2) target matrix alone would be
        # 4,000 x ~400 x 8 bytes = 12.8 MB; per-batch rows need ~0.2 MB
        rng = np.random.default_rng(21)
        n = 4200
        data = make_dataset(rng.uniform(0.0, 400.0, size=n), rng.random(n) < 0.7,
                            features=rng.normal(size=(n, 4)))
        train, val = data.subset(np.arange(4000)), data.subset(np.arange(4000, n))
        assert last_event_bin(train) + 2 >= 390  # the head's outputs
        run = TrainRun(loss="wm", hidden_dims=(8,), dropout=0.0, batch_size=64,
                       max_epochs=1, patience=1, seed=5)
        tracemalloc.start()
        try:
            train_model(run, train, val)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_wm_validation_runs_with_no_batch_wide_array_alive(self, monkeypatch):
        # a head of ~1,000 outputs, batch 64 and 8 hidden units: each (batch, outputs)
        # array (0.5 MB) outweighs every other array of the run
        rng = np.random.default_rng(22)
        n = 680
        data = make_dataset(rng.uniform(0.0, 1000.0, size=n), rng.random(n) < 0.7,
                            features=rng.normal(size=(n, 4)))
        train, val = data.subset(np.arange(640)), data.subset(np.arange(640, n))
        outputs = last_event_bin(train) + 2
        assert outputs >= 990
        wide = 64 * outputs * 8  # bytes of one (batch, outputs) float64 array
        run = TrainRun(loss="wm", hidden_dims=(8,), dropout=0.0, batch_size=64,
                       max_epochs=2, patience=2, seed=5)
        predict_scores, alive = harness.predict_scores, []

        def scoring(*args, **kwargs):
            traces = tracemalloc.take_snapshot().traces
            alive.append(sum(trace.size >= wide for trace in traces))
            return predict_scores(*args, **kwargs)

        monkeypatch.setattr(harness, "predict_scores", scoring)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_model(run, train, val)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert alive == [0, 0]  # one validation per epoch
        # measured: 3.85 arrays' worth (3.98 with the scratch arrays kept per epoch);
        # 4.85 when the previous pmf outlives the next forward's logits, 5.85 with
        # three scratch arrays kept throughout
        assert peak < 4.5 * wide

    def test_a_wm_step_holds_one_batch_wide_array(self, monkeypatch):
        # a head of ~2,040 outputs and batch 256: the loss takes blocks of 16 rows, and
        # with 8 hidden units each (batch, outputs) array (4 MiB) outweighs all the rest
        rng = np.random.default_rng(23)
        n = 560
        times = np.append(rng.uniform(0.0, 2047.0, size=n - 1), 2047.5)
        data = make_dataset(times, rng.random(n) < 0.7, features=rng.normal(size=(n, 4)))
        train, val = data.subset(np.arange(512)), data.subset(np.arange(512, n))
        outputs = last_event_bin(train) + 2
        assert 2030 <= outputs <= 2048  # 16 rows a block
        wide = 256 * outputs * 8  # bytes of one (batch, outputs) float64 array
        run = TrainRun(loss="wm", hidden_dims=(8,), dropout=0.0, batch_size=256,
                       max_epochs=1, patience=1, seed=5)
        loss, alive = harness.wm_batch_with_grad, []

        def counting(*args, **kwargs):
            traces = tracemalloc.take_snapshot().traces
            alive.append(sum(trace.size >= wide for trace in traces))
            return loss(*args, **kwargs)

        monkeypatch.setattr(harness, "wm_batch_with_grad", counting)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_model(run, train, val)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert alive == [1] * 32  # the pmf alone, in each of 16 blocks of 2 batches
        # measured: 1.66 arrays' worth (the pmf, a block's targets and the loss's one scratch);
        # 3.26, and 3 such arrays alive in the loss, with (batch, T) scratch
        assert peak < 2 * wide

    def test_the_wm_head_ends_one_output_after_the_last_training_event(self):
        rng = np.random.default_rng(24)
        n = 300
        times = rng.uniform(0.0, 100.0, size=n)
        observed = (rng.random(n) < 0.7) & (times < 60.0)  # no event past bin 59
        data = make_dataset(times, observed, features=rng.normal(size=(n, 3)))
        train, val = data.subset(np.arange(240)), data.subset(np.arange(240, n))
        last = max(int(k) for k, obs in zip(train.bins, train.observed) if obs)
        run = TrainRun(loss="wm", seed=3, **{**FAST, "max_epochs": 2})
        net, _ = train_model(run, train, val)
        assert net.config.num_outputs == last + 2 < train.grid.num_bins

    def test_a_fold_with_no_observed_event_trains_one_output_at_loss_zero(self, fold):
        train, val, _ = fold
        censored = Dataset(train.features, train.times, np.zeros(len(train), dtype=bool),
                           train.grid)
        run = TrainRun(loss="wm", seed=3, **{**FAST, "max_epochs": 3, "patience": 3})
        net, history = train_model(run, censored, val)
        assert net.config.num_outputs == 1
        assert history["train_loss"] == [0.0, 0.0, 0.0]
        assert np.array_equal(predict_scores(run, net, val.features), np.zeros(len(val)))

    @pytest.mark.parametrize("logits", ["nan", "+inf", "all -inf"])
    def test_a_non_finite_softmax_row_diverges_in_training_and_scoring(self, fold, monkeypatch,
                                                                      logits):
        # the bad logit sits in the last column: column 0 still shows it
        def poison(net):
            if logits == "all -inf":
                net.params["b_out"][:] = -np.inf
            else:
                net.params["b_out"][-1] = float(logits)
            return net

        network_for = harness._network_for
        monkeypatch.setattr(harness, "_network_for", lambda *args: poison(network_for(*args)))
        train, val, _ = fold
        run = TrainRun(loss="wm", seed=3, **FAST)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="non-finite network outputs") as err:
                train_model(run, train, val)
            assert err.value.epoch == 1
            net = poison(Network(NetworkConfig(input_dim=val.n_features, hidden_dims=(8,),
                                               head="softmax", num_outputs=40, seed=1)))
            with pytest.raises(TrainingDivergedError, match="non-finite network outputs"):
                predict_scores(run, net, val.features)

    def test_returned_network_scores_the_best_recorded_epoch(self, fold):
        train, val, _ = fold
        run = TrainRun(loss="cox-efron", seed=3, **FAST)
        net, history = train_model(run, train, val)

        best = history["best_val_c_index"]
        assert best == max(history["val_c_index"])
        # strict improvement rule: the best epoch is the first maximum
        assert history["val_c_index"][history["best_epoch"] - 1] == best
        assert all(c < best for c in history["val_c_index"][: history["best_epoch"] - 1])
        assert history["stopped_epoch"] >= history["best_epoch"]

        pairs = acceptable_pairs(val)
        rescored = c_index_from_pairs(pairs, eval_scores(run, net.forward(val.features, train=False)))
        assert rescored == best

    def test_same_run_is_deterministic(self, fold):
        train, val, _ = fold
        run = TrainRun(loss="wm", seed=9, **{**FAST, "max_epochs": 6})
        net_a, hist_a = train_model(run, train, val)
        net_b, hist_b = train_model(run, train, val)
        assert hist_a == hist_b
        assert np.array_equal(
            net_a.forward(val.features, train=False), net_b.forward(val.features, train=False)
        )

    @pytest.mark.parametrize("loss", ["cox-efron", "rank-sigmoid", "wm"])
    def test_learns_the_synthetic_risk(self, fold, loss):
        train, val, _ = fold
        run = TrainRun(loss=loss, seed=3, **{**FAST, "max_epochs": 40, "patience": 8})
        _, history = train_model(run, train, val)
        assert history["best_val_c_index"] > 0.9

    @pytest.mark.parametrize("loss", harness.LOSSES)
    def test_a_batch_trains_only_when_its_loss_has_a_signal(self, monkeypatch, loss):
        # 45 training rows with 5 events in batches of 4: many batches hold no event or
        # no acceptable pair, and the last holds one row
        rng = np.random.default_rng(31)
        n, m = 45, 20
        observed = np.concatenate([np.isin(np.arange(n), rng.choice(n, 5, replace=False)),
                                   rng.random(m) < 0.7])
        data = make_dataset(rng.uniform(0.0, 20.0, size=n + m), observed)
        train, val = data.subset(np.arange(n)), data.subset(np.arange(n, n + m))
        run = TrainRun(loss=loss, hidden_dims=(4,), dropout=0.0, batch_size=4, max_epochs=3,
                       patience=3, seed=7)

        def signal(rows):  # what each family's loss needs, counted literally
            if loss.startswith("cox"):
                return any(train.observed[i] for i in rows)
            if loss.startswith("rank"):
                return any(train.observed[i] and train.bins[j] > train.bins[i]
                           for i in rows for j in rows)
            return True

        batch_rng, want = np.random.default_rng(derived_seed(run.seed, "batches")), []
        for _ in range(run.max_epochs):
            perm = batch_rng.permutation(n)
            batches = [perm[start : start + 4] for start in range(0, n, 4)]
            want.append(sum(len(rows) >= 2 and signal(rows) for rows in batches))
        assert want == {"cox": [5, 4, 5], "rank": [2, 3, 2], "wm": [11, 11, 11]}[loss.split("-")[0]]

        forward, modes = Network.forward, []

        def spy(self, batch, train, *args, **kwargs):
            modes.append(train)
            return forward(self, batch, train, *args, **kwargs)

        monkeypatch.setattr(Network, "forward", spy)
        train_model(run, train, val)
        # each epoch's train-mode forwards, then its validation's eval-mode one
        assert [len(list(group)) for mode, group in itertools.groupby(modes) if mode] == want

    def test_tiny_training_set_rejected(self, fold):
        _, val, _ = fold
        run = TrainRun(loss="wm", **FAST)
        with pytest.raises(ValueError, match="at least 2"):
            train_model(run, val.subset([0]), val)

    def test_pair_free_validation_set_is_undefined(self, synth, fold):
        train, _, _ = fold
        censored_val = synth.subset(np.nonzero(~synth.observed)[0][:20])
        run = TrainRun(loss="rank-sigmoid", **FAST)
        with pytest.raises(UndefinedMetricError, match="no acceptable pairs"):
            train_model(run, train, censored_val)

    def test_cox_needs_an_observed_event(self, synth, fold):
        _, val, _ = fold
        all_censored = synth.subset(np.nonzero(~synth.observed)[0])
        run = TrainRun(loss="cox", **FAST)
        with pytest.raises(UndefinedMetricError, match="no observed events"):
            train_model(run, all_censored, val)

    def test_ranking_needs_an_acceptable_pair(self, fold):
        _, val, _ = fold
        rng = np.random.default_rng(0)
        tied = make_dataset([3.0] * 12, [True] * 12, features=rng.normal(size=(12, 6)))
        run = TrainRun(loss="rank-sigmoid", **FAST)
        with pytest.raises(UndefinedMetricError, match="no acceptable pairs"):
            train_model(run, tied, val)

    def test_records_sharing_a_bin_never_pair_in_a_training_batch(self, monkeypatch):
        # 1.0 and 1.5 share bin 0 at width 2 and pair only by raw time; 3.0 is in bin 1
        data = make_dataset([1.0, 1.5, 3.0], [True, True, False], bin_width=2.0)
        assert len(acceptable_pairs(data)) == 3
        run = TrainRun(loss="rank-sigmoid")
        batch = harness._FAMILIES[run.loss].batches(run, data)
        assert batch(np.array([0, 1])) is None  # one bin: no pair, the batch is skipped
        seen = []
        monkeypatch.setattr(harness, "ranking_loss_with_grad",
                            lambda out, pairs, *args: seen.append(pairs) or (0.0, out))
        batch(np.array([0, 1, 2]))(np.zeros(3))
        assert list(zip(seen[0].i.tolist(), seen[0].j.tolist())) == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("loss", ["cox-efron", "rank-sigmoid", "wm"])
    def test_blown_up_training_diverges_with_the_epoch(self, fold, loss):
        train, val, _ = fold
        run = TrainRun(loss=loss, seed=3, **{**FAST, "learning_rate": 1e200, "l2": 0.0})
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train_model(run, train, val)
        assert err.value.epoch == 1

    def test_non_finite_validation_scores_diverge_with_the_epoch(self, fold):
        train, val, _ = fold
        features = np.array(val.features)
        features[-1, 0] = np.nan
        broken = Dataset(features, val.times, val.observed, val.grid)
        run = TrainRun(loss="wm", seed=3, **FAST)
        with pytest.raises(TrainingDivergedError, match="validation") as err:
            train_model(run, train, broken)
        assert err.value.epoch == 1


class TestGridSearch:
    """The per-fold (learning rate, l2) search inside `run_cv`."""

    def test_each_fold_picks_what_train_model_gives_at_the_derived_seed(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        report = run_cv(synth, "rank-sigmoid", k=2, grid=[(1e-2, 1e-4)], seed=5,
                        template=template)
        for fi, (tr, va, te) in enumerate(cv_splits(len(synth), 2, 0.2, 5)):
            direct_run = replace(template, learning_rate=1e-2, l2=1e-4,
                                 seed=derived_seed(5, "fold", fi, "grid", 0))
            net, history = train_model(direct_run, synth.subset(tr), synth.subset(va))
            test = synth.subset(te)
            assert report.folds[fi] == FoldResult(
                fold=fi, learning_rate=1e-2, l2=1e-4, val_c_index=history["best_val_c_index"],
                test_c_index=c_index(test, predict_scores(direct_run, net, test.features)))

    def test_absurd_learning_rate_loses_to_a_sane_one(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        with np.errstate(all="ignore"):
            report = run_cv(synth, "rank-sigmoid", k=2, grid=[(1e3, 0.0), (1e-2, 1e-4)],
                            seed=3, template=template)
        assert [(f.learning_rate, f.l2) for f in report.folds] == [(1e-2, 1e-4)] * 2

    @pytest.mark.parametrize("grid, n_jobs, named", [
        ([], 1, "at least one point"),
        ([(1e-2, 0.0)], 0, "n_jobs"),
        ([(1e-2, 0.0)], -2, "n_jobs"),
        ([(1e-2, 0.0)], 2.0, "n_jobs"),
        ([(1e-2, 0.0), (1e-2, -1.0)], 1, "l2_coefficient must be >= 0"),
        ([(1e-2, 0.0), (0.0, 0.0)], 1, "learning_rate must be positive"),
        ([(1e-2, 0.0), (True, "0")], 1,
         r"grid point \(True, '0'\) .*learning_rate must be a real number, got True"),
        ([(1e-2, False)], 1, r"grid point \(0.01, False\) .*l2 must be a real number"),
        ([(1e-2, "0")], 1, r"grid point \(0.01, '0'\) .*l2 must be a real number"),
        ([(1e-2, 0.0, 3)], 1, r"grid point \(0.01, 0.0, 3\) is not a \(learning_rate, l2\)"),
        ([1e-2], 1, r"grid point 0.01 is not a \(learning_rate, l2\) pair"),
        ([(1e-2, 0.0), (10**400, 0.0)], 1, r"grid point \(1000.* 0.0\) does not fit a float"),
        ([(1e-2, -(10**400))], 1, r"grid point \(0.01, -1000.*\) does not fit a float"),
    ], ids=["empty", "no-jobs", "negative-jobs", "float-jobs", "negative-l2", "zero-rate",
            "bool-and-string", "bool-l2", "string-l2", "triple", "bare-number",
            "rate-past-the-float-range", "l2-past-the-float-range"])
    def test_a_grid_that_cannot_run_encodes_and_trains_nothing(self, synth, tmp_path,
                                                              monkeypatch, trainings,
                                                              grid, n_jobs, named):
        table = _raw_table(synth, tmp_path)
        encoded = []
        monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
        with pytest.raises(ValueError, match=named):
            run_cv(table, "wm", k=2, grid=grid, bin_width=5.0, n_jobs=n_jobs,
                   template=TrainRun(loss="wm", **FAST))
        assert encoded == [] and trainings == []

    def test_grid_values_are_taken_as_floats(self):
        grid = harness._checked_grid([(np.float64(1e-2), 0), [1, np.int64(0)]], 1, [])
        assert grid == [(1e-2, 0.0), (1.0, 0.0)]
        assert all(type(v) is float for point in grid for v in point)

    def test_every_point_diverging_fails_the_experiment(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        with np.errstate(all="ignore"):
            with pytest.raises(ExperimentFailedError, match="all 1 grid points") as err:
                run_cv(synth, "rank-sigmoid", k=2, grid=[(1e200, 0.0)], seed=3,
                       template=template)
        # the message names the loss, and each point with its epoch and reason
        assert str(err.value) == (
            "rank-sigmoid fold 0: all 1 grid points diverged: "
            "(lr, l2) = (1e+200, 0.0) at epoch 1: non-finite network outputs"
        )

    @pytest.mark.parametrize("loss", ["cox-efron", "wm"])
    def test_a_diverging_point_is_skipped_alike_in_a_pool(self, synth, loss):
        kwargs = dict(k=2, grid=[(1e200, 0.0), (1e-2, 1e-4)], seed=3,
                      template=TrainRun(loss=loss, **FAST))
        with np.errstate(all="ignore"):
            serial = run_cv(synth, loss, **kwargs)
            parallel = run_cv(synth, loss, n_jobs=2, **kwargs)
        assert [(f.learning_rate, f.l2) for f in serial.folds] == [(1e-2, 1e-4)] * 2
        assert parallel == serial

    def test_every_point_diverging_fails_alike_in_a_pool(self, synth):
        kwargs = dict(fractions=[0.6], k=2, grid=[(1e200, 0.0), (1e300, 1e-4)], seed=3,
                      template=TrainRun(loss="rank-sigmoid", **FAST))
        messages = []
        for n_jobs in (1, 2):
            with np.errstate(all="ignore"), pytest.raises(ExperimentFailedError) as err:
                censoring_sweep(synth, "rank-sigmoid", n_jobs=n_jobs, **kwargs)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # a TrainingDivergedError pickled back from a worker keeps its epoch
        assert messages[1].startswith(
            "rank-sigmoid (censoring fraction 0.6) fold 0: all 2 grid points diverged: "
            "(lr, l2) = (1e+200, 0.0) at epoch 1: ")
        assert messages[1].count(" at epoch 1: ") == 2

    def test_ties_break_toward_lower_l2_then_lower_rate(self):
        grid = [(1e-2, 1e-3), (1e-4, 0.0), (1e-3, 1e-4), (1e-2, 1e-4)]
        results = [({"best_val_c_index": 0.7}, 0.61), TrainingDivergedError("x", epoch=2),
                   ({"best_val_c_index": 0.7}, 0.63), ({"best_val_c_index": 0.7}, 0.64)]
        gi, history, test_c = harness._select("rank-sigmoid", 0, grid, results)
        # (1e-4, 0.0) has the lowest l2 but diverged; (1e-3, 1e-4) beats (1e-2, 1e-4)
        assert (gi, history, test_c) == (2, {"best_val_c_index": 0.7}, 0.63)
        results[1] = ({"best_val_c_index": 0.7 - 1e-12}, 0.9)
        assert harness._select("rank-sigmoid", 0, grid, results)[0] == 2

    def test_jobs_are_seeded_per_fold_and_grid_position(self, synth, trainings):
        run_cv(synth, "rank-sigmoid", k=2, grid=[(1e-2, 1e-4), (1e-3, 0.0)], seed=5,
               template=TrainRun(loss="rank-sigmoid", **FAST))
        assert [(r.learning_rate, r.l2, r.seed) for r in trainings] == [
            (lr, l2, derived_seed(5, "fold", fi, "grid", gi))
            for fi in range(2) for gi, (lr, l2) in enumerate([(1e-2, 1e-4), (1e-3, 0.0)])
        ]


@pytest.fixture(scope="module")
def report(synth):
    template = TrainRun(loss="rank-sigmoid", **FAST)
    return run_cv(
        synth, "rank-sigmoid", k=3, grid=[(1e-2, 1e-4), (1e-3, 0.0)], seed=7,
        template=template,
    )


class TestRunCv:
    def test_one_result_per_fold(self, report):
        assert report.k == 3 and report.loss == "rank-sigmoid" and report.seed == 7
        assert [f.fold for f in report.folds] == [0, 1, 2]
        for f in report.folds:
            assert (f.learning_rate, f.l2) in ((1e-2, 1e-4), (1e-3, 0.0))
            assert 0.0 <= f.val_c_index <= 1.0 and 0.0 <= f.test_c_index <= 1.0

    def test_aggregate_is_mean_and_stderr_over_folds(self, report):
        tests = np.array([f.test_c_index for f in report.folds])
        assert abs(report.mean_test_c_index - tests.mean()) < 1e-12
        assert abs(report.stderr_test_c_index - tests.std(ddof=1) / math.sqrt(3)) < 1e-12

    def test_same_seed_reproduces_the_report(self, synth, report):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        again = run_cv(
            synth, "rank-sigmoid", k=3, grid=[(1e-2, 1e-4), (1e-3, 0.0)], seed=7,
            template=template,
        )
        assert again == report

    def test_parallel_equals_serial(self, synth, report, tmp_path):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        parallel = run_cv(
            synth, "rank-sigmoid", k=3, grid=[(1e-2, 1e-4), (1e-3, 0.0)], seed=7,
            template=template, n_jobs=2,
        )
        assert parallel == report
        a = emit_report(report, tmp_path / "serial.csv")
        b = emit_report(parallel, tmp_path / "parallel.csv")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_one_encoded_fold_is_alive_per_job(self, synth, tmp_path, monkeypatch):
        table = _raw_table(synth, tmp_path)
        at_encode, at_job = _folds_alive(monkeypatch, lambda: run_cv(
            table, "rank-sigmoid", k=3, grid=[(1e-2, 1e-4), (1e-3, 0.0)], seed=7,
            bin_width=5.0, template=TrainRun(loss="rank-sigmoid", **FAST)))
        assert at_encode == [0] * 3 and at_job == [1] * 3 * 2

    def test_default_grid_is_the_rate_by_penalty_product(self):
        assert harness.DEFAULT_GRID == tuple(
            (lr, l2) for lr in (1e-2, 1e-3, 1e-4) for l2 in (0.0, 1e-4, 1e-3, 1e-2)
        )


class TestExperimentReportValidation:
    def _folds(self, tests):
        return tuple(
            FoldResult(fold=i, learning_rate=1e-2, l2=0.0, val_c_index=0.9,
                       test_c_index=t)
            for i, t in enumerate(tests)
        )

    def test_fold_count_must_match_k(self):
        with pytest.raises(ValueError):
            ExperimentReport(
                loss="wm", k=3, seed=0, folds=self._folds([0.9, 0.91]),
                mean_test_c_index=0.905, stderr_test_c_index=0.005,
            )

    def test_mean_must_sit_inside_the_fold_range(self):
        with pytest.raises(ValueError):
            ExperimentReport(
                loss="wm", k=2, seed=0, folds=self._folds([0.9, 0.91]),
                mean_test_c_index=0.95, stderr_test_c_index=0.005,
            )


class TestApplyCensoringMode:
    def test_with_censored_is_the_identity(self, fold):
        train, _, _ = fold
        assert apply_censoring_mode(train, "with_censored") is train

    def test_no_censored_keeps_only_events(self, fold):
        train, _, _ = fold
        out = apply_censoring_mode(train, "no_censored")
        assert len(out) == int(train.observed.sum())
        assert out.observed.all()
        assert np.array_equal(out.times, train.times[train.observed])
        assert out.grid is train.grid

    def test_death_at_censoring_flips_every_indicator(self, fold):
        train, _, _ = fold
        out = apply_censoring_mode(train, "death_at_censoring")
        assert len(out) == len(train)
        assert out.observed.all()
        assert np.array_equal(out.times, train.times)
        assert np.array_equal(out.features, train.features)
        assert out.grid is train.grid

    def test_unknown_mode_rejected(self, fold):
        train, _, _ = fold
        with pytest.raises(ValueError, match="unknown censoring mode"):
            apply_censoring_mode(train, "impute")


@pytest.fixture()
def trainings(monkeypatch):
    """Every run `harness.train_model` is called with."""
    runs = []
    real = harness.train_model

    def spy(run, train, val):
        runs.append(run)
        return real(run, train, val)

    monkeypatch.setattr(harness, "train_model", spy)
    return runs


def _raw_table(dataset, tmp_path):
    names = [f"f{i}" for i in range(dataset.n_features)]
    save_csv(dataset, tmp_path / "t.csv")
    return load_csv(tmp_path / "t.csv", schema_for_features(names))


def _report_bytes(report, tmp_path, name):
    """The CSV then the JSON bytes of a report."""
    return [
        emit_report(report, tmp_path / f"{name}.{fmt}", format=fmt).read_bytes()
        for fmt in ("csv", "json")
    ]


def _folds_alive(monkeypatch, experiment):
    """Run `experiment()` and count the folds whose encoded datasets are
    alive (three `preprocess` calls a fold): (as each fold's encoding
    starts, as each `_fit_job` starts)."""
    encoded, at_encode, at_job = [], [], []
    real_preprocess, real_fit = harness.preprocess, harness._fit_job

    def alive():
        gc.collect()
        return len({i // 3 for i, ref in enumerate(encoded) if ref() is not None})

    def preprocess(*args, **kwargs):
        if len(encoded) % 3 == 0:
            at_encode.append(alive())
        result = real_preprocess(*args, **kwargs)
        encoded.append(weakref.ref(result.features))  # the very array the Dataset holds
        return result

    def fit(job):
        at_job.append(alive())
        return real_fit(job)

    monkeypatch.setattr(harness, "preprocess", preprocess)
    monkeypatch.setattr(harness, "_fit_job", fit)
    experiment()
    return at_encode, at_job


class TestCensoringAblation:
    def test_requires_censored_records(self):
        uncensored = generate_synthetic(60, 4, 0.0, 0.05, seed=2)
        with pytest.raises(ValueError, match="censored records"):
            censoring_ablation(uncensored, losses=("wm",), k=2)

    def test_cells_cover_the_grid_and_share_folds(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        result = censoring_ablation(
            synth, losses=("rank-sigmoid",), modes=("with_censored", "no_censored"),
            k=2, grid=[(1e-2, 1e-4)], seed=7, template=template,
        )
        assert [(c.loss, c.mode) for c in result.cells] == [
            ("rank-sigmoid", "with_censored"),
            ("rank-sigmoid", "no_censored"),
        ]
        cell = result.cell("rank-sigmoid", "no_censored")
        assert cell.report.k == 2
        with pytest.raises(KeyError):
            result.cell("rank-sigmoid", "death_at_censoring")

        # with_censored leaves training sets alone, so that cell must equal a
        # plain cross-validation run at the same seed
        plain = run_cv(
            synth, "rank-sigmoid", k=2, grid=[(1e-2, 1e-4)], seed=7, template=template
        )
        assert result.cell("rank-sigmoid", "with_censored").report == plain

    def test_unknown_mode_rejected(self, synth, trainings):
        with pytest.raises(ValueError, match="unknown censoring mode"):
            censoring_ablation(synth, losses=("wm",), modes=("with_censored", "typo"), k=2,
                               grid=[(1e-2, 0.0)], template=TrainRun(loss="wm", **FAST))
        assert trainings == []

    @pytest.mark.parametrize("losses, modes, named", [
        (("rank-sigmoid", "rank-sigmoid"), CENSORING_MODES, "loss 'rank-sigmoid'"),
        (("wm",), ("no_censored", "with_censored", "no_censored"), "mode 'no_censored'"),
    ])
    def test_a_repeated_loss_or_mode_trains_nothing(self, synth, trainings, losses, modes,
                                                     named):
        with pytest.raises(ValueError, match=f"{named} is listed more than once"):
            censoring_ablation(synth, losses=losses, modes=modes, k=2, grid=[(1e-2, 0.0)],
                               template=TrainRun(loss="wm", **FAST))
        assert trainings == []

    def test_a_diverged_fold_names_its_mode(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        with np.errstate(all="ignore"), pytest.raises(ExperimentFailedError) as err:
            censoring_ablation(synth, losses=("rank-sigmoid",), modes=("no_censored",), k=2,
                               grid=[(1e200, 0.0)], template=template)
        assert str(err.value).startswith(
            "rank-sigmoid (no_censored) fold 0: all 1 grid points diverged: (lr, l2) = ")

    def test_divergence_names_the_first_failing_cell_in_fold_major_order(self, synth,
                                                                          monkeypatch):
        # with_censored diverges on fold 1 only, no_censored on fold 0 only; jobs run
        # fold-major, so no_censored's fold 0 fails first
        fold_of = {derived_seed(7, "fold", fi, "grid", 0): fi for fi in range(2)}
        real = harness.train_model

        def train_model(run, train, val):
            mode = "no_censored" if train.observed.all() else "with_censored"
            if (mode, fold_of[run.seed]) in {("with_censored", 1), ("no_censored", 0)}:
                raise TrainingDivergedError("forced", epoch=1)
            return real(run, train, val)

        monkeypatch.setattr(harness, "train_model", train_model)
        with pytest.raises(ExperimentFailedError) as err:
            censoring_ablation(synth, losses=("rank-sigmoid",),
                               modes=("with_censored", "no_censored"), k=2, grid=[(1e-2, 1e-4)],
                               seed=7, template=TrainRun(loss="rank-sigmoid", **FAST))
        assert str(err.value) == ("rank-sigmoid (no_censored) fold 0: all 1 grid points "
                                  "diverged: (lr, l2) = (0.01, 0.0001) at epoch 1: forced")

    def test_one_encoded_fold_is_alive_per_job(self, synth, tmp_path, monkeypatch):
        table = _raw_table(synth, tmp_path)
        at_encode, at_job = _folds_alive(monkeypatch, lambda: censoring_ablation(
            table, losses=("rank-sigmoid", "cox-efron"), modes=("with_censored", "no_censored"),
            k=3, grid=[(1e-2, 1e-4)], seed=7, bin_width=5.0,
            template=TrainRun(loss="rank-sigmoid", **FAST)))
        assert at_encode == [0] * 3 and at_job == [1] * 3 * 4

    def test_unknown_loss_rejected_before_any_training(self, synth, trainings):
        with pytest.raises(ValueError, match="unknown loss 'bogus'"):
            censoring_ablation(synth, losses=("wm", "bogus"), k=2, grid=[(1e-2, 0.0)],
                               template=TrainRun(loss="wm", **FAST))
        assert trainings == []

    def test_folds_are_encoded_once_per_experiment(self, synth, tmp_path, monkeypatch):
        table = _raw_table(synth, tmp_path)
        calls = []
        real = harness.preprocess

        def spy(*args, **kwargs):
            calls.append(kwargs.get("rows"))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "preprocess", spy)
        result = censoring_ablation(
            table, losses=("rank-sigmoid", "cox-efron"), k=3, grid=[(1e-2, 1e-4)], seed=7,
            bin_width=5.0, template=TrainRun(loss="rank-sigmoid", **FAST),
        )
        assert len(result.cells) == 6
        # one train, val and test encoding per fold, shared by all six cells
        assert len(calls) == 3 * 3

    @pytest.mark.parametrize("experiment, named", [
        (lambda table, **kw: censoring_ablation(table, losses=(), **kw), "no loss is listed"),
        (lambda table, **kw: censoring_ablation(table, modes=[], **kw),
         "no censoring mode is listed"),
        (lambda table, **kw: censoring_sweep(table, "wm", fractions=[], **kw),
         "no censoring fraction is listed"),
        (lambda table, **kw: run_cv(table, "wm", grid=[(1e-2, 0.0), (0.0, 0.0)], **kw),
         "learning_rate must be positive"),
        (lambda table, **kw: censoring_sweep(table, "wm", fractions=["0.6", True], **kw),
         "censoring fraction must be a real number, got '0.6'"),
        (lambda table, **kw: censoring_sweep(table, "wm", fractions=[0.6, True], **kw),
         "censoring fraction must be a real number, got True"),
    ], ids=["no-loss", "no-mode", "no-fraction", "bad-grid-point", "string-fraction",
            "bool-fraction"])
    def test_an_experiment_that_cannot_run_encodes_no_fold(self, synth, tmp_path, monkeypatch,
                                                           experiment, named):
        table = _raw_table(synth, tmp_path)
        encoded = []
        monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
        with pytest.raises(ValueError, match=named):
            experiment(table, k=2, bin_width=5.0, template=TrainRun(loss="wm", **FAST))
        assert encoded == []

    def test_at_most_one_fold_holds_trained_networks(self, synth, monkeypatch):
        # stronger than its name: no trained network is alive when the next job starts, as
        # each job scores its own network; the first point diverges at epoch 1, so its
        # returned error must not hold its network either
        grid = [(1e200, 0.0), (1e-2, 1e-4), (1e-2, 0.0)]
        networks, alive_at_job = [], []  # weak references to every network train_model built
        real_network_for, real_fit = harness._network_for, harness._fit_job

        def network_for(*args):
            net = real_network_for(*args)
            networks.append(weakref.ref(net))
            return net

        def fit(job):
            gc.collect()
            alive_at_job.append(sum(ref() is not None for ref in networks))
            return real_fit(job)

        monkeypatch.setattr(harness, "_network_for", network_for)
        monkeypatch.setattr(harness, "_fit_job", fit)
        with np.errstate(all="ignore"):
            result = censoring_ablation(
                synth, losses=("wm",), modes=("with_censored", "no_censored"), k=2, grid=grid,
                seed=7, template=TrainRun(loss="wm", **FAST),
            )
        assert len(result.cells) == 2 and len(networks) == 2 * 2 * len(grid)
        assert alive_at_job == [0] * len(networks)

    def test_parallel_equals_serial(self, synth, tmp_path):
        kwargs = dict(losses=("wm", "rank-sigmoid"), k=2, grid=[(1e-2, 1e-4), (1e-2, 0.0)],
                      seed=7, template=TrainRun(loss="wm", **FAST))
        serial = censoring_ablation(synth, **kwargs)
        parallel = censoring_ablation(synth, n_jobs=2, **kwargs)
        assert _report_bytes(parallel, tmp_path, "p") == _report_bytes(serial, tmp_path, "s")


class TestCensoringSweep:
    def test_below_native_fraction_rejected(self, synth, trainings):
        with pytest.raises(ValueError, match="below the native"):
            censoring_sweep(synth, "rank-sigmoid", fractions=[0.05], k=2)
        assert trainings == []

    def test_fraction_above_one_rejected(self, synth, trainings):
        with pytest.raises(ValueError, match="<= 1"):
            censoring_sweep(synth, "rank-sigmoid", fractions=[1.1], k=2)
        assert trainings == []

    @pytest.mark.parametrize("bad", [0.05, 1.5, float("nan")])
    def test_bad_fraction_after_a_good_one_trains_nothing(self, synth, trainings, bad):
        with pytest.raises(ValueError, match=f"censoring fraction {bad} "):
            censoring_sweep(synth, "rank-sigmoid", fractions=[0.5, bad], k=2,
                            grid=[(1e-2, 1e-4)], template=TrainRun(loss="rank-sigmoid", **FAST))
        assert trainings == []

    def test_a_repeated_fraction_trains_nothing(self, synth, trainings):
        with pytest.raises(ValueError, match="censoring fraction 0.6 is listed more than once"):
            censoring_sweep(synth, "rank-sigmoid", fractions=[0.6, 0.9, 0.6], k=2,
                            grid=[(1e-2, 1e-4)], template=TrainRun(loss="rank-sigmoid", **FAST))
        assert trainings == []

    def test_a_diverged_fold_names_its_fraction(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        with np.errstate(all="ignore"), pytest.raises(ExperimentFailedError) as err:
            censoring_sweep(synth, "rank-sigmoid", fractions=[0.6], k=2, grid=[(1e200, 0.0)],
                            template=template)
        assert str(err.value).startswith(
            "rank-sigmoid (censoring fraction 0.6) fold 0: all 1 grid points diverged: ")

    def test_parallel_equals_serial(self, synth, tmp_path):
        kwargs = dict(fractions=[synth.censored_fraction, 0.6, 0.9], k=2,
                      grid=[(1e-2, 1e-4), (1e-2, 0.0)], seed=7,
                      template=TrainRun(loss="wm", **FAST))
        serial = censoring_sweep(synth, "wm", **kwargs)
        parallel = censoring_sweep(synth, "wm", n_jobs=2, **kwargs)
        assert _report_bytes(parallel, tmp_path, "p") == _report_bytes(serial, tmp_path, "s")

    def test_native_fraction_reproduces_plain_cv(self, synth):
        template = TrainRun(loss="rank-sigmoid", **FAST)
        native = synth.censored_fraction
        sweep = censoring_sweep(
            synth, "rank-sigmoid", fractions=[native], k=2, grid=[(1e-2, 1e-4)],
            seed=7, template=template,
        )
        plain = run_cv(
            synth, "rank-sigmoid", k=2, grid=[(1e-2, 1e-4)], seed=7, template=template
        )
        assert sweep.loss == "rank-sigmoid" and sweep.seed == 7
        assert sweep.points[0].fraction == native
        assert sweep.points[0].report == plain

    def test_fully_censored_training_breaks_non_km_losses(self, synth):
        template = TrainRun(loss="cox-efron", **FAST)
        with pytest.raises(UndefinedMetricError):
            censoring_sweep(
                synth, "cox-efron", fractions=[1.0], k=2, grid=[(1e-2, 1e-4)],
                seed=7, template=template,
            )

    def test_a_pool_draws_only_a_few_folds_ahead(self, synth, monkeypatch):
        drawn, drawn_at_reduce = [], []
        real_modifier, real_select = harness._sweep_modifier, harness._select

        def modifier(fraction):
            def modify(train, rng):
                drawn.append(fraction)
                return real_modifier(fraction)(train, rng)
            return modify

        def select(*args):
            drawn_at_reduce.append(len(drawn))
            return real_select(*args)

        monkeypatch.setattr(harness, "_sweep_modifier", modifier)
        monkeypatch.setattr(harness, "_select", select)
        censoring_sweep(
            synth, "wm", fractions=[0.5, 0.6, 0.7, 0.8, 0.9], k=2, grid=[(1e-2, 1e-4)],
            seed=7, template=TrainRun(loss="wm", **FAST), n_jobs=2,
        )
        assert len(drawn) == len(drawn_at_reduce) == 5 * 2
        # one grid point per fold: the fold being reduced plus 2 x n_jobs queued
        assert max(d - r for r, d in enumerate(drawn_at_reduce)) <= 1 + 2 * 2

    def test_a_worker_error_reaches_the_caller(self, synth):
        template = TrainRun(loss="cox-efron", **FAST)
        with pytest.raises(UndefinedMetricError, match="no observed events"):
            censoring_sweep(
                synth, "cox-efron", fractions=[synth.censored_fraction, 1.0], k=2,
                grid=[(1e-2, 1e-4)], seed=7, template=template, n_jobs=2,
            )

    def test_fully_censored_training_still_defines_the_cdf_loss(self, synth):
        template = TrainRun(loss="wm", **FAST)
        sweep = censoring_sweep(
            synth, "wm", fractions=[1.0], k=2, grid=[(1e-2, 1e-4)], seed=7,
            template=template,
        )
        assert sweep.points[0].fraction == 1.0
        assert sweep.points[0].report.k == 2

    def test_modifier_censors_exactly_to_the_requested_fraction(self, fold):
        train, _, _ = fold
        rng = np.random.default_rng(0)
        out = harness._sweep_modifier(0.6)(train, rng)

        assert out is not train and out.grid is train.grid
        assert int(np.count_nonzero(~out.observed)) == math.ceil(0.6 * len(train))
        # originally censored rows are untouched; converts only push times down
        converted = train.observed & ~out.observed
        assert np.array_equal(out.times[~converted], train.times[~converted])
        assert np.all(out.times[converted] <= train.times[converted])
        assert np.array_equal(out.observed | train.observed, train.observed)

    def test_already_censored_enough_is_a_no_op(self, fold):
        train, _, _ = fold
        native = train.censored_fraction
        assert harness._sweep_modifier(native)(train, np.random.default_rng(0)) is train


class TestEmitReport:
    @pytest.fixture()
    def small_report(self):
        tests = np.array([0.91, 0.89])
        folds = (
            FoldResult(fold=0, learning_rate=0.01, l2=0.0001, val_c_index=0.9,
                       test_c_index=0.91),
            FoldResult(fold=1, learning_rate=0.001, l2=0.0, val_c_index=0.92,
                       test_c_index=0.89),
        )
        return ExperimentReport(
            loss="wm", k=2, seed=4, folds=folds,
            mean_test_c_index=float(tests.mean()),
            stderr_test_c_index=float(tests.std(ddof=1) / math.sqrt(2)),
        )

    def test_csv_layout_is_fold_rows_plus_one_aggregate(self, small_report, tmp_path):
        path = emit_report(small_report, tmp_path / "r.csv")
        assert str(path) == str(tmp_path / "r.csv")
        text = open(path, encoding="utf-8").read()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert len(lines) == 2 + 2  # header, one row per fold, aggregate
        assert lines[0] == "row,fold,learning_rate,l2,val_c_index,test_c_index,stderr"
        assert lines[1] == "fold,0,0.01,0.0001,0.9,0.91,"
        assert lines[2] == "fold,1,0.001,0.0,0.92,0.89,"
        mean, se = small_report.mean_test_c_index, small_report.stderr_test_c_index
        assert lines[3] == f"aggregate,,,,,{mean!r},{se!r}"

    def test_csv_and_json_carry_identical_numbers(self, small_report, tmp_path):
        csv_path = emit_report(small_report, tmp_path / "r.csv", format="csv")
        json_path = emit_report(small_report, tmp_path / "r.json", format="json")

        doc = json.load(open(json_path, encoding="utf-8"))
        assert doc["loss"] == "wm" and doc["k"] == 2 and doc["seed"] == 4
        assert doc["mean_test_c_index"] == small_report.mean_test_c_index
        assert doc["stderr_test_c_index"] == small_report.stderr_test_c_index
        assert [f["test_c_index"] for f in doc["folds"]] == [0.91, 0.89]
        assert "seconds" not in doc["folds"][0]

        rows = list(csv.DictReader(open(csv_path, encoding="utf-8")))
        for row, entry in zip(rows[:2], doc["folds"]):
            for field in ("learning_rate", "l2", "val_c_index", "test_c_index"):
                assert abs(float(row[field]) - entry[field]) < 1e-12
        assert abs(float(rows[2]["test_c_index"]) - doc["mean_test_c_index"]) < 1e-12
        assert abs(float(rows[2]["stderr"]) - doc["stderr_test_c_index"]) < 1e-12

    def test_empty_sweep_is_header_only(self, tmp_path):
        path = emit_report(SweepResult(loss="wm", seed=0, points=()), tmp_path / "s.csv")
        assert open(path, encoding="utf-8").read() == "fraction,mean,stderr\n"

    def test_ablation_layout(self, small_report, tmp_path):
        result = AblationResult(
            cells=(
                AblationCell(loss="wm", mode="with_censored", report=small_report),
                AblationCell(loss="wm", mode="no_censored", report=small_report),
            )
        )
        lines = open(emit_report(result, tmp_path / "a.csv"), encoding="utf-8").read().splitlines()
        mean, se = small_report.mean_test_c_index, small_report.stderr_test_c_index
        assert lines[0] == "loss,mode,mean,stderr"
        assert lines[1] == f"wm,with_censored,{mean!r},{se!r}"
        assert lines[2] == f"wm,no_censored,{mean!r},{se!r}"

        doc = json.load(open(emit_report(result, tmp_path / "a.json", format="json"),
                             encoding="utf-8"))
        assert doc["cells"][1]["mode"] == "no_censored"
        assert doc["cells"][0]["mean"] == mean

    def test_unknown_format_rejected(self, small_report, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(small_report, tmp_path / "r.xml", format="xml")

    def test_unknown_report_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_report({"mean": 0.9}, tmp_path / "r.csv")
