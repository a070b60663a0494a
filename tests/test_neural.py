import copy
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest

from censrank.errors import TrainingDivergedError
from censrank.neural import Adam, Network, NetworkConfig, load_checkpoint, save_checkpoint

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _small_net(seed=0, **kwargs):
    defaults = dict(input_dim=4, hidden_dims=(6, 5), seed=seed)
    defaults.update(kwargs)
    return Network(NetworkConfig(**defaults))


def _zero_weights(net):
    for name in net.params:
        if name.startswith(("W", "b")):
            net.params[name] = np.zeros_like(net.params[name])


class TestNetworkConfig:
    def test_rejects_empty_hidden_dims(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, hidden_dims=())

    def test_rejects_a_zero_width_layer(self):
        for input_dim, hidden_dims in ((0, (4,)), (3, (0,)), (3, (4, 0, 4)), (3, (-1,))):
            with pytest.raises(ValueError, match="must be an integer >= 1, got 0|got -1"):
                NetworkConfig(input_dim=input_dim, hidden_dims=hidden_dims)

    @pytest.mark.parametrize("option, value, named", [
        ("input_dim", 2.0, "input_dim must be an integer"),
        ("hidden_dims", (8.7,), "width in hidden_dims must be an integer"),
        ("hidden_dims", (True,), "width in hidden_dims must be an integer"),
        ("seed", -1, "seed must be an integer >= 0"),
        ("seed", 3.0, "seed must be an integer"),
        ("hidden_dims", 5, "hidden_dims must be a list or tuple"),
        ("hidden_dims", "44", "hidden_dims must be a list or tuple"),
        ("num_outputs", 4.0, "num_outputs must be an integer"),
        ("num_outputs", True, "num_outputs must be an integer"),
        ("num_outputs", 0, "num_outputs must be an integer >= 1"),
        ("dropout_rate", False, "dropout_rate must be a real number"),
        ("dropout_rate", "0.5", "dropout_rate must be a real number"),
        ("dropout_rate", None, "dropout_rate must be a real number"),
        ("l2_coefficient", True, "l2_coefficient must be a real number"),
        ("l2_coefficient", "x", "l2_coefficient must be a real number"),
    ])
    def test_every_field_rejects_a_wrong_type_by_name(self, option, value, named):
        options = dict(input_dim=3, hidden_dims=(4,), head="softmax", num_outputs=4, seed=0)
        with pytest.raises(ValueError, match=named):
            NetworkConfig(**{**options, option: value})

    def test_rejects_unknown_head(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, head="linear")

    def test_scalar_head_has_one_output(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, head="scalar_linear", num_outputs=4)

    def test_rejects_bad_dropout(self):
        for rate in (1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                NetworkConfig(input_dim=3, dropout_rate=rate)

    def test_rejects_negative_l2(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, l2_coefficient=-1e-4)

    def test_rejects_nan_l2(self):
        with pytest.raises(ValueError, match="l2_coefficient"):
            NetworkConfig(input_dim=3, l2_coefficient=float("nan"))

    def test_rejects_infinite_l2(self):
        with pytest.raises(ValueError, match="l2_coefficient"):
            NetworkConfig(input_dim=3, l2_coefficient=float("inf"))


class TestForward:
    def test_zero_network_maps_to_zero(self):
        net = _small_net()
        _zero_weights(net)
        out = net.forward(np.random.default_rng(0).normal(size=(5, 4)), train=False)
        assert out.shape == (5,)
        assert np.array_equal(out, np.zeros(5))

    def test_zero_softmax_network_is_uniform(self):
        net = _small_net(head="softmax", num_outputs=4)
        _zero_weights(net)
        out = net.forward(np.random.default_rng(0).normal(size=(3, 4)), train=False)
        assert np.array_equal(out, np.full((3, 4), 0.25))

    def test_softmax_rows_normalize(self):
        net = _small_net(head="softmax", num_outputs=7, seed=3)
        out = net.forward(np.random.default_rng(1).normal(size=(10, 4)) * 5.0, train=False)
        assert out.shape == (10, 7)
        assert np.all(out >= 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-6

    def test_shape_mismatch_rejected(self):
        net = _small_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)), train=False)
        with pytest.raises(ValueError):
            net.forward(np.zeros(4), train=False)

    def test_train_mode_needs_two_rows(self):
        net = _small_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4)), train=True)
        # eval mode has no such restriction
        net.forward(np.zeros((1, 4)), train=False)

    def test_eval_forward_is_pure(self):
        net = _small_net(seed=5, dropout_rate=0.5)
        batch = np.random.default_rng(2).normal(size=(6, 4))
        before = net.snapshot()
        first = net.forward(batch, train=False)
        second = net.forward(batch, train=False)
        after = net.snapshot()
        assert np.array_equal(first, second)
        for group in ("params", "running"):
            for name in before[group]:
                assert np.array_equal(before[group][name], after[group][name])

    def test_train_mode_updates_running_statistics(self):
        net = _small_net(seed=6)
        batch = np.random.default_rng(3).normal(size=(8, 4)) + 2.0
        before = copy.deepcopy(net.running)
        net.forward(batch, train=True)
        changed = any(
            not np.array_equal(before[name], net.running[name]) for name in before
        )
        assert changed

    def test_train_and_eval_converge_on_a_constant_batch(self):
        # dropout 0: after enough identical train batches the running
        # statistics approach the batch statistics and the two modes agree
        net = _small_net(seed=7)
        batch = np.random.default_rng(4).normal(size=(16, 4))
        for _ in range(100):
            train_out = net.forward(batch, train=True)
        eval_out = net.forward(batch, train=False)
        assert np.max(np.abs(train_out - eval_out)) < 1e-4

    def test_same_seed_same_trajectory(self):
        a = _small_net(seed=11, dropout_rate=0.4)
        b = _small_net(seed=11, dropout_rate=0.4)
        batch = np.random.default_rng(5).normal(size=(6, 4))
        for _ in range(3):
            out_a = a.forward(batch, train=True)
            out_b = b.forward(batch, train=True)
            assert np.array_equal(out_a, out_b)

    def test_dropout_draws_differ_across_calls(self):
        # with dropout 0 train-mode outputs on a fixed batch are identical
        # across calls, so any difference here comes from fresh masks
        net = _small_net(seed=12, dropout_rate=0.5)
        batch = np.random.default_rng(6).normal(size=(8, 4))
        out1 = net.forward(batch, train=True)
        out2 = net.forward(batch, train=True)
        assert not np.array_equal(out1, out2)
        silent = _small_net(seed=12, dropout_rate=0.0)
        assert np.array_equal(
            silent.forward(batch, train=True), silent.forward(batch, train=True)
        )


class TestBackward:
    def test_requires_cached_forward(self):
        net = _small_net()
        with pytest.raises(RuntimeError):
            net.backward(np.zeros(3))
        net.forward(np.zeros((3, 4)), train=False)  # purity: no cache by default
        with pytest.raises(RuntimeError):
            net.backward(np.zeros(3))

    def test_head_gradient_matches_linear_regression_form(self):
        # the scalar head is linear in its cached input H, with no bias, so
        # under the squared error its gradient must equal 2 H^T (Hw - y) / n
        rng = np.random.default_rng(8)
        net = Network(NetworkConfig(input_dim=3, hidden_dims=(3,), dropout_rate=0.5, seed=0))
        X = rng.uniform(0.5, 2.0, size=(6, 3))
        y = rng.normal(size=6)
        out = net.forward(X, train=True)
        grads = net.backward(2.0 * (out - y) / len(y))
        H = net._cache["head_input"]
        w = net.params["W_out"][:, 0]
        expected = 2.0 * H.T @ (H @ w - y) / len(y)
        assert np.max(np.abs(grads["W_out"][:, 0] - expected)) < 1e-10
        assert np.array_equal(out, H @ w)

    @pytest.mark.parametrize("head, outputs", [("scalar_linear", 1), ("softmax", 7)])
    def test_only_the_softmax_head_has_a_bias(self, head, outputs):
        # batch norm subtracts a hidden bias and every scalar loss is
        # shift-invariant, so neither holds one; each bin keeps its own
        net = _small_net(head=head, num_outputs=outputs)
        names = ["W0", "gamma0", "beta0", "W1", "gamma1", "beta1", "W_out"]
        assert list(net.params) == names + (["b_out"] if head == "softmax" else [])
        assert list(net.running) == ["mean0", "var0", "mean1", "var1"]
        net.forward(np.random.default_rng(0).normal(size=(5, 4)), train=True)
        grads = net.backward(np.ones((5, outputs) if head == "softmax" else 5))
        assert grads.keys() == net.params.keys()

    def test_l2_term_added_to_weight_matrices_only(self):
        l2 = 0.01
        plain = _small_net(seed=9)
        decayed = _small_net(seed=9, l2_coefficient=l2)
        batch = np.random.default_rng(9).normal(size=(5, 4))
        g_out = np.random.default_rng(10).normal(size=5)
        plain.forward(batch, train=True)
        decayed.forward(batch, train=True)
        g_plain = plain.backward(g_out)
        g_decayed = decayed.backward(g_out)
        for name in g_plain:
            diff = g_decayed[name] - g_plain[name]
            if name.startswith("W"):
                assert np.allclose(diff, 2.0 * l2 * plain.params[name], atol=1e-12)
            else:
                assert np.allclose(diff, 0.0, atol=1e-12)


    def test_softmax_head_takes_the_logit_gradient_as_given(self):
        # the wm loss takes the softmax step, so the head's gradients are those
        # of a linear layer whose output gradient is the logit gradient
        net = _small_net(seed=13, head="softmax", num_outputs=7, dropout_rate=0.5)
        rng = np.random.default_rng(13)
        net.forward(rng.normal(size=(6, 4)), train=True)
        g_logits = rng.normal(size=(6, 7))
        g_copy = g_logits.copy()
        grads = net.backward(g_logits)
        assert np.array_equal(g_logits, g_copy)
        assert np.array_equal(grads["W_out"], net._cache["head_input"].T @ g_copy)
        assert np.array_equal(grads["b_out"], g_copy.sum(axis=0))


class _TwoPathNetwork(Network):
    """Reference network with a second backward path: a literal copy of
    the earlier `forward` (with its `cache_for_backward` option) and
    `backward` (with its softmax step, which the wm loss now takes, its
    running-statistics branch and the long-form batch-norm gradient), less
    the hidden and scalar-head biases that no loss can move.  The network
    must match its outputs, running statistics and dropout draws bit for
    bit in train mode, and its gradients up to rounding."""

    def forward(self, batch, train, cache_for_backward=None):
        X = np.asarray(batch, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.input_dim:
            raise ValueError(
                f"batch must be (n, {self.config.input_dim}), got {X.shape}"
            )
        if train and X.shape[0] < 2:
            raise ValueError("train-mode forward needs a batch of at least 2 rows")
        if cache_for_backward is None:
            cache_for_backward = train
        p = self.params
        layers = []
        a = X
        for i in range(len(self.config.hidden_dims)):
            z = a @ p[f"W{i}"]
            if train:
                mu = z.mean(axis=0)
                var = z.var(axis=0)  # population variance, matching the running stats
                self.running[f"mean{i}"] *= 1.0 - _BN_MOMENTUM
                self.running[f"mean{i}"] += _BN_MOMENTUM * mu
                self.running[f"var{i}"] *= 1.0 - _BN_MOMENTUM
                self.running[f"var{i}"] += _BN_MOMENTUM * var
            else:
                mu = self.running[f"mean{i}"]
                var = self.running[f"var{i}"]
            std = np.sqrt(var + _BN_EPS)
            xhat = (z - mu) / std
            bn = p[f"gamma{i}"] * xhat + p[f"beta{i}"]
            h = np.maximum(bn, 0.0)
            if train and self.config.dropout_rate > 0.0:
                keep = 1.0 - self.config.dropout_rate
                mask = (self._rng.random(h.shape) < keep) / keep
                out = h * mask
            else:
                mask = None
                out = h
            layers.append(
                {"input": a, "z": z, "xhat": xhat, "std": std, "bn": bn, "mask": mask}
            )
            a = out
        logits = a @ p["W_out"]
        if self.config.head == "softmax":
            logits += p["b_out"]
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=1, keepdims=True)
            outputs = logits
        else:
            outputs = logits[:, 0]
        if cache_for_backward:
            self._cache = {"layers": layers, "head_input": a, "outputs": outputs, "train": train}
        return outputs

    def backward(self, grad_outputs):
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        cache = self._cache
        p = self.params
        grads = {}
        grad_outputs = np.asarray(grad_outputs, dtype=np.float64)

        if self.config.head == "softmax":
            pmf = cache["outputs"]
            if grad_outputs.shape != pmf.shape:
                raise ValueError("gradient shape does not match the softmax outputs")
            dlogits = np.empty(pmf.shape)
            np.multiply(grad_outputs, pmf, out=dlogits)
            dot = np.sum(dlogits, axis=1, keepdims=True)
            np.subtract(grad_outputs, dot, out=dlogits)
            np.multiply(pmf, dlogits, out=dlogits)
        else:
            if grad_outputs.shape != cache["outputs"].shape:
                raise ValueError("gradient shape does not match the scalar outputs")
            dlogits = grad_outputs[:, None]
        grads["W_out"] = cache["head_input"].T @ dlogits
        if self.config.head == "softmax":
            grads["b_out"] = dlogits.sum(axis=0)
        da = dlogits @ p["W_out"].T

        for i in reversed(range(len(self.config.hidden_dims))):
            layer = cache["layers"][i]
            if layer["mask"] is not None:
                da = da * layer["mask"]
            dbn = da * (layer["bn"] > 0.0)
            grads[f"gamma{i}"] = np.sum(dbn * layer["xhat"], axis=0)
            grads[f"beta{i}"] = dbn.sum(axis=0)
            dxhat = dbn * p[f"gamma{i}"]
            if cache["train"]:
                m = layer["z"].shape[0]
                centered = layer["z"] - layer["z"].mean(axis=0)
                inv_std = 1.0 / layer["std"]
                dvar = np.sum(dxhat * centered, axis=0) * -0.5 * inv_std**3
                dmu = -np.sum(dxhat, axis=0) * inv_std + dvar * np.mean(-2.0 * centered, axis=0)
                dz = dxhat * inv_std + dvar * 2.0 * centered / m + dmu / m
            else:
                dz = dxhat / layer["std"]
            grads[f"W{i}"] = layer["input"].T @ dz
            if i > 0:  # nothing consumes the gradient of the network's input
                da = dz @ p[f"W{i}"].T

        if self.config.l2_coefficient > 0.0:
            for name in grads:
                if name.startswith("W"):
                    grads[name] = grads[name] + 2.0 * self.config.l2_coefficient * p[name]
        return grads


def _copies(arrays):
    return {name: arr.copy() for name, arr in arrays.items()}


class _ReferenceAdam(Adam):
    """A literal copy of the earlier `Adam.step`, which built new m, v and
    step arrays; the in-place step must match it bit for bit."""

    def step(self, params, grads):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in {name}")
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            self.m[name] = _ADAM_BETA1 * self.m[name] + (1.0 - _ADAM_BETA1) * g
            self.v[name] = _ADAM_BETA2 * self.v[name] + (1.0 - _ADAM_BETA2) * g * g
            m_hat = self.m[name] / (1.0 - _ADAM_BETA1**t)
            v_hat = self.v[name] / (1.0 - _ADAM_BETA2**t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


class TestMatchesTheTwoPathNetwork:
    @pytest.mark.parametrize("head, outputs", [("scalar_linear", 1), ("softmax", 7)])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("hidden_dims", [(9,), (9, 8, 5)])
    @pytest.mark.parametrize("rows", [2, 256])
    def test_every_array_is_bitwise_equal(self, head, outputs, dropout, hidden_dims, rows):
        config = NetworkConfig(input_dim=6, hidden_dims=hidden_dims, head=head,
                               num_outputs=outputs, dropout_rate=dropout, l2_coefficient=1e-3,
                               seed=21)
        new, old = Network(config), _TwoPathNetwork(config)
        rng = np.random.default_rng(rows)
        new_adam, old_adam = Adam(1e-2), _ReferenceAdam(1e-2)
        for step in range(3):  # later steps start from updated weights and statistics
            batch = rng.normal(size=(rows, 6)) * 3.0 + 1.0
            got, want = new.forward(batch, train=True), old.forward(batch, train=True)
            assert np.array_equal(got, want)
            for name in old.running:
                assert np.array_equal(new.running[name], old.running[name]), name
            assert new._rng.bit_generator.state == old._rng.bit_generator.state
            g_out = rng.normal(size=want.shape)
            # the reference takes d/d(pmf) and its own softmax step; the network
            # takes d/d(logits), here from the same step on the same pmf
            g_new = g_out if head == "scalar_linear" else want * (
                g_out - np.sum(g_out * want, axis=1, keepdims=True))
            got_grads, want_grads = new.backward(g_new), old.backward(g_out)
            assert got_grads.keys() == want_grads.keys()
            # the compact batch-norm gradient differs from the long form in
            # rounding only; the bound is absolute, from the largest W gradient
            tol = 1e-12 * max(np.abs(g).max() for n, g in want_grads.items() if n.startswith("W"))
            for name in want_grads:
                assert np.max(np.abs(got_grads[name] - want_grads[name])) <= tol, name
            # the in-place Adam consumes its gradients, so each steps on its own copy
            new_adam.step(new.params, _copies(want_grads))
            old_adam.step(old.params, _copies(want_grads))
            for name in old.params:
                assert np.array_equal(new.params[name], old.params[name]), name
        assert np.array_equal(new.forward(batch, train=False), old.forward(batch, train=False))

    @pytest.mark.parametrize("head, outputs", [("scalar_linear", 1), ("softmax", 300)])
    def test_adam_matches_the_reference_adam_for_200_steps(self, head, outputs):
        config = NetworkConfig(input_dim=6, hidden_dims=(9, 8), head=head, num_outputs=outputs,
                               dropout_rate=0.5, l2_coefficient=1e-3, seed=23)
        net = Network(config)
        reference = copy.deepcopy(net.params)
        adam, ref_adam = Adam(1e-2), _ReferenceAdam(1e-2)
        rng = np.random.default_rng(23)
        for step in range(200):
            out = net.forward(rng.normal(size=(32, 6)), train=True)
            grads = net.backward(rng.normal(size=out.shape))
            adam.step(net.params, _copies(grads))  # consumed: each Adam gets its own copy
            ref_adam.step(reference, _copies(grads))
            for name in reference:
                assert np.array_equal(net.params[name], reference[name]), (step, name)

    def test_eval_forward_leaves_the_train_cache(self):
        net = _small_net(seed=22)
        batch = np.random.default_rng(22).normal(size=(5, 4))
        net.forward(batch, train=True)
        cache = net._cache
        net.forward(batch[:3], train=False)
        assert net._cache is cache
        assert len(cache["layers"]) == 2 and all(len(layer) == 4 for layer in cache["layers"])


class TestSnapshotRestore:
    def test_round_trip(self):
        net = _small_net(seed=13)
        batch = np.random.default_rng(11).normal(size=(8, 4))
        net.forward(batch, train=True)
        snap = net.snapshot()
        frozen = copy.deepcopy(snap)
        opt = Adam(learning_rate=1e-2)
        for _ in range(3):
            net.forward(batch, train=True)
            grads = net.backward(np.ones(8))
            opt.step(net.params, grads)
        net.restore(snap)
        for name in frozen["params"]:
            assert np.array_equal(net.params[name], frozen["params"][name])
        for name in frozen["running"]:
            assert np.array_equal(net.running[name], frozen["running"][name])

    def test_snapshot_is_independent_copy(self):
        net = _small_net(seed=14)
        snap = net.snapshot()
        net.params["W0"][0, 0] += 1.0
        assert snap["params"]["W0"][0, 0] != net.params["W0"][0, 0]


class TestAdam:
    def test_zero_gradient_is_identity(self):
        net = _small_net(seed=15)
        opt = Adam(learning_rate=1e-2)
        before = copy.deepcopy(net.params)
        opt.step(net.params, {name: np.zeros_like(p) for name, p in net.params.items()})
        for name in before:
            assert np.array_equal(net.params[name], before[name])

    def test_first_step_moves_about_lr_per_coordinate(self):
        params = {"w": np.asarray([1.0, -2.0, 0.5])}
        g = np.asarray([0.3, -4.0, 1e-2])
        opt = Adam(learning_rate=1e-3)
        opt.step(params, {"w": g.copy()})
        delta = params["w"] - np.asarray([1.0, -2.0, 0.5])
        assert np.all(np.sign(delta) == -np.sign(g))
        assert np.all(np.abs(delta) <= 1e-3)
        assert np.all(np.abs(delta) > 1e-3 * (1.0 - 1e-5))

    def test_second_step_stays_bounded_and_directed(self):
        params = {"w": np.asarray([0.0])}
        g = np.asarray([2.0])
        opt = Adam(learning_rate=1e-3)
        opt.step(params, {"w": g.copy()})
        first = params["w"].copy()
        opt.step(params, {"w": g.copy()})
        second_delta = params["w"] - first
        assert np.sign(second_delta[0]) == -np.sign(g[0])
        assert abs(second_delta[0]) < 1e-3 / (1.0 - 1e-8)

    def test_nonfinite_gradient_raises(self):
        params = {"w": np.asarray([0.0])}
        opt = Adam(learning_rate=1e-3)
        with pytest.raises(TrainingDivergedError):
            opt.step(params, {"w": np.asarray([np.nan])})
        with pytest.raises(TrainingDivergedError):
            opt.step(params, {"w": np.asarray([np.inf])})

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            Adam(learning_rate=0.0)


class TestCheckpoints:
    def test_a_new_network_draws_its_weights_as_before(self):
        # a literal copy of the earlier initialization: every weight matrix in
        # layer order from default_rng(seed), then the dropout masks go on from there
        config = NetworkConfig(input_dim=5, hidden_dims=(7, 3), head="softmax", num_outputs=4,
                               dropout_rate=0.5, seed=31)
        net = Network(config)
        rng, params, running, fan_in = np.random.default_rng(31), {}, {}, 5
        for i, width in enumerate((7, 3)):
            limit = np.sqrt(6.0 / fan_in)
            params[f"W{i}"] = rng.uniform(-limit, limit, size=(fan_in, width))
            params[f"gamma{i}"], params[f"beta{i}"] = np.ones(width), np.zeros(width)
            running[f"mean{i}"], running[f"var{i}"] = np.zeros(width), np.ones(width)
            fan_in = width
        params["W_out"] = rng.uniform(-np.sqrt(6.0 / fan_in), np.sqrt(6.0 / fan_in), size=(3, 4))
        params["b_out"] = np.zeros(4)
        for mine, want in ((net.params, params), (net.running, running)):
            assert list(mine) == list(want)  # the checkpoint's array order
            for name in want:
                assert np.array_equal(mine[name], want[name]), name
        assert net._rng.bit_generator.state == rng.bit_generator.state

    def test_a_loaded_network_draws_nothing_and_would_train_on_a_new_stream(self, tmp_path):
        net = _small_net(seed=17, dropout_rate=0.5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded._rng is None
        assert list(loaded.params) == list(net.params)
        assert list(loaded.running) == list(net.running)
        # trained, it draws its dropout masks from a new default_rng(seed)
        net._rng = np.random.default_rng(17)
        batch = np.random.default_rng(17).normal(size=(8, 4))
        assert np.array_equal(loaded.forward(batch, train=True), net.forward(batch, train=True))
        assert loaded._rng.bit_generator.state == net._rng.bit_generator.state

    def test_round_trip_is_bitwise(self, tmp_path):
        net = _small_net(seed=16, head="softmax", num_outputs=5, dropout_rate=0.3)
        batch = np.random.default_rng(12).normal(size=(9, 4))
        net.forward(batch, train=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.config == net.config
        for name in net.params:
            assert np.array_equal(loaded.params[name], net.params[name])
        for name in net.running:
            assert np.array_equal(loaded.running[name], net.running[name])
        assert np.array_equal(
            loaded.forward(batch, train=False), net.forward(batch, train=False)
        )

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def _write(self, path, config, arrays, tail=b"", version=2):
        """A file written literally: magic, version, header length, JSON
        header, then each array's float64 bytes."""
        header = {"config": asdict(config),
                  "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays]}
        head = json.dumps(header).encode("utf-8")
        body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays)
        path.write_bytes(b"CENSRANK" + struct.pack("<II", version, len(head)) + head + body + tail)

    def _arrays(self, net):
        return [*net.params.items(), *net.running.items()]

    def test_literal_file_loads(self, tmp_path):
        net = _small_net(seed=4)
        net.running["var0"] = np.full(6, 2.5)
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, self._arrays(net))
        assert np.array_equal(load_checkpoint(str(path)).running["var0"], net.running["var0"])

    @pytest.mark.parametrize("head, outputs", [("scalar_linear", 1), ("softmax", 3)])
    def test_rejects_a_version_1_file_by_its_version(self, tmp_path, head, outputs):
        # the earlier layout: a bias after each W{i} and after W_out, on either head
        net = _small_net(head=head, num_outputs=outputs)
        arrays = []
        for name, arr in net.params.items():
            arrays.append((name, arr))
            if name.startswith("W") and f"b{name[1:]}" not in net.params:
                arrays.append((f"b{name[1:]}", np.zeros(arr.shape[1])))
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, [*arrays, *net.running.items()], version=1)
        message = re.escape(f"{path}: unsupported checkpoint version 1")
        with pytest.raises(ValueError, match=message):
            load_checkpoint(str(path))

    def test_rejects_a_missing_array(self, tmp_path):
        net = _small_net()
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, [(n, a) for n, a in self._arrays(net) if n != "var0"])
        with pytest.raises(ValueError, match="var0"):
            load_checkpoint(str(path))

    def test_rejects_an_unknown_or_repeated_array(self, tmp_path):
        net = _small_net()
        path = tmp_path / "model.ckpt"
        for extra in (("extra", np.zeros(3)), ("b0", np.zeros(6)), ("beta0", net.params["beta0"]),
                      ("b_out", np.zeros(1))):
            self._write(path, net.config, [*self._arrays(net), extra])
            with pytest.raises(ValueError, match="config implies"):
                load_checkpoint(str(path))

    def test_rejects_a_shape_the_config_does_not_imply(self, tmp_path):
        net = _small_net()
        arrays = [(n, a[:-1] if n == "beta1" else a) for n, a in self._arrays(net)]
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, arrays)
        with pytest.raises(ValueError, match="'beta1' has shape"):
            load_checkpoint(str(path))

    def test_rejects_a_malformed_header(self, tmp_path):
        net = _small_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        whole = path.read_bytes()
        (header_len,) = struct.unpack("<I", whole[12:16])
        header = json.loads(whole[16 : 16 + header_len])
        for broken in ({"config": header["config"]}, [header],
                       {**header, "arrays": [{"name": "W0"}, *header["arrays"][1:]]}):
            head = json.dumps(broken).encode("utf-8")
            path.write_bytes(whole[:12] + struct.pack("<I", len(head)) + head
                             + whole[16 + header_len :])
            with pytest.raises(ValueError):
                load_checkpoint(str(path))

    def test_rejects_truncated_files(self, tmp_path):
        net = _small_net()
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        whole = path.read_bytes()
        for cut in (len(whole) - 1, len(whole) - 8 * 5 - 3, 12, 30):
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("head, outputs", [("scalar_linear", 1), ("softmax", 5)])
    def test_every_truncation_is_rejected_naming_the_file(self, tmp_path, head, outputs):
        net = _small_net(seed=18, head=head, num_outputs=outputs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, str(path))
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))) as err:
                load_checkpoint(str(path))
            assert type(err.value) is ValueError, (cut, err.value)

    @pytest.mark.parametrize("head", [b"\xff\xfe{}", b'{"config": {', b"[]", b"null"])
    def test_a_header_that_is_not_utf8_json_is_rejected_naming_the_file(self, tmp_path, head):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"CENSRANK" + struct.pack("<II", 2, len(head)) + head)
        message = re.escape(f"{path}: the header is not a JSON object")
        with pytest.raises(ValueError, match=message) as err:
            load_checkpoint(str(path))
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("name, value", [("W_out", np.nan), ("var0", np.inf)])
    def test_rejects_a_non_finite_array_by_name(self, tmp_path, name, value):
        net = _small_net()
        arrays = [(n, np.full_like(a, value) if n == name else a) for n, a in self._arrays(net)]
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, arrays)
        with pytest.raises(ValueError, match=f"'{name}' holds non-finite values"):
            load_checkpoint(str(path))

    def test_rejects_trailing_bytes(self, tmp_path):
        net = _small_net()
        path = tmp_path / "model.ckpt"
        self._write(path, net.config, self._arrays(net), tail=b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(str(path))
