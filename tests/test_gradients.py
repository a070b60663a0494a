"""Finite-difference checks of backward() through every training loss.

Dropout stays off (the masks would decorrelate the two FD evaluations);
batch norm uses batch statistics, the only mode `backward` serves.
"""

import numpy as np
import pytest

from conftest import make_dataset, max_relative_error
from censrank.losses import (
    bin_weights,
    cox_nll_with_grad,
    ranking_loss_with_grad,
    wm_batch_with_grad,
)
from censrank.estimators import kaplan_meier, last_event_bin, target_cdf_matrix
from censrank.metrics import AcceptablePairSet, _enumerate_pairs
from censrank.neural import Network, NetworkConfig

LOSS_CONFIGS = (
    "cox",
    "cox-efron",
    "rank-sigmoid",
    "rank-logsigmoid",
    "rank-hinge",
    "rank-exp",
    "wm",
)
_RANK_KIND = {
    "rank-sigmoid": "sigmoid",
    "rank-logsigmoid": "log_sigmoid",
    "rank-hinge": "hinge",
    "rank-exp": "exponential",
}
_H = 1e-5
# measured on the networks below: an array no loss can move (the hidden and
# scalar-head biases of the earlier layout) peaks at 1e-18 to 1e-14, every
# other array's largest entry at 3.4e-3 or more (seeds 0-5, each loss)
_DEAD = 1e-8


def _context(rng):
    """Small dataset with binned ties, >= 2 events and >= 3 grid pairs."""
    while True:
        n = 12
        features = rng.normal(size=(n, 4))
        times = rng.integers(0, 6, size=n).astype(np.float64)
        observed = rng.random(n) < 0.7
        data = make_dataset(times, observed, features=features)
        pairs = AcceptablePairSet(*_enumerate_pairs(data.bins, data.observed), num_records=n)
        if int(observed.sum()) >= 2 and len(pairs) >= 3:
            return data, pairs


def _wm_targets(data):
    km = kaplan_meier(data)
    targets = target_cdf_matrix(data, km, mode="conditional")
    weights = bin_weights(data, smoothing=1.0)
    return targets, weights


def _loss_and_outgrad(name, outputs, data, pairs, targets, weights):
    if name in ("cox", "cox-efron"):
        ties = "breslow" if name == "cox" else "efron"
        return cox_nll_with_grad(outputs, data.bins, data.observed, ties)
    if name in _RANK_KIND:
        return ranking_loss_with_grad(outputs, pairs, _RANK_KIND[name])
    return wm_batch_with_grad(outputs, targets.copy(), weights)  # the loss consumes its target


def _loss_value(name, outputs, data, pairs, targets, weights):
    return _loss_and_outgrad(name, outputs, data, pairs, targets, weights)[0]


def _build_network(name, data, seed):
    if name == "wm":
        config = NetworkConfig(
            input_dim=data.n_features,
            hidden_dims=(6, 5),
            head="softmax",
            num_outputs=last_event_bin(data) + 2,  # the width the wm targets and weights take
            seed=seed,
        )
    else:
        config = NetworkConfig(input_dim=data.n_features, hidden_dims=(6, 5), seed=seed)
    net = Network(config)
    if name == "rank-hinge":
        # random-init outputs are too close together to reach the hinge's
        # active region; widen the head so margins straddle it
        net.params["W_out"] = net.params["W_out"] * 8.0
    return net


def _margins_near_hinge_kinks(outputs, pairs, tol=2e-3):
    z = outputs[pairs.j] - outputs[pairs.i]
    return bool(np.any(np.abs(z - 1.0) < tol) or np.any(np.abs(z - 2.0) < tol))


def _numeric_param_grads(net, f):
    numeric = {}
    for pname, arr in net.params.items():
        g = np.zeros_like(arr)
        flat_p = arr.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in range(flat_p.shape[0]):
            orig = flat_p[idx]
            flat_p[idx] = orig + _H
            hi = f()
            flat_p[idx] = orig - _H
            lo = f()
            flat_p[idx] = orig
            flat_g[idx] = (hi - lo) / (2.0 * _H)
        numeric[pname] = g
    return numeric


def _setup(name, seed):
    data, pairs = _context(np.random.default_rng(seed))
    targets, weights = _wm_targets(data) if name == "wm" else (None, None)
    return data, pairs, targets, weights, _build_network(name, data, seed)


def _check_one(name, seed):
    data, pairs, targets, weights, net = _setup(name, seed)
    X = data.features
    outputs = net.forward(X, train=True)
    if name == "rank-hinge" and _margins_near_hinge_kinks(outputs, pairs):
        return None  # not counted as checked by the caller
    value, out_grad = _loss_and_outgrad(name, outputs, data, pairs, targets, weights)
    assert np.isfinite(value)
    if not np.any(out_grad):
        return None  # every gradient is exactly zero, so the case checks nothing
    analytic = net.backward(out_grad)

    def f():
        out = net.forward(X, train=True)
        return _loss_value(name, out, data, pairs, targets, weights)

    numeric = _numeric_param_grads(net, f)
    # the floor sits above the FD cancellation noise eps*|loss|/(2h), which
    # otherwise dominates entries whose true gradient is near zero
    worst = max(
        max_relative_error(analytic[pname], numeric[pname], floor=1e-5)
        for pname in net.params
    )
    return worst


class TestFullNetworkGradients:
    def _run(self, name, seeds=range(6)):
        worst_overall = 0.0
        checked = 0
        for seed in seeds:
            worst = _check_one(name, seed)
            if worst is None:
                continue
            worst_overall = max(worst_overall, worst)
            checked += 1
        assert checked >= max(1, len(list(seeds)) - 2)
        assert worst_overall < 1e-4, f"{name}: max rel err {worst_overall}"

    def test_cox_breslow_batch_stats(self):
        self._run("cox")

    def test_cox_efron_batch_stats(self):
        self._run("cox-efron")

    def test_rank_sigmoid_batch_stats(self):
        self._run("rank-sigmoid")

    def test_rank_logsigmoid_batch_stats(self):
        self._run("rank-logsigmoid")

    def test_rank_hinge_batch_stats(self):
        self._run("rank-hinge")

    def test_rank_exp_batch_stats(self):
        self._run("rank-exp")

    def test_wm_batch_stats(self):
        self._run("wm")

    @pytest.mark.parametrize("name", LOSS_CONFIGS)
    def test_no_parameter_array_is_dead(self, name):
        # Adam normalizes a gradient that is rounding noise into steps of
        # about the learning rate, so such an array would random-walk
        largest = {}
        for seed in range(6):
            data, pairs, targets, weights, net = _setup(name, seed)
            outputs = net.forward(data.features, train=True)
            _, out_grad = _loss_and_outgrad(name, outputs, data, pairs, targets, weights)
            for pname, g in net.backward(out_grad).items():
                largest[pname] = max(largest.get(pname, 0.0), float(np.abs(g).max()))
        assert largest.keys() == net.params.keys()
        dead = {pname: peak for pname, peak in largest.items() if peak <= _DEAD}
        assert not dead, f"{name}: arrays whose gradient is rounding noise: {dead}"

    def test_l2_gradients_also_match(self):
        # decay folds into the weight-matrix gradients; FD sees it too
        rng = np.random.default_rng(77)
        data, pairs = _context(rng)
        config = NetworkConfig(
            input_dim=data.n_features, hidden_dims=(6, 5), l2_coefficient=1e-2, seed=1
        )
        net = Network(config)
        X = data.features
        outputs = net.forward(X, train=True)
        _, out_grad = ranking_loss_with_grad(outputs, pairs, "sigmoid")
        analytic = net.backward(out_grad)
        l2 = config.l2_coefficient

        def f():
            out = net.forward(X, train=True)
            penalty = sum(
                float(np.sum(net.params[nm] ** 2))
                for nm in net.params
                if nm.startswith("W")
            )
            return ranking_loss_with_grad(out, pairs, "sigmoid")[0] + l2 * penalty

        numeric = _numeric_param_grads(net, f)
        worst = max(
            max_relative_error(analytic[nm], numeric[nm], floor=1e-5)
            for nm in net.params
        )
        assert worst < 1e-4
