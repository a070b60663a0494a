"""Fixed-architecture feed-forward network with hand-derived gradients.

Layout per hidden layer i: W{i} -> batch norm (gamma{i}, beta{i}; running mean{i},
var{i}) -> ReLU -> inverted dropout.  The head W_out is one linear unit (risk or
ranking scores) or `num_outputs` units plus per-output biases b_out under a row
softmax (event-time pmfs; the wm head has L + 2 outputs, see `harness`).  No other
bias exists, as no loss could move it: batch norm subtracts a hidden bias again, and
every scalar loss sees only score differences.  Gradients are exact for
loss + l2 * sum ||W||^2, with the l2 penalty on weight matrices only.

There is no autodiff here: `backward` consumes d(loss)/d(outputs) of the
scalar head or d(loss)/d(logits) of the softmax head (the wm loss takes the
softmax step) and walks the cache of the last train-mode `forward` (eval
mode caches nothing): the head's input and outputs, and per hidden layer
(input, batch std, xhat, gate), where xhat is computed in place in the
affine output z and gate is one boolean array: the ReLU passes and dropout
keeps; both passes derive the dropout scale 1 / keep from the config.
Batch norm's gradient takes the compact form of Ioffe & Szegedy (2015),
with g = gate * d(loss)/d(layer output) over m rows:
dz = gamma / (keep std) (g - mean(g) - xhat mean(g xhat)).

Checkpoint format (version 2, little-endian): the 8-byte magic
b"CENSRANK", a uint32 format version, a uint32 header length, a UTF-8 JSON
header {"config": {...}, "arrays": [{"name", "shape"}, ...]}, then each
array's raw float64 data in the listed order; loading one draws nothing.
"""

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import _check_int, _check_real
from .errors import TrainingDivergedError

__all__ = ["NetworkConfig", "Network", "Adam", "save_checkpoint", "load_checkpoint"]

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1  # fraction of the new batch statistic mixed into the running one
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_MAGIC = b"CENSRANK"
_FORMAT_VERSION = 2


@dataclass
class NetworkConfig:
    input_dim: int
    hidden_dims: tuple = (100, 100, 100)
    head: str = "scalar_linear"  # or "softmax"
    num_outputs: int = 1  # softmax support size; must be 1 for the scalar head
    dropout_rate: float = 0.0
    l2_coefficient: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_int("input_dim", self.input_dim, 1)
        if not isinstance(self.hidden_dims, (list, tuple)):
            raise ValueError(f"hidden_dims must be a list or tuple, got {self.hidden_dims!r}")
        if not self.hidden_dims:
            raise ValueError("at least one hidden layer is required")
        for width in self.hidden_dims:
            _check_int("every width in hidden_dims", width, 1)
        self.hidden_dims = tuple(map(int, self.hidden_dims))  # plain ints for the JSON header
        _check_int("seed", self.seed, 0)
        if self.head not in ("scalar_linear", "softmax"):
            raise ValueError(f"unknown head {self.head!r}")
        _check_int("num_outputs", self.num_outputs, 1)
        if self.head == "scalar_linear" and self.num_outputs != 1:
            raise ValueError("the scalar head has exactly one output")
        for name in ("dropout_rate", "l2_coefficient"):
            _check_real(name, getattr(self, name))
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not (0 <= self.l2_coefficient < np.inf):  # also rejects NaN
            raise ValueError(f"l2_coefficient must be >= 0 and finite, got {self.l2_coefficient}")


def _he_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _layout(config):
    """(name, shape) of every array a network of `config` holds, W's in draw order."""
    dims = (config.input_dim, *config.hidden_dims)
    for i, width in enumerate(config.hidden_dims):
        yield f"W{i}", (dims[i], width)
        yield from ((f"{kind}{i}", (width,)) for kind in ("gamma", "beta", "mean", "var"))
    yield "W_out", (dims[-1], config.num_outputs)
    if config.head == "softmax":
        yield "b_out", (config.num_outputs,)


class Network:
    """Mutable parameter container plus forward/backward for the fixed MLP."""

    def __init__(self, config: NetworkConfig, arrays=None):
        """He-uniform weight matrices from default_rng(config.seed), whose stream then
        gives the dropout masks.  Given `arrays` (by name) the network takes them and draws
        nothing; trained, it would draw its masks from a new default_rng(config.seed)."""
        self.config = config
        self._rng = None if arrays is not None else np.random.default_rng(config.seed)
        self.params, self.running = {}, {}
        for name, shape in _layout(config):
            if arrays is not None:
                value = arrays[name]
            elif name.startswith("W"):
                value = _he_uniform(self._rng, *shape)
            else:
                value = (np.ones if name.startswith(("gamma", "var")) else np.zeros)(shape)
            (self.running if name.startswith(("mean", "var")) else self.params)[name] = value
        self._cache = None

    # -- forward -----------------------------------------------------------

    def forward(self, batch, train):
        """Run the network on `batch` (rows = records).

        Train mode uses batch statistics for batch norm (batch size >= 2
        required), draws fresh dropout masks, updates the running statistics
        and caches what `backward` needs, releasing the previous train cache
        (outputs included) before it computes anything.  Eval mode uses the
        running statistics, applies no dropout, and mutates nothing.  The scalar head
        returns shape (n,), the softmax head (n, num_outputs) rows summing to 1.
        """
        X = np.asarray(batch, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.config.input_dim:
            raise ValueError(f"batch must be (n, {self.config.input_dim}), got {X.shape}")
        if train and X.shape[0] < 2:
            raise ValueError("train-mode forward needs a batch of at least 2 rows")
        if train:
            self._cache = None  # so the last batch's outputs die before this one's logits
            if self._rng is None and self.config.dropout_rate > 0.0:  # a loaded network
                self._rng = np.random.default_rng(self.config.seed)
        p = self.params
        layers = []
        a = X
        keep = 1.0 - self.config.dropout_rate
        for i in range(len(self.config.hidden_dims)):
            z = a @ p[f"W{i}"]
            if train:
                mu = z.mean(axis=0)
                z -= mu  # centered, in place
                var = (z * z).sum(axis=0) / len(z)  # bitwise z.var(axis=0)
                self.running[f"mean{i}"] *= 1.0 - _BN_MOMENTUM
                self.running[f"mean{i}"] += _BN_MOMENTUM * mu
                self.running[f"var{i}"] *= 1.0 - _BN_MOMENTUM
                self.running[f"var{i}"] += _BN_MOMENTUM * var
            else:
                z -= self.running[f"mean{i}"]
                var = self.running[f"var{i}"]
            std = np.sqrt(var + _BN_EPS)
            xhat = np.divide(z, std, out=z)
            bn = p[f"gamma{i}"] * xhat
            bn += p[f"beta{i}"]
            if train:
                gate = bn > 0.0  # one boolean gate: the ReLU passes and dropout keeps
                if self.config.dropout_rate > 0.0:
                    gate &= self._rng.random(bn.shape) < keep
                layers.append((a, std, xhat, gate))
            a = np.maximum(bn, 0.0, out=bn)
            if train and self.config.dropout_rate > 0.0:
                a *= gate
                a *= 1.0 / keep
        logits = a @ p["W_out"]
        if self.config.head == "softmax":
            logits += p["b_out"]  # in place throughout: one n x T array, not four
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            logits /= logits.sum(axis=1, keepdims=True)
            outputs = logits
        else:
            outputs = logits[:, 0]
        if train:
            self._cache = {"layers": layers, "head_input": a, "outputs": outputs}
        return outputs

    # -- backward ----------------------------------------------------------

    def backward(self, grad_outputs):
        """Gradients of loss + l2 * sum ||W||^2 w.r.t. every parameter.

        `grad_outputs` belongs to the last train-mode forward, whose cache
        (see the module docstring) this walks: d(loss)/d(outputs) for the
        scalar head, d(loss)/d(logits) for the softmax head, whose softmax
        step the loss has taken (`losses.wm_batch_with_grad`).  It has the
        shape that forward returned and is never written to.  The compact
        batch-norm gradient equals the long form up to rounding.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a train-mode forward pass")
        cache = self._cache
        p = self.params
        grads = {}
        grad_outputs = np.asarray(grad_outputs, dtype=np.float64)
        if grad_outputs.shape != cache["outputs"].shape:
            raise ValueError(f"gradient shape {grad_outputs.shape} does not match the outputs' "
                             f"{cache['outputs'].shape}")

        dlogits = grad_outputs if self.config.head == "softmax" else grad_outputs[:, None]
        grads["W_out"] = cache["head_input"].T @ dlogits
        if "b_out" in p:  # the softmax head's; the scalar head has none
            grads["b_out"] = dlogits.sum(axis=0)
        da = dlogits @ p["W_out"].T

        inv_keep = 1.0 / (1.0 - self.config.dropout_rate)
        for i in reversed(range(len(self.config.hidden_dims))):
            input_, std, xhat, gate = cache["layers"][i]
            # the compact batch-norm gradient (module docstring), in place in da
            dz = np.multiply(da, gate, out=da)
            sum_xhat, sum_ = np.einsum("ij,ij->j", dz, xhat), dz.sum(axis=0)
            grads[f"gamma{i}"], grads[f"beta{i}"] = inv_keep * sum_xhat, inv_keep * sum_
            dz -= sum_ / len(dz)
            dz -= xhat * (sum_xhat / len(dz))
            dz *= p[f"gamma{i}"] * inv_keep / std
            grads[f"W{i}"] = input_.T @ dz
            if i > 0:  # nothing consumes the gradient of the network's input
                da = dz @ p[f"W{i}"].T

        if self.config.l2_coefficient > 0.0:  # in place: each W gradient is a fresh matmul
            for name in grads:
                if name.startswith("W"):
                    grads[name] += 2.0 * self.config.l2_coefficient * p[name]
        return grads

    # -- state management ----------------------------------------------------

    def snapshot(self):
        """Copies of the parameters and running statistics (for early stopping)."""
        return {"params": _copies(self.params), "running": _copies(self.running)}

    def restore(self, snap):
        self.params = _copies(snap["params"])
        self.running = _copies(snap["running"])
        self.release_cache()

    def release_cache(self):
        """Drop the last train-mode forward's cache, outputs included, so
        its arrays can be freed; `backward` then needs a new forward."""
        self._cache = None


def _copies(arrays):
    return {name: arr.copy() for name, arr in arrays.items()}


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8); m, v and
    the parameters are updated in place, rounded as the textbook expressions."""

    def __init__(self, learning_rate):
        if not (learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        """Update `params` in place from `grads`; raises on non-finite gradients.

        `grads` are consumed: each array is overwritten as scratch once its
        moments are updated, so pass copies to keep them."""
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in {name}")
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            m, v, step = self.m[name], self.v[name], (1.0 - _ADAM_BETA1) * g
            m *= _ADAM_BETA1
            m += step
            np.multiply(1.0 - _ADAM_BETA2, g, out=step)
            step *= g
            v *= _ADAM_BETA2
            v += step
            np.divide(m, 1.0 - _ADAM_BETA1**t, out=step)
            step *= self.learning_rate
            denom = np.divide(v, 1.0 - _ADAM_BETA2**t, out=g)  # g is spent
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            step /= denom
            params[name] -= step


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(network: Network, path):
    """Write the documented binary checkpoint (see module docstring)."""
    arrays = [(name, network.params[name]) for name in network.params]
    arrays += [(name, network.running[name]) for name in network.running]
    header = {
        "config": asdict(network.config),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into a Network.

    The header's config must hold exactly NetworkConfig's fields, each
    with a value that NetworkConfig accepts; the header must list exactly the
    arrays that a Network of that config holds, each with that array's
    shape and only finite values; and the file must end with the last of
    them.  Anything else raises ValueError naming the key or array.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path} is not a censrank checkpoint")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: the file ends inside the header")
        version, header_len = struct.unpack("<II", prefix)
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        raw = fh.read(header_len)
        try:  # a short, non-UTF-8 or non-JSON header leaves None
            header = json.loads(raw.decode("utf-8")) if len(raw) == header_len else None
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            header = None
        if not (isinstance(header, dict) and {"config", "arrays"} <= header.keys()
                and isinstance(header["config"], dict)):
            raise ValueError(f"{path}: the header is not a JSON object with 'config' and 'arrays'")
        cfg = header["config"]
        keys = {f.name for f in fields(NetworkConfig)}
        if cfg.keys() != keys:
            raise ValueError(
                f"{path}: config keys missing {sorted(keys - cfg.keys())}, "
                f"unknown {sorted(cfg.keys() - keys)}"
            )
        try:  # NetworkConfig checks each value's type; errors get the path
            config = NetworkConfig(**cfg)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        expected = dict(_layout(config))
        try:
            layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
        except (KeyError, TypeError):
            raise ValueError(f"{path}: every header array needs a 'name' and a 'shape'") from None
        names = sorted(name for name, _ in layout)
        if names != sorted(expected):
            raise ValueError(f"{path}: holds arrays {names}, the config implies {sorted(expected)}")
        arrays = {}
        for name, shape in layout:
            if shape != expected[name]:
                raise ValueError(
                    f"{path}: array {name!r} has shape {shape}, the config implies {expected[name]}"
                )
            raw = fh.read(8 * int(np.prod(shape)))
            if len(raw) != 8 * int(np.prod(shape)):
                raise ValueError(f"{path}: the file ends inside array {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"{path}: array {name!r} holds non-finite values")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return Network(config, arrays)
