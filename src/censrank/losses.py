"""Training objectives: Cox partial likelihood, pairwise ranking
surrogates, and the CDF-matching (discrete Wasserstein) loss.

Every objective is a function of the network outputs with an analytic
gradient (`*_with_grad`; w.r.t. the logits for the softmax head), so the
network backpropagates without an autodiff engine.  Only the CDF-matching
loss writes to an input: it consumes its target rows as scratch.  Risk
sets and ranking ties follow grid-binned times: records sharing a bin are
tied.
"""

import numpy as np

from .core import Dataset
from .estimators import last_event_bin
from .metrics import AcceptablePairSet

__all__ = [
    "PHI_KINDS",
    "phi_with_grad",
    "cox_nll_with_grad",
    "ranking_loss_with_grad",
    "bin_weights",
    "wm_batch_with_grad",
]

PHI_KINDS = ("sigmoid", "log_sigmoid", "hinge", "exponential")


def phi_with_grad(kind, z, hinge_clip=1.0):
    """Pairwise concordance surrogate phi(z) and d phi/dz, elementwise.

    kinds: "sigmoid" sigma(z); "log_sigmoid" log sigma(z); "hinge"
    max(0, z-1), optionally clipped at `hinge_clip` so the maximization
    target stays bounded (None disables); "exponential" 1 - exp(-z).
    The derivative is the subgradient 0 at the hinge kinks.
    """
    z = np.asarray(z, dtype=np.float64)
    if kind in ("sigmoid", "log_sigmoid"):
        # stable at both tails through e = exp(-|z|): sigma(z) = 1/(1+e) for
        # z > 0, else e/(1+e), and log sigma(z) = -log1p(e), else z - log1p(e)
        e = np.exp(-np.abs(z))
        pos = z > 0
        if kind == "sigmoid":
            s = np.where(pos, 1.0, e) / (1.0 + e)
            return s, s * (1.0 - s)
        lp = np.log1p(e)
        return np.where(pos, -lp, z - lp), np.where(pos, e, 1.0) / (1.0 + e)
    if kind == "hinge":
        raw = np.maximum(0.0, z - 1.0)
        active = z > 1.0
        if hinge_clip is not None:
            raw = np.minimum(raw, hinge_clip)
            active &= z - 1.0 < hinge_clip
        return raw, active.astype(np.float64)
    if kind == "exponential":
        e = np.exp(-z)
        return 1.0 - e, e
    raise ValueError(f"unknown phi kind {kind!r}; choose from {PHI_KINDS}")


# ---------------------------------------------------------------------------
# Cox partial likelihood


def cox_nll_with_grad(scores, bins, observed, tie_method="breslow"):
    """Negative Cox partial log-likelihood of `scores` (f = exp(score)) and
    its gradient with respect to the scores.

    `bins` holds each record's grid bin and `observed` its event flag.
    Risk sets are taken over the bins, so records in one bin are tied.
    A bin with m events and tied event weight D contributes one
    denominator per event, risk - (r/m) D: "efron" averages over the ties
    with r = 0, ..., m-1, and "breslow" is the same formula with every r
    set to 0.  Both run as one array pass whose only sort is the one that
    groups the bins.  The value is a sum over observed events and is
    invariant to adding a constant to all scores.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    bins = np.asarray(bins).reshape(-1)
    observed = np.asarray(observed, dtype=bool).reshape(-1)
    if not (len(scores) == len(bins) == len(observed)):
        raise ValueError("one score, bin and observed flag per record is required")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if tie_method not in ("breslow", "efron"):
        raise ValueError(f"tie_method must be 'breslow' or 'efron', got {tie_method!r}")
    if not np.any(observed):
        raise ValueError("Cox partial likelihood needs at least one observed event")

    shift = scores.max()
    w = np.exp(scores - shift)  # shift cancels in every log-ratio below

    keys, slot = np.unique(bins, return_inverse=True)
    num = len(keys)
    risk = np.cumsum(np.bincount(slot, weights=w, minlength=num)[::-1])[::-1]
    m = np.bincount(slot[observed], minlength=num)
    tied_w = np.bincount(slot[observed], weights=w[observed], minlength=num)
    # one entry per event, grouped by bin: its bin and its tie rank r/m
    event_slot = np.repeat(np.arange(num), m)
    if tie_method == "efron":
        ranks = (np.arange(len(event_slot)) - np.repeat(np.cumsum(m) - m, m)) / m[event_slot]
    else:
        ranks = 0.0
    denoms = risk[event_slot] - ranks * tied_w[event_slot]
    loglik = float(np.sum(scores[observed] - shift)) - float(np.sum(np.log(denoms)))

    # d loglik/d score_k = obs_k - w_k * (sum of 1/denominator over event
    # bins <= bin_k) + obs_k * w_k * (own bin's sum of (r/m)/denominator).
    inv = 1.0 / denoms
    running = np.cumsum(np.bincount(event_slot, weights=inv, minlength=num))
    own = np.bincount(event_slot, weights=ranks * inv, minlength=num)
    grad_loglik = observed - w * (running[slot] - observed * own[slot])
    return -loglik, -grad_loglik


# ---------------------------------------------------------------------------
# Pairwise ranking


def ranking_loss_with_grad(scores, pairs: AcceptablePairSet, kind, hinge_clip=1.0):
    """Negated mean surrogate over acceptable pairs,
    -(1/|A|) sum phi(score(j) - score(i)), and its gradient with respect to
    the scores."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if len(pairs) == 0:
        raise ValueError("ranking loss is undefined on an empty pair set")
    phi, dphi = phi_with_grad(kind, scores[pairs.j] - scores[pairs.i], hinge_clip)
    value = float(-np.mean(phi))
    per_pair = -dphi / len(pairs)
    grad = np.zeros_like(scores)
    np.add.at(grad, pairs.j, per_pair)
    np.add.at(grad, pairs.i, -per_pair)
    return value, grad


# ---------------------------------------------------------------------------
# CDF-matching (discrete Wasserstein) loss


def bin_weights(train: Dataset, smoothing):
    """Per-output weights of the CDF-difference norm (the transport ground
    distance) over the L + 2 outputs of a pmf head trained on `train` (see
    `estimators.last_event_bin`): observed-event counts per output of the
    training fold (none in output L + 1, "after L") plus `smoothing`,
    normalized to sum 1, shape (L + 2,)."""
    if not (smoothing > 0):
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    counts = np.bincount(train.bins[train.observed], minlength=last_event_bin(train) + 2)
    counts = counts.astype(np.float64)
    counts += smoothing
    return counts / counts.sum()


def wm_batch_with_grad(pmf, target_cdf, weights, l=1.5, out=None, batch_size=None):
    """Mean CDF-matching loss of a batch of softmax rows and its gradient
    w.r.t. the logits those rows came from.

    Per record the loss is the weighted l-th power CDF mismatch
    sum_t w[t] * |cdf_t - target_t|^l, where cdf is the running sum of the
    pmf: symmetric, non-negative, and zero iff the CDFs agree on every
    positively weighted bin.

    pmf: (rows, T) softmax outputs; target_cdf: (rows, T); weights: (T,),
    where T is the head's width (L + 2 outputs in training, see `bin_weights`).
    Returns (value, d(value)/d(logits) of pmf's shape), the softmax step
    p * (g - <g, p>) taken on the pmf gradient g.  The mean divides by
    `batch_size` (default: the rows), so one batch's row blocks, each given
    its size, sum to its value and give the same gradient rows bit for bit.

    The call consumes `target_cdf`, as `Adam.step` consumes its gradients:
    a C-contiguous writeable float64 array is overwritten as scratch, and
    any other input is copied first.  The loss allocates one more array of
    pmf's shape.  The gradient goes into `out` (of pmf's shape; may be
    `pmf`), else over the target's array.  The value is
    sum_t |d_t| * (w[t] l |d_t|^(l-1)) / l (for l = 1, sum_t w[t] |d_t|), so
    it can differ from the literal w[t] |d_t|^l in the last bits.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    diff = np.require(target_cdf, np.float64, ["C", "W"])
    weights = np.asarray(weights, dtype=np.float64)
    if pmf.ndim != 2 or pmf.shape != diff.shape or pmf.shape[1] != len(weights):
        raise ValueError("pmf and target_cdf must be (batch, T) with T matching weights")
    if out is not None and (out.shape != pmf.shape or out.dtype != np.float64):
        raise ValueError(f"out must be float64 of shape {pmf.shape}, got {out.dtype} {out.shape}")
    if not (l >= 1):  # also rejects NaN
        raise ValueError(f"the exponent l must be >= 1, got {l}")
    batch = pmf.shape[0] if batch_size is None else batch_size
    inner = np.cumsum(pmf, axis=1)
    np.subtract(inner, diff, out=diff)
    np.abs(diff, out=inner)
    # d|d_t|^l / d d_t = l |d_t|^(l-1) sign(d_t); pmf_s feeds every cdf_t with t >= s.
    # Evaluated as ((w*l) * |d|^(l-1)) * sign(d) / batch, the order that fixes its bits.
    if l == 1:
        value = float(np.sum(inner @ weights) / batch)
        np.sign(diff, out=inner)  # keeps sign(0) = 0
        np.multiply(weights * l, inner, out=inner)
    else:
        inner **= l - 1.0  # numpy's scalar power: sqrt at 0.5, a square at 2
        np.multiply(weights * l, inner, out=inner)
        # exact: the factor is >= 0, sign(d) is +-1, and where d = 0 it is 0^(l-1) = 0
        np.copysign(inner, diff, out=inner)
        value = float(np.vdot(diff, inner) / l / batch)
    np.divide(inner, batch, out=inner)
    reversed_view = inner[:, ::-1]
    np.cumsum(reversed_view, axis=1, out=reversed_view)
    # the softmax step in the order that fixes its bits: product, row sum, subtraction, product
    np.multiply(inner, pmf, out=diff)
    dot = np.sum(diff, axis=1, keepdims=True)
    np.subtract(inner, dot, out=diff)
    return value, np.multiply(pmf, diff, out=diff if out is None else out)
