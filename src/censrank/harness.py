"""Experiment orchestration: early-stopped training, per-fold grid search,
k-fold cross-validation, censoring-handling comparisons, and report files.

Seeding uses one documented counter scheme: every sub-experiment's seed is
`derived_seed(master, *parts)` where the parts name the sub-experiment
("fold", index, "grid", index, ...), so any piece can be re-run in
isolation and a full run is reproducible byte for byte.

An experiment (one cv run, a censoring ablation or a sweep) splits its
folds once and trains every (cell, fold, grid point) from one fold-major
job list, where a cell is a loss plus a training-set modifier; each fold
is encoded once, just before its first job.  A job trains one grid point
and scores its network on the test fold, returning only numbers.  With
n_jobs > 1 that list runs in a single process pool; each (cell, fold) is
reduced in job order as soon as its grid points are in, so serial and
parallel runs emit identical reports.

Each loss name is one entry of the `_FAMILIES` table (network head, score
map, per-batch loss), so `train_model` has no per-loss branch and adding a
loss means adding one entry.  The wm head is sized from its training fold:
L + 2 outputs, the grid's bins 0..L up to the fold's last observed event
(`estimators.last_event_bin`) and one for "after L".
"""

import json
import math
import sys
from collections import deque, namedtuple
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from zlib import crc32

import numpy as np

from .core import Dataset, _check_int, _check_real, build_time_grid
from .errors import ExperimentFailedError, TrainingDivergedError, UndefinedMetricError
from .estimators import (
    IMPUTE_MODES, KaplanMeierCurve, kaplan_meier, last_event_bin, target_cdf_matrix,
)
from .losses import bin_weights, cox_nll_with_grad, ranking_loss_with_grad, wm_batch_with_grad
from .metrics import AcceptablePairSet, _enumerate_pairs, c_index
from .neural import Adam, Network, NetworkConfig
from .pipeline import RawTable, kfold_split, preprocess

__all__ = [
    "LOSSES",
    "CENSORING_MODES",
    "TrainRun",
    "FoldResult",
    "ExperimentReport",
    "AblationCell",
    "AblationResult",
    "SweepPoint",
    "SweepResult",
    "derived_seed",
    "cv_splits",
    "fold_encoder",
    "train_model",
    "predict_scores",
    "run_cv",
    "apply_censoring_mode",
    "censoring_ablation",
    "censoring_sweep",
    "emit_report",
]

CENSORING_MODES = ("with_censored", "no_censored", "death_at_censoring")
DEFAULT_GRID = tuple((lr, l2) for lr in (1e-2, 1e-3, 1e-4) for l2 in (0.0, 1e-4, 1e-3, 1e-2))


def derived_seed(master, *parts):
    """Deterministic child seed: master entropy plus crc32 of each part."""
    seq = np.random.SeedSequence(
        [int(master)] + [crc32(str(p).encode("utf-8")) for p in parts]
    )
    return int(seq.generate_state(1, np.uint32)[0])


def cv_splits(n, k, val_fraction, master_seed):
    """The exact train/val/test index triples run_cv uses for this seed."""
    return kfold_split(n, k, val_fraction, derived_seed(master_seed, "split"))


@dataclass(frozen=True)
class TrainRun:
    """One training configuration: loss choice plus its options, network
    and optimizer settings, and the stopping rule."""

    loss: str
    learning_rate: float = 1e-3
    l2: float = 0.0
    hidden_dims: tuple = (100, 100, 100)
    dropout: float = 0.5
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    wm_l: float = 1.5
    wm_smoothing: float = 1.0
    km_impute: str = "conditional"
    hinge_clip: float = 1.0
    wm_score: str = "mean"  # validation/test score: expected bin or median bin

    def __post_init__(self):
        for name, choices in (("loss", LOSSES), ("wm_score", ("mean", "median")),
                              ("km_impute", IMPUTE_MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; choose one of {choices}")
        # batch norm cannot standardize a batch of one row
        for name, least in (("max_epochs", 1), ("patience", 1), ("batch_size", 2)):
            _check_int(name, getattr(self, name), least)
        for name in ("learning_rate", "wm_l", "wm_smoothing"):
            _check_real(name, getattr(self, name))
        if self.hinge_clip is not None:  # None disables the clip
            _check_real("hinge_clip", self.hinge_clip)
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (1 <= self.wm_l < math.inf):  # also rejects NaN
            raise ValueError(f"wm_l must be >= 1 and finite, got {self.wm_l}")
        if not (self.hinge_clip is None or self.hinge_clip > 0):
            raise ValueError(f"hinge_clip must be positive or None, got {self.hinge_clip}")
        if not (0 < self.wm_smoothing < math.inf):  # also rejects NaN
            raise ValueError(f"wm_smoothing must be positive and finite, got {self.wm_smoothing}")
        # the network's own checks of the widths, dropout, l2 and seed, before any fold is built
        NetworkConfig(input_dim=1, hidden_dims=self.hidden_dims, dropout_rate=self.dropout,
                      l2_coefficient=self.l2, seed=self.seed)
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))


def _pmf_scores(run, outputs, cdf_out):
    if run.wm_score == "median":
        cdf = np.cumsum(outputs, axis=1, out=cdf_out)
        return np.argmax(cdf >= 0.5, axis=1).astype(np.float64)
    return outputs @ np.arange(outputs.shape[1], dtype=np.float64)


def _cox_batches(ties, run, train):
    if not train.observed.any():
        raise UndefinedMetricError(f"{run.loss}: the training set has no observed events")

    def batch(idx):
        bins, observed = train.bins[idx], train.observed[idx]
        events = int(observed.sum())
        if events == 0:
            return None

        # per-event scaling keeps the learning-rate grid comparable
        # across batch compositions; the optimum is unchanged
        def loss(out):
            value, grad_out = cox_nll_with_grad(out, bins, observed, ties)
            return value / events, grad_out / events

        return loss

    return batch


def _rank_batches(kind, run, train):
    event_bins = train.bins[train.observed]
    if event_bins.size == 0 or event_bins.min() >= train.bins.max():
        raise UndefinedMetricError(f"{run.loss}: the training set admits no acceptable pairs")

    def batch(idx):
        i, j = _enumerate_pairs(train.bins[idx], train.observed[idx])
        if len(i) == 0:
            return None
        pairs = AcceptablePairSet(i=i, j=j, num_records=len(idx))
        return lambda out: ranking_loss_with_grad(out, pairs, kind, run.hinge_clip)

    return batch


def _wm_batches(run, train):
    km, weights = kaplan_meier(train), bin_weights(train, run.wm_smoothing)
    return lambda idx: lambda pmf: (_wm_step(run, train, km, weights, idx, pmf), pmf)


def _wm_step(run: TrainRun, train: Dataset, km, weights, idx, pmf):
    """The wm loss of the batch `train[idx]` with pmf `pmf`, in row blocks of at most a
    quarter of `_SCORE_BLOCK_BYTES` of outputs; d(loss)/d(logits) is written over `pmf`.
    Each block's loss consumes that block's target rows and holds one more (block, L + 2)
    array, so the two fresh arrays of a block stay well inside an L2 cache."""
    block = max(1, _SCORE_BLOCK_BYTES // (4 * 8 * pmf.shape[1]))
    value = 0.0
    for start in range(0, len(idx), block):
        rows = slice(start, start + block)
        value += wm_batch_with_grad(
            pmf[rows], target_cdf_matrix(train, km, mode=run.km_impute, rows=idx[rows]),
            weights, run.wm_l, out=pmf[rows], batch_size=len(idx))[0]
    return value


# A family's network head, its map from outputs to C-index scores (see `eval_scores`), and
# `batches(run, train)`: it raises UndefinedMetricError if the training set has no signal,
# else returns a function of one batch's row indices that, before the forward, gives None
# to skip the batch or a `loss(outputs) -> (value, d(value)/d(outputs))`.
_Family = namedtuple("_Family", "head scores batches")
_COX = ("scalar_linear", lambda run, outputs, cdf_out: -outputs)  # outputs rank hazard
_RANK = ("scalar_linear", lambda run, outputs, cdf_out: outputs)
_FAMILIES = {
    "cox": _Family(*_COX, partial(_cox_batches, "breslow")),
    "cox-efron": _Family(*_COX, partial(_cox_batches, "efron")),
    "rank-sigmoid": _Family(*_RANK, partial(_rank_batches, "sigmoid")),
    "rank-logsigmoid": _Family(*_RANK, partial(_rank_batches, "log_sigmoid")),
    "rank-hinge": _Family(*_RANK, partial(_rank_batches, "hinge")),
    "rank-exp": _Family(*_RANK, partial(_rank_batches, "exponential")),
    "wm": _Family("softmax", _pmf_scores, _wm_batches),  # a pmf over bins 0..L and "after L"
}
LOSSES = tuple(_FAMILIES)


def _network_for(run: TrainRun, train: Dataset) -> Network:
    head = _FAMILIES[run.loss].head
    return Network(NetworkConfig(
        input_dim=train.n_features, hidden_dims=run.hidden_dims, head=head,
        num_outputs=last_event_bin(train) + 2 if head == "softmax" else 1, dropout_rate=run.dropout,
        l2_coefficient=run.l2, seed=derived_seed(run.seed, "init")))


def eval_scores(run: TrainRun, outputs, cdf_out=None):
    """Map network outputs to C-index scores (higher = later event).

    Cox outputs rank hazard, so they are negated; ranking outputs are used
    raw; a pmf head scores by its expected output index (or the median
    output).  Its last output, L + 1, means "after L" and counts as index
    L + 1, so the mean is a mean restricted to L + 1, and the median is
    L + 1 when more than half of the mass lies past L.
    Each row's score depends on that row alone, so `predict_scores` can
    apply it block by block.  `outputs` is never written to unless it is
    also `cdf_out`, where a median score writes the running CDF.
    """
    return _FAMILIES[run.loss].scores(run, outputs, cdf_out)


# Output bytes one scoring forward may hold: 64 rows of a 2,048-output pmf head, which fit
# a 2 MiB L2 cache with their hidden activations.  A block of the wm loss holds a quarter
# of it (16 rows of that head) in each of its two fresh arrays: targets and scratch.
_SCORE_BLOCK_BYTES = 1 << 20


def _finite(out):
    """Whether network outputs are all finite.  A softmax row is all finite or all NaN (a
    NaN, +inf or all -inf row maximum makes it NaN; else its sum is >= 1): column 0 decides."""
    return bool(np.isfinite(out if out.ndim == 1 else out[:, 0]).all())


# A diverging run's overflows and NaNs reach an explicit check that names them (network
# outputs, the loss value, the gradients), so numpy's floating-point warnings would only
# repeat it on stderr, ahead of the CLI's one JSON error line.
@np.errstate(all="ignore")
def predict_scores(run: TrainRun, net: Network, features):
    """`eval_scores` of an eval-mode forward over every row of `features`.

    The rows are scored in consecutive blocks of at most
    `_SCORE_BLOCK_BYTES` of network outputs, one block alive at a time, so
    memory is O(block x num_outputs) rather than O(n x num_outputs) for a
    pmf head.  Raises ValueError if `net` has a different head from the one
    `run.loss` trains, and TrainingDivergedError if any block's outputs are
    not finite.
    """
    head = _FAMILIES[run.loss].head
    if net.config.head != head:
        raise ValueError(f"loss {run.loss!r} scores a {head!r} head, "
                         f"but the network has a {net.config.head!r} head")
    block = max(1, _SCORE_BLOCK_BYTES // (8 * net.config.num_outputs))
    scores = np.empty(len(features))
    for start in range(0, len(features), block):
        # the block is positional: the benchmark's tracer counts rows from it
        out = net.forward(features[start : start + block], train=False)
        if not _finite(out):
            raise TrainingDivergedError(
                f"non-finite network outputs in rows {start} to {start + len(out) - 1}"
            )
        scores[start : start + block] = eval_scores(run, out, cdf_out=out)  # ours to overwrite
        del out  # so the next block's forward runs with no other block alive
    return scores


@np.errstate(all="ignore")  # as predict_scores: the checks below name every divergence
def train_model(run: TrainRun, train: Dataset, val: Dataset):
    """Minibatch training with early stopping on the validation C-index.

    Returns (network at the best validation epoch, history).  History maps
    "train_loss" and "val_c_index" to per-epoch lists and records the
    1-based best and stopped epoch.  Raises TrainingDivergedError (with the
    epoch) on a non-finite loss or gradient, and UndefinedMetricError when
    the validation set has no acceptable pairs or the loss has no training
    signal at all.
    """
    if len(train) < 2:
        raise ValueError("training set needs at least 2 records")
    val_event_times = val.times[val.observed]
    if val_event_times.size == 0 or val_event_times.min() >= val.times.max():
        raise UndefinedMetricError("validation set has no acceptable pairs")
    batch_loss = _FAMILIES[run.loss].batches(run, train)

    net = _network_for(run, train)
    adam = Adam(run.learning_rate)
    batch_rng = np.random.default_rng(derived_seed(run.seed, "batches"))
    n = len(train)

    history = {"train_loss": [], "val_c_index": []}
    best_c = -np.inf
    best_snapshot = None
    best_epoch = 0
    since_best = 0
    epoch = 0
    for epoch in range(1, run.max_epochs + 1):
        perm = batch_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, run.batch_size):
            idx = perm[start : start + run.batch_size]
            # batch norm cannot standardize a single row; a batch is skipped before its
            # forward, so the dropout stream sees only the batches that train
            if len(idx) < 2 or (loss := batch_loss(idx)) is None:
                continue
            out = net.forward(train.features[idx], train=True)
            if not _finite(out):
                raise TrainingDivergedError("non-finite network outputs", epoch=epoch)
            value, grad_out = loss(out)
            if not math.isfinite(value):
                raise TrainingDivergedError(f"non-finite training loss {value!r}", epoch=epoch)
            try:
                adam.step(net.params, net.backward(grad_out))
            except TrainingDivergedError as err:
                raise TrainingDivergedError(str(err), epoch=epoch) from None
            del out, grad_out  # so the next forward runs with no other batch's outputs alive
            batch_losses.append(value)
        history["train_loss"].append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
        # nothing T-wide outlives the epoch: validation scores with no batch's
        # outputs or train cache alive
        net.release_cache()
        try:
            val_scores = predict_scores(run, net, val.features)
        except TrainingDivergedError as err:
            raise TrainingDivergedError(f"validation: {err}", epoch=epoch) from None
        val_c = c_index(val, val_scores)
        history["val_c_index"].append(val_c)
        if val_c > best_c:
            best_c = val_c
            best_snapshot = net.snapshot()
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= run.patience:
                break
    net.restore(best_snapshot)
    history["best_epoch"] = best_epoch
    history["best_val_c_index"] = best_c
    history["stopped_epoch"] = epoch
    return net, history


# ---------------------------------------------------------------------------
# Grid search over (learning rate, l2)


def _fit_job(args):
    """(history, test C-index) of one grid point: `train_model` on the train and validation
    folds, then its network scored on the test fold, so no network outlives the job.

    A TrainingDivergedError of training is returned in place of the pair, and one of test
    scoring in place of the C-index (raised only if the point is picked); each is a fresh
    error of the same message and epoch, with no traceback that would hold the network."""
    run, train, val, test = args
    try:
        net, history = train_model(run, train, val)
    except TrainingDivergedError as err:
        return TrainingDivergedError(str(err), epoch=err.epoch)
    try:
        return history, c_index(test, predict_scores(run, net, test.features))
    except TrainingDivergedError as err:
        return history, TrainingDivergedError(str(err), epoch=err.epoch)


def _checked_grid(grid, n_jobs, runs):
    """`grid` as (lr, l2) floats, once each point is a pair of real numbers (not bools) and
    its TrainRun from each of `runs` passes TrainRun's checks, so none fails mid-run."""
    points = []
    for point in grid:
        try:
            lr, l2 = point
            _check_real("learning_rate", lr)
            _check_real("l2", l2)
        except (TypeError, ValueError) as err:
            raise ValueError(f"grid point {point!r} is not a (learning_rate, l2) pair of "
                             f"real numbers: {err}") from None
        try:
            points.append((float(lr), float(l2)))
        except OverflowError as err:  # an int past the float range, such as 10**400
            raise ValueError(f"grid point {point!r} does not fit a float: {err}") from None
    if not points:
        raise ValueError("the grid must contain at least one point")
    _check_int("n_jobs", n_jobs, 1)
    for run in runs:
        for lr, l2 in points:
            replace(run, learning_rate=lr, l2=l2)
    return points


def _select(name, fi, grid, results):
    """(grid index, history, test C-index) of the best of one fold's `_fit_job` results, one
    per grid point: best validation C-index, ties broken by lower l2 then lower rate.
    Diverged points are skipped; if all diverged, ExperimentFailedError names each."""
    alive = [gi for gi, r in enumerate(results) if not isinstance(r, TrainingDivergedError)]
    if not alive:
        reasons = "; ".join(f"(lr, l2) = {point} at epoch {err.epoch}: {err}"
                            for point, err in zip(grid, results))
        raise ExperimentFailedError(
            f"{name} fold {fi}: all {len(grid)} grid points diverged: {reasons}"
        )
    gi = min(alive, key=lambda gi: (-results[gi][0]["best_val_c_index"], grid[gi][1], grid[gi][0]))
    return (gi, *results[gi])


def _fit_all(jobs, n_jobs):
    """Yield `_fit_job` of every job in job order.  With n_jobs > 1 one
    process pool runs them, at most 2 x n_jobs ahead of the one yielded,
    so a lazy `jobs` is never drawn far ahead."""
    if n_jobs == 1:
        yield from map(_fit_job, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor  # so a serial run never loads a pool

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        ahead = deque()
        try:
            for job in jobs:
                ahead.append(pool.submit(_fit_job, job))
                if len(ahead) > 2 * n_jobs:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:  # after a failure, start none of the jobs still queued
            for future in ahead:
                future.cancel()


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class FoldResult:
    fold: int
    learning_rate: float
    l2: float
    val_c_index: float
    test_c_index: float


@dataclass(frozen=True)
class ExperimentReport:
    loss: str
    k: int
    seed: int
    folds: tuple
    mean_test_c_index: float
    stderr_test_c_index: float

    def __post_init__(self):
        object.__setattr__(self, "folds", tuple(self.folds))
        if len(self.folds) != self.k:
            raise ValueError(f"expected {self.k} fold results, got {len(self.folds)}")
        tests = [f.test_c_index for f in self.folds]
        if not (min(tests) - 1e-12 <= self.mean_test_c_index <= max(tests) + 1e-12):
            raise ValueError("mean lies outside the fold range")


def fold_encoder(data, bin_width):
    """A function from one (train, val, test) index split to its (train,
    val, test) Datasets and (feature names, stats) of the training fit.

    RawTable input is encoded per fold with training-fold statistics on one
    grid over the full table's time range, so bin semantics stay comparable;
    Dataset input is subset as-is (its features must already be fold-free,
    e.g. synthetic draws) and has no fit, so None stands in for it.
    """
    if isinstance(data, Dataset):
        return lambda split: (tuple(data.subset(rows) for rows in split), None)
    if not isinstance(data, RawTable):
        raise TypeError(f"expected a Dataset or RawTable, got {type(data).__name__}")
    if bin_width is None:
        raise ValueError("bin_width is required when cross-validating a raw table")
    grid = build_time_grid(data.times, bin_width)

    def encode(split):
        fit = preprocess(data, rows=split[0])
        parts = (fit, *(preprocess(data, stats=fit.stats, rows=rows) for rows in split[1:]))
        return (tuple(Dataset(p.features, p.times, p.observed, grid) for p in parts),
                (fit.feature_names, fit.stats))

    return encode


def _cell_run(template, loss, seed):
    return replace(template or TrainRun(loss=loss), loss=loss, seed=seed)


def _run_experiment(data, cells, k, grid, seed, val_fraction, bin_width, n_jobs):
    """k-fold cross-validation of every cell on one set of folds: one
    ExperimentReport per cell, in cell order.

    A cell is a (name, TrainRun, train modifier or None) triple; the name
    labels its errors, a modifier maps (train Dataset, fold rng) to a
    replacement training set, and validation and test folds are never
    modified.  Every (cell, fold, grid point) runs from one job list in
    fold-major order, grid point gi of fold fi seeded `derived_seed(run.seed,
    "fold", fi, "grid", gi)`.  Each fold is encoded once, when its first job
    is queued, and only folds in flight hold data (one when serial).  A job
    scores its own network on the test fold (`_fit_job`), so no network
    outlives its job, and each (cell, fold) is reduced by `_select` over
    numbers once its last point is in.
    """
    grid = _checked_grid(DEFAULT_GRID if grid is None else grid, n_jobs,
                         [run for _, run, _ in cells])
    encode = fold_encoder(data, bin_width)
    queued = deque()  # (name, fold index) of each (cell, fold) in flight

    def jobs():
        for fi, split in enumerate(cv_splits(len(data), k, val_fraction, seed)):
            (train, val, test), _ = encode(split)
            for name, run, modify in cells:
                rng = np.random.default_rng(derived_seed(seed, "modify", fi))
                cell_train = train if modify is None else modify(train, rng)
                queued.append((name, fi))
                for gi, (lr, l2) in enumerate(grid):
                    job_seed = derived_seed(run.seed, "fold", fi, "grid", gi)
                    yield (replace(run, learning_rate=lr, l2=l2, seed=job_seed),
                           cell_train, val, test)
                del cell_train
            del train, val, test  # so this fold is released before the next is encoded

    results = _fit_all(jobs(), n_jobs)
    folds = []
    for first in results:
        name, fi = queued.popleft()
        gi, history, test_c = _select(name, fi, grid, [first, *islice(results, len(grid) - 1)])
        if isinstance(test_c, TrainingDivergedError):
            raise test_c
        folds.append(FoldResult(fold=fi, learning_rate=grid[gi][0], l2=grid[gi][1],
                                val_c_index=history["best_val_c_index"], test_c_index=test_c))
    reports = []
    for ci, (_, run, _) in enumerate(cells):
        own = folds[ci :: len(cells)]  # fold-major: (cell ci, fold fi) is result fi * cells + ci
        tests = np.array([f.test_c_index for f in own])
        reports.append(ExperimentReport(
            loss=run.loss, k=k, seed=seed, folds=own, mean_test_c_index=float(tests.mean()),
            stderr_test_c_index=float(tests.std(ddof=1) / math.sqrt(k)),
        ))
    return reports


def run_cv(data, loss, k=5, grid=None, seed=0, val_fraction=0.2, bin_width=None,
           template=None, n_jobs=1):
    """k-fold cross-validation of one loss; returns an ExperimentReport.

    `data` is a Dataset (used as-is) or a RawTable (encoded per fold with
    training-fold statistics; requires bin_width).  `template` (default
    `TrainRun(loss=loss)`) gives every training option, except that `loss`
    and `seed` replace its own.  Each fold picks its (learning_rate, l2)
    point of `grid` (default DEFAULT_GRID) by validation C-index; diverged
    points are skipped.
    """
    cell = (loss, _cell_run(template, loss, seed), None)
    return _run_experiment(data, [cell], k, grid, seed, val_fraction, bin_width, n_jobs)[0]


# ---------------------------------------------------------------------------
# Censoring experiments


def apply_censoring_mode(train: Dataset, mode) -> Dataset:
    """Transform a TRAINING set per the censoring-handling mode."""
    if mode == "with_censored":
        return train
    if mode == "no_censored":
        return train.subset(np.nonzero(train.observed)[0])
    if mode == "death_at_censoring":
        return Dataset(
            train.features, train.times, np.ones(len(train), dtype=bool), train.grid
        )
    raise ValueError(f"unknown censoring mode {mode!r}; choose one of {CENSORING_MODES}")


@dataclass(frozen=True)
class AblationCell:
    loss: str
    mode: str
    report: ExperimentReport


@dataclass(frozen=True)
class AblationResult:
    cells: tuple

    def cell(self, loss, mode):
        for c in self.cells:
            if c.loss == loss and c.mode == mode:
                return c
        raise KeyError((loss, mode))


def _listed_once(kind, values):
    """`values` as a list; raises ValueError if it is empty or naming the
    first value listed twice."""
    values = list(values)
    if not values:
        raise ValueError(f"no {kind} is listed")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{kind} {value!r} is listed more than once")
    return values


def censoring_ablation(data, losses=("wm", "rank-sigmoid", "cox-efron"), modes=CENSORING_MODES,
                       k=5, grid=None, seed=0, val_fraction=0.2, bin_width=None,
                       template=None, n_jobs=1):
    """Each loss under each censoring-handling mode, same folds throughout.

    The folds are built once and shared by every cell, so validation and
    test folds are identical across the whole table; only the training
    sets differ.  Every loss and mode is checked, and must be listed once,
    before any fold is built.  Jobs run fold-major (every cell on fold 0,
    then on fold 1, ...), so if several cells diverge on every grid point,
    the ExperimentFailedError names the first such (cell, fold) in that order.
    As in `run_cv`, each loss and `seed` replace the template's own.
    """
    if not np.any(~data.observed):
        raise ValueError("the censoring comparison needs a dataset with censored records")
    for mode in _listed_once("censoring mode", modes):
        if mode not in CENSORING_MODES:
            raise ValueError(f"unknown censoring mode {mode!r}; choose one of {CENSORING_MODES}")
    pairs = [(loss, mode) for loss in _listed_once("loss", losses) for mode in modes]
    cells = [(f"{loss} ({mode})", _cell_run(template, loss, seed),
              lambda train, rng, _mode=mode: apply_censoring_mode(train, _mode))
             for loss, mode in pairs]
    reports = _run_experiment(data, cells, k, grid, seed, val_fraction, bin_width, n_jobs)
    return AblationResult(cells=tuple(
        AblationCell(loss=loss, mode=mode, report=report)
        for (loss, mode), report in zip(pairs, reports)
    ))


@dataclass(frozen=True)
class SweepPoint:
    fraction: float
    report: ExperimentReport


@dataclass(frozen=True)
class SweepResult:
    loss: str
    seed: int
    points: tuple


def _sweep_modifier(fraction):
    def modify(train: Dataset, rng) -> Dataset:
        need = math.ceil(fraction * len(train))
        have = int(np.count_nonzero(~train.observed))
        extra = need - have
        if extra <= 0:
            return train
        candidates = np.nonzero(train.observed)[0]
        picked = rng.choice(candidates, size=extra, replace=False)
        times = train.times.copy()
        observed = train.observed.copy()
        times[picked] = times[picked] * rng.random(extra)  # censor before the event
        observed[picked] = False
        return Dataset(train.features, times, observed, train.grid)

    return modify


def censoring_sweep(data, loss, fractions, k=5, grid=None, seed=0, val_fraction=0.2,
                    bin_width=None, template=None, n_jobs=1):
    """Re-run CV at increasing training censoring fractions.

    Observed training records are converted to censored-at-a-uniform-time-
    before-their-event until each requested fraction is met; fractions at
    or below the dataset's native fraction leave the data untouched.  A
    fraction that is not a real number (a bool or a string), below the
    native one or above 1 (or NaN) is rejected before any fold is built, as
    is a fraction listed twice.  Validation and test folds are never
    modified.  As in `run_cv`, `loss` and `seed` replace the template's own.
    """
    native = float(np.count_nonzero(~data.observed)) / len(data.observed)
    fractions = list(fractions)
    for fraction in fractions:  # compared before float(), which a huge int would overflow
        _check_real("censoring fraction", fraction)
        if not (native - 1e-12 <= fraction <= 1.0):
            raise ValueError(
                f"censoring fraction {fraction} must be <= 1 and not below the native {native:.4f}"
            )
    fractions = _listed_once("censoring fraction", [float(fraction) for fraction in fractions])
    run = _cell_run(template, loss, seed)
    cells = [(f"{loss} (censoring fraction {f})", run,
              None if f <= native + 1e-12 else _sweep_modifier(f)) for f in fractions]
    reports = _run_experiment(data, cells, k, grid, seed, val_fraction, bin_width, n_jobs)
    return SweepResult(loss=loss, seed=seed, points=tuple(
        SweepPoint(fraction=f, report=r) for f, r in zip(fractions, reports)
    ))


# ---------------------------------------------------------------------------
# Report files


def _report_doc(report):
    """(document, key of its row list, that list's columns) of a report.

    JSON writes the document as it is; the CSV is rendered from it."""
    if isinstance(report, ExperimentReport):
        columns = ["fold", "learning_rate", "l2", "val_c_index", "test_c_index"]
        doc = {
            "loss": report.loss,
            "k": report.k,
            "seed": report.seed,
            "folds": [{c: getattr(f, c) for c in columns} for f in report.folds],
            "mean_test_c_index": report.mean_test_c_index,
            "stderr_test_c_index": report.stderr_test_c_index,
        }
        return doc, "folds", columns
    if isinstance(report, SweepResult):
        points = [
            {
                "fraction": p.fraction,
                "mean": p.report.mean_test_c_index,
                "stderr": p.report.stderr_test_c_index,
            }
            for p in report.points
        ]
        doc = {"loss": report.loss, "seed": report.seed, "points": points}
        return doc, "points", ["fraction", "mean", "stderr"]
    if isinstance(report, AblationResult):
        cells = [
            {
                "loss": c.loss,
                "mode": c.mode,
                "mean": c.report.mean_test_c_index,
                "stderr": c.report.stderr_test_c_index,
            }
            for c in report.cells
        ]
        return {"cells": cells}, "cells", ["loss", "mode", "mean", "stderr"]
    if isinstance(report, KaplanMeierCurve):
        columns = ["bin", "left_edge", "events", "at_risk", "survival"]
        arrays = (range(report.grid.num_bins), report.grid.left_edges().tolist(),
                  report.event_counts.tolist(), report.at_risk.tolist(), report.survival.tolist())
        bins = [dict(zip(columns, values)) for values in zip(*arrays)]
        return {"bin_width": report.grid.bin_width, "bins": bins}, "bins", columns
    raise TypeError(f"cannot emit a report of type {type(report).__name__}")


def _csv_rows(doc, key, columns):
    """Header plus one row per entry of doc[key].  A cv report's rows also
    get a leading row kind, a trailing stderr column and one aggregate row;
    a cell an entry lacks is empty."""
    entries = doc[key]
    if key == "folds":
        columns = ["row", *columns, "stderr"]
        entries = [{"row": "fold", **entry} for entry in entries] + [{
            "row": "aggregate",
            "test_c_index": doc["mean_test_c_index"],
            "stderr": doc["stderr_test_c_index"],
        }]
    return [columns] + [[_csv_cell(entry.get(c, "")) for c in columns] for entry in entries]


def _csv_cell(value):
    """A report cell's text: strings as they are, `str` of an int, else `repr` of its float."""
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else repr(float(value))


def emit_report(report, path, format="csv"):
    """Write a report with a deterministic layout to `path`, or to stdout
    when `path` is None.

    Accepts an ExperimentReport (fold rows + one aggregate row), a
    SweepResult (plot-ready fraction,mean,stderr rows), an AblationResult
    (loss,mode,mean,stderr rows) or a KaplanMeierCurve
    (bin,left_edge,events,at_risk,survival rows).  CSV and JSON carry the
    same numbers at full precision, and no report holds a wall-clock time,
    so fixed-seed runs are byte-identical.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    doc, key, columns = _report_doc(report)
    if format == "csv":
        text = "\n".join(",".join(row) for row in _csv_rows(doc, key, columns)) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return path
