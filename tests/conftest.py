"""Shared oracles and dataset builders.

Everything here is deliberately naive: double loops, literal formula
transcriptions, float products. The library must agree with these, not
the other way around.
"""

import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import censrank
from censrank import pipeline
from censrank.core import Dataset, build_time_grid

# directory holding the imported censrank package
PACKAGE_ROOT = Path(censrank.__file__).resolve().parent.parent


def cli_launch(argv, prefer_installed=False):
    """Command and environment for running the CLI in a subprocess.

    By default the CLI runs as ``python -m censrank.cli`` with PYTHONPATH
    prefixed by the absolute PACKAGE_ROOT, so the child imports the same
    censrank as the tests even from another working directory. With
    ``prefer_installed`` an installed ``censrank`` entry point on PATH is used
    as it is (environment inherited), falling back to ``python -m``.
    Returns ``(cmd, env)``; pass both to ``subprocess.run``.
    """
    exe = shutil.which("censrank") if prefer_installed else None
    if exe:
        return [exe, *argv], None
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{PACKAGE_ROOT}{os.pathsep}{inherited}" if inherited else str(PACKAGE_ROOT)
    )
    return [sys.executable, "-m", "censrank.cli", *argv], env


def brute_force_c_index(times, observed, scores):
    """Literal pairwise definition, integer counts.

    A pair (i, j) is acceptable when i's event is observed and j's time is
    strictly later. Concordant pairs count 1, score ties count 1/2.
    """
    times = np.asarray(times, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n = times.shape[0]
    pairs = concordant = tied = 0
    for i in range(n):
        if not observed[i]:
            continue
        for j in range(n):
            if times[j] > times[i]:
                pairs += 1
                if scores[i] < scores[j]:
                    concordant += 1
                elif scores[i] == scores[j]:
                    tied += 1
    if pairs == 0:
        raise ZeroDivisionError("no acceptable pairs")
    # integer-exact form: both operands of the division are exact
    return (2 * concordant + tied) / (2 * pairs)


def brute_force_acceptable_pairs(times, observed):
    times = np.asarray(times, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    out = set()
    for i in range(times.shape[0]):
        if not observed[i]:
            continue
        for j in range(times.shape[0]):
            if times[j] > times[i]:
                out.add((i, j))
    return out


def brute_force_km(dataset):
    """Product-limit estimator, one float multiply per bin."""
    bins = dataset.bins
    n = len(dataset)
    survival = []
    s = 1.0
    for k in range(dataset.grid.num_bins):
        at_risk = int(np.sum(bins >= k))
        events = int(np.sum((bins == k) & dataset.observed))
        if at_risk > 0 and events > 0:
            s *= 1.0 - events / at_risk
        survival.append(s)
    return np.asarray(survival)


def brute_force_cox(scores, bins, observed, ties="breslow"):
    """Direct transcription of the partial likelihood, no stabilization.

    Fine for the <= 10 record instances the tests use; overflow-prone
    beyond that, which is the point of testing the real implementation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    bins = np.asarray(bins)
    observed = np.asarray(observed, dtype=bool)
    nll = 0.0
    if ties == "breslow":
        for i in range(scores.shape[0]):
            if not observed[i]:
                continue
            denom = sum(
                math.exp(scores[j]) for j in range(scores.shape[0]) if bins[j] >= bins[i]
            )
            nll -= scores[i] - math.log(denom)
        return nll
    for t in sorted(set(bins[observed].tolist())):
        tied = [i for i in range(scores.shape[0]) if observed[i] and bins[i] == t]
        m = len(tied)
        risk = sum(math.exp(scores[j]) for j in range(scores.shape[0]) if bins[j] >= t)
        tied_sum = sum(math.exp(scores[i]) for i in tied)
        nll -= sum(scores[i] for i in tied)
        for r in range(m):
            nll += math.log(risk - (r / m) * tied_sum)
    return nll


def _true_beta(dataset):
    """The log-hazard coefficients `generate_synthetic` drew `dataset` with."""
    return pipeline._RISK_PATTERN[: min(3, dataset.n_features)] * pipeline._RISK_SCALE


def oracle_scores(dataset):
    """Negated true log hazard of `generate_synthetic` data (higher = later)."""
    beta = _true_beta(dataset)
    return -(dataset.features[:, : len(beta)] @ beta)


def oracle_pmf(dataset):
    """True event-time pmf of `generate_synthetic` data on its grid, shape
    (n, num_bins).

    A raw event time is exponential at rate exp(x.beta) and re-clocked to
    t = 100 / (1 + exp(-1.7 z)), z = (ln raw + gamma) / spread.  So the CDF
    at a bin's right edge t is 1 - exp(-exp(x.beta) exp(spread z(t) - gamma))
    with z(t) = -ln(100/t - 1) / 1.7, and the last bin takes the mass past
    its left edge (an edge at or past 100 has CDF 1).
    """
    beta = _true_beta(dataset)
    spread = math.sqrt(float(beta @ beta) + math.pi**2 / 6.0)
    cdf = np.ones((len(dataset), dataset.grid.num_bins + 1))
    cdf[:, 0] = 0.0
    for k in range(1, dataset.grid.num_bins):
        t = k * dataset.grid.bin_width
        if t >= pipeline._HORIZON:
            continue
        z = -math.log(pipeline._HORIZON / t - 1.0) / pipeline._SQUASH_SLOPE
        raw = math.exp(spread * z - pipeline._EULER)
        cdf[:, k] = 1.0 - np.exp(-np.exp(dataset.features[:, : len(beta)] @ beta) * raw)
    return np.diff(cdf, axis=1)


def make_dataset(times, observed, bin_width=1.0, features=None, seed=0):
    times = np.asarray(times, dtype=np.float64)
    observed = np.asarray(observed, dtype=bool)
    if features is None:
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(times.shape[0], 3))
    grid = build_time_grid(times, bin_width)
    return Dataset(np.asarray(features, dtype=np.float64), times, observed, grid)


def random_survival_dataset(rng, max_n=200, force_ties=True, censor_high=0.9):
    """Small dataset with tied times and a random censoring level.

    Occasionally returns fully observed data so the no-censoring branches
    get exercised too.
    """
    n = int(rng.integers(2, max_n + 1))
    if force_ties and rng.random() < 0.7:
        times = rng.integers(0, max(2, n // 3), size=n).astype(np.float64)
    else:
        times = rng.exponential(10.0, size=n)
    frac = float(rng.uniform(0.0, censor_high)) if rng.random() < 0.8 else 0.0
    observed = rng.random(n) >= frac
    if not observed.any():
        observed[int(rng.integers(0, n))] = True
    return times, observed


def duplicated_scores(rng, n):
    # coarse value set so exact score ties occur often
    return rng.choice(np.round(rng.normal(size=max(2, n // 4)), 1), size=n)


def central_difference(f, x, h=1e-5):
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for idx in range(xf.shape[0]):
        orig = xf[idx]
        xf[idx] = orig + h
        hi = f(x)
        xf[idx] = orig - h
        lo = f(x)
        xf[idx] = orig
        flat[idx] = (hi - lo) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    numeric = np.asarray(numeric, dtype=np.float64).reshape(-1)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))
