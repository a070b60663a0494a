"""End-to-end acceptance gate.

Each test prints exactly one [acceptance] PASS/FAIL line (or SKIP, for the
real-dataset reproductions, which need manually downloaded files and
CENSRANK_REPRO=1; see README). The lines bypass pytest's capture so a plain
`pytest tests/test_acceptance.py` shows the verdicts inline.
"""

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_force_c_index,
    brute_force_cox,
    brute_force_km,
    cli_launch,
    duplicated_scores,
    make_dataset,
    random_survival_dataset,
)
from test_gradients import LOSS_CONFIGS, _check_one
from censrank.errors import UndefinedMetricError
from censrank.estimators import kaplan_meier
from censrank.harness import (
    TrainRun,
    censoring_ablation,
    cv_splits,
    predict_scores,
    run_cv,
    train_model,
)
from censrank.losses import cox_nll_with_grad, wm_batch_with_grad
from censrank.metrics import acceptable_pairs, c_index, c_index_from_pairs
from censrank.pipeline import generate_synthetic, load_csv, load_schema

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
REPRO = os.environ.get("CENSRANK_REPRO") == "1"
JOBS = int(os.environ.get("CENSRANK_JOBS", "1"))


def _emit(capfd, line):
    with capfd.disabled():
        print(line, flush=True)


def _finish(capfd, name, ok, detail):
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    _emit(capfd, line)
    assert ok, line


def _skip(capfd, name, why):
    _emit(capfd, f"[acceptance] SKIP {name}: {why}")
    pytest.skip(why)


class TestCIndexOracle:
    def test_c_index_equals_brute_force(self, capfd):
        name = "C-index vs brute-force pairwise count"
        rng = np.random.default_rng(20260816)
        t0 = time.perf_counter()
        checked = undefined = mismatched = 0
        for _ in range(500):
            times, observed = random_survival_dataset(rng)
            scores = duplicated_scores(rng, times.shape[0])
            data = make_dataset(times, observed)
            try:
                expect = brute_force_c_index(times, observed, scores)
            except ZeroDivisionError:
                # no acceptable pairs: the library must refuse too
                with pytest.raises(UndefinedMetricError):
                    c_index(data, scores)
                undefined += 1
                continue
            if c_index(data, scores) != expect:
                mismatched += 1
            checked += 1
        elapsed = time.perf_counter() - t0
        _finish(
            capfd,
            name,
            mismatched == 0 and checked >= 450,
            f"{checked} random datasets bitwise equal, {mismatched} mismatched, "
            f"{undefined} undefined on both sides, {elapsed:.1f}s",
        )


class TestKaplanMeierOracle:
    def test_km_exact_and_per_step(self, capfd):
        name = "Kaplan-Meier vs empirical / per-step product"
        rng = np.random.default_rng(20260817)
        t0 = time.perf_counter()
        censored_sets = exact_bad = 0
        worst = 0.0
        for _ in range(200):
            times, observed = random_survival_dataset(rng, max_n=120)
            data = make_dataset(times, observed)
            worst = max(worst, float(np.max(np.abs(
                kaplan_meier(data).survival - brute_force_km(data)))))
            if not observed.all():
                censored_sets += 1
            # same times fully observed: the curve must be the empirical
            # survival function, bit for bit
            full = make_dataset(times, np.ones(times.shape[0], dtype=bool))
            bins = full.bins
            empirical = np.array(
                [np.mean(bins > k) for k in range(full.grid.num_bins)]
            )
            if not np.array_equal(kaplan_meier(full).survival, empirical):
                exact_bad += 1
        elapsed = time.perf_counter() - t0
        _finish(
            capfd,
            name,
            exact_bad == 0 and worst <= 1e-12 and censored_sets >= 50,
            f"200 datasets ({censored_sets} with censoring): uncensored exact "
            f"({exact_bad} off), censored per-step max abs err {worst:.2e} "
            f"(tol 1e-12), {elapsed:.1f}s",
        )


class TestTieHandlingOracle:
    def test_efron_breslow_agreement(self, capfd):
        name = "Efron/Breslow partial likelihood"
        rng = np.random.default_rng(20260818)
        tie_free_bad = 0
        for _ in range(100):
            n = int(rng.integers(2, 40))
            times = rng.permutation(np.arange(n)).astype(np.float64)
            observed = rng.random(n) < 0.7
            observed[int(rng.integers(0, n))] = True
            data = make_dataset(times, observed)
            scores = rng.normal(size=n)
            bins = data.bins
            breslow = cox_nll_with_grad(scores, bins, observed, "breslow")[0]
            if breslow != cox_nll_with_grad(scores, bins, observed, "efron")[0]:
                tie_free_bad += 1
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 11))
            times = rng.integers(0, 4, size=n).astype(np.float64)
            observed = rng.random(n) < 0.7
            observed[int(rng.integers(0, n))] = True
            data = make_dataset(times, observed)
            scores = rng.normal(size=n)
            bins = data.bins
            for ties in ("breslow", "efron"):
                got = cox_nll_with_grad(scores, bins, observed, ties)[0]
                expect = brute_force_cox(scores, bins, observed, ties=ties)
                worst = max(worst, abs(got - expect))
        _finish(
            capfd,
            name,
            tie_free_bad == 0 and worst <= 1e-10,
            f"tie-free bitwise equal on 100 datasets ({tie_free_bad} off); "
            f"200 tied <=10-record instances vs literal formulas, "
            f"max abs err {worst:.2e} (tol 1e-10)",
        )


class TestGradientSuite:
    def test_all_losses_through_full_network(self, capfd):
        name = "analytic vs finite-difference gradients"
        t0 = time.perf_counter()
        checks = 0
        worst = 0.0
        for loss in LOSS_CONFIGS:
            for seed in range(10):
                got = _check_one(loss, seed)
                if got is None:
                    # hinge margin too close to the kink; resample once
                    got = _check_one(loss, seed + 1000)
                if got is None:
                    continue
                checks += 1
                worst = max(worst, got)
        elapsed = time.perf_counter() - t0
        _finish(
            capfd,
            name,
            checks >= 50 and worst < 1e-4 and elapsed < 60.0,
            f"{checks} network/loss/seed checks (7 losses, 10 seeds, batch "
            f"statistics), worst rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s "
            f"(limit 60s)",
        )


class TestTransportLossProperties:
    def test_wm_properties_and_pinned_values(self, capfd):
        name = "transport loss properties and pinned values"
        rng = np.random.default_rng(20260819)
        ok = True
        notes = []

        def dirac(idx, nbins):
            pmf = np.zeros(nbins)
            pmf[idx] = 1.0
            return pmf

        def wm(pmf, target_cdf, w, l=1.5):
            # one record's loss: a batch of one
            return wm_batch_with_grad(np.asarray([pmf]), np.asarray([target_cdf]), w, l=l)[0]

        for _ in range(50):
            nbins = int(rng.integers(2, 8))
            a = rng.dirichlet(np.ones(nbins))
            b = rng.dirichlet(np.ones(nbins))
            w = rng.dirichlet(np.ones(nbins))
            ok = ok and wm(a, np.cumsum(b), w) >= 0.0
            ok = ok and wm(a, np.cumsum(b), w) == wm(b, np.cumsum(a), w)
            ok = ok and wm(a, np.cumsum(a), w) == 0.0
        if not ok:
            notes.append("nonneg/symmetry/identity violated")

        # differences hidden by zero-weight bins cost nothing; differences on
        # positively weighted bins always cost something
        w0 = np.asarray([0.5, 0.5, 0.0])
        a = np.asarray([0.0, 0.5, 0.5])
        tail = np.asarray([0.0, 0.5, 1.0 - 1e-9])
        mid = np.asarray([0.0, 1.0, 1.0])
        zero_iff = wm(a, tail, w0) == 0.0 and wm(a, mid, w0) > 0.0
        if not zero_iff:
            ok = False
            notes.append("zero-iff-equal-on-weighted-bins violated")

        pinned = 0.0
        for l in (1.0, 1.5, 2.0, 3.7):
            got = wm(dirac(0, 3), np.cumsum(dirac(2, 3)), np.full(3, 1.0 / 3.0), l=l)
            pinned = max(pinned, abs(got - 2.0 / 3.0))
        got = wm(
            dirac(0, 3),
            np.cumsum(dirac(2, 3)),
            np.asarray([0.5, 1.0 / 3.0, 1.0 / 6.0]),
            l=1.5,
        )
        pinned = max(pinned, abs(got - 5.0 / 6.0))
        if pinned > 1e-12:
            ok = False
            notes.append(f"pinned-value err {pinned:.2e}")

        _finish(
            capfd,
            name,
            ok,
            "; ".join(notes)
            or f"50 random pairs + pinned 2/3 and 5/6 cases, max err {pinned:.2e} (tol 1e-12)",
        )


class TestSyntheticLearnability:
    def test_every_loss_learns_and_censoring_helps(self, capfd):
        name = "synthetic learnability and censoring ordering"
        t0 = time.perf_counter()
        data = generate_synthetic(5000, 150, 0.3, 1.0 / 256.0, seed=61)
        tr, va, te = cv_splits(len(data), 2, 0.2, 61)[0]
        train, val, test = data.subset(tr), data.subset(va), data.subset(te)
        test_pairs = acceptable_pairs(test)

        per_loss = {}
        for loss in LOSS_CONFIGS:
            run = TrainRun(loss=loss, learning_rate=1e-3, l2=1e-4, seed=61)
            net, _ = train_model(run, train, val)
            scores = predict_scores(run, net, test.features)
            per_loss[loss] = c_index_from_pairs(test_pairs, scores)
        weakest = min(per_loss, key=per_loss.get)

        ablation = censoring_ablation(
            data,
            losses=("wm", "rank-sigmoid", "cox-efron"),
            modes=("with_censored", "no_censored"),
            k=2,
            grid=[(1e-3, 1e-4)],
            seed=61,
            template=TrainRun(loss="wm", seed=61),
        )
        deltas = {}
        for loss in ("wm", "rank-sigmoid", "cox-efron"):
            with_c = ablation.cell(loss, "with_censored").report.mean_test_c_index
            no_c = ablation.cell(loss, "no_censored").report.mean_test_c_index
            deltas[loss] = with_c - no_c
        elapsed = time.perf_counter() - t0

        ok = all(c > 0.9 for c in per_loss.values()) and all(
            d >= 0.0 for d in deltas.values()
        )
        _finish(
            capfd,
            name,
            ok,
            f"all 7 losses test C > 0.9 (weakest {weakest} "
            f"{per_loss[weakest]:.4f}); keeping censored rows helps all three "
            f"families (deltas "
            + ", ".join(f"{k} {v:+.4f}" for k, v in deltas.items())
            + f"); {elapsed:.0f}s",
        )


def _load_table(csv_name, schema_name):
    schema = load_schema(DATA_DIR / schema_name)
    return load_csv(DATA_DIR / csv_name, schema)


class TestSupport2Reproduction:
    def test_support2_five_fold(self, capfd):
        name = "SUPPORT2 5-fold reproduction"
        csv = DATA_DIR / "support2.csv"
        if not (REPRO and csv.exists()):
            _skip(
                capfd,
                name,
                "needs data/support2.csv (see README) and CENSRANK_REPRO=1; "
                "runs ~2h on a desktop CPU",
            )
        t0 = time.perf_counter()
        table = _load_table("support2.csv", "support2.schema.json")
        n, censored = len(table), int(np.sum(~table.observed))
        # anything else means the wrong file is in place
        assert (n, censored) == (9105, 2904), (
            f"data/support2.csv has {n} rows / {censored} censored, "
            "expected 9105 / 2904"
        )

        targets = {"cox": 84.90, "rank-sigmoid": 85.53, "wm": 85.33}
        ablation = censoring_ablation(
            table, k=5, seed=0, bin_width=1.0, n_jobs=JOBS
        )
        means = {
            "cox": 100.0
            * run_cv(table, "cox", k=5, seed=0, bin_width=1.0, n_jobs=JOBS).mean_test_c_index,
            "rank-sigmoid": 100.0
            * ablation.cell("rank-sigmoid", "with_censored").report.mean_test_c_index,
            "wm": 100.0
            * ablation.cell("wm", "with_censored").report.mean_test_c_index,
        }
        within = {k: abs(means[k] - targets[k]) <= 2.0 for k in targets}

        ordered = {}
        for loss in ("wm", "rank-sigmoid", "cox-efron"):
            w = ablation.cell(loss, "with_censored").report.mean_test_c_index
            no = ablation.cell(loss, "no_censored").report.mean_test_c_index
            death = ablation.cell(loss, "death_at_censoring").report.mean_test_c_index
            ordered[loss] = w > no > death
        elapsed = time.perf_counter() - t0

        detail = (
            ", ".join(
                f"{k} {means[k]:.2f} vs {targets[k]:.2f} "
                f"({'within' if within[k] else 'outside'} +/-2.0)"
                for k in targets
            )
            + "; censoring ordering with>none>death "
            + ", ".join(f"{k}={'ok' if v else 'violated'}" for k, v in ordered.items())
            + f"; {elapsed / 3600.0:.2f}h"
        )
        _finish(capfd, name, all(within.values()) and all(ordered.values()), detail)


class TestSmallDatasetReproduction:
    def test_aids3_and_colon_best_effort(self, capfd):
        name = "AIDS3/COLON best-effort reproduction"
        jobs = [
            ("aids3", "wm", 1.0, 1.0, 56.03, 3985),
            ("colon", "cox", 2.0, 10.0, 64.66, 929),
        ]
        if not REPRO:
            _skip(capfd, name, "set CENSRANK_REPRO=1 (non-blocking, reported only)")
        parts = []
        for stem, loss, bin_width, smoothing, target, expect_n in jobs:
            csv = DATA_DIR / f"{stem}.csv"
            if not csv.exists():
                parts.append(f"{stem}: no data/{stem}.csv, skipped")
                continue
            table = _load_table(f"{stem}.csv", f"{stem}.schema.json")
            note = "" if len(table) == expect_n else (
                f" [file has {len(table)} rows, reference tabulation {expect_n}]"
            )
            report = run_cv(
                table,
                loss,
                k=5,
                seed=0,
                bin_width=bin_width,
                template=TrainRun(loss=loss, wm_smoothing=smoothing, seed=0),
                n_jobs=JOBS,
            )
            got = 100.0 * report.mean_test_c_index
            verdict = "within" if abs(got - target) <= 2.0 else "outside"
            parts.append(f"{stem} {loss} {got:.2f} vs {target:.2f} ({verdict} +/-2.0){note}")
        if not parts:
            _skip(capfd, name, "neither data/aids3.csv nor data/colon.csv present")
        # reported, never build-blocking
        _finish(capfd, name, True, "; ".join(parts) + " [non-blocking]")


class TestReportDeterminism:
    def test_cv_reports_byte_identical(self, capfd, tmp_path):
        name = "same-seed cv runs byte-identical"

        def run(argv):
            cmd, env = cli_launch(argv)
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=tmp_path, env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        run(
            [
                "synth", "--n", "300", "--num-features", "4",
                "--censor-fraction", "0.3", "--tie-density", "0.05",
                "--seed", "9", "--out", str(tmp_path / "toy"),
            ]
        )
        (tmp_path / "grid.json").write_text(
            json.dumps({"learning_rate": [1e-2, 1e-3], "l2": [0.0001]})
        )
        cv = [
            "cv", "--dataset", str(tmp_path / "toy.csv"),
            "--schema", str(tmp_path / "toy.schema.json"),
            "--loss", "rank-sigmoid", "--bin-width", "2", "--k", "2",
            "--seed", "17", "--grid", str(tmp_path / "grid.json"),
            "--hidden-dims", "16", "--dropout", "0.0", "--batch-size", "64",
            "--epochs", "8", "--patience", "3",
        ]
        out_a = run(cv + ["--out", str(tmp_path / "a.csv")])
        out_b = run(cv + ["--out", str(tmp_path / "b.csv")])
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        # stdout echoes the --out path, which differs by construction
        summary_a = {k: v for k, v in json.loads(out_a).items() if k != "out"}
        summary_b = {k: v for k, v in json.loads(out_b).items() if k != "out"}
        _finish(
            capfd,
            name,
            a == b and len(a) > 0 and summary_a == summary_b,
            f"two cv runs, master seed 17: {len(a)}-byte reports "
            f"{'identical' if a == b else 'DIFFER'}, summaries "
            f"{'identical' if summary_a == summary_b else 'DIFFER'}",
        )
