"""Tests of the benchmark's own parts: the table generator, the exact
C-index count, the output checks on a second seed, and the tracer.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "data", "support2.schema.json")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import tablegen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from censrank import cli, harness, metrics, pipeline  # noqa: E402
from censrank.core import build_time_grid  # noqa: E402


def _brute_force_c_index(times, observed, scores):
    pairs = concordant = tied = 0
    for i in range(len(times)):
        if not observed[i]:
            continue
        for j in range(len(times)):
            if times[j] > times[i]:
                pairs += 1
                concordant += scores[i] < scores[j]
                tied += scores[i] == scores[j]
    return (2 * concordant + tied) / (2 * pairs)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    paths, scores_c = tablegen.write_inputs(str(tmp_path_factory.mktemp("t")), 0, SCHEMA)
    return paths, scores_c, pipeline.load_csv(paths["dataset"], pipeline.load_schema(SCHEMA))


def test_table_has_support2_shape(table):
    paths, _, raw = table
    assert len(raw) == tablegen.N_ROWS == 9105
    assert int(np.count_nonzero(~raw.observed)) == tablegen.N_CENSORED == 2904
    assert build_time_grid(raw.times, 1.0).num_bins == tablegen.MAX_DAY + 1 == 2030
    assert np.all(raw.times == np.round(raw.times))
    assert pipeline.preprocess(raw).features.shape == (9105, tablegen.ENCODED_FEATURES)
    assert any("NA" in cells for cells in raw.columns.values())


def test_same_seed_same_bytes(tmp_path):
    digests = []
    for sub in ("a", "b"):
        paths, _ = tablegen.write_inputs(str(tmp_path / sub), 3, SCHEMA)
        with open(paths["dataset"], "rb") as fh:
            digests.append(fh.read())
    assert digests[0] == digests[1]


def test_exact_c_index_equals_brute_force():
    rng = np.random.default_rng(0)
    for n in (2, 5, 40, 200):
        times = rng.integers(0, 15, size=n).astype(np.float64)
        observed = rng.random(n) < 0.6
        observed[0] = True
        times[1] = times[0] + 1  # at least one acceptable pair
        scores = rng.integers(0, 6, size=n).astype(np.float64)  # many ties
        assert tablegen.exact_c_index(times, observed, scores) == _brute_force_c_index(
            times, observed, scores
        )


def test_scores_c_index_matches_the_program(table):
    paths, scores_c, raw = table
    scores = np.loadtxt(paths["scores"], skiprows=1)
    assert metrics.c_index_from_pairs(metrics.acceptable_pairs(raw), scores) == scores_c


@pytest.mark.parametrize("name", workloads.NAMES)
def test_second_seed_passes_every_check(name, tmp_path):
    seed = 7
    paths, scores_c = tablegen.write_inputs(str(tmp_path), seed, SCHEMA)
    paths["checkpoint"] = str(tmp_path / "model.ckpt")
    setup, cycle = workloads.commands(name, paths, seed, str(tmp_path))
    for argv in setup:
        assert cli.main(argv) == 0
    first = {}
    for _ in range(2 if name == "evaluate-full" else 1):
        for label, argv, report in cycle:
            record = worker._run_command(cli, label, argv, report)
            record["cycle"] = 0
            assert workloads.check(record, first.get(label), scores_c) is None, record
            first.setdefault(label, record)


def test_work_counts_follow_the_splits():
    rows = workloads.rows_per_command("wm-cv", 0, harness.cv_splits)
    n_train = sum(len(tr) for tr, _, _ in harness.cv_splits(9105, 5, 0.2, 0))
    assert rows == n_train * workloads.GRID_POINTS * workloads.WM_EPOCHS
    assert workloads.rows_per_command("evaluate-full", 0, harness.cv_splits) == 9105


def test_checks_reject_wrong_outputs():
    record = {"label": "evaluate-scores", "rc": 0, "error": None, "stderr": "", "cycle": 0,
              "stdout": json.dumps({"c_index": 0.7, "n": 9105}) + "\n"}
    assert workloads.check(record, None, 0.7) is None
    assert workloads.check(record, None, 0.7000000000000001) is not None
    assert workloads.check(dict(record, rc=2), None, 0.7) is not None
    assert workloads.check(dict(record, stdout=""), None, 0.7) is not None


def _tiny_cv(tmp_path, loss):
    prefix = str(tmp_path / "toy")
    assert cli.main(["synth", "--n", "120", "--num-features", "4", "--seed", "1",
                     "--out", prefix]) == 0
    return cli.main(["cv", "--dataset", prefix + ".csv", "--schema", prefix + ".schema.json",
                     "--loss", loss, "--bin-width", "5", "--k", "2", "--epochs", "1",
                     "--patience", "1", "--hidden-dims", "8", "--out",
                     str(tmp_path / "r.csv")])


def test_tracer_spans_nest_and_uninstall_restores(tmp_path, capsys):
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("censrank")}
    original = cli.acceptable_pairs
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert cli.acceptable_pairs is harness.acceptable_pairs is metrics.acceptable_pairs
        assert cli.acceptable_pairs is not original
        _tiny_cv(tmp_path, "rank-sigmoid")
    finally:
        t.uninstall()
    capsys.readouterr()
    assert cli.acceptable_pairs is original and metrics.acceptable_pairs is original
    layers = t.layer_metrics()
    assert layers["harness.run_cv.busy_s"] > layers["harness.run_cv.self_s"] >= 0
    assert layers["metrics.batch_pairs.calls"] > 0
    assert layers["neural.forward_train.rows"] > 0
    assert layers["harness.train_model.epochs"] == 2 * 12  # 2 folds x 12 default grid points
    names = {span[0] for span in t.spans}
    assert {"pipeline.load_csv", "harness.run_cv", "neural.backward"} <= names
    assert not t.peaks


def test_memory_pass_records_peaks_not_spans(tmp_path, capsys):
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("censrank")}
    t = tracer.Tracer()
    t.install(modules, spans=False)
    try:
        _tiny_cv(tmp_path, "wm")
    finally:
        t.uninstall()
    capsys.readouterr()
    assert not t.spans
    assert set(t.peaks) == {"pipeline.preprocess", "estimators.target_cdf_matrix",
                            "metrics.acceptable_pairs"}
    assert all(peak > 0 for peak in t.peaks.values())


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["censrank.estimators"], "kaplan_meier")
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("censrank")}
    t = tracer.Tracer()
    t.install(modules)
    t.uninstall()
    assert t.missing == ["estimators.kaplan_meier"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in doc["per_layer"]] == list(tracer.PER_LAYER) + ["trace.overhead_frac"]
    for metric in doc["per_layer"][:-1]:
        assert metric["unit"] == tracer.UNITS[metric["name"].rsplit(".", 1)[1]]


def test_unreadable_count_is_reported_absent():
    t = tracer.Tracer()

    def broken_count(args, kwargs, result):
        return {"rows": result.shape[0]}  # an int has no shape

    wrapped = t._wrap("pipeline.load_csv", lambda: 3, broken_count)
    assert wrapped() == 3
    assert t.uncounted == {"pipeline.load_csv"}
    assert "pipeline.load_csv.rows" not in t.layer_metrics()
    assert t.layer_metrics()["pipeline.load_csv.calls"] == 1
