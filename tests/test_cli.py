"""End-to-end command-line runs, in-process via main(argv)."""

import json
import re
import subprocess
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import cli_launch
from censrank import cli, harness, pipeline
from censrank.cli import load_grid, main
from censrank.core import Dataset, build_time_grid
from censrank.estimators import kaplan_meier
from censrank.neural import Network, load_checkpoint, save_checkpoint

# knobs that keep every training command in this file under a second
KNOBS = [
    "--hidden-dims", "8", "--dropout", "0.0", "--batch-size", "32",
    "--epochs", "6", "--patience", "3",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    err = captured.err.strip()
    return code, lines, (json.loads(err) if err else None)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    # one shared synthetic CSV + schema for the whole module
    root = tmp_path_factory.mktemp("cli")
    prefix = root / "toy"
    code = main([
        "synth", "--n", "120", "--num-features", "4", "--censor-fraction", "0.3",
        "--tie-density", "0.05", "--seed", "5", "--out", str(prefix),
    ])
    assert code == 0
    grid_file = root / "grid.json"
    grid_file.write_text(json.dumps({"learning_rate": [0.01], "l2": [0.0001]}))
    return {
        "root": root,
        "csv": str(prefix) + ".csv",
        "schema": str(prefix) + ".schema.json",
        "grid": str(grid_file),
    }


def data_args(toy):
    return ["--dataset", toy["csv"], "--schema", toy["schema"]]


class TestSynth:
    def test_writes_csv_plus_schema_and_reports_shape(self, capsys, tmp_path):
        code, lines, _ = run_cli(capsys, [
            "synth", "--n", "80", "--num-features", "3", "--censor-fraction", "0.25",
            "--tie-density", "0.05", "--seed", "1", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        payload = lines[-1]
        assert payload["n"] == 80
        assert 0.0 <= payload["censored_fraction"] <= 1.0

        schema = pipeline.load_schema(payload["schema"])
        table = pipeline.load_csv(payload["csv"], schema)
        assert len(table) == 80
        assert abs(float(np.mean(~table.observed)) - payload["censored_fraction"]) < 1e-12


class TestKm:
    def test_csv_curve_matches_the_estimator(self, capsys, toy, tmp_path):
        out = tmp_path / "km.csv"
        code, _, _ = run_cli(capsys, [
            "km", *data_args(toy), "--bin-width", "5", "--out", str(out),
        ])
        assert code == 0

        schema = pipeline.load_schema(toy["schema"])
        table = pipeline.load_csv(toy["csv"], schema)
        grid = build_time_grid(table.times, 5.0)
        km = kaplan_meier(Dataset(np.empty((len(table), 0)), table.times, table.observed, grid))

        lines = out.read_text().splitlines()
        assert lines[0] == "bin,left_edge,events,at_risk,survival"
        assert len(lines) == 1 + km.grid.num_bins
        got = [float(line.split(",")[4]) for line in lines[1:]]
        assert np.array_equal(np.array(got), km.survival)

    def test_json_curve_goes_to_stdout_without_out(self, capsys, toy):
        code = main(["km", *data_args(toy), "--bin-width", "5", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bin_width"] == 5.0
        assert doc["bins"][0]["at_risk"] == 120
        survival = [b["survival"] for b in doc["bins"]]
        assert all(0.0 <= s <= 1.0 for s in survival)
        assert survival == sorted(survival, reverse=True)


    @pytest.mark.parametrize("width", ["1e-320", "1e-300"])
    def test_a_width_too_small_for_the_grid_is_a_json_error(self, capsys, toy, width):
        code, err = _error_line(capsys, ["km", *data_args(toy), "--bin-width", width])
        assert code == 2
        assert err == {"error": "ValueError",
                       "message": f"bin_width {width} is too small to count the grid's bins"}

    def test_reads_only_times_and_events(self, capsys, tmp_path):
        # an unparseable feature cell cannot matter to Kaplan-Meier
        schema = tmp_path / "km.schema.json"
        schema.write_text(json.dumps(
            {"columns": {"time": "time", "event": "event_indicator", "age": "continuous"}}
        ))
        curves = []
        for age in ("bad", "40"):
            table = tmp_path / f"km-{age}.csv"
            table.write_text(f"time,event,age\n1,1,{age}\n3,0,50\n4,1,60\n")
            out = tmp_path / f"km-{age}.out.csv"
            code, _, err = run_cli(capsys, [
                "km", "--dataset", str(table), "--schema", str(schema),
                "--bin-width", "1", "--out", str(out),
            ])
            assert code == 0, err
            curves.append(out.read_bytes())
        assert curves[0] == curves[1]
        assert curves[0].count(b"\n") == 1 + 5

    def test_bytes_of_a_three_row_curve(self, capsys, tmp_path):
        # width 1.5: the event at t=1 is bin 0; t=3 (censored) and t=4 share bin 2
        schema = tmp_path / "km.schema.json"
        schema.write_text(json.dumps({"columns": {"time": "time", "event": "event_indicator"}}))
        table = tmp_path / "km.csv"
        table.write_text("time,event\n1,1\n3,0\n4,1\n")
        argv = ["km", "--dataset", str(table), "--schema", str(schema), "--bin-width", "1.5"]
        expected_csv = (
            "bin,left_edge,events,at_risk,survival\n"
            "0,0.0,1,3,0.6666666666666666\n"
            "1,1.5,0,2,0.6666666666666666\n"
            "2,3.0,1,2,0.3333333333333333\n"
        )
        rows = [(0, "0.0", 1, 3, "0.6666666666666666"), (1, "1.5", 0, 2, "0.6666666666666666"),
                (2, "3.0", 1, 2, "0.3333333333333333")]
        expected_json = '{\n  "bin_width": 1.5,\n  "bins": [\n' + ",\n".join(
            f'    {{\n      "bin": {b},\n      "left_edge": {edge},\n      "events": {d},\n'
            f'      "at_risk": {n},\n      "survival": {surv}\n    }}'
            for b, edge, d, n, surv in rows
        ) + "\n  ]\n}\n"
        for fmt, expected in (("csv", expected_csv), ("json", expected_json)):
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == expected
            out = tmp_path / f"km.out.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
            assert out.read_bytes() == expected.encode("utf-8")


@pytest.fixture(scope="module")
def checkpoint(toy, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    code = main([
        "train", *data_args(toy), "--loss", "rank-sigmoid", "--bin-width", "5",
        "--learning-rate", "0.01", "--l2", "0.0001", "--seed", "3", *KNOBS,
        "--checkpoint", str(path),
    ])
    assert code == 0
    return str(path)


class TestTrainEvaluate:
    def test_train_reports_epochs_and_test_concordance(self, capsys, toy, tmp_path):
        code, lines, _ = run_cli(capsys, [
            "train", *data_args(toy), "--loss", "cox-efron", "--bin-width", "5",
            "--learning-rate", "0.01", "--seed", "3", *KNOBS,
            "--checkpoint", str(tmp_path / "cox.bin"),
        ])
        assert code == 0
        payload = lines[-1]
        assert 1 <= payload["best_epoch"] <= payload["stopped_epoch"] <= 6
        assert 0.5 < payload["val_c_index"] <= 1.0
        assert 0.0 < payload["test_c_index"] <= 1.0
        assert (tmp_path / "cox.bin").exists()
        assert (tmp_path / "cox.bin.meta.json").exists()

    def test_evaluate_checkpoint_on_the_full_dataset(self, capsys, toy, checkpoint, tmp_path):
        out = tmp_path / "eval.json"
        code, lines, _ = run_cli(capsys, [
            "evaluate", *data_args(toy), "--checkpoint", checkpoint, "--out", str(out),
        ])
        assert code == 0
        payload = lines[-1]
        assert payload["n"] == 120
        assert 0.5 < payload["c_index"] <= 1.0
        assert json.loads(out.read_text()) == payload

    def test_evaluate_checkpoint_does_not_import_numpy_random(self, toy, checkpoint):
        # a loaded network draws no initialization, so nothing needs a generator
        argv = ["evaluate", *data_args(toy), "--checkpoint", checkpoint]
        cmd, env = cli_launch(argv)
        script = ("import sys\nfrom censrank.cli import main\n"
                  f"code = main({argv!r})\nprint(code, 'numpy.random' in sys.modules)")
        proc = subprocess.run([cmd[0], "-c", script], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_evaluate_scores_file_with_perfect_ranking(self, capsys, toy, tmp_path):
        schema = pipeline.load_schema(toy["schema"])
        table = pipeline.load_csv(toy["csv"], schema)
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n" + "\n".join(repr(float(t)) for t in table.times) + "\n")

        code, lines, _ = run_cli(capsys, [
            "evaluate", *data_args(toy), "--scores", str(scores),
        ])
        assert code == 0
        # scores equal to the true times rank every acceptable pair correctly
        assert lines[-1]["c_index"] == 1.0
        assert lines[-1]["censored_fraction"] == float(np.mean(~table.observed))

    def test_evaluate_needs_exactly_one_source(self, capsys, toy, checkpoint, tmp_path):
        code, _, err = run_cli(capsys, ["evaluate", *data_args(toy)])
        assert code == 2 and "exactly one" in err["message"]

        scores = tmp_path / "s.csv"
        scores.write_text("1.0\n")
        code, _, err = run_cli(capsys, [
            "evaluate", *data_args(toy), "--checkpoint", checkpoint, "--scores", str(scores),
        ])
        assert code == 2 and err["error"] == "ValueError"

    def test_evaluate_rejects_mismatched_score_count(self, capsys, toy, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1.0\n2.0\n")
        code, _, err = run_cli(capsys, [
            "evaluate", *data_args(toy), "--scores", str(scores),
        ])
        assert code == 2
        assert err["error"] == "ValueError" and "120" in err["message"]

    def test_evaluate_names_the_line_of_an_unparseable_score(self, capsys, toy, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1.0\n\nx\n")
        code, _, err = run_cli(capsys, ["evaluate", *data_args(toy), "--scores", str(scores)])
        assert code == 2
        assert err == {"error": "ValueError",
                       "message": f"{scores}: line 4: bad score 'x'"}

    def test_evaluate_rejects_a_differently_encoded_dataset(self, capsys, toy, checkpoint):
        meta_path = checkpoint + ".meta.json"
        meta = json.loads(open(meta_path).read())
        broken = dict(meta, feature_names=meta["feature_names"][:-1])
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(broken, fh)
        try:
            code, _, err = run_cli(capsys, [
                "evaluate", *data_args(toy), "--checkpoint", checkpoint,
            ])
            assert code == 2 and "encode differently" in err["message"]
        finally:
            with open(meta_path, "w", encoding="utf-8") as fh:
                json.dump(meta, fh)


def _sidecar_copy(checkpoint, tmp_path):
    """A copy of the checkpoint and its parsed sidecar, for damaging."""
    path = tmp_path / "model.bin"
    path.write_bytes(open(checkpoint, "rb").read())
    return str(path), json.loads(open(checkpoint + ".meta.json", encoding="utf-8").read())


@pytest.mark.parametrize("key", [
    "loss", "wm_score", "feature_names", "stats",
    "stats.continuous", "stats.categorical", "stats.has_missing",
])
def test_evaluate_names_a_missing_sidecar_key(capsys, toy, checkpoint, tmp_path, key):
    path, meta = _sidecar_copy(checkpoint, tmp_path)
    *parents, last = key.split(".")
    doc = meta
    for part in parents:
        doc = doc[part]
    del doc[last]
    (tmp_path / "model.bin.meta.json").write_text(json.dumps(meta))
    code = main(["evaluate", *data_args(toy), "--checkpoint", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "ValueError" and repr(last) in err["message"]


@pytest.mark.parametrize("section, value, shown", [
    ("continuous", [0.0], "continuous.f0"),
    ("continuous", "01", "continuous.f0"),
    ("categorical", "abc", "categorical.grp"),
    ("has_missing", "yes", "has_missing.f0"),
])
def test_evaluate_names_a_malformed_stats_key(capsys, toy, checkpoint, tmp_path,
                                               section, value, shown):
    path, meta = _sidecar_copy(checkpoint, tmp_path)
    meta["stats"][section]["grp" if section == "categorical" else "f0"] = value
    (tmp_path / "model.bin.meta.json").write_text(json.dumps(meta))
    code, _, err = run_cli(capsys, ["evaluate", *data_args(toy), "--checkpoint", path])
    assert code == 2
    assert err["error"] == "ValueError" and shown in err["message"]


def test_evaluate_scores_never_parses_feature_columns(capsys, toy, tmp_path, monkeypatch):
    # the loader parses a cell with the float its module sees: only the 120
    # time cells may pass through it, and the loaded table holds no column
    load_csv, parsed, tables = pipeline.load_csv, [], []

    def parsing(value):
        parsed.append(value)
        return float(value)

    def loading(*args, **kwargs):
        tables.append(load_csv(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(pipeline, "float", parsing, raising=False)
    monkeypatch.setattr(pipeline, "load_csv", loading)
    scores = tmp_path / "s.csv"
    scores.write_text("".join(f"{k}\n" for k in range(120)))
    code, lines, _ = run_cli(capsys, ["evaluate", *data_args(toy), "--scores", str(scores)])
    assert code == 0 and lines[-1]["n"] == 120
    assert len(parsed) == 120 and [table.columns for table in tables] == [{}]


def test_evaluate_releases_the_loaded_table_before_scoring(capsys, toy, checkpoint, monkeypatch):
    load_csv, predict_scores, loaded, alive = pipeline.load_csv, harness.predict_scores, [], []

    def loading(*args, **kwargs):
        table = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(table))
        return table

    def scoring(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return predict_scores(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_csv", loading)
    monkeypatch.setattr(harness, "predict_scores", scoring)
    code, _, _ = run_cli(capsys, ["evaluate", *data_args(toy), "--checkpoint", checkpoint])
    assert code == 0 and len(loaded) == 1 and alive == [False]


def test_train_releases_the_loaded_table_before_training(capsys, toy, tmp_path, monkeypatch):
    load_csv, train_model, loaded, alive = pipeline.load_csv, harness.train_model, [], []

    def loading(*args, **kwargs):
        table = load_csv(*args, **kwargs)
        loaded.append(weakref.ref(table))
        return table

    def training(*args, **kwargs):
        alive.append(loaded[0]() is not None)
        return train_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_csv", loading)
    monkeypatch.setattr(harness, "train_model", training)
    code, _, _ = run_cli(capsys, ["train", *data_args(toy), "--loss", "wm", "--bin-width", "5",
                                  "--seed", "3", *KNOBS, "--checkpoint", str(tmp_path / "m.bin")])
    assert code == 0 and len(loaded) == 1 and alive == [False]


def test_only_commands_that_encode_features_reject_an_unparseable_cell(capsys, toy, checkpoint,
                                                                      tmp_path):
    lines = open(toy["csv"], encoding="utf-8").read().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index("f1")] = "oops"
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    scores = tmp_path / "s.csv"
    scores.write_text("".join(f"{k}\n" for k in range(120)))
    data = ["--dataset", str(bad), "--schema", toy["schema"]]
    for argv in (["km", *data, "--bin-width", "5"], ["evaluate", *data, "--scores", str(scores)]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for argv in (["cv", *data, "--loss", "cox", "--bin-width", "5", "--k", "2", *KNOBS,
                  "--grid", toy["grid"], "--out", str(tmp_path / "r.csv")],
                 ["evaluate", *data, "--checkpoint", checkpoint]):
        code, err = _error_line(capsys, argv)
        assert code == 2 and err == {"error": "CsvParseError", "message":
                                     f"{bad}: column 'f1': unparseable numeric value 'oops'"}


def _error_line(capsys, argv):
    """Exit code and the one JSON error line of a failing command."""
    code = main(argv)
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    return code, json.loads(line)


def test_train_rejects_a_zero_width_hidden_layer(capsys, toy, tmp_path):
    code, err = _error_line(capsys, [
        "train", *data_args(toy), "--loss", "cox", "--bin-width", "5",
        *KNOBS, "--hidden-dims", "8,0", "--checkpoint", str(tmp_path / "m.bin"),
    ])
    assert code == 2
    assert err["error"] == "ValueError" and "width in hidden_dims must be an integer >= 1" in err["message"]
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("option, named", [
    ("--learning-rate", "learning_rate"), ("--l2", "l2_coefficient"),
])
def test_train_rejects_an_infinite_rate_or_penalty(capsys, toy, tmp_path, monkeypatch, option,
                                                   named):
    encoded = []
    monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
    code, err = _error_line(capsys, [
        "train", *data_args(toy), "--loss", "wm", "--bin-width", "5", *KNOBS, option, "inf",
        "--checkpoint", str(tmp_path / "m.bin"),
    ])
    assert code == 2
    assert err["error"] == "ValueError" and named in err["message"]
    assert not (tmp_path / "m.bin").exists()
    assert encoded == []  # rejected before the fold is encoded


def _with_config(checkpoint, tmp_path, edit):
    """A copy of the checkpoint (and its sidecar) whose header config
    `edit` has changed."""
    raw = open(checkpoint, "rb").read()
    header_len = int.from_bytes(raw[12:16], "little")
    header = json.loads(raw[16 : 16 + header_len])
    edit(header["config"])
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    path = tmp_path / "model.bin"
    path.write_bytes(raw[:12] + len(body).to_bytes(4, "little") + body + raw[16 + header_len :])
    (tmp_path / "model.bin.meta.json").write_bytes(open(checkpoint + ".meta.json", "rb").read())
    return str(path)


@pytest.mark.parametrize("edit, named", [
    (lambda cfg: cfg.pop("hidden_dims"), "missing ['hidden_dims']"),
    (lambda cfg: cfg.update(momentum=0.9), "unknown ['momentum']"),
    (lambda cfg: cfg.update(input_dim=0), "input_dim must be an integer >= 1, got 0"),
    (lambda cfg: cfg.update(hidden_dims=5), "hidden_dims must be a list or tuple"),
    (lambda cfg: cfg.update(dropout_rate="0.5"), "dropout_rate must be a real number"),
    (lambda cfg: cfg.update(seed="x"), "seed must be an integer"),
    (lambda cfg: cfg.update(num_outputs=1.0), "num_outputs must be an integer"),
])
def test_evaluate_names_a_damaged_checkpoint_config(capsys, toy, checkpoint, tmp_path,
                                                    edit, named):
    path = _with_config(checkpoint, tmp_path, edit)
    code, err = _error_line(capsys, ["evaluate", *data_args(toy), "--checkpoint", path])
    assert code == 2
    assert err["error"] == "ValueError" and named in err["message"]


def test_evaluate_names_a_non_finite_checkpoint_array(capsys, toy, tmp_path):
    # scored by the median bin, an all-NaN pmf row once read as bin 0, so
    # this checkpoint evaluated to C = 0.5 with exit 0
    path = str(tmp_path / "wm.bin")
    assert main(["train", *data_args(toy), "--loss", "wm", "--bin-width", "5",
                 "--seed", "3", *KNOBS, "--checkpoint", path]) == 0
    capsys.readouterr()
    net = load_checkpoint(path)
    net.params["W_out"][:] = np.nan
    save_checkpoint(net, path)
    meta = json.loads(open(path + ".meta.json", encoding="utf-8").read())
    (tmp_path / "wm.bin.meta.json").write_text(json.dumps({**meta, "wm_score": "median"}))
    code, err = _error_line(capsys, ["evaluate", *data_args(toy), "--checkpoint", path])
    assert code == 2
    assert err["error"] == "ValueError" and "'W_out'" in err["message"]


@pytest.mark.parametrize("loss, sidecar, head", [
    ("cox", "wm", "scalar_linear"),
    ("wm", "cox", "softmax"),
])
def test_evaluate_rejects_a_sidecar_loss_of_another_head(capsys, toy, tmp_path, loss, sidecar,
                                                         head):
    path = str(tmp_path / "model.bin")
    assert main(["train", *data_args(toy), "--loss", loss, "--bin-width", "5",
                 "--seed", "3", *KNOBS, "--checkpoint", path]) == 0
    capsys.readouterr()
    meta = json.loads(open(path + ".meta.json", encoding="utf-8").read())
    (tmp_path / "model.bin.meta.json").write_text(json.dumps({**meta, "loss": sidecar}))
    code, err = _error_line(capsys, ["evaluate", *data_args(toy), "--checkpoint", path])
    assert code == 2
    assert err["error"] == "ValueError"
    assert f"loss {sidecar!r}" in err["message"] and f"has a {head!r} head" in err["message"]


def test_no_eval_forward_holds_more_than_the_scoring_budget(capsys, toy, tmp_path,
                                                            monkeypatch):
    table = pipeline.load_csv(toy["csv"], pipeline.load_schema(toy["schema"]))
    bins = build_time_grid(table.times, 5).num_bins
    budget = 8 * bins * 5  # five pmf rows per scoring forward
    monkeypatch.setattr(harness, "_SCORE_BLOCK_BYTES", budget)
    held = []
    forward = Network.forward

    def spy(self, batch, train, *args, **kwargs):
        out = forward(self, batch, train, *args, **kwargs)
        if not train:
            held[-1][1].append(out.nbytes)
        return out

    monkeypatch.setattr(Network, "forward", spy)
    path = str(tmp_path / "wm.bin")
    commands = {
        "train": ["train", *data_args(toy), "--loss", "wm", "--bin-width", "5",
                  "--seed", "3", *KNOBS, "--checkpoint", path],
        "evaluate": ["evaluate", *data_args(toy), "--checkpoint", path],
        "cv": ["cv", *data_args(toy), "--loss", "wm", "--bin-width", "5", "--k", "2",
               "--grid", toy["grid"], *KNOBS, "--out", str(tmp_path / "r.csv")],
    }
    for name, argv in commands.items():
        held.append((name, []))
        assert main(argv) == 0, name
    capsys.readouterr()
    assert 8 * bins * len(table) > budget
    for name, sizes in held:
        assert sizes and max(sizes) <= budget, (name, max(sizes, default=None))


@pytest.mark.parametrize("option, value, named", [
    ("--dropout", "1.5", "dropout_rate"),
    ("--wm-smoothing", "0", "wm_smoothing"),
    ("--hidden-dims", "0", "width in hidden_dims must be an integer >= 1"),
    ("--wm-l", "nan", "wm_l"),
    ("--wm-l", "inf", "wm_l"),
    ("--wm-smoothing", "inf", "wm_smoothing"),
    ("--hinge-clip", "nan", "hinge_clip"),
    ("--hinge-clip", "-1", "hinge_clip"),
    ("--n-jobs", "0", "n_jobs"),
    ("--n-jobs", "-2", "n_jobs"),
])
def test_cv_rejects_an_option_that_cannot_train(capsys, toy, tmp_path, monkeypatch, option,
                                                value, named):
    encoded = []
    monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
    code, err = _error_line(capsys, [
        "cv", *data_args(toy), "--loss", "rank-hinge", "--bin-width", "5",
        "--k", "2", "--grid", toy["grid"], *KNOBS, option, value,
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert err["error"] == "ValueError" and named in err["message"]
    assert not (tmp_path / "r.csv").exists()
    assert encoded == []  # rejected before any fold is encoded


@pytest.mark.parametrize("command, option, value, message", [
    ("cv", "--hidden-dims", "1,,2", " has an empty entry"),
    ("cv", "--hidden-dims", "8,", " has an empty entry"),
    ("train", "--hidden-dims", " ,8", " has an empty entry"),
    ("cv", "--hidden-dims", "8,x", ": invalid literal for int() with base 10: 'x'"),
    ("ablate-censoring", "--losses", "wm,,cox", " has an empty entry"),
    ("sweep-censoring", "--fractions", "0.5,,0.8", " has an empty entry"),
    ("sweep-censoring", "--fractions", "0.5,x", ": could not convert string to float: 'x'"),
])
def test_a_list_option_with_an_empty_or_bad_entry_is_named(capsys, toy, tmp_path, monkeypatch,
                                                            command, option, value, message):
    encoded = []
    monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
    loss = [] if command == "ablate-censoring" else ["--loss", "rank-sigmoid"]
    fractions = ["--fractions", "0.9"] if command == "sweep-censoring" else []
    out = ["--checkpoint" if command == "train" else "--out", str(tmp_path / "x")]
    code, err = _error_line(capsys, [
        command, *data_args(toy), *loss, *fractions, "--bin-width", "5", *KNOBS,
        option, value, *out,
    ])
    assert code == 2
    assert err == {"error": "ValueError", "message": f"{option} {value!r}{message}"}
    assert encoded == [] and not (tmp_path / "x").exists()


@pytest.mark.parametrize("loss, option, value, code", [
    # finite: the wm loss's power underflows to 0 with every target ending at 1
    ("wm", "--wm-l", "1e308", 0),
    ("wm", "--learning-rate", "1e200", 2),
    ("cox-efron", "--learning-rate", "1e200", 2),
    ("rank-sigmoid", "--learning-rate", "1e200", 2),
])
def test_a_run_that_overflows_writes_no_warning_to_stderr(toy, tmp_path, loss, option, value,
                                                          code):
    argv = ["train", *data_args(toy), "--loss", loss, "--bin-width", "5", *KNOBS, option, value,
            "--checkpoint", str(tmp_path / "m.bin")]
    cmd, env = cli_launch(argv)
    env["PYTHONWARNINGS"] = "default"  # numpy's RuntimeWarnings reach stderr
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:  # one line, the JSON error that names the divergence
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "TrainingDivergedError"


def test_every_training_option_sets_a_train_run_field():
    assert set(cli._TRAIN_KNOBS) <= {f.name for f in fields(harness.TrainRun)}


@pytest.mark.parametrize("command, options", [
    ("cv", ["--loss", "wm", "--bin-width", "1", "--out", "r.csv"]),
    ("ablate-censoring", ["--bin-width", "1", "--out", "r.csv"]),
    ("sweep-censoring", ["--loss", "wm", "--fractions", "0.5", "--bin-width", "1",
                         "--out", "r.csv"]),
    ("train", ["--loss", "wm", "--bin-width", "1", "--checkpoint", "m.ckpt"]),
])
def test_a_parse_with_no_training_options_builds_the_train_run_defaults(command, options):
    args = cli.build_parser().parse_args([command, "--dataset", "d.csv", "--schema", "s.json",
                                          *options])
    run = cli._template_from(args, "wm")
    if command == "train":
        run = replace(run, learning_rate=args.learning_rate, l2=args.l2)
    assert run == harness.TrainRun(loss="wm")


class TestCv:
    def test_report_file_and_summary_line(self, capsys, toy, tmp_path):
        out = tmp_path / "report.csv"
        code, lines, _ = run_cli(capsys, [
            "cv", *data_args(toy), "--loss", "cox-efron", "--bin-width", "5",
            "--k", "2", "--seed", "7", "--grid", toy["grid"], *KNOBS,
            "--out", str(out),
        ])
        assert code == 0
        payload = lines[-1]
        assert payload["loss"] == "cox-efron" and payload["out"] == str(out)

        text = out.read_text().splitlines()
        assert text[0] == "row,fold,learning_rate,l2,val_c_index,test_c_index,stderr"
        assert len(text) == 1 + 2 + 1
        aggregate = text[-1].split(",")
        assert float(aggregate[5]) == payload["mean_test_c_index"]
        assert float(aggregate[6]) == payload["stderr_test_c_index"]

    def test_same_seed_runs_are_byte_identical(self, capsys, toy, tmp_path):
        argv = [
            "cv", *data_args(toy), "--loss", "rank-sigmoid", "--bin-width", "5",
            "--k", "2", "--seed", "7", "--grid", toy["grid"], *KNOBS,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys, toy, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, [
            "cv", *data_args(toy), "--loss", "wm", "--bin-width", "5",
            "--k", "2", "--seed", "7", "--grid", toy["grid"], *KNOBS,
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["loss"] == "wm" and len(doc["folds"]) == 2


class TestCensoringCommands:
    def test_ablation_table(self, capsys, toy, tmp_path):
        out = tmp_path / "ablation.csv"
        code, lines, _ = run_cli(capsys, [
            "ablate-censoring", *data_args(toy), "--losses", "rank-sigmoid",
            "--bin-width", "5", "--k", "2", "--seed", "7", "--grid", toy["grid"],
            *KNOBS, "--out", str(out),
        ])
        assert code == 0
        assert lines[-1]["cells"] == 3
        rows = out.read_text().splitlines()
        assert rows[0] == "loss,mode,mean,stderr"
        assert [r.split(",")[1] for r in rows[1:]] == [
            "with_censored", "no_censored", "death_at_censoring",
        ]

    def test_sweep_points(self, capsys, toy, tmp_path):
        out = tmp_path / "sweep.csv"
        code, lines, _ = run_cli(capsys, [
            "sweep-censoring", *data_args(toy), "--loss", "rank-sigmoid",
            "--fractions", "0.9", "--bin-width", "5", "--k", "2", "--seed", "7",
            "--grid", toy["grid"], *KNOBS, "--out", str(out),
        ])
        assert code == 0
        assert [p["fraction"] for p in lines[-1]["points"]] == [0.9]
        rows = out.read_text().splitlines()
        assert rows[0] == "fraction,mean,stderr"
        assert len(rows) == 2 and rows[1].startswith("0.9,")

    def test_ablation_without_a_loss_fails_cleanly(self, capsys, toy, tmp_path):
        code, err = _error_line(capsys, [
            "ablate-censoring", *data_args(toy), "--losses", ",", "--bin-width", "5",
            "--k", "2", "--grid", toy["grid"], *KNOBS, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err == {"error": "ValueError", "message": "--losses ',' has an empty entry"}
        assert not (tmp_path / "x.csv").exists()

    def test_a_sweep_without_a_fraction_fails_cleanly(self, capsys, toy, tmp_path, monkeypatch):
        encoded = []
        monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
        code, err = _error_line(capsys, [
            "sweep-censoring", *data_args(toy), "--loss", "rank-sigmoid", "--fractions", ",",
            "--bin-width", "5", "--k", "2", "--grid", toy["grid"], *KNOBS,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err == {"error": "ValueError", "message": "--fractions ',' has an empty entry"}
        assert encoded == [] and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, option, value, named", [
        ("ablate-censoring", "--losses", "rank-sigmoid,rank-sigmoid", "loss 'rank-sigmoid'"),
        ("sweep-censoring", "--fractions", "0.6,0.6", "censoring fraction 0.6"),
    ])
    def test_a_repeated_entry_fails_cleanly(self, capsys, toy, tmp_path, monkeypatch, command,
                                            option, value, named):
        encoded = []
        monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
        loss = ["--loss", "rank-sigmoid"] if command == "sweep-censoring" else []
        code, err = _error_line(capsys, [
            command, *data_args(toy), *loss, option, value, "--bin-width", "5", "--k", "2",
            "--grid", toy["grid"], *KNOBS, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert err == {"error": "ValueError", "message": f"{named} is listed more than once"}
        assert encoded == [] and not (tmp_path / "x.csv").exists()

    def test_sweep_below_native_fraction_fails_cleanly(self, capsys, toy, tmp_path):
        code, _, err = run_cli(capsys, [
            "sweep-censoring", *data_args(toy), "--loss", "rank-sigmoid",
            "--fractions", "0.01", "--bin-width", "5", "--k", "2",
            "--grid", toy["grid"], *KNOBS, "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "below the native" in err["message"]


class TestErrorSurface:
    def test_usage_error_exits_2_with_a_json_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--loss", "wm"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError"

    def test_the_removed_rank_sign_option_is_a_usage_error(self, capsys, toy, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "cv", *data_args(toy), "--loss", "rank-sigmoid", "--bin-width", "5",
                "--rank-sign", "concordant", "--out", str(tmp_path / "r.csv"),
            ])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_loss_is_a_usage_error(self, capsys, toy, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "cv", *data_args(toy), "--loss", "brier", "--bin-width", "5",
                "--out", str(tmp_path / "r.csv"),
            ])
        assert exc.value.code == 2

    def test_missing_time_column_is_reported_by_name(self, capsys, toy, tmp_path):
        broken = tmp_path / "broken.csv"
        lines = open(toy["csv"], encoding="utf-8").read().splitlines()
        lines[0] = lines[0].replace("time", "when")
        broken.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, [
            "km", "--dataset", str(broken), "--schema", toy["schema"], "--bin-width", "5",
        ])
        assert code == 2
        assert err["error"] == "CsvParseError"
        assert "time" in err["message"]

    @pytest.mark.parametrize("columns, named", [
        (["time", "event"], "columns"),
        ({"time": "time", "event": "event_indicator", "age": {"missing": ["NA"]}}, "age"),
    ])
    def test_malformed_schema_is_reported_by_name(self, capsys, toy, tmp_path,
                                                  columns, named):
        schema = tmp_path / "broken.schema.json"
        schema.write_text(json.dumps({"columns": columns}))
        code, _, err = run_cli(capsys, [
            "km", "--dataset", toy["csv"], "--schema", str(schema), "--bin-width", "5",
        ])
        assert code == 2
        assert err["error"] == "ValueError" and named in err["message"]


class TestGridFiles:
    def test_dict_form_is_a_cross_product_in_listed_order(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"learning_rate": [0.01, 0.001], "l2": [0.0, 0.1]}))
        assert load_grid(path) == [(0.01, 0.0), (0.01, 0.1), (0.001, 0.0), (0.001, 0.1)]

    def test_list_form_is_explicit_pairs(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([[0.01, 0.0001], [0.001, 0.0]]))
        assert load_grid(path) == [(0.01, 0.0001), (0.001, 0.0)]

    @pytest.mark.parametrize("text", ["5", "null", "true", '"ab"'])
    def test_a_document_that_is_no_grid_is_named(self, capsys, toy, tmp_path, text):
        path = tmp_path / "grid.json"
        path.write_text(text)
        message = f"{path}: a grid file must hold an object or a list of points"
        with pytest.raises(ValueError) as err:
            load_grid(path)
        assert str(err.value) == message
        code, err = _error_line(capsys, [
            "cv", *data_args(toy), "--loss", "cox", "--bin-width", "5",
            "--grid", str(path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2 and err == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("doc, key", [
        ({"learning_rate": [0.01]}, "l2"),
        ({"l2": [0.0]}, "learning_rate"),
        ({"learning_rate": [0.01], "l2": 0.001}, "l2"),
    ])
    def test_missing_key_is_named(self, capsys, toy, tmp_path, doc, key):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}' is missing or not a list"):
            load_grid(path)
        code, _, err = run_cli(capsys, [
            "cv", *data_args(toy), "--loss", "cox", "--bin-width", "5",
            "--grid", str(path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert err["error"] == "ValueError" and repr(key) in err["message"]

    def test_an_unknown_key_is_named(self, capsys, toy, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"learning_rate": [0.01], "l2": [0.0], "lr": [5]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key 'lr'")):
            load_grid(path)
        code, err = _error_line(capsys, [
            "cv", *data_args(toy), "--loss", "cox", "--bin-width", "5",
            "--grid", str(path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2 and err["error"] == "ValueError" and "'lr'" in err["message"]

    @pytest.mark.parametrize("text", [
        "[[0.01, NaN]]",
        "[[Infinity, 0.0]]",
        '{"learning_rate": [0.01], "l2": [0.0, NaN]}',
        pytest.param("[[1" + "0" * 400 + ", 0.0]]", id="int-beyond-float"),
    ])
    def test_non_finite_value_is_named(self, tmp_path, text):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not finite"):
            load_grid(path)

    @pytest.mark.parametrize("text, named", [
        ("[1, 2]", "grid point 1 "),
        ("[[0.1, 0.0, 3]]", "grid point [0.1, 0.0, 3] "),
        ("[[null, 0]]", "grid point [null, 0] "),
        ('[["0.1", 0]]', 'grid point ["0.1", 0] '),
        ('{"learning_rate": [0.1], "l2": [true]}', "grid point [0.1, true] "),
    ])
    def test_a_malformed_point_is_named(self, tmp_path, text, named):
        path = tmp_path / "grid.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_grid(path)
        assert str(err.value) == f"{path}: {named}is not a list of 2 numbers"

    @pytest.mark.parametrize("point, named", [
        ([0.01, -1.0], "l2_coefficient must be >= 0"),
        ([0.0, 0.0], "learning_rate must be positive"),
    ])
    def test_a_point_that_cannot_train_encodes_no_fold(self, capsys, toy, tmp_path, monkeypatch,
                                                        point, named):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([[0.01, 0.0], point]))
        encoded = []
        monkeypatch.setattr(harness, "preprocess", lambda *a, **kw: encoded.append(a))
        code, err = _error_line(capsys, [
            "cv", *data_args(toy), "--loss", "rank-sigmoid", "--bin-width", "5", "--k", "2",
            "--grid", str(path), *KNOBS, "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert err["error"] == "ValueError" and named in err["message"]
        assert encoded == [] and not (tmp_path / "r.csv").exists()


def test_installed_entry_point_runs(tmp_path):
    argv = ["synth", "--n", "30", "--num-features", "2", "--seed", "0",
            "--out", str(tmp_path / "s")]
    cmd, env = cli_launch(argv, prefer_installed=True)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 30
