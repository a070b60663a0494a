"""The three workloads: their commands, the work each command does, and the
checks every command's output must pass.

Every cv command uses k=5 over the full table, bin width 1, the two-point
grid file and --patience equal to --epochs, so early stopping never fires
and the work per command is fixed.
"""

import csv
import io
import json
import os

import tablegen

K = 5
VAL_FRACTION = 0.2
GRID_POINTS = 2  # the grid file tablegen.write_inputs writes
C_FLOOR = 0.6  # the generator's risk gives ~0.79 to a perfect model, 0.5 to chance
WM_EPOCHS = 1  # ~1 s per epoch per job at 2,030 bins
SCALAR_EPOCHS = 2  # one epoch leaves the Cox model too close to chance
NAMES = ("wm-cv", "scalar-cv", "evaluate-full")

_REPORT_HEADER = ["row", "fold", "learning_rate", "l2", "val_c_index", "test_c_index", "stderr"]


def _cv(paths, loss, epochs, seed, out):
    return ["cv", "--dataset", paths["dataset"], "--schema", paths["schema"],
            "--loss", loss, "--bin-width", "1", "--k", str(K),
            "--val-fraction", str(VAL_FRACTION), "--grid", paths["grid"],
            "--epochs", str(epochs), "--patience", str(epochs),
            "--n-jobs", "1", "--seed", str(seed), "--out", out]


def commands(name, paths, seed, work):
    """(set-up argvs, one cycle as [(label, argv, report path or None)])."""
    if name == "wm-cv":
        out = os.path.join(work, "cv-wm.csv")
        return [], [("cv-wm", _cv(paths, "wm", WM_EPOCHS, seed, out), out)]
    if name == "scalar-cv":
        cycle = []
        for loss in ("cox-efron", "rank-sigmoid"):
            out = os.path.join(work, f"cv-{loss}.csv")
            cycle.append((f"cv-{loss}", _cv(paths, loss, SCALAR_EPOCHS, seed, out), out))
        return [], cycle
    if name == "evaluate-full":
        data = ["--dataset", paths["dataset"], "--schema", paths["schema"]]
        train = ["train", *data, "--loss", "wm", "--bin-width", "1",
                 "--epochs", str(WM_EPOCHS), "--patience", str(WM_EPOCHS),
                 "--learning-rate", "0.01", "--seed", str(seed),
                 "--checkpoint", paths["checkpoint"]]
        cycle = [
            ("evaluate-checkpoint", ["evaluate", *data, "--checkpoint", paths["checkpoint"]], None),
            ("evaluate-scores", ["evaluate", *data, "--scores", paths["scores"]], None),
        ]
        return [train], cycle
    raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")


def rows_per_command(name, seed, cv_splits):
    """Useful rows of one command, from the split arithmetic alone.

    cv: sum over jobs of epochs x n_train; evaluate: the rows scored.
    """
    if name == "evaluate-full":
        return tablegen.N_ROWS
    epochs = WM_EPOCHS if name == "wm-cv" else SCALAR_EPOCHS
    splits = cv_splits(tablegen.N_ROWS, K, VAL_FRACTION, seed)
    return sum(len(train) for train, _, _ in splits) * GRID_POINTS * epochs


def _summary(record):
    lines = record["stdout"].strip().splitlines()
    return json.loads(lines[-1])


def _check_cv(record, first):
    summary = _summary(record)
    rows = list(csv.reader(io.StringIO(record["report"])))
    if rows[0] != _REPORT_HEADER:
        return f"report header {rows[0]}"
    folds = [row for row in rows[1:] if row[0] == "fold"]
    aggregate = [row for row in rows[1:] if row[0] == "aggregate"]
    if [row[1] for row in folds] != [str(i) for i in range(K)] or len(aggregate) != 1:
        return f"report has {len(folds)} fold rows and {len(aggregate)} aggregate rows"
    if not all(0.0 <= float(row[5]) <= 1.0 for row in folds):
        return "a fold's test C-index lies outside [0, 1]"
    mean = float(aggregate[0][5])
    if mean != summary["mean_test_c_index"]:
        return "the printed mean differs from the report's"
    if not mean >= C_FLOOR:
        return f"mean test C-index {mean} is below the floor {C_FLOOR}"
    if first is not None and record["report"] != first["report"]:
        return "the report differs from the first one of this run"
    return None


def check(record, first, expected_scores_c):
    """None when `record` passes every output check, else the reason.

    `first` is the run's first record with the same label; reports and
    checkpoint C-indices must repeat exactly.
    """
    if record["error"] is not None or record["rc"] != 0:
        return f"exit {record['rc']}: {record['error'] or record['stderr']}"
    try:
        if record["label"].startswith("cv-"):
            return _check_cv(record, first)
        summary = _summary(record)
        c = summary["c_index"]
        if summary["n"] != tablegen.N_ROWS:
            return "evaluate scored the wrong number of rows"
        if record["label"] == "evaluate-scores":
            if c != expected_scores_c:
                return f"C-index {c!r} differs from the exact count {expected_scores_c!r}"
            return None
        if not c >= C_FLOOR:
            return f"checkpoint C-index {c} is below the floor {C_FLOOR}"
        if first is not None and c != _summary(first)["c_index"]:
            return "the checkpoint C-index changed between commands"
        return None
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {err!r}"
