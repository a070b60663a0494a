"""Command-line interface.

    censrank synth             write a synthetic survival CSV plus schema
    censrank km                Kaplan-Meier curve of a dataset
    censrank train             train one model and save a checkpoint
    censrank evaluate          concordance of a checkpoint on a dataset
    censrank cv                k-fold cross-validation report
    censrank ablate-censoring  censoring-handling comparison table
    censrank sweep-censoring   C-index versus training censoring fraction

Every failure exits nonzero after printing one JSON object
{"error": <type>, "message": <text>} to stderr.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import harness, pipeline
from .core import Dataset, build_time_grid
from .errors import CensrankError
from .estimators import IMPUTE_MODES, kaplan_meier
from .metrics import c_index
from .neural import load_checkpoint, save_checkpoint

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": message}), file=sys.stderr)
        raise SystemExit(2)


def _hinge_clip(text):
    if text.lower() in ("none", "off"):
        return None
    return float(text)


def _entries(option, text, convert=str):
    """The comma-separated entries of `option`'s value `text`, each passed
    through `convert`; an empty or unconvertible entry is a ValueError that
    names the option and its value."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"{option} {text!r} has an empty entry")
    try:
        return [convert(part) for part in parts]
    except ValueError as err:
        raise ValueError(f"{option} {text!r}: {err}") from None


def _emit_line(payload):
    print(json.dumps(payload))


def _add_data_args(p):
    p.add_argument("--dataset", required=True, help="CSV file")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--on-bad-rows", choices=("error", "drop"), default="error")


def _add_out_args(p, required=True):
    p.add_argument("--out", required=required, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_train_knobs(p):
    defaults = harness.TrainRun  # each option's default is its TrainRun field's
    p.add_argument("--hidden-dims", default=",".join(map(str, defaults.hidden_dims)),
                   help="comma-separated layer widths")
    p.add_argument("--dropout", type=float, default=defaults.dropout)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--epochs", dest="max_epochs", type=int, default=defaults.max_epochs,
                   help="max training epochs")
    p.add_argument("--patience", type=int, default=defaults.patience)
    p.add_argument("--wm-smoothing", type=float, default=defaults.wm_smoothing)
    p.add_argument("--wm-l", type=float, default=defaults.wm_l)
    p.add_argument("--wm-score", choices=("mean", "median"), default=defaults.wm_score)
    p.add_argument("--km-impute", choices=IMPUTE_MODES, default=defaults.km_impute)
    p.add_argument("--hinge-clip", type=_hinge_clip, default=defaults.hinge_clip,
                   help="hinge surrogate ceiling; 'none' disables")


def _add_cv_args(p):
    p.add_argument("--bin-width", type=float, required=True, help="time-grid bin width")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", help="JSON grid file; see load_grid")
    p.add_argument("--n-jobs", type=int, default=1)


# TrainRun fields that a command's option of the same name sets
_TRAIN_KNOBS = ("hidden_dims", "dropout", "batch_size", "max_epochs", "patience", "wm_smoothing",
                "wm_l", "wm_score", "km_impute", "hinge_clip", "seed")


def _template_from(args, loss):
    knobs = {name: getattr(args, name) for name in _TRAIN_KNOBS}
    knobs["hidden_dims"] = _entries("--hidden-dims", args.hidden_dims, int)
    return harness.TrainRun(loss=loss, **knobs)


def _experiment_args(args, loss):
    """The keyword arguments that cv, ablate-censoring and sweep-censoring share."""
    return dict(
        k=args.k,
        grid=load_grid(args.grid) if args.grid else None,
        seed=args.seed,
        val_fraction=args.val_fraction,
        bin_width=args.bin_width,
        template=_template_from(args, loss),
        n_jobs=args.n_jobs,
    )


def load_grid(path):
    """Grid file: either {"learning_rate": [...], "l2": [...]} (cross
    product, in listed order) or an explicit list of [lr, l2] pairs.

    Raises ValueError naming a missing or unknown key, a document that is
    neither, or a point that is not a list of 2 finite JSON numbers (not
    bools or strings)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, (dict, list)):
        raise ValueError(f"{path}: a grid file must hold an object or a list of points")
    if isinstance(doc, dict):
        pipeline._known_keys(f"{path}: ", doc, ("learning_rate", "l2"))
        for key in ("learning_rate", "l2"):
            if not isinstance(doc.get(key), list):
                raise ValueError(f"{path}: grid key {key!r} is missing or not a list")
        doc = [[lr, l2] for lr in doc["learning_rate"] for l2 in doc["l2"]]
    for point in doc:
        if not (isinstance(point, list) and len(point) == 2
                and all(type(v) in (int, float) for v in point)):  # bools and strings fail
            raise ValueError(f"{path}: grid point {json.dumps(point)} is not a list of 2 numbers")
        if not all(abs(v) <= sys.float_info.max for v in point):  # NaN, inf, a too-large int
            raise ValueError(f"{path}: grid point {json.dumps(point)} is not finite")
    return [(float(lr), float(l2)) for lr, l2 in doc]


def _load_table(args, outcome_only=False):
    schema = pipeline.load_schema(args.schema)
    if outcome_only:
        schema = replace(schema, columns=(schema.time_column, schema.event_column))
    return pipeline.load_csv(args.dataset, schema, on_bad_rows=args.on_bad_rows)


# ---------------------------------------------------------------------------
# Commands


def _cmd_synth(args):
    dataset = pipeline.generate_synthetic(
        args.n, args.num_features, args.censor_fraction, args.tie_density, args.seed
    )
    csv_path = args.out + ".csv"
    schema_path = args.out + ".schema.json"
    pipeline.save_csv(dataset, csv_path)
    names = [f"f{i}" for i in range(dataset.n_features)]
    pipeline.save_schema(pipeline.schema_for_features(names), schema_path)
    _emit_line(
        {
            "csv": csv_path,
            "schema": schema_path,
            "n": len(dataset),
            "censored_fraction": dataset.censored_fraction,
            "num_bins": dataset.grid.num_bins,
        }
    )
    return 0


def _cmd_km(args):
    table = _load_table(args, outcome_only=True)
    grid = build_time_grid(table.times, args.bin_width)
    km = kaplan_meier(Dataset(np.empty((len(table), 0)), table.times, table.observed, grid))
    harness.emit_report(km, args.out, format=args.format)
    return 0


def _cmd_train(args):
    table = _load_table(args)
    run = replace(_template_from(args, args.loss), learning_rate=args.learning_rate, l2=args.l2)
    split = harness.cv_splits(len(table), args.k, args.val_fraction, args.seed)[0]
    (train, val, test), (feature_names, stats) = harness.fold_encoder(table, args.bin_width)(split)
    del table  # the encoded fold replaces its parsed columns before training
    net, history = harness.train_model(run, train, val)
    test_c = c_index(test, harness.predict_scores(run, net, test.features))
    save_checkpoint(net, args.checkpoint)
    meta = {
        "loss": run.loss,
        "wm_score": run.wm_score,
        "feature_names": list(feature_names),
        "stats": stats.to_doc(),
    }
    with open(args.checkpoint + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    _emit_line(
        {
            "checkpoint": args.checkpoint,
            "best_epoch": history["best_epoch"],
            "stopped_epoch": history["stopped_epoch"],
            "val_c_index": history["best_val_c_index"],
            "test_c_index": test_c,
        }
    )
    return 0


def _read_scores(path):
    values = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            cell = row[0].strip()
            if not values and cell.lower() in ("score", "scores"):
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"{path}: line {reader.line_num}: bad score {cell!r}") from None
    if not values:
        raise ValueError(f"no scores found in {path}")
    return np.asarray(values, dtype=np.float64)


def _cmd_evaluate(args):
    if (args.checkpoint is None) == (args.scores is None):
        raise ValueError("pass exactly one of --checkpoint or --scores")
    table = _load_table(args, outcome_only=args.scores is not None)
    if args.scores is not None:
        scores = _read_scores(args.scores)
        if scores.shape[0] != len(table):
            raise ValueError(f"{scores.shape[0]} scores for {len(table)} dataset rows")
        data = table
    else:
        with open(args.checkpoint + ".meta.json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        for key in ("loss", "wm_score", "feature_names", "stats"):
            if not isinstance(meta, dict) or key not in meta:
                raise ValueError(f"{args.checkpoint}.meta.json: missing key {key!r}")
        result = pipeline.preprocess(table, stats=pipeline.PreprocessStats.from_doc(meta["stats"]))
        del table  # the encoded features replace its parsed columns before scoring
        if list(result.feature_names) != meta["feature_names"]:
            raise ValueError(
                "dataset columns encode differently from the checkpoint's training data"
            )
        net = load_checkpoint(args.checkpoint)
        run = harness.TrainRun(loss=meta["loss"], wm_score=meta["wm_score"])
        scores = harness.predict_scores(run, net, result.features)
        data = result
    n = len(data.times)
    payload = {
        "c_index": c_index(data, scores),
        "n": n,
        "censored_fraction": float(np.count_nonzero(~data.observed)) / n,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    _emit_line(payload)
    return 0


def _cmd_cv(args):
    table = _load_table(args)
    report = harness.run_cv(table, args.loss, **_experiment_args(args, args.loss))
    harness.emit_report(report, args.out, format=args.format)
    _emit_line(
        {
            "loss": report.loss,
            "mean_test_c_index": report.mean_test_c_index,
            "stderr_test_c_index": report.stderr_test_c_index,
            "out": args.out,
        }
    )
    return 0


def _cmd_ablate(args):
    losses = _entries("--losses", args.losses)
    table = _load_table(args)
    result = harness.censoring_ablation(table, losses, **_experiment_args(args, losses[0]))
    harness.emit_report(result, args.out, format=args.format)
    _emit_line({"cells": len(result.cells), "out": args.out})
    return 0


def _cmd_sweep(args):
    fractions = _entries("--fractions", args.fractions, float)
    table = _load_table(args)
    result = harness.censoring_sweep(
        table, args.loss, fractions, **_experiment_args(args, args.loss)
    )
    harness.emit_report(result, args.out, format=args.format)
    _emit_line(
        {
            "loss": result.loss,
            "points": [
                {"fraction": p.fraction, "mean": p.report.mean_test_c_index}
                for p in result.points
            ],
            "out": args.out,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser():
    parser = _Parser(prog="censrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic survival dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--num-features", type=int, default=10)
    p.add_argument("--censor-fraction", type=float, default=0.3)
    p.add_argument("--tie-density", type=float, default=1.0 / 128.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="path prefix for .csv and .schema.json")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("km", help="Kaplan-Meier curve")
    _add_data_args(p)
    p.add_argument("--bin-width", type=float, required=True)
    _add_out_args(p, required=False)
    p.set_defaults(func=_cmd_km)

    p = sub.add_parser("train", help="train one model and save a checkpoint")
    _add_data_args(p)
    p.add_argument("--loss", choices=harness.LOSSES, required=True)
    p.add_argument("--bin-width", type=float, required=True)
    p.add_argument("--learning-rate", type=float, default=harness.TrainRun.learning_rate)
    p.add_argument("--l2", type=float, default=harness.TrainRun.l2)
    p.add_argument("--k", type=int, default=5, help="split arithmetic: fold 0 of k is used")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    _add_train_knobs(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="concordance of a checkpoint or a scores file")
    _add_data_args(p)
    p.add_argument("--checkpoint", help="checkpoint produced by the train command")
    p.add_argument("--scores", help="CSV of precomputed scores, one per dataset row")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    _add_data_args(p)
    p.add_argument("--loss", choices=harness.LOSSES, required=True)
    _add_cv_args(p)
    _add_train_knobs(p)
    _add_out_args(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("ablate-censoring", help="censoring-handling comparison")
    _add_data_args(p)
    p.add_argument("--losses", default="wm,rank-sigmoid,cox-efron",
                   help="comma-separated loss names")
    _add_cv_args(p)
    _add_train_knobs(p)
    _add_out_args(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep-censoring", help="C-index vs censoring fraction")
    _add_data_args(p)
    p.add_argument("--loss", choices=harness.LOSSES, required=True)
    p.add_argument("--fractions", required=True, help="comma-separated censoring fractions")
    _add_cv_args(p)
    _add_train_knobs(p)
    _add_out_args(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CensrankError, ValueError, TypeError, OSError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
