"""Dataset ingestion, preprocessing, fold splitting, synthetic data.

CSV files are read with the stdlib reader (RFC-4180 quoting, configurable
delimiter).  A schema file is a small JSON document declaring column kinds
and missing-value sentinels:

    {
      "delimiter": ",",
      "event_true": ["1"],
      "event_false": ["0"],
      "missing": [""],
      "columns": {
        "d.time": "time",
        "death": "event_indicator",
        "age": "continuous",
        "sex": {"kind": "categorical"},
        "meanbp": {"kind": "continuous", "missing": ["", "NA"]}
      }
    }

Exactly one column must be declared "time" and one "event_indicator".
CSV columns not named in the schema are ignored.  Per-column "missing"
overrides the file-level sentinel list.

Each feature column is parsed as the table loads (an unparseable numeric
cell anywhere raises CsvParseError naming its column) and no cell strings
are kept, so every fold's stats and encoding are array gathers of its rows.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, build_time_grid
from .errors import CsvParseError

__all__ = [
    "Column",
    "ColumnSpec",
    "DatasetSchema",
    "PreprocessStats",
    "PreprocessResult",
    "RawTable",
    "load_schema",
    "save_schema",
    "load_csv",
    "preprocess",
    "kfold_split",
    "generate_synthetic",
    "oracle_scores",
    "save_csv",
    "schema_for_features",
]

COLUMN_KINDS = ("continuous", "categorical", "time", "event_indicator")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    missing: tuple = ("",)

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "missing", tuple(self.missing))


@dataclass(frozen=True)
class DatasetSchema:
    columns: tuple
    event_true: tuple = ("1",)
    event_false: tuple = ("0",)
    delimiter: str = ","

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "event_true", tuple(self.event_true))
        object.__setattr__(self, "event_false", tuple(self.event_false))
        times = [c for c in self.columns if c.kind == "time"]
        events = [c for c in self.columns if c.kind == "event_indicator"]
        if len(times) != 1 or len(events) != 1:
            raise ValueError(
                "a schema needs exactly one time column and one event_indicator "
                f"column, got {len(times)} and {len(events)}"
            )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")

    @property
    def time_column(self):
        return next(c for c in self.columns if c.kind == "time")

    @property
    def event_column(self):
        return next(c for c in self.columns if c.kind == "event_indicator")

    @property
    def feature_columns(self):
        return tuple(c for c in self.columns if c.kind in ("continuous", "categorical"))


def load_schema(path) -> DatasetSchema:
    """Read a schema file; raises ValueError naming a missing or malformed key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
        raise ValueError(f"{path}: 'columns' must be an object of column declarations")
    default_missing = tuple(doc.get("missing", [""]))
    columns = []
    for name, decl in doc["columns"].items():
        if isinstance(decl, str):
            decl = {"kind": decl}
        if not isinstance(decl, dict) or "kind" not in decl:
            raise ValueError(f"{path}: column {name!r} has no 'kind'")
        columns.append(
            ColumnSpec(
                name=name,
                kind=decl["kind"],
                missing=tuple(decl.get("missing", default_missing)),
            )
        )
    return DatasetSchema(
        columns=tuple(columns),
        event_true=tuple(doc.get("event_true", ["1"])),
        event_false=tuple(doc.get("event_false", ["0"])),
        delimiter=doc.get("delimiter", ","),
    )


def save_schema(schema: DatasetSchema, path):
    doc = {
        "delimiter": schema.delimiter,
        "event_true": list(schema.event_true),
        "event_false": list(schema.event_false),
        "columns": {
            c.name: {"kind": c.kind, "missing": list(c.missing)} for c in schema.columns
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


class Column(NamedTuple):
    """One parsed feature column: float64 values (0.0 where missing) and no
    vocabulary if continuous, else int64 codes into its sorted vocabulary
    (-1 where missing).  `cell in column` tells whether the column read
    `cell` as one of its distinct `missing_cells` or as a level."""

    values: np.ndarray
    is_missing: np.ndarray
    vocabulary: tuple
    missing_cells: tuple

    def __contains__(self, cell):
        return cell in self.missing_cells or cell in (self.vocabulary or ())


@dataclass
class RawTable:
    """Parsed time/event arrays and one `Column` per feature name, pre-encoding."""

    schema: DatasetSchema
    columns: dict
    times: np.ndarray
    observed: np.ndarray
    dropped_rows: tuple = ()

    def __len__(self):
        return len(self.times)


def _parse_column(spec, cells):
    missing = set(spec.missing)
    is_missing = np.array([cell in missing for cell in cells], dtype=bool)
    # first-seen order, so a parse error names the first bad cell of the column
    distinct = dict.fromkeys(cells)
    missing_cells = tuple(cell for cell in distinct if cell in missing)
    distinct = [cell for cell in distinct if cell not in missing]
    if spec.kind == "categorical":
        vocabulary = tuple(sorted(distinct))
        code = {level: k for k, level in enumerate(vocabulary)}
        codes = np.array([code.get(cell, -1) for cell in cells], dtype=np.int64)
        return Column(codes, is_missing, vocabulary, missing_cells)
    number = {}
    for cell in distinct:
        try:
            number[cell] = float(cell)
        except ValueError:
            raise CsvParseError(
                f"column {spec.name!r}: unparseable numeric value {cell!r}"
            ) from None
    values = np.array([number.get(cell, 0.0) for cell in cells], dtype=np.float64)
    return Column(values, is_missing, None, missing_cells)


def load_csv(path, schema: DatasetSchema, on_bad_rows="error") -> RawTable:
    """Read a delimited file against `schema`.

    Rows whose time or event field does not parse are rejected with their
    1-based line numbers; on_bad_rows selects whether that raises or drops.
    A header that repeats a schema column, or a numeric feature cell that
    does not parse, raises CsvParseError naming the column.
    """
    if on_bad_rows not in ("error", "drop"):
        raise ValueError(f"on_bad_rows must be 'error' or 'drop', got {on_bad_rows!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing_cols = [spec.name for spec in schema.columns if spec.name not in header]
        if missing_cols:
            raise CsvParseError(f"{path}: missing columns: {', '.join(missing_cols)}")
        positions = {spec.name: header.index(spec.name) for spec in schema.columns}
        for name in positions:
            if header.count(name) > 1:
                raise CsvParseError(f"{path}: column {name!r} repeats in the header")
        time_at, event_at = positions[schema.time_column.name], positions[schema.event_column.name]
        # per feature column: position, cells, and one str per distinct cell for repeats to share
        features = [(positions[spec.name], [], {}) for spec in schema.feature_columns]
        times, observed, bad = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                bad.append((lineno, f"expected {len(header)} fields, got {len(row)}"))
                continue
            raw_time, raw_event = row[time_at].strip(), row[event_at].strip()
            try:
                t = float(raw_time)
                if not math.isfinite(t) or t < 0:
                    raise ValueError
            except ValueError:
                bad.append((lineno, f"unparseable time {raw_time!r}"))
                continue
            if raw_event in schema.event_true:
                obs = True
            elif raw_event in schema.event_false:
                obs = False
            else:
                bad.append((lineno, f"unparseable event {raw_event!r}"))
                continue
            times.append(t)
            observed.append(obs)
            for at, cells, distinct in features:
                cell = row[at].strip()
                cells.append(distinct.setdefault(cell, cell))
        if bad and on_bad_rows == "error":
            shown = "; ".join(f"line {ln}: {why}" for ln, why in bad[:10])
            more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
            raise CsvParseError(f"{path}: {len(bad)} bad rows: {shown}{more}")
    try:
        columns = {spec.name: _parse_column(spec, cells)
                   for spec, (_, cells, _) in zip(schema.feature_columns, features)}
    except CsvParseError as err:
        raise CsvParseError(f"{path}: {err}") from None
    return RawTable(
        schema=schema,
        columns=columns,
        times=np.asarray(times, dtype=np.float64),
        observed=np.asarray(observed, dtype=bool),
        dropped_rows=tuple(ln for ln, _ in bad),
    )


# ---------------------------------------------------------------------------
# Preprocessing


@dataclass(frozen=True)
class PreprocessStats:
    """Training-fold statistics: min/max per continuous column, level
    vocabulary per categorical column, and which columns had missing cells."""

    continuous: dict  # name -> (min, max)
    categorical: dict  # name -> tuple of levels
    has_missing: dict  # name -> bool

    def __post_init__(self):
        for name, (lo, hi) in self.continuous.items():
            if not lo <= hi:
                raise ValueError(f"column {name!r}: min {lo} > max {hi}")
        for name, levels in self.categorical.items():
            if not levels:
                raise ValueError(f"column {name!r}: empty level vocabulary")

    def to_doc(self):
        """JSON-ready form, read back by `from_doc`."""
        return {
            "continuous": {k: [lo, hi] for k, (lo, hi) in self.continuous.items()},
            "categorical": {k: list(v) for k, v in self.categorical.items()},
            "has_missing": dict(self.has_missing),
        }

    @classmethod
    def from_doc(cls, doc):
        """Stats from a `to_doc` document; a missing or malformed key raises
        ValueError naming it."""
        sections = {}
        for key, valid, convert in _STATS_DOC:
            if not isinstance(doc, dict) or not isinstance(doc.get(key), dict):
                raise ValueError(f"stats: missing or malformed key {key!r}")
            bad = [name for name, value in doc[key].items() if not valid(value)]
            if bad:
                raise ValueError(f"stats: malformed key {key}.{bad[0]}")
            sections[key] = {name: convert(value) for name, value in doc[key].items()}
        return cls(**sections)


# (to_doc key, check of one column's value, conversion back)
_STATS_DOC = (
    ("continuous", lambda v: isinstance(v, list) and len(v) == 2
     and all(isinstance(x, (int, float)) for x in v), lambda v: (float(v[0]), float(v[1]))),
    ("categorical", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), tuple),
    ("has_missing", lambda v: isinstance(v, bool), bool),
)


@dataclass(frozen=True)
class PreprocessResult:
    features: np.ndarray
    times: np.ndarray
    observed: np.ndarray
    feature_names: tuple
    stats: PreprocessStats


def _fit_stats(table: RawTable, rows) -> PreprocessStats:
    continuous, categorical, has_missing = {}, {}, {}
    for spec in table.schema.feature_columns:
        values, is_missing, vocabulary, _ = table.columns[spec.name]
        is_missing = is_missing[rows]
        present = values[rows][~is_missing]
        if spec.kind == "continuous":
            continuous[spec.name] = (
                (float(present.min()), float(present.max())) if len(present) else (0.0, 0.0)
            )
        elif len(present):
            categorical[spec.name] = tuple(vocabulary[k] for k in np.unique(present))
        else:
            raise ValueError(f"column {spec.name!r}: no levels observed in the training fold")
        has_missing[spec.name] = bool(is_missing.any())
    return PreprocessStats(continuous, categorical, has_missing)


def preprocess(table: RawTable, stats: PreprocessStats = None, rows=None) -> PreprocessResult:
    """Encode `table` rows into a numeric feature matrix.

    With stats=None the statistics are fitted on `rows` (the training
    fold); pass the fitted stats back in to encode validation/test rows
    without touching their values.  Continuous columns are min-max scaled
    (degenerate columns map to 0), categorical columns one-hot over the
    training vocabulary (unseen levels encode all-zero), and any column
    with training-fold missing cells gains one 0/1 indicator column;
    missing entries themselves encode as 0 after scaling (all-zero for
    categorical).  Every call only gathers `rows` from `table.columns`.
    """
    rows = np.arange(len(table)) if rows is None else np.asarray(rows, dtype=np.int64)
    if stats is None:
        stats = _fit_stats(table, rows)
    blocks, names = [], []
    for spec in table.schema.feature_columns:
        values, is_missing, vocabulary, _ = table.columns[spec.name]
        values, is_missing = values[rows], is_missing[rows]
        if spec.name not in (stats.continuous if spec.kind == "continuous" else stats.categorical):
            raise ValueError(f"stats do not cover {spec.kind} column {spec.name!r}")
        if spec.kind == "continuous":
            lo, hi = stats.continuous[spec.name]
            scaled = (values - lo) / (hi - lo) if hi > lo else np.zeros(len(rows))
            blocks.append(np.where(is_missing, 0.0, scaled)[:, None])
            names.append(spec.name)
        else:
            levels = stats.categorical[spec.name]
            column = {level: k for k, level in enumerate(levels)}
            # vocabulary code -> one-hot column; -1 (missing, unseen) stays all-zero
            hot = np.array([column.get(level, -1) for level in vocabulary] + [-1])[values]
            blocks.append((hot[:, None] == np.arange(len(levels))).astype(np.float64))
            names.extend(f"{spec.name}={level}" for level in levels)
        if stats.has_missing.get(spec.name, False):
            blocks.append(is_missing.astype(np.float64)[:, None])
            names.append(f"{spec.name}__missing")
    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return PreprocessResult(
        features=features,
        times=table.times[rows],
        observed=table.observed[rows],
        feature_names=tuple(names),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Fold splitting


def kfold_split(n, k, val_fraction, seed):
    """k train/val/test index triples: disjoint, exhaustive tests,
    validation carved from each fold's training portion, sorted arrays."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} records into {k} folds")
    if not (0.0 < val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    test_folds = np.array_split(perm, k)
    splits = []
    for i in range(k):
        rest = np.concatenate([test_folds[j] for j in range(k) if j != i])
        n_val = max(1, int(round(val_fraction * len(rest))))
        val, train = rest[:n_val], rest[n_val:]
        splits.append((np.sort(train), np.sort(val), np.sort(test_folds[i])))
    return splits


# ---------------------------------------------------------------------------
# Synthetic data

_RISK_PATTERN = np.array([2.0, -1.5, 1.0])
_RISK_SCALE = 9.0 / np.linalg.norm(_RISK_PATTERN)  # log-hazard spread, sets pair separability
_HORIZON = 100.0
_EULER = 0.5772156649015329
_MIN_BIN_FRACTION = 1.0 / 256.0


def _calibrate_censor_rate(rates, target):
    # P(censored | rate r) = c/(c+r) for the record's event rate r; solve
    # mean over the sample = target by bisection (monotone in c).
    lo, hi = float(rates.min()) * 1e-9 + 1e-300, float(rates.max())
    while np.mean(hi / (hi + rates)) < target:
        hi *= 2.0
    while np.mean(lo / (lo + rates)) > target:
        lo /= 2.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if np.mean(mid / (mid + rates)) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def generate_synthetic(n, num_features, censor_fraction, tie_density, seed) -> Dataset:
    """Exponential-hazard survival data with a known monotone risk.

    The log hazard is a fixed linear function of the first few features,
    so the oracle score (its negation) ranks pairs near-perfectly.
    Censoring times are independent exponentials whose rate is calibrated
    so the expected censored fraction hits `censor_fraction`; for n >= ~1000
    the realized fraction lands within a couple of percent.  Raw times are
    re-clocked through a fixed monotone squash onto [0, 100) so a uniform
    grid sees the whole range; tie_density in [0, 1] sets the bin width as
    a fraction of that horizon (1 forces nearly all records into one bin).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_features < 1:
        raise ValueError("num_features must be >= 1")
    if not (0.0 <= censor_fraction < 1.0):
        raise ValueError(f"censor_fraction must be in [0, 1), got {censor_fraction}")
    if not (0.0 <= tie_density <= 1.0):
        raise ValueError(f"tie_density must be in [0, 1], got {tie_density}")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, num_features))
    beta = _RISK_PATTERN[: min(3, num_features)] * _RISK_SCALE
    risk = features[:, : len(beta)] @ beta
    rates = np.exp(risk)
    event_times = rng.exponential(1.0 / rates)
    if censor_fraction > 0.0:
        censor_rate = _calibrate_censor_rate(rates, censor_fraction)
        censor_times = rng.exponential(1.0 / censor_rate, size=n)
        observed = event_times <= censor_times
        raw = np.minimum(event_times, censor_times)
    else:
        observed = np.ones(n, dtype=bool)
        raw = event_times
    # log raw ~ roughly normal with var ||beta||^2 + pi^2/6; squash to (0, horizon)
    spread = math.sqrt(float(beta @ beta) + math.pi**2 / 6.0)
    z = (np.log(raw) + _EULER) / spread
    times = _HORIZON / (1.0 + np.exp(-1.7 * z))
    bin_width = _HORIZON * max(tie_density, _MIN_BIN_FRACTION)
    grid = build_time_grid(times, bin_width)
    return Dataset(features, times, observed, grid)


def oracle_scores(dataset: Dataset) -> np.ndarray:
    """Negated true log hazard of `generate_synthetic` data (higher = later)."""
    beta = _RISK_PATTERN[: min(3, dataset.n_features)] * _RISK_SCALE
    return -(dataset.features[:, : len(beta)] @ beta)


# ---------------------------------------------------------------------------
# Export helpers


def save_csv(dataset: Dataset, path, feature_names=None):
    """Write a dataset as feature columns + time + event, round-trippable."""
    d = dataset.n_features
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length must match the feature count")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(feature_names) + ["time", "event"])
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(repr(float(dataset.times[i])))
            row.append("1" if dataset.observed[i] else "0")
            writer.writerow(row)


def schema_for_features(feature_names) -> DatasetSchema:
    """Schema matching `save_csv` output: all-continuous features."""
    columns = [ColumnSpec(name=n, kind="continuous") for n in feature_names]
    columns.append(ColumnSpec(name="time", kind="time"))
    columns.append(ColumnSpec(name="event", kind="event_indicator"))
    return DatasetSchema(columns=tuple(columns))
