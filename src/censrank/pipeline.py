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

Each feature cell is parsed as its row is read, into typed arrays (float64
values or int64 level codes, and missing flags), so no cell string outlives
its row; an unparseable numeric cell raises CsvParseError naming its column.
Every fold's stats and encoding are array gathers of its rows, written into
one preallocated feature matrix.
"""

import csv
import json
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, _check_int, build_time_grid
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
    "save_csv",
    "schema_for_features",
]

COLUMN_KINDS = ("continuous", "categorical", "time", "event_indicator")


def _strings(key, value):
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    missing: tuple = ("",)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"a column name must be a string, got {self.name!r}")
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"column {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "missing", _strings(f"column {self.name!r}: 'missing'",
                                                     self.missing))


@dataclass(frozen=True)
class DatasetSchema:
    columns: tuple
    event_true: tuple = ("1",)
    event_false: tuple = ("0",)
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.columns, (tuple, list)) or not all(
                isinstance(column, ColumnSpec) for column in self.columns):
            raise ValueError(f"'columns' must be a tuple of ColumnSpec, got {self.columns!r}")
        object.__setattr__(self, "columns", tuple(self.columns))
        for key in ("event_true", "event_false"):
            object.__setattr__(self, key, _strings(f"{key!r}", getattr(self, key)))
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"'delimiter' must be one character, got {self.delimiter!r}")
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


def _known_keys(where, doc, known):
    unknown = sorted(doc.keys() - set(known))
    if unknown:
        raise ValueError(f"{where}unknown key {unknown[0]!r}; known keys are {list(known)}")


def load_schema(path) -> DatasetSchema:
    """Read a schema file; raises ValueError naming a missing, malformed or unknown key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict):
        raise ValueError(f"{path}: 'columns' must be an object of column declarations")
    try:  # ColumnSpec and DatasetSchema check each value; errors get the path
        _known_keys("", doc, ("columns", "missing", "event_true", "event_false", "delimiter"))
        default_missing = _strings("'missing'", doc.get("missing", [""]))
        columns = []
        for name, decl in doc["columns"].items():
            if isinstance(decl, str):
                decl = {"kind": decl}
            if not isinstance(decl, dict) or "kind" not in decl:
                raise ValueError(f"column {name!r} has no 'kind'")
            _known_keys(f"column {name!r}: ", decl, ("kind", "missing"))
            columns.append(ColumnSpec(name, decl["kind"], decl.get("missing", default_missing)))
        return DatasetSchema(tuple(columns), doc.get("event_true", ["1"]),
                             doc.get("event_false", ["0"]), doc.get("delimiter", ","))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


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


def _column(values, flags, missing_cells, levels):
    """The Column of one feature's parsed arrays; level codes move from
    first-seen to sorted order."""
    is_missing = np.frombuffer(flags, dtype=bool)
    if levels is None:
        return Column(np.frombuffer(values, dtype=np.float64), is_missing, None, missing_cells)
    vocabulary = tuple(sorted(levels))
    rank = np.full(len(levels) + 1, -1, dtype=np.int64)  # -1 (missing) stays -1
    rank[[levels[level] for level in vocabulary]] = np.arange(len(vocabulary))
    return Column(rank[np.frombuffer(values, dtype=np.int64)], is_missing, vocabulary, missing_cells)


def load_csv(path, schema: DatasetSchema, on_bad_rows="error") -> RawTable:
    """Read a delimited file against `schema`.

    Rows whose time or event field does not parse are rejected with the
    1-based file line each starts on; on_bad_rows selects whether that
    raises or drops.  A header that repeats a schema column, or a numeric feature
    cell that does not parse to a finite number, raises CsvParseError naming the
    column (the first such column in schema order, and its first bad cell).
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
        # per feature column: its index, position and sentinels, values (0.0 or -1 where
        # missing), missing flags, then missing cells and (categorical) levels by first sight
        features = [(k, positions[spec.name], frozenset(spec.missing),
                     *((array("q"), -1) if spec.kind == "categorical" else (array("d"), 0.0)),
                     bytearray(), {}, {} if spec.kind == "categorical" else None)
                    for k, spec in enumerate(schema.feature_columns)]
        times, observed, bad, unparseable, start = array("d"), bytearray(), [], {}, 2
        for row in reader:
            lineno, start = start, reader.line_num + 1  # a quoted cell may span lines
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
            for k, at, missing, values, fill, flags, missing_cells, levels in features:
                cell = row[at].strip()
                flags.append(is_missing := cell in missing)
                if is_missing:
                    values.append(fill)
                    missing_cells.setdefault(cell)
                elif levels is not None:
                    values.append(levels.setdefault(cell, len(levels)))
                else:
                    try:
                        if not math.isfinite(number := float(cell)):
                            raise ValueError  # like a time, a feature value is finite
                        values.append(number)
                    except ValueError:  # raised below, after any bad rows
                        values.append(0.0)
                        unparseable.setdefault(k, cell)
        if bad and on_bad_rows == "error":
            shown = "; ".join(f"line {ln}: {why}" for ln, why in bad[:10])
            more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
            raise CsvParseError(f"{path}: {len(bad)} bad rows: {shown}{more}")
    if unparseable:
        k = min(unparseable)
        raise CsvParseError(f"{path}: column {schema.feature_columns[k].name!r}: "
                            f"unparseable numeric value {unparseable[k]!r}")
    columns = {spec.name: _column(values, flags, tuple(missing_cells), levels)
               for spec, (*_, values, _, flags, missing_cells, levels)
               in zip(schema.feature_columns, features)}
    return RawTable(schema, columns, np.frombuffer(times, dtype=np.float64),
                    np.frombuffer(observed, dtype=bool), tuple(ln for ln, _ in bad))


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
    categorical).  Each call gathers `rows` of `table.columns` into one matrix.
    """
    rows = np.arange(len(table)) if rows is None else np.asarray(rows, dtype=np.int64)
    if stats is None:
        stats = _fit_stats(table, rows)
    names = []
    for spec in table.schema.feature_columns:
        if spec.name not in (stats.continuous if spec.kind == "continuous" else stats.categorical):
            raise ValueError(f"stats do not cover {spec.kind} column {spec.name!r}")
        names.extend([spec.name] if spec.kind == "continuous" else
                     [f"{spec.name}={level}" for level in stats.categorical[spec.name]])
        if stats.has_missing.get(spec.name, False):
            names.append(f"{spec.name}__missing")
    features, j = np.zeros((len(rows), len(names))), 0  # every block is written in place
    for spec in table.schema.feature_columns:
        values, is_missing, vocabulary, _ = table.columns[spec.name]
        if spec.kind == "continuous":
            lo, hi = stats.continuous[spec.name]
            if hi > lo:  # a degenerate column stays 0
                column = np.subtract(values[rows], lo, out=features[:, j])
                column /= hi - lo
                column[is_missing[rows]] = 0.0
            j += 1
        else:  # one-hot over the training levels; missing and unseen cells stay all-zero
            codes, code = values[rows], {level: c for c, level in enumerate(vocabulary)}
            for level in stats.categorical[spec.name]:
                np.equal(codes, code.get(level, -2), out=features[:, j])  # -2 matches no row
                j += 1
            del codes  # so no gathered column outlives its block
        if stats.has_missing.get(spec.name, False):
            features[:, j] = is_missing[rows]
            j += 1
    return PreprocessResult(features, table.times[rows], table.observed[rows], tuple(names), stats)


# ---------------------------------------------------------------------------
# Fold splitting


def kfold_split(n, k, val_fraction, seed):
    """k train/val/test index triples: disjoint, exhaustive tests,
    validation carved from each fold's training portion, sorted arrays."""
    _check_int("k", k, 2)
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
_SQUASH_SLOPE = 1.7  # logistic slope of the re-clock onto (0, _HORIZON)
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
    _check_int("n", n, 1)
    _check_int("num_features", num_features, 1)
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
    times = _HORIZON / (1.0 + np.exp(-_SQUASH_SLOPE * z))
    bin_width = _HORIZON * max(tie_density, _MIN_BIN_FRACTION)
    grid = build_time_grid(times, bin_width)
    return Dataset(features, times, observed, grid)


# ---------------------------------------------------------------------------
# Export helpers


def save_csv(dataset: Dataset, path):
    """Write a dataset as feature columns f0, f1, ... + time + event, round-trippable."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.n_features)] + ["time", "event"])
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
