import csv
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from censrank import pipeline
from censrank.errors import CsvParseError
from censrank.harness import cv_splits, fold_encoder
from censrank.metrics import c_index
from censrank.pipeline import (
    ColumnSpec,
    DatasetSchema,
    PreprocessStats,
    RawTable,
    generate_synthetic,
    kfold_split,
    load_csv,
    load_schema,
    preprocess,
    save_csv,
    save_schema,
    schema_for_features,
)

from conftest import oracle_pmf, oracle_scores


def _toy_schema(**kwargs):
    columns = (
        ColumnSpec("age", "continuous"),
        ColumnSpec("group", "categorical"),
        ColumnSpec("days", "time"),
        ColumnSpec("dead", "event_indicator"),
    )
    return DatasetSchema(columns=columns, **kwargs)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSchema:
    def test_requires_exactly_one_time_column(self):
        with pytest.raises(ValueError):
            DatasetSchema(
                columns=(
                    ColumnSpec("t1", "time"),
                    ColumnSpec("t2", "time"),
                    ColumnSpec("dead", "event_indicator"),
                )
            )
        with pytest.raises(ValueError):
            DatasetSchema(columns=(ColumnSpec("dead", "event_indicator"),))

    def test_requires_exactly_one_event_column(self):
        with pytest.raises(ValueError):
            DatasetSchema(columns=(ColumnSpec("days", "time"),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            DatasetSchema(
                columns=(
                    ColumnSpec("x", "continuous"),
                    ColumnSpec("x", "categorical"),
                    ColumnSpec("days", "time"),
                    ColumnSpec("dead", "event_indicator"),
                )
            )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ColumnSpec("x", "ordinal")

    @pytest.mark.parametrize("options, key", [
        ({"event_true": "yes"}, "'event_true' must be a list of strings"),
        ({"event_true": ["yes", 1]}, "'event_true' must be a list of strings"),
        ({"event_false": "no"}, "'event_false' must be a list of strings"),
        ({"event_false": None}, "'event_false' must be a list of strings"),
        ({"delimiter": ";;"}, "'delimiter' must be one character"),
        ({"delimiter": ""}, "'delimiter' must be one character"),
        ({"delimiter": 1}, "'delimiter' must be one character"),
    ])
    def test_a_schema_built_in_code_is_checked(self, options, key):
        with pytest.raises(ValueError, match=key):
            _toy_schema(**options)

    @pytest.mark.parametrize("missing", ["NA", ["", None], 0])
    def test_a_column_built_in_code_is_checked(self, missing):
        with pytest.raises(ValueError, match="column 'e': 'missing' must be a list of strings"):
            ColumnSpec("e", "event_indicator", missing=missing)

    @pytest.mark.parametrize("columns", [
        ("days",), [ColumnSpec("days", "time"), {"name": "dead"}], None, "days",
        (ColumnSpec("days", "time"), ColumnSpec("dead", "event_indicator"), ["age"]),
    ])
    def test_schema_columns_built_in_code_are_checked(self, columns):
        message = re.escape(f"'columns' must be a tuple of ColumnSpec, got {columns!r}")
        with pytest.raises(ValueError, match=message):
            DatasetSchema(columns=columns)

    @pytest.mark.parametrize("name", [1, None, ("days",), b"days"])
    def test_a_column_name_must_be_a_string(self, name):
        with pytest.raises(ValueError, match="a column name must be a string"):
            ColumnSpec(name, "time")

    def test_lists_given_in_code_are_kept_as_tuples(self):
        schema = _toy_schema(event_true=["yes", "1"], event_false=[])
        assert schema.event_true == ("yes", "1") and schema.event_false == ()
        assert ColumnSpec("age", "continuous", missing=["", "NA"]).missing == ("", "NA")

    def test_round_trip_through_file(self, tmp_path):
        schema = _toy_schema(event_true=("yes", "1"), event_false=("no",), delimiter=";")
        path = tmp_path / "schema.json"
        save_schema(schema, str(path))
        loaded = load_schema(str(path))
        assert loaded == schema

    def test_columns_must_be_an_object(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"columns": ["days", "dead"]}))
        with pytest.raises(ValueError, match="'columns'"):
            load_schema(str(path))

    def test_column_without_kind_is_named(self, tmp_path):
        path = tmp_path / "schema.json"
        columns = {"days": "time", "dead": "event_indicator", "age": {"missing": ["NA"]}}
        path.write_text(json.dumps({"columns": columns}))
        with pytest.raises(ValueError, match="column 'age' has no 'kind'"):
            load_schema(str(path))

    @pytest.mark.parametrize("doc, key", [
        ({"missing": "NA"}, "'missing'"),
        ({"missing": ["", None]}, "'missing'"),
        ({"event_true": "yes"}, "'event_true'"),
        ({"event_true": [1]}, "'event_true'"),
        ({"event_false": "no"}, "'event_false'"),
        ({"event_false": {"0": 1}}, "'event_false'"),
        ({"columns": {"age": {"kind": "continuous", "missing": "NA"}}}, "column 'age': 'missing'"),
        ({"columns": {"age": {"kind": "continuous", "missing": [0]}}}, "column 'age': 'missing'"),
    ])
    def test_a_string_or_non_strings_where_a_list_belongs_is_named(self, tmp_path, doc, key):
        columns = {"days": "time", "dead": "event_indicator", **doc.pop("columns", {})}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({**doc, "columns": columns}))
        with pytest.raises(ValueError, match=f"{key} must be a list of strings"):
            load_schema(str(path))

    @pytest.mark.parametrize("delimiter", ["", ";;", 1, None])
    def test_a_delimiter_of_other_than_one_character_is_named(self, tmp_path, delimiter):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"delimiter": delimiter,
                                    "columns": {"days": "time", "dead": "event_indicator"}}))
        with pytest.raises(ValueError, match="'delimiter' must be one character"):
            load_schema(str(path))

    @pytest.mark.parametrize("doc, named", [
        ({"delimeter": ";"}, "unknown key 'delimeter'"),
        ({"columns": {"grp": {"kind": "categorical", "mising": ["NA"]}}},
         "column 'grp': unknown key 'mising'"),
    ])
    def test_an_unknown_key_is_named(self, tmp_path, doc, named):
        columns = {"days": "time", "dead": "event_indicator", **doc.pop("columns", {})}
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({**doc, "columns": columns}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
            load_schema(str(path))

    def test_lists_of_strings_load_as_tuples(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({
            "delimiter": "\t", "missing": ["", "NA"], "event_true": ["yes", "1"],
            "event_false": [], "columns": {"days": "time", "dead": "event_indicator",
                                           "age": {"kind": "continuous", "missing": ["?"]},
                                           "grp": "categorical"}}))
        schema = load_schema(str(path))
        assert schema.delimiter == "\t" and schema.event_true == ("yes", "1")
        assert schema.event_false == ()
        assert [c.missing for c in schema.columns] == [("", "NA"), ("", "NA"), ("?",), ("", "NA")]

    def test_json_shape_is_documented_format(self, tmp_path):
        path = tmp_path / "schema.json"
        save_schema(_toy_schema(), str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"delimiter", "event_true", "event_false", "columns"}
        assert doc["columns"]["age"]["kind"] == "continuous"


class TestLoadCsv:
    def test_toy_file(self, tmp_path):
        path = _write(
            tmp_path,
            "age,group,days,dead\n61,a,10,1\n48,b,20,0\n70,a,5,1\n",
        )
        table = load_csv(path, _toy_schema())
        assert len(table) == 3
        assert np.array_equal(table.times, [10.0, 20.0, 5.0])
        assert np.array_equal(table.observed, [True, False, True])
        codes, is_missing, vocabulary, missing_cells = table.columns["group"]
        assert codes.tolist() == [0, 1, 0] and vocabulary == ("a", "b")
        assert not is_missing.any() and missing_cells == ()

    def test_loaded_table_holds_parsed_arrays_and_no_cell_strings(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead\n61,a,10,1\n,b,20,0\n70,,5,1\n")
        table = load_csv(path, _toy_schema())
        assert list(table.columns) == ["age", "group"]
        for name, column in table.columns.items():
            assert type(column) is pipeline.Column, name
            values, is_missing, vocabulary, missing_cells = column
            assert isinstance(values, np.ndarray) and isinstance(is_missing, np.ndarray)
            assert values.dtype != object and is_missing.dtype == bool
            assert vocabulary is None or type(vocabulary) is tuple
            assert missing_cells == ("",), name  # the distinct missing cells, not one per row
        assert table.columns["age"][0].tolist() == [61.0, 0.0, 70.0]
        assert table.columns["age"][1].tolist() == [False, True, False]
        assert table.columns["group"][0].tolist() == [0, 1, -1]
        assert not any(isinstance(value, list) for value in vars(table).values())

    def test_a_column_contains_the_cells_it_read(self, tmp_path):
        schema = DatasetSchema(columns=tuple(
            replace(spec, missing=("", "NA")) for spec in _toy_schema().columns))
        path = _write(tmp_path, "age,group,days,dead\n61,a,10,1\nNA,b,20,0\n70.5,NA,5,1\n")
        age, group = load_csv(path, schema).columns.values()
        assert "NA" in age and "NA" in group and "" not in age
        assert "a" in group and "b" in group and "c" not in group and "61" not in group
        assert "61" not in age  # a continuous column keeps no cell text but its missing cells

    def test_repeated_schema_column_in_header_rejected(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead,age\n61,a,10,1,62\n")
        with pytest.raises(CsvParseError, match="column 'age' repeats in the header"):
            load_csv(path, _toy_schema())
        # a repeated column the schema does not name is still ignored
        path = _write(tmp_path, "age,group,days,dead,x,x\n61,a,10,1,0,1\n", name="extra.csv")
        assert len(load_csv(path, _toy_schema())) == 1

    def test_missing_column_named_in_error(self, tmp_path):
        path = _write(tmp_path, "age,group,dead\n61,a,1\n")
        with pytest.raises(CsvParseError, match="days"):
            load_csv(path, _toy_schema())

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = _write(
            tmp_path,
            "age,group,days,dead\n61,a,10,1\n48,b,oops,0\n70,a,5,banana\n",
        )
        with pytest.raises(CsvParseError) as err:
            load_csv(path, _toy_schema())
        assert "line 3" in str(err.value)
        assert "line 4" in str(err.value)

    def test_drop_mode_keeps_good_rows(self, tmp_path):
        path = _write(
            tmp_path,
            "age,group,days,dead\n61,a,10,1\n48,b,oops,0\n70,a,5,0\n",
        )
        table = load_csv(path, _toy_schema(), on_bad_rows="drop")
        assert len(table) == 2
        assert table.dropped_rows == (3,)

    # five file lines, four records: the quoted cell of line 3 runs on to line 4
    MULTILINE = 'age,group,days,dead\n61,a,10,1\n48,"b\nc",20,0\n70,a,oops,1\n'

    def test_bad_rows_are_numbered_by_file_line_past_a_multiline_cell(self, tmp_path):
        path = _write(tmp_path, self.MULTILINE)
        with pytest.raises(CsvParseError, match=r"1 bad rows: line 5: unparseable time 'oops'$"):
            load_csv(path, _toy_schema())
        table = load_csv(path, _toy_schema(), on_bad_rows="drop")
        assert table.dropped_rows == (5,)
        assert table.columns["group"].vocabulary == ("a", "b\nc")

    def test_a_bad_row_that_spans_lines_is_numbered_by_its_first_line(self, tmp_path):
        path = _write(tmp_path, 'age,group,days,dead\n\n61,"a\n\nb",x,1\n70,a,5,?\n')
        with pytest.raises(CsvParseError, match="line 3: unparseable time 'x'; "
                                                "line 6: unparseable event '\\?'"):
            load_csv(path, _toy_schema())

    def test_negative_time_is_a_bad_row(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead\n61,a,-4,1\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path, _toy_schema())

    def test_wrong_field_count_is_a_bad_row(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead\n61,a,10\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(path, _toy_schema())

    def test_custom_delimiter_and_event_labels(self, tmp_path):
        path = _write(tmp_path, "age;group;days;dead\n61;a;10;yes\n")
        schema = _toy_schema(event_true=("yes",), event_false=("no",), delimiter=";")
        table = load_csv(path, schema)
        assert np.array_equal(table.observed, [True])

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(CsvParseError):
            load_csv(_write(tmp_path, ""), _toy_schema())


class TestPreprocess:
    def _table(self, tmp_path, body):
        return load_csv(_write(tmp_path, "age,group,days,dead\n" + body), _toy_schema())

    def test_one_hot_encoding(self, tmp_path):
        table = self._table(tmp_path, "1,a,1,1\n2,b,2,1\n3,c,3,1\n")
        result = preprocess(table)
        names = list(result.feature_names)
        assert names == ["age", "group=a", "group=b", "group=c"]
        # row with "b" one-hots to [0,1,0]
        assert np.array_equal(result.features[1, 1:], [0.0, 1.0, 0.0])

    def test_min_max_scaling_with_fitted_stats(self, tmp_path):
        train = self._table(tmp_path, "0,a,1,1\n10,a,2,1\n")
        fitted = preprocess(train)
        test = load_csv(
            _write(tmp_path, "age,group,days,dead\n5,a,3,1\n", name="test.csv"),
            _toy_schema(),
        )
        encoded = preprocess(test, stats=fitted.stats)
        assert encoded.features[0, 0] == 0.5
        assert list(encoded.feature_names) == list(fitted.feature_names)

    def test_degenerate_continuous_column_maps_to_zero(self, tmp_path):
        table = self._table(tmp_path, "7,a,1,1\n7,a,2,1\n")
        assert np.array_equal(preprocess(table).features[:, 0], [0.0, 0.0])

    def test_missing_values_get_indicator_column(self, tmp_path):
        table = self._table(tmp_path, "1,a,1,1\n,a,2,1\n3,a,3,1\n")
        result = preprocess(table)
        names = list(result.feature_names)
        assert "age__missing" in names
        idx = names.index("age__missing")
        assert np.array_equal(result.features[:, idx], [0.0, 1.0, 0.0])
        # the missing entry itself encodes as 0 after scaling
        assert result.features[1, names.index("age")] == 0.0

    def test_missing_categorical_encodes_all_zero(self, tmp_path):
        table = self._table(tmp_path, "1,a,1,1\n2,,2,1\n3,b,3,1\n")
        result = preprocess(table)
        names = list(result.feature_names)
        a, b = names.index("group=a"), names.index("group=b")
        assert np.array_equal(result.features[1, [a, b]], [0.0, 0.0])
        assert np.array_equal(
            result.features[:, names.index("group__missing")], [0.0, 1.0, 0.0]
        )

    def test_unseen_level_encodes_all_zero(self, tmp_path):
        train = self._table(tmp_path, "1,a,1,1\n2,b,2,1\n")
        fitted = preprocess(train)
        test = load_csv(
            _write(tmp_path, "age,group,days,dead\n1,z,3,1\n", name="unseen.csv"),
            _toy_schema(),
        )
        encoded = preprocess(test, stats=fitted.stats)
        names = list(encoded.feature_names)
        assert np.array_equal(
            encoded.features[0, [names.index("group=a"), names.index("group=b")]],
            [0.0, 0.0],
        )

    def test_stats_come_from_training_rows_only(self, tmp_path):
        # same training rows, with and without extra rows in the table:
        # the fitted statistics must be identical
        full = self._table(tmp_path, "1,a,1,1\n5,b,2,1\n100,z,3,0\n")
        train_only = load_csv(
            _write(tmp_path, "age,group,days,dead\n1,a,1,1\n5,b,2,1\n", name="sub.csv"),
            _toy_schema(),
        )
        stats_full = preprocess(full, rows=[0, 1]).stats
        stats_sub = preprocess(train_only).stats
        assert stats_full.continuous == stats_sub.continuous
        assert stats_full.categorical == stats_sub.categorical
        assert stats_full.has_missing == stats_sub.has_missing

    def test_unparseable_numeric_feature_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="age"):
            self._table(tmp_path, "notanumber,a,1,1\n")

    def test_fold_datasets_bin_all_times(self, tmp_path):
        # every fold shares one grid over the whole table's time range
        table = self._table(tmp_path, "1,a,10,1\n2,b,25,0\n")
        encode = fold_encoder(table, 10.0)
        (train, val, test), (feature_names, _) = encode(([0], [1], [1]))
        (other, _, _), _ = encode(([1], [0], [0]))
        assert train.grid is val.grid is test.grid is other.grid
        assert train.grid.num_bins == 3
        assert np.array_equal(train.bins, [1])
        assert np.array_equal(test.bins, [2])
        assert train.features.shape == (1, len(feature_names))


# The per-cell parse and per-row one-hot that preprocess used before columns
# were parsed once per table, kept literally as the oracle for the array path;
# it reads the cell strings the test wrote, not the loaded table's arrays.


def _oracle_parse_continuous(name, cells, rows, missing):
    values = np.zeros(len(rows))
    is_missing = np.zeros(len(rows), dtype=bool)
    for out_i, r in enumerate(rows):
        cell = cells[r]
        if cell in missing:
            is_missing[out_i] = True
            continue
        try:
            values[out_i] = float(cell)
        except ValueError:
            raise CsvParseError(f"column {name!r}: unparseable numeric value {cell!r}") from None
    return values, is_missing


def _oracle_fit_stats(table, cells_by_name, rows):
    continuous, categorical, has_missing = {}, {}, {}
    for spec in table.schema.feature_columns:
        cells = cells_by_name[spec.name]
        if spec.kind == "continuous":
            values, is_missing = _oracle_parse_continuous(spec.name, cells, rows, spec.missing)
            present = values[~is_missing]
            if len(present):
                continuous[spec.name] = (float(present.min()), float(present.max()))
            else:
                continuous[spec.name] = (0.0, 0.0)
            has_missing[spec.name] = bool(is_missing.any())
        else:
            levels = sorted({cells[r] for r in rows} - set(spec.missing))
            if not levels:
                raise ValueError(f"column {spec.name!r}: no levels observed in the training fold")
            categorical[spec.name] = tuple(levels)
            has_missing[spec.name] = any(cells[r] in spec.missing for r in rows)
    return PreprocessStats(continuous, categorical, has_missing)


def _oracle_preprocess(table, cells_by_name, stats=None, rows=None):
    rows = np.arange(len(table)) if rows is None else np.asarray(rows, dtype=np.int64)
    if stats is None:
        stats = _oracle_fit_stats(table, cells_by_name, rows)
    blocks, names = [], []
    for spec in table.schema.feature_columns:
        cells = cells_by_name[spec.name]
        if spec.kind == "continuous":
            lo, hi = stats.continuous[spec.name]
            values, is_missing = _oracle_parse_continuous(spec.name, cells, rows, spec.missing)
            scaled = (values - lo) / (hi - lo) if hi > lo else np.zeros(len(rows))
            scaled = np.where(is_missing, 0.0, scaled)
            blocks.append(scaled[:, None])
            names.append(spec.name)
        else:
            levels = stats.categorical[spec.name]
            onehot = np.zeros((len(rows), len(levels)))
            index = {level: k for k, level in enumerate(levels)}
            is_missing = np.zeros(len(rows), dtype=bool)
            for out_i, r in enumerate(rows):
                cell = cells[r]
                if cell in spec.missing:
                    is_missing[out_i] = True
                elif cell in index:
                    onehot[out_i, index[cell]] = 1.0
            blocks.append(onehot)
            names.extend(f"{spec.name}={level}" for level in levels)
        if stats.has_missing.get(spec.name, False):
            blocks.append(is_missing.astype(np.float64)[:, None])
            names.append(f"{spec.name}__missing")
    features = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    return features, tuple(names), stats


def _mixed_table(tmp_path, n=80, seed=0):
    """(table loaded from a CSV, that CSV's feature cells by column name).

    The table holds every case the encoder must handle: missing cells of
    two sentinels, a degenerate column, a column present only in rows 0-4,
    a rare level only in rows 5-6, and levels first seen in non-sorted
    order."""
    rng = np.random.default_rng(seed)
    schema = DatasetSchema(columns=(
        ColumnSpec("x", "continuous", missing=("", "NA")),
        ColumnSpec("const", "continuous"),
        ColumnSpec("sparse", "continuous"),
        ColumnSpec("grp", "categorical", missing=("", "?")),
        ColumnSpec("t", "time"),
        ColumnSpec("e", "event_indicator"),
    ))
    x = [repr(float(v)) for v in np.round(rng.normal(50.0, 20.0, n), 3)]
    for r in rng.choice(n, n // 6, replace=False):
        x[r] = ("", "NA")[r % 2]
    x[10], x[11], x[12] = "-0", "1e2", "0.1"
    sparse = [repr(float(v)) if r < 5 else "" for r, v in enumerate(rng.uniform(size=n))]
    levels = ["zeta", "alpha", "Mid", "beta", "", "?"]
    grp = [levels[k] for k in rng.integers(0, len(levels), n)]
    grp[:4] = ["zeta", "alpha", "Mid", "beta"]
    grp[5] = grp[6] = "omega"
    cells = {"x": x, "const": ["7"] * n, "sparse": sparse, "grp": grp}
    times = [repr(float(t)) for t in rng.uniform(0.0, 30.0, n)]
    events = ["1" if e else "0" for e in rng.uniform(size=n) < 0.7]
    path = tmp_path / "mixed.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([[*cells, "t", "e"], *zip(*cells.values(), times, events)])
    table = load_csv(str(path), schema)
    assert isinstance(table, RawTable) and len(table) == n
    return table, cells


def _assert_matches_oracle(table, cells, rows, test_rows):
    fit = preprocess(table, rows=rows)
    features, names, stats = _oracle_preprocess(table, cells, rows=rows)
    assert fit.stats == stats
    assert fit.feature_names == names
    assert fit.features.dtype == features.dtype and fit.features.shape == features.shape
    assert fit.features.tobytes() == features.tobytes()
    encoded = preprocess(table, stats=fit.stats, rows=test_rows)
    features, names, _ = _oracle_preprocess(table, cells, stats=stats, rows=test_rows)
    assert encoded.feature_names == names
    assert encoded.features.tobytes() == features.tobytes()
    assert np.array_equal(encoded.times, table.times[test_rows])
    assert np.array_equal(encoded.observed, table.observed[test_rows])


class TestParseOnce:
    def test_random_row_subsets_match_the_per_row_oracle_bitwise(self, tmp_path):
        table, cells = _mixed_table(tmp_path)
        rng = np.random.default_rng(1)
        for _ in range(25):
            perm = rng.permutation(len(table))
            cut = int(rng.integers(20, 70))
            _assert_matches_oracle(table, cells, perm[:cut], perm[cut:])
        # sorted rows, as kfold_split gives them
        _assert_matches_oracle(table, cells, np.arange(0, 80, 2), np.arange(1, 80, 2))

    def test_unseen_levels_and_all_missing_training_column(self, tmp_path):
        table, cells = _mixed_table(tmp_path)
        train = np.arange(7, len(table))  # no "omega", and "sparse" all missing
        fit = preprocess(table, rows=train)
        assert "omega" not in fit.stats.categorical["grp"]
        assert fit.stats.continuous["sparse"] == (0.0, 0.0)
        assert fit.stats.continuous["const"] == (7.0, 7.0)
        assert fit.stats.categorical["grp"] == ("Mid", "alpha", "beta", "zeta")
        _assert_matches_oracle(table, cells, train, np.arange(7))
        encoded = preprocess(table, stats=fit.stats, rows=[5, 6])
        grp = [i for i, name in enumerate(encoded.feature_names) if name.startswith("grp=")]
        assert not encoded.features[:, grp].any()

    def test_categorical_column_all_missing_in_training_is_rejected(self, tmp_path):
        table, cells = _mixed_table(tmp_path)
        rows = [r for r, g in enumerate(cells["grp"]) if g in ("", "?")]
        with pytest.raises(ValueError, match="grp"):
            preprocess(table, rows=rows)
        with pytest.raises(ValueError, match="grp"):
            _oracle_preprocess(table, cells, rows=rows)

    def test_building_every_fold_parses_each_cell_once(self, tmp_path, monkeypatch):
        # the file is opened once and every numeric cell (each time, each
        # non-missing continuous cell) parsed once, row by row, all while
        # loading; building folds and encoding only gather parsed arrays
        opened, parsed = [], []

        def opening(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def parsing(value):
            if isinstance(value, str):
                parsed.append(value)
            return float(value)

        monkeypatch.setattr(pipeline, "open", opening, raising=False)
        monkeypatch.setattr(pipeline, "float", parsing, raising=False)
        table, cells = _mixed_table(tmp_path)
        with open(tmp_path / "mixed.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [cell for row in rows for cell in (
            row["t"], *(row[name] for name in ("x", "const", "sparse")
                        if row[name] not in ("", "NA")))]
        assert len(opened) == 1 and parsed == expected
        assert len(rows) == len(table) and [row["x"] for row in rows] == cells["x"]
        splits = cv_splits(len(table), 5, 0.2, 3)
        for _ in range(2):
            encode = fold_encoder(table, 1.0)
            for split in splits:
                encode(split)
        preprocess(table)
        assert len(opened) == 1 and parsed == expected

    def test_unparseable_numeric_cell_outside_rows_is_rejected(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead\n1,a,1,1\n2,b,2,1\nbad,a,3,1\n")
        with pytest.raises(CsvParseError, match="column 'age': unparseable numeric value 'bad'"):
            load_csv(path, _toy_schema())


# A slow reference loader for random tables: it splits the file one
# character at a time (RFC-4180 quoting, "\n" line ends) and parses every
# cell on its own, so it shares no code with load_csv.


def _reference_records(text, delimiter):
    """(first file line, fields) of every record, blank lines included."""
    records, fields, cell, quoted, line, start = [], [], "", False, 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if quoted and ch == '"' and text[i + 1 : i + 2] == '"':
            cell += '"'
            i += 1
        elif ch == '"':
            quoted = not quoted
        elif quoted or (ch != delimiter and ch != "\n"):
            cell += ch
            line += ch == "\n"
        elif ch == delimiter:
            fields.append(cell)
            cell = ""
        else:
            records.append((start, fields + [cell]))
            fields, cell, line = [], "", line + 1
            start = line
        i += 1
    if fields or cell:
        records.append((start, fields + [cell]))
    return records


def _reference_load(path, schema, on_bad_rows):
    """(times, observed, {name: (values, is_missing, vocabulary, missing
    cells)}, dropped lines), or the CsvParseError message load_csv raises."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = _reference_records(fh.read(), schema.delimiter)
    header = [name.strip() for name in records[0][1]]
    times, observed, kept, bad = [], [], [], []
    for line, fields in records[1:]:
        if fields == [""]:
            continue  # a blank line
        if len(fields) != len(header):
            bad.append(f"line {line}: expected {len(header)} fields, got {len(fields)}")
            continue
        cell = dict(zip(header, fields))
        raw_time = cell[schema.time_column.name].strip()
        try:
            t = float(raw_time)
        except ValueError:
            t = math.nan
        if not (math.isfinite(t) and t >= 0):
            bad.append(f"line {line}: unparseable time {raw_time!r}")
            continue
        raw_event = cell[schema.event_column.name].strip()
        if raw_event not in schema.event_true + schema.event_false:
            bad.append(f"line {line}: unparseable event {raw_event!r}")
            continue
        times.append(t)
        observed.append(raw_event in schema.event_true)
        kept.append((line, cell))
    if bad and on_bad_rows == "error":
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        return f"{path}: {len(bad)} bad rows: {'; '.join(bad[:10])}{more}"
    columns = {}
    for spec in schema.feature_columns:
        cells = [cell[spec.name].strip() for _, cell in kept]
        is_missing = [c in spec.missing for c in cells]
        missing_cells = tuple(dict.fromkeys(c for c in cells if c in spec.missing))
        if spec.kind == "categorical":
            vocabulary = tuple(sorted({c for c in cells if c not in spec.missing}))
            values = [-1 if m else vocabulary.index(c) for c, m in zip(cells, is_missing)]
            columns[spec.name] = (values, is_missing, vocabulary, missing_cells)
            continue
        values = []
        for c, m in zip(cells, is_missing):
            try:
                values.append(0.0 if m else float(c))
                if not math.isfinite(values[-1]):
                    raise ValueError
            except ValueError:
                return f"{path}: column {spec.name!r}: unparseable numeric value {c!r}"
        columns[spec.name] = (values, is_missing, None, missing_cells)
    dropped = tuple(int(why.split(":")[0][5:]) for why in bad)
    return times, observed, columns, dropped


_LEVELS = ("a", "b", "a,b", 'say "hi"', "two\nlines", "x;y", "tab\there", "NA", "1.5", "?")
_TOKENS = ("", "NA", "?", "null")


def _random_table(tmp_path, seed):
    """A random file and schema: shuffled and extra columns, padded cells,
    several missing tokens, levels holding delimiters, quotes and newlines,
    blank lines, bad rows of every kind and (sometimes) unparseable cells."""
    rng = np.random.default_rng(seed)
    delimiter = str(rng.choice([",", ";", "\t", "|"]))
    specs = []
    for k in range(int(rng.integers(1, 6))):
        missing = tuple(str(t) for t in rng.choice(_TOKENS, int(rng.integers(1, 4)), replace=False))
        specs.append(ColumnSpec(f"c{k}", str(rng.choice(["continuous", "categorical"])), missing))
    schema = DatasetSchema(columns=(*specs, ColumnSpec("t", "time"),
                                    ColumnSpec("e", "event_indicator")),
                           event_true=("1", "yes"), event_false=("0",), delimiter=delimiter)
    header = [spec.name for spec in schema.columns] + ["extra"]
    header = [header[k] for k in rng.permutation(len(header))]
    typos = rng.random() < 0.5  # then a few continuous cells do not parse
    bad = 0.0 if rng.random() < 0.4 else 1.0  # scales the chance of each kind of bad row

    def cell(spec):
        if rng.random() < 0.2:
            value = str(rng.choice(spec.missing))
        elif spec.kind == "categorical":
            value = str(rng.choice(_LEVELS))
        elif typos and rng.random() < 0.05:
            value = str(rng.choice(["abc", "1,5", "--1"]))
        else:
            value = str(rng.choice([repr(float(rng.normal(0, 100))), str(int(rng.integers(-9, 99))),
                                    "1e3", "-0", "nan"]))
        return " " * int(rng.integers(0, 2)) + value + " " * int(rng.integers(0, 2))

    rows = [header]
    for _ in range(int(rng.integers(0, 40))):
        row = {spec.name: cell(spec) for spec in specs}
        row["t"] = str(rng.choice(["0", "3.5", " 12 ", "1e2", "oops", "-1", "inf"],
                                  p=[0.2, 0.3, 0.2, 0.3 - 0.1 * bad, *[0.1 * bad / 3] * 3]))
        row["e"] = str(rng.choice(["1", "0", " yes", "maybe"], p=[0.4, 0.4, 0.2 - 0.03 * bad,
                                                                   0.03 * bad]))
        row["extra"] = str(rng.choice(["", "z", "line\nbreak"]))
        row = [row[name] for name in header]
        kind = rng.random()
        if kind < 0.03:
            row = []  # a blank line
        elif kind < 0.03 + 0.04 * bad:
            row = row[:-1]
        elif kind < 0.03 + 0.07 * bad:
            row = row + ["surplus"]
        rows.append(row)
    path = tmp_path / f"random-{seed}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return str(path), schema


class TestLoadCsvMatchesAPerCellReference:
    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("on_bad_rows", ["error", "drop"])
    def test_random_tables(self, tmp_path, seed, on_bad_rows):
        path, schema = _random_table(tmp_path, seed)
        expected = _reference_load(path, schema, on_bad_rows)
        if isinstance(expected, str):
            with pytest.raises(CsvParseError) as err:
                load_csv(path, schema, on_bad_rows=on_bad_rows)
            assert str(err.value) == expected
            return
        table = load_csv(path, schema, on_bad_rows=on_bad_rows)
        times, observed, columns, dropped = expected
        assert table.times.tobytes() == np.array(times, dtype=np.float64).tobytes()
        assert table.observed.dtype == bool and table.observed.tolist() == observed
        assert table.dropped_rows == dropped
        assert list(table.columns) == list(columns)
        for name, (values, is_missing, vocabulary, missing_cells) in columns.items():
            column = table.columns[name]
            dtype = np.float64 if vocabulary is None else np.int64
            assert column.values.dtype == dtype, name
            assert column.values.tobytes() == np.array(values, dtype=dtype).tobytes(), name
            assert column.is_missing.dtype == bool and column.is_missing.tolist() == is_missing
            assert column.vocabulary == vocabulary and column.missing_cells == missing_cells

    def test_the_seeds_cover_every_case(self, tmp_path):
        outcomes = set()
        for seed in range(60):
            path, schema = _random_table(tmp_path, seed)
            text = open(path, encoding="utf-8").read()
            for mode in ("error", "drop"):
                result = _reference_load(path, schema, mode)
                if isinstance(result, str):
                    outcomes.add(f"{mode}: " + ("column" if ": column " in result else "rows"))
                else:
                    outcomes.add(f"{mode}: loaded" + (" with drops" if result[3] else ""))
            outcomes |= {case for case, present in (
                ("multiline", '"two\nlines"' in text), ("quoted delimiter", '"a,b"' in text
                                                           or '"x;y"' in text),
                ("padded", " \n" in text or "  " in text)) if present}
        assert outcomes >= {"error: rows", "error: column", "error: loaded", "drop: column",
                            "drop: loaded with drops", "multiline", "quoted delimiter", "padded"}


_FUZZ_KINDS = ("spread", "constant", "all missing", "levels", "one level", "rare levels")


def _fuzz_table(tmp_path, seed):
    """A random file for `preprocess`: feature columns of every degenerate
    kind in `_FUZZ_KINDS`, missing cells under several tokens, levels some
    rows of which a training subset will not see, and (sometimes) one
    unparseable numeric cell.  Returns the path, the schema, each column's
    kind and the name of the column whose cell does not parse (or None)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    kinds = [str(k) for k in rng.choice(_FUZZ_KINDS, int(rng.integers(1, 7)))]
    specs = [ColumnSpec(f"c{k}", "continuous" if kind in _FUZZ_KINDS[:3] else "categorical",
                        ("", "NA", "?")) for k, kind in enumerate(kinds)]
    schema = DatasetSchema(columns=(*specs, ColumnSpec("t", "time"),
                                    ColumnSpec("e", "event_indicator")))
    p_missing = float(rng.choice([0.0, 0.1, 0.5]))
    cells = []
    for kind in kinds:
        column = {"spread": [repr(float(v)) for v in rng.normal(0, 50, n)],
                  "constant": ["4.25"] * n, "all missing": ["NA"] * n,
                  "levels": [f"L{v}" for v in rng.integers(0, 4, n)], "one level": ["only"] * n,
                  "rare levels": [f"r{v}" for v in rng.integers(0, n, n)]}[kind]
        column = [str(rng.choice(["", "NA", "?"])) if rng.random() < p_missing else c
                  for c in column]
        cells.append(column)
    bad = None
    numeric = [k for k, kind in enumerate(kinds) if kind in _FUZZ_KINDS[:3]]
    if numeric and rng.random() < 0.25:
        k = int(rng.choice(numeric))
        cells[k][int(rng.integers(n))] = str(rng.choice(["abc", "1,5", "nan", "-inf"]))
        bad = f"c{k}"
    cells += [[str(v) for v in rng.integers(0, 30, n)], [str(v) for v in rng.integers(0, 2, n)]]
    path = tmp_path / f"fuzz-{seed}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [[spec.name for spec in schema.columns], *zip(*cells)])
    return str(path), schema, kinds, bad


def _fuzz_rows(n, seed):
    """(sorted training rows, every row in a random order) of an n-row table."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)), rng.permutation(n)


def _untrained_categorical(table, train):
    """The categorical columns that hold no level in the training rows."""
    return [spec.name for spec in table.schema.feature_columns if spec.kind == "categorical"
            and table.columns[spec.name].is_missing[train].all()]


class TestPreprocessFuzz:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_tables_encode_within_their_invariants(self, tmp_path, seed):
        path, schema, kinds, bad = _fuzz_table(tmp_path, seed)
        if bad is not None:
            with pytest.raises(CsvParseError, match=f"column '{bad}': unparseable numeric"):
                load_csv(path, schema)
            return
        table = load_csv(path, schema)
        train, rows = _fuzz_rows(len(table), seed)
        untrained = _untrained_categorical(table, train)
        if untrained:
            with pytest.raises(ValueError, match=f"column '{untrained[0]}': no levels"):
                preprocess(table, rows=train)
            return
        stats = preprocess(table, rows=train).stats
        result = preprocess(table, stats, rows=rows)  # every row, unseen levels included
        features, names = result.features, result.feature_names
        assert np.all(np.isfinite(features))
        assert features.shape == (len(rows), len(names))
        j = 0
        for spec in schema.feature_columns:
            column = table.columns[spec.name]
            if spec.kind == "continuous":
                assert names[j] == spec.name
                j += 1
            else:
                width = len(stats.categorical[spec.name])
                assert names[j:j + width] == tuple(
                    f"{spec.name}={level}" for level in stats.categorical[spec.name])
                block = features[:, j:j + width]
                assert np.all((block == 0.0) | (block == 1.0))
                assert np.all(block.sum(axis=1) <= 1.0)
                assert not block[column.is_missing[rows]].any()
                j += width
            if stats.has_missing[spec.name]:
                assert names[j] == f"{spec.name}__missing"
                assert np.array_equal(features[:, j], column.is_missing[rows])
                j += 1
        assert j == len(names)

    def test_the_seeds_cover_every_case(self, tmp_path):
        outcomes, kinds_seen = set(), set()
        for seed in range(60):
            path, schema, kinds, bad = _fuzz_table(tmp_path, seed)
            kinds_seen.update(kinds)
            if bad is not None:
                outcomes.add("unparseable")
                continue
            table = load_csv(path, schema)
            train, _ = _fuzz_rows(len(table), seed)
            if _untrained_categorical(table, train):
                outcomes.add("no training level")
                continue
            for spec in schema.feature_columns:
                column = table.columns[spec.name]
                if column.is_missing.any():
                    outcomes.add("missing cells")
                if spec.kind == "categorical" and not set(column.values[~column.is_missing]) \
                        <= set(column.values[train][~column.is_missing[train]]):
                    outcomes.add("unseen levels")
        assert kinds_seen == set(_FUZZ_KINDS)
        assert outcomes == {"unparseable", "no training level", "missing cells", "unseen levels"}


def _wide_table(tmp_path, n=4000):
    """A file shaped like a clinical table: 16 continuous columns of 4- to
    6-digit readings and 8 categorical ones, about a tenth of cells "NA"."""
    rng = np.random.default_rng(7)
    specs = [ColumnSpec(f"x{k}", "continuous", ("", "NA")) for k in range(16)]
    specs += [ColumnSpec(f"g{k}", "categorical", ("", "NA")) for k in range(8)]
    cells = [[f"{v:.{k % 3 + 2}f}" for v in rng.normal(50.0, 20.0, n)] for k in range(16)]
    cells += [[f"level {v}" for v in rng.integers(0, 3 + k, n)] for k in range(8)]
    for column in cells:
        for r in rng.choice(n, n // 10, replace=False):
            column[r] = "NA"
    cells += [[str(v) for v in rng.integers(1, 2000, n)], [str(v) for v in rng.integers(0, 2, n)]]
    schema = DatasetSchema(columns=(*specs, ColumnSpec("t", "time"),
                                    ColumnSpec("e", "event_indicator")))
    path = tmp_path / "wide.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([[spec.name for spec in schema.columns], *zip(*cells)])
    return str(path), schema


def _traced_peak(call):
    """(result, peak bytes traced above those held when `call` starts)."""
    call()  # warm-up: import-time and first-call allocations are not the call's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_loading_peaks_under_twice_the_columns_it_returns(self, tmp_path):
        # each cell is parsed as its row is read, into typed arrays, so no
        # list of cell strings grows with the file (4.4x at a loader that
        # kept them until the last row was read)
        path, schema = _wide_table(tmp_path)
        table, peak = _traced_peak(lambda: load_csv(path, schema))
        held = table.times.nbytes + table.observed.nbytes + sum(
            column.values.nbytes + column.is_missing.nbytes for column in table.columns.values())
        assert peak < 2.0 * held, peak / held

    @pytest.mark.parametrize("fitted", [False, True], ids=["fit", "encode"])
    def test_encoding_peaks_under_its_output_plus_one_column(self, tmp_path, fitted):
        # every block is written into the one output matrix, so nothing
        # beyond one gathered column is held besides it (an output's worth
        # more where the blocks were stacked at the end)
        path, schema = _wide_table(tmp_path)
        table = load_csv(path, schema)
        rows = np.arange(0, len(table), 2)
        stats = preprocess(table, rows=rows).stats if fitted else None
        result, peak = _traced_peak(lambda: preprocess(table, stats=stats, rows=rows))
        output = result.features.nbytes + result.times.nbytes + result.observed.nbytes
        assert result.features.shape[1] > 40
        assert peak < output + 8 * len(rows), (peak - output) / (8 * len(rows))


class TestKfoldSplit:
    def test_partition_arithmetic(self):
        folds = kfold_split(10, 5, 0.2, seed=0)
        assert len(folds) == 5
        all_test = []
        for train, val, test in folds:
            assert len(test) == 2
            assert len(val) in (1, 2)
            assert len(train) + len(val) + len(test) == 10
            assert set(train) & set(val) == set()
            assert set(train) & set(test) == set()
            assert set(val) & set(test) == set()
            all_test.extend(test)
        assert sorted(all_test) == list(range(10))

    def test_same_seed_identical(self):
        a = kfold_split(30, 5, 0.2, seed=7)
        b = kfold_split(30, 5, 0.2, seed=7)
        for (ta, va, sa), (tb, vb, sb) in zip(a, b):
            assert np.array_equal(ta, tb)
            assert np.array_equal(va, vb)
            assert np.array_equal(sa, sb)

    def test_different_seeds_differ(self):
        differing = 0
        for seed in range(10):
            a = kfold_split(100, 5, 0.2, seed=seed)
            b = kfold_split(100, 5, 0.2, seed=seed + 1000)
            if any(
                not np.array_equal(sa, sb)
                for (_, _, sa), (_, _, sb) in zip(a, b)
            ):
                differing += 1
        assert differing == 10

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            kfold_split(4, 5, 0.2, seed=0)  # n < k
        for k in (1, 2.0, True):
            with pytest.raises(ValueError, match="k must be an integer >= 2"):
                kfold_split(10, k, 0.2, seed=0)
        for vf in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                kfold_split(10, 5, vf, seed=0)


class TestGenerateSynthetic:
    @pytest.mark.parametrize("n, num_features, named", [
        (0, 5, "n must be an integer >= 1"), (10.0, 5, "n must be an integer"),
        (10, 0, "num_features must be an integer >= 1"), (10, True, "num_features must be"),
    ])
    def test_a_count_that_is_not_a_positive_integer_is_named(self, n, num_features, named):
        with pytest.raises(ValueError, match=named):
            generate_synthetic(n, num_features, censor_fraction=0.2, tie_density=0.1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_a_seed_that_is_not_a_non_negative_integer_is_named(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
            generate_synthetic(10, 2, censor_fraction=0.2, tie_density=0.1, seed=seed)

    def test_zero_censoring(self):
        data = generate_synthetic(200, 5, censor_fraction=0.0, tie_density=0.1, seed=0)
        assert bool(data.observed.all())
        assert len(data) == 200
        assert data.features.shape == (200, 5)

    def test_censoring_calibration(self):
        data = generate_synthetic(10000, 10, censor_fraction=0.3, tie_density=0.1, seed=1)
        assert 0.28 <= data.censored_fraction <= 0.32

    def test_maximal_tie_density_collapses_bins(self):
        data = generate_synthetic(2000, 5, censor_fraction=0.2, tie_density=1.0, seed=2)
        unique_bins = len(np.unique(data.bins))
        assert unique_bins * 10 < len(data)

    def test_deterministic(self):
        a = generate_synthetic(500, 5, censor_fraction=0.3, tie_density=0.1, seed=3)
        b = generate_synthetic(500, 5, censor_fraction=0.3, tie_density=0.1, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.observed, b.observed)

    def test_oracle_scores_are_strongly_concordant(self):
        data = generate_synthetic(5000, 10, censor_fraction=0.3, tie_density=0.0, seed=4)
        assert c_index(data, oracle_scores(data)) > 0.95

    def test_oracle_pmf_matches_the_uncensored_bin_histogram(self):
        data = generate_synthetic(20000, 3, censor_fraction=0.0, tie_density=1 / 64, seed=3)
        pmf = oracle_pmf(data)
        assert pmf.shape == (20000, 64) and pmf.min() >= 0.0
        assert np.allclose(pmf.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        expected = pmf.sum(axis=0)
        assert expected.min() > 100  # large enough for the chi-square approximation
        observed = np.bincount(data.bins, minlength=64)
        chi_square = float(((observed - expected) ** 2 / expected).sum())
        # 103.44 is the 0.999 quantile of chi-square on 63 degrees of freedom; records
        # with different features have different pmfs, which only shrinks the statistic
        assert chi_square < 103.44

    def test_round_trip_through_csv(self, tmp_path):
        data = generate_synthetic(50, 4, censor_fraction=0.25, tie_density=0.1, seed=5)
        csv_path = tmp_path / "synth.csv"
        save_csv(data, str(csv_path))
        schema = schema_for_features([f"f{i}" for i in range(4)])
        table = load_csv(str(csv_path), schema)
        assert np.array_equal(table.times, data.times)
        assert np.array_equal(table.observed, data.observed)
        # repr round-trips doubles exactly
        parsed = np.column_stack([table.columns[f"f{i}"][0] for i in range(4)])
        assert np.array_equal(parsed, data.features)
