import csv
import json
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
    oracle_scores,
    preprocess,
    save_csv,
    save_schema,
    schema_for_features,
)


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
        parse, parsed = pipeline._parse_column, []

        def counting(spec, cells):
            parsed.append((spec.name, len(cells)))
            return parse(spec, cells)

        monkeypatch.setattr(pipeline, "_parse_column", counting)
        table, cells = _mixed_table(tmp_path)
        # one call per feature column over all its cells, all while loading
        assert parsed == [(name, len(table)) for name in cells]
        splits = cv_splits(len(table), 5, 0.2, 3)
        for _ in range(2):
            encode = fold_encoder(table, 1.0)
            for split in splits:
                encode(split)
        preprocess(table)
        assert len(parsed) == len(cells)

    def test_unparseable_numeric_cell_outside_rows_is_rejected(self, tmp_path):
        path = _write(tmp_path, "age,group,days,dead\n1,a,1,1\n2,b,2,1\nbad,a,3,1\n")
        with pytest.raises(CsvParseError, match="column 'age': unparseable numeric value 'bad'"):
            load_csv(path, _toy_schema())


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
        with pytest.raises(ValueError):
            kfold_split(10, 1, 0.2, seed=0)
        for vf in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                kfold_split(10, 5, vf, seed=0)


class TestGenerateSynthetic:
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
