"""`scripts/bench_ab.py` refuses a run result that lacks a declared metric
or holds a non-finite value, naming the metric and the run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
NAMES = {"setup_s": "lower", "rows_per_s": "higher"}
WHERE = "change pair 3 seed 1003"


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("_censrank_bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_complete_finite_result_is_returned(bench_ab):
    line = json.dumps({"metrics": {"setup_s": {"value": 0.2}, "rows_per_s": {"value": 9}}})
    assert bench_ab.parse_run(line, NAMES, WHERE) == json.loads(line)


@pytest.mark.parametrize("rows_per_s, message", [
    (None, "metric rows_per_s is absent"),
    ('{"unit": "rows/s"}', "metric rows_per_s is absent"),
    ('{"value": NaN}', "metric rows_per_s is not a finite number"),
    ('{"value": Infinity}', "metric rows_per_s is not a finite number"),
    ('{"value": -Infinity}', "metric rows_per_s is not a finite number"),
    ('{"value": null}', "metric rows_per_s is not a finite number"),
    ('{"value": "12"}', "metric rows_per_s is not a finite number"),
])
def test_absent_or_non_finite_metric_exits_naming_it(bench_ab, rows_per_s, message):
    metrics = '{"setup_s": {"value": 0.2}'
    if rows_per_s is not None:
        metrics += f', "rows_per_s": {rows_per_s}'
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.parse_run('{"metrics": ' + metrics + "}}", NAMES, WHERE)
    assert str(exit_info.value.code).startswith(f"{WHERE}: {message}")


@pytest.mark.parametrize("line", ["not json", "[1]", '{"failed": 0}'])
def test_unreadable_result_exits(bench_ab, line):
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.parse_run(line, NAMES, WHERE)
    assert str(exit_info.value.code).startswith(f"{WHERE}: ")
