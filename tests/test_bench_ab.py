"""`scripts/bench_ab.py` refuses a run result that lacks a declared metric
or holds a non-finite value, naming the metric and the run, and names the
commits it measured on every line it writes."""

import importlib.util
import json
import subprocess
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


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.fixture
def checkout(tmp_path):
    """A repository of two commits whose working tree matches the second."""
    _git(tmp_path, "init", "-q")
    (tmp_path / ".gitignore").write_text("bench_ab.jsonl\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": name, "better": better} for name, better in NAMES.items()]}))
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "code.py").write_text("x = 1\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "second")
    return tmp_path


def test_revisions_name_the_base_commit_and_a_dirty_tree(bench_ab, checkout):
    first, second = _git(checkout, "rev-parse", "HEAD~1"), _git(checkout, "rev-parse", "HEAD")
    assert bench_ab.revisions("HEAD~1", checkout) == (first, second)
    (checkout / "bench_ab.jsonl").write_text("{}\n")  # ignored: still clean
    assert bench_ab.revisions(first[:7], checkout) == (first, second)
    (checkout / "code.py").write_text("x = 2\n")
    assert bench_ab.revisions("HEAD", checkout) == (second, second + "-dirty")
    _git(checkout, "checkout", "-q", "code.py")
    (checkout / "new.py").write_text("")  # untracked and not ignored
    assert bench_ab.revisions("HEAD", checkout) == (second, second + "-dirty")
    with pytest.raises(subprocess.CalledProcessError):
        bench_ab.revisions("no-such-rev", checkout)


def test_every_line_names_the_base_and_the_change(bench_ab, checkout, monkeypatch):
    first, second = _git(checkout, "rev-parse", "HEAD~1"), _git(checkout, "rev-parse", "HEAD")
    exported = []
    monkeypatch.chdir(checkout)
    monkeypatch.setattr(bench_ab, "export", lambda rev, dest: exported.append(rev))
    line = json.dumps({"failed": 0, "attempted": 1, "metrics": {
        name: {"value": 1.0, "unit": "s"} for name in NAMES}})
    monkeypatch.setattr(bench_ab, "run_once", lambda *args: line)
    bench_ab.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "2", "--seconds", "1"])
    records = [json.loads(text) for text in (checkout / "bench_ab.jsonl").read_text().splitlines()]
    assert exported == [first] and len(records) == 4
    assert all(rec["base"] == first and rec["change"] == second for rec in records)


def test_the_summary_tells_each_bounded_metric_within_or_beyond_its_bound(bench_ab, capsys):
    def run(setup_s, rows_per_s):
        return {"failed": 0, "attempted": 1, "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"}}}

    records = [{"pair": i, "side": side, "run": run(*values)}
               for i in range(3) for side, values in (("parent", (1.0, 100.0 + i)),
                                                      ("change", (1.3, 90.0 + i)))]
    bench_ab.summarize(records, NAMES, {"setup_s": 0.25, "rows_per_s": 0.25})
    lines = capsys.readouterr().out.splitlines()
    assert ("  setup_s: the change's median is 30.00% worse than the parent's: "
            "BEYOND its bound of 25%") in lines
    assert ("  rows_per_s: the change's median is 9.90% worse than the parent's: "
            "within its bound of 25%") in lines
    records = [{**rec, "run": run(0.9, 120.0)} if rec["side"] == "change" else rec
               for rec in records]
    bench_ab.summarize(records, NAMES, {"rows_per_s": 0.25})
    lines = capsys.readouterr().out.splitlines()
    assert ("  rows_per_s: the change's median is 18.81% better than the parent's: "
            "within its bound of 25%") in lines
    assert not any(line.startswith("  setup_s:") for line in lines)  # no bound given
