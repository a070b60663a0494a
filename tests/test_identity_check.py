"""`scripts/identity_check.py` finds the working tree's outputs byte-equal
to HEAD's on a tiny synth table, names an output that differs, and writes
a corrupted table copy whose bad rows follow a multi-line cell; its
small-batch commands cv every loss, and its synth commands cv past a
diverging grid point."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from censrank import pipeline
from censrank.harness import LOSSES

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "identity_check.py"


@pytest.fixture(scope="module")
def identity_check():
    spec = importlib.util.spec_from_file_location("_censrank_identity_check", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outputs(identity_check, tmp_path_factory):
    """The synth commands' output directories for HEAD and the working tree."""
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    tmp = tmp_path_factory.mktemp("identity")
    identity_check.bench_ab.export("HEAD", tmp / "head", ROOT)
    grid = tmp / "grid.json"
    grid.write_text(json.dumps({"learning_rate": [1e-2], "l2": [0.0, 1e-4]}))
    commands = identity_check.synth_commands(str(grid), n=120)
    for side, root in (("parent", tmp / "head"), ("change", ROOT)):
        assert identity_check.run_commands(str(root), str(tmp / side), commands) == []
    return tmp / "parent", tmp / "change"


def test_the_working_tree_matches_head(identity_check, outputs):
    rows, same = identity_check.compare(*outputs)
    names = {name for name, _, _ in rows}
    assert {"synth.csv", "ablate-1.csv", "ablate-2.csv", "sweep-1.json", "sweep-2.json",
            "sweep-censoring-2.stdout", "diverge-cv-rank-sigmoid-1.csv",
            "diverge-cv-rank-sigmoid-2.csv", "diverge-cv-wm-1.csv", "diverge-cv-wm-2.csv"} <= names
    assert same and all(base == change != "missing" for _, base, change in rows)


def test_an_altered_output_is_named(identity_check, outputs, tmp_path):
    parent, change = outputs
    altered = tmp_path / "change"
    altered.mkdir()
    for path in change.iterdir():
        altered.joinpath(path.name).write_bytes(path.read_bytes())
    report = altered / "ablate-2.csv"
    report.write_bytes(report.read_bytes().replace(b"0.", b"1.", 1))
    rows, same = identity_check.compare(parent, altered)
    assert not same
    assert [name for name, base, change in rows if base != change] == ["ablate-2.csv"]


def test_the_corrupted_copy_has_bad_rows_past_a_multiline_cell(identity_check, tmp_path):
    # the copy's three bad records sit one file line below their record number
    header = ["age", "sex", "d.time", "death"]
    rows = [header] + [[f"{60 + r}.5", "female" if r % 2 else "male", str(r + 1), str(r % 2)]
                       for r in range(40)]
    src, dest = tmp_path / "table.csv", tmp_path / "corrupt.csv"
    src.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    identity_check.corrupt_copy(str(src), str(dest))
    schema = pipeline.DatasetSchema(columns=(
        pipeline.ColumnSpec("age", "continuous"), pipeline.ColumnSpec("sex", "categorical"),
        pipeline.ColumnSpec("d.time", "time"), pipeline.ColumnSpec("death", "event_indicator")))
    table = pipeline.load_csv(str(dest), schema, on_bad_rows="drop")
    assert table.dropped_rows == (12, 22, 32) and len(table) == 37
    assert table.columns["sex"].vocabulary == ("fe\nmale", "female", "male")


def test_the_skip_commands_train_every_loss_in_small_batches(identity_check):
    commands = dict(identity_check.skip_commands("grid.json"))
    synth = commands.pop("synth-censored")
    assert synth[synth.index("--censor-fraction") + 1] == "0.9"
    assert sorted(commands) == sorted([f"skip-cv-{loss}" for loss in LOSSES] + [
        "skip-cv-wm-median-global", "skip-cv-wm-l1", "skip-cv-wm-l2", "skip-cv-wm-l3",
        "skip-cv-wm-l2.5", "skip-cv-rank-hinge-unclipped"])
    # every exponent that numpy's in-place power treats its own way, and the unclipped hinge
    options = [" ".join(argv) for argv in commands.values()]
    for option in ("--loss wm --wm-l 1 ", "--loss wm --wm-l 2 ", "--loss wm --wm-l 3 ",
                   "--loss wm --wm-l 2.5 ", "--loss rank-hinge --hinge-clip none "):
        assert any(option in line for line in options), option
    for argv in commands.values():
        assert argv[0] == "cv" and argv[argv.index("--batch-size") + 1] == "8"
