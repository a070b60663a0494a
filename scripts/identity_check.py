"""Byte identity of the program's outputs: a base revision against the working tree.

    python3 scripts/identity_check.py --base REV

REV is exported with `git archive` into a
temporary directory, and the same commands run once on each tree, with BLAS
pinned to one thread:

- on `perfbench/tablegen.py`'s seed-17 table, the benchmark's own commands:
  `cv` for wm, cox-efron and rank-sigmoid (the benchmark's epochs, grid and
  k), the wm `train` checkpoint and its sidecar, and `evaluate --checkpoint`
  and `evaluate --scores`;
- on the same table, `km`; and on a copy of it with a few corrupted rows
  and one quoted cell that spans two lines, `km --on-bad-rows drop` and
  `evaluate --checkpoint --on-bad-rows drop`, so the CSV loader's parse,
  its dropped rows and its feature columns are compared end to end;
- on a `censrank synth` table, `ablate-censoring`, a wm `sweep-censoring`,
  and a rank-sigmoid and a wm `cv` whose grid's first point, a learning rate
  of 1e200, diverges beside two that train, each at `--n-jobs 1` and
  `--n-jobs 2`;
- on a 90%-censored `censrank synth` table, one `cv` per loss at
  `--batch-size 8`, so batches with no event or no acceptable pair are
  skipped, plus wm scored by its median bin with global Kaplan-Meier
  imputation, wm at `--wm-l` 1, 2, 3 and 2.5 (the loss's sign branch and
  each exponent that numpy's in-place power treats its own way), and
  rank-hinge with no ceiling.

Each command runs in its side's own output directory and writes its files
there under the same relative names, and its exit code and stdout are kept
as one more file.  Every file's SHA-256 is printed for both sides, and the
script exits 1 if any pair differs (a file missing on one side differs)
or any command exits nonzero.
Files under `perfbench/` are only read.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True  # no bytecode cache next to the modules below

import bench_ab  # noqa: E402
import tablegen  # noqa: E402
import workloads  # noqa: E402
from censrank.harness import LOSSES  # noqa: E402

BENCH_SEED = 17
SCHEMA = os.path.join(ROOT, "data", "support2.schema.json")
# runs the command line of the censrank found first on PYTHONPATH
_CLI = "import sys; from censrank.cli import main; sys.exit(main(sys.argv[1:]))"


def corrupt_copy(src, dest):
    """Write `src` to `dest` with an unparseable time, an unknown event, a
    short row and one categorical cell that holds a newline, so the bad
    rows after that cell sit one file line below their record number."""
    with open(src, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    rows[5][header.index("sex")] = "fe\nmale"
    rows[10][header.index("d.time")] = "oops"
    rows[20][header.index("death")] = "maybe"
    rows[30] = rows[30][:-1]
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def bench_commands(inputs):
    """(label, argv) of the benchmark's commands on the table written to
    `inputs`, then the loader's commands on that table and its corrupted copy."""
    paths, _ = tablegen.write_inputs(inputs, BENCH_SEED, SCHEMA)
    paths["checkpoint"] = "model.ckpt"
    commands = []
    for name in workloads.NAMES:
        setup, cycle = workloads.commands(name, paths, BENCH_SEED, ".")
        commands += [(f"{name}-setup-{i}", argv) for i, argv in enumerate(setup)]
        commands += [(label, argv) for label, argv, _ in cycle]
    corrupt = os.path.join(inputs, "corrupt.csv")
    corrupt_copy(paths["dataset"], corrupt)
    drop = ["--dataset", corrupt, "--schema", paths["schema"], "--on-bad-rows", "drop"]
    commands += [
        ("km", ["km", "--dataset", paths["dataset"], "--schema", paths["schema"],
                "--bin-width", "1"]),
        ("km-drop", ["km", *drop, "--bin-width", "1"]),
        ("evaluate-checkpoint-drop", ["evaluate", *drop, "--checkpoint", paths["checkpoint"]]),
    ]
    return commands


def synth_commands(grid, n=500):
    """(label, argv) of a synth table of `n` rows and the experiments on it,
    with the two-point grid file `grid`; the rank-sigmoid and wm `cv` runs use
    a grid whose first point diverges, written beside `grid`."""
    diverge = os.path.join(os.path.dirname(grid), "diverge-grid.json")
    with open(diverge, "w", encoding="utf-8") as fh:
        json.dump([[1e200, 0.0], [1e-2, 0.0], [1e-2, 1e-4]], fh)
    data = ["--dataset", "synth.csv", "--schema", "synth.schema.json"]
    knobs = ["--bin-width", "5", "--k", "3", "--epochs", "2", "--patience", "2",
             "--hidden-dims", "16", "--seed", "3"]
    commands = [("synth", ["synth", "--n", str(n), "--seed", "3", "--out", "synth"])]
    for jobs in ("1", "2"):
        commands.append((f"ablate-censoring-{jobs}", [
            "ablate-censoring", *data, *knobs, "--grid", grid, "--n-jobs", jobs,
            "--out", f"ablate-{jobs}.csv"]))
        commands.append((f"sweep-censoring-{jobs}", [
            "sweep-censoring", *data, "--loss", "wm", "--fractions", "0.5,0.8", *knobs,
            "--grid", grid, "--n-jobs", jobs, "--format", "json", "--out", f"sweep-{jobs}.json"]))
        commands += [(f"diverge-cv-{loss}-{jobs}", [
            "cv", *data, "--loss", loss, *knobs, "--grid", diverge, "--n-jobs", jobs,
            "--out", f"diverge-cv-{loss}-{jobs}.csv"]) for loss in ("rank-sigmoid", "wm")]
    return commands


def skip_commands(grid, n=400):
    """(label, argv) of a synth table of `n` rows, 90% censored, and a `cv` of
    every loss, and of the loss options that take their own code path, on it
    in batches of 8 with the two-point grid file `grid`."""
    data = ["--dataset", "censored.csv", "--schema", "censored.schema.json"]
    knobs = ["--bin-width", "5", "--k", "3", "--epochs", "3", "--patience", "3",
             "--batch-size", "8", "--hidden-dims", "16", "--grid", grid, "--seed", "3"]
    runs = [(loss, ["--loss", loss]) for loss in LOSSES]
    runs += [
        ("wm-median-global", ["--loss", "wm", "--wm-score", "median", "--km-impute", "global"]),
        ("wm-l1", ["--loss", "wm", "--wm-l", "1"]),  # the loss's sign branch
        # the exponent l - 1 of the loss's power step at 1 (a copy), 2 (numpy's square)
        # and 1.5 (the general power); the default 0.5 takes numpy's sqrt
        ("wm-l2", ["--loss", "wm", "--wm-l", "2"]),
        ("wm-l3", ["--loss", "wm", "--wm-l", "3"]),
        ("wm-l2.5", ["--loss", "wm", "--wm-l", "2.5"]),
        ("rank-hinge-unclipped", ["--loss", "rank-hinge", "--hinge-clip", "none"]),
    ]
    return [("synth-censored", ["synth", "--n", str(n), "--censor-fraction", "0.9",
                                "--seed", "3", "--out", "censored"])] + [
        (f"skip-cv-{name}", ["cv", *data, *options, *knobs, "--out", f"skip-cv-{name}.csv"])
        for name, options in runs
    ]


def run_commands(root, out, commands):
    """Run each (label, argv) with the censrank under `root`/src, in `out`,
    keeping its exit code and stdout in `out`/<label>.stdout; returns the
    labels of the commands that exited nonzero."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    os.makedirs(out, exist_ok=True)
    failed = []
    for label, argv in commands:
        proc = subprocess.run([sys.executable, "-c", _CLI, *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        with open(os.path.join(out, f"{label}.stdout"), "w", encoding="utf-8") as fh:
            fh.write(f"exit {proc.returncode}\n{proc.stdout}")
        if proc.returncode != 0:
            failed.append(label)
            print(f"{root}: {label} exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
    return failed


def _sha256(path):
    if not os.path.exists(path):
        return "missing"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compare(base_dir, change_dir):
    """[(file name, base SHA-256, change SHA-256)] over every file either
    directory holds, and whether every pair is equal."""
    names = sorted(set(os.listdir(base_dir)) | set(os.listdir(change_dir)))
    rows = [(name, _sha256(os.path.join(base_dir, name)), _sha256(os.path.join(change_dir, name)))
            for name in names]
    return rows, all(base == change for _, base, change in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    base, change = bench_ab.revisions(args.base, ROOT)
    with tempfile.TemporaryDirectory(prefix="identity_check_") as tmp:
        tree = os.path.join(tmp, "tree")
        bench_ab.export(base, tree, ROOT)
        inputs = os.path.join(tmp, "inputs")
        commands = bench_commands(inputs)
        grid = os.path.join(inputs, "grid.json")
        commands += synth_commands(grid) + skip_commands(grid)
        roots = {"parent": tree, "change": ROOT}
        failed = [label for side in bench_ab.SIDES
                  for label in run_commands(roots[side], os.path.join(tmp, side), commands)]
        rows, same = compare(os.path.join(tmp, "parent"), os.path.join(tmp, "change"))
    print(f"parent {base}  change {change}")
    for name, base_hash, change_hash in rows:
        print(f"{'same' if base_hash == change_hash else 'DIFFERS'} {name} "
              f"parent {base_hash} change {change_hash}")
    print(json.dumps({"files": len(rows), "differ": sum(b != c for _, b, c in rows),
                      "failed_commands": failed}))
    return 0 if same and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
