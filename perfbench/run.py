"""SUPPORT2-shaped benchmark of the censrank command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates a SUPPORT2-shaped table
from --seed, times the workload's set-up in fresh processes, then runs the
workload's commands through `censrank.cli.main(argv)` in one more fresh
process, whole cycles at a time, for --seconds.  Every command's output is
checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, rows_per_s and peak_rss_mb; with
--trace 1 they are the per-module totals of one traced pass (the set-up
commands plus one cycle) and trace.overhead_frac.  Workloads: wm-cv,
scalar-cv, evaluate-full (see workloads.py and README.md).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# Bytecode for every import is cached under the benchmark's own directory,
# whatever the caller's environment says, so imports cost the same in every
# checkout and a run leaves the rest of the checkout untouched.
sys.pycache_prefix = os.path.join(WORK, "pycache")
sys.dont_write_bytecode = False
os.environ["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS pinned to one thread

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import tablegen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
SCHEMA = os.path.join(ROOT, "data", "support2.schema.json")
SETUP_PROBES = {"wm-cv": 9, "scalar-cv": 9, "evaluate-full": 3}
DEADLINE_S = 170.0  # a run must end within 180 s


def _worker(spec, work, name, deadline):
    spec_path = os.path.join(work, f"{name}.spec.json")
    spec["out"] = os.path.join(work, f"{name}.out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    timeout = max(5.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          cwd=ROOT, timeout=timeout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["out"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def _checkpoint_bytes(path):
    with open(path, "rb") as fh, open(path + ".meta.json", "rb") as meta:
        return fh.read() + meta.read()


def _setup_samples(setup, work, deadline, count, checkpoint):
    """Seconds of import plus set-up commands in each of `count` fresh
    processes.  Every probe's set-up must succeed, and a trained checkpoint
    must come out byte-identical each time."""
    samples = []
    for _ in range(count):
        got = _worker({"mode": "probe", "src": SRC, "setup": setup["argvs"]}, work,
                      "probe", deadline)
        for record in got["setup"]:
            if record["error"] is not None or record["rc"] != 0:
                raise RuntimeError(f"set-up failed: {record['error'] or record['stderr']}")
        if setup["checkpoint"]:
            data = _checkpoint_bytes(setup["checkpoint"])
            if checkpoint is not None and data != checkpoint:
                raise RuntimeError("set-up trained a different checkpoint on a repeat")
            checkpoint = data
        samples.append(got["import_s"] + sum(r["seconds"] for r in got["setup"]))
    return samples, checkpoint


def _cycle_rates(records, pass_name, rows_per_command):
    """Rows per second of each whole cycle of one pass."""
    by_cycle = {}
    for record in records:
        if record["pass_name"] == pass_name:
            by_cycle.setdefault(record["cycle"], []).append(record["seconds"])
    return [rows_per_command * len(s) / sum(s) for _, s in sorted(by_cycle.items())]


def _check_all(records, expected_scores_c):
    first, failures = {}, []
    for record in records:
        reason = workloads.check(record, first.get(record["label"]), expected_scores_c)
        first.setdefault(record["label"], record)
        if reason is not None:
            failures.append(f"{record['label']} (cycle {record['cycle']}): {reason}")
    return failures


def _measure(workload, seed, seconds, trace, work, deadline):
    """Generate the inputs, run the probes and the timed worker.

    Returns (worker result, set-up seconds or None, exact scores C-index).
    """
    paths, expected_scores_c = tablegen.write_inputs(work, seed, SCHEMA)
    paths["checkpoint"] = os.path.join(work, "model.ckpt")
    setup_argvs, cycle = workloads.commands(workload, paths, seed, work)
    spec = {"mode": "run", "src": SRC, "setup": setup_argvs, "cycle": cycle,
            "seconds": seconds, "min_cycles": 2, "trace": bool(trace),
            "spans": os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")}
    if trace:
        return _worker(spec, work, "run", deadline), None, expected_scores_c
    # Probes run on both sides of the timed process, so the median spans the
    # whole run rather than one moment of the machine.  One untimed probe
    # first fills the bytecode cache.
    setup = {"argvs": setup_argvs, "checkpoint": paths["checkpoint"] if setup_argvs else None}
    _worker({"mode": "probe", "src": SRC, "setup": []}, work, "warmup", deadline)
    before = SETUP_PROBES[workload] // 2 + 1
    samples, checkpoint = _setup_samples(setup, work, deadline, before, None)
    got = _worker(spec, work, "run", deadline)
    samples += _setup_samples(setup, work, deadline, SETUP_PROBES[workload] - before,
                              checkpoint)[0]
    return got, statistics.median(samples), expected_scores_c


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, SRC)
    from censrank.harness import cv_splits

    rows = workloads.rows_per_command(workload, seed, cv_splits)
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        got, setup_s, expected_scores_c = _measure(workload, seed, seconds, trace, work,
                                                   deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_failures = [f"set-up: {r['error'] or r['stderr']}" for r in got["setup"]
                      if r["error"] is not None or r["rc"] != 0]
    failures = _check_all(got["commands"], expected_scores_c)
    rates = _cycle_rates(got["commands"], "untraced", rows)
    metrics = {}
    if not trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["rows_per_s"] = (statistics.median(rates), "rows/s")
        metrics["peak_rss_mb"] = (got["peak_rss_mb"], "MB")
    else:
        for name in tracer.PER_LAYER:
            function, stat = name.rsplit(".", 1)
            # a function that is gone, or a count that can no longer be
            # read from its arguments, is reported as absent
            if function in got["missing_layers"] or (
                function in got["uncounted_layers"] and stat not in tracer.NON_COUNT_STATS
            ):
                continue
            metrics[name] = (got["layers"].get(name, 0), tracer.UNITS[stat])
        traced_rate = _cycle_rates(got["commands"], "traced", rows)[0]
        metrics["trace.overhead_frac"] = (statistics.median(rates) / traced_rate - 1.0,
                                          "fraction")

    for line in setup_failures + failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(got["commands"])
    print(f"# {workload} seed={seed}: untraced cycles at "
          + ", ".join(f"{r:.1f}" for r in rates) + " rows/s")
    print(f"fail_rate {len(failures) / attempted} fraction ({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not (failures or setup_failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join(SRC, "censrank", "cli.py"), SCHEMA):
        if not os.path.isfile(needed):
            print(f"run from the root of a censrank checkout: {needed} is missing",
                  file=sys.stderr)
            return 2
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
