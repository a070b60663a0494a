"""Paired A/B runs of the benchmark: a base revision against the working tree.

    python3 scripts/bench_ab.py --base REV --workload W --pairs N --seconds S \
        [--seed 1000] [--trace 0|1] [--out bench_ab.jsonl]

Run from the root of a checkout.  REV is exported with `git archive` into a
temporary directory, and that tree's `perfbench/run.py` and the working
tree's run alternately in ABBA order (base, change, change, base, ...),
pair i with seed SEED + i on both sides, so neither side always runs first
on a warm or cold machine.  Each run's result is appended to --out as one
JSON line {"workload", "pair", "side", "seed", "trace", "base", "change",
"run"}, where "base" is the commit REV resolves to and "change" is HEAD's
commit, with "-dirty" appended when the working tree differs from HEAD
(untracked files that git does not ignore count).  At the end
each metric's median [Q1, Q3] per side is printed, with the number of pairs
each side won (direction from BENCHMARK.json; ties count for neither), the
median gain and the base side's interquartile range; for every metric with a
"bound" in BENCHMARK.json, one more line tells whether the change's median
is worse than the base's by more than that fraction of it, the test a
change must pass on every end-to-end metric.  With --trace 1 every
run is a traced run, and the metrics compared are BENCHMARK.json's per-layer
ones, so a per-layer difference rests on several pairs rather than one.

A run whose result lacks a metric BENCHMARK.json declares for the mode, or
holds a value that is not a finite number (NaN or Infinity included), stops
the comparison with a nonzero exit that names the metric, side, pair and
seed: a metric that silently drops out of a run is a broken benchmark, not
a tie.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def export(rev, dest, root="."):
    """Write the tree of `rev`, in the checkout at `root`, into `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def revisions(rev, root="."):
    """(the commit `rev` resolves to, HEAD's commit plus "-dirty" if the
    working tree of the checkout at `root` differs from it)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                              text=True).stdout.strip()

    base, head = git("rev-parse", "--verify", f"{rev}^{{commit}}"), git("rev-parse", "HEAD")
    return base, head + ("-dirty" if git("status", "--porcelain") else "")


def run_once(root, workload, seed, seconds, trace):
    """The last line `perfbench/run.py` prints, run in `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


class NonFinite(str):
    """A NaN or Infinity literal of a result line, kept as its text so that
    it is never taken for a number and the metric holding it is named."""


def parse_run(line, names, where):
    """The result object in `line`, or exit naming the first of `names`
    that it lacks or whose value is not a finite number; `where` names the run."""
    try:
        run = json.loads(line, parse_constant=NonFinite)
    except ValueError as err:
        sys.exit(f"{where}: the result line is not JSON ({err}): {line[:200]}")
    metrics = run.get("metrics") if isinstance(run, dict) else None
    if not isinstance(metrics, dict):
        sys.exit(f"{where}: the result has no metrics object: {line[:200]}")
    for name in names:
        if not isinstance(metrics.get(name), dict) or "value" not in metrics[name]:
            sys.exit(f"{where}: metric {name} is absent")
        value = metrics[name]["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"{where}: metric {name} is not a finite number: {value!r}")
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records, better, bounds):
    """Print per-metric medians, quartiles and pairs won by each side, and
    for each metric in `bounds` (name -> fraction) whether the change's
    median is worse than the parent's by more than that fraction of it."""
    pairs = {}
    for rec in records:
        pairs.setdefault(rec["pair"], {})[rec["side"]] = rec["run"]
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in complete)
        attempted = sum(p[side]["attempted"] for p in complete)
        print(f"{side}: fail_rate {failed}/{attempted}")
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = {side: 0 for side in SIDES}
        for base, change in zip(values["parent"], values["change"]):
            if sign * (change - base) > 0:
                wins["change"] += 1
            elif sign * (change - base) < 0:
                wins["parent"] += 1
        stats = {side: quartiles(values[side]) for side in SIDES}
        unit = complete[0]["parent"]["metrics"][name]["unit"]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = stats["parent"], stats["change"]
        print(f"{name} ({unit}, {direction} is better, {len(complete)} pairs): "
              f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  "
              f"wins parent {wins['parent']} change {wins['change']}  "
              f"median gain {sign * (cmed - pmed) + 0.0:.6g} vs parent IQR {pq3 - pq1:.6g}")
        if name in bounds and pmed:
            worse = -sign * (cmed - pmed) / abs(pmed)
            print(f"  {name}: the change's median is {abs(worse):.2%} "
                  f"{'worse' if worse > 0 else 'better'} than the parent's: "
                  f"{'BEYOND' if worse > bounds[name] else 'within'} its bound of "
                  f"{bounds[name]:.0%}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1000, help="seed of pair 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, compared on the per-layer metrics")
    parser.add_argument("--out", default="bench_ab.jsonl", help="JSON lines, appended")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    here = os.getcwd()
    with open(os.path.join(here, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    bounds = {m["name"]: m["bound"] for m in declared if "bound" in m}
    base, change = revisions(args.base)
    records = []
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        export(base, tmp)
        roots = {"parent": tmp, "change": here}
        with open(args.out, "a", encoding="utf-8") as out:
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    line = run_once(roots[side], args.workload, seed, args.seconds, args.trace)
                    run = parse_run(line, better, f"{side} pair {i} seed {seed}")
                    rec = {"workload": args.workload, "pair": i, "side": side,
                           "seed": seed, "trace": args.trace, "base": base, "change": change,
                           "run": run}
                    records.append(rec)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    metrics = {k: round(v["value"], 4) for k, v in run["metrics"].items()
                               if k in better}
                    shown = metrics if not args.trace else f"{len(metrics)} per-layer metrics"
                    print(f"pair {i} {side} seed {seed}: {shown}", flush=True)
    summarize(records, better, bounds)


if __name__ == "__main__":
    main()
