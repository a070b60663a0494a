"""One fresh process of the benchmark: imports censrank and runs commands.

    python3 worker.py SPEC.json

SPEC names the source directory, the set-up commands, the commands of one
cycle and the time budget; the worker writes what it saw (timings, exit
codes, captured stdout, report files, peak memory and, when tracing, the
per-layer totals) to the SPEC's "out" path.  It checks nothing itself.

Modes:
    probe   time the censrank import and the set-up commands, then exit
    run     repeat whole cycles while one more still fits in "seconds"
            (at least "min_cycles"); with "trace", run the set-up commands and
            one cycle with tracemalloc peaks, then untraced cycles for half
            the budget, then the set-up commands and one cycle with spans
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_censrank(src):
    sys.path.insert(0, src)
    started = time.perf_counter()
    import censrank.cli  # noqa: F401  (the user entry point and everything it loads)

    seconds = time.perf_counter() - started
    origin = os.path.realpath(sys.modules["censrank"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"censrank was imported from {origin}, not from {src}")
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("censrank")}
    return modules, seconds


def _run_command(cli, label, argv, report):
    """Call cli.main(argv) in-process; a raise or nonzero return is recorded."""
    if report and os.path.exists(report):
        os.remove(report)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            error = f"SystemExit({exc.code!r})"
        except Exception:  # noqa: BLE001  (a failing command is a measured outcome)
            error = traceback.format_exc()
        seconds = time.perf_counter() - started
    text = None
    if report and os.path.exists(report):
        with open(report, "r", encoding="utf-8") as fh:
            text = fh.read()
    return {"label": label, "seconds": seconds, "rc": rc, "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "report": text}


def _run_cycle(cli, spec, cycle_index, pass_name, tracer=None):
    records = []
    for label, argv, report in spec["cycle"]:
        if tracer is not None:
            tracer.run_id = f"cycle{cycle_index}:{label}"
        record = _run_command(cli, label, argv, report)
        record.update(cycle=cycle_index, pass_name=pass_name)
        records.append(record)
    return records


def _traced_pass(cli, spec, modules, tracer, spans, cycle_index):
    """The set-up commands and one cycle, with `tracer` installed."""
    pass_name = "traced" if spans else "memory"
    tracer.install(modules, spans=spans)
    try:
        tracer.run_id = "setup"
        setup = [_run_command(cli, "setup", argv, None) for argv in spec["setup"]]
        return setup, _run_cycle(cli, spec, cycle_index, pass_name, tracer)
    finally:
        tracer.uninstall()


def _cycles(cli, spec, seconds, min_cycles, first_index):
    """Whole untraced cycles: at least `min_cycles`, then more while one
    more cycle of the mean length still ends within `seconds`."""
    records = []
    started = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - started
        if done >= min_cycles and elapsed + elapsed / done > seconds:
            return records
        records += _run_cycle(cli, spec, first_index + done, "untraced")
        done += 1


def main(spec_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    modules, import_s = _import_censrank(spec["src"])
    cli = modules["censrank.cli"]
    result = {"import_s": import_s, "setup": [], "commands": []}

    if spec["mode"] == "probe":
        for argv in spec["setup"]:
            result["setup"].append(_run_command(cli, "setup", argv, None))
    elif not spec["trace"]:
        result["commands"] = _cycles(cli, spec, spec["seconds"], spec["min_cycles"], 0)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer

        tracer = Tracer()
        # tracemalloc peaks first; this pass also warms up the process
        setup, memory = _traced_pass(cli, spec, modules, tracer, False, 0)
        untraced = _cycles(cli, spec, spec["seconds"] / 2.0, 1, 1)
        setup_again, traced = _traced_pass(cli, spec, modules, tracer, True,
                                           untraced[-1]["cycle"] + 1)
        result["setup"] = setup + setup_again
        result["commands"] = memory + untraced + traced
        result["layers"] = tracer.layer_metrics()
        result["missing_layers"] = tracer.missing
        result["uncounted_layers"] = sorted(tracer.uncounted)
        tracer.write_spans(spec["spans"])

    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
