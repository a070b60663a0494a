"""Per-module spans around calls into censrank's public functions.

The program itself is not instrumented: `Tracer.install` replaces each
traced function with a wrapper, in its defining module and wherever
`harness` or `cli` imported it by name, and `uninstall` puts the originals
back.  Every call becomes a span (name, start, end, parent, run id) kept in
memory; work counts are read from argument and result shapes.  Peak
Python-heap memory (tracemalloc) is measured only around the calls that
list `peak_mb`, in a separate untimed pass.
"""

import json
import os
import time
import tracemalloc

# Imported-by-name copies live in these modules besides the defining one.
_IMPORTERS = ("censrank.harness", "censrank.cli")


def _matmul_flops(net, rows):
    cfg = net.config
    dims = [cfg.input_dim, *cfg.hidden_dims, cfg.num_outputs]
    return 2.0 * rows * sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "neural.forward_train" if train else "neural.forward_eval"


_forward_name.names = ("neural.forward_train", "neural.forward_eval")


def _forward_counts(args, kwargs, result):
    rows = args[1].shape[0]  # Network.forward(self, batch, train, ...)
    return {"rows": rows, "gflop": _matmul_flops(args[0], rows) / 1e9}


def _backward_counts(args, kwargs, result):
    # weight gradient plus input gradient per layer: twice the forward matmuls
    rows = args[0]._cache["head_input"].shape[0]
    return {"gflop": 2.0 * _matmul_flops(args[0], rows) / 1e9}


# (metric prefix, defining module, attribute path, counts, measure peak_mb).
# Attribute paths with a dot name a method on a class.  A name given as a
# callable is chosen per call.
TRACED = (
    ("pipeline.load_csv", "censrank.pipeline", "load_csv",
     lambda a, k, r: {"rows": len(r)}, False),
    ("pipeline.preprocess", "censrank.pipeline", "preprocess",
     lambda a, k, r: {"rows": len(r.times)}, True),
    ("core.Dataset.subset", "censrank.core", "Dataset.subset", None, False),
    ("estimators.kaplan_meier", "censrank.estimators", "kaplan_meier", None, False),
    ("estimators.target_cdf_matrix", "censrank.estimators", "target_cdf_matrix",
     lambda a, k, r: {"bytes": r.nbytes}, True),
    ("metrics.acceptable_pairs", "censrank.metrics", "acceptable_pairs",
     lambda a, k, r: {"pairs": len(r)}, True),
    ("metrics.c_index_from_pairs", "censrank.metrics", "c_index_from_pairs", None, False),
    # harness's per-batch pair enumeration for the ranking losses; the copy
    # inside metrics (used by acceptable_pairs) is deliberately not wrapped
    ("metrics.batch_pairs", "censrank.harness", "_enumerate_pairs",
     lambda a, k, r: {"pairs": len(r[0])}, False),
    ("losses.wm_batch_with_grad", "censrank.losses", "wm_batch_with_grad",
     lambda a, k, r: {"rows": len(a[0])}, False),
    ("losses.cox_nll_with_grad", "censrank.losses", "cox_nll_with_grad",
     lambda a, k, r: {"rows": len(a[0])}, False),
    ("losses.ranking_loss_with_grad", "censrank.losses", "ranking_loss_with_grad",
     lambda a, k, r: {"pairs": len(a[1])}, False),
    (_forward_name, "censrank.neural", "Network.forward", _forward_counts, False),
    ("neural.backward", "censrank.neural", "Network.backward", _backward_counts, False),
    ("neural.Adam.step", "censrank.neural", "Adam.step",
     lambda a, k, r: {"params": sum(g.size for g in a[2].values())}, False),
    ("neural.snapshot", "censrank.neural", "Network.snapshot", None, False),
    ("neural.save_checkpoint", "censrank.neural", "save_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}, False),
    ("neural.load_checkpoint", "censrank.neural", "load_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}, False),
    ("harness.train_model", "censrank.harness", "train_model",
     lambda a, k, r: {"epochs": r[1]["stopped_epoch"]}, False),
    ("harness.run_cv", "censrank.harness", "run_cv", None, False),
    ("harness.emit_report", "censrank.harness", "emit_report", None, False),
    ("cli.main", "censrank.cli", "main", None, False),
)

# The per-layer metrics the benchmark reports, each a total over one traced
# pass; BENCHMARK.json lists the same names.
PER_LAYER = tuple(
    f"{function}.{stat}"
    for function, stats in (
        ("pipeline.load_csv", "calls busy_s rows"),
        ("pipeline.preprocess", "calls busy_s rows peak_mb"),
        ("core.Dataset.subset", "calls busy_s"),
        ("estimators.kaplan_meier", "calls busy_s"),
        ("estimators.target_cdf_matrix", "calls busy_s bytes peak_mb"),
        ("metrics.acceptable_pairs", "calls busy_s pairs peak_mb"),
        ("metrics.c_index_from_pairs", "calls busy_s"),
        ("metrics.batch_pairs", "calls busy_s pairs"),
        ("losses.wm_batch_with_grad", "calls busy_s rows"),
        ("losses.cox_nll_with_grad", "calls busy_s rows"),
        ("losses.ranking_loss_with_grad", "calls busy_s pairs"),
        ("neural.forward_train", "calls busy_s rows gflop"),
        ("neural.forward_eval", "calls busy_s rows gflop"),
        ("neural.backward", "calls busy_s gflop"),
        ("neural.Adam.step", "calls busy_s params"),
        ("neural.snapshot", "calls busy_s"),
        ("neural.save_checkpoint", "busy_s bytes"),
        ("neural.load_checkpoint", "busy_s bytes"),
        ("harness.train_model", "calls busy_s self_s epochs"),
        ("harness.run_cv", "busy_s self_s"),
        ("harness.emit_report", "busy_s"),
        ("cli.main", "calls busy_s self_s"),
    )
    for stat in stats.split()
)

# stats that do not come from a work-count function
NON_COUNT_STATS = ("calls", "busy_s", "self_s", "peak_mb")

# metric suffix -> unit
UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "rows": "rows",
    "pairs": "pairs",
    "epochs": "count",
    "params": "count",
    "bytes": "bytes",
    "gflop": "GFLOP",
    "peak_mb": "MB",
}


class Tracer:
    """Spans of every traced call made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id, counts]
        self.peaks = {}  # name -> largest tracemalloc peak seen, bytes
        self.missing = []  # prefixes whose function no longer exists
        self.uncounted = set()  # prefixes whose work counts could not be read
        self.run_id = ""
        self._spans = True
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if not tracer._spans:
                return tracer._peak_call(span_name, fn, args, kwargs)
            index = len(tracer.spans)
            span = [span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.run_id, {}]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                try:
                    span[5] = counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    tracer.uncounted.add(span_name)  # shapes changed: counts are absent
            return result

        traced.__wrapped__ = fn
        return traced

    def _peak_call(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def install(self, modules, spans=True):
        """Wrap the traced functions; `modules` maps module names to modules.

        With spans=False only the functions that report `peak_mb` are
        wrapped, and their calls record tracemalloc peaks instead of spans:
        tracemalloc slows every allocation, so it never runs in a timed pass.
        """
        self.missing = []
        self._spans = spans
        for name, module_name, path, counts, measure_peak in TRACED:
            if not (spans or measure_peak):
                continue
            module = modules.get(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.extend(getattr(name, "names", (name,)))
                continue
            wrapper = self._wrap(name, original, counts)
            targets = [owner]
            if not owner_path:
                targets += [modules[m] for m in _IMPORTERS if m in modules and m != module_name]
            for target in targets:
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved = []

    def layer_metrics(self):
        """{metric name: value} summed over all spans so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, _, _, counts) in enumerate(self.spans):
            for stat, value in (("calls", 1), ("busy_s", end - start),
                                ("self_s", end - start - child_time[index])):
                out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + value
            for stat, value in counts.items():
                out[f"{name}.{stat}"] = out.get(f"{name}.{stat}", 0) + value
        for name, bytes_peak in self.peaks.items():
            out[f"{name}.peak_mb"] = bytes_peak / 2**20
        return out

    def write_spans(self, path):
        """Write every span as one JSON line, once, at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id,
                                     "counts": counts}) + "\n")
