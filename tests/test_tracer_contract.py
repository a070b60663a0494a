"""The benchmark's tracer can still read every layer it reports.

`perfbench/tracer.py` wraps public functions and reads work counts from
their arguments and results (`len(scores)`, `grads.values()`,
`net._cache["head_input"]`, ...).  A refactor that changes one of those
shapes makes the traced benchmark drop the metric silently, so the
commands the benchmark runs are traced here on a small table and every
traced function must be found and counted.
"""

import importlib.util
import sys
from pathlib import Path

from censrank import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# traced functions whose counts these commands exercise
COUNTED_LAYERS = {
    "pipeline.load_csv", "pipeline.preprocess", "estimators.target_cdf_matrix",
    "metrics.batch_pairs", "losses.wm_batch_with_grad", "losses.cox_nll_with_grad",
    "losses.ranking_loss_with_grad", "neural.forward_train", "neural.forward_eval",
    "neural.backward", "neural.Adam.step", "neural.save_checkpoint",
    "neural.load_checkpoint", "harness.train_model",
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_censrank_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_commands_leave_no_layer_missing_or_uncounted(tmp_path, capsys):
    prefix = str(tmp_path / "toy")
    assert cli.main(["synth", "--n", "240", "--num-features", "4", "--seed", "3",
                     "--out", prefix]) == 0
    data = ["--dataset", prefix + ".csv", "--schema", prefix + ".schema.json"]
    grid = tmp_path / "grid.json"
    grid.write_text('{"learning_rate": [0.01], "l2": [0.0]}', encoding="utf-8")
    checkpoint = str(tmp_path / "model.ckpt")
    scores = tmp_path / "scores.csv"
    scores.write_text("score\n" + "".join(f"{k}\n" for k in range(240)), encoding="utf-8")
    commands = [
        ["cv", *data, "--loss", loss, "--bin-width", "5", "--k", "2", "--epochs", "1", "--patience", "1",
         "--grid", str(grid), "--hidden-dims", "8", "--out", str(tmp_path / f"{loss}.csv")]
        for loss in ("wm", "cox-efron", "rank-sigmoid")
    ]
    commands += [
        ["train", *data, "--loss", "wm", "--bin-width", "5", "--epochs", "1", "--patience", "1",
         "--hidden-dims", "8", "--checkpoint", checkpoint],
        ["evaluate", *data, "--checkpoint", checkpoint],
        # the outcome-only load: time and event columns alone
        ["evaluate", *data, "--scores", str(scores)],
    ]
    tracer = _load_tracer().Tracer()
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("censrank")}
    tracer.install(modules)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    assert tracer.missing == []
    assert tracer.uncounted == set()
    # every layer with work counts ran, so "uncounted" was checked on each
    assert COUNTED_LAYERS <= {span[0] for span in tracer.spans}
    loads = [span[5] for span in tracer.spans if span[0] == "pipeline.load_csv"]
    assert loads == [{"rows": 240}] * len(commands)
