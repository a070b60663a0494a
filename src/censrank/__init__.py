"""Survival analysis with ranking and CDF-matching objectives.

Core pieces: right-censored datasets on uniform time grids (`core`), the
concordance index (`metrics`), Kaplan-Meier estimation and censored-target
imputation (`estimators`), Cox/pairwise-ranking/CDF-matching losses with
analytic gradients (`losses`), a from-scratch feed-forward network
(`neural`), dataset ingestion and synthetic data (`pipeline`), and the
experiment harness plus CLI (`harness`, `cli`).
"""

from .core import Dataset, TimeGrid, build_time_grid
from .errors import (
    CensrankError,
    CsvParseError,
    ExperimentFailedError,
    TrainingDivergedError,
    UndefinedMetricError,
)
from .estimators import KaplanMeierCurve, kaplan_meier, target_cdf_matrix
from .harness import (
    CENSORING_MODES,
    LOSSES,
    ExperimentReport,
    TrainRun,
    apply_censoring_mode,
    censoring_ablation,
    censoring_sweep,
    emit_report,
    run_cv,
    train_model,
)
from .losses import (
    bin_weights,
    cox_nll_with_grad,
    phi_with_grad,
    ranking_loss_with_grad,
    wm_batch_with_grad,
)
from .metrics import AcceptablePairSet, acceptable_pairs, c_index, c_index_from_pairs
from .neural import Adam, Network, NetworkConfig, load_checkpoint, save_checkpoint
from .pipeline import (
    DatasetSchema,
    PreprocessStats,
    RawTable,
    generate_synthetic,
    kfold_split,
    load_csv,
    load_schema,
    preprocess,
)

__version__ = "0.1.0"
