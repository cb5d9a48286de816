"""Budget-aware evolutionary multitasking for AUC-optimal linear rankers.

The package optimizes the pairwise ranking loss of a linear scorer under an
exact evaluation-cost budget. A cheap task scores candidates on a stratified
subsample, an expensive task on the full data; three solvers (a single-task
GA, a multifactorial EA, and an explicit-transfer EA) share one budget
ledger, and the cheap subsample is periodically refocused on the instances
the current best scorer finds hardest.
"""

__version__ = "0.1.0"

from .analysis import (
    BenchmarkCell,
    BenchmarkRow,
    BenchmarkSummary,
    compare_cells,
    landscape_similarity,
    run_benchmark,
    spearman_rho,
)
from .config import (
    BenchmarkConfig,
    BenchmarkEntry,
    ConfigError,
    CostModelConfig,
    LandscapeConfig,
    RunConfig,
    SolverConfig,
)
from .data import (
    DataError,
    Dataset,
    DatasetView,
    parse_libsvm,
    parse_libsvm_path,
    scale_features,
    serialize_libsvm,
    stratified_kfold,
    stratified_sample,
)
from .environment import (
    BudgetExhaustedError,
    CostLedger,
    Environment,
    TaskId,
    build_environment,
)
from .evaluation import (
    auc_metric,
    evaluate,
    hardness_scores,
    loss_fraction,
    objective,
    pairwise_loss_count,
    select_hardest,
)
from .solvers import (
    RunResult,
    TracePoint,
    decode_weights,
    dispatch_solver,
    fit_transfer_map,
)

__all__ = [
    "__version__",
    "BenchmarkCell",
    "BenchmarkRow",
    "BenchmarkSummary",
    "compare_cells",
    "landscape_similarity",
    "run_benchmark",
    "spearman_rho",
    "BenchmarkConfig",
    "BenchmarkEntry",
    "ConfigError",
    "CostModelConfig",
    "LandscapeConfig",
    "RunConfig",
    "SolverConfig",
    "DataError",
    "Dataset",
    "DatasetView",
    "parse_libsvm",
    "parse_libsvm_path",
    "scale_features",
    "serialize_libsvm",
    "stratified_kfold",
    "stratified_sample",
    "BudgetExhaustedError",
    "CostLedger",
    "Environment",
    "TaskId",
    "build_environment",
    "auc_metric",
    "evaluate",
    "hardness_scores",
    "loss_fraction",
    "objective",
    "pairwise_loss_count",
    "select_hardest",
    "RunResult",
    "TracePoint",
    "decode_weights",
    "dispatch_solver",
    "fit_transfer_map",
]
