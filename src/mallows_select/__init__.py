"""Selective Mallows ranking model: sampling, estimation, recovery, experiments."""

from .core import (
    MallowsParams,
    Ranking,
    SampleProfile,
    SelectionSequence,
    kendall_tau,
    kendall_tau_incomplete,
    partition_function,
    pointwise_distance,
    restrict,
)
from .estimators import (
    PairwiseCounts,
    PosEstResult,
    accumulate_counts,
    log_likelihood,
    positional_estimator,
    score,
    top_k,
)
from .experiments import (
    ExperimentConfig,
    binary_search_complexity,
    estimate_success_rate,
    preset,
    run_adversarial_demo,
    run_complexity_experiment,
    run_distance_experiment,
    run_topk_experiment,
)
from .mle import (
    BoundaryTouchError,
    BudgetExceededError,
    DpConfig,
    MleReport,
    dp_maximize,
    recover_likelier_than_nature,
    recover_mle,
)
from .rng import Stream
from .sampling import (
    InfeasibleSpecError,
    SelectionSpec,
    generate_selection,
    sample_mallows,
    sample_profile,
    verify_p_frequent,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTouchError",
    "BudgetExceededError",
    "DpConfig",
    "ExperimentConfig",
    "InfeasibleSpecError",
    "MallowsParams",
    "MleReport",
    "PairwiseCounts",
    "PosEstResult",
    "Ranking",
    "SampleProfile",
    "SelectionSequence",
    "SelectionSpec",
    "Stream",
    "accumulate_counts",
    "binary_search_complexity",
    "dp_maximize",
    "estimate_success_rate",
    "generate_selection",
    "kendall_tau",
    "kendall_tau_incomplete",
    "log_likelihood",
    "partition_function",
    "pointwise_distance",
    "positional_estimator",
    "preset",
    "recover_likelier_than_nature",
    "recover_mle",
    "restrict",
    "run_adversarial_demo",
    "run_complexity_experiment",
    "run_distance_experiment",
    "run_topk_experiment",
    "sample_mallows",
    "sample_profile",
    "score",
    "top_k",
    "verify_p_frequent",
]
