"""Sparse optimal discriminant clustering with a sample-fusion penalty.

The solver alternates a group-sparse ridge regression for the projection
matrix with an orthogonally constrained scoring-matrix update solved by an
inner ADMM, then reads cluster labels off the low-dimensional embedding.
"""

from .core import (
    ProblemInstance,
    as_generator,
    center_columns,
    child_seed,
    thin_svd,
    top_eigenvalue_sym,
)
from .datagen import SimulationConfig, build_covariance, cluster_means, generate
from .fusion_graph import (
    DEFAULT_DELTA,
    DEFAULT_TAU,
    FusionGraph,
    build_fusion_graph,
    compute_weights,
    knn_indicator,
)
from .group_lasso import StackedDesign, build_stacked, group_soft_threshold, solve_B
from .metrics import (
    adjusted_rand_index,
    anova_f_scores,
    sensitivity_specificity,
    variance_ratio,
)
from .model_selection import (
    GapCurve,
    ParamGrid,
    gap_statistic,
    kappa,
    select_k_by_gap,
    selection_indicator,
    stability_cv,
)
from .solver import (
    CentroidSet,
    FitResult,
    fit_rsodc,
    fit_sodc,
    kmeans,
    objective,
    tandem_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "CentroidSet",
    "DEFAULT_DELTA",
    "DEFAULT_TAU",
    "FitResult",
    "FusionGraph",
    "GapCurve",
    "ParamGrid",
    "ProblemInstance",
    "SimulationConfig",
    "StackedDesign",
    "adjusted_rand_index",
    "anova_f_scores",
    "as_generator",
    "build_covariance",
    "build_fusion_graph",
    "build_stacked",
    "center_columns",
    "child_seed",
    "cluster_means",
    "compute_weights",
    "fit_rsodc",
    "fit_sodc",
    "gap_statistic",
    "generate",
    "group_soft_threshold",
    "kappa",
    "kmeans",
    "knn_indicator",
    "objective",
    "select_k_by_gap",
    "selection_indicator",
    "sensitivity_specificity",
    "solve_B",
    "stability_cv",
    "tandem_baseline",
    "thin_svd",
    "top_eigenvalue_sym",
    "variance_ratio",
]
