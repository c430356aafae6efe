"""Reduced k-means: joint clustering and subspace estimation.

The model places k centroids in a q-dimensional subspace spanned by a
column-orthonormal loading matrix and assigns each observation to its nearest
subspace centroid, minimizing the mean squared residual. The package bundles
the alternating least squares solver, classical baselines (k-means, PCA,
tandem), variance-ratio dimension selection, evaluation metrics, a synthetic
benchmark generator, and a small laboratory for replicated consistency
experiments with a certified brute-force oracle.
"""
from .baselines import kmeans_1d_exact, kmeans_fit, pca_fit, tandem_fit
from .datagen import DatasetSpec, GeneratedDataset, generate_dataset, normalize_columns
from .errors import CsvParseError, DegenerateDataError
from .io import (
    ResultDocument,
    load_csv,
    load_labels_csv,
    write_labels_csv,
    write_matrix_csv,
)
from .lab import (
    AgreementResult,
    ConvergenceReport,
    OracleSolution,
    PopulationSpec,
    RateBound,
    agreement_experiment,
    check_distinctness,
    consistency_experiment,
    oracle_global_min,
    population_risk,
    rate_bound,
)
from .metrics import (
    adjusted_rand_index,
    directed_hausdorff,
    param_distance,
    symmetric_hausdorff,
)
from .selection import VrProfile, delta2_profile, select_dimension, vr_hat
from .solver import (
    SolverConfig,
    assign_clusters,
    fit_rkm,
    project,
)
from .types import (
    ORTHONORMALITY_TOL,
    Assignment,
    CentroidSet,
    DataMatrix,
    LoadingMatrix,
    RkmSolution,
    assigned_objective,
    decompose_objective,
    rkm_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ORTHONORMALITY_TOL",
    "Assignment",
    "AgreementResult",
    "CentroidSet",
    "ConvergenceReport",
    "CsvParseError",
    "DataMatrix",
    "DatasetSpec",
    "DegenerateDataError",
    "GeneratedDataset",
    "LoadingMatrix",
    "OracleSolution",
    "PopulationSpec",
    "RateBound",
    "ResultDocument",
    "RkmSolution",
    "SolverConfig",
    "VrProfile",
    "adjusted_rand_index",
    "agreement_experiment",
    "assign_clusters",
    "assigned_objective",
    "check_distinctness",
    "consistency_experiment",
    "decompose_objective",
    "delta2_profile",
    "directed_hausdorff",
    "fit_rkm",
    "generate_dataset",
    "kmeans_1d_exact",
    "kmeans_fit",
    "load_csv",
    "load_labels_csv",
    "normalize_columns",
    "oracle_global_min",
    "param_distance",
    "pca_fit",
    "population_risk",
    "project",
    "rate_bound",
    "rkm_objective",
    "select_dimension",
    "symmetric_hausdorff",
    "tandem_fit",
    "vr_hat",
    "write_labels_csv",
    "write_matrix_csv",
]
