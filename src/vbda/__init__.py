"""Variational discriminant analysis with per-variable selection.

Two classifiers over independent Gaussian variables: a linear variant with a
shared group variance (VLDA) and a quadratic variant with group-specific
variances (VQDA).  Each variable carries a selection probability w_j updated
by fast collapsed variational cycles; prediction plugs the trained w into a
diagonal discriminant rule.  An exact enumeration oracle, a simulation
generator, evaluation harness, CSV/JSON I/O, and a CLI round out the package.
"""

from .core import (
    CapacityError,
    CoreError,
    DataValidationError,
    Dataset,
    DomainError,
    Hyperparameters,
    VariableStats,
    compute_stats,
    compute_stats_with_new,
    expit,
    lambda_lrt_lda,
    lambda_lrt_qda,
    log_b_gamma,
    xi,
)
from .dataio import (
    PipelineResult,
    PreprocessPipeline,
    StateVersionError,
    align_to_columns,
    apply_pipeline,
    load_csv,
    load_state,
    save_csv,
    save_state,
)
from .evalharness import (
    ConsistencyCurve,
    ConsistencyResult,
    CVReport,
    EvalReport,
    classification_error,
    consistency_experiment,
    kfold_cv,
    mcc,
    selection_confusion,
    stratified_folds,
)
from .oracle import (
    ExactPosterior,
    exact_posterior,
    lambda_bayes_lda,
    lambda_bayes_qda,
)
from .rcvb import (
    FitState,
    Prediction,
    fit_vlda,
    fit_vqda,
    predict,
    predict_coupled_vlda,
    predict_vlda,
    predict_vqda,
    select_variables,
)
from .simgen import (
    COV_SPECS,
    MEAN_SPECS,
    SimReplicate,
    SimSetting,
    ar1_sample,
    derive_seed,
    generate,
    setting_from_index,
    uniform_corr_sample,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CoreError",
    "DataValidationError",
    "Dataset",
    "DomainError",
    "Hyperparameters",
    "VariableStats",
    "compute_stats",
    "compute_stats_with_new",
    "expit",
    "lambda_lrt_lda",
    "lambda_lrt_qda",
    "log_b_gamma",
    "xi",
    "FitState",
    "Prediction",
    "fit_vlda",
    "fit_vqda",
    "predict",
    "predict_coupled_vlda",
    "predict_vlda",
    "predict_vqda",
    "select_variables",
    "ExactPosterior",
    "exact_posterior",
    "lambda_bayes_lda",
    "lambda_bayes_qda",
    "COV_SPECS",
    "MEAN_SPECS",
    "SimReplicate",
    "SimSetting",
    "ar1_sample",
    "derive_seed",
    "generate",
    "setting_from_index",
    "uniform_corr_sample",
    "ConsistencyCurve",
    "ConsistencyResult",
    "CVReport",
    "EvalReport",
    "classification_error",
    "consistency_experiment",
    "kfold_cv",
    "mcc",
    "selection_confusion",
    "stratified_folds",
    "PipelineResult",
    "PreprocessPipeline",
    "StateVersionError",
    "align_to_columns",
    "apply_pipeline",
    "load_csv",
    "load_state",
    "save_csv",
    "save_state",
]
