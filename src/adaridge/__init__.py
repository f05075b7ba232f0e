"""adaridge: sparse linear regression by adaptive ridge shrinkage.

The estimator places a conjugate normal prior on the coefficients whose
per-coordinate precisions carry gamma priors; iterating the closed-form
conditional maximizers shrinks and exactly zeroes weak coefficients, and
the shape hyper-parameter of the precision prior (the sparsity dial) can
be chosen by empirical Bayes using Laplace or Monte-Carlo approximations
of the marginal likelihood.  A seeded simulation harness reproduces the
reference comparison studies against least squares and GCV-tuned ridge.
"""

__version__ = "0.1.0"

from .baselines import RidgeFit, fit_ols, fit_ridge_gcv
from .em import EmFit, fit_em
from .errors import AdaRidgeError
from .evidence import (
    DEFAULT_ETA_GRID,
    DEFAULT_K_SWEEP,
    EVIDENCE_MU,
    EbSelection,
    EvidenceEstimate,
    laplace_log_evidence,
    mc_log_evidence,
    select_eta,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    parse_config,
    run_experiment,
)
from .metrics import (
    median_and_bootstrap_se,
    path_contains_truth,
    support_metrics,
    test_mse,
)
from .model import (
    MACHINE_EPS,
    Dataset,
    FitOptions,
    Hyper,
    ModeFit,
    PosteriorState,
    Standardization,
    destandardize_beta,
    standardize,
)
from .simulate import (
    DgpSpec,
    MODEL_BETAS,
    TruthRecord,
    dataset_to_csv,
    draw_dataset,
    draw_test_set,
    make_covariance,
)
from .solver import fit_joint_mode

__all__ = [
    "__version__",
    "AdaRidgeError",
    "MACHINE_EPS",
    "Dataset",
    "Standardization",
    "Hyper",
    "FitOptions",
    "PosteriorState",
    "ModeFit",
    "standardize",
    "destandardize_beta",
    "fit_joint_mode",
    "EmFit",
    "fit_em",
    "RidgeFit",
    "fit_ols",
    "fit_ridge_gcv",
    "EVIDENCE_MU",
    "DEFAULT_ETA_GRID",
    "DEFAULT_K_SWEEP",
    "EvidenceEstimate",
    "EbSelection",
    "laplace_log_evidence",
    "mc_log_evidence",
    "select_eta",
    "DgpSpec",
    "TruthRecord",
    "MODEL_BETAS",
    "make_covariance",
    "draw_dataset",
    "draw_test_set",
    "dataset_to_csv",
    "test_mse",
    "support_metrics",
    "path_contains_truth",
    "median_and_bootstrap_se",
    "ExperimentConfig",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
]
