"""Linear errors-in-variables regression with unknown heteroscedastic
measurement error, estimated from replicate surrogates.

Estimators: moment-corrected least squares, a weighted phase-function
criterion, and their combination through a generalized method of moments with
bootstrap-estimated equation covariance and sandwich standard errors. A
simulation harness reproduces the reference numerical studies at desk scale.
"""

from .covariance import estimate_covariances
from .errors import (
    BootstrapInstabilityError,
    CsvParseError,
    DegenerateCovarianceError,
    DegenerateInputError,
    EivError,
    EstimationError,
    StandardErrorError,
    ValidationError,
    WeightSolveError,
)
from .gmm import GmmFit, fit_gmm_multi, gmm_standard_errors
from .metrics import RobustMse, SeSummary, mc_se_summary, robust_mse
from .model_data import (
    CsvSchema,
    Dataset,
    ParamVector,
    RegressionDesign,
    build_design,
    load_csv,
    make_dataset,
    write_csv,
)
from .moment_correction import McFit, corrected_l2, fit_mc, fit_ols
from .phase import EcfOutcome
from .simgen import SimConfig, gen_dataset, gen_error_matrices
from .study import StudyResult, run_replication, run_study
from .weights import WeightVector

__version__ = "0.1.0"
