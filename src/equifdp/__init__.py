"""equifdp: false discovery proportion of the BH procedure under Gaussian
equi-correlation -- exact sampler, closed-form limit laws, and a Monte Carlo
harness that verifies the predicted convergence at desk scale.
"""

from ._version import __version__
from .errors import (
    BracketingError,
    DegenerateCrossingError,
    EquifdpError,
    FixedPointUnderflowError,
    ParameterError,
    RegimeError,
)
from .gaussian import phi_upper, phi_upper_inv, std_normal_density
from .model import (
    FixedRho,
    ModelParams,
    PowerLaw,
    RhoSequence,
    RngStream,
    Sample,
    ThetaOverM,
    sample,
    write_sample_csv,
)
from .procedures import BH, FixedThreshold, ThresholdProcedure
from .asymptotics import (
    AsymptoticLaw,
    MixtureCdf,
    asymptotic_law,
    bh_fixed_point,
    ecdf_limit_cov,
    fluctuation_weights,
    variance_components,
)
from .oracle import OracleParams
from .experiment import (
    ExperimentConfig,
    ExperimentSummary,
    ProbeResult,
    RateStudyResult,
    check_tolerances,
    ecdf_covariance_probe,
    ks_statistic_normal,
    rate_study,
    run,
    summary_to_dict,
    write_replicates_csv,
    write_summary_json,
)

__all__ = [
    "__version__",
    # errors
    "EquifdpError",
    "ParameterError",
    "BracketingError",
    "FixedPointUnderflowError",
    "DegenerateCrossingError",
    "RegimeError",
    # gaussian
    "phi_upper",
    "phi_upper_inv",
    "std_normal_density",
    # model
    "ModelParams",
    "RngStream",
    "Sample",
    "ThetaOverM",
    "PowerLaw",
    "FixedRho",
    "RhoSequence",
    "sample",
    "write_sample_csv",
    # procedures
    "BH",
    "FixedThreshold",
    "ThresholdProcedure",
    # asymptotics
    "MixtureCdf",
    "AsymptoticLaw",
    "bh_fixed_point",
    "fluctuation_weights",
    "variance_components",
    "asymptotic_law",
    "ecdf_limit_cov",
    # oracle
    "OracleParams",
    # experiment
    "ExperimentConfig",
    "ExperimentSummary",
    "ProbeResult",
    "RateStudyResult",
    "run",
    "rate_study",
    "ecdf_covariance_probe",
    "ks_statistic_normal",
    "check_tolerances",
    "summary_to_dict",
    "write_replicates_csv",
    "write_summary_json",
]
