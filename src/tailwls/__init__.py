"""Reduced-bias tail-index estimation by weighted least squares.

Heavy-tailed (Pareto-type) samples admit the exponential regression
representation of their top-order-statistic log-spacings; fitting it by
weighted least squares with linearly decreasing weights gives a tail-index
estimator with the bias of a second-order correction. The paper states its
asymptotic variance as 4 gamma^2 / (3k); the estimator's actual variance,
slope fluctuation included, is gamma^2 (24/5) / k at rho = -1 (see
``asymptotics``). This package implements that
estimator alongside the classical Hill estimator and three regression
baselines, plus the sampling distributions, Monte Carlo machinery and
asymptotic diagnostics needed to study them.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateTailError,
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NonFiniteError,
    NonPositiveError,
    TailwlsError,
    UOutOfRangeError,
)
from .spacings import (
    OrderedTail,
    covariates,
    log_spacings,
    validate_and_sort,
    weights,
)
from .asymptotics import (
    SMoments,
    amse,
    s1_limit,
    s2_limit,
    s_moments,
    standardized_statistic,
)
from .estimators import (
    ESTIMATOR_IDS,
    optimal_k,
    path_estimates,
)
from .second_order import DEFAULT_RHO_GRID, MOMENT_RHO_RANGE, RhoMethod, resolve_rho
from .distributions import (
    FAMILIES,
    DistributionSpec,
    burr,
    cdf,
    frechet,
    loggamma,
    pareto,
    quantile,
    sample,
)
from .montecarlo import (
    GENERATOR_ID,
    NormalityReport,
    SimulationConfig,
    SimulationSummary,
    normality_report,
    rep_seed,
    run_model_simulation,
    run_simulation,
    summarize,
)

__all__ = [
    "__version__",
    # errors
    "TailwlsError",
    "DegenerateTailError",
    "EmptyOrTinyError",
    "InvalidRhoError",
    "KOutOfRangeError",
    "KTooSmallError",
    "NonFiniteError",
    "NonPositiveError",
    "UOutOfRangeError",
    # spacings
    "OrderedTail",
    "validate_and_sort",
    "log_spacings",
    "weights",
    "covariates",
    # estimators
    "ESTIMATOR_IDS",
    "path_estimates",
    "optimal_k",
    # second order
    "RhoMethod",
    "resolve_rho",
    "DEFAULT_RHO_GRID",
    "MOMENT_RHO_RANGE",
    # distributions
    "FAMILIES",
    "DistributionSpec",
    "pareto",
    "burr",
    "frechet",
    "loggamma",
    "quantile",
    "cdf",
    "sample",
    # monte carlo
    "GENERATOR_ID",
    "SimulationConfig",
    "SimulationSummary",
    "rep_seed",
    "run_simulation",
    "run_model_simulation",
    "summarize",
    "NormalityReport",
    "normality_report",
    # asymptotics
    "SMoments",
    "s_moments",
    "s1_limit",
    "s2_limit",
    "amse",
    "standardized_statistic",
]
