"""Break-date estimation for bubble episodes.

Estimates when an explosive (bubble) regime emerges in a time series, when
it collapses, and when the series recovers to a unit root, by minimizing
split-sample sums of squared AR(1) residuals.  Ships with the matching
data-generating process, a Monte Carlo harness, and samplers for the limit
distributions of the date estimators.
"""
from .asymptotics import (
    BnDecomposition,
    Discretization,
    LimitSample,
    bn_decompose,
    emergence_limit_draws,
    recovery_limit_draws,
)
from .dgp import (
    ErrorSpec,
    IidGaussian,
    LinearProcess,
    VolatilityScaled,
    generate_errors,
    simulate,
)
from .estimator import (
    BicReport,
    DegenerateSegmentError,
    EmptyRangeError,
    ModelChoice,
    SegmentFit,
    TileEstimates,
    bic_select,
    estimate_dates,
    estimate_tile,
    fit_segment,
)
from .montecarlo import (
    BicTally,
    CellKey,
    ExperimentConfig,
    ExperimentResult,
    HistogramResult,
    Target,
    preset,
    run_experiment,
)
from .types import (
    BreakEstimates,
    BubbleDateError,
    ConfigError,
    DgpConfig,
    LinearProcessCoeffs,
    Series,
    SeriesValidationError,
    SingleShiftVolatility,
    TrimmingPolicy,
    UnavailableReason,
    validate_series,
)

__version__ = "0.1.0"
