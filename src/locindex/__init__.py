"""Measuring lack of co-monotonicity (LOC) between paired variables.

The pipeline: normalize raw marks to [0, 1], fit a conditional-mean or
conditional-median curve to each ordered scatterplot by local linear
smoothing with a plug-in bandwidth, transfer the fitted curve onto an
equal-width step function, and evaluate the exact LOC index -- the weighted
gap between the curve and its increasing rearrangement.  Rank-based
coefficients (Spearman, Liebscher's zeta, the finite-population I) live
alongside for comparison, tied together by the identity
loc_index(rank_step_function(s)) == finite_population_I(s).
"""

from .association import (
    LocMatrix,
    PairFit,
    PsiFunction,
    Ranks,
    TiesError,
    empirical_ranks,
    finite_population_I,
    fit_pair,
    liebscher_zeta,
    loc_matrix,
    pair_seed,
    pearson,
    psi_norm_constant,
    rank_step_function,
    spearman,
)
from .bandwidth import (
    KERNEL_ROUGHNESS,
    KERNEL_SECOND_MOMENT,
    BandwidthDiagnostics,
    BandwidthError,
    BandwidthEstimate,
    dpi_bandwidth,
    median_adjust,
    oversmoothed_bandwidth,
    yu_jones_factor,
)
from .dataset import (
    DEFAULT_SCHEMA,
    ColumnSchema,
    NormalizedSample,
    PairedSample,
    ParseError,
    RawScores,
    SummaryStats,
    histogram,
    jitter,
    load_csv,
    normalize,
    pair,
    summarize,
)
from .rearrangement import (
    LocValue,
    StepFunction,
    increasing_rearrangement,
    loc_index,
    step_from_curve,
)
from .smoothing import (
    FitSpec,
    FittedCurve,
    LossKind,
    SmoothingError,
    check_loss_objective,
    fit_curve,
    local_linear_fit,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthDiagnostics",
    "BandwidthError",
    "BandwidthEstimate",
    "ColumnSchema",
    "DEFAULT_SCHEMA",
    "FitSpec",
    "FittedCurve",
    "KERNEL_ROUGHNESS",
    "KERNEL_SECOND_MOMENT",
    "LocMatrix",
    "LocValue",
    "LossKind",
    "NormalizedSample",
    "PairFit",
    "PairedSample",
    "ParseError",
    "PsiFunction",
    "Ranks",
    "RawScores",
    "SmoothingError",
    "StepFunction",
    "SummaryStats",
    "TiesError",
    "check_loss_objective",
    "dpi_bandwidth",
    "empirical_ranks",
    "finite_population_I",
    "fit_curve",
    "fit_pair",
    "histogram",
    "increasing_rearrangement",
    "jitter",
    "liebscher_zeta",
    "load_csv",
    "local_linear_fit",
    "loc_index",
    "loc_matrix",
    "median_adjust",
    "normalize",
    "oversmoothed_bandwidth",
    "pair",
    "pair_seed",
    "pearson",
    "psi_norm_constant",
    "rank_step_function",
    "spearman",
    "step_from_curve",
    "summarize",
    "yu_jones_factor",
]
