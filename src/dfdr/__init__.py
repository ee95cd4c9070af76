"""Decision-theoretic multiple testing with the decisive false discovery rate.

Estimates the dFDR of single-interval rejection regions from permutation null
distributions, selects rejection thresholds by maximizing expected net
desirability (or by dFDR control), and ships a simulation harness that
measures the realized frequentist error rates of both rules.
"""

from dfdr.data import DataMatrix, load_labels, load_matrix, preprocess, signed_log1p
from dfdr.decision import (
    Curve,
    DecisionResult,
    Subset,
    SubsetDecision,
    SubsetPartition,
    common_threshold_weighted,
    control_dfdr,
    control_dfdr_pvalues,
    maximize_desirability,
    maximize_desirability_pvalues,
    per_subset_optimize,
)
from dfdr.errors import (
    DfdrError,
    ParseError,
    PreprocessingError,
    UndefinedEstimateError,
    UsageError,
    ValidationError,
)
from dfdr.estimators import (
    CENTRAL_BAND_MASS,
    CostBenefit,
    Pi0Estimate,
    choose_lambda,
    dfdr_from_cdfs,
    estimate_pi0,
    estimate_pi0_from_pvalues,
    p_to_cost_ratio,
    resolve_pi0,
    weighted_dfdr_from_cdfs,
)
from dfdr.resampling import (
    PermutationPlan,
    build_statistic_set,
    permutation_null,
    two_sample_abs_t,
)
from dfdr.simulation import (
    DesirabilityRule,
    DfdrControlRule,
    ErrorRateReport,
    LocalBin,
    ReplicateOutcome,
    SimulationConfig,
    analytic_dfdr,
    analytic_statistic_cdfs,
    boundary_offset,
    build_replicate_stats,
    generate_instance,
    measure_error_rates,
    measure_local_dfdr,
)
from dfdr.stats import (
    PValueSet,
    StatisticSet,
    validate_pvalues,
)

__version__ = "0.1.0"
