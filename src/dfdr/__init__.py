"""Decision-theoretic multiple testing with the decisive false discovery rate.

Estimates the dFDR of single-interval rejection regions from permutation null
distributions, selects rejection thresholds by maximizing expected net
desirability (or by dFDR control), and ships a simulation harness that
measures the realized frequentist error rates of both rules.

The names below and the submodules load on first use, so ``import dfdr``
loads no numpy and ``dfdr.cli`` is reached before it (README "Command line").
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "data", "decision", "errors", "estimators", "resampling", "simulation",
               "stats")
# Exported name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "data": ("DataMatrix", "load_labels", "load_matrix", "preprocess", "signed_log1p"),
    "decision": ("Curve", "DecisionResult", "Subset", "SubsetDecision", "SubsetPartition",
                 "common_threshold_weighted", "control_dfdr", "maximize_desirability",
                 "per_subset_optimize"),
    "errors": ("DfdrError", "ParseError", "PreprocessingError", "UndefinedEstimateError",
               "UsageError", "ValidationError"),
    "estimators": ("CENTRAL_BAND_MASS", "CostBenefit", "Pi0Estimate", "StatisticSet", "choose_lambda",
                   "dfdr_from_cdfs", "estimate_pi0", "p_to_cost_ratio", "resolve_pi0",
                   "weighted_dfdr_from_cdfs"),
    "resampling": ("PermutationPlan", "build_statistic_set", "permutation_null",
                   "two_sample_abs_t"),
    "simulation": ("DesirabilityRule", "DfdrControlRule", "ErrorRateReport", "LocalBin",
                   "ReplicateOutcome", "SimulationConfig", "analytic_dfdr",
                   "analytic_statistic_cdfs", "boundary_offset", "build_replicate_stats",
                   "generate_instance", "measure_error_rates", "measure_local_dfdr"),
    "stats": ("PValueSet", "validate_pvalues"),
}.items() for name in names}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})
