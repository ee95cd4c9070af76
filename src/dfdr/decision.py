"""Rejection-threshold selection.

Two rules are provided for a single family of tests: maximizing the
estimated expected net desirability, and dFDR control (reject as much as
possible subject to an estimated dFDR bound). For heterogeneous costs and
benefits there are two further routes: an independent threshold per subset of
tests sharing the same cost and benefit, or one common threshold chosen by
maximizing the weighted desirability.

Candidate thresholds are exactly the observed statistic values, plus +inf as
the implicit "reject nothing" option whose desirability is 0. Ties in the
objective break toward the largest threshold (fewest rejections).

Every route, p-values included, is one pass over sorted values: the distinct
candidates and their discovery counts come from where the runs of ties start
in the sorted observed values, the null shares from the null's summary
(``StatisticSet.null_summary``), and the whole candidate curve is kept as
parallel arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError
from dfdr.estimators import (
    CostBenefit,
    NullSummary,
    Pi0Estimate,
    checked_weights,
    dfdr_from_counts,
    p_to_cost_ratio,
    resolve_pi0,
    weight_exceedances,
)
from dfdr.resampling import PermutationPlan, permutation_null
from dfdr.stats import PValueSet, StatisticSet


@dataclass(frozen=True, eq=False)
class Curve:
    """Every evaluated candidate threshold, as parallel arrays in ascending tau."""

    tau: np.ndarray
    dfdr: np.ndarray
    desirability: np.ndarray
    discoveries: np.ndarray

    def __len__(self) -> int:
        return self.tau.size


@dataclass(frozen=True)
class DecisionResult:
    """A chosen threshold with the full candidate curve behind it.

    ``rejected`` is the set of test indices with statistic >= tau. For
    p-value decisions the threshold is a p-value cutoff instead and
    ``rejected`` holds the indices with p-value <= tau.
    """

    tau: float
    rejected: frozenset[int]
    dfdr: float
    desirability: float
    pi0: Pi0Estimate
    curve: Curve

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


@dataclass(frozen=True)
class Subset:
    """A block of tests sharing one comparison and one cost/benefit pair."""

    name: str
    feature_indices: tuple[int, ...]
    group_a: str
    group_b: str
    benefit: float
    cost: float

    def __post_init__(self) -> None:
        if self.benefit <= 0.0 or self.cost < 0.0:
            raise ValidationError(
                f"subset {self.name!r}: benefit must be > 0 and cost >= 0"
            )
        if len(set(self.feature_indices)) != len(self.feature_indices):
            raise ValidationError(f"subset {self.name!r} repeats a feature index")


@dataclass(frozen=True)
class SubsetPartition:
    """Disjoint subsets of tests, each large enough to estimate on its own."""

    subsets: tuple[Subset, ...]
    min_size: int = 50

    def __post_init__(self) -> None:
        names = [s.name for s in self.subsets]
        if len(set(names)) != len(names):
            raise ValidationError("subset names must be unique")
        seen: dict[tuple[str, str], set[int]] = {}
        for s in self.subsets:
            key = (s.group_a, s.group_b)
            used = seen.setdefault(key, set())
            overlap = used.intersection(s.feature_indices)
            if overlap:
                raise ValidationError(
                    f"subset {s.name!r} overlaps another subset on the same "
                    f"comparison (feature index {min(overlap)})"
                )
            used.update(s.feature_indices)

    def validate_sizes(self) -> None:
        for s in self.subsets:
            if len(s.feature_indices) < self.min_size:
                raise ValidationError(
                    f"subset {s.name!r} has {len(s.feature_indices)} tests, "
                    f"fewer than the minimum {self.min_size}"
                )


@dataclass(frozen=True, eq=False)
class SubsetDecision:
    """One subset's decision and its observed statistics, in subset order."""

    subset: Subset
    result: DecisionResult
    observed: np.ndarray


def _candidates(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values plus +inf, each with how many values lie below it.

    The count below a distinct value is where its run of ties starts, so it
    also indexes the value's entry in ``StatisticSet.null_exceedances``.
    """
    n = sorted_values.size
    starts = np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))
    if np.isposinf(sorted_values[-1]):
        return sorted_values[starts], starts
    return np.append(sorted_values[starts], np.inf), np.append(starts, n)


def _curve(taus, discoveries, null_share, pi0: Pi0Estimate, n_tests: int, benefit, ratio) -> Curve:
    dfdr = dfdr_from_counts(pi0.value, null_share, discoveries, n_tests)
    desirability = benefit * (1.0 - (1.0 + ratio) * dfdr) * discoveries
    return Curve(taus, dfdr, desirability, discoveries)


def _scan(stats: StatisticSet, pi0: Pi0Estimate, benefit: float, ratio: float) -> Curve:
    taus, below = _candidates(stats.sorted_observed)
    null_share = stats.null_exceedances[below] / stats.n_null
    return _curve(taus, stats.n_tests - below, null_share, pi0, stats.n_tests, benefit, ratio)


def _scan_p(pvals: PValueSet, pi0: Pi0Estimate, benefit: float, ratio: float) -> Curve:
    # Cutoffs are -inf ("reject nothing") and the distinct p-values. p <= the
    # j-th distinct value holds exactly for the p-values below the next one,
    # and the uniform null share of a cutoff is the cutoff itself.
    values, below = _candidates(pvals.sorted_pvalues)
    cutoffs = np.append(-np.inf, values[:-1])
    return _curve(cutoffs, below, cutoffs, pi0, pvals.n_tests, benefit, ratio)


def _result(pi0: Pi0Estimate, curve: Curve, pick: int, rejects) -> DecisionResult:
    tau = float(curve.tau[pick])
    return DecisionResult(
        tau=tau,
        rejected=frozenset(np.flatnonzero(rejects(tau)).tolist()),
        dfdr=float(curve.dfdr[pick]),
        desirability=float(curve.desirability[pick]),
        pi0=pi0,
        curve=curve,
    )


def _maxima(desirability: np.ndarray) -> np.ndarray:
    return np.flatnonzero(desirability == desirability.max())


def maximize_desirability(
    stats: StatisticSet, pi0: Pi0Estimate, cost_benefit: CostBenefit
) -> DecisionResult:
    """Choose the threshold maximizing the estimated expected desirability.

    When every nonempty rejection region has negative estimated desirability,
    the empty region (desirability 0) wins and nothing is rejected.
    """
    curve = _scan(stats, pi0, *cost_benefit.homogeneous())
    # ties toward the largest threshold: last index among the maxima
    pick = int(_maxima(curve.desirability)[-1])
    return _result(pi0, curve, pick, lambda tau: stats.observed >= tau)


def control_dfdr(
    stats: StatisticSet,
    pi0: Pi0Estimate,
    alpha: float,
) -> DecisionResult:
    """Reject as many hypotheses as possible with estimated dFDR <= alpha.

    Picks the smallest candidate threshold whose dFDR estimate is within the
    bound; discovery counts only shrink as the threshold grows, so this
    maximizes discoveries. With no feasible candidate the threshold is +inf:
    nothing is rejected but the +inf sentinels, which every region holds (and
    whose estimate can exceed alpha only when the nulls hold +inf as well).
    The reported desirability uses the ratio 1/alpha - 1 matching the bound.
    """
    curve = _scan(stats, pi0, *_control_terms(alpha))
    feasible = np.flatnonzero(curve.dfdr <= alpha)
    pick = int(feasible[0]) if feasible.size else len(curve) - 1
    return _result(pi0, curve, pick, lambda tau: stats.observed >= tau)


def _control_terms(alpha: float) -> tuple[float, float]:
    """Benefit 1 and the cost ratio 1/alpha - 1 matching the bound."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha!r}")
    return 1.0, p_to_cost_ratio(alpha)


def per_subset_optimize(
    partition: SubsetPartition,
    matrix: DataMatrix,
    plan: PermutationPlan,
    pi0_mode="estimate",
) -> tuple[SubsetDecision, ...]:
    """Desirability maximization run independently on each subset of tests.

    Each subset gets its own null statistics (its rows of the permutation
    null), its own pi0 estimate and tuning threshold, and its own cost and
    benefit. Each comparison's null is computed once, in one pass whose tiles
    go to a NullSummary per subset, restricted to its rows; the statistic of a
    row does not depend on the other rows, so each summary equals one of a
    build on the subset's rows alone, bit for bit. For a single subset
    covering all rows this reduces exactly to maximize_desirability on the
    whole problem. One comparison's summaries, and the permutations they keep
    for any further pass, are released before the next comparison's are drawn.
    """
    partition.validate_sizes()
    out = {}
    for key in dict.fromkeys((s.group_a, s.group_b) for s in partition.subsets):
        out.update(_comparison_decisions(partition, matrix, plan, key, pi0_mode))
    return tuple(out[i] for i in range(len(partition.subsets)))


def _comparison_decisions(partition, matrix, plan, key, pi0_mode) -> dict[int, SubsetDecision]:
    """The decisions of the subsets that compare the groups ``key``, by index."""
    b, out = plan.n_permutations, {}
    summaries = {
        i: NullSummary(matrix.n_features, b, rows=np.asarray(s.feature_indices, dtype=np.intp))
        for i, s in enumerate(partition.subsets)
        if (s.group_a, s.group_b) == key
    }
    permutation_null(matrix, *key, plan, into=list(summaries.values()))
    for i, summary in summaries.items():
        subset = partition.subsets[i]
        stats = StatisticSet(summary.observed, None, b, summary=summary)
        pi0 = resolve_pi0(stats, pi0_mode)
        result = maximize_desirability(stats, pi0, CostBenefit([subset.benefit], [subset.cost]))
        out[i] = SubsetDecision(subset=subset, result=result, observed=stats.observed)
    return out


def common_threshold_weighted(
    stats: StatisticSet,
    weights,
    benefits,
    pi0_weighted: Pi0Estimate,
) -> DecisionResult:
    """One common threshold maximizing the weighted desirability estimate.

    ``weights`` are the per-test sums benefit + cost and ``benefits`` the
    per-test benefits; the null statistics must come from the pooled data,
    each inheriting its generating test's weight. With uniform weights this
    selects the same threshold as maximize_desirability.
    """
    w = checked_weights(weights, stats.n_tests)
    b = np.asarray(benefits, dtype=float).ravel()
    if b.size != w.size or np.any(b < 0.0) or np.any(b > w):
        raise ValidationError(
            "need one nonnegative benefit per test, none to exceed its weight (cost >= 0)"
        )

    taus, below = _candidates(stats.sorted_observed)
    w_obs_ge = weight_exceedances(stats.observed, w, taus)
    b_obs_ge = weight_exceedances(stats.observed, b, taus)
    w_null_ge = stats.null_summary(w).exceedances[below]
    dfdr = dfdr_from_counts(pi0_weighted.value, w_null_ge / stats.n_null, w_obs_ge, stats.n_tests)
    curve = Curve(taus, dfdr, b_obs_ge - dfdr * w_obs_ge, stats.n_tests - below)
    pick = int(_maxima(curve.desirability)[-1])
    return _result(pi0_weighted, curve, pick, lambda tau: stats.observed >= tau)


def maximize_desirability_pvalues(
    pvals: PValueSet, pi0: Pi0Estimate, cost_benefit: CostBenefit
) -> DecisionResult:
    """Desirability maximization over p-value cutoffs.

    Candidates are the observed p-values plus the "reject nothing" option,
    encoded as the cutoff -inf. Ties break toward the smaller cutoff (fewest
    rejections).
    """
    curve = _scan_p(pvals, pi0, *cost_benefit.homogeneous())
    pick = int(_maxima(curve.desirability)[0])
    return _result(pi0, curve, pick, lambda cutoff: pvals.pvalues <= cutoff)


def control_dfdr_pvalues(
    pvals: PValueSet,
    pi0: Pi0Estimate,
    alpha: float,
) -> DecisionResult:
    """Largest p-value cutoff with estimated dFDR <= alpha."""
    curve = _scan_p(pvals, pi0, *_control_terms(alpha))
    pick = int(np.flatnonzero(curve.dfdr <= alpha)[-1])  # -inf is always feasible
    return _result(pi0, curve, pick, lambda cutoff: pvals.pvalues <= cutoff)
