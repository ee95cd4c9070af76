"""Rejection-threshold selection.

Two rules are provided for a single family of tests: maximizing the
estimated expected net desirability, and dFDR control (reject as much as
possible subject to an estimated dFDR bound). For heterogeneous costs and
benefits there are two further routes: an independent threshold per subset of
tests sharing the same cost and benefit, or one common threshold chosen by
maximizing the weighted desirability.

Candidate thresholds are exactly the observed statistic values, plus +inf as
the implicit "reject nothing" option whose desirability is 0 (for p-values,
the distinct p-values and -inf).

Each rule has one decider, for a ``StatisticSet`` or a ``PValueSet``: the set
gives its candidates, with their discovery counts and null shares, in one
pass over its sorted values, and the candidate curve is kept as parallel
arrays. Ties, and dFDR control with no feasible candidate, go to the
candidate with the fewest discoveries. A set built with weights takes the
weighted route alone, and one built without takes every other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError
from dfdr.estimators import (
    CostBenefit,
    Pi0Estimate,
    StatisticSet,
    dfdr_from_counts,
    p_to_cost_ratio,
    resolve_pi0,
    weight_exceedances,
)
from dfdr.resampling import PermutationPlan, in_workers, null_passes
from dfdr.stats import PValueSet, run_starts


@dataclass(frozen=True, eq=False)
class Curve:
    """Every evaluated candidate threshold, as parallel arrays in ascending tau."""

    tau: np.ndarray
    dfdr: np.ndarray
    desirability: np.ndarray
    discoveries: np.ndarray

    def __len__(self) -> int:
        return self.tau.size


@dataclass(frozen=True, eq=False)
class DecisionResult:
    """A chosen threshold with the full candidate curve behind it.

    ``rejected`` holds the indices of the tests with statistic >= tau, in
    ascending order (``np.intp``); for p-value decisions tau is a p-value
    cutoff and they are the tests with p-value <= tau.
    """

    tau: float
    rejected: np.ndarray
    dfdr: float
    desirability: float
    pi0: Pi0Estimate
    curve: Curve

    @property
    def n_rejected(self) -> int:
        return self.rejected.size


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
        try:
            CostBenefit([self.benefit], [self.cost]).homogeneous(len(self.feature_indices))
        except ValidationError as exc:
            raise ValidationError(f"subset {self.name!r}: {exc}") from None
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


def _curve(stats, pi0: Pi0Estimate, benefit: float, ratio: float) -> Curve:
    taus, discoveries, null_share = stats.candidates()
    dfdr = dfdr_from_counts(pi0.value, null_share, discoveries, stats.n_tests)
    desirability = benefit * (1.0 - (1.0 + ratio) * dfdr) * discoveries
    return Curve(taus, dfdr, desirability, discoveries)


def _decide(stats, pi0: Pi0Estimate, curve: Curve, among, most: bool = False) -> DecisionResult:
    """The decision at the candidate with the fewest discoveries of those
    ``among`` marks (with ``most``, the most), or, with none marked, the
    fewest of all."""
    marked = np.flatnonzero(among)
    if not marked.size:
        marked, most = np.arange(len(curve)), False
    discoveries = curve.discoveries[marked]
    pick = int(marked[discoveries.argmax() if most else discoveries.argmin()])
    tau = float(curve.tau[pick])
    return DecisionResult(
        tau=tau,
        rejected=np.flatnonzero(stats.rejects(tau)),
        dfdr=float(curve.dfdr[pick]),
        desirability=float(curve.desirability[pick]),
        pi0=pi0,
        curve=curve,
    )


def maximize_desirability(
    stats: StatisticSet | PValueSet, pi0: Pi0Estimate, cost_benefit: CostBenefit
) -> DecisionResult:
    """Choose the threshold maximizing the estimated expected desirability.

    When every nonempty rejection region has negative estimated desirability,
    the empty region (desirability 0) wins and nothing is rejected.
    """
    curve = _curve(stats, pi0, *cost_benefit.homogeneous(stats.n_tests))
    return _decide(stats, pi0, curve, curve.desirability == curve.desirability.max())


def control_dfdr(
    stats: StatisticSet | PValueSet,
    pi0: Pi0Estimate,
    alpha: float,
) -> DecisionResult:
    """Reject as many hypotheses as possible with estimated dFDR <= alpha.

    Picks the feasible candidate with the most discoveries; with none, the
    one with the fewest: for statistics +inf, which rejects only the +inf
    sentinels that every region holds (their estimate can exceed alpha only
    when the nulls hold +inf as well); for p-values -inf is always feasible.
    The reported desirability uses the ratio 1/alpha - 1 matching the bound.
    """
    curve = _curve(stats, pi0, *_control_terms(alpha))
    return _decide(stats, pi0, curve, curve.dfdr <= alpha, most=True)


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

    Each subset gets its own null statistics, pi0 estimate and tuning
    threshold, and its own cost and benefit: one ordinary pass of its
    comparison's null over the subset's rows alone (``null_passes``), its
    set built, decided and dropped before the same process's next subset.
    Each comparison's permutations are drawn once for its subsets, which are
    dealt to the processes of ``in_workers``, and released before the next
    comparison's are drawn. For a single subset covering all rows this
    reduces exactly to maximize_desirability on the whole problem.
    """
    partition.validate_sizes()
    out = {}
    for key in dict.fromkeys((s.group_a, s.group_b) for s in partition.subsets):
        out.update(_comparison_decisions(partition, matrix, plan, key, pi0_mode))
    return tuple(out[i] for i in range(len(partition.subsets)))


def _comparison_decisions(partition, matrix, plan, key, pi0_mode) -> dict[int, SubsetDecision]:
    """The decisions of the subsets that compare the groups ``key``, by
    index, each decided whole in one process of ``in_workers``."""
    feed = null_passes(matrix, *key, plan)
    chosen = [i for i, s in enumerate(partition.subsets) if (s.group_a, s.group_b) == key]
    return dict(zip(chosen, in_workers(
        lambda i: _subset_decision(partition.subsets[i], feed, plan, pi0_mode), chosen)))


def _subset_decision(subset: Subset, feed, plan, pi0_mode) -> SubsetDecision:
    rows = np.asarray(subset.feature_indices, dtype=np.intp)
    stats = feed(StatisticSet(rows.size, plan.n_permutations), rows)
    pi0 = resolve_pi0(stats, pi0_mode)
    result = maximize_desirability(stats, pi0, CostBenefit([subset.benefit], [subset.cost]))
    return SubsetDecision(subset=subset, result=result, observed=stats.observed)


def common_threshold_weighted(
    stats: StatisticSet,
    benefits,
    pi0_weighted: Pi0Estimate,
) -> DecisionResult:
    """One common threshold maximizing the weighted desirability estimate.

    ``stats`` is built with the per-test weights benefit + cost, and
    ``benefits`` are the per-test benefits; the null statistics must come
    from the pooled data, each inheriting its generating test's weight. With
    uniform weights this selects the same threshold as maximize_desirability.
    """
    w = stats.weights
    if w is None:
        raise ValidationError("common_threshold_weighted needs a set built with weights")
    b = np.asarray(benefits, dtype=float).ravel()
    if b.size != w.size or np.any(b < 0.0) or np.any(b > w):
        raise ValidationError(
            "need one nonnegative benefit per test, none to exceed its weight (cost >= 0)"
        )

    taus, below = run_starts(stats.sorted_observed)
    w_obs_ge = weight_exceedances(stats.observed, w, taus)
    b_obs_ge = weight_exceedances(stats.observed, b, taus)
    w_null_ge = stats.exceedances[below]
    dfdr = dfdr_from_counts(pi0_weighted.value, w_null_ge / stats.n_null, w_obs_ge, stats.n_tests)
    curve = Curve(taus, dfdr, b_obs_ge - dfdr * w_obs_ge, stats.n_tests - below)
    return _decide(stats, pi0_weighted, curve, curve.desirability == curve.desirability.max())
