"""Estimators for the true-null proportion, the dFDR, and the desirability.

The decisive false discovery rate (dFDR) at a threshold tau is the ratio of
expected false discoveries to expected discoveries for the rejection region
[tau, inf), or 0 when nothing can be rejected. It is estimated by comparing
the exceedance proportion of the resampled null statistics with that of the
observed statistics, scaled by an estimate of the true-null proportion pi0.

Every estimate here is pi0 * (null share) / (discoveries / m) over
exceedance counts, so one engine serves them all: ``exceedances`` counts by
binary search in an array sorted once per StatisticSet, ``weight_exceedances``
sums weights block by block (each block of whole permutations argsorted on
its own, so the null is never sorted as a whole), and ``dfdr_from_counts``
turns the counts into estimates, for one threshold or for every candidate at
once. The p-value route uses the same formula with the analytic uniform null
share, the cutoff itself. ``choose_lambda`` needs one order statistic of the
nulls and finds it by selection, not by sorting.

All threshold comparisons are inclusive: a test is rejected when its
statistic is >= tau (for p-values, <= the cutoff). Rejection regions are
single intervals; the +inf sentinel statistic lies inside every region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dfdr.errors import UndefinedEstimateError, ValidationError
from dfdr.stats import PValueSet, StatisticSet

# P(|Z| < 1/2) for a standard normal Z: the target proportion of null
# statistics below the pi0 tuning threshold lambda.
CENTRAL_BAND_MASS = 0.382925

# Values per block of weight_exceedances, rounded down to whole permutations
# (at least one): the block's argsort and gathered weights stay cache-sized.
BLOCK = 2**16

# Null p-values are uniform, so the tuning threshold needs no resampling:
# the null share of p-values above 1 - CENTRAL_BAND_MASS is CENTRAL_BAND_MASS.
PVALUE_BAND_THRESHOLD = 1.0 - CENTRAL_BAND_MASS


@dataclass(frozen=True)
class Pi0Estimate:
    """Estimated (or assumed) proportion of true null hypotheses.

    ``lam`` is the tuning threshold used by the quantile-matching estimate;
    it is NaN for the fixed and user-supplied modes.
    """

    value: float
    lam: float
    mode: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValidationError(f"pi0 must lie in [0, 1], got {self.value!r}")
        if self.mode not in ("estimated", "fixed-one", "user-supplied"):
            raise ValidationError(f"unknown pi0 mode {self.mode!r}")

    @classmethod
    def estimated(cls, raw: float, lam: float) -> "Pi0Estimate":
        """Quantile-matching estimate; a raw ratio outside [0, 1] is clamped."""
        return cls(value=min(1.0, max(0.0, raw)), lam=lam, mode="estimated")

    @classmethod
    def fixed_one(cls) -> "Pi0Estimate":
        """The conservative choice pi0 = 1."""
        return cls(value=1.0, lam=math.nan, mode="fixed-one")

    @classmethod
    def user(cls, value: float) -> "Pi0Estimate":
        return cls(value=float(value), lam=math.nan, mode="user-supplied")


@dataclass(frozen=True)
class CostBenefit:
    """Per-test benefits of a true discovery and costs of a false discovery.

    Arrays of length one denote the homogeneous case (every test shares the
    same benefit and cost). The probability threshold ``p`` attached to the
    homogeneous case is (1 + cost/benefit)^-1: the upper bound on the
    false-rejection probability inside an optimal rejection region.
    """

    benefits: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        b = np.atleast_1d(np.asarray(self.benefits, dtype=float))
        c = np.atleast_1d(np.asarray(self.costs, dtype=float))
        object.__setattr__(self, "benefits", b)
        object.__setattr__(self, "costs", c)
        if b.size != c.size:
            raise ValidationError("benefits and costs must have equal length")
        if np.any(b < 0.0) or np.any(c < 0.0):
            raise ValidationError("benefits and costs must be nonnegative")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValidationError("benefits and costs must be finite")

    @classmethod
    def from_ratio(cls, cost_ratio: float) -> "CostBenefit":
        """Homogeneous case with benefit 1 and cost equal to the given ratio."""
        return cls(benefits=np.array([1.0]), costs=np.array([float(cost_ratio)]))

    @classmethod
    def from_probability(cls, p: float) -> "CostBenefit":
        """Homogeneous case from a probability threshold p = (1 + c/b)^-1."""
        return cls.from_ratio(p_to_cost_ratio(p))

    @classmethod
    def per_test(cls, benefits, costs) -> "CostBenefit":
        return cls(benefits=np.asarray(benefits, float), costs=np.asarray(costs, float))

    @property
    def is_homogeneous(self) -> bool:
        return bool(
            np.all(self.benefits == self.benefits[0])
            and np.all(self.costs == self.costs[0])
        )

    def homogeneous(self) -> tuple[float, float]:
        """(benefit, cost/benefit ratio); requires equal per-test values and benefit > 0."""
        if not self.is_homogeneous:
            raise ValidationError("costs and benefits differ between tests")
        b1 = float(self.benefits[0])
        if b1 <= 0.0:
            raise ValidationError("benefit must be positive")
        return b1, float(self.costs[0]) / b1

    @property
    def probability(self) -> float:
        """p = (1 + c/b)^-1 for the homogeneous case."""
        _, ratio = self.homogeneous()
        return 1.0 / (1.0 + ratio)

    @property
    def weights(self) -> np.ndarray:
        """Per-test weights benefit + cost, as used by the weighted dFDR."""
        return self.benefits + self.costs


@dataclass(frozen=True)
class DfdrEstimate:
    """dFDR estimate at one threshold, with the counts behind it."""

    tau: float
    value: float
    discoveries: int
    null_exceedances: int


def p_to_cost_ratio(p: float) -> float:
    """Cost-to-benefit ratio 1/p - 1 for a probability threshold p in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"probability threshold must lie in (0, 1], got {p!r}")
    return 1.0 / p - 1.0


def exceedances(sorted_values: np.ndarray, taus) -> np.ndarray:
    """How many of the ascending ``sorted_values`` are >= each tau."""
    return sorted_values.size - np.searchsorted(sorted_values, taus, side="left")


def weight_exceedances(values: np.ndarray, weights, taus) -> np.ndarray:
    """Sum of weights over the values >= each tau.

    Value j carries ``weights[j % weights.size]``: a null statistic inherits
    its test's weight, since the nulls are permutation-major. Whole
    permutations go in blocks of about BLOCK values; each block is argsorted
    on its own, its weights summed from the top and read at each tau by binary
    search, and the block sums are added into one accumulator. Extra memory is
    O(BLOCK + len(taus)), whatever the size of ``values``.
    """
    m = weights.size
    rows = values.reshape(-1, m)
    per = max(1, BLOCK // m)
    tiled = np.tile(weights, per)  # covers any block: no % m per value
    total = np.zeros(np.shape(taus))
    for start in range(0, rows.shape[0], per):
        block = rows[start : start + per].ravel()
        order = np.argsort(block)
        top = np.cumsum(tiled[order][::-1])
        k = exceedances(block[order], taus)
        total += np.where(k > 0, top[k - 1], 0.0)
    return total


def dfdr_from_counts(pi0: float, null_share, discoveries, n_tests: int) -> np.ndarray:
    """pi0 * null_share / (discoveries / n_tests), or 0 where nothing is discovered.

    The null share is a count or weight sum over n_null, or for uniform
    p-values the cutoff itself.
    """
    discoveries = np.asarray(discoveries)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = pi0 * null_share / (discoveries / n_tests)
    return np.where(discoveries == 0, 0.0, values)


def choose_lambda(null_stats) -> float:
    """Tuning threshold for the pi0 estimate.

    Picks, among the null statistic values themselves plus +inf, the value
    whose empirical proportion of null statistics strictly below it is
    closest to CENTRAL_BAND_MASS. Ties break toward the smaller value. Found
    by selection in a partitioned copy, O(N), with no sort; input that is
    already ascending (``StatisticSet.sorted_null``) is read in place.
    """
    nulls = np.asarray(null_stats, dtype=float).ravel()
    if nulls.size < 1:
        raise ValidationError("need at least one null statistic")
    n = nulls.size
    # The share below a value is where its run of ties starts and grows with
    # the value, so the closest share is at the run holding rank k or the next
    # (+inf past the end, share 1, never wins). int() floors exactly for n <
    # 1e11: the mass is 15317/40000, so mass * n is an integer or 1/40000 off.
    k = int(CENTRAL_BAND_MASS * n)
    part = nulls if np.all(nulls[:-1] <= nulls[1:]) else np.partition(nulls, k)
    v = part[k]
    start, end = np.count_nonzero(part < v), np.count_nonzero(part <= v)
    distance = np.abs(np.array([start, end]) / n - CENTRAL_BAND_MASS)
    if end == n or distance[0] <= distance[1]:  # ties: smaller
        return float(v)
    return float(np.min(part, where=part > v, initial=np.inf))  # the next run


def estimate_pi0(observed, null_stats, lam: float) -> Pi0Estimate:
    """Quantile-matching pi0 estimate at tuning threshold lam.

    The raw ratio (share of observed statistics below lam) / (share of null
    statistics below lam) is clamped into [0, 1]; raw values above 1 are
    meaningless as a proportion. Raises UndefinedEstimateError when no null
    statistic falls below lam.
    """
    obs = np.asarray(observed, dtype=float).ravel()
    nulls = np.asarray(null_stats, dtype=float).ravel()
    below = (np.count_nonzero(obs < lam), np.count_nonzero(nulls < lam))
    return _quantile_matched(*below, obs.size, nulls.size, lam, "null statistic")


def estimate_pi0_weighted(observed, null_stats, weights, lam: float) -> Pi0Estimate:
    """Weighted pi0 estimate: indicator counts replaced by weight sums.

    Each null statistic inherits the weight of the test that generated it
    (null ordering is permutation-major), so the null weight below lam is
    the per-test count below lam times that test's weight. Reduces to
    estimate_pi0 when all weights are equal.
    """
    obs = np.asarray(observed, dtype=float).ravel()
    nulls = np.asarray(null_stats, dtype=float).ravel()
    if nulls.size == 0 or nulls.size % obs.size != 0:
        raise ValidationError(
            f"{nulls.size} null statistics cannot inherit weights from {obs.size} tests"
        )
    w = checked_weights(weights, obs.size)
    per_test = np.count_nonzero((nulls < lam).reshape(-1, obs.size), axis=0)
    below = (float(np.sum(w[obs < lam])), float(per_test @ w))
    return _quantile_matched(*below, obs.size, nulls.size, lam, "positive null weight")


def _quantile_matched(obs_below, null_below, n_obs, n_null, lam, counted) -> Pi0Estimate:
    if null_below == 0:
        raise UndefinedEstimateError(
            f"no {counted} below lambda={lam!r}; consider the conservative mode pi0 = 1"
        )
    return Pi0Estimate.estimated((obs_below / n_obs) / (null_below / n_null), lam)


def estimate_pi0_from_pvalues(pvals: PValueSet) -> Pi0Estimate:
    """pi0 estimate for the p-value route, using the analytic uniform null.

    The share of p-values above PVALUE_BAND_THRESHOLD, divided by the null
    share CENTRAL_BAND_MASS, clamped into [0, 1].
    """
    frac = np.count_nonzero(pvals.pvalues > PVALUE_BAND_THRESHOLD) / pvals.n_tests
    return Pi0Estimate.estimated(frac / CENTRAL_BAND_MASS, PVALUE_BAND_THRESHOLD)


def resolve_pi0(stats: StatisticSet, mode) -> Pi0Estimate:
    """Build a Pi0Estimate from a mode: "estimate", "one", or a number."""
    if mode == "one":
        return Pi0Estimate.fixed_one()
    if mode == "estimate":
        # every caller scans the sorted null next, so the sort is not extra
        lam = choose_lambda(stats.sorted_null)
        return estimate_pi0(stats.observed, stats.null_stats, lam)
    if isinstance(mode, (int, float)) and not isinstance(mode, bool):
        return Pi0Estimate.user(float(mode))
    raise ValidationError(f"unknown pi0 mode {mode!r}")


def estimate_dfdr_at_tau(stats: StatisticSet, pi0: Pi0Estimate, tau: float) -> DfdrEstimate:
    """dFDR estimate for the rejection region [tau, inf)."""
    k_obs = exceedances(stats.sorted_observed, tau)
    k_null = exceedances(stats.sorted_null, tau)
    value = dfdr_from_counts(pi0.value, k_null / stats.n_null, k_obs, stats.n_tests)
    return DfdrEstimate(
        tau=float(tau), value=float(value), discoveries=int(k_obs), null_exceedances=int(k_null)
    )


def estimate_dfdr_at_pvalue(pvals: PValueSet, pi0: Pi0Estimate, cutoff: float) -> DfdrEstimate:
    """dFDR estimate when rejecting every p-value <= cutoff.

    Uses the uniform null distribution of p-values directly (null share =
    cutoff), so no resampled nulls are needed; the null exceedance count
    reported is the expected count m * cutoff rounded to the nearest integer.
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValidationError(f"p-value cutoff must lie in [0, 1], got {cutoff!r}")
    m = pvals.n_tests
    k = np.searchsorted(pvals.sorted_pvalues, cutoff, side="right")
    return DfdrEstimate(
        tau=float(cutoff),
        value=float(dfdr_from_counts(pi0.value, cutoff, k, m)),
        discoveries=int(k),
        null_exceedances=int(round(m * cutoff)),
    )


def estimate_desirability(
    stats: StatisticSet, pi0: Pi0Estimate, cost_benefit: CostBenefit, tau: float
) -> float:
    """Estimated expected net desirability of rejecting all statistics >= tau.

    benefit * (1 - (1 + cost/benefit) * dFDR(tau)) * (number of discoveries).
    """
    b1, ratio = cost_benefit.homogeneous()
    est = estimate_dfdr_at_tau(stats, pi0, tau)
    return b1 * (1.0 - (1.0 + ratio) * est.value) * est.discoveries


def estimate_weighted_dfdr(stats: StatisticSet, pi0: Pi0Estimate, weights, tau: float) -> float:
    """Weighted dFDR estimate at tau with nonnegative per-test weights.

    Indicator counts become weight sums; with constant weights this equals
    estimate_dfdr_at_tau to machine precision. Zero when no rejected test
    carries positive weight.
    """
    w = checked_weights(weights, stats.n_tests)
    denom = weight_exceedances(stats.observed, w, tau)
    num = weight_exceedances(stats.null_stats, w, tau)
    return float(dfdr_from_counts(pi0.value, num / stats.n_null, denom, stats.n_tests))


def dfdr_from_cdfs(pi0: float, null_cdf_at_tau: float, marginal_cdf_at_tau: float) -> float:
    """Closed-form dFDR pi0 * (1 - F0(tau)) / (1 - F(tau)) for analytic distributions.

    Returns 0 when the marginal exceedance probability is 0.
    """
    marginal_tail = 1.0 - marginal_cdf_at_tau
    if marginal_tail == 0.0:
        return 0.0
    return pi0 * (1.0 - null_cdf_at_tau) / marginal_tail


def weighted_dfdr_from_cdfs(pi0: float, null_cdfs_at_tau, marginal_cdfs_at_tau, weights) -> float:
    """Closed-form weighted dFDR from per-component analytic distributions.

    Equals dfdr_from_cdfs applied to the weight-mixture distributions: giving
    one test more weight is equivalent to increasing its representation in
    the sample proportionally.
    """
    w = np.asarray(weights, dtype=float)
    f0 = np.asarray(null_cdfs_at_tau, dtype=float)
    f = np.asarray(marginal_cdfs_at_tau, dtype=float)
    denom = float(np.sum(w * (1.0 - f)))
    if denom == 0.0:
        return 0.0
    return pi0 * float(np.sum(w * (1.0 - f0))) / denom


def checked_weights(weights, n_tests: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != n_tests:
        raise ValidationError(f"{w.size} weights for {n_tests} tests")
    if np.any(w < 0.0):
        raise ValidationError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValidationError("at least one weight must be positive")
    return w
