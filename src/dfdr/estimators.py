"""Estimators for the true-null proportion, the dFDR, and the desirability.

The decisive false discovery rate (dFDR) at a threshold tau is the ratio of
expected false discoveries to expected discoveries for the rejection region
[tau, inf), or 0 when nothing can be rejected. It is estimated by comparing
the exceedance proportion of the resampled null statistics with that of the
observed statistics, scaled by an estimate of the true-null proportion pi0.

Every estimate here is pi0 * (null share) / (discoveries / m) over
exceedance counts, so one engine serves them all: ``weight_exceedances``
counts or weighs the values >= each tau, sorting block by block (never the
null as a whole), and ``dfdr_from_counts`` turns the counts into estimates,
for one threshold or for every candidate at once. The p-value route uses the
same formula with the analytic uniform null share, the cutoff itself.
``choose_lambda`` finds one order statistic of the nulls by counting over a
bracket, never copying, sorting or partitioning the null.

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

# Values per block of every pass over a null (weight_exceedances rounds it
# down to whole permutations), and about the size of choose_lambda's sample.
BLOCK = 2**16
# choose_lambda's bracket: sample ranks on each side of the target, about 8
# standard errors of the target's rank in a random sample of BLOCK values.
MARGIN = 2**10

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

    def homogeneous(self) -> tuple[float, float]:
        """(benefit, cost/benefit ratio); requires equal per-test values and benefit > 0."""
        if np.any(self.benefits != self.benefits[0]) or np.any(self.costs != self.costs[0]):
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


def p_to_cost_ratio(p: float) -> float:
    """Cost-to-benefit ratio 1/p - 1 for a probability threshold p in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"probability threshold must lie in (0, 1], got {p!r}")
    return 1.0 / p - 1.0


def weight_exceedances(values: np.ndarray, weights, taus) -> np.ndarray:
    """Sum of weights over the values >= each tau; with ``weights`` None, their count.

    Value j carries ``weights[j % weights.size]``: a null statistic inherits
    its test's weight, since the nulls are permutation-major. Whole
    permutations go in blocks of about BLOCK values; each block is sorted on
    its own and read at each tau by binary search, its weights summed from the
    top, and the block results are added up (integer counts exactly). Extra
    memory is O(BLOCK + len(taus)), whatever the size of ``values``.
    """
    m = 1 if weights is None else weights.size
    rows = values.reshape(-1, m)
    per = max(1, BLOCK // m)
    tiled = None if weights is None else np.tile(weights, per)  # no % m per value
    total = np.zeros(np.shape(taus), dtype=np.intp if tiled is None else float)
    for start in range(0, rows.shape[0], per):
        block = rows[start : start + per].ravel()
        if tiled is None:
            total += block.size - np.searchsorted(np.sort(block), taus)
            continue
        order = np.argsort(block)
        k = block.size - np.searchsorted(block[order], taus)  # values >= each tau
        top = np.cumsum(tiled[order][::-1])
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
    closest to CENTRAL_BAND_MASS. Ties break toward the smaller value.

    Needs the value at one rank k, its run of ties and the next run, and
    finds them without copying the null: a sorted strided sample of about
    BLOCK values brackets rank k by MARGIN sample ranks each side, and a
    counting pass checks the bracket. A miss, or a bracket of over four blocks,
    is narrowed by further rounds, each of which excludes values. Then the
    values in the bracket are selected from, or a bracket of one value is a
    run of ties known by its counts. Each pass takes one block at a time.
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
    # rank k lies in [lo, hi], which holds `inside` values; `below` lie under lo
    lo, hi, below, inside = -np.inf, np.inf, 0, n
    margin = MARGIN
    while inside > 4 * BLOCK and lo < hi:
        sample = np.sort(_within(nulls, lo, hi, inside // BLOCK))
        j = (k - below) * sample.size // inside
        new_lo = sample[j - margin] if j >= margin else lo
        new_hi = sample[j + margin] if j + margin < sample.size else hi
        n_lo, n_hi = _bracket_counts(nulls, new_lo, new_hi)
        was = inside
        if k < n_lo:
            hi, inside = np.nextafter(new_lo, -np.inf), n_lo - below
        elif k >= n_hi:
            lo, below, inside = np.nextafter(new_hi, np.inf), n_hi, below + inside - n_hi
        else:
            lo, hi, below, inside = new_lo, new_hi, n_lo, n_hi - n_lo
        # a round that excluded nothing (ties at both ends) splits at one pivot
        margin = MARGIN if inside < was else 0
    if lo == hi:
        v, start, end = lo, below, below + inside
    else:
        part = np.partition(_within(nulls, lo, hi), k - below)
        v = part[k - below]
        start, end = below + np.count_nonzero(part < v), below + np.count_nonzero(part <= v)
    distance = np.abs(np.array([start, end]) / n - CENTRAL_BAND_MASS)
    if end == n or distance[0] <= distance[1]:  # ties: smaller
        return float(v)
    if end < below + inside:  # the next run, in the bracket
        part.partition(end - below)  # a gathered copy, never the null
        return float(part[end - below])
    return float(min(np.where(b > hi, b, np.inf).min() for b in _blocks(nulls)))


def _blocks(values: np.ndarray):
    return (values[i : i + BLOCK] for i in range(0, values.size, BLOCK))


def _within(values: np.ndarray, lo, hi, step: int = 1) -> np.ndarray:
    """Every step-th value in [lo, hi], in storage order, gathered block by block."""
    if lo == -np.inf and hi == np.inf:
        return values[::step]  # the same values, without masks
    parts, skip = [], 0
    for block in _blocks(values):
        kept = block[(block >= lo) & (block <= hi)]
        parts.append(kept[skip::step])
        skip = (skip - kept.size) % step
    return np.concatenate(parts)


def _bracket_counts(values: np.ndarray, lo, hi) -> tuple[int, int]:
    """How many values lie below lo, and how many at or below hi."""
    counts = [(np.count_nonzero(b < lo), np.count_nonzero(b <= hi)) for b in _blocks(values)]
    return tuple(map(sum, zip(*counts)))


def estimate_pi0(observed, null_stats, lam: float, weights=None) -> Pi0Estimate:
    """Quantile-matching pi0 estimate at tuning threshold lam.

    The raw ratio (share of observed statistics below lam) / (share of null
    statistics below lam) is clamped into [0, 1]; raw values above 1 are
    meaningless as a proportion. With per-test ``weights`` the counts become
    weight sums: each null statistic inherits the weight of the test that
    generated it (nulls are permutation-major), so the null weight below lam
    is the per-test count below lam times that test's weight, and equal
    weights give the unweighted estimate. Raises UndefinedEstimateError when
    no null statistic (no positive null weight) falls below lam.
    """
    obs = np.asarray(observed, dtype=float).ravel()
    nulls = np.asarray(null_stats, dtype=float).ravel()
    if weights is None:
        obs_below, null_below = np.count_nonzero(obs < lam), np.count_nonzero(nulls < lam)
    else:
        if nulls.size == 0 or nulls.size % obs.size != 0:
            raise ValidationError(
                f"{nulls.size} null statistics cannot inherit weights from {obs.size} tests"
            )
        w = checked_weights(weights, obs.size)
        per_test = np.count_nonzero((nulls < lam).reshape(-1, obs.size), axis=0)
        obs_below, null_below = float(np.sum(w[obs < lam])), float(per_test @ w)
    if null_below == 0:
        counted = "null statistic" if weights is None else "positive null weight"
        raise UndefinedEstimateError(
            f"no {counted} below lambda={lam!r}; consider the conservative mode pi0 = 1"
        )
    return Pi0Estimate.estimated((obs_below / obs.size) / (null_below / nulls.size), lam)


def estimate_pi0_from_pvalues(pvals: PValueSet) -> Pi0Estimate:
    """pi0 estimate for the p-value route, using the analytic uniform null.

    The share of p-values above PVALUE_BAND_THRESHOLD, divided by the null
    share CENTRAL_BAND_MASS, clamped into [0, 1].
    """
    frac = np.count_nonzero(pvals.pvalues > PVALUE_BAND_THRESHOLD) / pvals.n_tests
    return Pi0Estimate.estimated(frac / CENTRAL_BAND_MASS, PVALUE_BAND_THRESHOLD)


def resolve_pi0(stats: StatisticSet, mode, weights=None) -> Pi0Estimate:
    """Build a Pi0Estimate from a mode: "estimate", "one", or a number.

    Only "estimate" reads ``stats``, so the other modes serve the p-value
    route too, whose estimate is ``estimate_pi0_from_pvalues``. With per-test
    ``weights`` the estimate is weighted. Lambda is selected from the null as
    generated, on every route.
    """
    if mode == "one":
        return Pi0Estimate.fixed_one()
    if mode == "estimate":
        lam = choose_lambda(stats.null_stats)
        return estimate_pi0(stats.observed, stats.null_stats, lam, weights)
    if isinstance(mode, (int, float)) and not isinstance(mode, bool):
        return Pi0Estimate.user(float(mode))
    raise ValidationError(f"unknown pi0 mode {mode!r}")


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
