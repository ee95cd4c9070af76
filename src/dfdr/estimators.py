"""Estimators for the true-null proportion, the dFDR, and the desirability.

The decisive false discovery rate (dFDR) at a threshold tau is the ratio of
expected false discoveries to expected discoveries for the rejection region
[tau, inf), or 0 when nothing can be rejected. It is estimated by comparing
the exceedance proportion of the resampled null statistics with that of the
observed statistics, scaled by an estimate of the true-null proportion pi0.

Every estimate here is pi0 * (null share) / (discoveries / m) over
exceedance counts, so one engine serves them all. The permutation null is
read only through a ``NullSummary``, accumulated tile by tile as the null is
computed (or, for a stored null, read a tile at a time), so no run holds the
null whole: exceedance counts or weight sums at the candidate thresholds
(``weight_exceedances`` on each tile), lambda by a bounded-storage selection
(Munro & Paterson, 1980) over a bracket, and the per-test counts below
lambda. ``dfdr_from_counts`` turns the counts into estimates, for one
threshold or for every candidate at once. The p-value route uses the same
formula with the analytic uniform null share, the cutoff itself.

All threshold comparisons are inclusive: a test is rejected when its
statistic is >= tau (for p-values, <= the cutoff). Rejection regions are
single intervals; the +inf sentinel statistic lies inside every region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dfdr.errors import UndefinedEstimateError, ValidationError
from dfdr.stats import PValueSet, StatisticSet, check_statistics

# P(|Z| < 1/2) for a standard normal Z: the target proportion of null
# statistics below the pi0 tuning threshold lambda.
CENTRAL_BAND_MASS = 0.382925

# Values per tile of a stored null (whole permutations) and per sorted block
# in weight_exceedances.
BLOCK = 2**16
# The lambda bracket (NullSummary): sample ranks kept on each side of the
# target in the first tile, about 8 standard errors of the target's rank in a
# sample of stats.TILE values; and the most values kept inside it.
MARGIN = 2**11
CAP = 2**19

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

    ``null_stats`` is a NullSummary, which selects the value from its bracket
    (see there), or the values themselves, which are summarized first.
    """
    if isinstance(null_stats, NullSummary):
        return null_stats.lam
    nulls = np.asarray(null_stats, dtype=float).ravel()
    if nulls.size < 1:
        raise ValidationError("need at least one null statistic")
    return NullSummary(1, nulls.size).feed(array_tiles(nulls, 1)).lam


def array_tiles(values: np.ndarray, n_tests: int):
    """A stored null as a tile source: whole permutations, about BLOCK values a tile."""
    table = values.reshape(-1, n_tests)
    rows, per = np.arange(n_tests), max(1, BLOCK // n_tests)
    return lambda: ((rows, table[i : i + per]) for i in range(0, table.shape[0], per))


class NullSummary:
    """What the estimators read of a permutation null, accumulated tile by tile.

    ``feed(tiles)`` makes one pass over a tile source: a callable that
    returns (rows, tile) pairs, where ``tile[:, i]`` holds null statistics of
    the test ``rows[i]`` of ``n_tests`` (with ``rows`` given, the summary
    takes only those tests, in that order). ``observe`` gives it the observed
    statistics, before the pass or, for a null of at most CAP values, after
    it. The summary keeps:

    - ``exceedances``: for each sorted observed value and +inf, how many
      nulls are >= it, or with ``weights`` the sum of their tests' weights;
    - a bracket [lo, hi] around the rank k = floor(CENTRAL_BAND_MASS * N) of
      the N nulls: per-test counts below lo, the values inside with their
      test (per-test counts instead when lo == hi), and the count and the
      minimum of the values above hi.

    The bracket comes from the first tile: MARGIN sample ranks on each side
    of the rank it estimates for k. When more than CAP values are kept, the
    bracket narrows to CAP / 4 ranks on each side of that estimate, and the
    values it drops go to the exact counts. Nothing here grows with the
    number of permutations: memory is O(m + tile + CAP). Should rank k end
    outside the bracket, ``lam`` takes another pass over the tiles with the
    side that holds it as the bracket, which every miss narrows, so the
    result is exact. Lambda's run of ties and the next run are then read from
    the bracket, and so are the per-test counts below lambda.
    """

    def __init__(self, n_tests: int, n_permutations: int, weights=None, rows=None) -> None:
        self.local = None
        if rows is not None:  # this summary's tests among the tiles' n_tests
            self.local = np.full(n_tests, -1)
            self.local[rows] = np.arange(len(rows))
            n_tests = len(rows)
        self.rows, self.n_tests = rows, n_tests
        self.size = n_tests * n_permutations  # null values summarized
        self.k = int(CENTRAL_BAND_MASS * self.size)
        self.weights = None if weights is None else np.asarray(weights, dtype=float).ravel()
        # the weighted pi0 needs counts per test; the unweighted one, totals
        self.by_test = 1 if weights is None else n_tests
        self.observed = self.taus = self.exceedances = None
        self.tiles, self.passes, self._lam = None, 0, None
        self._reset(-np.inf, np.inf)

    def observe(self, observed) -> "NullSummary":
        """Count the nulls at the observed statistics (all tests', picked by
        ``rows``): at each tile from now on, or, after a first pass of at most
        CAP values, over the values kept, which are all of them, in pieces of
        BLOCK values as a tile's are summed."""
        observed = np.asarray(observed, dtype=float)
        self.observed = observed if self.rows is None else observed[self.rows]
        self.taus = np.append(np.sort(self.observed), np.inf)
        kind = np.intp if self.weights is None else float
        self.exceedances = np.zeros(self.taus.size, kind)
        if self.seen:
            values, rows = self._gather()  # rows None: one test, or no weights
            w = self.weights
            for start in range(0, values.size, BLOCK):
                if rows is not None:
                    w = self.weights[rows[start : start + BLOCK]]
                self.exceedances += weight_exceedances(values[start : start + BLOCK], w, self.taus)
        return self

    @property
    def keeps_all(self) -> bool:
        """Whether every null value stays kept: at most CAP of them."""
        return self.size <= CAP

    def weighs_with(self, weights) -> bool:
        if weights is None or self.weights is None:
            return weights is None and self.weights is None
        return np.array_equal(self.weights, weights)

    def feed(self, tiles) -> "NullSummary":
        summarize([self], tiles)
        return self

    def add(self, rows, tile) -> None:
        if self.local is not None:
            rows = self.local[rows]
            mine = rows >= 0
            if not mine.all():
                rows, tile = rows[mine], tile[:, mine]
                if not rows.size:
                    return
        check_statistics("null", tile)
        if self.passes == 1 and self.exceedances is not None:
            w = None if self.weights is None else self.weights[rows]
            self.exceedances += weight_exceedances(tile.ravel(), w, self.taus)
        if self.by_test == 1:
            rows, tile = _ONE, tile.reshape(-1, 1)
        first = self.passes == 1 and self.seen == 0 and not self.keeps_all
        self._keep(rows, tile)
        if first:
            self._narrow(MARGIN)
        if self.n_kept > CAP:
            self._narrow(CAP // 4)

    def _reset(self, lo, hi) -> None:
        self.lo, self.hi, self.seen, self.region = lo, hi, 0, (lo, hi)
        self.below = np.zeros(self.by_test, dtype=np.intp)
        self.at = np.zeros(self.by_test, dtype=np.intp) if lo == hi else None
        self.kept, self.kept_rows, self.n_kept = [], [], 0
        self.above, self.above_min = 0, np.inf

    def _keep(self, rows, tile) -> None:
        self.seen += tile.size
        lo, hi, inside = self.lo, self.hi, None  # no bracket yet: every value
        if lo > -np.inf or hi < np.inf:
            self.below[rows] += np.count_nonzero(tile < lo, axis=0)
            above = tile > hi
            if above.any():
                self.above += np.count_nonzero(above)
                self.above_min = min(self.above_min, tile[above].min())
            if self.at is not None:
                self.at[rows] += np.count_nonzero(tile == lo, axis=0)
                return
            inside = (tile >= lo) & ~above
        self.kept.append(tile.ravel().copy() if inside is None else tile[inside])
        self.n_kept += self.kept[-1].size
        if self.by_test > 1:
            row_of = np.broadcast_to(rows, tile.shape)
            self.kept_rows.append(row_of.ravel() if inside is None else row_of[inside])

    def _gather(self) -> tuple[np.ndarray, np.ndarray | None]:
        if len(self.kept) != 1:
            self.kept = [np.concatenate(self.kept)]
            if self.by_test > 1:
                self.kept_rows = [np.concatenate(self.kept_rows)]
        return self.kept[0], self.kept_rows[0] if self.by_test > 1 else None

    def _tally(self, rows, mask) -> np.ndarray:
        """Counts of ``mask`` per test (a total where tests are not told apart)."""
        if rows is None:
            return np.array([np.count_nonzero(mask)])
        return np.bincount(rows[mask], minlength=self.by_test)

    def _narrow(self, margin: int) -> None:
        """Keep ``margin`` ranks each side of the estimated rank of k."""
        if self.at is not None or self.n_kept == 0:
            return
        values, rows = self._gather()
        last = values.size - 1
        j = min(max(self.k * self.seen // self.size - int(self.below.sum()), 0), last)
        if j - margin <= 0 and j + margin >= last:
            return
        part = np.partition(values, sorted({max(j - margin, 0), j, min(j + margin, last)}))
        lo = part[j - margin] if j >= margin else self.lo
        hi = part[j + margin] if j + margin <= last else self.hi
        if np.count_nonzero((values >= lo) & (values <= hi)) > 3 * CAP // 4:
            lo = hi = part[j]  # long ties at the bounds: keep counts of one value
        self.lo, self.hi = lo, hi
        self.below += self._tally(rows, values < lo)
        above = values > hi
        if above.any():
            self.above += np.count_nonzero(above)
            self.above_min = min(self.above_min, values[above].min())
        inside = (values >= lo) & ~above
        self.kept, self.kept_rows = [], []
        if lo == hi:
            self.at, self.n_kept = self._tally(rows, inside), 0
        else:
            self.kept.append(values[inside])
            self.n_kept = self.kept[0].size
            if rows is not None:
                self.kept_rows.append(rows[inside])

    def _repass(self, lo, hi) -> None:
        """Another pass, for lambda alone, with [lo, hi] as the bracket."""
        self._reset(lo, hi)
        self.feed(self.tiles)

    @property
    def lam(self) -> float:
        if self._lam is None:
            self._select()
        return self._lam

    def _select(self) -> None:
        k, n = self.k, self.size
        while True:
            below = int(self.below.sum())
            inside = self.n_kept if self.at is None else int(self.at.sum())
            if below <= k < below + inside:
                break
            # rank k lies in the pass's region, below the bracket or above it
            if k < below:
                self._repass(self.region[0], np.nextafter(self.lo, -np.inf))
            else:
                self._repass(self.above_min, self.region[1])
        if self.at is None:
            values, rows = self._gather()
            v = np.partition(values, k - below)[k - below]
            start = below + np.count_nonzero(values < v)
            end = below + np.count_nonzero(values <= v)
        else:
            v, start, end = self.lo, below, below + inside
        # The share below a value is where its run of ties starts and grows
        # with the value, so the closest share is at the run holding rank k or
        # the next (+inf past the end, share 1, never wins). int() floors k
        # exactly for N < 1e11: the mass is 15317/40000, so mass * N is an
        # integer or 1/40000 off.
        distance = np.abs(np.array([start, end]) / n - CENTRAL_BAND_MASS)
        if end == n or distance[0] <= distance[1]:  # ties: smaller
            lam = v
        elif end < below + inside:  # the next run, in the bracket
            lam = values[values > v].min()
        else:
            lam = self.above_min
        self._lam = float(lam)
        # counts below lambda, per test for the weighted pi0
        if self.at is None:
            self.below_lam = self.below + self._tally(rows, values < lam)
        else:
            self.below_lam = self.below + self.at if lam > v else self.below
        self.kept, self.kept_rows = [], []


_ONE = np.zeros(1, dtype=np.intp)  # the one column of a summary that sums over tests


def summarize(summaries, tiles) -> None:
    """One pass over the tile source ``tiles`` into every summary, which keeps
    ``tiles`` for any later pass its lambda needs."""
    for summary in summaries:
        summary.tiles = tiles
        summary.passes += 1
    for rows, tile in tiles():
        for summary in summaries:
            summary.add(rows, tile)


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

    ``null_stats`` is the nulls, counted a tile at a time, or a NullSummary,
    whose per-test counts below its own lambda come from its bracket.
    """
    obs = np.asarray(observed, dtype=float).ravel()
    if isinstance(null_stats, NullSummary):
        if lam != null_stats.lam:
            raise ValidationError(f"a null summary counts below its own lambda, not {lam!r}")
        n_null, per_test = null_stats.size, null_stats.below_lam
    else:
        nulls = np.asarray(null_stats, dtype=float).ravel()
        m = 1 if weights is None else obs.size
        if weights is not None and (nulls.size == 0 or nulls.size % m != 0):
            raise ValidationError(
                f"{nulls.size} null statistics cannot inherit weights from {obs.size} tests"
            )
        n_null, tiles = nulls.size, array_tiles(nulls, m)()
        per_test = sum((np.count_nonzero(t < lam, axis=0) for _, t in tiles), np.zeros(m, int))
    if weights is None:
        obs_below, null_below = np.count_nonzero(obs < lam), int(per_test.sum())
    else:
        w = checked_weights(weights, obs.size)
        obs_below, null_below = float(np.sum(w[obs < lam])), float(per_test @ w)
    if null_below == 0:
        counted = "null statistic" if weights is None else "positive null weight"
        raise UndefinedEstimateError(
            f"no {counted} below lambda={lam!r}; consider the conservative mode pi0 = 1"
        )
    return Pi0Estimate.estimated((obs_below / obs.size) / (null_below / n_null), lam)


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
        w = None if weights is None else checked_weights(weights, stats.n_tests)
        summary = stats.null_summary(w)
        return estimate_pi0(stats.observed, summary, choose_lambda(summary), w)
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
