"""Estimators for the true-null proportion, the dFDR, and the desirability.

The decisive false discovery rate (dFDR) at a threshold tau is the ratio of
expected false discoveries to expected discoveries for the rejection region
[tau, inf), or 0 when nothing can be rejected. It is estimated by comparing
the exceedance proportion of the resampled null statistics with that of the
observed statistics, scaled by an estimate of the true-null proportion pi0.

Every estimate here is pi0 * (null share) / (discoveries / m) over
exceedance counts, so one engine serves them all. A ``StatisticSet`` holds
the observed statistics and what the estimators read of their permutation
null, which it takes a tile at a time, so no run holds the null whole
(README "How the scan works"). ``dfdr_from_counts`` turns the counts into
estimates, for one threshold or for every candidate at once. A
``PValueSet`` (``stats``) gives the same formula the analytic uniform null
share, the cutoff itself.

All threshold comparisons are inclusive: a test is rejected when its
statistic is >= tau (for p-values, <= the cutoff). Rejection regions are
single intervals; the +inf sentinel statistic lies inside every region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dfdr.errors import UndefinedEstimateError, ValidationError
from dfdr.stats import PValueSet, check_statistics, run_starts

# P(|Z| < 1/2) for a standard normal Z: the target proportion of null
# statistics below the pi0 tuning threshold lambda.
CENTRAL_BAND_MASS = 0.382925

# Values per tile of a stored null (whole permutations), and per argsorted
# block where weights have too many distinct values for classes.
BLOCK = 2**16
# The lambda bracket (StatisticSet): sample ranks kept on each side of the
# target in the first tile, about 8 standard errors of the target's rank in a
# sample of stats.TILE values; and the most values kept inside it.
MARGIN = 2**11
CAP = 2**19

# The largest cost/benefit ratio: (1 + ratio) times a dFDR estimate, at most
# m, stays finite for up to 1e8 tests. A validation bound, not a tuning one.
MAX_RATIO = 1e300

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
    same benefit and cost). The probability threshold p = (1 + cost/benefit)^-1
    of the homogeneous case (``p_to_cost_ratio`` gives its ratio) is the upper
    bound on the false-rejection probability inside an optimal rejection region.
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
        if not np.all(b <= np.finfo(float).max - c):  # False for inf and NaN too
            raise ValidationError("benefits, costs and their sums must be finite")

    @classmethod
    def from_ratio(cls, cost_ratio: float) -> "CostBenefit":
        """Homogeneous case with benefit 1 and cost equal to the given ratio."""
        return cls(benefits=np.array([1.0]), costs=np.array([float(cost_ratio)]))

    def homogeneous(self, n_tests: int) -> tuple[float, float]:
        """(benefit, cost/benefit ratio); requires equal per-test values, benefit > 0,
        a ratio of at most MAX_RATIO and, over ``n_tests`` tests, desirabilities
        and their terms within half the float range: |desirability| is at most
        benefit (2 + ratio) n_tests, as the dFDR of k discoveries is at most n_tests / k."""
        if np.any(self.benefits != self.benefits[0]) or np.any(self.costs != self.costs[0]):
            raise ValidationError("costs and benefits differ between tests")
        b1 = float(self.benefits[0])
        if b1 <= 0.0:
            raise ValidationError("benefit must be positive")
        ratio = float(self.costs[0]) / b1
        if not ratio <= MAX_RATIO:
            raise ValidationError(f"cost/benefit ratio {ratio!r} above {MAX_RATIO:g}")
        if not max(b1, 1.0) * ((2.0 + ratio) * n_tests) <= np.finfo(float).max / 2:
            raise ValidationError(f"benefit {b1!r} at cost/benefit ratio {ratio!r} overflows the "
                                  f"desirability of {n_tests} tests")
        return b1, ratio

    @property
    def weights(self) -> np.ndarray:
        """Per-test weights benefit + cost, as used by the weighted dFDR."""
        return self.benefits + self.costs


def p_to_cost_ratio(p: float) -> float:
    """Cost-to-benefit ratio 1/p - 1 for a probability threshold p in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"probability threshold must lie in (0, 1], got {p!r}")
    return 1.0 / p - 1.0


def weight_exceedances(values, weights, taus) -> np.ndarray:
    """Sum of weights over the values >= each tau, value j carrying
    ``weights[j % weights.size]`` (README "How the scan works")."""
    distinct, classes = weight_classes(weights, np.size(taus))
    tests = np.arange(weights.size)
    pieces = sorted_pieces(values.reshape(-1, tests.size), classes, distinct.size, tests)
    counts = np.zeros((distinct.size,) + np.shape(taus), float if classes is None else np.intp)
    add_counts(counts, pieces, taus, weights)
    return class_sums(distinct, counts)


def weight_classes(weights, n_taus: int):
    """The distinct weights and each weight's class, or (ones(1), None) to sum them as they are."""
    distinct, classes = np.unique(weights, return_inverse=True)
    # counting costs d * n_taus binary searches a tile: past BLOCK of them, the argsort is cheaper
    if distinct.size > 1 and distinct.size * n_taus > BLOCK:
        return np.ones(1), None
    return distinct, classes


def split(table, classes, n_classes: int) -> list:
    """An unsorted copy of ``table``'s values per class of its columns' ``classes``, with the class."""
    pieces = (table.flatten() if n_classes == 1 else table.compress(classes == c, axis=1).ravel()
              for c in range(n_classes))
    return [(values, c) for c, values in enumerate(pieces) if values.size]


def sorted_pieces(table, classes, n_classes: int, tests) -> list:
    """``split`` sorted in place; where ``classes`` is None, blocks of whole
    permutations argsorted, each value with its test (``tests`` of the columns)."""
    if classes is None:
        size = max(1, BLOCK // table.shape[1]) * table.shape[1]
        values, tests = table.ravel(), np.broadcast_to(tests, table.shape).ravel()
        orders = (s + np.argsort(values[s : s + size]) for s in range(0, values.size, size))
        return [(values[order], tests[order]) for order in orders]
    pieces = split(table, classes, n_classes)
    for values, _ in pieces:
        values.sort()
    return pieces


def add_counts(counts, pieces, taus, weights) -> None:
    """Add the sorted pieces' values >= each tau to ``counts``: per class, or
    where each value comes with its test, that test's weight summed from the top."""
    for values, bins in pieces:
        k = values.size - np.searchsorted(values, taus)
        if np.ndim(bins) == 0:
            counts[bins] += k
        else:
            top = np.cumsum(weights[bins][::-1])
            counts[0] += np.where(k > 0, top[k - 1], 0.0)


def class_sums(distinct, counts) -> np.ndarray:
    """``distinct @ counts``, added class by class in order: the same bits on any BLAS."""
    return (counts.T * distinct).T.sum(axis=0)


def dfdr_from_counts(pi0: float, null_share, discoveries, n_tests: int) -> np.ndarray:
    """pi0 * null_share / (discoveries / n_tests), or 0 where nothing is discovered.

    The null share is a count or weight sum over n_null, or for uniform
    p-values the cutoff itself.
    """
    discoveries = np.asarray(discoveries)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = pi0 * null_share / (discoveries / n_tests)
    return np.where(discoveries == 0, 0.0, values)


def choose_lambda(stats: StatisticSet) -> float:
    """Tuning threshold for the pi0 estimate, from a set's null.

    Picks, among the null statistic values themselves plus +inf, the value
    whose empirical proportion of null statistics strictly below it is
    closest to CENTRAL_BAND_MASS. Ties break toward the smaller value. The
    set selects the value from its bracket (see ``StatisticSet``).
    """
    return stats.lam


def array_tiles(values: np.ndarray, n_tests: int):
    """A stored null as a tile source: whole permutations, about BLOCK values a tile."""
    table = values.reshape(-1, n_tests)
    rows, per = np.arange(n_tests), max(1, BLOCK // n_tests)
    return lambda: ((rows, table[i : i + per]) for i in range(0, table.shape[0], per))


class StatisticSet:
    """Observed statistics and what the estimators read of their permutation
    null, accumulated tile by tile.

    ``feed(tiles)`` makes one pass over a tile source: a callable that returns
    (rows, tile) pairs, where ``tile[:, i]`` holds null statistics of the test
    ``rows[i]`` of ``n_tests``. ``observe`` gives it the observed statistics,
    before the pass or, for a null of at most CAP values, after it and before
    lambda is read. ``resampling.null_passes`` feeds a set the null of its rows
    (every row for ``build_statistic_set``, a subset's for
    ``per_subset_optimize``) as it computes it, or ``merge``s the sets of its
    ranges, and ``from_null`` a stored null; ``tiles`` makes the tiles again
    for another pass, which feeds this set alone. Each tile is read once, from
    one sorted copy per class of the per-test ``weights``, fixed here (one
    class without; a null of at most CAP values sorts each class once, at the
    end of the pass), and the set keeps what README "How the scan works" lists:
    ``counts`` per class at each sorted observed value and +inf, and a bracket
    around the rank of lambda with tallies per class (per test, for weights of
    many distinct values). Memory is O(m + tile + CAP), whatever the number of
    permutations.
    """

    def __init__(self, n_tests: int, n_permutations: int, weights=None) -> None:
        if n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        if n_tests < 1:
            raise ValidationError("need at least one observed statistic")
        self.n_tests, self.n_permutations = n_tests, n_permutations
        self.n_null = n_tests * n_permutations
        self.k = int(CENTRAL_BAND_MASS * self.n_null)
        self.weights = None if weights is None else checked_weights(weights, n_tests, self.n_null)
        self.distinct, self.classes = (  # unweighted: one class, of weight 1
            (np.ones(1, np.intp), np.zeros(n_tests, np.intp)) if weights is None
            else weight_classes(self.weights, n_tests + 1))
        # the weight of each bin of the bracket's tallies: a class's, or a test's
        self.bins = self.weights if self.classes is None else self.distinct
        self.observed = self.taus = self.counts = None
        self.tiles, self.passes, self._lam = None, 0, None
        self._reset(-np.inf, np.inf)

    @classmethod
    def from_null(cls, observed, null, n_permutations: int, weights=None) -> "StatisticSet":
        """A set whose null is given whole: n_tests * n_permutations values
        ordered by permutation index, then feature index (the value at flat
        index j was generated by the test j % n_tests), fed a few whole
        permutations at a time."""
        stats = cls(np.size(observed), n_permutations, weights)
        null = np.asarray(null, dtype=float).ravel()
        if null.size != stats.n_null:
            raise ValidationError(
                f"{null.size} null statistics for "
                f"{stats.n_tests} tests x {n_permutations} permutations"
            )
        return stats.observe(observed).feed(array_tiles(null, stats.n_tests))

    def observe(self, observed) -> "StatisticSet":
        """Count the nulls at the observed statistics: at each tile from now
        on, or after a first pass of at most CAP values over the sorted
        pieces it kept whole."""
        self.observed = np.asarray(observed, dtype=float).ravel()
        check_statistics("observed", self.observed)
        self.taus = np.append(np.sort(self.observed), np.inf)
        shape = (self.distinct.size, self.taus.size)
        self.counts = np.zeros(shape, float if self.classes is None else np.intp)
        if self.seen:  # a null kept whole, counted now from its sorted pieces
            if self.n_kept != self.seen:
                raise ValidationError("a null observed after its pass must be kept whole, lambda unread")
            add_counts(self.counts, self.kept, self.taus, self.weights)
        return self

    @property
    def exceedances(self) -> np.ndarray:
        return class_sums(self.distinct, self.counts)

    @property
    def sorted_observed(self) -> np.ndarray:
        return self.taus[:-1]  # the thresholds of ``counts`` but +inf

    def candidates(self):
        """The run starts of the sorted observed values, plus +inf, with their
        discoveries and null shares; a set built with weights has none."""
        if self.weights is not None:
            raise ValidationError("a set built with weights takes common_threshold_weighted")
        taus, below = run_starts(self.sorted_observed)
        return taus, self.n_tests - below, self.exceedances[below] / self.n_null

    def rejects(self, tau: float) -> np.ndarray:
        return self.observed >= tau

    @property
    def keeps_all(self) -> bool:
        """Whether every null value stays kept: at most CAP of them."""
        return self.n_null <= CAP

    def feed(self, tiles) -> "StatisticSet":
        """One pass over the tile source ``tiles``, kept for any later pass
        its lambda needs. Each tile is read before the next is asked for, and
        none is kept (only copies or counts), so a source may reuse a tile's
        memory once the next is asked for, as ``stats.welch_tiles`` does."""
        self.tiles = tiles
        self.passes += 1
        for rows, tile in tiles():
            self.add(rows, tile)
        self.end_pass()
        return self

    def add(self, rows, tile) -> None:
        first = self.passes == 1 and self.seen == 0 and not self.keeps_all
        self.seen += tile.size
        classes = None if self.classes is None else self.classes[rows]
        if self.keeps_all and classes is not None:  # each class sorted once, by end_pass
            self.kept += split(tile, classes, self.distinct.size)
        else:
            self._take(sorted_pieces(tile, classes, self.distinct.size, rows))
        if first:
            self._narrow(MARGIN)
        if self.n_kept > CAP:
            self._narrow(CAP // 4)

    def end_pass(self) -> None:
        """Take a null kept whole, each class merged and sorted once, so that
        its counts take one binary search per class and candidate, not per tile."""
        if self.keeps_all and self.classes is not None:
            pieces, self.kept = self.kept, []
            merged = [[v for v, b in pieces if b == c] for c in range(self.distinct.size)]
            merged = [own[0] if len(own) == 1 else np.concatenate(own) for own in merged]  # split copies
            for values in merged:
                values.sort()
            self._take([(values, c) for c, values in enumerate(merged) if values.size])

    def _take(self, pieces) -> None:
        """Count (in the first pass, once observed) and bracket sorted pieces of the null."""
        for values, _ in pieces:
            check_statistics("null", values[[0, -1]])  # -inf sorts first and NaN last
        if self.passes == 1 and self.counts is not None:
            add_counts(self.counts, pieces, self.taus, self.weights)
        for piece in pieces:
            self._cut(*piece)

    def _cut(self, values, bins) -> None:
        """Tally the sorted ``values`` against the bracket, and keep those
        inside it; ``bins`` is their class, or each value's test."""
        i, j = np.searchsorted(values, self.lo), np.searchsorted(values, self.hi, "right")
        _tally(self.below, bins, 0, i)
        if j < values.size:
            self.above += values.size - j
            self.above_min = min(self.above_min, values[j])
        if self.at is not None:
            _tally(self.at, bins, i, j)
        elif i < j:
            if j - i < values.size:  # no view: it would hold the whole copy
                values, bins = values[i:j].copy(), bins if np.ndim(bins) == 0 else bins[i:j].copy()
            self.kept.append((values, bins))
            self.n_kept += j - i

    def _reset(self, lo, hi) -> None:
        self.lo, self.hi, self.seen, self.region = lo, hi, 0, (lo, hi)
        self.below = np.zeros(self.bins.size, dtype=np.intp)
        self.at = np.zeros(self.bins.size, dtype=np.intp) if lo == hi else None
        self.kept, self.n_kept = [], 0
        self.above, self.above_min = 0, np.inf

    def _narrow(self, margin: int) -> None:
        """Keep ``margin`` ranks each side of the estimated rank of k."""
        if self.at is not None or self.n_kept == 0:
            return
        last = self.n_kept - 1
        j = min(max(self.k * self.seen // self.n_null - int(self.below.sum()), 0), last)
        if j - margin <= 0 and j + margin >= last:
            return
        part = np.concatenate([values for values, _ in self.kept])
        part.partition(sorted({max(j - margin, 0), j, min(j + margin, last)}))
        lo = part[j - margin] if j >= margin else self.lo
        hi = part[j + margin] if j + margin <= last else self.hi
        if np.count_nonzero((part >= lo) & (part <= hi)) > 3 * CAP // 4:
            lo = hi = part[j]  # long ties at the bounds: keep counts of one value
        self._recut(lo, hi, self.kept)

    def _recut(self, lo, hi, pieces) -> None:
        """[lo, hi] as the bracket, and the sorted ``pieces`` cut against it."""
        self.lo, self.hi, self.kept, self.n_kept = lo, hi, [], 0
        if lo == hi:
            self.at = np.zeros_like(self.below)
        for piece in pieces:
            self._cut(*piece)

    def merge(self, shares) -> None:
        """Take as this set's first pass the passes of ``shares``: sets of its
        tests, observed as it is, each fed its own range of the permutations.
        Counts and tallies add; the bracket is the intersection of theirs,
        which every value they kept is cut against again. Where that is
        empty, lambda takes a pass of its own."""
        self.passes, self.seen = self.passes + 1, sum(share.seen for share in shares)
        self.counts += sum(share.counts for share in shares)
        lo, hi = max(share.lo for share in shares), min(share.hi for share in shares)
        if lo > hi:
            return self._repass(-np.inf, np.inf)
        self._recut(lo, hi, [piece for share in shares for piece in share.kept])
        for share in shares:
            self.below += share.below
            self.above += share.above
            self.above_min = min(self.above_min, share.above_min)
            if share.at is not None:  # closed on the one value of the intersection
                self.at += share.at
        if self.n_kept > CAP:
            self._narrow(CAP // 4)

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
        k, n = self.k, self.n_null
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
        kept = [values for values, _ in self.kept]
        if self.at is None:
            part = kept[0]  # one piece is sorted; more, each sorted, are partitioned together
            if len(kept) > 1:
                part = np.concatenate(kept)
                part.partition(k - below)
            v = part[k - below]
            ends = [np.searchsorted(values, v, "right") for values in kept]
            start = below + sum(np.searchsorted(values, v) for values in kept)
            end = below + sum(ends)
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
            lam = min(values[e] for values, e in zip(kept, ends) if e < values.size)
        else:
            lam = self.above_min
        self._lam = float(lam)
        # counts below lambda, per bin for the weighted pi0
        self.below_lam = self.below.copy()
        if self.at is None:
            for values, bins in self.kept:
                _tally(self.below_lam, bins, 0, np.searchsorted(values, lam))
        elif lam > v:
            self.below_lam += self.at
        self.kept, self.n_kept = [], 0


def _tally(tallies, bins, start: int, stop: int) -> None:
    """Add the sorted values ``start:stop`` to ``tallies``: all to one bin, or each to its own."""
    if np.ndim(bins):
        tallies += np.bincount(bins[start:stop], minlength=tallies.size)
    else:
        tallies[bins] += stop - start


def estimate_pi0(stats: StatisticSet) -> Pi0Estimate:
    """Quantile-matching pi0 estimate at the set's tuning threshold lambda.

    The raw ratio (share of observed statistics below lambda) / (share of
    null statistics below lambda) is clamped into [0, 1]; raw values above 1
    are meaningless as a proportion. A set with per-test ``weights`` gives
    weight sums instead, each null inheriting its test's weight: the null
    weight below lambda is each class's count below lambda times its weight,
    added in class order. Raises UndefinedEstimateError when no null
    statistic (no positive null weight) falls below lambda.
    """
    obs, w, lam = stats.observed, stats.weights, stats.lam
    null_below = class_sums(stats.bins, stats.below_lam)
    obs_below = np.count_nonzero(obs < lam) if w is None else float(np.sum(w[obs < lam]))
    if null_below == 0:
        counted = "null statistic" if w is None else "positive null weight"
        raise UndefinedEstimateError(
            f"no {counted} below lambda={lam!r}; consider the conservative mode pi0 = 1"
        )
    return Pi0Estimate.estimated(float((obs_below / obs.size) / (null_below / stats.n_null)), lam)


def estimate_pi0_from_pvalues(pvals: PValueSet) -> Pi0Estimate:
    """pi0 estimate for the p-value route, using the analytic uniform null.

    The share of p-values above PVALUE_BAND_THRESHOLD, divided by the null
    share CENTRAL_BAND_MASS, clamped into [0, 1].
    """
    frac = np.count_nonzero(pvals.pvalues > PVALUE_BAND_THRESHOLD) / pvals.n_tests
    return Pi0Estimate.estimated(frac / CENTRAL_BAND_MASS, PVALUE_BAND_THRESHOLD)


def resolve_pi0(stats: StatisticSet, mode) -> Pi0Estimate:
    """Build a Pi0Estimate from a mode: "estimate", "one", or a number.

    Only "estimate" reads ``stats``, so the other modes serve the p-value
    route too, whose estimate is ``estimate_pi0_from_pvalues``. The estimate
    is weighted when the set was built with weights. Lambda is selected from
    the null as generated, on every route.
    """
    if mode == "one":
        return Pi0Estimate.fixed_one()
    if mode == "estimate":
        choose_lambda(stats)  # lambda is selected first, in a stage of its own
        return estimate_pi0(stats)
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


def checked_weights(weights, n_tests: int, n_null: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != n_tests:
        raise ValidationError(f"{w.size} weights for {n_tests} tests")
    if np.any(w < 0.0):
        raise ValidationError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValidationError("at least one weight must be positive")
    # the null's weight sums, up to sum(w) * n_null / n_tests, stay finite; positive shares, above 0
    if not (float(np.sum(w / n_tests)) * n_null < math.inf and float(w[w > 0].min()) / n_null > 0):
        raise ValidationError(f"weights out of range: their sums over {n_null} null statistics "
                              "overflow or round to 0; scale benefits and costs together")
    return w
