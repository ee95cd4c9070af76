"""Per-test observed statistics and p-value intake.

The default statistic is the absolute two-sample t with unequal-variance
(Welch) standard error and n-1 sample variances. One kernel, ``welch_abs_t``,
computes it for the observed labels and for every permutation alike: group
sums are exact 0/1 matrix products of an error-free hi/lo split of each row
(see its docstring), so a statistic depends only on the values that fall in
each group. When both groups of a feature have zero spread, the statistic is
0 if their means are equal (an exactly constant feature) and the +inf
sentinel otherwise; the sentinel ranks above every finite statistic and falls
inside every threshold region. A positive spread (above 2^-500 of the row's
range) never gives a sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from dfdr.errors import ValidationError


@dataclass(frozen=True)
class StatisticSet:
    """Observed statistics plus their permutation null.

    The estimators read the null only through a ``NullSummary`` (see
    ``estimators``): exceedance counts or weight sums at the candidate
    thresholds, lambda, and the per-test counts below lambda. A set from
    ``build_statistic_set`` was summarized tile by tile as its null was
    computed, and the null was never held whole: ``null_stats`` is None and
    ``summary`` can recompute it, tile by tile. A set built from arrays holds
    ``null_stats``, n_tests * n_permutations values ordered by permutation
    index, then feature index (the value at flat index j was generated by the
    test j % n_tests), and feeds it to a summary in tiles of whole
    permutations when first read.
    """

    observed: np.ndarray
    null_stats: np.ndarray | None
    n_permutations: int
    summary: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        observed = np.asarray(self.observed, dtype=float).ravel()
        object.__setattr__(self, "observed", observed)
        if observed.size < 1:
            raise ValidationError("need at least one observed statistic")
        if self.n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        check_statistics("observed", observed)
        if self.null_stats is None:
            if self.summary is None:
                raise ValidationError("need the null statistics or their summary")
            return
        null_stats = np.asarray(self.null_stats, dtype=float).ravel()
        object.__setattr__(self, "null_stats", null_stats)
        if null_stats.size != observed.size * self.n_permutations:
            raise ValidationError(
                f"{null_stats.size} null statistics for "
                f"{observed.size} tests x {self.n_permutations} permutations"
            )
        check_statistics("null", null_stats)

    @property
    def n_tests(self) -> int:
        return self.observed.size

    @property
    def n_null(self) -> int:
        return self.observed.size * self.n_permutations

    @cached_property
    def sorted_observed(self) -> np.ndarray:
        return np.sort(self.observed)

    @property
    def null_tiles(self):
        """The null as a tile source: a callable returning (rows, tile) pairs,
        where tile[:, i] holds nulls of the test rows[i]. A stored null is read
        in place; a summarized one is recomputed."""
        if self.null_stats is None:
            return self.summary.tiles
        from dfdr.estimators import array_tiles  # the engine imports this module
        return array_tiles(self.null_stats, self.n_tests)

    def null_summary(self, weights=None):
        """The null's NullSummary, with weight sums for ``weights`` if given.

        The last summary is kept; one for other weights takes a new pass.
        """
        from dfdr.estimators import NullSummary
        if self.summary is None or not self.summary.weighs_with(weights):
            summary = NullSummary(self.n_tests, self.n_permutations, weights).observe(self.observed)
            object.__setattr__(self, "summary", summary.feed(self.null_tiles))
        return self.summary

    @property
    def null_exceedances(self) -> np.ndarray:
        """How many nulls are >= each of ``sorted_observed`` and +inf: m + 1 counts."""
        return self.null_summary().exceedances


def check_statistics(name: str, values: np.ndarray) -> None:
    # one reduction, no temporaries: the minimum is NaN if any value is
    if not values.min() > -np.inf:
        raise ValidationError(f"{name} statistics must be finite or +inf")


@dataclass(frozen=True)
class PValueSet:
    """Validated per-test p-values, each in [0, 1]."""

    pvalues: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pvalues, dtype=float).ravel()
        object.__setattr__(self, "pvalues", p)
        if p.size < 1:
            raise ValidationError("need at least one p-value")

    @property
    def n_tests(self) -> int:
        return self.pvalues.size

    @cached_property
    def sorted_pvalues(self) -> np.ndarray:
        return np.sort(self.pvalues)


def validate_pvalues(raw) -> PValueSet:
    """Check that every value lies in [0, 1] and wrap them in a PValueSet."""
    p = np.asarray(raw, dtype=float).ravel()
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"p-value out of [0, 1] at index {i}: {float(p[i])}")
    return PValueSet(pvalues=p)


# Rows per block: at least ROWS, and enough that a block holds about
# ROW_VALUES data values (a 2000 x 20 simulate matrix takes five blocks).
# Splits per matrix product: CHUNK. Statistics per tile: TILE. The statistics
# depend on none of these; they size the temporaries.
ROWS = 256
ROW_VALUES = 2**13
CHUNK = 64
TILE = 2**18
# The one-pass spread sum(y^2) - sum(y)^2 / k of a group is off by at most
# about 2^-50 of sum(y^2) plus one lo-grid step per member. A spread that does
# not exceed that bound by this factor is recomputed with two passes.
_MARGIN = 2.0**40
# Multiply-adds per BLAS call (see _product).
_BLAS_SIZE = 2**18


def welch_abs_t(values: np.ndarray, pool, n_a: int, splits) -> np.ndarray:
    """Absolute Welch t of every row of ``values[:, pool]`` for each split.

    A split (row of ``splits``) is a permutation of the pool positions
    ``0..n-1``: its first ``n_a`` entries form group A, the rest group B.
    Returns shape (len(splits), n_rows).

    Each row is centred on its midrange ``(min + max) / 2`` (exactly, as a
    rounded difference plus its rounding error), scaled by a power of two to
    magnitude below 1, and split into a hi part on the grid 2^-p and a lo part
    on the grid 2^-2p, p = 52 - n.bit_length(); its square is split the same
    way. Every sum of at most n such parts is then an integer multiple of the
    grid below 2^52, so the 0/1 matrix product that forms group A's sums is
    exact on any BLAS, in any blocking or thread count, and group B's sums are
    the totals minus group A's, also exact. The statistic of a split depends
    only on the row and on which values fall in each group: not on the order
    of the split or of the columns, nor on which other rows and splits are
    evaluated with it, and swapping the groups changes no bit.

    From the exact sums the Welch step uses the one-pass form
    ``sum(y^2) - sum(y)^2 / k``. Where that keeps less than 2^-10 of a group's
    sum of squares (or the sum of squares is so small that the lo grid limits
    it), the group's spread is recomputed with two passes over its values in
    sorted order; a group whose values are all equal has spread exactly 0.
    Sentinels: a row with zero spread in both groups gives +inf when the
    group means differ and 0 when they are equal (an exactly constant row);
    any spread above 2^-500 of the row's range gives a finite statistic
    (squares of smaller deviations underflow).
    """
    out = np.empty((np.shape(splits)[0], values.shape[0]))
    for rows, start, tile in welch_tiles(values, pool, n_a, splits):
        out[start : start + tile.shape[0], rows] = tile
    return out


def welch_tiles(values: np.ndarray, pool, n_a: int, splits):
    """``welch_abs_t`` one tile at a time: (rows, first split, tile) triples.

    ``tile[s, i]`` is the statistic of split ``first + s`` for row
    ``rows[i]``. The splits go in groups, each over every block of rows, so
    the tiles of a group cover all rows before the next group starts; a
    block's parts are prepared once per group. Blocks hold at least ROWS rows
    and ROW_VALUES data values; the first block's rows are strided across all
    rows, so the first tile samples the whole matrix, and the other blocks
    take the remaining rows in order. A tile holds at most TILE values (one
    split's, if a block's rows alone exceed it). Its memory is reused by the
    next tile.
    """
    pool = np.asarray(pool, dtype=np.intp)
    splits = np.asarray(splits, dtype=np.intp)
    if n_a < 2 or pool.size - n_a < 2:
        raise ValidationError("both groups need at least two members")
    count, m = splits.shape[0], values.shape[0]
    size = min(m, max(ROWS, ROW_VALUES // pool.size))
    first = np.arange(0, m, -(-m // size))
    rest = np.delete(np.arange(m), first)
    group = max(1, min(count, TILE // size))
    buffer = np.empty(group * size)
    for start in range(0, count, group):
        part = splits[start : start + group]
        members = np.zeros((part.shape[0], pool.size))
        members[np.arange(part.shape[0])[:, None], part[:, :n_a]] = 1.0
        for rows in [first] + [rest[r : r + size] for r in range(0, rest.size, size)]:
            block = _Rows(values[rows][:, pool], n_a)  # column-major: fast row minima
            tile = buffer[: part.shape[0] * rows.size].reshape(-1, rows.size)
            for c in range(0, part.shape[0], CHUNK):
                chunk = slice(c, c + CHUNK)
                block.abs_t(members[chunk], part[chunk], tile[chunk])
            yield rows, start, tile


class _Rows:
    """The split parts of a block of rows, and the Welch step on them."""

    def __init__(self, x: np.ndarray, n_a: int) -> None:
        m, n = x.shape
        self.n_a, self.n_b = n_a, n - n_a
        lo, hi = x.min(axis=1), x.max(axis=1)
        self.constant = np.flatnonzero(lo == hi)
        center = 0.5 * lo + 0.5 * hi
        # 2^-e > every |x - center|; e >= -1021 keeps 2^-e finite
        e = np.frexp(np.maximum(hi - center, center - lo))[1]
        scale = np.ldexp(1.0, -np.maximum(e, -1021))[:, None]
        center = center[:, None]
        # parts[k * m + i, j]: hi, lo, square hi, square lo (k = 0..3) of row i
        # at position j
        self.parts = parts = np.empty((4 * m, n))
        y_hi, y_lo, sq_hi, sq_lo = parts.reshape(4, m, n)
        # centred value s + err == x - center exactly (TwoSum; s is kept in
        # sq_lo and err in x until both are split)
        s = np.subtract(x, center, out=sq_lo)
        np.subtract(s, x, out=y_lo)
        np.subtract(s, y_lo, out=sq_hi)
        x -= sq_hi
        y_lo += center
        x -= y_lo
        s *= scale
        x *= scale
        p = 52 - n.bit_length()
        self.lo_step = 2.0 ** (-2 * p)
        _round(s, 2.0**-p, out=y_hi)
        s -= y_hi
        s += x
        _round(s, self.lo_step, out=y_lo)
        np.add(y_hi, y_lo, out=sq_lo)
        sq_lo *= sq_lo
        _round(sq_lo, 2.0**-p, out=sq_hi)
        sq_lo -= sq_hi
        _round(sq_lo, self.lo_step, out=sq_lo)
        self.totals = (parts @ np.ones(n)).reshape(4, m)

    def abs_t(self, members, splits, out) -> None:
        """|t| per split and row into ``out``, working in place in ``out``
        and in the product that gives group A's sums."""
        c, m = out.shape
        n_a, n_b = self.n_a, self.n_b
        sums = _product(members, self.parts)
        y_hi, y_lo, sq_hi, sq_lo = sums.reshape(c, 4, m).transpose(1, 0, 2)
        t_hi, t_lo, tsq_hi, tsq_lo = self.totals
        s1a = np.add(y_hi, y_lo, out=out)
        s1b = _rest(t_hi, y_hi, t_lo, y_lo)
        s2a = np.add(sq_hi, sq_lo, out=y_lo)
        s2b = _rest(tsq_hi, sq_hi, tsq_lo, sq_lo)
        mean_a = np.divide(s1a, n_a, out=sq_lo)
        ss_a = self._spread(s1a, s2a, mean_a, splits[:, :n_a])
        mean_b = np.divide(s1b, n_b, out=s2a)
        ss_b = self._spread(s1b, s2b, mean_b, splits[:, n_a:])
        # se = sqrt(ss_a / (n_a (n_a - 1)) + ss_b / (n_b (n_b - 1)))
        ss_a *= 1.0 / (n_a * (n_a - 1))
        ss_b *= 1.0 / (n_b * (n_b - 1))
        ss_a += ss_b
        se = np.sqrt(ss_a, out=ss_a)
        mean_a -= mean_b
        diff = np.abs(mean_a, out=mean_a)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(diff, se, out=out)
        if self.constant.size:
            out[:, self.constant] = 0.0

    def _spread(self, s1, s2, mean, members) -> np.ndarray:
        """Sum of squared deviations per (split, row), in place of ``s1``.

        Overwrites ``s2``.
        """
        k = members.shape[1]
        s1 *= mean
        ss = np.subtract(s2, s1, out=s1)
        s2 *= _MARGIN * 2.0**-50
        s2 += k * _MARGIN * self.lo_step
        redo = ss <= s2
        if redo.any():
            redo[:, self.constant] = False
            split, row = np.nonzero(redo)
            ss[split, row] = self._two_pass(row, members[split], mean[split, row])
        return ss

    def _two_pass(self, rows, members, mean) -> np.ndarray:
        """Spread of each listed group from its values, summed in sorted order."""
        m = self.totals.shape[1]
        hi = self.parts[rows[:, None], members]
        lo = self.parts[rows[:, None] + m, members]
        order = np.lexsort((lo, hi), axis=-1)
        hi = np.take_along_axis(hi, order, axis=-1)
        lo = np.take_along_axis(lo, order, axis=-1)
        dev = hi - mean[:, None]
        dev += lo
        dev -= (np.cumsum(dev, axis=-1)[:, -1] / members.shape[1])[:, None]
        dev *= dev
        ss = np.cumsum(dev, axis=-1)[:, -1]
        constant = (hi[:, 0] == hi[:, -1]) & (lo[:, 0] == lo[:, -1])
        ss[constant] = 0.0
        return ss


def _product(members: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``members @ rows.T``, as products of at most _BLAS_SIZE multiply-adds.

    OpenBLAS runs a product that small on the calling thread. A larger one
    wakes worker threads, which then spin between calls: over the many small
    products of ``dfdr simulate`` that doubled the CPU time on two CPUs.
    """
    c, n = members.shape
    width = max(1, _BLAS_SIZE // (c * n))
    whole = rows.shape[0] // width * width
    out = np.empty((c, rows.shape[0]))
    np.matmul(
        members,
        rows[:whole].reshape(-1, width, n).transpose(0, 2, 1),
        out=out[:, :whole].reshape(c, -1, width).transpose(1, 0, 2),
    )
    np.matmul(members, rows[whole:].T, out=out[:, whole:])
    return out


def _rest(total_hi, hi, total_lo, lo) -> np.ndarray:
    """The other group's sum, (total_hi - hi) + (total_lo - lo), into ``hi``.

    Both differences are exact; only their sum rounds. Overwrites ``lo``.
    """
    np.subtract(total_lo, lo, out=lo)
    np.subtract(total_hi, hi, out=hi)
    hi += lo
    return hi


def _round(values: np.ndarray, step: float, out: np.ndarray) -> None:
    """Round to the nearest multiple of ``step`` = 2^-q, for |values| <= 1.

    Adding 1.5 * 2^52 * step leaves a sum whose last bit is worth ``step``,
    so the addition rounds and the subtraction is exact.
    """
    shift = 1.5 * 2.0**52 * step
    np.add(values, shift, out=out)
    out -= shift

