"""Per-test observed statistics, and p-values as a set to decide on.

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

A ``PValueSet`` is decided on as a ``StatisticSet`` (``estimators``) is:
by its candidate thresholds, from the runs of ties in its sorted values
(``run_starts``), and the tests a threshold rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dfdr.errors import ValidationError


def check_statistics(name: str, values: np.ndarray) -> None:
    # one reduction, no temporaries: the minimum is NaN if any value is
    if not values.min() > -np.inf:
        raise ValidationError(f"{name} statistics must be finite or +inf")


@dataclass(frozen=True)
class PValueSet:
    """Per-test p-values, each in [0, 1], decided against the uniform null:
    the null share of a cutoff is the cutoff itself."""

    pvalues: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.pvalues, dtype=float).ravel()
        object.__setattr__(self, "pvalues", p)
        if p.size < 1:
            raise ValidationError("need at least one p-value")
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"p-value out of [0, 1] at index {i}: {float(p[i])}")

    @property
    def n_tests(self) -> int:
        return self.pvalues.size

    @cached_property
    def sorted_pvalues(self) -> np.ndarray:
        return np.sort(self.pvalues)

    def candidates(self):
        """Cutoffs -inf ("reject nothing") and each distinct p-value, with
        their discoveries (p <= a distinct value holds exactly for the
        p-values below the next) and the cutoffs as their null shares."""
        cutoffs, below = run_starts(self.sorted_pvalues, first=-np.inf)
        return cutoffs, below, cutoffs

    def rejects(self, cutoff: float) -> np.ndarray:
        return self.pvalues <= cutoff


def validate_pvalues(raw) -> PValueSet:
    """The values as a PValueSet, which checks that each lies in [0, 1]."""
    return PValueSet(raw)


def run_starts(sorted_values: np.ndarray, first: float | None = None):
    """Distinct values plus +inf, each with how many values lie below it.

    The count below a distinct value is where its run of ties starts, so it
    also indexes the value's entry in a ``StatisticSet``'s ``exceedances``.
    With ``first`` the values are shifted one place instead: ``first``, then
    each distinct value, with the same counts.
    """
    n = sorted_values.size
    starts = np.empty(n + 1, dtype=bool)  # where a run of ties starts, and the end
    starts[0] = starts[n] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=starts[1:n])
    below = np.flatnonzero(starts)
    taus = np.empty(below.size)
    if first is not None:
        taus[0] = first
        np.take(sorted_values, below[:-1], out=taus[1:])
        return taus, below
    np.take(sorted_values, below[:-1], out=taus[:-1])
    taus[-1] = np.inf
    if np.isposinf(sorted_values[-1]):
        return taus[:-1], below[:-1]
    return taus, below


# Rows per block: at least ROWS, and enough that a block holds about
# ROW_VALUES data values (a 2000 x 20 simulate matrix takes five blocks).
# Splits per matrix product: CHUNK, or about ROWS * CHUNK statistics' worth in
# a block of fewer rows. Statistics per tile: TILE. The statistics depend on
# none of these; they size the temporaries.
ROWS = 256
ROW_VALUES = 2**13
CHUNK = 64
TILE = 2**18
# The one-pass spread sum(y^2) - sum(y)^2 / k of a group is off by at most
# about 2^-50 of sum(y^2) plus one lo-grid step per member. A spread that does
# not exceed that bound by this factor is recomputed with two passes.
_MARGIN = 2.0**40


def welch_abs_t(values: np.ndarray, pool, n_a: int, splits, rows=None) -> np.ndarray:
    """Absolute Welch t of the rows ``rows`` (every row without) of
    ``values[:, pool]`` for each split.

    A split (row of ``splits``) is a permutation of the pool positions
    ``0..n-1``: its first ``n_a`` entries form group A, the rest group B.
    Returns shape (len(splits), len(rows)).

    Each row is centred on its midrange and split into hi and lo parts on
    fixed grids, so group A's sums are exact 0/1 matrix products on any BLAS
    and group B's the totals minus group A's; the Welch step recomputes a
    spread that the one-pass form would lose with two passes. README "How
    the statistics are computed" gives the steps, the sentinels and the
    determinism contract: the statistic of a split depends only on the row
    and on which values fall in each group.
    """
    rows = np.arange(values.shape[0]) if rows is None else rows
    splits = np.asarray(splits, dtype=np.intp)
    out = np.empty((splits.shape[0], len(rows)))
    for block, start, tile in welch_tiles(values, pool, n_a, splits, rows, memberships(splits, n_a)):
        out[start : start + tile.shape[0], block] = tile
    return out


def memberships(splits: np.ndarray, n_a: int) -> np.ndarray:
    """``members[s, j]``: whether pool position j is in group A of split s,
    its place in the split (the inverse permutation) being below ``n_a``."""
    return np.argsort(splits, axis=1) < n_a


def welch_tiles(values: np.ndarray, pool, n_a: int, splits, rows, members):
    """``welch_abs_t`` of the rows ``rows`` one tile at a time: (block,
    first split, tile) triples; ``members`` is ``memberships(splits, n_a)``.

    ``tile[s, i]`` is the statistic of split ``first + s`` for row
    ``rows[block[i]]``. The splits go in groups, each over every block, so
    the tiles of a group cover all rows before the next group starts; a
    block's parts are prepared once per group. Blocks hold at least ROWS rows
    and ROW_VALUES data values; the first block's rows are strided across all
    rows, so the first tile samples them all, and the other blocks take the
    remaining rows in order. A tile holds at most TILE values (one split's,
    if a block's rows alone exceed it), and its memory is reused by the
    next: a consumer reads each tile before it asks for the next.
    """
    pool = np.asarray(pool, dtype=np.intp)
    if n_a < 2 or pool.size - n_a < 2:
        raise ValidationError("both groups need at least two members")
    count, m = splits.shape[0], len(rows)
    size = min(m, max(ROWS, ROW_VALUES // pool.size))
    first = np.arange(0, m, -(-m // size))
    rest = np.delete(np.arange(m), first)
    group = max(1, min(count, TILE // size))
    buffer = np.empty(group * size)
    for start in range(0, count, group):
        part = splits[start : start + group]
        chosen = members[start : start + group].astype(float)  # 0/1 rows of the products
        for block in [first] + [rest[r : r + size] for r in range(0, rest.size, size)]:
            parts = _Rows(values[rows[block]][:, pool], n_a)  # column-major: C-order x.T in _Rows
            tile = buffer[: part.shape[0] * block.size].reshape(-1, block.size)
            step = max(CHUNK, ROWS * CHUNK // block.size)
            for c in range(0, part.shape[0], step):
                chunk = slice(c, c + step)
                parts.abs_t(chosen[chunk], part[chunk], tile[chunk])
            yield block, start, tile


class _Rows:
    """The split parts of a block of rows, and the Welch step on them.

    ``parts[k, j, i]`` is part k (hi, lo, square hi, square lo) of row i at
    pool position j: positions x rows, so a part's rows are contiguous for
    the product and for every step of the Welch arithmetic.
    """

    def __init__(self, x: np.ndarray, n_a: int) -> None:
        x = x.T  # positions x rows: C-contiguous for a column-major block
        n, m = x.shape
        self.n_a, self.n_b = n_a, n - n_a
        lo, hi = x.min(axis=0), x.max(axis=0)
        self.constant = np.flatnonzero(lo == hi)
        center = 0.5 * lo + 0.5 * hi
        # 2^-e > every |x - center|; e >= -1021 keeps 2^-e finite
        e = np.frexp(np.maximum(hi - center, center - lo))[1]
        scale = np.ldexp(1.0, -np.maximum(e, -1021))
        self.parts = parts = np.empty((4, n, m))
        y_hi, y_lo, sq_hi, sq_lo = parts
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
        self.totals = parts.sum(axis=1)  # exact: every part lies on the grid

    def abs_t(self, members, splits, out) -> None:
        """|t| per split and row into ``out``, working in place in ``out``
        and in the product that gives group A's sums."""
        n_a, n_b = self.n_a, self.n_b
        y_hi, y_lo, sq_hi, sq_lo = np.matmul(members, self.parts)
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
        mean_a -= mean_b
        diff = np.abs(mean_a, out=mean_a)
        # a constant row's spread can round below 0 (its statistic is set to 0 below)
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(ss_a, out=ss_a)
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
        hi = self.parts[0][members, rows[:, None]]
        lo = self.parts[1][members, rows[:, None]]
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

