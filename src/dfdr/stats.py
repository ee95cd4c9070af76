"""Per-test observed statistics and p-value intake.

The default statistic is the absolute two-sample t with unequal-variance
(Welch) standard error and n-1 sample variances. When a feature has zero
pooled standard error, the statistic is 0 for a zero mean difference and the
+inf sentinel otherwise; the sentinel ranks above every finite statistic and
falls inside every threshold region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError


@dataclass(frozen=True)
class StatisticSet:
    """Observed statistics plus the resampled null statistics.

    ``null_stats`` holds n_tests * n_permutations values ordered by
    permutation index, then feature index; the null value at flat index j was
    generated by the test j % n_tests. Ascending copies of both arrays are
    sorted on first use and kept: every exceedance count is a binary search
    in them.
    """

    observed: np.ndarray
    null_stats: np.ndarray
    n_permutations: int

    def __post_init__(self) -> None:
        observed = np.asarray(self.observed, dtype=float).ravel()
        null_stats = np.asarray(self.null_stats, dtype=float).ravel()
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "null_stats", null_stats)
        if observed.size < 1:
            raise ValidationError("need at least one observed statistic")
        if self.n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        if null_stats.size != observed.size * self.n_permutations:
            raise ValidationError(
                f"{null_stats.size} null statistics for "
                f"{observed.size} tests x {self.n_permutations} permutations"
            )
        for name, arr in (("observed", observed), ("null", null_stats)):
            if np.any(np.isnan(arr)) or np.any(np.isneginf(arr)):
                raise ValidationError(f"{name} statistics must be finite or +inf")

    @property
    def n_tests(self) -> int:
        return self.observed.size

    @property
    def n_null(self) -> int:
        return self.null_stats.size

    @cached_property
    def sorted_observed(self) -> np.ndarray:
        return np.sort(self.observed)

    @cached_property
    def sorted_null(self) -> np.ndarray:
        return np.sort(self.null_stats)


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
        raise ValidationError(f"p-value out of [0, 1] at index {i}: {p[i]!r}")
    return PValueSet(pvalues=p)


def abs_t_from_columns(values: np.ndarray, cols_a, cols_b) -> np.ndarray:
    """Absolute Welch t statistics for every row, given two column index sets."""
    cols_a = np.asarray(cols_a, dtype=np.intp)
    cols_b = np.asarray(cols_b, dtype=np.intp)
    if cols_a.size < 2 or cols_b.size < 2:
        raise ValidationError("both groups need at least two members")
    a = values[:, cols_a]
    b = values[:, cols_b]
    diff = np.abs(a.mean(axis=1) - b.mean(axis=1))
    se2 = a.var(axis=1, ddof=1) / cols_a.size + b.var(axis=1, ddof=1) / cols_b.size
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se2)
    return np.where(se2 > 0.0, t, np.where(diff == 0.0, 0.0, np.inf))


def two_sample_abs_t(matrix: DataMatrix, group_a: str, group_b: str) -> np.ndarray:
    """Absolute two-sample t statistic per feature for the two named groups."""
    return abs_t_from_columns(
        matrix.values,
        matrix.group_columns(group_a),
        matrix.group_columns(group_b),
    )
