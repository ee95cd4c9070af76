"""Permutation null distributions.

Whole subject columns are relabeled, never individual cells, so correlations
between features are preserved in the null. Group sizes are kept fixed and
the relabeling is drawn uniformly at random with replacement from the
permutation group; the identity permutation is not excluded.

Reproducibility contract: permutation ``b`` is generated from the PCG64
stream seeded with ``numpy.random.SeedSequence(entropy=seed, spawn_key=(b,))``,
and its statistics come from ``stats.welch_abs_t``, whose group sums are exact
0/1 matrix products. The null statistics of permutation ``b`` are therefore
bitwise the same for any number of permutations above ``b``, any batching of
permutations into products, any BLAS or BLAS thread count, and any order of
evaluation; the identity permutation reproduces the observed statistics bit
for bit. Null statistics are ordered by permutation index, then feature
index. The observed statistics are computed in the same pass as the null.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError
from dfdr.stats import StatisticSet, welch_abs_t


@dataclass(frozen=True)
class PermutationPlan:
    """How many label permutations to draw and from which seed."""

    n_permutations: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


def permutation_indices(plan: PermutationPlan, index: int, size: int) -> np.ndarray:
    """The permutation of ``range(size)`` used at permutation ``index``."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=plan.seed, spawn_key=(index,))
    )
    return rng.permutation(size)


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_null_fits(shape: tuple[int, int], n_permutations: int, arrays: int) -> None:
    """Refuse, before allocating, a null that cannot fit in physical memory.

    ``shape`` is the data matrix's (tests, subjects); ``arrays`` counts the
    nulls held at once, one per comparison plus a subset's slice of one, each
    tests * n_permutations 8-byte values (nothing copies a null: its counts,
    weight sums and lambda go block by block). The permutations and their 0/1
    membership matrix add at most 2 * n_permutations * subjects values.
    """
    (m, n), b = shape, n_permutations
    need = 8 * (b * (arrays * m + 2 * n) + m * n)
    have = physical_memory()
    if have is not None and need > have:
        raise ValidationError(
            f"the permutation null needs about {need / 2**20:.0f} MiB "
            f"({arrays} x {m} tests x {b} permutations), more than "
            f"the {have / 2**20:.0f} MiB of physical memory; lower --permutations"
        )


def permutation_null(
    matrix: DataMatrix,
    group_a: str,
    group_b: str,
    plan: PermutationPlan,
    observed: np.ndarray | None = None,
) -> np.ndarray:
    """Null statistics from ``plan.n_permutations`` random label permutations.

    ``observed``, if given, receives the observed statistics (those of the
    identity permutation), computed in the same pass.
    """
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    stats = np.empty((plan.n_permutations + 1, values.shape[0]))
    splits = np.empty((plan.n_permutations + 1, pool.size), dtype=np.intp)
    splits[0] = np.arange(pool.size)
    for b in range(plan.n_permutations):
        splits[b + 1] = permutation_indices(plan, b, pool.size)
    welch_abs_t(values, pool, n_a, splits, out=stats)
    if observed is not None:
        observed[:] = stats[0]
    return stats[1:].ravel()


def build_statistic_set(
    matrix: DataMatrix,
    group_a: str,
    group_b: str,
    plan: PermutationPlan,
) -> StatisticSet:
    """Observed statistics plus their permutation null, as one StatisticSet."""
    observed = np.empty(matrix.n_features)
    null_stats = permutation_null(matrix, group_a, group_b, plan, observed=observed)
    return StatisticSet(
        observed=observed, null_stats=null_stats, n_permutations=plan.n_permutations
    )


def two_sample_abs_t(matrix: DataMatrix, group_a: str, group_b: str) -> np.ndarray:
    """Absolute two-sample t statistic per feature for the two named groups."""
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    return welch_abs_t(values, pool, n_a, np.arange(pool.size)[None, :])[0]


def _comparison(matrix: DataMatrix, group_a: str, group_b: str):
    """Values, pooled columns (group A's, then B's) and group A's size."""
    if group_a == group_b:
        raise ValidationError(f"group {group_a!r} cannot be compared with itself")
    cols_a = matrix.group_columns(group_a)
    return matrix.values, np.concatenate([cols_a, matrix.group_columns(group_b)]), cols_a.size
