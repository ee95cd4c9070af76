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


def check_null_fits(matrix: DataMatrix, plan: PermutationPlan, arrays: int) -> None:
    """Refuse, before allocating, a null that cannot fit in physical memory.

    ``arrays`` counts the null and the copies of it the analysis holds at
    once (the sort; with weights only the partitioned copy that
    ``choose_lambda`` selects from, since the weight sums go block by block),
    each n_tests * n_permutations 8-byte values; the permutations and their
    0/1 membership matrix add at most 2 * n_permutations * n_subjects values.
    """
    m, b = matrix.n_features, plan.n_permutations
    need = 8 * b * (arrays * m + 2 * matrix.n_subjects)
    have = physical_memory()
    if have is not None and need > have:
        raise ValidationError(
            f"the permutation null needs about {need / 2**20:.0f} MiB "
            f"({arrays} arrays of {m} tests x {b} permutations), more than "
            f"the {have / 2**20:.0f} MiB of physical memory; lower --permutations"
        )


def null_from_permutations(
    matrix: DataMatrix,
    group_a: str,
    group_b: str,
    permutations,
) -> np.ndarray:
    """Null statistics for an explicit sequence of label permutations.

    Each permutation reassigns the pooled columns of the two groups to the
    group slots while keeping group sizes fixed. Useful for forcing specific
    permutations (e.g. the identity) in tests.
    """
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    perms = [np.asarray(perm, dtype=np.intp) for perm in permutations]
    for b, perm in enumerate(perms):
        if perm.shape != pool.shape or not np.array_equal(np.sort(perm), np.arange(pool.size)):
            raise ValidationError(f"permutation {b} is not a permutation of the pooled columns")
    return welch_abs_t(values, pool, n_a, np.reshape(perms, (len(perms), pool.size))).ravel()


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


def _comparison(matrix: DataMatrix, group_a: str, group_b: str):
    """Values, pooled columns (group A's, then B's) and group A's size."""
    cols_a = matrix.group_columns(group_a)
    return matrix.values, np.concatenate([cols_a, matrix.group_columns(group_b)]), cols_a.size
