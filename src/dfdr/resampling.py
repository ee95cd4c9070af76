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
index. The observed statistics are computed first, from the identity split,
and the null is then computed tile by tile into a summary, never whole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError
from dfdr.estimators import NullSummary, summarize
from dfdr.stats import StatisticSet, welch_abs_t, welch_tiles

# Tiles a streamed null's worker makes past the one the summaries hold: two
# even out the tiles that take one stage longer than the other.
AHEAD = 2


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


def check_null_fits(shape: tuple[int, int], n_permutations: int, at_once: int = 1) -> None:
    """Refuse, before allocating, permutations that cannot fit in physical memory.

    ``shape`` is the data matrix's (tests, subjects). The null is never held:
    a NullSummary takes it tile by tile, in memory bounded by the tile and
    bracket sizes and the number of tests. What grows with the number of
    permutations is the permutations themselves, n_permutations * subjects
    8-byte indices, which are counted here with the matrix, ``at_once``
    times where that many comparisons run at once. Routes with more than one
    comparison otherwise hold one comparison's permutations at a time.
    """
    (m, n), b = shape, n_permutations
    need = 8 * n * (b + m) * at_once
    have = physical_memory()
    if have is not None and need > have:
        each = f", for each of {at_once} replicates run at once" if at_once > 1 else ""
        raise ValidationError(
            f"the permutations need about {need / 2**20:.0f} MiB "
            f"({b} permutations x {n} subjects, and the matrix{each}), more than "
            f"the {have / 2**20:.0f} MiB of physical memory; lower --permutations"
        )


def permutation_null(
    matrix: DataMatrix,
    group_a: str,
    group_b: str,
    plan: PermutationPlan,
    into=None,
):
    """Null statistics from ``plan.n_permutations`` random label permutations.

    Returns the null whole. With ``into`` (a NullSummary or a list of them),
    each tile of the null goes to every summary as it is computed, nothing
    is kept whole, and ``into`` is returned; the summaries keep the means to
    recompute the tiles for any later pass. They observe the observed
    statistics, those of the identity split, first; a null that the
    summaries keep whole anyway takes the identity split in its own pass
    instead, so its row blocks are prepared once.

    A null that some summary does not keep whole streams: every pass over it
    (the first and any later one) computes the tiles on one worker thread,
    up to AHEAD tiles ahead of the summaries, which take them in order on
    the calling thread (see ``read_ahead``). The kernel and the summaries
    then run at once, and no bit of any result changes. A null kept whole
    takes its passes on the calling thread alone.
    """
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    splits = np.empty((plan.n_permutations + 1, pool.size), dtype=np.intp)
    splits[0] = np.arange(pool.size)
    for b in range(plan.n_permutations):
        splits[b + 1] = permutation_indices(plan, b, pool.size)
    if into is None:
        return welch_abs_t(values, pool, n_a, splits[1:]).ravel()
    summaries = into if isinstance(into, list) else [into]
    observed = np.empty(values.shape[0])

    together = all(summary.keeps_all for summary in summaries)

    def null():  # a tile source of the null alone; a streamed one is read ahead
        tiles = welch_tiles(values, pool, n_a, splits[1:], 1 if together else AHEAD + 1)
        pairs = ((rows, tile) for rows, _, tile in tiles)
        return pairs if together else read_ahead(pairs, AHEAD)

    def with_identity():  # split 0 of each row block's first tile is the identity
        for rows, start, tile in welch_tiles(values, pool, n_a, splits):
            if start == 0:
                observed[rows], tile = tile[0], tile[1:]
            if tile.size:
                yield rows, tile

    if not together:
        observed[:] = welch_abs_t(values, pool, n_a, splits[:1])[0]
        for summary in summaries:
            summary.observe(observed)
    summarize(summaries, with_identity if together else null)
    for summary in summaries:
        summary.tiles = null  # any later pass
        if together:
            summary.observe(observed)
    return into


def read_ahead(items, ahead: int):
    """The items of the iterator ``items``, made on one worker thread while
    the caller works on earlier ones.

    The items come out in order, and the worker makes at most ``ahead``
    items past the one the caller holds. An error in the worker is raised
    here, in the caller; a caller that stops early, by an error or
    otherwise, stops the worker once the items asked of it are made. The
    worker has ended when the iteration does.
    """
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    end = object()
    with ThreadPoolExecutor(1, thread_name_prefix="dfdr-read-ahead") as worker:
        asked = deque(worker.submit(next, items, end) for _ in range(ahead))
        while (item := asked.popleft().result()) is not end:
            asked.append(worker.submit(next, items, end))
            yield item


def build_statistic_set(
    matrix: DataMatrix,
    group_a: str,
    group_b: str,
    plan: PermutationPlan,
    weights=None,
) -> StatisticSet:
    """Observed statistics and their null, summarized as it is computed.

    With per-test ``weights`` the summary holds the null's weight sums.
    """
    summary = NullSummary(matrix.n_features, plan.n_permutations, weights)
    permutation_null(matrix, group_a, group_b, plan, into=summary)
    return StatisticSet(summary.observed, None, plan.n_permutations, summary=summary)


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
