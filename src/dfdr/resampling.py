"""Permutation null distributions.

Whole subject columns are relabeled, never individual cells, so correlations
between features are preserved in the null. Group sizes are kept fixed and
the relabeling is drawn uniformly at random with replacement from the
permutation group; the identity permutation is not excluded.

Permutation ``b`` is drawn from the PCG64 stream of
``SeedSequence(entropy=seed, spawn_key=(b,))``, and its statistics, from
``stats.welch_abs_t``, are bitwise the same however many permutations are
drawn and however they are batched or evaluated (README "Determinism").
``permutation_indices`` draws one such permutation; a pass draws all of its
own at once (``permutation_rows``): SeedSequence's hash, restated in numpy,
derives every stream's PCG64 state words together, and numpy's Generator
shuffles each row, so the rows are the same bits as ``permutation_indices``.
A spawn key is then one 32-bit word, so a plan draws fewer than 2**32
permutations.
Null statistics are ordered by permutation index, then feature index, and
are computed tile by tile into a ``StatisticSet``, never whole.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from dfdr.data import DataMatrix
from dfdr.errors import ValidationError
from dfdr.estimators import StatisticSet
from dfdr.stats import welch_abs_t, welch_tiles

# Tiles a streamed null's worker makes past the one the set holds: two
# even out the tiles that take one stage longer than the other.
AHEAD = 2

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class PermutationPlan:
    """How many label permutations to draw and from which seed."""

    n_permutations: int
    seed: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_permutations < 2**32:
            raise ValidationError("n_permutations must lie in [1, 2**32)")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


def permutation_indices(plan: PermutationPlan, index: int, size: int) -> np.ndarray:
    """The permutation of ``range(size)`` used at permutation ``index``."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=plan.seed, spawn_key=(index,))
    )
    return rng.permutation(size)


def permutation_rows(plan: PermutationPlan, out: np.ndarray) -> None:
    """Fill row ``b`` of ``out`` with ``permutation_indices(plan, b, out.shape[1])``, bit for bit."""
    out[:] = np.arange(out.shape[1])
    generator = _generator()
    for row, state in zip(out, _spawn_states(plan.seed, np.arange(len(out), dtype=np.uint32))):
        generator(state).shuffle(row)


def _spawn_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """Row i: ``SeedSequence(seed, spawn_key=(keys[i],)).generate_state(4, np.uint64)``.

    ``keys`` is a uint32 array. The entropy words are the seed's, padded to
    four, then the key's, so the pool mixed from the seed's words is the pool
    of ``SeedSequence(seed)``, the same for every key. The key's word then
    goes into each pool word by one hashmix and mix step, and the pool gives
    the state's eight uint32 words.
    """
    past = 4 * max(4, -(-seed.bit_length() // 32))  # hashmix calls on the seed's words
    a = _constants(_INIT_A * pow(_MULT_A, past, 2**32), _MULT_A, 5)
    b = _constants(_INIT_B, _MULT_B, 9)
    hashed = (keys ^ a[:4]) * a[1:]
    hashed ^= hashed >> 16  # hashmix(key), at each pool word's hash constant
    pool = (_MIX_L * np.random.SeedSequence(seed).pool)[:, None] - _MIX_R * hashed
    pool ^= pool >> 16  # mix(pool word, hashmix(key))
    words = (np.tile(pool, (2, 1)) ^ b[:8]) * b[1:]
    words ^= words >> 16
    words = words.astype(np.uint64)
    # little-endian pairs, and rows contiguous: PCG64 reads a row's words by pointer
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


def _constants(start: int, mult: int, count: int) -> np.ndarray:
    """A column of ``count`` successive hash constants from ``start``, as uint32."""
    return np.array([start * pow(mult, i, 2**32) & _MASK for i in range(count)], dtype=np.uint32)[:, None]


@functools.cache
def _generator():
    """The function from a row of ``_spawn_states`` to the PCG64 Generator
    that its SeedSequence seeds; numpy.random is imported on the first call,
    so a run that draws no permutation never loads it."""
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64 words
            return self.words

    return lambda words: np.random.Generator(np.random.PCG64(State(words)))


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_null_fits(shape: tuple[int, int], n_permutations: int, at_once: int = 1) -> None:
    """Refuse, before allocating, permutations that cannot fit in physical memory.

    ``shape`` is the data matrix's (tests, subjects). The null is never held
    (README, "Memory:"): what grows with the number of permutations is the
    permutations, n_permutations * subjects 8-byte indices, counted here with
    the matrix, ``at_once`` times where that many comparisons run at once.
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

    Returns the null whole. With ``into``, a StatisticSet of every row of
    the matrix, feeds it one pass (``null_passes``) and returns it.
    """
    if into is not None:
        return null_passes(matrix, group_a, group_b, plan)(into, np.arange(matrix.n_features))
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    return welch_abs_t(values, pool, n_a, _splits(plan, pool.size)[1:]).ravel()


def null_passes(matrix: DataMatrix, group_a: str, group_b: str, plan: PermutationPlan):
    """The comparison's permutations, drawn once, as a function ``feed(stats,
    rows)`` that gives the StatisticSet ``stats`` one pass of the null of the
    matrix rows ``rows`` (its tests, in order), keeping the means to repeat
    it, and returns the set. The set observes the identity split first; a
    null that it keeps whole takes the identity split in its own pass
    instead, and runs on the calling thread alone. Every pass over any other
    null is read ahead on one worker thread (``read_ahead``; README "How the
    scan works")."""
    values, pool, n_a = _comparison(matrix, group_a, group_b)
    splits = _splits(plan, pool.size)

    def feed(stats: StatisticSet, rows) -> StatisticSet:
        whole, observed = stats.keeps_all, np.empty(len(rows))

        def null():  # a tile source of the null alone; a streamed one is read ahead
            tiles = welch_tiles(values, pool, n_a, splits[1:], rows, 1 if whole else AHEAD + 1)
            pairs = ((block, tile) for block, _, tile in tiles)
            return pairs if whole else read_ahead(pairs, AHEAD)

        def with_identity():  # split 0 of each row block's first tile is the identity
            for block, start, tile in welch_tiles(values, pool, n_a, splits, rows):
                if start == 0:
                    observed[block], tile = tile[0], tile[1:]
                if tile.size:
                    yield block, tile

        if whole:
            stats.feed(with_identity).observe(observed)
        else:
            stats.observe(welch_abs_t(values, pool, n_a, splits[:1], rows)[0]).feed(null)
        stats.tiles = null  # any later pass
        return stats

    return feed


def _splits(plan: PermutationPlan, size: int) -> np.ndarray:
    """The identity split of ``size`` pool positions, then the plan's permutations."""
    splits = np.empty((plan.n_permutations + 1, size), dtype=np.intp)
    splits[0] = np.arange(size)
    permutation_rows(plan, splits[1:])
    return splits


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
    """Observed statistics and their null, fed to the set as it is computed.

    With per-test ``weights`` the set counts the null per class of weights.
    """
    stats = StatisticSet(matrix.n_features, plan.n_permutations, weights)
    return permutation_null(matrix, group_a, group_b, plan, into=stats)


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
