import numpy as np
import pytest

from dfdr import (
    DataMatrix,
    PermutationPlan,
    ValidationError,
    build_statistic_set,
    permutation_null,
    two_sample_abs_t,
)
from dfdr.resampling import permutation_indices
from dfdr.stats import welch_abs_t


def random_matrix(rng, m=6, n_a=4, n_b=3):
    return DataMatrix(
        values=rng.normal(size=(m, n_a + n_b)),
        feature_ids=tuple(f"g{i}" for i in range(m)),
        subject_ids=tuple(f"s{j}" for j in range(n_a + n_b)),
        labels=("A",) * n_a + ("B",) * n_b,
    )


def test_identity_permutation_reproduces_observed():
    rng = np.random.default_rng(0)
    matrix = random_matrix(rng)
    observed = two_sample_abs_t(matrix, "A", "B")
    nulls = welch_abs_t(matrix.values, np.arange(7), 4, [np.arange(7)])
    np.testing.assert_array_equal(nulls[0], observed)


def test_null_count_is_m_times_b():
    rng = np.random.default_rng(1)
    matrix = random_matrix(rng, m=3)
    plan = PermutationPlan(n_permutations=2, seed=0)
    assert permutation_null(matrix, "A", "B", plan).shape == (6,)


@pytest.mark.parametrize("b", [1, 4])
def test_same_seed_is_bitwise_identical(b):
    rng = np.random.default_rng(2)
    matrix = random_matrix(rng, m=10)
    plan = PermutationPlan(n_permutations=b, seed=99)
    first = permutation_null(matrix, "A", "B", plan)
    second = permutation_null(matrix, "A", "B", plan)
    np.testing.assert_array_equal(first, second)


def test_distinct_seeds_give_distinct_first_permutations():
    p1 = permutation_indices(PermutationPlan(1, seed=1), 0, 63)
    p2 = permutation_indices(PermutationPlan(1, seed=2), 0, 63)
    assert not np.array_equal(p1, p2)


def test_permutation_indices_are_permutations():
    plan = PermutationPlan(n_permutations=5, seed=3)
    for b in range(5):
        perm = permutation_indices(plan, b, 20)
        np.testing.assert_array_equal(np.sort(perm), np.arange(20))


def test_relabeling_matches_explicit_column_shuffle():
    # permuting the group assignment must equal computing the statistic on a
    # column-shuffled copy of the matrix with the original labels
    rng = np.random.default_rng(4)
    matrix = random_matrix(rng, m=8, n_a=3, n_b=3)
    perm = np.array([4, 2, 0, 5, 1, 3])
    nulls = welch_abs_t(matrix.values, np.arange(6), 3, [perm])[0]
    shuffled = DataMatrix(
        values=matrix.values[:, perm],
        feature_ids=matrix.feature_ids,
        subject_ids=matrix.subject_ids,
        labels=matrix.labels,
    )
    np.testing.assert_array_equal(nulls, two_sample_abs_t(shuffled, "A", "B"))


def test_ordering_is_permutation_major():
    rng = np.random.default_rng(6)
    matrix = random_matrix(rng, m=4, n_a=3, n_b=3)
    plan = PermutationPlan(n_permutations=3, seed=7)
    nulls = permutation_null(matrix, "A", "B", plan)
    for b in range(3):
        perm = permutation_indices(plan, b, 6)
        block = welch_abs_t(matrix.values, np.arange(6), 3, [perm])[0]
        np.testing.assert_array_equal(nulls[b * 4 : (b + 1) * 4], block)


def test_build_statistic_set_bundles_observed_and_null():
    rng = np.random.default_rng(8)
    matrix = random_matrix(rng, m=5)
    plan = PermutationPlan(n_permutations=2, seed=0)
    stats = build_statistic_set(matrix, "A", "B", plan)
    np.testing.assert_array_equal(stats.observed, two_sample_abs_t(matrix, "A", "B"))
    assert stats.n_null == 10
    assert stats.n_permutations == 2


def test_plan_validation():
    with pytest.raises(ValidationError):
        PermutationPlan(n_permutations=0, seed=0)
    with pytest.raises(ValidationError):
        PermutationPlan(n_permutations=1, seed=-1)


def test_only_compared_groups_are_permuted():
    # a third group's columns must never enter the null of an A-vs-B comparison:
    # every null value must be reproducible from some split of the A/B pool
    from itertools import combinations

    rng = np.random.default_rng(9)
    values = rng.normal(size=(2, 8))
    matrix = DataMatrix(
        values=values,
        feature_ids=("g0", "g1"),
        subject_ids=tuple(f"s{j}" for j in range(8)),
        labels=("A", "A", "A", "B", "B", "B", "C", "C"),
    )
    plan = PermutationPlan(n_permutations=30, seed=1)
    nulls = permutation_null(matrix, "A", "B", plan)

    pool = np.arange(6)
    possible = set()
    for split in combinations(pool, 3):
        rest = [c for c in pool if c not in split]
        for row in welch_abs_t(values, pool, 3, [list(split) + rest])[0]:
            possible.add(round(float(row), 12))
    for v in nulls:
        assert round(float(v), 12) in possible
