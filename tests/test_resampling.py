import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from dfdr import (
    DataMatrix,
    PermutationPlan,
    ValidationError,
    build_statistic_set,
    permutation_null,
    two_sample_abs_t,
)
from dfdr import resampling
from dfdr.resampling import permutation_indices, permutation_rows
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
    # a spawn key is one 32-bit word in the bulk streams
    with pytest.raises(ValidationError):
        PermutationPlan(n_permutations=2**32, seed=5)
    assert PermutationPlan(n_permutations=2**32 - 1, seed=5).n_permutations == 2**32 - 1


# one to seven 32-bit entropy words
SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**200]), st.integers(0, 2**200))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=SEEDS, b=st.integers(1, 300), n=st.integers(4, 150))
def test_bulk_rows_are_the_one_stream_permutations(seed, b, n):
    plan = PermutationPlan(b, seed)
    rows = np.empty((b, n), dtype=np.intp)
    permutation_rows(plan, rows)
    expected = np.stack([permutation_indices(plan, k, n) for k in range(b)])
    np.testing.assert_array_equal(rows, expected)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=SEEDS)
def test_state_words_of_the_last_spawn_key(seed):
    key = 2**32 - 1
    words = resampling._spawn_states(seed, np.array([0, key], dtype=np.uint32))
    for row, k in zip(words, (0, key)):
        expected = np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, expected)


def test_pvalue_route_never_loads_numpy_random(tmp_path):
    (tmp_path / "p.txt").write_text("0.01\n0.5\n0.003\n0.9\n")
    code = (
        "import sys, dfdr.cli\n"
        "assert dfdr.cli.main(sys.argv[1:]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = run_python(code, "analyze", "--pvalues", str(tmp_path / "p.txt"), "--out", str(tmp_path / "out"))
    assert out.splitlines()[-1] == "False"


def test_simulate_forks_with_numpy_random_loaded(tmp_path):
    # loaded once in the caller, not again in every worker
    code = (
        "import os, sys\n"
        "import dfdr.cli\n"
        "loaded, fork = [], os.fork\n"
        "def recording_fork():\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "    return fork()\n"
        "os.fork = recording_fork\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "assert dfdr.cli.main(sys.argv[1:]) == 0\n"
        "print(loaded)\n"
    )
    argv = ["simulate", "--m", "100", "--replicates", "3", "--permutations", "4", "--out", str(tmp_path)]
    assert run_python(code, *argv).splitlines()[-1] == "[True, True]"


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
