import math

import numpy as np
import pytest

from dfdr import (
    DataMatrix,
    PValueSet,
    StatisticSet,
    ValidationError,
    two_sample_abs_t,
    validate_pvalues,
)


def welch_abs_t_oracle(a, b):
    """Scalar Welch |t| computed with plain Python arithmetic."""
    na, nb = len(a), len(b)
    mean_a, mean_b = sum(a) / na, sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1)
    return abs(mean_a - mean_b) / math.sqrt(var_a / na + var_b / nb)


def make_matrix(rows, labels):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return DataMatrix(
        values=rows,
        feature_ids=tuple(f"g{i}" for i in range(rows.shape[0])),
        subject_ids=tuple(f"s{j}" for j in range(rows.shape[1])),
        labels=tuple(labels),
    )


class TestTwoSampleAbsT:
    def test_hand_computed_example(self):
        # |2 - 4| / sqrt(1/3 + 1/3) = sqrt(6)
        matrix = make_matrix([[1, 2, 3, 3, 4, 5]], ["A"] * 3 + ["B"] * 3)
        t = two_sample_abs_t(matrix, "A", "B")
        assert t[0] == pytest.approx(2.449490, abs=1e-6)
        assert t[0] == pytest.approx(welch_abs_t_oracle([1, 2, 3], [3, 4, 5]))

    def test_matches_oracle_on_random_rows(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 11))
        matrix = make_matrix(values, ["A"] * 5 + ["B"] * 6)
        t = two_sample_abs_t(matrix, "A", "B")
        for i in range(40):
            expected = welch_abs_t_oracle(values[i, :5].tolist(), values[i, 5:].tolist())
            assert t[i] == pytest.approx(expected, rel=1e-12)

    def test_identical_constant_rows_give_zero(self):
        matrix = make_matrix([[5, 5, 5, 5]], ["A", "A", "B", "B"])
        assert two_sample_abs_t(matrix, "A", "B")[0] == 0.0

    def test_zero_variance_nonzero_difference_is_inf(self):
        matrix = make_matrix([[1, 1, 2, 2]], ["A", "A", "B", "B"])
        assert np.isposinf(two_sample_abs_t(matrix, "A", "B")[0])

    def test_group_swap_invariance(self):
        rng = np.random.default_rng(4)
        matrix = make_matrix(rng.normal(size=(10, 9)), ["A"] * 4 + ["B"] * 5)
        ab = two_sample_abs_t(matrix, "A", "B")
        ba = two_sample_abs_t(matrix, "B", "A")
        np.testing.assert_array_equal(ab, ba)

    def test_scale_invariance_per_feature(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(12, 8))
        matrix = make_matrix(values, ["A"] * 4 + ["B"] * 4)
        scaled = make_matrix(values * rng.uniform(0.1, 40.0, size=(12, 1)), ["A"] * 4 + ["B"] * 4)
        np.testing.assert_allclose(
            two_sample_abs_t(matrix, "A", "B"),
            two_sample_abs_t(scaled, "A", "B"),
            rtol=1e-10,
        )

    def test_output_length_is_feature_count(self):
        rng = np.random.default_rng(6)
        matrix = make_matrix(rng.normal(size=(17, 6)), ["A"] * 3 + ["B"] * 3)
        assert two_sample_abs_t(matrix, "A", "B").shape == (17,)

    def test_missing_group_errors(self, tiny_matrix):
        with pytest.raises(ValidationError):
            two_sample_abs_t(tiny_matrix, "A", "Z")

    def test_single_member_group_errors(self):
        matrix = make_matrix([[1, 2, 3]], ["A", "B", "B"])
        with pytest.raises(ValidationError, match="two members"):
            two_sample_abs_t(matrix, "A", "B")


class TestStatisticSet:
    def test_size_contract(self):
        with pytest.raises(ValidationError):
            StatisticSet.from_null(observed=[1.0, 2.0], null=[1.0, 2.0, 3.0], n_permutations=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            StatisticSet.from_null(observed=[1.0, np.nan], null=[1.0, 2.0], n_permutations=1)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("where", ["observed", "null"])
    def test_rejects_nan_and_minus_inf(self, bad, where):
        arrays = {"observed": [1.0, 2.0, np.inf], "null": [0.5, np.inf, 0.2, 0.1, 3.0, 0.0]}
        arrays[where][1] = bad
        with pytest.raises(ValidationError, match=f"^{where} statistics must be finite or \\+inf$"):
            StatisticSet.from_null(observed=arrays["observed"], null=arrays["null"], n_permutations=2)

    @pytest.mark.parametrize("tests, permutations, message", [
        (3, 0, "n_permutations must be >= 1"),
        (0, 2, "need at least one observed statistic"),
    ])
    def test_needs_a_permutation_and_a_test(self, tests, permutations, message):
        with pytest.raises(ValidationError, match=message):
            StatisticSet(tests, permutations)

    def test_accepts_inf_sentinel(self):
        s = StatisticSet.from_null(observed=[np.inf, 1.0], null=[0.5, 0.2], n_permutations=1)
        assert s.n_tests == 2
        assert s.n_null == 2


class TestValidatePvalues:
    def test_accepts_in_range(self):
        assert validate_pvalues([0.01, 0.5, 1.0]).n_tests == 3

    def test_accepts_boundary_zeros(self):
        np.testing.assert_array_equal(validate_pvalues([0, 0, 0]).pvalues, [0.0, 0.0, 0.0])

    def test_rejects_negative_with_index(self):
        with pytest.raises(ValidationError, match="index 0"):
            validate_pvalues([-0.1])

    def test_rejects_above_one_with_index(self):
        with pytest.raises(ValidationError, match="index 2"):
            validate_pvalues([0.2, 0.3, 1.5])

    def test_the_set_checks_its_own_range(self):
        with pytest.raises(ValidationError, match="out of \\[0, 1\\] at index 1: nan"):
            PValueSet([0.2, np.nan])
