"""The Welch kernel: sentinels, exact-sum determinism and accuracy.

``welch_abs_t`` forms every group sum as an exact 0/1 matrix product, so a
statistic depends only on its row and on which values fall in each group.
The properties below check that bit for bit, on rows built to be hard:
large offsets, spreads of a few ulps, ties, groups that are constant on
their own, outliers. Accuracy is checked against exact rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfdr.stats
from dfdr import (
    DataMatrix,
    PermutationPlan,
    permutation_null,
    two_sample_abs_t,
)
from dfdr.stats import welch_abs_t

PROPERTY = settings(derandomize=True, deadline=None, max_examples=120)
KINDS = (
    "normal", "offset", "ulps", "ties", "halves", "aligned", "clusters", "narrow", "subnormal",
    "huge", "outlier", "constant",
)


def exact_moments(a, b):
    """Mean difference and squared standard error, as exact rationals."""
    a = [Fraction(float(x)) for x in a]
    b = [Fraction(float(x)) for x in b]
    mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
    var_a = sum((x - mean_a) ** 2 for x in a) / (len(a) - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (len(b) - 1)
    return mean_a - mean_b, var_a / len(a) + var_b / len(b)


def exact_abs_t(a, b) -> float:
    """|t| of two groups in exact rational arithmetic, rounded once at the end."""
    diff, se2 = exact_moments(a, b)
    if se2 == 0:
        return 0.0 if diff == 0 else math.inf
    return math.sqrt(diff**2 / se2)


def adversarial_row(kind: str, n: int, rng: np.random.Generator, cols_a) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "offset":
        return 1e8 + rng.normal(size=n)
    if kind == "ulps":
        return 1e8 + rng.integers(-3, 4, size=n) * np.spacing(1e8)
    if kind == "ties":
        return rng.choice([0.1, 0.3, 0.7], size=n)
    if kind == "halves":
        return rng.choice([-2.5, 0.0, 1.0], size=n)
    if kind == "aligned":
        # one value in the columns cols_a, another elsewhere: +inf at a split
        # with group A = cols_a
        row = np.full(n, 0.1)
        row[cols_a] = math.log(100)
        return row
    if kind == "clusters":
        # each group tight around its own level, far from the midrange
        row = 1e6 + rng.integers(-3, 4, size=n) * np.spacing(1e6)
        row[cols_a] = 1.0 + rng.integers(-3, 4, size=len(cols_a)) * 1e-9
        return row
    if kind == "narrow":
        # each group within 1e-4 of its own level: one-pass variances cancel
        row = 1.0 + rng.normal(size=n) * 1e-4
        row[cols_a] = rng.normal(size=len(cols_a)) * 1e-4
        return row
    if kind == "subnormal":
        return rng.integers(0, 8, size=n) * 5e-324
    if kind == "huge":
        return rng.normal(size=n) * 1e300
    if kind == "outlier":
        row = 1.0 + rng.normal(size=n) * 1e-9
        row[rng.integers(n)] = 1e6
        return row
    return np.full(n, rng.choice([0.1, math.log(100), -7.0]))


@st.composite
def comparisons(draw, max_rows=6):
    """(values, n_a, splits): rows of drawn kinds; splits[0] is the identity."""
    n_a = draw(st.integers(2, 7))
    n_b = draw(st.integers(2, 7))
    n = n_a + n_b
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 9))
    splits = np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(count)])
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=max_rows))
    values = np.stack([adversarial_row(k, n, rng, splits[-1][:n_a]) for k in kinds])
    return values, n_a, splits


def groups(values, n_a, split):
    return values[:, split[:n_a]], values[:, split[n_a:]]


def marked(splits, n_a):
    """Each split's group-A memberships, marked one split at a time."""
    members = np.zeros(np.shape(splits), dtype=bool)
    for s, split in enumerate(splits):
        members[s, split[:n_a]] = True
    return members


def matrix_of(values, n_a):
    m, n = values.shape
    return DataMatrix(
        values=values,
        feature_ids=tuple(f"g{i}" for i in range(m)),
        subject_ids=tuple(f"s{j}" for j in range(n)),
        labels=("A",) * n_a + ("B",) * (n - n_a),
    )


class TestSentinels:
    @pytest.mark.parametrize("value", [0.1, math.log(100)])
    def test_constant_row_is_zero_observed_and_null(self, value):
        # 47 vs 25 subjects: sums of 0.1 or log(100) round, and a one-pass
        # variance of the raw values left |t| of 6.91 and 8.31 here
        rng = np.random.default_rng(0)
        values = np.vstack([np.full(72, value), rng.normal(size=72)])
        matrix = matrix_of(values, 47)
        assert two_sample_abs_t(matrix, "A", "B")[0] == 0.0
        null = permutation_null(matrix, "A", "B", PermutationPlan(50, 3)).reshape(50, 2)
        assert np.all(null[:, 0] == 0.0)
        assert np.all(np.isfinite(null[:, 1])) and np.all(null[:, 1] > 0.0)

    def test_random_constant_rows_are_zero(self):
        rng = np.random.default_rng(1)
        levels = rng.normal(size=1000) * rng.choice([1e-3, 1.0, 1e5], size=1000)
        matrix = matrix_of(np.repeat(levels[:, None], 72, axis=1), 47)
        assert np.all(two_sample_abs_t(matrix, "A", "B") == 0.0)
        assert np.all(permutation_null(matrix, "A", "B", PermutationPlan(5, 0)) == 0.0)

    @pytest.mark.parametrize("low, high", [(0.1, 0.3), (math.log(7), math.log(100))])
    def test_two_constant_groups_give_inf_observed_and_null(self, low, high):
        matrix = matrix_of(np.array([[high] * 47 + [low] * 25]), 47)
        assert np.isposinf(two_sample_abs_t(matrix, "A", "B")[0])
        # a relabeling that keeps each group's values together
        within = np.concatenate([np.arange(47)[::-1], 47 + np.arange(25)[::-1]])
        null = welch_abs_t(matrix.values, np.arange(72), marked([within, np.arange(72)], 47))
        assert np.all(np.isposinf(null))

    @pytest.mark.parametrize("base", [0.1, 1e8])
    def test_positive_spread_is_never_a_sentinel(self, base):
        # one group constant, the other constant but for one value one ulp off
        row = np.array([base] * 47 + [3 * base] * 25)
        row[-1] = np.nextafter(row[-1], math.inf)
        matrix = matrix_of(row[None, :], 47)
        t = two_sample_abs_t(matrix, "A", "B")[0]
        assert math.isfinite(t) and t > 0.0
        assert t == pytest.approx(exact_abs_t(row[:47], row[47:]), rel=1e-9)


class TestExactSums:
    @PROPERTY
    @given(comparisons(), st.integers(1, 5), st.integers(1, 4))
    def test_independent_of_blocks_and_batch(self, case, rows, chunk):
        # blocks of rows and splits per product
        values, n_a, splits = case
        pool = np.arange(values.shape[1])
        members = marked(splits, n_a)
        reference = welch_abs_t(values, pool, members)
        # blocks of `rows` rows (ROW_VALUES 0) and tiles of `chunk` splits
        names = ("ROWS", "ROW_VALUES", "CHUNK", "TILE")
        saved = [getattr(dfdr.stats, name) for name in names]
        try:
            for name, value in zip(names, (rows, 0, chunk, rows * chunk)):
                setattr(dfdr.stats, name, value)
            for count in range(1, len(splits) + 1):
                again = welch_abs_t(values, pool, members[:count])
                np.testing.assert_array_equal(again, reference[:count])
            single = [welch_abs_t(values, pool, row[None, :])[0] for row in members]
            np.testing.assert_array_equal(np.stack(single), reference)
        finally:
            for name, value in zip(names, saved):
                setattr(dfdr.stats, name, value)

    @PROPERTY
    @given(comparisons(max_rows=3), st.integers(1, 12), st.integers(1, 12))
    def test_null_of_permutation_b_does_not_depend_on_b_total(self, case, b1, b2):
        values, n_a, _ = case
        matrix = matrix_of(values, n_a)
        m = values.shape[0]
        first = permutation_null(matrix, "A", "B", PermutationPlan(b1, 5)).reshape(b1, m)
        second = permutation_null(matrix, "A", "B", PermutationPlan(b2, 5)).reshape(b2, m)
        k = min(b1, b2)
        np.testing.assert_array_equal(first[:k], second[:k])

    @PROPERTY
    @given(comparisons())
    def test_swapping_groups_changes_no_bit(self, case):
        values, n_a, splits = case
        members, pool = marked(splits, n_a), np.arange(values.shape[1])
        np.testing.assert_array_equal(
            welch_abs_t(values, pool, members), welch_abs_t(values, pool, ~members)
        )
        matrix = matrix_of(values, n_a)
        np.testing.assert_array_equal(
            two_sample_abs_t(matrix, "A", "B"), two_sample_abs_t(matrix, "B", "A")
        )

    @PROPERTY
    @given(comparisons(), st.integers(0, 2**32 - 1))
    def test_order_within_groups_changes_no_bit(self, case, seed):
        # the same groups, their members in another order in the products
        values, n_a, splits = case
        members, pool = marked(splits, n_a), np.arange(values.shape[1])
        order = np.random.default_rng(seed).permutation(pool.size)
        np.testing.assert_array_equal(
            welch_abs_t(values, pool, members), welch_abs_t(values, pool[order], members[:, order])
        )

    @PROPERTY
    @given(comparisons())
    def test_relabeling_matches_column_shuffle(self, case):
        values, n_a, splits = case
        nulls = welch_abs_t(values, np.arange(values.shape[1]), marked(splits, n_a))
        for perm, null in zip(splits, nulls):
            shuffled = matrix_of(values[:, perm], n_a)
            np.testing.assert_array_equal(null, two_sample_abs_t(shuffled, "A", "B"))


class TestLayout:
    @PROPERTY
    @given(comparisons())
    def test_c_and_f_order_blocks_give_the_same_bits(self, case):
        values, n_a, splits = case
        n = values.shape[1]
        members = np.zeros(splits.shape)
        members[np.arange(splits.shape[0])[:, None], splits[:, :n_a]] = 1.0
        results = []
        for order in "CF":
            block = dfdr.stats._Rows(np.array(values, order=order), n_a)
            out = np.empty((splits.shape[0], values.shape[0]))
            block.abs_t(members, out)
            results.append((block.parts, block.totals, block.constant, out))
        for c, f in zip(*results):
            np.testing.assert_array_equal(c, f)
        assert results[0][0].shape == (4, n, values.shape[0])


def tiles_of(values, pool, members, rows, ranges):
    """The statistics ``welch_tiles`` gives over the memberships, each range
    of splits a pass of its own, as ``welch_abs_t`` lays them out."""
    out = np.full((members.shape[0], len(rows)), np.nan)
    for start, stop in ranges:
        for block, first, tile in dfdr.stats.welch_tiles(values, pool, members[start:stop], rows):
            out[start + first : start + first + tile.shape[0], block] = tile
    return out


class TestMemberships:
    """The null passes hold a draw only as group-A memberships: the
    statistics read from them are the splits' own, bit for bit."""

    @PROPERTY
    @given(comparisons(), st.integers(0, 2**32 - 1))
    def test_tiles_over_memberships_are_the_splits_bits(self, case, seed):
        values, n_a, splits = case
        rng = np.random.default_rng(seed)
        pool = rng.permutation(values.shape[1])
        rows = rng.permutation(values.shape[0])[: rng.integers(1, values.shape[0] + 1)]
        cut = int(rng.integers(1, len(splits)))  # two passes, as two shares of the null
        np.testing.assert_array_equal(
            tiles_of(values, pool, marked(splits, n_a), rows, [(0, cut), (cut, len(splits))]),
            welch_abs_t(values, pool, marked(splits, n_a), rows),
        )

    @pytest.mark.parametrize("n_a, n_b", [(3, 8), (8, 3), (2, 11)])
    def test_two_pass_in_each_group_of_unequal_sizes(self, n_a, n_b, monkeypatch):
        # rows near-constant within each group, at levels far apart: both
        # groups' one-pass spreads cancel and are redone with two passes
        rng = np.random.default_rng(n_a * n_b)
        n = n_a + n_b
        splits = np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(30)])
        values = np.stack([
            adversarial_row(kind, n, rng, splits[-1][:n_a]) for kind in ("narrow", "clusters") * 3
        ])
        sizes, two_pass = [], dfdr.stats._Rows._two_pass

        def spy(self, rows, in_group, mean):
            sizes.extend(np.count_nonzero(in_group, axis=1).tolist())
            return two_pass(self, rows, in_group, mean)

        monkeypatch.setattr(dfdr.stats._Rows, "_two_pass", spy)
        pool = np.arange(n)
        expected = welch_abs_t(values, pool, marked(splits, n_a))
        assert set(sizes) == {n_a, n_b}
        np.testing.assert_array_equal(
            tiles_of(values, pool, marked(splits, n_a), np.arange(values.shape[0]), [(0, len(splits))]),
            expected,
        )
        for s, split in enumerate(splits):
            a, b = groups(values, n_a, split)
            for i in range(values.shape[0]):
                assert expected[s, i] == pytest.approx(exact_abs_t(a[i], b[i]), rel=2.0**-40)


class TestAccuracy:
    @PROPERTY
    @given(comparisons())
    def test_within_bound_of_exact_oracle(self, case):
        # |t - t*| <= 2^-40 t* + 2^-50 R / se*, R the row's range: the mean
        # difference is good to a few ulps of the row's scale, the spread to
        # 2^-40 relative (or it is recomputed with two passes)
        values, n_a, splits = case
        t = welch_abs_t(values, np.arange(values.shape[1]), marked(splits, n_a))
        for s, split in enumerate(splits):
            a, b = groups(values, n_a, split)
            for i in range(values.shape[0]):
                expected = exact_abs_t(a[i], b[i])
                _, se2 = exact_moments(a[i], b[i])
                if se2 == 0:  # sentinels are exact
                    assert t[s, i] == expected
                    continue
                span = Fraction(float(values[i].max())) - Fraction(float(values[i].min()))
                bound = 2.0**-40 * expected + 2.0**-50 * math.sqrt(span**2 / se2)
                assert abs(t[s, i] - expected) <= bound

    def test_one_large_product_matches_blocked_products(self):
        # a product big enough for BLAS to split it across threads
        rng = np.random.default_rng(8)
        values = rng.normal(size=(3000, 40)) + 100.0
        members = marked([rng.permutation(40) for _ in range(64)], 25)
        blocked = welch_abs_t(values, np.arange(40), members)
        saved = dfdr.stats.ROWS, dfdr.stats.CHUNK
        try:
            dfdr.stats.ROWS, dfdr.stats.CHUNK = 4096, 64
            whole = welch_abs_t(values, np.arange(40), members)
        finally:
            dfdr.stats.ROWS, dfdr.stats.CHUNK = saved
        np.testing.assert_array_equal(whole, blocked)

    def test_matches_two_pass_formula_on_normal_rows(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(200, 30)) * 3.0 + 5.0
        perms = [rng.permutation(30) for _ in range(20)]
        t = welch_abs_t(values, np.arange(30), marked(perms, 12))
        for row, perm in zip(t, perms):
            a, b = values[:, perm[:12]], values[:, perm[12:]]
            se = np.sqrt(a.var(axis=1, ddof=1) / 12 + b.var(axis=1, ddof=1) / 18)
            expected = np.abs(a.mean(axis=1) - b.mean(axis=1)) / se
            np.testing.assert_allclose(row, expected, rtol=1e-9)
