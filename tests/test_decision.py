import math
import tracemalloc

import numpy as np
import pytest

from dfdr import (
    CostBenefit,
    DataMatrix,
    PermutationPlan,
    Pi0Estimate,
    StatisticSet,
    Subset,
    SubsetPartition,
    ValidationError,
    build_statistic_set,
    common_threshold_weighted,
    control_dfdr,
    control_dfdr_pvalues,
    maximize_desirability,
    maximize_desirability_pvalues,
    per_subset_optimize,
    resolve_pi0,
    validate_pvalues,
    weighted_pi0_for,
)
from conftest import random_statistic_set


# ---------------------------------------------------------------------------
# independent brute-force oracle over all candidate thresholds
# ---------------------------------------------------------------------------

def brute_force_candidates(observed):
    cands = sorted(set(float(v) for v in observed))
    if cands[-1] != math.inf:
        cands.append(math.inf)
    return cands


def brute_force_curve(observed, nulls, pi0, benefit, ratio):
    m, big_m = len(observed), len(nulls)
    curve = []
    for tau in brute_force_candidates(observed):
        k_obs = sum(1 for v in observed if v >= tau)
        k_null = sum(1 for v in nulls if v >= tau)
        if k_obs == 0:
            dfdr = 0.0
        else:
            dfdr = pi0 * (k_null / big_m) / (k_obs / m)
        desir = benefit * (1.0 - (1.0 + ratio) * dfdr) * k_obs
        curve.append((tau, dfdr, desir, k_obs))
    return curve


def brute_force_maximize(observed, nulls, pi0, benefit, ratio):
    best = None
    for tau, dfdr, desir, k_obs in brute_force_curve(observed, nulls, pi0, benefit, ratio):
        if best is None or desir >= best[2]:
            best = (tau, dfdr, desir, k_obs)
    rejected = frozenset(i for i, v in enumerate(observed) if v >= best[0])
    return best[0], rejected, best[1], best[2]


def brute_force_control(observed, nulls, pi0, alpha):
    for tau, dfdr, _, _ in brute_force_curve(observed, nulls, pi0, 1.0, 0.0):
        if dfdr <= alpha:
            rejected = frozenset(i for i, v in enumerate(observed) if v >= tau)
            return tau, rejected, dfdr
    raise AssertionError("unreachable: the +inf candidate is always feasible")


class TestMaximizeDesirability:
    def test_worked_example(self, four_test_stats, pi0_one):
        result = maximize_desirability(four_test_stats, pi0_one, CostBenefit.from_ratio(19.0))
        assert result.tau == 1.0
        assert result.rejected == frozenset({0, 1, 2})
        assert result.dfdr == 0.0
        assert result.desirability == 3.0
        finite = np.isfinite(result.curve.tau)
        assert result.curve.desirability[finite].tolist() == [-16.0, 3.0, 2.0, 1.0]

    def test_huge_cost_rejects_nothing(self, pi0_one):
        rng = np.random.default_rng(21)
        stats = StatisticSet(
            observed=np.abs(rng.normal(size=30)),
            null_stats=np.abs(rng.normal(size=90)),
            n_permutations=3,
        )
        result = maximize_desirability(stats, pi0_one, CostBenefit.from_ratio(1e6))
        assert result.rejected == frozenset()
        assert result.desirability == 0.0
        assert result.tau == math.inf

    def test_curve_is_sorted_and_complete(self, four_test_stats, pi0_one):
        result = maximize_desirability(four_test_stats, pi0_one, CostBenefit.from_ratio(19.0))
        taus = result.curve.tau.tolist()
        assert taus == sorted(taus)
        assert set(taus) == {0.5, 1.0, 2.0, 3.0, math.inf}

    def test_rejected_matches_threshold_rule(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            stats = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
            result = maximize_desirability(stats, pi0, CostBenefit.from_ratio(9.0))
            expected = frozenset(int(i) for i in np.flatnonzero(stats.observed >= result.tau))
            assert result.rejected == expected

    def test_argmax_correctness_by_rescan(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            stats = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
            result = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
            assert np.all(result.desirability >= result.curve.desirability)

    def test_benefit_scaling_leaves_rejection_unchanged(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            stats = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
            base = maximize_desirability(
                stats, pi0, CostBenefit.per_test([1.0], [19.0])
            )
            scaled = maximize_desirability(
                stats, pi0, CostBenefit.per_test([10.0], [190.0])
            )
            assert base.rejected == scaled.rejected
            assert base.tau == scaled.tau

    def test_ties_break_toward_largest_tau(self, pi0_one):
        # candidates 1.0 and 2.0 tie at desirability 1:
        #   tau=1: dfdr (1/2)/(2/2) = 0.5, D = (1 - 0.5) * 2 = 1
        #   tau=2: dfdr 0,               D = (1 - 0) * 1 = 1
        stats = StatisticSet(
            observed=[2.0, 1.0], null_stats=[1.0, 0.5], n_permutations=1
        )
        result = maximize_desirability(stats, pi0_one, CostBenefit.from_ratio(0.0))
        assert result.tau == 2.0
        assert result.rejected == frozenset({0})

    def test_tie_with_empty_region_rejects_nothing(self, pi0_one):
        # every rejection region scores 0, as does rejecting nothing; the
        # conservative side of the tie wins
        stats = StatisticSet(observed=[1.0], null_stats=[2.0], n_permutations=1)
        result = maximize_desirability(stats, pi0_one, CostBenefit.from_ratio(0.0))
        assert result.tau == math.inf
        assert result.rejected == frozenset()
        assert result.desirability == 0.0


class TestControlDfdr:
    def test_worked_example(self, four_test_stats, pi0_one):
        result = control_dfdr(four_test_stats, pi0_one, 0.05)
        assert result.tau == 1.0
        assert result.rejected == frozenset({0, 1, 2})
        assert result.dfdr == 0.0

    def test_infeasible_bound_rejects_nothing(self, pi0_one):
        stats = StatisticSet(
            observed=[1.0, 0.9], null_stats=[1.5, 1.4], n_permutations=1
        )
        result = control_dfdr(stats, pi0_one, 0.01)
        assert result.rejected == frozenset()
        assert result.tau == math.inf

    def test_infeasible_sentinels_reject_only_themselves(self, pi0_one):
        # +inf in both observed and null statistics: even tau = +inf has
        # dfdr (1/4) / (1/2) = 0.5, so no candidate meets the bound
        stats = StatisticSet(
            observed=[0.0, np.inf], null_stats=[0.0, 0.0, 0.0, np.inf], n_permutations=2
        )
        result = control_dfdr(stats, pi0_one, 0.01)
        assert result.tau == math.inf
        assert result.rejected == frozenset({1})
        assert result.dfdr == 0.5

    def test_alpha_validation(self, four_test_stats, pi0_one):
        with pytest.raises(ValidationError):
            control_dfdr(four_test_stats, pi0_one, 0.0)
        with pytest.raises(ValidationError):
            control_dfdr(four_test_stats, pi0_one, 1.0)

    def test_discoveries_non_increasing_as_alpha_shrinks(self):
        rng = np.random.default_rng(25)
        stats = random_statistic_set(rng, max_m=40)
        pi0 = Pi0Estimate.fixed_one()
        alphas = [0.5, 0.2, 0.1, 0.05, 0.01]
        counts = [control_dfdr(stats, pi0, a).n_rejected for a in alphas]
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    def test_control_rejects_at_least_as_many_as_optimizer(self):
        # control at alpha = p enforces only the global bound; the optimizer
        # enforces it locally, so it can never reject more
        rng = np.random.default_rng(26)
        for _ in range(50):
            stats = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
            p = float(rng.choice([0.05, 0.1, 0.25]))
            optimizer = maximize_desirability(stats, pi0, CostBenefit.from_probability(p))
            control = control_dfdr(stats, pi0, p)
            assert control.n_rejected >= optimizer.n_rejected


class TestBruteForceAgreement:
    def test_maximize_matches_brute_force(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            stats = random_statistic_set(rng)
            pi0_value = float(rng.uniform(0.2, 1.0))
            ratio = float(rng.choice([1.0, 19.0, 99.0]))
            result = maximize_desirability(
                stats, Pi0Estimate.user(pi0_value), CostBenefit.from_ratio(ratio)
            )
            tau, rejected, dfdr, desir = brute_force_maximize(
                stats.observed.tolist(), stats.null_stats.tolist(), pi0_value, 1.0, ratio
            )
            assert result.tau == tau
            assert result.rejected == rejected
            assert result.dfdr == dfdr
            assert result.desirability == desir

    def test_control_matches_brute_force(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            stats = random_statistic_set(rng)
            pi0_value = float(rng.uniform(0.2, 1.0))
            alpha = float(rng.choice([0.01, 0.05, 0.2]))
            result = control_dfdr(stats, Pi0Estimate.user(pi0_value), alpha)
            tau, rejected, dfdr = brute_force_control(
                stats.observed.tolist(), stats.null_stats.tolist(), pi0_value, alpha
            )
            assert result.tau == tau
            assert result.rejected == rejected
            assert result.dfdr == dfdr


def two_group_matrix(rng, m, n_a=5, n_b=5, shift_rows=(), shift=2.0, extra_groups=None):
    n = n_a + n_b
    labels = ["A"] * n_a + ["B"] * n_b
    values = rng.normal(size=(m, n))
    for i in shift_rows:
        values[i, n_a:] += shift
    if extra_groups:
        for tag, count in extra_groups:
            extra = rng.normal(size=(m, count))
            values = np.hstack([values, extra])
            labels += [tag] * count
    return DataMatrix(
        values=values,
        feature_ids=tuple(f"g{i}" for i in range(m)),
        subject_ids=tuple(f"s{j}" for j in range(len(labels))),
        labels=tuple(labels),
    )


class TestPerSubsetOptimize:
    def test_single_subset_equals_global(self):
        rng = np.random.default_rng(29)
        matrix = two_group_matrix(rng, m=60, shift_rows=range(10))
        plan = PermutationPlan(n_permutations=5, seed=11)
        partition = SubsetPartition(
            subsets=(Subset("all", tuple(range(60)), "A", "B", 1.0, 19.0),),
            min_size=10,
        )
        decisions = per_subset_optimize(partition, matrix, plan)
        stats = build_statistic_set(matrix, "A", "B", plan)
        pi0 = resolve_pi0(stats, "estimate")
        direct = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
        assert decisions[0].result.tau == direct.tau
        assert decisions[0].result.rejected == direct.rejected
        assert decisions[0].result.desirability == direct.desirability

    def test_single_subset_reproduces_whole_problem_bitwise(self):
        rng = np.random.default_rng(33)
        matrix = two_group_matrix(rng, m=60, shift_rows=range(10))
        plan = PermutationPlan(n_permutations=7, seed=2)
        partition = SubsetPartition(
            subsets=(Subset("all", tuple(range(60)), "A", "B", 1.0, 19.0),),
            min_size=10,
        )
        (decision,) = per_subset_optimize(partition, matrix, plan)
        stats = build_statistic_set(matrix, "A", "B", plan)
        pi0 = resolve_pi0(stats, "estimate")
        direct = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
        result = decision.result
        np.testing.assert_array_equal(decision.observed, stats.observed)
        assert result.pi0 == pi0
        assert (result.tau, result.dfdr, result.desirability) == (
            direct.tau, direct.dfdr, direct.desirability
        )
        assert result.rejected == direct.rejected
        for name in ("tau", "dfdr", "desirability", "discoveries"):
            np.testing.assert_array_equal(getattr(result.curve, name), getattr(direct.curve, name))

    def test_subset_slices_equal_builds_on_subset_rows(self):
        # one null per comparison, sliced: each subset must get exactly what a
        # build on its own rows gives, for either group order
        rng = np.random.default_rng(34)
        matrix = two_group_matrix(rng, m=40, shift_rows=range(0, 40, 3))
        plan = PermutationPlan(n_permutations=6, seed=8)
        odd = tuple(range(39, 0, -2))
        partition = SubsetPartition(
            subsets=(
                Subset("odd", odd, "A", "B", 1.0, 9.0),
                Subset("even", tuple(range(0, 40, 2)), "A", "B", 2.0, 9.0),
                Subset("swapped", odd, "B", "A", 1.0, 4.0),
            ),
            min_size=10,
        )
        for d in per_subset_optimize(partition, matrix, plan):
            sub = matrix.select_features(d.subset.feature_indices)
            stats = build_statistic_set(sub, d.subset.group_a, d.subset.group_b, plan)
            np.testing.assert_array_equal(d.observed, stats.observed)
            cb = CostBenefit.per_test([d.subset.benefit], [d.subset.cost])
            direct = maximize_desirability(stats, resolve_pi0(stats, "estimate"), cb)
            assert (d.result.tau, d.result.dfdr) == (direct.tau, direct.dfdr)
            assert d.result.rejected == direct.rejected

    def test_identical_subsets_get_identical_thresholds(self):
        rng = np.random.default_rng(30)
        block = rng.normal(size=(30, 10))
        values = np.vstack([block, block])  # two copies of the same rows
        matrix = DataMatrix(
            values=values,
            feature_ids=tuple(f"g{i}" for i in range(60)),
            subject_ids=tuple(f"s{j}" for j in range(10)),
            labels=("A",) * 5 + ("B",) * 5,
        )
        plan = PermutationPlan(n_permutations=4, seed=3)
        partition = SubsetPartition(
            subsets=(
                Subset("first", tuple(range(30)), "A", "B", 1.0, 9.0),
                Subset("second", tuple(range(30, 60)), "A", "B", 1.0, 9.0),
            ),
            min_size=10,
        )
        first, second = per_subset_optimize(partition, matrix, plan)
        assert first.result.tau == second.result.tau
        assert first.result.n_rejected == second.result.n_rejected

    def test_undersized_subset_named(self):
        rng = np.random.default_rng(31)
        matrix = two_group_matrix(rng, m=40)
        partition = SubsetPartition(
            subsets=(
                Subset("big", tuple(range(35)), "A", "B", 1.0, 19.0),
                Subset("tiny", tuple(range(35, 40)), "A", "B", 1.0, 19.0),
            ),
            min_size=10,
        )
        with pytest.raises(ValidationError, match="'tiny'"):
            per_subset_optimize(partition, matrix, PermutationPlan(2, 0))

    def test_overlap_within_comparison_rejected(self):
        with pytest.raises(ValidationError, match="overlaps"):
            SubsetPartition(
                subsets=(
                    Subset("x", (0, 1, 2), "A", "B", 1.0, 1.0),
                    Subset("y", (2, 3), "A", "B", 1.0, 1.0),
                )
            )

    def test_same_features_different_comparisons_allowed(self):
        partition = SubsetPartition(
            subsets=(
                Subset("x", (0, 1, 2), "A", "B", 1.0, 1.0),
                Subset("y", (0, 1, 2), "A", "C", 2.0, 1.0),
            ),
            min_size=3,
        )
        assert len(partition.subsets) == 2


class TestCommonThresholdWeighted:
    def test_uniform_weights_match_plain_maximize(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            stats = random_statistic_set(rng, max_m=30)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.3, 1.0)))
            m = stats.n_tests
            weighted = common_threshold_weighted(
                stats, np.full(m, 20.0), np.full(m, 1.0), pi0
            )
            plain = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
            assert weighted.tau == plain.tau
            assert weighted.rejected == plain.rejected
            assert weighted.dfdr == pytest.approx(plain.dfdr, rel=1e-12, abs=1e-15)

    def test_mass_on_one_subset_equals_solo_optimum(self, pi0_one):
        rng = np.random.default_rng(33)
        m_sub, m_other = 12, 8
        obs = np.abs(rng.normal(size=m_sub + m_other))
        nulls = np.abs(rng.normal(size=(m_sub + m_other) * 2))
        pooled = StatisticSet(observed=obs, null_stats=nulls, n_permutations=2)

        weights = np.zeros(m_sub + m_other)
        benefits = np.zeros(m_sub + m_other)
        weights[:m_sub] = 20.0
        benefits[:m_sub] = 1.0
        weighted = common_threshold_weighted(pooled, weights, benefits, pi0_one)

        # solo problem: only the first subset's tests and their own nulls
        solo_nulls = np.concatenate(
            [nulls[b * (m_sub + m_other) : b * (m_sub + m_other) + m_sub] for b in range(2)]
        )
        solo = StatisticSet(observed=obs[:m_sub], null_stats=solo_nulls, n_permutations=2)
        direct = maximize_desirability(solo, pi0_one, CostBenefit.from_ratio(19.0))
        assert weighted.tau == direct.tau

    def test_split_optima_beat_common_threshold(self, pi0_one):
        # with equal null distributions, the sum of per-subset optima is at
        # least the best common-threshold desirability
        rng = np.random.default_rng(34)
        for _ in range(10):
            m_half = 15
            obs = np.abs(rng.normal(size=2 * m_half))
            nulls = np.tile(np.abs(rng.normal(size=2 * m_half)), 1)
            pooled = StatisticSet(observed=obs, null_stats=nulls, n_permutations=1)
            weights = np.concatenate([np.full(m_half, 2.0), np.full(m_half, 6.0)])
            benefits = np.concatenate([np.full(m_half, 1.0), np.full(m_half, 3.0)])
            common = common_threshold_weighted(pooled, weights, benefits, pi0_one)

            total = 0.0
            for lo, hi, b, c in ((0, m_half, 1.0, 1.0), (m_half, 2 * m_half, 3.0, 3.0)):
                sub = StatisticSet(
                    observed=obs[lo:hi], null_stats=nulls[lo:hi], n_permutations=1
                )
                r = maximize_desirability(sub, pi0_one, CostBenefit.per_test([b], [c]))
                total += r.desirability
            assert total >= common.desirability - 1e-9

    def test_weight_validation(self, four_test_stats, pi0_one):
        with pytest.raises(ValidationError):
            common_threshold_weighted(four_test_stats, [0, 0, 0, 0], [0, 0, 0, 0], pi0_one)
        with pytest.raises(ValidationError):
            common_threshold_weighted(four_test_stats, [1, 1, 1, -1], [0, 0, 0, 0], pi0_one)
        with pytest.raises(ValidationError, match="exceed"):
            common_threshold_weighted(four_test_stats, [1, 1, 1, 1], [2, 0, 0, 0], pi0_one)

    def test_weighted_pi0_helper(self):
        rng = np.random.default_rng(35)
        stats = random_statistic_set(rng, max_m=30, max_b=3)
        pi0 = weighted_pi0_for(stats, np.full(stats.n_tests, 3.0))
        plain = resolve_pi0(stats, "estimate")
        assert pi0.value == pytest.approx(plain.value, abs=1e-12)

    def test_weighted_route_holds_no_copy_of_the_null(self):
        # the block engine's temporaries scale with a block, not with the null:
        # a whole-null argsort (8 bytes per value) alone would break the bound
        rng = np.random.default_rng(36)
        m, b = 4000, 1000
        stats = StatisticSet(
            observed=np.abs(rng.normal(size=m)),
            null_stats=np.abs(rng.normal(size=m * b)),
            n_permutations=b,
        )
        weights = rng.integers(2, 21, size=m).astype(float)
        tracemalloc.start()
        try:
            pi0 = weighted_pi0_for(stats, weights)
            tracemalloc.reset_peak()
            common_threshold_weighted(stats, weights, np.ones(m), pi0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stats.null_stats.nbytes / 4
        assert "sorted_null" not in vars(stats)  # the null was never sorted


class TestPvalueDecisions:
    def test_maximize_over_pvalue_cutoffs(self, pi0_one):
        pvals = validate_pvalues([0.01, 0.04, 0.2, 0.9])
        result = maximize_desirability_pvalues(pvals, pi0_one, CostBenefit.from_ratio(19.0))
        # cutoffs: 0.01 -> dfdr 0.04, D = 0.2; all larger cutoffs negative
        assert result.tau == 0.01
        assert result.rejected == frozenset({0})
        assert result.dfdr == pytest.approx(0.04, abs=1e-15)
        assert result.desirability == pytest.approx(0.2, abs=1e-12)

    def test_maximize_can_reject_nothing(self, pi0_one):
        pvals = validate_pvalues([0.6, 0.9])
        result = maximize_desirability_pvalues(pvals, pi0_one, CostBenefit.from_ratio(19.0))
        assert result.rejected == frozenset()
        assert result.desirability == 0.0

    def test_control_over_pvalue_cutoffs(self, pi0_one):
        pvals = validate_pvalues([0.01, 0.04, 0.2, 0.9])
        result = control_dfdr_pvalues(pvals, pi0_one, 0.1)
        # dfdr at cutoffs: 0.01->0.04, 0.04->0.08, 0.2->0.267, 0.9->0.9
        assert result.tau == 0.04
        assert result.rejected == frozenset({0, 1})
        assert result.dfdr == pytest.approx(0.08, abs=1e-15)
