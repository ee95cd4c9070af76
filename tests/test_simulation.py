import dataclasses
import math

import numpy as np
import pytest

from dfdr import (
    CostBenefit,
    DesirabilityRule,
    SimulationConfig,
    ValidationError,
    analytic_dfdr,
    analytic_statistic_cdfs,
    boundary_offset,
    build_replicate_stats,
    generate_instance,
    maximize_desirability,
    measure_error_rates,
    measure_local_dfdr,
    resolve_pi0,
)
from conftest import FixedThresholdRule


def small_config(**overrides):
    base = dict(
        n_tests=300,
        pi0=0.8,
        n_a=6,
        n_b=6,
        effect=2.0,
        n_permutations=8,
        replicates=10,
        seed=42,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestGenerateInstance:
    def test_all_null_when_pi0_is_one(self):
        matrix, h = generate_instance(small_config(pi0=1.0), 0)
        assert np.all(h == 0)
        assert matrix.n_features == 300

    def test_all_alternative_when_pi0_is_zero(self):
        config = small_config(pi0=0.0, replicates=1)
        matrix, h = generate_instance(config, 0)
        assert np.all(h == 1)
        # realized false fraction of any nonempty rejection is 0
        report = measure_error_rates(config, FixedThresholdRule(tau=0.0))
        assert report.total_rejections == 300
        assert report.total_false_rejections == 0
        assert report.dfdr == 0.0

    def test_fixed_mode_exact_null_count(self):
        config = small_config(n_tests=10, pi0=0.8)
        _, h = generate_instance(config, 3)
        assert int(np.sum(h == 0)) == 8

    def test_fixed_mode_exact_count_no_float_trap(self):
        config = small_config(n_tests=10, pi0=0.6)
        _, h = generate_instance(config, 0)
        assert int(np.sum(h == 0)) == 6

    def test_deterministic_per_seed_and_replicate(self):
        config = small_config()
        m1, h1 = generate_instance(config, 5)
        m2, h2 = generate_instance(config, 5)
        np.testing.assert_array_equal(m1.values, m2.values)
        np.testing.assert_array_equal(h1, h2)
        m3, _ = generate_instance(config, 6)
        assert not np.array_equal(m1.values, m3.values)

    def test_alternative_shift_applied_to_second_group(self):
        config = small_config(n_tests=2000, pi0=0.5, effect=3.0)
        matrix, h = generate_instance(config, 0)
        alt = matrix.values[h == 1]
        assert alt[:, 6:].mean() == pytest.approx(3.0, abs=0.15)
        assert alt[:, :6].mean() == pytest.approx(0.0, abs=0.15)

    def test_block_dependence_leaves_marginals_centered(self):
        config = small_config(n_tests=4000, pi0=1.0, block_size=20, block_rho=0.5)
        matrix, _ = generate_instance(config, 0)
        assert matrix.values.std() == pytest.approx(1.0, abs=0.05)
        # within-block correlation is positive
        a = matrix.values[0]
        b = matrix.values[1]
        assert np.corrcoef(a, b)[0, 1] > 0.2

    def test_random_mode_draws_bernoulli_truths(self):
        config = small_config(n_tests=5000, pi0=0.7, truth_mode="random")
        _, h = generate_instance(config, 0)
        frac_null = float(np.mean(h == 0))
        se = math.sqrt(0.7 * 0.3 / 5000)
        assert abs(frac_null - 0.7) <= 4.0 * se

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            small_config(replicates=0)
        with pytest.raises(ValidationError):
            small_config(pi0=1.5)
        with pytest.raises(ValidationError):
            small_config(truth_mode="other")


class TestMeasureErrorRates:
    def test_never_rejecting_rule_gives_zero_rates(self):
        config = small_config(replicates=4)
        report = measure_error_rates(config, FixedThresholdRule(tau=math.inf))
        assert report.fdr == 0.0
        assert report.pfdr is None
        assert report.pfp is None
        assert report.dfdr == 0.0
        assert report.conditional_prob is None
        assert report.replicates_with_rejections == 0

    def test_reject_everything_on_pure_null_gives_dfdr_one(self):
        config = small_config(pi0=1.0, replicates=3)
        report = measure_error_rates(config, FixedThresholdRule(tau=0.0))
        assert report.dfdr == 1.0
        assert report.pfdr == 1.0
        assert report.fdr == 1.0

    def test_v_bounded_by_r_and_null_count(self):
        config = small_config(replicates=6)
        report = measure_error_rates(config, DesirabilityRule(9.0, "estimate"))
        n_null = 240  # 0.8 * 300
        for outcome in report.outcomes:
            assert outcome.n_false <= outcome.n_rejected
            assert outcome.n_false <= n_null

    def test_pooled_identity_dfdr_equals_pfp(self):
        config = small_config(replicates=6)
        report = measure_error_rates(config, FixedThresholdRule(tau=2.0))
        assert report.total_rejections > 0
        assert report.dfdr == report.pfp == report.conditional_prob

    def test_outcomes_record_sorted_rejected_stats(self):
        config = small_config(replicates=2)
        report = measure_error_rates(config, FixedThresholdRule(tau=1.5))
        for outcome in report.outcomes:
            stats = outcome.rejected_stats
            assert np.all(np.diff(stats) >= 0)
            assert np.all(stats >= 1.5)
            assert outcome.rejected_is_null.shape == stats.shape

    def test_realized_ratio_matches_analytic_at_fixed_tau(self):
        # mixture mode: the pooled false fraction among rejections approaches
        # the closed-form ratio of tail probabilities
        config = small_config(
            n_tests=1000, replicates=60, truth_mode="random", n_permutations=1, seed=7
        )
        tau = 2.0
        report = measure_error_rates(config, FixedThresholdRule(tau=tau))
        expected = analytic_dfdr(config, tau)
        se = math.sqrt(expected * (1.0 - expected) / report.total_rejections)
        assert abs(report.conditional_prob - expected) <= 3.0 * se

    def test_estimator_is_conservative_at_fixed_tau(self):
        config = small_config(n_tests=500, replicates=40, n_permutations=10, seed=3)
        tau = 2.5
        report = measure_error_rates(
            config, FixedThresholdRule(tau=tau, pi0_mode="estimate")
        )
        estimates = np.array([o.dfdr_estimate for o in report.outcomes])
        truth = analytic_dfdr(config, tau)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert estimates.mean() >= truth - 2.0 * se

    def test_benefit_scaling_invariance_per_replicate(self):
        config = small_config(replicates=5)
        for r in range(config.replicates):
            stats, _ = build_replicate_stats(config, r)
            pi0 = resolve_pi0(stats, "estimate")
            base = maximize_desirability(stats, pi0, CostBenefit([1.0], [19.0]))
            scaled = maximize_desirability(stats, pi0, CostBenefit([2.0], [38.0]))
            assert base.rejected == scaled.rejected


@pytest.fixture(scope="module")
def report():
    config = small_config(n_tests=800, replicates=20, seed=11)
    return measure_error_rates(config, DesirabilityRule(19.0, "estimate"))


class TestLocalDfdr:
    def test_single_bin_equals_global_rate(self, report):
        bins = measure_local_dfdr(report.outcomes, [])
        assert len(bins) == 1
        assert bins[0].rejections == report.total_rejections
        assert bins[0].rate == pytest.approx(report.dfdr)

    def test_empty_bin_rate_is_zero(self, report):
        bins = measure_local_dfdr(report.outcomes, [1e9])
        assert bins[-1].rejections == 0
        assert bins[-1].rate == 0.0

    def test_bins_partition_the_rejections(self, report):
        bins = measure_local_dfdr(report.outcomes, [0.3, 0.8, 1.5])
        assert sum(b.rejections for b in bins) == report.total_rejections
        assert sum(b.false_rejections for b in bins) == report.total_false_rejections

    def test_boundary_offset_captures_requested_share(self, report):
        h = boundary_offset(report.outcomes, 0.05)
        assert h > 0
        boundary = measure_local_dfdr(report.outcomes, [h])[0]
        share = boundary.rejections / report.total_rejections
        assert 0.02 <= share <= 0.10

    def test_boundary_offset_without_rejections_is_its_own_error(self, report):
        # no outcomes, or outcomes that rejected nothing
        nothing = dataclasses.replace(
            report.outcomes[0], n_rejected=0, n_false=0,
            rejected_stats=np.zeros(0), rejected_is_null=np.zeros(0, dtype=bool),
        )
        for outcomes in ([], [nothing, nothing]):
            with pytest.raises(ValidationError, match="no rejections recorded"):
                boundary_offset(outcomes)

    def test_offsets_must_increase(self, report):
        with pytest.raises(ValidationError):
            measure_local_dfdr(report.outcomes, [2.0, 1.0])
        with pytest.raises(ValidationError):
            measure_local_dfdr(report.outcomes, [-1.0])


class TestAnalyticCdfs:
    def test_null_cdf_matches_folded_t(self):
        config = small_config(n_a=10, n_b=10)
        null_cdf, _, _ = analytic_statistic_cdfs(config)
        from scipy.stats import t

        tau = 2.0
        expected = t.cdf(tau, 18) - t.cdf(-tau, 18)
        assert float(null_cdf(tau)) == pytest.approx(expected, rel=1e-12)

    def test_marginal_mixes_with_realized_pi0(self):
        config = small_config(n_tests=10, pi0=0.8)
        null_cdf, alt_cdf, marginal_cdf = analytic_statistic_cdfs(config)
        tau = 1.7
        mixed = 0.8 * float(null_cdf(tau)) + 0.2 * float(alt_cdf(tau))
        assert float(marginal_cdf(tau)) == pytest.approx(mixed, rel=1e-12)

    def test_monte_carlo_agreement_with_null_cdf(self):
        # empirical check that the closed form matches the simulated statistic
        config = small_config(n_tests=4000, pi0=1.0, n_a=8, n_b=8, seed=5)
        stats, _ = build_replicate_stats(config, 0)
        null_cdf, _, _ = analytic_statistic_cdfs(config)
        for tau in (0.5, 1.0, 2.0, 3.0):
            empirical = float(np.mean(stats.observed <= tau))
            expected = float(null_cdf(tau))
            se = math.sqrt(expected * (1.0 - expected) / 4000)
            assert abs(empirical - expected) <= 4.0 * se

    def test_unequal_groups_rejected(self):
        config = small_config(n_a=6, n_b=8)
        with pytest.raises(ValidationError):
            analytic_statistic_cdfs(config)
