import math
from fractions import Fraction

import numpy as np
import pytest

from dfdr import (
    CENTRAL_BAND_MASS,
    CostBenefit,
    DesirabilityRule,
    DfdrControlRule,
    Pi0Estimate,
    StatisticSet,
    UndefinedEstimateError,
    ValidationError,
    choose_lambda,
    common_threshold_weighted,
    control_dfdr,
    dfdr_from_cdfs,
    estimate_pi0,
    maximize_desirability,
    p_to_cost_ratio,
    resolve_pi0,
    validate_pvalues,
    weighted_dfdr_from_cdfs,
)
from dfdr import estimators
from conftest import FOUR_TEST_NULLS, dfdr_at, four_tests, null_summary, random_statistic_set


# ---------------------------------------------------------------------------
# independent oracles: plain-Python loops, no shared code with the library
# ---------------------------------------------------------------------------

def lambda_oracle(nulls):
    nulls = list(nulls)
    candidates = sorted(set(nulls)) + [math.inf]
    best, best_dist = None, None
    for lam in candidates:
        frac = sum(1 for v in nulls if v < lam) / len(nulls)
        dist = abs(frac - 0.382925)
        if best_dist is None or dist < best_dist:
            best, best_dist = lam, dist
    return best


def pi0_oracle(observed, nulls, lam):
    num = sum(1 for v in observed if v < lam) / len(observed)
    den = sum(1 for v in nulls if v < lam) / len(nulls)
    return min(1.0, max(0.0, num / den))


def dfdr_oracle(observed, nulls, pi0, tau):
    k_obs = sum(1 for v in observed if v >= tau)
    if k_obs == 0:
        return 0.0
    k_null = sum(1 for v in nulls if v >= tau)
    return pi0 * (k_null / len(nulls)) / (k_obs / len(observed))


def weighted_dfdr_oracle(observed, nulls, weights, pi0, tau):
    m = len(observed)
    denom = sum(w for v, w in zip(observed, weights) if v >= tau)
    if denom == 0.0:
        return 0.0
    num = sum(weights[j % m] for j, v in enumerate(nulls) if v >= tau)
    return pi0 * (num / len(nulls)) / (denom / m)


def curve_at(curve, tau) -> int:
    """Index of the candidate threshold tau in a decision curve."""
    i = int(np.searchsorted(curve.tau, tau))
    assert curve.tau[i] == tau
    return i


def scan(stats, pi0, ratio=19.0):
    """The candidate curve of the unweighted scan."""
    return maximize_desirability(stats, pi0, CostBenefit.from_ratio(ratio)).curve


def pi0_of(observed, nulls, weights=None):
    """estimate_pi0 on the summary of a stored null, at the summary's lambda."""
    stats = StatisticSet.from_null(observed, nulls, len(nulls) // len(observed), weights)
    return estimate_pi0(stats)


class TestChooseLambda:
    def test_ten_point_grid(self):
        nulls = np.arange(1, 11) / 10.0
        assert choose_lambda(null_summary(nulls)) == 0.5
        assert lambda_oracle(nulls) == 0.5

    def test_single_null_value(self):
        assert choose_lambda(null_summary([1.0])) == 1.0

    def test_target_constant_value(self):
        assert CENTRAL_BAND_MASS == 0.382925

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            nulls = np.round(np.abs(rng.normal(size=rng.integers(1, 40))), 1)
            assert choose_lambda(null_summary(nulls)) == lambda_oracle(nulls.tolist())

    def test_result_is_a_candidate_value(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            nulls = np.abs(rng.normal(size=rng.integers(1, 30)))
            lam = choose_lambda(null_summary(nulls))
            assert lam == math.inf or lam in set(nulls.tolist())

    def test_repeated_values_collapse_to_one_candidate(self):
        # all mass at one value: proportion below it is 0, below inf is 1;
        # 0 is nearer the target, so the value itself wins
        assert choose_lambda(null_summary([3.0, 3.0, 3.0])) == 3.0


class TestEstimatePi0:
    def test_counting_example(self):
        # lambda 0.4: 3 of 8 nulls below it, the share nearest 0.382925;
        # 1 of 4 observed below it, so pi0 = (1/4) / (3/8)
        obs, nulls = [0.1, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        est = pi0_of(obs, nulls)
        assert est.value == 2.0 / 3.0
        assert est.mode == "estimated"
        assert est.lam == 0.4 == lambda_oracle(nulls)
        assert est.value == pi0_oracle(obs, nulls, est.lam)

    def test_observed_equals_null_gives_one(self):
        values = [0.3, 0.7, 1.1, 2.0]
        assert pi0_of(values, values).value == 1.0

    def test_clamped_to_one(self):
        est = pi0_of([0.1, 0.1, 0.1, 0.1], [0.5, 0.5, 0.5, 0.1])
        assert est.lam == 0.5
        assert est.value == 1.0  # raw ratio 4 clamps

    def test_error_when_no_null_below_lambda(self):
        # equal nulls: lambda is their value, and none lies below it
        with pytest.raises(UndefinedEstimateError, match="conservative"):
            pi0_of([0.1, 0.2], [5.0, 5.0])

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            obs = np.abs(rng.normal(size=20))
            nulls = np.abs(rng.normal(size=60))
            est = pi0_of(obs, nulls)
            assert est.lam == lambda_oracle(nulls.tolist())
            assert est.value == pytest.approx(
                pi0_oracle(obs.tolist(), nulls.tolist(), est.lam), abs=1e-15
            )

    def test_modes(self):
        assert Pi0Estimate.fixed_one().mode == "fixed-one"
        assert Pi0Estimate.user(0.4).value == 0.4
        with pytest.raises(ValidationError):
            Pi0Estimate.user(1.5)


class TestDfdrAtTau(object):
    def test_counting_example(self, four_test_stats, pi0_one):
        assert dfdr_at(four_test_stats, pi0_one, 0.4) == (0.5, 4, 2)

    def test_zero_null_exceedances(self, four_test_stats, pi0_one):
        assert dfdr_at(four_test_stats, pi0_one, 1.0)[0] == 0.0
        curve = scan(four_test_stats, pi0_one)
        assert curve.dfdr[curve_at(curve, 1.0)] == 0.0

    def test_zero_branch_above_max_observed(self, four_test_stats, pi0_one):
        value, discoveries, _ = dfdr_at(four_test_stats, pi0_one, 10.0)
        assert value == 0.0
        assert discoveries == 0
        curve = scan(four_test_stats, pi0_one)  # the +inf candidate
        assert (curve.dfdr[-1], curve.discoveries[-1]) == (0.0, 0)

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            stats, nulls = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.1, 1.0)))
            tau = float(rng.choice(stats.observed))
            expected = dfdr_oracle(
                stats.observed.tolist(), nulls.tolist(), pi0.value, tau
            )
            curve = scan(stats, pi0)
            assert curve.dfdr[curve_at(curve, tau)] == expected

    def test_proportional_to_pi0(self, four_test_stats):
        a = dfdr_at(four_test_stats, Pi0Estimate.user(1.0), 0.4)[0]
        b = dfdr_at(four_test_stats, Pi0Estimate.user(0.25), 0.4)[0]
        assert b == pytest.approx(0.25 * a, rel=1e-15)

    def test_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            stats, _ = random_statistic_set(rng)
            pi0 = Pi0Estimate.user(float(rng.uniform(0.1, 1.0)))
            for tau in np.unique(stats.observed):
                value, discoveries, null_exceedances = dfdr_at(stats, pi0, float(tau))
                assert value >= 0.0
                if value == 0.0:
                    assert null_exceedances == 0 or discoveries == 0

    def test_discovery_count_non_increasing_in_tau(self):
        rng = np.random.default_rng(14)
        stats, _ = random_statistic_set(rng)
        counts = scan(stats, Pi0Estimate.fixed_one()).discoveries.tolist()
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_inf_sentinel_inside_every_region(self):
        stats = StatisticSet.from_null(
            observed=[np.inf, 1.0], null=[0.2, 0.1], n_permutations=1
        )
        assert dfdr_at(stats, Pi0Estimate.fixed_one(), 5.0)[1] == 1  # only the sentinel


class TestDfdrAtPvalue:
    def pvalue_scan(self, p):
        cb = CostBenefit.from_ratio(19.0)
        return maximize_desirability(validate_pvalues(p), Pi0Estimate.fixed_one(), cb).curve

    def test_counting_example(self):
        # the cutoff 0.04: uniform null share 0.04 over 2 of 4 discoveries
        curve = self.pvalue_scan([0.01, 0.04, 0.2, 0.9])
        i = curve_at(curve, 0.04)
        assert curve.dfdr[i] == pytest.approx(0.08, abs=1e-15)
        assert curve.discoveries[i] == 2

    def test_zero_cutoff_with_zero_pvalues(self):
        curve = self.pvalue_scan([0.0, 0.5])
        assert curve.dfdr[curve_at(curve, 0.0)] == 0.0

    def test_zero_branch_below_min_pvalue(self):
        curve = self.pvalue_scan([0.2, 0.9])  # the -inf cutoff rejects nothing
        assert (curve.tau[0], curve.dfdr[0], curve.discoveries[0]) == (-math.inf, 0.0, 0)


class TestDesirability:
    def test_direct_substitution(self, pi0_one):
        # dfdr 0 at tau=1 (no null exceedances), 3 discoveries, b=1, c=19
        stats = StatisticSet.from_null(
            observed=[3.0, 2.0, 1.0, 0.5], null=[0.5, 0.4, 0.3, 0.2], n_permutations=1
        )
        curve = scan(stats, pi0_one)
        assert curve.desirability[curve_at(curve, 1.0)] == 3.0

    def test_boundary_factor_zero(self):
        # dfdr exactly 0.05 at ratio 19 zeroes the factor regardless of count
        assert 1.0 * (1.0 - (1.0 + 19.0) * 0.05) == 0.0

    def test_reference_table_formula(self):
        # published reference row: 910 discoveries at dfdr 0.0125, b=1, c=19
        assert 1.0 * (1.0 - 20.0 * 0.0125) * 910 == pytest.approx(682.5)

    def test_zero_when_no_discoveries(self, four_test_stats, pi0_one):
        assert scan(four_test_stats, pi0_one).desirability[-1] == 0.0  # the +inf candidate

    def test_requires_positive_benefit(self, four_test_stats, pi0_one):
        cb = CostBenefit(benefits=np.array([0.0]), costs=np.array([1.0]))
        with pytest.raises(ValidationError):
            maximize_desirability(four_test_stats, pi0_one, cb)


class TestPToCostRatio:
    def test_five_percent_gives_nineteen(self):
        assert p_to_cost_ratio(0.05) == pytest.approx(19.0)

    def test_half_gives_one(self):
        assert p_to_cost_ratio(0.5) == 1.0

    def test_one_gives_zero(self):
        assert p_to_cost_ratio(1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            p_to_cost_ratio(0.0)
        with pytest.raises(ValidationError):
            p_to_cost_ratio(1.5)


class TestWeightedDfdr:
    def test_uniform_weights_match_unweighted(self, four_test_stats, pi0_one):
        for tau in [0.2, 0.4, 1.0, 3.0]:
            w = dfdr_at(four_test_stats, pi0_one, tau, [1.0] * 4)[0]
            u = dfdr_at(four_test_stats, pi0_one, tau)[0]
            assert w == pytest.approx(u, abs=1e-15)

    def test_hand_computed_weighted_example(self, four_test_stats, pi0_one):
        # weights (2,1,1,1); nulls inherit by feature: (0.5,0.4,0.3,0.2)
        # tau 0.4: null weight sum 3, observed weight sum 5 -> (3/4)/(5/4) = 0.6
        value = dfdr_at(four_test_stats, pi0_one, 0.4, [2.0, 1.0, 1.0, 1.0])[0]
        assert value == pytest.approx(0.6, abs=1e-15)
        oracle = weighted_dfdr_oracle(
            four_test_stats.observed.tolist(),
            FOUR_TEST_NULLS.tolist(),
            [2.0, 1.0, 1.0, 1.0],
            1.0,
            0.4,
        )
        assert value == pytest.approx(oracle, abs=1e-15)

    def test_matches_oracle_with_multiple_permutations(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            stats, nulls = random_statistic_set(rng, max_m=12, max_b=4)
            weights = rng.uniform(0.0, 3.0, size=stats.n_tests)
            weights[0] = 1.0  # keep at least one positive
            pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
            tau = float(rng.choice(stats.observed))
            expected = weighted_dfdr_oracle(
                stats.observed.tolist(),
                nulls.tolist(),
                weights.tolist(),
                pi0.value,
                tau,
            )
            weighted = StatisticSet.from_null(stats.observed, nulls, stats.n_permutations, weights)
            curve = common_threshold_weighted(weighted, np.zeros(stats.n_tests), pi0).curve
            got = curve.dfdr[curve_at(curve, tau)]
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_zero_weight_on_all_rejected_gives_zero(self, pi0_one):
        # weights vanish on every test with statistic >= 2
        weights = [0.0, 0.0, 1.0, 1.0]
        curve = common_threshold_weighted(four_tests(weights), [0.0] * 4, pi0_one).curve
        assert curve.dfdr[curve_at(curve, 2.0)] == 0.0

    def test_negative_weight_rejected(self, pi0_one):
        with pytest.raises(ValidationError):
            common_threshold_weighted(four_tests([1, 1, -1, 1]), [0] * 4, pi0_one)

    def test_all_zero_weights_rejected(self, pi0_one):
        with pytest.raises(ValidationError):
            common_threshold_weighted(four_tests([0, 0, 0, 0]), [0] * 4, pi0_one)


def weight_sums_oracle(values, weights, taus):
    """Exact weight sums over values >= tau, value j carrying weights[j % m]."""
    m = len(weights)
    return [
        sum((Fraction(weights[j % m]) for j, v in enumerate(values) if v >= tau), Fraction(0))
        for tau in taus
    ]


class TestWeightExceedances:
    """The block engine, with blocks of 1 and of 3 whole permutations."""

    @pytest.fixture(params=[1, 3])
    def perms_per_block(self, request, monkeypatch):
        # BLOCK counts values, so the block size follows m: patched per test
        def use(m):
            monkeypatch.setattr(estimators, "BLOCK", request.param * m)
            return request.param

        return use

    @staticmethod
    def random_problem(rng, m, b):
        values = np.round(np.abs(rng.normal(0.8, 0.8, size=m * b)), 1)
        values[rng.random(values.size) < 0.05] = np.inf
        taus = np.concatenate([np.unique(values), [-1.0, 0.05, np.inf]])
        return values, np.sort(taus)

    def test_integer_weights_equal_brute_force(self, perms_per_block):
        rng = np.random.default_rng(40)
        for _ in range(30):
            m = int(rng.integers(1, 10))
            perms_per_block(m)
            values, taus = self.random_problem(rng, m, b=7)  # 7: not a whole number of blocks
            weights = rng.integers(0, 6, size=m).astype(float)
            got = estimators.weight_exceedances(values, weights, taus)
            expected = weight_sums_oracle(values.tolist(), weights.tolist(), taus.tolist())
            assert got.tolist() == [float(e) for e in expected]

    def test_real_weights_within_summation_bound(self, perms_per_block):
        # Each sum is a running sum inside a block of `per * m` values plus one
        # addition per block, all terms nonnegative: relative error at most
        # (per * m + blocks) * 2^-53.
        rng = np.random.default_rng(41)
        m, b = 60, 7
        per = perms_per_block(m)
        bound = (per * m + -(-b // per)) * 2.0**-53
        for _ in range(5):
            values, taus = self.random_problem(rng, m, b)
            weights = rng.uniform(0.1, 3.0, size=m) + rng.uniform(0.0, 30.0, size=m)
            got = estimators.weight_exceedances(values, weights, taus)
            exact = weight_sums_oracle(values.tolist(), weights.tolist(), taus.tolist())
            for g, e in zip(got.tolist(), exact):
                if e == 0:
                    assert g == 0.0
                else:
                    assert abs(Fraction(g) - e) <= bound * e

    def test_inf_values_and_taus_at_values_count_inclusively(self, perms_per_block):
        perms_per_block(2)
        values = np.array([1.0, np.inf, 2.0, 1.0, np.inf, 0.0, 0.5, 2.0])  # B = 4
        weights = np.array([1.0, 10.0])
        taus = np.array([0.0, 0.5, 1.0, 2.0, 3.0, np.inf])
        got = estimators.weight_exceedances(values, weights, taus)
        assert got.tolist() == [44.0, 34.0, 33.0, 22.0, 11.0, 11.0]
        # a scalar tau gives a 0-d result with the same value
        assert float(estimators.weight_exceedances(values, weights, 2.0)) == 22.0
        assert float(estimators.weight_exceedances(values, weights, np.inf)) == 11.0


class TestWeightedPi0:
    def test_uniform_reduces_to_plain(self):
        rng = np.random.default_rng(16)
        obs = np.abs(rng.normal(size=12))
        nulls = np.abs(rng.normal(size=36))
        plain = pi0_of(obs, nulls)
        weighted = pi0_of(obs, nulls, weights=np.full(12, 2.5))
        assert weighted.lam == plain.lam
        assert weighted.value == pytest.approx(plain.value, abs=1e-12)

    def test_zero_weighted_nulls_error(self):
        # lambda 9.0: the one null below it is test 0's, of weight 0
        obs = np.array([0.1, 5.0])
        nulls = np.array([0.2, 9.0])
        with pytest.raises(UndefinedEstimateError, match="positive null weight"):
            pi0_of(obs, nulls, weights=[0.0, 1.0])


def pvalue_pi0_oracle(pvalues):
    """The analytic pi0 of uniform null p-values: the share of p-values above
    lambda = 1 - 0.382925 over the uniform null's share there, 0.382925."""
    lam = 1.0 - 0.382925
    share = sum(1 for p in pvalues if p > lam) / len(pvalues)
    return Pi0Estimate.estimated(share / 0.382925, lam)


class TestPvaluePi0:
    def test_uniform_pvalues_estimate_near_one(self):
        rng = np.random.default_rng(17)
        pvals = validate_pvalues(rng.uniform(size=5000))
        assert estimate_pi0(pvals).value > 0.9

    def test_enriched_small_pvalues_shrink_estimate(self):
        rng = np.random.default_rng(18)
        p = np.concatenate([rng.uniform(size=500), rng.uniform(0, 0.01, size=500)])
        est = estimate_pi0(validate_pvalues(p))
        assert 0.3 < est.value < 0.75

    @pytest.mark.parametrize("seed", range(4))
    def test_rules_and_pi0_decide_a_pvalue_set(self, seed):
        # the same bits as each decider at the analytic estimate
        rng = np.random.default_rng(seed)
        p = rng.random(300)
        p[:60] = rng.beta(0.3, 1.0, size=60)
        p[60:90] = np.round(p[60:90], 2)  # ties
        pvals = validate_pvalues(p)
        oracle = pvalue_pi0_oracle(p.tolist())
        assert choose_lambda(pvals) == oracle.lam
        assert resolve_pi0(pvals, "estimate") == estimate_pi0(pvals) == oracle
        deciders = (
            (DesirabilityRule(9.0), lambda: maximize_desirability(pvals, oracle, CostBenefit.from_ratio(9.0))),
            (DfdrControlRule(0.1), lambda: control_dfdr(pvals, oracle, 0.1)),
        )
        for rule, decide in deciders:
            got, want = rule(pvals), decide()
            assert (got.tau, got.dfdr, got.desirability, got.pi0) == (want.tau, want.dfdr, want.desirability, want.pi0)
            assert got.rejected.tolist() == want.rejected.tolist()
            for name in ("tau", "dfdr", "desirability", "discoveries"):
                assert getattr(got.curve, name).tobytes() == getattr(want.curve, name).tobytes()


class TestClosedFormMixtureIdentity:
    def test_two_component_identity(self):
        from scipy.stats import norm

        rng = np.random.default_rng(19)
        for _ in range(20):
            mu = rng.normal(size=2)
            sd = rng.uniform(0.5, 2.0, size=2)
            mu0 = rng.normal(scale=0.3, size=2)
            sd0 = rng.uniform(0.5, 2.0, size=2)
            w = rng.uniform(0.1, 5.0, size=2)
            pi0 = float(rng.uniform(0.2, 1.0))
            tau = float(rng.normal())
            f = norm.cdf(tau, loc=mu, scale=sd)
            f0 = norm.cdf(tau, loc=mu0, scale=sd0)
            mixture = dfdr_from_cdfs(
                pi0,
                float(np.sum(w * f0) / np.sum(w)),
                float(np.sum(w * f) / np.sum(w)),
            )
            weighted = weighted_dfdr_from_cdfs(pi0, f0, f, w)
            assert mixture == pytest.approx(weighted, abs=1e-12)

    def test_zero_tail_returns_zero(self):
        assert dfdr_from_cdfs(0.8, 1.0, 1.0) == 0.0
        assert weighted_dfdr_from_cdfs(0.8, [1.0], [1.0], [2.0]) == 0.0
