"""Property tests: the sorted-scan engine against brute-force oracles.

Inputs are small and drawn with many ties and +inf sentinels. Each oracle
evaluates every candidate threshold directly, one count at a time.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfdr import (
    CENTRAL_BAND_MASS,
    CostBenefit,
    Pi0Estimate,
    StatisticSet,
    choose_lambda,
    common_threshold_weighted,
    control_dfdr,
    control_dfdr_pvalues,
    maximize_desirability,
    maximize_desirability_pvalues,
    validate_pvalues,
)
from dfdr import estimators
from test_decision import brute_force_candidates, brute_force_curve, brute_force_maximize

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

GRID = [0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, math.inf]
stat_values = st.one_of(st.sampled_from(GRID), st.floats(0.0, 5.0))
pvalues = st.one_of(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.2, 0.5, 1.0]), st.floats(0.0, 1.0))
pi0s = st.floats(0.05, 1.0)
ratios = st.sampled_from([0.0, 1.0, 4.0, 19.0, 99.0])


@st.composite
def statistic_sets(draw, max_m=12, max_b=4):
    m = draw(st.integers(1, max_m))
    b = draw(st.integers(1, max_b))
    observed = draw(st.lists(stat_values, min_size=m, max_size=m))
    nulls = draw(st.lists(stat_values, min_size=m * b, max_size=m * b))
    return StatisticSet(observed=observed, null_stats=nulls, n_permutations=b)


@st.composite
def integer_weights(draw, m):
    weights = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m))
    if not any(weights):
        weights[0] = 1
    benefits = [draw(st.integers(0, w)) for w in weights]
    return np.array(weights, dtype=float), np.array(benefits, dtype=float)


def lambda_by_unique(nulls):
    """choose_lambda as first defined: every distinct value plus +inf."""
    nulls = np.sort(np.asarray(nulls, dtype=float))
    candidates = np.unique(nulls)
    if not np.isposinf(candidates[-1]):
        candidates = np.append(candidates, np.inf)
    below = np.searchsorted(nulls, candidates, side="left") / nulls.size
    return float(candidates[int(np.argmin(np.abs(below - CENTRAL_BAND_MASS)))])


def brute_force_weighted(observed, nulls, weights, benefits, pi0):
    m, big_m = len(observed), len(nulls)
    best = None
    for tau in brute_force_candidates(observed):
        w_obs = sum(w for v, w in zip(observed, weights) if v >= tau)
        b_obs = sum(b for v, b in zip(observed, benefits) if v >= tau)
        w_null = sum(weights[j % m] for j, v in enumerate(nulls) if v >= tau)
        dfdr = 0.0 if w_obs == 0 else pi0 * (w_null / big_m) / (w_obs / m)
        desirability = b_obs - dfdr * w_obs
        if best is None or desirability >= best[2]:
            best = (tau, dfdr, desirability)
    rejected = frozenset(i for i, v in enumerate(observed) if v >= best[0])
    return best[0], rejected, best[1], best[2]


def brute_force_pvalue_curve(p, pi0, ratio):
    m = len(p)
    curve = [(-math.inf, 0.0, 0.0, 0)]
    for c in sorted(set(p)):
        k = sum(1 for x in p if x <= c)
        dfdr = pi0 * c / (k / m)
        curve.append((c, dfdr, (1.0 - (1.0 + ratio) * dfdr) * k, k))
    return curve


@PROPERTY
@given(statistic_sets(), pi0s, ratios)
def test_maximize_matches_brute_force(stats, pi0, ratio):
    result = maximize_desirability(stats, Pi0Estimate.user(pi0), CostBenefit.from_ratio(ratio))
    expected = brute_force_maximize(
        stats.observed.tolist(), stats.null_stats.tolist(), pi0, 1.0, ratio
    )
    assert (result.tau, result.rejected, result.dfdr, result.desirability) == expected
    assert len(result.curve) == len(brute_force_candidates(stats.observed.tolist()))


@PROPERTY
@given(statistic_sets(), pi0s, st.sampled_from([0.01, 0.05, 0.2, 0.5]))
def test_control_matches_brute_force(stats, pi0, alpha):
    result = control_dfdr(stats, Pi0Estimate.user(pi0), alpha)
    observed = stats.observed.tolist()
    curve = brute_force_curve(observed, stats.null_stats.tolist(), pi0, 1.0, 0.0)
    # nothing is feasible only when +inf sentinels alone exceed the bound
    tau, dfdr = ([c for c in curve if c[1] <= alpha] or curve[-1:])[0][:2]
    rejected = frozenset(i for i, v in enumerate(observed) if v >= tau)
    assert (result.tau, result.rejected, result.dfdr) == (tau, rejected, dfdr)
    assert len(result.curve) == len(brute_force_candidates(stats.observed.tolist()))


@PROPERTY
@given(st.data(), statistic_sets(), pi0s)
def test_weighted_matches_brute_force(data, stats, pi0):
    # integer weights: every weight sum is exact, so the match is exact
    weights, benefits = data.draw(integer_weights(stats.n_tests))
    result = common_threshold_weighted(stats, weights, benefits, Pi0Estimate.user(pi0))
    expected = brute_force_weighted(
        stats.observed.tolist(), stats.null_stats.tolist(), weights.tolist(),
        benefits.tolist(), pi0,
    )
    assert (result.tau, result.rejected, result.dfdr, result.desirability) == expected
    assert len(result.curve) == len(brute_force_candidates(stats.observed.tolist()))


@PROPERTY
@given(st.data(), statistic_sets(max_b=7), pi0s, st.sampled_from([1, 3]))
def test_weighted_matches_brute_force_in_small_blocks(data, stats, pi0, perms_per_block):
    # blocks of 1 or 3 permutations, B often not a whole number of blocks
    weights, benefits = data.draw(integer_weights(stats.n_tests))
    with mock.patch.object(estimators, "BLOCK", perms_per_block * stats.n_tests):
        result = common_threshold_weighted(stats, weights, benefits, Pi0Estimate.user(pi0))
    expected = brute_force_weighted(
        stats.observed.tolist(), stats.null_stats.tolist(), weights.tolist(),
        benefits.tolist(), pi0,
    )
    assert (result.tau, result.rejected, result.dfdr, result.desirability) == expected


@PROPERTY
@given(statistic_sets(), pi0s, ratios, st.floats(0.1, 10.0))
def test_constant_weights_give_unweighted_decision(stats, pi0, ratio, scale):
    m = stats.n_tests
    plain = maximize_desirability(stats, Pi0Estimate.user(pi0), CostBenefit.from_ratio(ratio))
    weighted = common_threshold_weighted(
        stats, np.full(m, scale * (1.0 + ratio)), np.full(m, scale), Pi0Estimate.user(pi0)
    )
    np.testing.assert_array_equal(weighted.curve.tau, plain.curve.tau)
    np.testing.assert_allclose(weighted.curve.dfdr, plain.curve.dfdr, rtol=1e-12)
    np.testing.assert_allclose(
        weighted.curve.desirability, scale * plain.curve.desirability, rtol=1e-12, atol=1e-9
    )
    # the decisions agree unless two candidates tie to within rounding
    top = plain.curve.desirability
    if np.count_nonzero(top >= top.max() - 1e-9 * max(1.0, abs(top.max()))) == 1:
        assert (weighted.tau, weighted.rejected) == (plain.tau, plain.rejected)


@PROPERTY
@given(st.data(), st.lists(stat_values, min_size=1, max_size=300))
def test_choose_lambda_matches_unique_definition(data, nulls):
    expected = lambda_by_unique(nulls)
    assert choose_lambda(nulls) == expected
    assert choose_lambda(np.sort(nulls)) == expected
    assert choose_lambda(data.draw(st.permutations(nulls))) == expected


@PROPERTY
@given(
    st.dictionaries(st.floats(0.0, 5.0), st.integers(1, 400), min_size=1, max_size=6),
    st.integers(0, 400),
)
def test_choose_lambda_with_long_runs_of_ties(runs, n_inf):
    # long runs put the target rank inside a run, next to run boundaries
    values = sorted(runs)
    nulls = np.repeat(values + [math.inf], [runs[v] for v in values] + [n_inf])
    expected = lambda_by_unique(nulls)
    assert choose_lambda(nulls) == expected
    assert choose_lambda(np.random.default_rng(nulls.size).permutation(nulls)) == expected


# Tiles of a few values put small inputs through the summary's bracket: the
# first tile is the sample, MARGIN sample ranks on each side of the estimated
# target rank are kept, and past CAP kept values the bracket narrows. MARGIN
# 0 is a bracket of one value, which rank k mostly misses, and a CAP of 1
# narrows at every tile, so the passes after a miss run too.
brackets = st.tuples(
    st.sampled_from([1, 2, 4, 16]), st.sampled_from([0, 1, 2, 1024]), st.sampled_from([1, 8, 64])
)


def lambda_by_bracket(nulls, bracket):
    block, margin, cap = bracket
    with mock.patch.multiple(estimators, BLOCK=block, MARGIN=margin, CAP=cap):
        return choose_lambda(nulls)


@PROPERTY
@given(st.data(), st.lists(stat_values, min_size=1, max_size=300), brackets)
def test_choose_lambda_by_bracket_matches_unique_definition(data, nulls, bracket):
    expected = lambda_by_unique(nulls)
    assert lambda_by_bracket(data.draw(st.permutations(nulls)), bracket) == expected


@PROPERTY
@given(st.data(), stat_values, st.lists(stat_values, min_size=1, max_size=40), brackets)
def test_choose_lambda_with_heavy_ties_at_rank_k(data, tied, others, bracket):
    # 90% of the values equal: the bracket closes on that run, known by counts
    nulls = others + [tied] * (9 * len(others))
    expected = lambda_by_unique(nulls)
    assert lambda_by_bracket(data.draw(st.permutations(nulls)), bracket) == expected


@PROPERTY
@given(
    st.data(), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=100),
    st.integers(1, 300), brackets,
)
def test_choose_lambda_with_runs_of_inf(data, finite, n_inf, bracket):
    # rank k in the +inf run, or the next run being +inf, past every bracket
    nulls = finite + [math.inf] * n_inf
    expected = lambda_by_unique(nulls)
    assert lambda_by_bracket(data.draw(st.permutations(nulls)), bracket) == expected


def test_choose_lambda_recovers_exactly_from_missed_brackets(monkeypatch):
    rng = np.random.default_rng(50)
    nulls = np.round(np.abs(rng.normal(size=5000)), 2)
    passes = []
    repass = estimators.NullSummary._repass

    def spy(summary, lo, hi):
        passes.append((lo, hi))
        repass(summary, lo, hi)

    monkeypatch.setattr(estimators.NullSummary, "_repass", spy)
    monkeypatch.setattr(estimators, "BLOCK", 64)
    monkeypatch.setattr(estimators, "MARGIN", 1)
    monkeypatch.setattr(estimators, "CAP", 256)
    assert choose_lambda(nulls) == lambda_by_unique(nulls)
    assert passes  # some bracket missed


@PROPERTY
@given(st.lists(pvalues, min_size=1, max_size=30), pi0s, ratios)
def test_pvalue_scan_matches_pointwise_estimates(p, pi0, ratio):
    pvals = validate_pvalues(p)
    pi0_est = Pi0Estimate.user(pi0)
    result = maximize_desirability_pvalues(pvals, pi0_est, CostBenefit.from_ratio(ratio))
    curve = brute_force_pvalue_curve(p, pi0, ratio)
    assert len(result.curve) == len(curve) == len(set(p)) + 1
    assert result.curve.tau.tolist() == [c[0] for c in curve]
    assert result.curve.dfdr.tolist() == [c[1] for c in curve]
    assert result.curve.desirability.tolist() == [c[2] for c in curve]
    assert result.curve.discoveries.tolist() == [c[3] for c in curve]
    # ties toward the smaller cutoff, i.e. fewer rejections
    best = max(c[2] for c in curve)
    tau = next(c[0] for c in curve if c[2] == best)
    assert result.tau == tau
    assert result.rejected == frozenset(i for i, x in enumerate(p) if x <= tau)


@PROPERTY
@given(st.lists(pvalues, min_size=1, max_size=30), pi0s, st.sampled_from([0.01, 0.05, 0.2]))
def test_pvalue_control_matches_brute_force(p, pi0, alpha):
    result = control_dfdr_pvalues(validate_pvalues(p), Pi0Estimate.user(pi0), alpha)
    curve = brute_force_pvalue_curve(p, pi0, 1.0 / alpha - 1.0)
    tau, dfdr = [(c[0], c[1]) for c in curve if c[1] <= alpha][-1]
    assert (result.tau, result.dfdr) == (tau, dfdr)
    assert result.rejected == frozenset(i for i, x in enumerate(p) if x <= tau)
    assert len(result.curve) == len(set(p)) + 1
