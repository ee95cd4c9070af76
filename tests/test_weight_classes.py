"""Weighted exceedances counted per class of equal weights.

A weighted StatisticSet keeps, for each distinct weight, integer counts of
the nulls at or above each candidate; the weight sums are formed from them
when read. Counts are exact whatever the tiles, row blocks, sorted pieces or
read-ahead, so the sums are the same bits under every one of those. Weights
of many distinct values (d * (m + 1) > BLOCK) are summed by the sorted-block
argsort instead, within the summation bound of ``test_summary``.
"""

from unittest import mock

import numpy as np
import pytest

import dfdr.stats
from dfdr import (
    CostBenefit,
    PermutationPlan,
    StatisticSet,
    build_statistic_set,
    common_threshold_weighted,
    maximize_desirability,
    permutation_null,
    resolve_pi0,
)
from dfdr import estimators
from test_summary import (  # read_aheads: a fixture
    assert_within_summation_bound,
    materialised,
    random_matrix,
    read_aheads,
    same_decision,
)

# benefit + cost of four kinds of test: non-integer, so the order of the
# additions would show in the sums' last bits
KINDS = np.array([1.5 + 19.3, 2.25 + 19.3, 1.5 + 7.7, 2.25 + 7.7])


# BLOCK: values per sorted piece (and per stored tile); TILE: values per
# streamed tile; ROWS with ROW_VALUES 0: rows per block; CAP: a null of more
# values streams, read ahead, instead of being kept and counted after its pass
SIZES = [
    {},
    {"BLOCK": 900},  # 4 classes x 201 counts fit
    {"BLOCK": 4096, "TILE": 1_000},
    {"TILE": 3_000, "ROWS": 16, "ROW_VALUES": 0},
    {"BLOCK": 1_000, "TILE": 700, "ROWS": 7, "ROW_VALUES": 0},
]


@pytest.mark.parametrize("streams", [False, True], ids=["kept", "read-ahead"])
@pytest.mark.parametrize("sizes", SIZES, ids=lambda sizes: str(sizes)[1:-1] or "default")
def test_few_distinct_weights_give_the_same_bits_in_any_tiles(sizes, streams, monkeypatch,
                                                              read_aheads):
    rng = np.random.default_rng(90)
    m, b = 200, 60
    matrix = random_matrix(rng, m, 6, 7)
    weights = KINDS[rng.integers(0, KINDS.size, size=m)]
    plan = PermutationPlan(b, 11)
    reference = materialised(matrix, plan, weights)  # default sizes, whole null
    for name, value in sizes.items():
        module = dfdr.stats if name in ("TILE", "ROWS", "ROW_VALUES") else estimators
        monkeypatch.setattr(module, name, value)
    if streams:
        monkeypatch.setattr(estimators, "CAP", 2_048)
    stats = build_statistic_set(matrix, "A", "B", plan, weights)
    assert stats.classes is not None and stats.distinct.tolist() == sorted(KINDS.tolist())
    assert bool(read_aheads) == streams
    assert stats.counts.dtype == np.intp
    np.testing.assert_array_equal(stats.counts, reference.counts)
    np.testing.assert_array_equal(stats.exceedances, reference.exceedances)
    benefits = np.where(weights > 15, 1.5, 2.25)
    pi0 = resolve_pi0(stats, "estimate")
    same_decision(
        common_threshold_weighted(stats, benefits, pi0),
        common_threshold_weighted(materialised(matrix, plan, weights), benefits, pi0),
    )


def test_class_counts_equal_brute_force():
    rng = np.random.default_rng(91)
    values = np.round(np.abs(rng.normal(size=(9, 13))), 1)
    values[rng.random(values.shape) < 0.05] = np.inf
    classes = rng.integers(0, 3, size=13)
    taus = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, np.inf])
    got = np.zeros((4, taus.size), dtype=np.intp)  # class 3 has no values
    estimators.add_counts(got, estimators.sorted_pieces(values, classes, 4, None), taus, None)
    expected = [[np.count_nonzero(values[:, classes == c] >= t) for t in taus] for c in range(4)]
    assert got.tolist() == expected


def test_one_class_is_always_counted(monkeypatch):
    # d = 1 (unweighted, or uniform weights): counted even where m + 1 > BLOCK
    monkeypatch.setattr(estimators, "BLOCK", 64)
    rng = np.random.default_rng(95)
    m, b = 100, 7
    nulls = np.round(np.abs(rng.normal(size=m * b)), 1)
    observed = np.abs(rng.normal(size=m))
    for weights in (None, np.full(m, 0.3)):
        summary = StatisticSet.from_null(observed, nulls, b, weights)
        assert summary.classes is not None and summary.counts.dtype == np.intp
        counts = [np.count_nonzero(nulls >= t) for t in summary.taus]
        assert summary.counts.tolist() == [counts]


@pytest.mark.parametrize("pi0_mode", ["estimate", "one"])
def test_uniform_non_integer_weights_decide_as_unweighted(pi0_mode):
    rng = np.random.default_rng(92)
    m = 300
    matrix = random_matrix(rng, m, 5, 6)
    cb = CostBenefit(np.full(m, 0.135), np.full(m, 19 * 0.135))
    plan = PermutationPlan(80, 4)
    weighted = build_statistic_set(matrix, "A", "B", plan, cb.weights)
    assert weighted.distinct.size == 1
    plain = build_statistic_set(matrix, "A", "B", plan)
    pi0_w = resolve_pi0(weighted, pi0_mode)
    pi0 = resolve_pi0(plain, pi0_mode)
    assert pi0_w.lam == pi0.lam or np.isnan(pi0.lam)
    assert pi0_w.value == pytest.approx(pi0.value, rel=1e-13)
    got = common_threshold_weighted(weighted, cb.benefits, pi0_w)
    expected = maximize_desirability(plain, pi0, CostBenefit.from_ratio(19.0))
    assert (got.tau, got.rejected.tolist()) == (expected.tau, expected.rejected.tolist())
    np.testing.assert_array_equal(got.curve.tau, expected.curve.tau)
    np.testing.assert_allclose(got.curve.dfdr, expected.curve.dfdr, rtol=1e-13)


@pytest.mark.parametrize("m, b, block", [(300, 4, None), (40, 60, 1024)])
def test_many_distinct_weights_are_summed_by_the_argsort(m, b, block, monkeypatch):
    # d * (m + 1) > BLOCK: 300 * 301 against 2^16, 40 * 41 against 1024
    monkeypatch.setattr(estimators, "BLOCK", block or estimators.BLOCK)
    rng = np.random.default_rng(93 + m)
    nulls = np.round(np.abs(rng.normal(size=m * b)), 2)
    weights = rng.uniform(0.1, 3.0, size=m) + rng.uniform(0.0, 30.0, size=m)
    observed = np.round(np.abs(rng.normal(0.5, 1.0, size=m)), 2)
    counted = mock.Mock(wraps=estimators.split)  # the class path's copies
    monkeypatch.setattr(estimators, "split", counted)
    summary = StatisticSet.from_null(observed, nulls, b, weights)
    assert summary.classes is None and summary.counts.dtype == float
    assert not counted.called
    per = max(1, estimators.BLOCK // m)  # whole permutations per stored tile and sorted block
    assert_within_summation_bound(summary.exceedances, nulls, weights, observed, -(-b // per))


def test_streamed_many_distinct_weights_within_the_bound(monkeypatch):
    monkeypatch.setattr(estimators, "BLOCK", 1024)
    monkeypatch.setattr(estimators, "CAP", 2_048)  # streamed, tile by tile
    rng = np.random.default_rng(94)
    m, b = 40, 60
    matrix = random_matrix(rng, m, 6, 6)
    weights = rng.uniform(0.1, 3.0, size=m) + rng.uniform(0.0, 30.0, size=m)
    plan = PermutationPlan(b, 5)
    summary = build_statistic_set(matrix, "A", "B", plan, weights)
    assert summary.classes is None and not summary.keeps_all
    nulls = permutation_null(matrix, "A", "B", plan)
    # one tile holds every row here, so its blocks are those of a stored null
    blocks = -(-b // 25)
    assert_within_summation_bound(summary.exceedances, nulls, weights, summary.observed, blocks)
