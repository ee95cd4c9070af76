"""The sorted-tile summary against the null held whole.

A StatisticSet reads each tile once: a sorted copy per class of equal
weights (one class without weights), or, where the weights have too many
distinct values, blocks of whole permutations argsorted with each value's
test; binary searches and slices of that copy give all it keeps. Drawn
nulls, weights, subsets of rows and sizes (CAP on either side of the null,
small MARGIN and BLOCK for many tiles, narrowing and further passes) are
checked against the materialised null: the counts per class at every tau,
the bracket's tallies and kept values after the pass, lambda and the counts
below it, and the weighted pi0 against exact rational sums.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfdr import UndefinedEstimateError, ValidationError
from dfdr import estimators
from dfdr.estimators import StatisticSet, array_tiles, class_sums, estimate_pi0
from test_estimators import lambda_oracle
from test_summary import assert_within_summation_bound

ORACLE = settings(derandomize=True, deadline=None, max_examples=300)

# few values give long runs of ties (a bracket closed on one value); many, few ties
FEW = [0.0, 0.5, 1.0, 1.0, 2.0, math.inf]
MANY = [round(0.1 * i, 1) for i in range(40)] + [math.inf]
WEIGHTS = {"one": [2.5], "two": [20.0, 21.5], "many": [0.3, 1.7, 2.25, 19.3, 7.7, 40.1]}


@st.composite
def problems(draw):
    m_all, b = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    grid = draw(st.sampled_from([FEW, MANY]))
    null = np.array(draw(st.lists(st.sampled_from(grid), min_size=m_all * b, max_size=m_all * b)))
    rows = draw(st.none() | st.permutations(range(m_all)).flatmap(
        lambda order: st.integers(1, m_all).map(lambda k: np.array(order[:k]))))
    n = m_all if rows is None else rows.size
    kind = draw(st.sampled_from([None, "one", "two", "two", "many"]))
    weights = None if kind is None else np.array(
        draw(st.lists(st.sampled_from(WEIGHTS[kind]), min_size=n, max_size=n)))
    return {
        "null": null.reshape(b, m_all),
        "observed": np.array(draw(st.lists(st.sampled_from(MANY), min_size=n, max_size=n))),
        "rows": rows,
        "weights": weights,
        # BLOCK: values per stored tile and per argsorted block, and the
        # many-weights rule; CAP: at most this many nulls are kept whole
        "sizes": {
            "BLOCK": draw(st.sampled_from([1, 7, 3 * m_all, 2**16])),
            "CAP": draw(st.sampled_from([4, 16, 64, estimators.CAP])),
            "MARGIN": draw(st.sampled_from([0, 2, 8, estimators.MARGIN])),
        },
        "observe_first": draw(st.booleans()),
    }


def patched(sizes):
    return [mock.patch.object(estimators, name, value) for name, value in sizes.items()]


def bins_of(summary, table):
    """Each null value's bin of the bracket's tallies, shaped like ``table``."""
    if summary.classes is None:  # without classes, each test is its bin
        per_test = np.arange(table.shape[1])
    elif summary.distinct.size == 1:
        per_test = np.zeros(table.shape[1], dtype=np.intp)
    else:
        per_test = summary.classes
    return np.broadcast_to(per_test, table.shape)


def kept_by_bin(summary):
    values, bins = [], []
    for piece, piece_bins in summary.kept:
        values.append(piece)
        bins.append(np.broadcast_to(piece_bins, piece.shape))
    if not values:
        return np.zeros(0), np.zeros(0, dtype=np.intp)
    return np.concatenate(values), np.concatenate(bins)


def check_bracket(summary, table, bins):
    """After a pass: every null value lies below, inside or above [lo, hi], tallied per bin."""
    lo, hi, d = summary.lo, summary.hi, summary.bins.size
    assert summary.below.tolist() == np.bincount(bins[table < lo], minlength=d).tolist()
    above = table > hi
    assert summary.above == np.count_nonzero(above)
    assert summary.above_min == (table[above].min() if above.any() else math.inf)
    inside = (table >= lo) & (table <= hi)
    if summary.at is not None:
        assert lo == hi
        assert summary.at.tolist() == np.bincount(bins[inside], minlength=d).tolist()
        return
    values, kept_bins = kept_by_bin(summary)
    assert summary.n_kept == values.size == np.count_nonzero(inside)
    for c in range(d):
        np.testing.assert_array_equal(np.sort(values[kept_bins == c]), np.sort(table[inside & (bins == c)]))


def check_counts(summary, table, observed, weights):
    taus = np.append(np.sort(observed), np.inf)
    np.testing.assert_array_equal(summary.taus, taus)
    if summary.classes is None:  # weight sums of argsorted blocks
        assert_within_summation_bound(summary.exceedances, table.ravel(), weights, observed, table.size)
        return
    bins = bins_of(summary, table)
    for c in range(summary.distinct.size):
        mine = np.sort(table[bins == c])
        assert summary.counts[c].tolist() == (mine.size - np.searchsorted(mine, taus)).tolist()


def check_pi0(summary, table, observed, weights):
    """The weighted pi0 and its null weight below lambda, against exact sums."""
    lam, n = summary.lam, observed.size
    exact_null = sum((Fraction(float(w)) * int(np.count_nonzero(table[:, j] < lam))
                      for j, w in enumerate(weights)), Fraction(0))
    null_below = float(class_sums(summary.bins, summary.below_lam))
    d = summary.bins.size  # terms added, each product rounded once
    assert abs(Fraction(null_below) - exact_null) <= (d + 1) * 2.0**-53 * exact_null
    if exact_null == 0:
        with pytest.raises(UndefinedEstimateError):
            estimate_pi0(summary)
        return
    exact_obs = sum((Fraction(float(w)) for w, v in zip(weights, observed) if v < lam), Fraction(0))
    exact = min(Fraction(1), (exact_obs / n) / (exact_null / table.size))
    got = estimate_pi0(summary).value
    assert abs(Fraction(got) - exact) <= (2 * n + d + 8) * 2.0**-53 * exact


@ORACLE
@given(problems())
def test_sorted_tiles_equal_the_materialised_null(problem):
    null, observed, rows, weights = (problem[k] for k in ("null", "observed", "rows", "weights"))
    table = null if rows is None else null[:, rows]
    b, n = table.shape
    patches = patched(problem["sizes"])
    for patch in patches:
        patch.start()
    try:
        # a subset's set takes its rows' columns of the null, as its own pass gives them
        summary = StatisticSet(n, b, weights)
        # a null kept whole may be observed after its pass, as resampling.null_passes does
        first = problem["observe_first"] or not summary.keeps_all
        if first:
            summary.observe(observed)
        summary.feed(array_tiles(np.ascontiguousarray(table).ravel(), n))
        bins = bins_of(summary, table)
        check_bracket(summary, table, bins)
        if not first:
            summary.observe(observed)
        check_counts(summary, table, observed, weights)
        assert summary.lam == lambda_oracle(table.ravel().tolist())
        below_lam = np.bincount(bins[table < summary.lam], minlength=summary.bins.size)
        assert summary.below_lam.tolist() == below_lam.tolist()
        if weights is not None:
            check_pi0(summary, table, observed, weights)
    finally:
        for patch in patches:
            patch.stop()


@pytest.mark.parametrize("weights", [None, [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]], ids=["none", "two", "many"])
@pytest.mark.parametrize("cap", [4, 1000], ids=["streamed", "kept-whole"])
@pytest.mark.parametrize("observe_first", [True, False])
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_a_tile_with_nan_or_minus_inf_is_refused(bad, observe_first, cap, weights):
    null = np.abs(np.random.default_rng(5).normal(size=(40, 3)))
    null[17, 1] = bad
    with mock.patch.object(estimators, "CAP", cap), mock.patch.object(estimators, "BLOCK", 8):
        summary = StatisticSet(3, 40, weights)
        assert (summary.classes is None) == (weights == [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="^null statistics must be finite or \\+inf$"):
            if observe_first or not summary.keeps_all:
                summary.observe(np.ones(3))
            summary.feed(array_tiles(null.ravel(), 3))


@pytest.mark.parametrize("weights", [None, [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]], ids=["none", "two", "many"])
@pytest.mark.parametrize("cap", [4, 1000], ids=["streamed", "kept-whole"])
def test_observing_a_null_not_kept_whole_is_refused(cap, weights):
    """Counting after the pass needs every null value still kept: a streamed
    null keeps only its bracket, and reading lambda drops what was kept."""
    null = np.abs(np.random.default_rng(6).normal(size=(40, 3)))
    with mock.patch.object(estimators, "CAP", cap), mock.patch.object(estimators, "BLOCK", 8):
        summary = StatisticSet(3, 40, weights).feed(array_tiles(null.ravel(), 3))
        if summary.keeps_all:
            summary.lam  # noqa: B018 - lambda first, then the counts
        with pytest.raises(ValidationError, match="^a null observed after its pass must be kept whole"):
            summary.observe(np.ones(3))
