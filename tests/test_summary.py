"""The null summary: a streamed null read like a stored one, in bounded memory.

``build_statistic_set`` never holds the null: its NullSummary takes it tile
by tile. Every quantity the estimators read must equal the one read from the
same null held whole (``permutation_null``), bit for bit, on every route;
the lambda bracket must hold on the first pass, and recover exactly when it
is forced to miss.
"""

import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import dfdr.cli
import dfdr.decision
import dfdr.resampling
from dfdr import (
    CostBenefit,
    DataMatrix,
    PermutationPlan,
    StatisticSet,
    Subset,
    SubsetPartition,
    build_statistic_set,
    common_threshold_weighted,
    control_dfdr,
    maximize_desirability,
    per_subset_optimize,
    permutation_null,
    resolve_pi0,
    two_sample_abs_t,
)
from dfdr import estimators
from dfdr.estimators import NullSummary
from test_cli import write_fixture
from test_properties import lambda_by_unique


def random_matrix(rng, m, n_a, n_b, shifted=0.2) -> DataMatrix:
    values = rng.normal(size=(m, n_a + n_b)) * rng.uniform(0.5, 3.0, size=(m, 1))
    values[: int(shifted * m), n_a:] += 2.0
    values[rng.random(m) < 0.02] = 1.5  # constant rows: 0 statistics
    return DataMatrix(
        values,
        tuple(f"g{i}" for i in range(m)),
        tuple(f"s{j}" for j in range(n_a + n_b)),
        tuple(["A"] * n_a + ["B"] * n_b),
    )


def materialised(matrix, plan) -> StatisticSet:
    null = permutation_null(matrix, "A", "B", plan)
    return StatisticSet(two_sample_abs_t(matrix, "A", "B"), null, plan.n_permutations)


def same_decision(a, b) -> None:
    assert (a.tau, a.rejected, a.dfdr, a.desirability, a.pi0) == (
        b.tau, b.rejected, b.dfdr, b.desirability, b.pi0
    )
    for field in ("tau", "dfdr", "desirability", "discoveries"):
        np.testing.assert_array_equal(getattr(a.curve, field), getattr(b.curve, field))


@pytest.fixture
def repasses(monkeypatch):
    """Counts the passes a summary takes after its first, its bracket missed."""
    counted = []
    repass = NullSummary._repass

    def spy(summary, lo, hi):
        counted.append((lo, hi))
        repass(summary, lo, hi)

    monkeypatch.setattr(NullSummary, "_repass", spy)
    return counted


# CAP patched small sends the null down the large-null path: observed
# statistics first, a bracket from the first tile, narrowing past CAP values
# and, where rows differ in spread, further passes after a miss.
@pytest.mark.parametrize("cap", [None, 5_000])
@pytest.mark.parametrize(
    "shape", [(300, 6, 5, 40), (1000, 9, 7, 30), (64, 3, 3, 200), (1, 5, 5, 300)]
)
def test_streamed_equals_materialised(shape, cap, monkeypatch, repasses):
    m, n_a, n_b, b = shape
    monkeypatch.setattr(estimators, "CAP", cap or estimators.CAP)
    rng = np.random.default_rng(m + b)
    matrix = random_matrix(rng, m, n_a, n_b)
    plan = PermutationPlan(b, m)
    streamed = build_statistic_set(matrix, "A", "B", plan)
    whole = materialised(matrix, plan)
    assert streamed.null_stats is None
    np.testing.assert_array_equal(streamed.observed, whole.observed)
    np.testing.assert_array_equal(streamed.null_exceedances, whole.null_exceedances)
    for mode in ("estimate", "one"):
        pi0 = resolve_pi0(streamed, mode)
        assert pi0 == resolve_pi0(whole, mode)
        same_decision(
            maximize_desirability(streamed, pi0, CostBenefit.from_ratio(19.0)),
            maximize_desirability(whole, pi0, CostBenefit.from_ratio(19.0)),
        )
        same_decision(control_dfdr(streamed, pi0, 0.1), control_dfdr(whole, pi0, 0.1))
    # integer weights: every weight sum exact, in any order of the tiles
    weights = rng.integers(2, 30, size=m).astype(float)
    benefits = np.floor(weights / 2)
    weighted = build_statistic_set(matrix, "A", "B", plan, weights)
    np.testing.assert_array_equal(
        weighted.null_summary(weights).exceedances, whole.null_summary(weights).exceedances
    )
    pi0 = resolve_pi0(weighted, "estimate", weights)
    assert pi0 == resolve_pi0(whole, "estimate", weights)
    same_decision(
        common_threshold_weighted(weighted, weights, benefits, pi0),
        common_threshold_weighted(whole, weights, benefits, pi0),
    )
    assert cap or not repasses  # whole nulls kept: no bracket to miss


def test_subsets_equal_slices_of_the_materialised_null(monkeypatch):
    monkeypatch.setattr(estimators, "CAP", 3_000)  # the large-null path too
    rng = np.random.default_rng(61)
    matrix = random_matrix(rng, 240, 6, 6)
    plan = PermutationPlan(50, 3)
    order = rng.permutation(240)
    partition = SubsetPartition(
        subsets=(
            Subset("x", tuple(order[:90].tolist()), "A", "B", 1.0, 19.0),
            Subset("y", tuple(order[90:].tolist()), "A", "B", 2.0, 9.0),
        ),
        min_size=50,
    )
    whole = materialised(matrix, plan)
    table = whole.null_stats.reshape(plan.n_permutations, -1)
    for decision in per_subset_optimize(partition, matrix, plan):
        rows = np.asarray(decision.subset.feature_indices)
        sliced = StatisticSet(whole.observed[rows], table[:, rows], plan.n_permutations)
        pi0 = resolve_pi0(sliced, "estimate")
        cb = CostBenefit([decision.subset.benefit], [decision.subset.cost])
        same_decision(decision.result, maximize_desirability(sliced, pi0, cb))


@pytest.mark.parametrize("m", [16, 17])
def test_bracket_holds_on_tests_of_unequal_spread(m, repasses):
    # test j's nulls are scaled by 1 + j: a sample of a few tests would miss
    b = 65_536
    rng = np.random.default_rng(m)
    nulls = (np.abs(rng.normal(size=(b, m))) * (1.0 + np.arange(m))).ravel()
    stats = StatisticSet(np.ones(m), nulls, b)
    summary = stats.null_summary()
    assert summary.size > estimators.CAP  # the bracket is used
    assert summary.n_kept < nulls.size // 10  # 2 * MARGIN ranks of a BLOCK sample
    assert estimators.choose_lambda(summary) == lambda_by_unique(nulls)
    assert not repasses


def test_narrowing_keeps_a_bracket_without_ties(monkeypatch, repasses):
    # past CAP kept values the bracket narrows to CAP / 4 ranks on each side
    # of the estimate; only long runs of ties may close it on one value
    monkeypatch.setattr(estimators, "CAP", 4096)
    monkeypatch.setattr(estimators, "MARGIN", 256)  # a first bracket well inside CAP
    monkeypatch.setattr(estimators, "BLOCK", 4096)  # 49 tiles: CAP is reached, again and again
    nulls = np.abs(np.random.default_rng(67).normal(size=200_000))
    summary = StatisticSet(np.ones(1), nulls, nulls.size).null_summary()
    assert summary.at is None and summary.n_kept <= 4096
    assert estimators.choose_lambda(summary) == lambda_by_unique(nulls)
    assert not repasses


def test_forced_miss_gives_identical_outputs(tmp_path, monkeypatch, repasses):
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(62), m=300, n_a=6, n_b=6)
    wpath = tmp_path / "weights.tsv"
    wpath.write_text(
        "feature_id\tbenefit\tcost\n"
        + "".join(f"g{i:03d}\t{1 + i % 2}\t{19 + i % 3}.5\n" for i in range(300))
    )
    base = ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
            "--group-b", "B", "--permutations", "200"]
    runs = [[], ["--mode", "control"], ["--weights", str(wpath)]]
    for i, extra in enumerate(runs):
        assert dfdr.cli.main(base + extra + ["--out", str(tmp_path / f"plain{i}")]) == 0
    assert not repasses
    # a bracket of one value from a first tile of a few values, narrowed past
    # a handful kept: rank k is missed, and found again by further passes
    monkeypatch.setattr(estimators, "CAP", 64)
    monkeypatch.setattr(estimators, "MARGIN", 0)
    monkeypatch.setattr(dfdr.stats, "TILE", 100)
    for i, extra in enumerate(runs):
        assert dfdr.cli.main(base + extra + ["--out", str(tmp_path / f"missed{i}")]) == 0
        for name in ("summary.txt", "tests.csv", "curve.csv"):
            plain = (tmp_path / f"plain{i}" / name).read_bytes()
            assert (tmp_path / f"missed{i}" / name).read_bytes() == plain
    assert repasses


def test_second_pass_never_runs_on_a_bracketed_fixture(tmp_path, repasses):
    # 2000 tests x 300 permutations: 600,000 nulls, past CAP, so the bracket
    # from the first tile is what lambda is read from
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(63), m=2000, shifted=300)
    base = ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
            "--group-b", "B", "--permutations", "300"]
    assert 2000 * 300 > estimators.CAP
    assert dfdr.cli.main(base + ["--out", str(tmp_path / "a")]) == 0
    assert dfdr.cli.main(base + ["--mode", "control", "--out", str(tmp_path / "b")]) == 0
    assert not repasses


def test_no_cli_route_holds_a_null(tmp_path, monkeypatch):
    held = []
    post_init = StatisticSet.__post_init__

    def spy(stats):
        held.append(stats.null_stats is not None)
        post_init(stats)

    monkeypatch.setattr(StatisticSet, "__post_init__", spy)
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(64), m=60)
    spath, wpath = tmp_path / "subsets.tsv", tmp_path / "weights.tsv"
    spath.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{'u' if i < 30 else 'v'}\tA\tB\t1\t19\n" for i in range(60)))
    wpath.write_text("feature_id\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t1\t{19 + i % 2}\n" for i in range(60)))
    base = ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
            "--group-b", "B", "--permutations", "40"]
    for i, extra in enumerate([[], ["--mode", "control"], ["--weights", str(wpath)],
                               ["--subsets", str(spath), "--min-subset-size", "10"]]):
        assert dfdr.cli.main(base + extra + ["--out", str(tmp_path / f"o{i}")]) == 0
    lpath.write_text("".join(f"s{j:02d}\t{'ALL' if j < 5 else 'AML'}\n" for j in range(10)))
    assert dfdr.cli.main(["reproduce", "--matrix", str(mpath), "--labels", str(lpath),
                          "--permutations", "40", "--out", str(tmp_path / "r")]) == 0
    assert dfdr.cli.main(["simulate", "--m", "100", "--replicates", "2",
                          "--out", str(tmp_path / "s")]) == 0
    assert held and not any(held)


def test_bounded_memory_at_twenty_thousand_permutations():
    # 1000 tests x 20,000 permutations: a null of 160 MB if it were held
    rng = np.random.default_rng(65)
    matrix = random_matrix(rng, 1000, 10, 10)
    plan = PermutationPlan(20_000, 1)

    def run():
        stats = build_statistic_set(matrix, "A", "B", plan)
        pi0 = resolve_pi0(stats, "estimate")
        maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))

    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1000 * 20_000 / 8


def assert_within_summation_bound(got, nulls, weights, observed, blocks) -> None:
    # Within a sorted block of at most BLOCK values a running sum, then one
    # addition per block, all terms nonnegative: relative error at most
    # (BLOCK + blocks) * 2^-53 against exact rationals.
    m, exact_weights = weights.size, [Fraction(w) for w in weights]
    taus = np.append(np.sort(observed), np.inf)
    for g, tau in zip(got.tolist(), taus.tolist()):
        exact = sum(
            (exact_weights[j % m] for j, v in enumerate(nulls.tolist()) if v >= tau), Fraction(0)
        )
        assert abs(Fraction(g) - exact) <= (estimators.BLOCK + blocks) * 2.0**-53 * exact


def test_real_weight_sums_within_summation_bound():
    # The tiles change the order of the null's weight sums
    rng = np.random.default_rng(66)
    m, b = 30, 400
    nulls = np.round(np.abs(rng.normal(size=m * b)), 2)
    weights = rng.uniform(0.1, 3.0, size=m) + rng.uniform(0.0, 30.0, size=m)
    observed = np.round(np.abs(rng.normal(0.5, 1.0, size=m)), 2)
    stats = StatisticSet(observed, nulls, b)
    with mock.patch.object(estimators, "BLOCK", 7 * m):  # many blocks and tiles
        got = stats.null_summary(weights).exceedances
        assert_within_summation_bound(got, nulls, weights, observed, -(-b // 7))


@pytest.mark.parametrize("cap", [None, 3_000])
def test_streamed_real_weight_sums_within_summation_bound(cap, monkeypatch):
    # A streamed null of at most CAP values is summed after its pass, from
    # the values kept, in pieces of BLOCK values; past CAP, tile by tile.
    rng = np.random.default_rng(68)
    m, b = 30, 400
    monkeypatch.setattr(estimators, "BLOCK", 7 * m)
    monkeypatch.setattr(estimators, "CAP", cap or estimators.CAP)
    matrix = random_matrix(rng, m, 6, 6)
    weights = rng.uniform(0.1, 3.0, size=m) + rng.uniform(0.0, 30.0, size=m)
    plan = PermutationPlan(b, 5)
    summary = build_statistic_set(matrix, "A", "B", plan, weights).null_summary(weights)
    assert summary.keeps_all == (cap is None)
    nulls = permutation_null(matrix, "A", "B", plan)
    assert_within_summation_bound(summary.exceedances, nulls, weights, summary.observed, -(-b // 7))


def test_one_comparison_holds_its_permutations_at_a_time(tmp_path, monkeypatch):
    # check_null_fits counts one comparison's permutations: each summary keeps
    # its comparison's permutations for any further pass, so every route
    # releases a comparison's summaries before it draws the next's
    alive, calls = [], []
    null = dfdr.resampling.permutation_null

    def spy(*args, into=None):
        assert not any(ref() is not None for ref in alive)
        calls.append(into is not None)
        summaries = null(*args, into=into)
        alive.extend(map(weakref.ref, summaries if isinstance(summaries, list) else [summaries]))
        return summaries

    monkeypatch.setattr(dfdr.resampling, "permutation_null", spy)
    monkeypatch.setattr(dfdr.decision, "permutation_null", spy)
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(69), m=60, n_a=6, n_b=9)
    lpath.write_text("".join(
        f"s{j:02d}\t{'ALL' if j < 6 else 'AML' if j < 11 else 'TALL'}\n" for j in range(15)))
    spath = tmp_path / "subsets.tsv"
    spath.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{'u' if i < 30 else 'v'}\tALL\t{'AML' if i < 30 else 'TALL'}\t1\t19\n"
        for i in range(60)))
    runs = [
        ["reproduce", "--matrix", str(mpath), "--labels", str(lpath), "--group-t", "TALL",
         "--permutations", "40"],
        ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "ALL",
         "--group-b", "AML", "--subsets", str(spath), "--min-subset-size", "10",
         "--permutations", "40"],
        ["simulate", "--m", "100", "--replicates", "3"],
    ]
    for i, run in enumerate(runs):
        calls.clear()
        assert dfdr.cli.main(run + ["--out", str(tmp_path / f"o{i}")]) == 0
        assert len(calls) >= 2 and all(calls)
