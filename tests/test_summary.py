"""The null summary: a streamed null read like a stored one, in bounded memory.

``build_statistic_set`` never holds the null: its StatisticSet takes it tile
by tile. Every quantity the estimators read must equal the one read from the
same null held whole (``permutation_null``), bit for bit, on every route;
the lambda bracket must hold on the first pass, and recover exactly when it
is forced to miss. A null that streams is computed a tile ahead on a worker
thread: that must change no bit, overwrite no tile still in use, raise
either side's errors in the caller and end the worker with the pass.
"""

import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import dfdr.cli
import dfdr.decision
import dfdr.resampling
import dfdr.stats
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


def materialised(matrix, plan, weights=None) -> StatisticSet:
    null = permutation_null(matrix, "A", "B", plan)
    return StatisticSet.from_null(two_sample_abs_t(matrix, "A", "B"), null, plan.n_permutations, weights)


def same_decision(a, b) -> None:
    assert (a.tau, a.rejected.tolist(), a.dfdr, a.desirability, a.pi0) == (
        b.tau, b.rejected.tolist(), b.dfdr, b.desirability, b.pi0
    )
    for field in ("tau", "dfdr", "desirability", "discoveries"):
        np.testing.assert_array_equal(getattr(a.curve, field), getattr(b.curve, field))


@pytest.fixture
def repasses(monkeypatch):
    """Counts the passes a summary takes after its first, its bracket missed."""
    counted = []
    repass = StatisticSet._repass

    def spy(summary, lo, hi):
        counted.append((lo, hi))
        repass(summary, lo, hi)

    monkeypatch.setattr(StatisticSet, "_repass", spy)
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
    np.testing.assert_array_equal(streamed.observed, whole.observed)
    np.testing.assert_array_equal(
        streamed.exceedances, whole.exceedances
    )
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
    whole = materialised(matrix, plan, weights)
    np.testing.assert_array_equal(weighted.exceedances, whole.exceedances)
    pi0 = resolve_pi0(weighted, "estimate")
    assert pi0 == resolve_pi0(whole, "estimate")
    same_decision(
        common_threshold_weighted(weighted, benefits, pi0),
        common_threshold_weighted(whole, benefits, pi0),
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
    observed = two_sample_abs_t(matrix, "A", "B")
    table = permutation_null(matrix, "A", "B", plan).reshape(plan.n_permutations, -1)
    for decision in per_subset_optimize(partition, matrix, plan):
        rows = np.asarray(decision.subset.feature_indices)
        sliced = StatisticSet.from_null(observed[rows], table[:, rows], plan.n_permutations)
        pi0 = resolve_pi0(sliced, "estimate")
        cb = CostBenefit([decision.subset.benefit], [decision.subset.cost])
        same_decision(decision.result, maximize_desirability(sliced, pi0, cb))


@pytest.mark.parametrize("size", [60, 12, 7, 1])
def test_per_subset_sets_take_each_null_value_once(size, monkeypatch):
    # one ordinary pass per subset, over its rows alone: the tiles handed to
    # the sets hold m * B values whatever the number of subsets, two
    # comparisons' m * B when a second compares B with A
    m, b = 60, 30
    matrix = random_matrix(np.random.default_rng(73), m, 5, 6)
    order = np.random.default_rng(size).permutation(m).tolist()
    subsets = [Subset(f"{groups[0]}{k}", tuple(order[k : k + size]), *groups, 1.0, 19.0)
               for groups in (("A", "B"), ("B", "A")) for k in range(0, m, size)]
    sizes, add = [], StatisticSet.add
    monkeypatch.setattr(StatisticSet, "add",
                        lambda stats, rows, tile: sizes.append(tile.size) or add(stats, rows, tile))
    for count in (1, 2):
        sizes.clear()
        partition = SubsetPartition(tuple(subsets[: len(subsets) * count // 2]), min_size=1)
        per_subset_optimize(partition, matrix, PermutationPlan(b, 4))
        assert sum(sizes) == count * m * b


@pytest.mark.parametrize("m", [16, 17])
def test_bracket_holds_on_tests_of_unequal_spread(m, repasses):
    # test j's nulls are scaled by 1 + j: a sample of a few tests would miss
    b = 65_536
    rng = np.random.default_rng(m)
    nulls = (np.abs(rng.normal(size=(b, m))) * (1.0 + np.arange(m))).ravel()
    stats = StatisticSet.from_null(np.ones(m), nulls, b)
    assert stats.n_null > estimators.CAP  # the bracket is used
    assert stats.n_kept < nulls.size // 10  # 2 * MARGIN ranks of a BLOCK sample
    assert estimators.choose_lambda(stats) == lambda_by_unique(nulls)
    assert not repasses


def test_narrowing_keeps_a_bracket_without_ties(monkeypatch, repasses):
    # past CAP kept values the bracket narrows to CAP / 4 ranks on each side
    # of the estimate; only long runs of ties may close it on one value
    monkeypatch.setattr(estimators, "CAP", 4096)
    monkeypatch.setattr(estimators, "MARGIN", 256)  # a first bracket well inside CAP
    monkeypatch.setattr(estimators, "BLOCK", 4096)  # 49 tiles: CAP is reached, again and again
    nulls = np.abs(np.random.default_rng(67).normal(size=200_000))
    summary = StatisticSet.from_null(np.ones(1), nulls, nulls.size)
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
    # a null held whole comes from permutation_null without a summary to feed
    # and reaches a summary only through array_tiles (StatisticSet.from_null);
    # the per-subset route feeds its sets through resampling.null_passes alone
    built, held = [], []
    init, tiles = StatisticSet.__init__, estimators.array_tiles
    null = dfdr.resampling.permutation_null

    def spy(stats, *args, **kwargs):
        built.append(stats)
        init(stats, *args, **kwargs)

    def whole(*args, into=None):
        held.append(into is None)
        return null(*args, into=into)

    monkeypatch.setattr(StatisticSet, "__init__", spy)
    monkeypatch.setattr(estimators, "array_tiles", lambda *args: held.append(True) or tiles(*args))
    monkeypatch.setattr(dfdr.resampling, "permutation_null", whole)
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
    assert built and held and not any(held)


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
    # All terms are nonnegative. The sorted-block argsort (weights of many
    # distinct values) makes a running sum within a block of at most BLOCK
    # values, then one addition per block: relative error at most
    # (BLOCK + blocks) * 2^-53 against exact rationals. Counts per class of
    # weights (d classes, d * (m + 1) <= BLOCK) are exact, and their sum is d
    # products and d - 1 additions: at most about d * 2^-53, within the same.
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
    with mock.patch.object(estimators, "BLOCK", 7 * m):  # many blocks and tiles
        got = StatisticSet.from_null(observed, nulls, b, weights).exceedances
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
    summary = build_statistic_set(matrix, "A", "B", plan, weights)
    assert summary.keeps_all == (cap is None)
    nulls = permutation_null(matrix, "A", "B", plan)
    assert_within_summation_bound(summary.exceedances, nulls, weights, summary.observed, -(-b // 7))


def test_one_comparison_holds_its_permutations_at_a_time(tmp_path, monkeypatch):
    # check_null_fits counts one comparison's permutations: each set keeps
    # its comparison's permutations for any further pass, so every route
    # releases a comparison's sets before it draws the next's permutations
    alive, draws = [], []
    rows = dfdr.resampling.permutation_rows

    def spy(plan, out):
        assert not any(ref() is not None for ref in alive)
        rows(plan, out)
        draws.append(plan)
        alive.append(weakref.ref(out.base))  # the identity split, then these

    monkeypatch.setattr(dfdr.resampling, "permutation_rows", spy)
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(69), m=60, n_a=6, n_b=9)
    lpath.write_text("".join(
        f"s{j:02d}\t{'ALL' if j < 6 else 'AML' if j < 11 else 'TALL'}\n" for j in range(15)))
    spath = tmp_path / "subsets.tsv"
    spath.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{'uvwx'[i // 15]}\tALL\t{'AML' if i < 30 else 'TALL'}\t1\t19\n"
        for i in range(60)))
    runs = [
        ["reproduce", "--matrix", str(mpath), "--labels", str(lpath), "--group-t", "TALL",
         "--permutations", "40"],
        ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "ALL",
         "--group-b", "AML", "--subsets", str(spath), "--min-subset-size", "10",
         "--permutations", "40"],
        ["simulate", "--m", "100", "--replicates", "3"],
    ]
    # the subsets share their comparison's draw: four subsets, two draws; a
    # simulate replicate is drawn here or in a forked worker
    for i, (run, most) in enumerate(zip(runs, [2, 2, 3])):
        draws.clear()
        assert dfdr.cli.main(run + ["--out", str(tmp_path / f"o{i}")]) == 0
        assert 2 <= len(draws) <= most


# The read-ahead: a streamed null (one that some summary does not keep whole)
# is computed a tile ahead on one worker thread. TILE, CAP and MARGIN patched
# small give many tiles, a streamed first pass and, at CAP 64 and MARGIN 0,
# further passes after a miss, all of them read ahead.
SMALL = {"tile": 1_000, "cap": 2_048, "margin": 64}
MISSING = {"tile": 100, "cap": 64, "margin": 0}


@pytest.fixture
def read_aheads(monkeypatch):
    """Counts the passes read ahead on a worker thread."""
    counted = []
    read_ahead = dfdr.resampling.read_ahead

    def spy(items, ahead):
        counted.append(ahead)
        return read_ahead(items, ahead)

    monkeypatch.setattr(dfdr.resampling, "read_ahead", spy)
    return counted


def patch_small(monkeypatch, tile, cap, margin) -> None:
    monkeypatch.setattr(dfdr.stats, "TILE", tile)
    monkeypatch.setattr(estimators, "CAP", cap)
    monkeypatch.setattr(estimators, "MARGIN", margin)


@pytest.mark.parametrize("shape", [(300, 6, 5, 60), (700, 4, 4, 25), (1, 5, 5, 3_000)])
def test_read_ahead_equals_materialised(shape, monkeypatch, read_aheads):
    m, n_a, n_b, b = shape
    patch_small(monkeypatch, **SMALL)
    threads = threading.active_count()
    rng = np.random.default_rng(70 + m)
    matrix = random_matrix(rng, m, n_a, n_b)
    plan = PermutationPlan(b, m)
    weights = rng.integers(2, 30, size=m).astype(float)
    for w in (None, weights):
        whole = materialised(matrix, plan, w)
        streamed = build_statistic_set(matrix, "A", "B", plan, w)
        np.testing.assert_array_equal(streamed.observed, whole.observed)
        np.testing.assert_array_equal(streamed.exceedances, whole.exceedances)
        pi0 = resolve_pi0(streamed, "estimate")
        assert pi0 == resolve_pi0(whole, "estimate")
        if w is None:
            cb = CostBenefit.from_ratio(19.0)
            same_decision(maximize_desirability(streamed, pi0, cb), maximize_desirability(whole, pi0, cb))
        else:
            same_decision(
                common_threshold_weighted(streamed, np.ones(m), pi0),
                common_threshold_weighted(whole, np.ones(m), pi0),
            )
    assert read_aheads and threading.active_count() == threads


@pytest.mark.parametrize("small", [SMALL, MISSING])
def test_read_ahead_routes_give_identical_outputs(small, tmp_path, monkeypatch, read_aheads, repasses):
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(71), m=300, n_a=6, n_b=9)
    lpath.write_text("".join(
        f"s{j:02d}\t{'ALL' if j < 6 else 'AML' if j < 11 else 'TALL'}\n" for j in range(15)))
    spath, wpath = tmp_path / "subsets.tsv", tmp_path / "weights.tsv"
    spath.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{'u' if i < 120 else 'v' if i < 250 else 'w'}\tALL\t"
        f"{'TALL' if i >= 250 else 'AML'}\t1\t19\n" for i in range(300)))
    wpath.write_text("feature_id\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{1 + i % 2}\t{19 + i % 3}\n" for i in range(300)))
    inputs = ["--matrix", str(mpath), "--labels", str(lpath), "--permutations", "200"]
    analyze = ["analyze", *inputs, "--group-a", "ALL", "--group-b", "AML"]
    runs = [analyze, analyze + ["--mode", "control"], analyze + ["--weights", str(wpath)],
            analyze + ["--subsets", str(spath), "--min-subset-size", "40"],
            ["reproduce", *inputs, "--group-t", "TALL"]]

    def outputs(tag):
        for i, run in enumerate(runs):
            out = tmp_path / f"{tag}{i}"
            assert dfdr.cli.main(run + ["--out", str(out)]) == 0
            yield {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    threads = threading.active_count()
    serial = list(outputs("serial"))  # 60,000 nulls a comparison: kept whole
    assert not read_aheads and not repasses
    patch_small(monkeypatch, **small)
    assert list(outputs("ahead")) == serial
    assert len(read_aheads) >= len(runs) + 2  # two comparisons in two of the runs
    assert bool(repasses) == (small is MISSING)
    assert threading.active_count() == threads


def small_comparison(monkeypatch, m=200, b=60):
    """A matrix and plan whose null streams, in many tiles."""
    patch_small(monkeypatch, **SMALL)
    matrix = random_matrix(np.random.default_rng(72), m, 5, 5)
    return matrix, PermutationPlan(b, 9)


def test_producer_error_reaches_the_caller(monkeypatch, read_aheads):
    matrix, plan = small_comparison(monkeypatch)
    welch_tiles, made = dfdr.resampling.welch_tiles, []

    def failing(*args):
        for made_tile in welch_tiles(*args):
            if len(made) == 3:
                raise ArithmeticError("in the kernel")
            made.append(made_tile)
            yield made_tile

    monkeypatch.setattr(dfdr.resampling, "welch_tiles", failing)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError, match="in the kernel"):
        build_statistic_set(matrix, "A", "B", plan)
    assert read_aheads and len(made) == 3
    assert threading.active_count() == threads


def test_consumer_error_stops_the_producer(monkeypatch, read_aheads):
    matrix, plan = small_comparison(monkeypatch)
    welch_tiles, made, taken = dfdr.resampling.welch_tiles, [], []
    add = StatisticSet.add

    def counted(*args):
        for made_tile in welch_tiles(*args):
            made.append(made_tile)
            yield made_tile

    def failing(summary, rows, tile):
        if len(taken) == 2:
            raise LookupError("in the summary")
        taken.append(tile)
        add(summary, rows, tile)

    monkeypatch.setattr(dfdr.resampling, "welch_tiles", counted)
    monkeypatch.setattr(StatisticSet, "add", failing)
    threads = threading.active_count()
    with pytest.raises(LookupError, match="in the summary"):
        build_statistic_set(matrix, "A", "B", plan)
    assert threading.active_count() == threads
    # the third tile was refused while the worker made the next AHEAD, its last
    total = -(-plan.n_permutations * matrix.n_features // dfdr.stats.TILE)
    assert read_aheads and len(made) == 3 + dfdr.resampling.AHEAD < total


def test_early_stop_joins_the_producer(monkeypatch):
    matrix, plan = small_comparison(monkeypatch)
    stats = build_statistic_set(matrix, "A", "B", plan)
    threads = threading.active_count()
    tiles = stats.tiles()
    next(tiles)
    assert threading.active_count() == threads + 1
    tiles.close()
    assert threading.active_count() == threads


def test_slow_consumer_sees_no_tile_overwritten(monkeypatch):
    # Each tile is checked as it arrives and again after a pause, by which
    # time the worker has made the next AHEAD: none may reuse its memory.
    matrix, plan = small_comparison(monkeypatch, m=300, b=50)
    table = permutation_null(matrix, "A", "B", plan).reshape(plan.n_permutations, -1)
    stats = build_statistic_set(matrix, "A", "B", plan)
    start = covered = count = 0
    for rows, tile in stats.tiles():
        expected = table[start : start + tile.shape[0], rows]
        np.testing.assert_array_equal(tile, expected)
        time.sleep(0.01)
        np.testing.assert_array_equal(tile, expected)
        covered, count = covered + rows.size, count + 1
        if covered == matrix.n_features:  # a group of splits covers every row
            start, covered = start + tile.shape[0], 0
    assert start == plan.n_permutations and count > 2 * (dfdr.resampling.AHEAD + 1)


def test_concurrent_read_aheads_share_nothing(monkeypatch):
    # three passes at once, each with its own worker (six threads on two
    # CPUs), switching threads every few microseconds: a buffer or hand-off
    # shared between passes would mix their tiles
    matrix, plan = small_comparison(monkeypatch)
    whole = materialised(matrix, plan)
    expected = (whole.exceedances, resolve_pi0(whole, "estimate"))
    results, errors = [], []

    def run():
        try:
            stats = build_statistic_set(matrix, "A", "B", plan)
            results.append((stats.exceedances, resolve_pi0(stats, "estimate")))
        except Exception as error:  # reported by the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runners = [threading.Thread(target=run) for _ in range(3)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners)
    assert not errors and len(results) == 3
    for exceedances, pi0 in results:
        np.testing.assert_array_equal(exceedances, expected[0])
        assert pi0 == expected[1]
