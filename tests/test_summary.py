"""The null summary: a streamed null read like a stored one, in bounded memory.

``build_statistic_set`` never holds the null: its StatisticSet takes it tile
by tile. Every quantity the estimators read must equal the one read from the
same null held whole (``permutation_null``), bit for bit, on every route;
the lambda bracket must hold on the first pass, and recover exactly when it
is forced to miss. A null that streams is dealt in ranges of its
permutations to forked workers, whose sets the caller merges: that must
change no bit whatever the number of workers, and a worker's error must
reach the caller.
"""

import os
import signal
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
    DesirabilityRule,
    PermutationPlan,
    SimulationConfig,
    StatisticSet,
    Subset,
    SubsetPartition,
    ValidationError,
    build_statistic_set,
    common_threshold_weighted,
    control_dfdr,
    maximize_desirability,
    measure_error_rates,
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
def test_per_subset_sets_take_each_null_value_once(size, monkeypatch, cpus):
    # one ordinary pass per subset, over its rows alone: the tiles handed to
    # the sets hold m * B values whatever the number of subsets, two
    # comparisons' m * B when a second compares B with A
    cpus(1)  # every pass in this process, where the spy sees it
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


def test_no_cli_route_holds_a_null(tmp_path, monkeypatch, cpus):
    # a null held whole comes from permutation_null without a summary to feed
    # and reaches a summary only through array_tiles (StatisticSet.from_null);
    # the per-subset route feeds its sets through resampling.null_passes alone
    cpus(1)  # every set built in this process, where the spies see it
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


def test_bounded_memory_at_twenty_thousand_permutations(cpus):
    # 1000 tests x 20,000 permutations: a null of 160 MB if it were held
    cpus(1)  # the whole pass in this process, where tracemalloc sees it
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


# Forked workers: a streamed null (one that its set does not keep whole) is
# dealt in contiguous ranges of its permutations to one process per CPU, each
# range fed to a set of its own that the caller merges; a comparison's
# subsets are dealt one by one. TILE, CAP and MARGIN patched small give
# streamed nulls of many tiles; at CAP 64 and MARGIN 0 each range's bracket
# closes on a value of its own, and lambda takes a further pass.
SMALL = {"tile": 1_000, "cap": 2_048, "margin": 64}
MISSING = {"tile": 100, "cap": 64, "margin": 0}


def patch_small(monkeypatch, tile, cap, margin) -> None:
    monkeypatch.setattr(dfdr.stats, "TILE", tile)
    monkeypatch.setattr(estimators, "CAP", cap)
    monkeypatch.setattr(estimators, "MARGIN", margin)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process; a fork in a worker fails the test."""
    made, fork, caller = [], os.fork, os.getpid()

    def spy():
        if os.getpid() != caller:
            raise AssertionError("a worker forked")
        made.append(caller)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return made


@pytest.fixture
def merges(monkeypatch):
    """(shares, whether the bracket is one value) of each merge in this
    process; a merged set, like any other, keeps at most CAP values."""
    made, merge = [], StatisticSet.merge

    def spy(stats, shares):
        merge(stats, shares)
        assert stats.n_kept <= estimators.CAP
        made.append((len(shares), stats.at is not None))

    monkeypatch.setattr(StatisticSet, "merge", spy)
    return made


def write_worker_inputs(tmp_path) -> list:
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(71), m=300, n_a=6, n_b=9)
    lines = mpath.read_text().splitlines()
    # 180 of 300 rows constant: every range's rank k lies in a run of zeros
    constant = [line.split("\t")[0] + "\t1.5" * 15 for line in lines[1:181]]
    (tmp_path / "constant.tsv").write_text("\n".join(lines[:1] + constant + lines[181:]) + "\n")
    (tmp_path / "classes.tsv").write_text("feature_id\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t{1 + i % 2}\t{19 + i % 3}\n" for i in range(300)))
    (tmp_path / "distinct.tsv").write_text("feature_id\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\t1\t{19 + i / 7!r}\n" for i in range(300)))
    (tmp_path / "seven.tsv").write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i:03d}\ts{i % 7}\tA\tB\t{1 + i % 7 % 2}\t19\n" for i in range(300)))
    return ["--labels", str(lpath), "--group-a", "A", "--group-b", "B", "--permutations", "200"]


# sizes, matrix, further flags (files in the test's directory)
WORKER_CASES = {
    "weights in classes": (SMALL, "matrix", ["--weights", "classes.tsv"]),
    # 60,000 nulls stream, and a half or a third of them is kept whole
    "ranges kept whole": ({"tile": 1_000, "cap": 40_000, "margin": 64}, "matrix", ["--weights", "classes.tsv"]),
    "weights of many values": (SMALL, "matrix", ["--weights", "distinct.tsv"]),
    "unweighted": (SMALL, "matrix", []),
    "a further pass": (MISSING, "matrix", []),
    "a bracket of one value": (SMALL, "constant", []),
    "seven subsets": (None, "matrix", ["--subsets", "seven.tsv", "--min-subset-size", "40"]),
}


@pytest.mark.parametrize("case", WORKER_CASES)
def test_outputs_do_not_depend_on_the_worker_count(case, tmp_path, monkeypatch, cpus, forks,
                                                   merges, repasses):
    small, matrix, extra = WORKER_CASES[case]
    argv = ["analyze", "--matrix", str(tmp_path / f"{matrix}.tsv"), *write_worker_inputs(tmp_path)]
    argv += [str(tmp_path / flag) if flag.endswith(".tsv") else flag for flag in extra]
    if small:
        patch_small(monkeypatch, **small)
    outputs = []
    for n in (1, 2, 3):
        cpus(n)
        for spied in (forks, merges, repasses):
            spied.clear()
        out = tmp_path / f"out{n}"
        assert dfdr.cli.main(argv + ["--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        # the argsort path's float sums follow the tiles' order: one share
        shares = 1 if case == "weights of many values" else n
        assert len(forks) == shares - 1
        if small:  # one streamed null, merged from its shares
            assert [count for count, _ in merges] == [shares]
        assert bool(repasses) == (case == "a further pass")
        if case == "a bracket of one value":
            assert merges == [(n, True)]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert len(outputs[0]) == (21 if case == "seven subsets" else 3)


def test_no_fork_inside_a_share(monkeypatch, cpus, forks, merges):
    # three processes share five replicates whose nulls stream: each null
    # is fed in its replicate's process, as one share
    patch_small(monkeypatch, **SMALL)
    cpus(3)
    config = SimulationConfig(n_tests=200, pi0=0.8, n_permutations=30, replicates=5)
    assert config.n_tests * config.n_permutations > estimators.CAP
    report = measure_error_rates(config, DesirabilityRule(9.0))
    assert len(forks) == 2  # the replicate workers
    assert merges == [(1, False), (1, False)]  # the caller's replicates 0 and 3
    assert report.total_rejections > 0


def drop_below(stats, shares):
    for share in shares:
        share.below[:] = 0
    return MERGE(stats, shares)


def skip_a_row(stats, rows, tile):
    ADD(stats, rows, tile[1:])
    stats.seen += tile.shape[1]


MERGE, ADD = StatisticSet.merge, StatisticSet.add
# a defect that leaves null values untallied, in a merge or in a pass
UNTALLIED = {"merge drops the shares' below": ("merge", drop_below),
             "a pass skips a row of each tile": ("add", skip_a_row)}


@pytest.mark.parametrize("case", UNTALLIED)
def test_untallied_null_values_raise_instead_of_repassing_forever(case, monkeypatch, cpus):
    # _select would look for rank k in repass after repass; the tally check
    # after every pass and merge raises first (exit 3 from the CLI)
    patch_small(monkeypatch, **SMALL)
    cpus(2)
    monkeypatch.setattr(StatisticSet, *UNTALLIED[case])
    rng = np.random.default_rng(76)
    matrix = DataMatrix(rng.normal(size=(300, 15)), [f"g{i}" for i in range(300)],
                        [f"s{j}" for j in range(15)], ["A"] * 6 + ["B"] * 9)

    def too_long(*_):
        raise TimeoutError("lambda still unselected after 30 s")

    previous = signal.signal(signal.SIGALRM, too_long)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        with pytest.raises(RuntimeError, match="tallied"):
            build_statistic_set(matrix, "A", "B", PermutationPlan(200, 0)).lam
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fail_in_a_worker(monkeypatch, act) -> None:
    """Makes every pass of a null that a forked worker feeds start with ``act()``."""
    caller, feed = os.getpid(), StatisticSet.feed

    def spy(stats, tiles):
        if os.getpid() != caller:
            act()
        return feed(stats, tiles)

    monkeypatch.setattr(StatisticSet, "feed", spy)


def test_null_worker_validation_error_exits_2(tmp_path, monkeypatch, cpus, capsys):
    def fail():
        raise ValidationError("the second range failed")

    patch_small(monkeypatch, **SMALL)
    cpus(2)
    fail_in_a_worker(monkeypatch, fail)
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(75), m=100)
    out = tmp_path / "out"
    assert dfdr.cli.main(["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
                          "--group-b", "B", "--permutations", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: the second range failed\n"
    assert not any(out.iterdir())


def test_null_worker_that_dies_is_an_error(monkeypatch, cpus):
    patch_small(monkeypatch, **SMALL)
    cpus(2)
    fail_in_a_worker(monkeypatch, lambda: os._exit(7))
    matrix = random_matrix(np.random.default_rng(76), 100, 5, 5)
    with pytest.raises(RuntimeError, match=r"^worker 1 of 2 ended without its outcomes \(exit status 7\)$"):
        build_statistic_set(matrix, "A", "B", PermutationPlan(100, 1))


@pytest.mark.parametrize("cap", [None, 64], ids=["kept", "streamed"])
def test_memberships_are_built_once_per_comparison(cap, monkeypatch, cpus):
    # four subsets over two comparisons: each comparison's group-A
    # memberships are built with its splits, and every pass slices them (a
    # streamed subset's observed statistics build their one split's own)
    cpus(1)  # every pass in this process, where the spy sees it
    monkeypatch.setattr(estimators, "CAP", cap or estimators.CAP)
    built, memberships = [], dfdr.stats.memberships

    def spy(splits, n_a):
        built.append(len(splits))
        return memberships(splits, n_a)

    monkeypatch.setattr(dfdr.stats, "memberships", spy)
    monkeypatch.setattr(dfdr.resampling, "memberships", spy)
    matrix = random_matrix(np.random.default_rng(77), 60, 5, 6)
    subsets = tuple(Subset(f"{a}{k}", tuple(range(k, 60, 2)), a, b, 1.0, 19.0)
                    for a, b in (("A", "B"), ("B", "A")) for k in (0, 1))
    per_subset_optimize(SubsetPartition(subsets, min_size=1), matrix, PermutationPlan(40, 2))
    # the identity split and 40 permutations, once per comparison
    assert [count for count in built if count > 1] == [41, 41]
    assert built.count(1) == (0 if cap is None else 4)
