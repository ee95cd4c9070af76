import dataclasses
import math
import os
import time

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
    simulation,
)
from dfdr.cli import main
from conftest import FixedThresholdRule, needs_proc_tasks, run_python


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

    def test_replicate_streams_are_the_spawned_children(self):
        # each stream is made directly, the same as spawning both from the
        # replicate's root, so every replicate draws the same data and
        # permutations as before
        config = small_config(seed=17)
        children = np.random.SeedSequence(entropy=17, spawn_key=(4,)).spawn(2)
        for which, child in enumerate(children):
            direct = simulation._stream(config, 4, which)
            assert direct.generate_state(8).tobytes() == child.generate_state(8).tobytes()

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
            assert base.rejected.tolist() == scaled.rejected.tolist()


@pytest.fixture(scope="module")
def report():
    config = small_config(n_tests=800, replicates=20, seed=11)
    return measure_error_rates(config, DesirabilityRule(19.0, "estimate"))


class TestLocalDfdr:
    def test_single_bin_equals_global_rate(self, report):
        # an infinite offset: the bin is the whole region (no +inf sentinels here)
        whole = measure_local_dfdr(report.outcomes, math.inf)
        assert whole.rejections == report.total_rejections
        assert whole.rate == pytest.approx(report.dfdr)

    def test_empty_bin_rate_is_zero(self, report):
        # the rejection at tau* is in every bin, so only a replicate without one leaves it empty
        nothing = dataclasses.replace(
            report.outcomes[0], n_rejected=0, n_false=0,
            rejected_stats=np.zeros(0), rejected_is_null=np.zeros(0, dtype=bool),
        )
        empty = measure_local_dfdr([nothing], 1e9)
        assert empty.rejections == 0
        assert empty.rate == 0.0

    def test_boundary_offset_captures_requested_share(self, report):
        h = boundary_offset(report.outcomes, 0.05)
        assert h > 0
        boundary = measure_local_dfdr(report.outcomes, h)
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

    def test_offset_must_be_positive(self, report):
        for offset in (-1.0, 0.0, math.nan):
            with pytest.raises(ValidationError):
                measure_local_dfdr(report.outcomes, offset)


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


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs worker_count sees, and checks that every worker
    has been reaped when the test ends."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield set_cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_bitwise_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for f in dataclasses.fields(simulation.ReplicateOutcome):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert type(x) is type(y), f.name
            assert np.asarray(x).dtype == np.asarray(y).dtype, f.name
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), f.name


def failing_replicates(monkeypatch, fail):
    """Makes replicate r run ``fail(r)`` before its outcome, in whichever
    process runs it."""
    outcome = simulation._replicate_outcome

    def patched(config, replicate, rule):
        fail(replicate)
        return outcome(config, replicate, rule)

    monkeypatch.setattr(simulation, "_replicate_outcome", patched)


class TestReplicateWorkers:
    """The replicates split over forked workers: replicate r runs in worker r % W."""

    def test_one_worker_per_cpu_at_most_one_per_replicate(self, cpus):
        cpus(3)
        assert [simulation.worker_count(n) for n in (1, 2, 3, 200)] == [1, 2, 3, 3]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outcomes_do_not_depend_on_the_worker_count(self, cpus, workers):
        # 7 replicates: no worker count above 1 divides them
        config = small_config(n_tests=200, replicates=7)
        rule = DesirabilityRule(9.0, "estimate")
        serial = [simulation._replicate_outcome(config, r, rule) for r in range(7)]
        assert sum(o.n_rejected for o in serial) > 0
        cpus(workers)
        assert simulation.worker_count(7) == workers
        assert_bitwise_equal(simulation._outcomes(config, rule), serial)

    def test_another_thread_keeps_the_replicates_in_the_caller(self, cpus):
        import threading

        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert simulation.worker_count(4) == 1
        finally:
            release.set()
            other.join()
        assert simulation.worker_count(4) == 2

    @needs_proc_tasks
    def test_cli_forks_beside_no_other_os_thread(self, tmp_path):
        # an OpenBLAS pool would be such a thread from the import of numpy on;
        # Python 3.12 and later warn on a fork beside one
        code = (
            "import os, sys\n"
            "import dfdr.cli\n"
            "tasks, fork = [], os.fork\n"
            "def recording_fork():\n"
            "    tasks.append(len(os.listdir('/proc/self/task')))\n"
            "    return fork()\n"
            "os.fork = recording_fork\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "assert dfdr.cli.main(sys.argv[1:]) == 0\n"
            "print(tasks)\n"
        )
        argv = ["simulate", "--m", "200", "--replicates", "6", "--permutations", "5",
                "--out", str(tmp_path)]
        out = run_python(code, *argv, env={"OPENBLAS_NUM_THREADS": "2"})
        assert out.splitlines()[-1] == "[1, 1]"  # two workers, each forked from one thread

    @pytest.mark.parametrize("error", [ValidationError, AssertionError, KeyError])
    def test_worker_error_reaches_the_caller(self, cpus, monkeypatch, error):
        def fail(replicate):
            if replicate == 3:  # worker 1 of 2
                raise error(f"replicate {replicate} failed")

        cpus(2)
        failing_replicates(monkeypatch, fail)
        with pytest.raises(error) as raised:
            measure_error_rates(small_config(replicates=4), FixedThresholdRule(tau=2.0))
        assert str(raised.value) == str(error("replicate 3 failed"))

    def test_unpicklable_worker_error_is_named(self, cpus, monkeypatch):
        def fail(replicate):
            if replicate == 1:
                error = ValueError("replicate 1 failed")
                error.hook = lambda: None  # pickle cannot send it
                raise error

        cpus(2)
        failing_replicates(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="^ValueError: replicate 1 failed$"):
            measure_error_rates(small_config(replicates=2), FixedThresholdRule(tau=2.0))

    def test_worker_validation_error_exits_2(self, cpus, monkeypatch, tmp_path, capsys):
        def fail(replicate):
            if replicate == 1:
                raise ValidationError("replicate 1 failed")

        cpus(2)
        failing_replicates(monkeypatch, fail)
        out = tmp_path / "sim"
        args = ["simulate", "--m", "50", "--replicates", "2", "--permutations", "5"]
        assert main(args + ["--out", str(out)]) == 2
        assert "replicate 1 failed" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_worker_that_dies_is_an_error(self, cpus, monkeypatch):
        def fail(replicate):
            if replicate == 1:
                os._exit(7)

        cpus(2)
        failing_replicates(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="worker 1 of 2 ended without its outcomes"):
            measure_error_rates(small_config(replicates=2), FixedThresholdRule(tau=2.0))

    @pytest.mark.parametrize("worker", ["computing", "blocked on a full pipe"])
    def test_caller_error_stops_the_workers(self, cpus, monkeypatch, worker):
        # the workers would run for a minute, or block writing outcomes far
        # larger than a pipe holds; the caller's error must not wait for them
        big = np.zeros(1 << 18)

        def fail(replicate):
            if replicate % 3 == 0:  # the caller's share
                time.sleep(0.2)
                raise ValidationError("the caller failed")
            if worker == "computing":
                time.sleep(60)

        def outcome(config, replicate, rule):
            fail(replicate)
            return simulation.ReplicateOutcome(0.0, 0.0, 1.0, 0, 0, big, big.astype(bool))

        cpus(3)
        monkeypatch.setattr(simulation, "_replicate_outcome", outcome)
        start = time.monotonic()
        with pytest.raises(ValidationError, match="the caller failed"):
            measure_error_rates(small_config(replicates=6), FixedThresholdRule(tau=2.0))
        assert time.monotonic() - start < 30
