"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; without ``-s`` they appear only for failing tests. The reference-data
reproduction (criterion 8) is skipped unless the public ALL/AML dataset is
available (see README).
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from dfdr import (
    CostBenefit,
    DesirabilityRule,
    DfdrControlRule,
    Pi0Estimate,
    SimulationConfig,
    StatisticSet,
    analytic_dfdr,
    boundary_offset,
    build_replicate_stats,
    common_threshold_weighted,
    control_dfdr,
    dfdr_from_cdfs,
    maximize_desirability,
    measure_error_rates,
    measure_local_dfdr,
    resolve_pi0,
    weighted_dfdr_from_cdfs,
)
from dfdr.cli import main as cli_main
from conftest import FixedThresholdRule, random_statistic_set
from test_decision import brute_force_control, brute_force_maximize

BOUND_P = 0.05  # probability threshold matching cost ratio 19

MAIN_CONFIG = SimulationConfig(
    n_tests=2000,
    pi0=0.8,
    n_a=10,
    n_b=10,
    effect=2.0,
    n_permutations=25,
    replicates=200,
    seed=2024,
)


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


@pytest.fixture(scope="module")
def optimizer_report():
    return measure_error_rates(MAIN_CONFIG, DesirabilityRule(19.0, "estimate"))


@pytest.fixture(scope="module")
def control_report():
    return measure_error_rates(MAIN_CONFIG, DfdrControlRule(0.05, "estimate"))


def test_criterion_1_conditional_probability_bound(optimizer_report):
    report = optimizer_report
    assert report.total_rejections > 0
    se = math.sqrt(BOUND_P * (1.0 - BOUND_P) / report.total_rejections)
    limit = BOUND_P + 3.0 * se
    ok = report.dfdr <= limit
    verdict(
        1,
        "conditional probability bound",
        ok,
        f"pooled false fraction {report.dfdr:.5f} <= {limit:.5f} "
        f"over {report.total_rejections} rejections",
    )
    assert ok


def test_criterion_2_local_boundary_bound(optimizer_report, control_report):
    h_opt = boundary_offset(optimizer_report.outcomes, 0.05)
    boundary_opt = measure_local_dfdr(optimizer_report.outcomes, h_opt)
    assert boundary_opt.rejections > 0
    se = math.sqrt(BOUND_P * (1.0 - BOUND_P) / boundary_opt.rejections)
    limit = BOUND_P + 3.0 * se
    bound_ok = boundary_opt.rate <= limit

    h_ctl = boundary_offset(control_report.outcomes, 0.05)
    boundary_ctl = measure_local_dfdr(control_report.outcomes, h_ctl)
    directional_ok = boundary_ctl.rate > boundary_opt.rate

    ok = bound_ok and directional_ok
    verdict(
        2,
        "local boundary-bin bound",
        ok,
        f"optimizer boundary {boundary_opt.rate:.5f} <= {limit:.5f} "
        f"(n={boundary_opt.rejections}); control boundary {boundary_ctl.rate:.5f} "
        f"exceeds optimizer: {directional_ok}",
    )
    assert bound_ok
    assert directional_ok


def test_criterion_3_optimizer_matches_brute_force():
    rng = np.random.default_rng(333)
    mismatches = 0
    for _ in range(1000):
        stats, nulls = random_statistic_set(rng, max_m=50, max_b=5)
        pi0_value = float(rng.uniform(0.2, 1.0))
        ratio = float(rng.choice([1.0, 19.0, 1e6]))
        alpha = float(rng.choice([0.01, 0.05, 0.2]))

        result = maximize_desirability(
            stats, Pi0Estimate.user(pi0_value), CostBenefit.from_ratio(ratio)
        )
        tau, rejected, dfdr, desir = brute_force_maximize(
            stats.observed.tolist(), nulls.tolist(), pi0_value, 1.0, ratio
        )
        if not (
            result.tau == tau
            and result.rejected.tolist() == rejected
            and result.dfdr == dfdr
            and result.desirability == desir
        ):
            mismatches += 1

        ctl = control_dfdr(stats, Pi0Estimate.user(pi0_value), alpha)
        tau_c, rejected_c, dfdr_c = brute_force_control(
            stats.observed.tolist(), nulls.tolist(), pi0_value, alpha
        )
        if not (ctl.tau == tau_c and ctl.rejected.tolist() == rejected_c and ctl.dfdr == dfdr_c):
            mismatches += 1

    ok = mismatches == 0
    verdict(3, "optimizer vs brute force", ok, f"{mismatches} mismatches in 1000 instances")
    assert mismatches == 0


def test_criterion_4_estimator_identities():
    rng = np.random.default_rng(444)
    worst_uniform = 0.0
    for _ in range(100):
        stats, nulls = random_statistic_set(rng, max_m=40, max_b=4)
        pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
        scale = float(rng.uniform(0.5, 4.0))
        weights = np.full(stats.n_tests, scale)
        # both curves hold every observed value as a candidate tau
        weighted_stats = StatisticSet.from_null(stats.observed, nulls, stats.n_permutations, weights)
        weighted = common_threshold_weighted(weighted_stats, np.zeros(stats.n_tests), pi0).curve
        plain = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0)).curve
        assert weighted.tau.tolist() == plain.tau.tolist()
        worst_uniform = max(worst_uniform, float(np.max(np.abs(weighted.dfdr - plain.dfdr))))
    uniform_ok = worst_uniform <= 1e-12

    from scipy.stats import norm

    worst_mixture = 0.0
    for _ in range(20):
        mu = rng.normal(size=2)
        sd = rng.uniform(0.5, 2.0, size=2)
        mu0 = rng.normal(scale=0.3, size=2)
        sd0 = rng.uniform(0.5, 2.0, size=2)
        w = rng.uniform(0.1, 5.0, size=2)
        pi0_value = float(rng.uniform(0.2, 1.0))
        tau = float(rng.normal())
        f = norm.cdf(tau, loc=mu, scale=sd)
        f0 = norm.cdf(tau, loc=mu0, scale=sd0)
        via_mixture = dfdr_from_cdfs(
            pi0_value,
            float(np.sum(w * f0) / np.sum(w)),
            float(np.sum(w * f) / np.sum(w)),
        )
        via_weights = weighted_dfdr_from_cdfs(pi0_value, f0, f, w)
        worst_mixture = max(worst_mixture, abs(via_mixture - via_weights))
    mixture_ok = worst_mixture <= 1e-12

    ok = uniform_ok and mixture_ok
    verdict(
        4,
        "estimator identities",
        ok,
        f"uniform-weight gap {worst_uniform:.2e}, mixture-identity gap {worst_mixture:.2e}",
    )
    assert uniform_ok
    assert mixture_ok


def test_criterion_5_conservative_estimation():
    config = SimulationConfig(
        n_tests=1000,
        pi0=0.8,
        n_a=10,
        n_b=10,
        effect=2.0,
        n_permutations=20,
        replicates=200,
        seed=505,
    )
    details = []
    all_ok = True
    for tau in (1.5, 2.5, 3.5):
        report = measure_error_rates(
            config, FixedThresholdRule(tau=tau, pi0_mode="estimate")
        )
        estimates = np.array([o.dfdr_estimate for o in report.outcomes])
        truth = analytic_dfdr(config, tau)
        se = float(estimates.std(ddof=1) / math.sqrt(estimates.size))
        ok = estimates.mean() >= truth - 2.0 * se
        all_ok = all_ok and ok
        details.append(f"tau={tau}: mean {estimates.mean():.5f} vs true {truth:.5f}")
    verdict(5, "conservative dFDR estimation", all_ok, "; ".join(details))
    assert all_ok


def test_criterion_6_pi0_calibration():
    pure_null = SimulationConfig(
        n_tests=2000, pi0=1.0, n_a=10, n_b=10, effect=2.0,
        n_permutations=10, replicates=100, seed=606,
    )
    null_values = np.array(
        [
            resolve_pi0(build_replicate_stats(pure_null, r)[0], "estimate").value
            for r in range(pure_null.replicates)
        ]
    )
    null_frac = float(np.mean(null_values >= 0.9))
    null_ok = null_frac >= 0.95

    mixture = SimulationConfig(
        n_tests=2000, pi0=0.6, n_a=10, n_b=10, effect=3.0,
        n_permutations=10, replicates=100, seed=607,
    )
    mix_values = np.array(
        [
            resolve_pi0(build_replicate_stats(mixture, r)[0], "estimate").value
            for r in range(mixture.replicates)
        ]
    )
    mix_frac = float(np.mean((mix_values >= 0.5) & (mix_values <= 0.75)))
    mix_ok = mix_frac >= 0.90

    ok = null_ok and mix_ok
    verdict(
        6,
        "pi0 calibration",
        ok,
        f"pure null >= 0.9 in {null_frac:.0%}; mixture in [0.5, 0.75] in {mix_frac:.0%}",
    )
    assert null_ok
    assert mix_ok


def test_criterion_7_benefit_scaling_invariance():
    rng = np.random.default_rng(777)
    all_ok = True
    for _ in range(100):
        stats, _ = random_statistic_set(rng, max_m=50, max_b=5)
        pi0 = Pi0Estimate.user(float(rng.uniform(0.2, 1.0)))
        base = maximize_desirability(stats, pi0, CostBenefit([1.0], [19.0]))
        scaled = maximize_desirability(stats, pi0, CostBenefit([10.0], [190.0]))
        if base.rejected.tolist() != scaled.rejected.tolist():
            all_ok = False
            break
    # also on full-pipeline replicates
    config = SimulationConfig(
        n_tests=400, pi0=0.8, n_a=8, n_b=8, effect=2.0,
        n_permutations=10, replicates=20, seed=708,
    )
    for r in range(config.replicates):
        stats, _ = build_replicate_stats(config, r)
        pi0 = resolve_pi0(stats, "estimate")
        base = maximize_desirability(stats, pi0, CostBenefit([1.0], [19.0]))
        scaled = maximize_desirability(stats, pi0, CostBenefit([10.0], [190.0]))
        if base.rejected.tolist() != scaled.rejected.tolist():
            all_ok = False
            break
    verdict(7, "benefit scaling invariance", all_ok, "rejected sets identical under x10")
    assert all_ok


GOLUB_DIR = Path(os.environ.get("DFDR_GOLUB_DIR", "data/golub"))


def test_criterion_8_reference_dataset_reproduction(tmp_path):
    matrix_path = GOLUB_DIR / "matrix.tsv"
    labels_path = GOLUB_DIR / "labels.tsv"
    if not (matrix_path.exists() and labels_path.exists()):
        print(
            "ACCEPTANCE 8 (reference dataset reproduction): SKIP "
            f"[public ALL/AML dataset not present (expected at {GOLUB_DIR}; "
            "see README); criterion is explicitly not reproducible without it]"
        )
        pytest.skip(
            "reference dataset reproduction needs the public ALL/AML data; "
            f"place matrix.tsv and labels.tsv under {GOLUB_DIR} or set DFDR_GOLUB_DIR"
        )

    from dfdr import PermutationPlan, build_statistic_set, load_matrix, preprocess

    matrix = preprocess(load_matrix(matrix_path, labels_path))
    plan = PermutationPlan(n_permutations=1000, seed=0)
    stats = build_statistic_set(matrix, "ALL", "AML", plan)
    pi0 = resolve_pi0(stats, "estimate")

    checks = []
    checks.append(("pi0", abs(pi0.value - 0.59) <= 0.06, f"pi0 {pi0.value:.3f}"))

    opt = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))
    checks.append(("maximize tau", abs(opt.tau - 3.14) <= 0.15, f"tau {opt.tau:.3f}"))
    checks.append(
        ("maximize discoveries", abs(opt.n_rejected - 910) <= 91, f"n {opt.n_rejected}")
    )
    checks.append(("maximize dfdr", abs(opt.dfdr - 0.0125) <= 0.006, f"dfdr {opt.dfdr:.4f}"))

    ctl = control_dfdr(stats, pi0, 0.05)
    checks.append(("control dfdr", abs(ctl.dfdr - 0.0500) <= 0.0005, f"dfdr {ctl.dfdr:.4f}"))
    checks.append(
        ("control discoveries", abs(ctl.n_rejected - 1496) <= 150, f"n {ctl.n_rejected}")
    )

    ok = all(c[1] for c in checks)
    verdict(8, "reference dataset reproduction", ok, "; ".join(f"{n}: {d}" for n, d, in [(c[0], c[2]) for c in checks]))
    for name, passed, detail in checks:
        assert passed, f"{name}: {detail}"


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(909)
    values = rng.normal(size=(50, 12))
    values[:10, 6:] += 2.5
    mpath = tmp_path / "matrix.tsv"
    lpath = tmp_path / "labels.tsv"
    subjects = [f"s{j:02d}" for j in range(12)]
    lines = ["\t".join(["feature_id"] + subjects)]
    for i in range(50):
        lines.append("\t".join([f"g{i:03d}"] + [repr(float(v)) for v in values[i]]))
    mpath.write_text("\n".join(lines) + "\n")
    lpath.write_text(
        "".join(f"{s}\t{'A' if j < 6 else 'B'}\n" for j, s in enumerate(subjects))
    )

    argv_base = [
        "analyze", "--matrix", str(mpath), "--labels", str(lpath),
        "--group-a", "A", "--group-b", "B",
        "--cost-ratio", "19", "--permutations", "30", "--seed", "5",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(argv_base + ["--out", str(out1)]) == 0
    assert cli_main(argv_base + ["--out", str(out2)]) == 0

    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("summary.txt", "tests.csv", "curve.csv")
    )

    summary = dict(
        line.split("\t", 1) for line in (out1 / "summary.txt").read_text().splitlines()
    )
    tests_rows = [
        line.split(",") for line in (out1 / "tests.csv").read_text().splitlines()[1:]
    ]
    n_rejected_from_table = sum(1 for row in tests_rows if row[2] == "1")
    curve_rows = {
        line.split(",")[0]: line.split(",")
        for line in (out1 / "curve.csv").read_text().splitlines()[1:]
    }
    row = curve_rows[summary["tau"]]
    consistent = (
        n_rejected_from_table == int(summary["discoveries"])
        and row[1] == summary["desirability"]
        and row[2] == summary["dfdr"]
        and int(row[3]) == int(summary["discoveries"])
    )

    ok = identical and consistent
    verdict(
        9,
        "CLI determinism and self-consistency",
        ok,
        f"byte-identical reruns: {identical}; summary matches per-test table "
        f"and curve: {consistent}",
    )
    assert identical
    assert consistent
