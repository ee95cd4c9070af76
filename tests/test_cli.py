import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfdr import (
    CostBenefit,
    PermutationPlan,
    build_statistic_set,
    load_matrix,
    maximize_desirability,
    resolve_pi0,
)
from dfdr.cli import main


def write_fixture(tmp_path, rng, m=40, n_a=5, n_b=5, shifted=8, shift=2.5):
    values = rng.normal(size=(m, n_a + n_b))
    values[:shifted, n_a:] += shift
    mpath = tmp_path / "matrix.tsv"
    lpath = tmp_path / "labels.tsv"
    subjects = [f"s{j:02d}" for j in range(n_a + n_b)]
    lines = ["\t".join(["feature_id"] + subjects)]
    for i in range(m):
        lines.append("\t".join([f"g{i:03d}"] + [repr(float(v)) for v in values[i]]))
    mpath.write_text("\n".join(lines) + "\n")
    lpath.write_text(
        "".join(
            f"{s}\t{'A' if j < n_a else 'B'}\n" for j, s in enumerate(subjects)
        )
    )
    return mpath, lpath


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("\t", 1)
        out[key] = value
    return out


@pytest.fixture
def fixture_paths(tmp_path):
    rng = np.random.default_rng(100)
    return write_fixture(tmp_path, rng)


class TestAnalyze:
    def run(self, mpath, lpath, out, extra=()):
        argv = [
            "analyze",
            "--matrix", str(mpath),
            "--labels", str(lpath),
            "--group-a", "A",
            "--group-b", "B",
            "--permutations", "20",
            "--seed", "7",
            "--out", str(out),
            *extra,
        ]
        return main(argv)

    def test_outputs_match_library_pipeline(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out = tmp_path / "run1"
        assert self.run(mpath, lpath, out, ["--cost-ratio", "19"]) == 0

        matrix = load_matrix(mpath, lpath)
        stats = build_statistic_set(matrix, "A", "B", PermutationPlan(20, 7))
        pi0 = resolve_pi0(stats, "estimate")
        expected = maximize_desirability(stats, pi0, CostBenefit.from_ratio(19.0))

        summary = read_summary(out / "summary.txt")
        assert float(summary["tau"]) == pytest.approx(expected.tau)
        assert int(summary["discoveries"]) == expected.n_rejected
        assert float(summary["dfdr"]) == pytest.approx(expected.dfdr, rel=1e-9)
        assert float(summary["pi0"]) == pytest.approx(pi0.value, rel=1e-9)

        tests_lines = (out / "tests.csv").read_text().splitlines()
        assert tests_lines[0] == "feature_id,statistic,rejected"
        assert len(tests_lines) == 41
        rejected_ids = {
            line.split(",")[0] for line in tests_lines[1:] if line.split(",")[2] == "1"
        }
        assert rejected_ids == {matrix.feature_ids[i] for i in expected.rejected}

    def test_byte_identical_reruns(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        self.run(mpath, lpath, out1, ["--p-threshold", "0.05"])
        self.run(mpath, lpath, out2, ["--p-threshold", "0.05"])
        for name in ("summary.txt", "tests.csv", "curve.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_summary_self_consistent_with_curve(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out = tmp_path / "run"
        self.run(mpath, lpath, out, ["--cost-ratio", "19"])
        summary = read_summary(out / "summary.txt")
        curve_lines = (out / "curve.csv").read_text().splitlines()[1:]
        by_tau = {line.split(",")[0]: line.split(",") for line in curve_lines}
        row = by_tau[summary["tau"]]
        assert row[1] == summary["desirability"]
        assert row[2] == summary["dfdr"]
        assert int(row[3]) == int(summary["discoveries"])
        # desirability recomputes from dfdr and count at the summary precision
        ratio = float(summary["cost_ratio"])
        recomputed = (1.0 - (1.0 + ratio) * float(summary["dfdr"])) * int(
            summary["discoveries"]
        )
        assert recomputed == pytest.approx(float(summary["desirability"]), rel=1e-9)

    def test_control_mode(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out = tmp_path / "ctrl"
        assert self.run(mpath, lpath, out, ["--mode", "control", "--alpha", "0.05"]) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["dfdr"]) <= 0.05
        assert summary["alpha"] == "0.05"

    def test_preprocess_flag_changes_statistics(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out1, out2 = tmp_path / "plain", tmp_path / "prep"
        rc = self.run(mpath, lpath, out1, ["--cost-ratio", "19"])
        assert rc == 0
        rc = self.run(mpath, lpath, out2, ["--cost-ratio", "19", "--preprocess"])
        assert rc == 0
        assert (out1 / "tests.csv").read_text() != (out2 / "tests.csv").read_text()

    def test_pi0_one_mode(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out = tmp_path / "one"
        self.run(mpath, lpath, out, ["--cost-ratio", "19", "--pi0", "one"])
        summary = read_summary(out / "summary.txt")
        assert summary["pi0"] == "1"
        assert summary["pi0_mode"] == "fixed-one"

    def test_pi0_user_value(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        out = tmp_path / "user"
        self.run(mpath, lpath, out, ["--cost-ratio", "19", "--pi0", "0.59"])
        summary = read_summary(out / "summary.txt")
        assert summary["pi0"] == "0.59"
        assert summary["pi0_mode"] == "user-supplied"

    def test_pi0_garbage_is_usage_error(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        rc = self.run(mpath, lpath, tmp_path / "x", ["--pi0", "most"])
        assert rc == 1

    def test_usage_error_on_conflicting_flags(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        rc = self.run(
            mpath, lpath, tmp_path / "x",
            ["--cost-ratio", "19", "--p-threshold", "0.05"],
        )
        assert rc == 1

    def test_usage_error_alpha_in_maximize(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        assert self.run(mpath, lpath, tmp_path / "x", ["--alpha", "0.05"]) == 1

    def test_data_error_on_missing_file(self, tmp_path):
        rc = main([
            "analyze", "--matrix", str(tmp_path / "none.tsv"),
            "--labels", str(tmp_path / "none2.tsv"),
            "--group-a", "A", "--group-b", "B", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_data_error_on_bad_matrix(self, fixture_paths, tmp_path):
        mpath, lpath = fixture_paths
        mpath.write_text(mpath.read_text().replace("g001", "g000"))
        assert self.run(mpath, lpath, tmp_path / "o") == 2


class TestAnalyzePvalues:
    def test_maximize_over_pvalues(self, tmp_path):
        ppath = tmp_path / "p.txt"
        ppath.write_text("0.01\n0.04\n0.2\n0.9\n")
        out = tmp_path / "out"
        rc = main([
            "analyze", "--pvalues", str(ppath),
            "--cost-ratio", "19", "--pi0", "one",
            "--out", str(out),
        ])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["tau"]) == 0.01
        assert int(summary["discoveries"]) == 1
        assert float(summary["dfdr"]) == pytest.approx(0.04)
        assert float(summary["desirability"]) == pytest.approx(0.2)

    def test_pvalues_conflict_with_matrix(self, tmp_path):
        ppath = tmp_path / "p.txt"
        ppath.write_text("0.5\n")
        rc = main([
            "analyze", "--pvalues", str(ppath), "--matrix", "m.tsv",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_out_of_range_pvalue_is_data_error(self, tmp_path):
        ppath = tmp_path / "p.txt"
        ppath.write_text("0.5\n1.5\n")
        rc = main(["analyze", "--pvalues", str(ppath), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_non_numeric_pvalue_row_counts_blank_lines(self, tmp_path, capsys):
        ppath = tmp_path / "p.txt"
        ppath.write_text("0.1\n\n   \n0.2\n abc \n0.3\n")
        rc = main(["analyze", "--pvalues", str(ppath), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {ppath}: row 5: non-numeric p-value 'abc'\n"
        )

    def test_nan_pvalue_is_out_of_range_at_its_index(self, tmp_path, capsys):
        ppath = tmp_path / "p.txt"
        ppath.write_text("0.1\n\n0.2\nnan\n0.3\n")
        rc = main(["analyze", "--pvalues", str(ppath), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "data error: p-value out of [0, 1] at index 2: nan\n"


class TestAnalyzeSubsetsAndWeights:
    def test_subsets_run_per_subset(self, tmp_path):
        rng = np.random.default_rng(101)
        mpath, lpath = write_fixture(tmp_path, rng, m=30)
        spath = tmp_path / "subsets.tsv"
        rows = ["feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost"]
        for i in range(30):
            name = "low" if i < 15 else "high"
            benefit = 1.0 if i < 15 else 2.0
            rows.append(f"g{i:03d}\t{name}\tA\tB\t{benefit}\t19.0")
        spath.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B",
            "--subsets", str(spath), "--min-subset-size", "10",
            "--permutations", "10", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 0
        assert (out / "summary_low.txt").exists()
        assert (out / "summary_high.txt").exists()
        assert (out / "tests_low.csv").exists()
        assert (out / "curve_high.csv").exists()
        low = read_summary(out / "summary_low.txt")
        assert low["subset"] == "low"
        assert low["benefit"] == "1"

    def test_weights_common_threshold(self, tmp_path):
        rng = np.random.default_rng(102)
        mpath, lpath = write_fixture(tmp_path, rng, m=25)
        wpath = tmp_path / "weights.tsv"
        rows = ["feature_id\tbenefit\tcost"]
        rows += [f"g{i:03d}\t1.0\t19.0" for i in range(25)]
        wpath.write_text("\n".join(rows) + "\n")
        out = tmp_path / "wout"
        rc = main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B",
            "--weights", str(wpath), "--permutations", "10", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == 0
        summary = read_summary(out / "summary.txt")
        assert summary["weighted"] == "true"

    def test_subsets_and_weights_conflict(self, tmp_path):
        rng = np.random.default_rng(103)
        mpath, lpath = write_fixture(tmp_path, rng, m=10)
        rc = main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B",
            "--subsets", "s.tsv", "--weights", "w.tsv",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def run_with(self, tmp_path, flag, text):
        rng = np.random.default_rng(104)
        mpath, lpath = write_fixture(tmp_path, rng, m=10)
        path = tmp_path / "table.tsv"
        path.write_text(text)
        return main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B", flag, str(path),
            "--permutations", "5", "--out", str(tmp_path / "o"),
        ])

    @pytest.mark.parametrize("flag", ["--weights", "--subsets"])
    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_empty_table_is_data_error(self, tmp_path, capsys, flag, text):
        assert self.run_with(tmp_path, flag, text) == 2
        assert "empty file" in capsys.readouterr().err

    def test_duplicate_weights_row_is_data_error(self, tmp_path, capsys):
        rows = ["feature_id\tbenefit\tcost"] + [f"g{i:03d}\t1\t19" for i in range(10)]
        rows.insert(6, "g002\t2\t19")
        assert self.run_with(tmp_path, "--weights", "\n".join(rows) + "\n") == 2
        assert "rows 4 and 7 both give feature 'g002'" in capsys.readouterr().err


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--m", "50", "--replicates", "2", "--boundary-fraction", "2"],
             "--boundary-fraction"),
            (["simulate", "--m", "50", "--replicates", "2", "--mode", "control", "--alpha", "nan"],
             "--alpha"),
            (["simulate", "--m", "50", "--replicates", "2", "--cost-ratio", "nan"], "--cost-ratio"),
            (["analyze", "--mode", "control", "--alpha", "nan"], "--alpha"),
            (["analyze", "--cost-ratio", "nan"], "--cost-ratio"),
            (["analyze", "--cost-ratio", "inf"], "--cost-ratio"),
            (["analyze", "--p-threshold", "nan"], "--p-threshold"),
        ],
        ids=["sim-fraction", "sim-alpha-nan", "sim-cost-nan", "alpha-nan", "cost-nan", "cost-inf",
             "p-nan"],
    )
    def test_bad_value_is_usage_error_before_any_output(self, fixture_paths, tmp_path, capsys,
                                                        argv, flag):
        mpath, lpath = fixture_paths
        if argv[0] == "analyze":
            argv = argv + ["--matrix", str(mpath), "--labels", str(lpath),
                           "--group-a", "A", "--group-b", "B", "--permutations", "5"]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} ")
        assert not out.exists() or not any(out.iterdir())

    def test_negative_simulate_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: seed must be a nonnegative integer\n"
        assert not out.exists() or not any(out.iterdir())

    def test_group_compared_with_itself_is_data_error(self, fixture_paths, tmp_path, capsys):
        mpath, lpath = fixture_paths
        out = tmp_path / "out"
        assert main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "A", "--permutations", "5", "--out", str(out),
        ]) == 2
        assert "'A' cannot be compared with itself" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_subset_compared_with_itself_is_data_error(self, fixture_paths, tmp_path, capsys):
        mpath, lpath = fixture_paths
        spath = tmp_path / "subsets.tsv"
        rows = ["feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost"]
        rows += [f"g{i:03d}\tlow\tA\tB\t1\t19" for i in range(20)]
        rows += [f"g{i:03d}\tsame\tB\tB\t1\t19" for i in range(20, 40)]
        spath.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B", "--subsets", str(spath),
            "--min-subset-size", "10", "--permutations", "5", "--out", str(out),
        ]) == 2
        assert "'B' cannot be compared with itself" in capsys.readouterr().err
        assert not any(out.iterdir())


def test_cli_runs_with_scipy_blocked(fixture_paths, tmp_path):
    # numpy is the one runtime dependency: analyze and simulate run with
    # every import of scipy failing
    mpath, lpath = fixture_paths
    runs = [
        ["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
         "--group-b", "B", "--permutations", "10", "--out", str(tmp_path / "analyze")],
        ["simulate", "--m", "100", "--replicates", "3", "--permutations", "5",
         "--out", str(tmp_path / "simulate")],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import dfdr.cli\n"
        "sys.exit(max(dfdr.cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "analyze" / "summary.txt").exists()
    assert (tmp_path / "simulate" / "report.txt").exists()


def test_import_leaves_scipy_unloaded():
    # scipy is needed only by the analytic CDFs of the simulation oracle
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, dfdr.cli; print('scipy.stats' in sys.modules, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


class TestMemoryCheck:
    """Each route counts what grows with the permutations, at the exact byte boundary.

    The null is never held: its summary takes it tile by tile. What grows
    with the number of permutations is the permutations themselves. 40 tests
    x 10 subjects x 100 permutations: the permutations are 8,000 bytes and
    the matrix 3,200.
    """

    @staticmethod
    def refused_below(monkeypatch, capsys, args, need, out):
        import dfdr.resampling

        monkeypatch.setattr(dfdr.resampling, "physical_memory", lambda: need - 1)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "physical memory" in err and "--permutations" in err
        assert not out.exists() or not any(out.iterdir())  # nothing written
        monkeypatch.setattr(dfdr.resampling, "physical_memory", lambda: need)
        assert main(args) == 0

    @staticmethod
    def analyze_args(tmp_path, seed, *extra):
        mpath, lpath = write_fixture(tmp_path, np.random.default_rng(seed), m=40)
        return [
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B", "--permutations", "100",
            *extra, "--out", str(tmp_path / "out"),
        ]

    def test_null_too_large_for_memory_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        args = self.analyze_args(tmp_path, 120)
        self.refused_below(monkeypatch, capsys, args, 8_000 + 3_200, tmp_path / "out")

    def test_weights_count_the_permutations_alone(self, tmp_path, monkeypatch, capsys):
        wpath = tmp_path / "weights.tsv"
        wpath.write_text(
            "feature_id\tbenefit\tcost\n" + "".join(f"g{i:03d}\t1\t19\n" for i in range(40))
        )
        args = self.analyze_args(tmp_path, 121, "--weights", str(wpath))
        self.refused_below(monkeypatch, capsys, args, 8_000 + 3_200, tmp_path / "out")

    def test_subsets_count_the_permutations_alone(self, tmp_path, monkeypatch, capsys):
        spath = tmp_path / "subsets.tsv"
        rows = ["feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost"]
        rows += [f"g{i:03d}\t{'low' if i < 20 else 'high'}\tA\tB\t1\t19" for i in range(40)]
        spath.write_text("\n".join(rows) + "\n")
        args = self.analyze_args(
            tmp_path, 122, "--subsets", str(spath), "--min-subset-size", "10"
        )
        # one summary per subset, but no null and no slice of one
        self.refused_below(monkeypatch, capsys, args, 8_000 + 3_200, tmp_path / "out")

    def test_simulate_checks_one_replicate_before_any_runs(self, tmp_path, monkeypatch, capsys):
        import dfdr.cli
        import dfdr.resampling

        # 50 tests x 20 subjects: permutations 16,000 bytes, matrix 8,000,
        # for each replicate run at once
        for at_once in (1, 2):
            out = tmp_path / f"sim{at_once}"
            args = [
                "simulate", "--m", "50", "--replicates", "2", "--permutations", "100",
                "--out", str(out),
            ]
            monkeypatch.setattr(dfdr.cli, "worker_count", lambda replicates: at_once)
            self.refused_below(monkeypatch, capsys, args, at_once * (16_000 + 8_000), out)
        # permutations far beyond memory are refused before anything is allocated
        monkeypatch.setattr(dfdr.resampling, "physical_memory", lambda: 2**30)
        args[args.index("100")] = "2000000000"
        args[-1] = str(tmp_path / "sim-large")
        assert main(args) == 2
        assert "lower --permutations" in capsys.readouterr().err
        assert not (tmp_path / "sim-large").exists()  # nothing written


class TestSimulate:
    def test_report_written_with_verdicts(self, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--m", "200", "--pi0-true", "0.8", "--delta", "2.5",
            "--replicates", "5", "--permutations", "8", "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0
        text = (out / "report.txt").read_text()
        assert "check\tpooled_bound\t" in text
        assert "dfdr\t" in text

    def test_zero_replicates_is_usage_error(self, tmp_path):
        rc = main(["simulate", "--replicates", "0", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_deterministic_report(self, tmp_path):
        args = [
            "simulate", "--m", "100", "--replicates", "3", "--permutations", "5",
            "--seed", "9",
        ]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a/report.txt").read_bytes() == (tmp_path / "b/report.txt").read_bytes()

    def test_rule_rejecting_nothing_gives_zero_report(self, tmp_path):
        # pure null plus an enormous cost ratio: the optimizer never rejects
        # (seed pinned to a run where no replicate's top statistic clears the
        # whole permutation null)
        out = tmp_path / "null"
        rc = main([
            "simulate", "--m", "150", "--pi0-true", "1.0",
            "--cost-ratio", "1000000000",
            "--replicates", "4", "--permutations", "6", "--seed", "0",
            "--out", str(out),
        ])
        assert rc == 0
        report = dict(
            line.split("\t", 1)
            for line in (out / "report.txt").read_text().splitlines()
            if not line.startswith("check")
        )
        assert report["fdr"] == "0"
        assert report["dfdr"] == "0"
        assert report["pfdr"] == "undefined"
        assert report["pfp"] == "undefined"
        assert report["total_rejections"] == "0"
        assert "check\tpooled_bound\tPASS" in (out / "report.txt").read_text()

    def test_degenerate_boundary_bin_does_not_crash(self, tmp_path):
        # seed where the only rejections are single top statistics sitting
        # exactly at their thresholds: no boundary bin exists, but the run
        # must still complete and report the pooled check
        out = tmp_path / "degen"
        rc = main([
            "simulate", "--m", "150", "--pi0-true", "1.0",
            "--cost-ratio", "1000000000",
            "--replicates", "4", "--permutations", "6", "--seed", "13",
            "--out", str(out),
        ])
        assert rc == 0
        text = (out / "report.txt").read_text()
        assert "check\tpooled_bound\t" in text
        assert "boundary_offset" not in text


class TestReproduce:
    def test_missing_files_give_guidance(self, tmp_path, capsys):
        rc = main([
            "reproduce", "--matrix", str(tmp_path / "golub.tsv"),
            "--labels", str(tmp_path / "labels.tsv"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Golub" in err
        assert "tab-separated" in err

    def test_runs_on_synthetic_stand_in(self, tmp_path, capsys):
        # not the real dataset: only exercises the four-configuration flow
        rng = np.random.default_rng(104)
        values = np.abs(rng.normal(2.0, 0.5, size=(60, 12))) + 0.5
        values[:10, 6:] *= 2.0
        mpath = tmp_path / "m.tsv"
        lpath = tmp_path / "l.tsv"
        subjects = [f"s{j}" for j in range(12)]
        lines = ["\t".join(["feature_id"] + subjects)]
        for i in range(60):
            lines.append("\t".join([f"g{i}"] + [repr(float(v)) for v in values[i]]))
        mpath.write_text("\n".join(lines) + "\n")
        lpath.write_text(
            "".join(f"{s}\t{'ALL' if j < 6 else 'AML'}\n" for j, s in enumerate(subjects))
        )
        out = tmp_path / "rep"
        rc = main([
            "reproduce", "--matrix", str(mpath), "--labels", str(lpath),
            "--permutations", "10", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        text = (out / "comparison.csv").read_text()
        assert "maximize/pi0=estimate" in text
        assert "control/pi0=one" in text
        stdout = capsys.readouterr().out
        assert "reference" in stdout

        out2 = tmp_path / "rep2"
        assert main([
            "reproduce", "--matrix", str(mpath), "--labels", str(lpath),
            "--permutations", "10", "--seed", "2", "--out", str(out2),
        ]) == 0
        assert (out / "comparison.csv").read_bytes() == (out2 / "comparison.csv").read_bytes()

    def test_group_t_second_comparison_matches_two_subset_run(self, tmp_path):
        from dfdr import (
            PermutationPlan, Subset, SubsetPartition, load_matrix, per_subset_optimize, preprocess,
        )

        rng = np.random.default_rng(105)
        values = np.abs(rng.normal(2.0, 0.5, size=(60, 15))) + 0.5
        values[:10, 6:] *= 2.0
        mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.tsv"
        subjects = [f"s{j}" for j in range(15)]
        tags = ["ALL"] * 6 + ["AML"] * 5 + ["TALL"] * 4
        lines = ["\t".join(["feature_id"] + subjects)]
        lines += ["\t".join([f"g{i}"] + [repr(float(v)) for v in values[i]]) for i in range(60)]
        mpath.write_text("\n".join(lines) + "\n")
        lpath.write_text("".join(f"{s}\t{t}\n" for s, t in zip(subjects, tags)))
        out = tmp_path / "rep"
        assert main([
            "reproduce", "--matrix", str(mpath), "--labels", str(lpath), "--group-t", "TALL",
            "--permutations", "10", "--seed", "3", "--out", str(out),
        ]) == 0
        second = {
            row.split(",")[1]: row.split(",")[2]
            for row in (out / "comparison.csv").read_text().splitlines()
            if row.startswith("second-comparison,")
        }
        # the per-subset run over both comparisons, as first defined
        matrix = preprocess(load_matrix(mpath, lpath))
        rows = tuple(range(60))
        partition = SubsetPartition(subsets=(
            Subset("first", rows, "ALL", "AML", 1.0, 19.0),
            Subset("second", rows, "ALL", "TALL", 2.0, 19.0),
        ))
        expected = per_subset_optimize(partition, matrix, PermutationPlan(10, 3))[1].result
        assert second == {
            "tau": format(expected.tau, ".12g"),
            "discoveries": str(expected.n_rejected),
            "dfdr": format(expected.dfdr, ".12g"),
        }
