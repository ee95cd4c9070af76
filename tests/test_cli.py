import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dfdr.decision
import dfdr.estimators
import dfdr.resampling
from dfdr import (
    CostBenefit,
    PermutationPlan,
    build_statistic_set,
    load_matrix,
    maximize_desirability,
    resolve_pi0,
)
from dfdr.cli import main
from dfdr.data import read_table, read_text
from dfdr.errors import ParseError
from conftest import PRINT_TASKS, needs_proc_tasks, oracle_table, run_python


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


def test_subnormal_constant_row_warns_nothing(tmp_path, capsys):
    # every cell 5e-324: the row's midrange rounds to 0 and its spread to
    # below 0, whose square root is NaN until the statistic is set to 0
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(107), m=30)
    lines = mpath.read_text().splitlines()
    lines[6] = "\t".join(["g005"] + ["5e-324"] * 10)
    mpath.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
                     "--group-b", "B", "--permutations", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "g005,0,0\n" in (out / "tests.csv").read_text()


def read_pvalues(path):
    """The p-values of a file, as ``analyze --pvalues`` reads them."""
    return read_table(path, 1, 0)[2][:, 0]


def referenceread_pvalues(path):
    """The oracle's p-values on the whole text: the values of the non-blank
    lines of ``str.splitlines``, and the error of the first one float() rejects."""
    return oracle_table(path, 1, 0)[2][:, 0]


def separated(rng, n, separators, bad_at=None):
    """n p-values in repr, each followed by a separator drawn from ``separators``."""
    cells = [repr(v) for v in rng.random(n).tolist()]
    if bad_at is not None:
        cells[bad_at] = "0.5x"
    return "".join(c + separators[i] for c, i in zip(cells, rng.integers(len(separators), size=n)))


class TestReadPvalues:
    """The reader splits lines as ``str.splitlines`` splits the whole text."""

    @pytest.mark.parametrize(
        "text, values",
        [
            ("0.1\x0c0.2\x0c0.3\n", [0.1, 0.2, 0.3]),
            ("0.1\x1c0.2\n0.3\x1c", [0.1, 0.2, 0.3]),
            ("0.1\u20280.2\u2029 0.3\n", [0.1, 0.2, 0.3]),
            ("0.1\x0b0.2\x850.3\x1d0.4\x1e0.5", [0.1, 0.2, 0.3, 0.4, 0.5]),
            ("0.1\r\n0.2\r\n\r\n0.3\r\n", [0.1, 0.2, 0.3]),
            ("0.1\r0.2\r", [0.1, 0.2]),
            ("\n0.1\n\n   \n\t\n0.2 \n\n", [0.1, 0.2]),
            ("", []),
        ],
        ids=["formfeed", "file-sep", "line-sep", "vt-nel-gs-rs", "crlf", "cr", "blank", "empty"],
    )
    def test_values(self, tmp_path, text, values):
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode("utf-8"))
        got = read_pvalues(path)
        assert got.dtype == np.float64 and got.tolist() == values
        assert got.tobytes() == referenceread_pvalues(path).tobytes()

    @pytest.mark.parametrize(
        "text, row, cell",
        [
            ("0.1\x0cx\n0.2\n", 2, "x"),
            ("0.1\n\x1c\x1cabc\n", 4, "abc"),
            ("0.1\u2028\u20280.5 oops\n", 3, "0.5 oops"),
            ("0.1\r\n\r\n bad\r\n0.2\r\n", 3, "bad"),
            ("0.1\n \t\n\n-\n", 4, "-"),
        ],
        ids=["formfeed", "file-sep", "line-sep", "crlf", "blank"],
    )
    def test_bad_cell_row(self, tmp_path, text, row, cell):
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode("utf-8"))
        message = f"{path}: row {row}, column 1: non-numeric cell {cell!r}"
        with pytest.raises(ParseError) as got:
            read_pvalues(path)
        assert str(got.value) == message
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            referenceread_pvalues(path)

    @pytest.mark.parametrize("text", ["0.1\t0.2\n0.3\t0.4\n", "0.1\t\n"], ids=["two-columns", "trailing-tab"])
    def test_a_tab_makes_a_second_cell(self, tmp_path, text):
        # np.loadtxt reads a table of two columns, which is one too many
        path = tmp_path / "p.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=r": row 1: expected 1 fields, got 2$"):
            read_pvalues(path)

    @pytest.mark.parametrize("bad_at", [None, 2900, 11990])
    def test_long_file_across_pieces(self, tmp_path, bad_at):
        # about 240 KB: every kind of line end falls on some piece boundary
        text = separated(np.random.default_rng(17), 12_000, ["\n", "\r\n", "\r", "\x0c",
                                                             "\u2028", "\n\n", " \x1c"], bad_at)
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode("utf-8"))
        if bad_at is None:
            assert read_pvalues(path).tobytes() == referenceread_pvalues(path).tobytes()
            return
        with pytest.raises(ParseError) as want:
            referenceread_pvalues(path)
        with pytest.raises(ParseError) as got:
            read_pvalues(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\u2028"], ids=repr)
    @pytest.mark.parametrize("at", [2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1])
    def test_line_end_at_piece_boundary(self, tmp_path, sep, at):
        # the reader takes 2**16 characters and the rest of their line at a time
        head = "0.25\n" * 13_000
        text = head + "0." + "1" * (at - len(head) - 2) + sep + "0.75\n"
        assert text.index(sep) == at
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode("utf-8"))
        got = read_pvalues(path)
        assert got.size == 13_002 and got[-1] == 0.75
        assert got.tobytes() == referenceread_pvalues(path).tobytes()

    def test_bytes_not_utf8_raise_as_from_the_whole_text(self, tmp_path):
        # a bad cell before the bad byte: the decoding error still wins
        path = tmp_path / "p.txt"
        path.write_bytes(b"0.5\nx\n0.1\xff\n")
        with pytest.raises(ParseError) as want:
            read_text(path)
        with pytest.raises(ParseError) as got:
            read_pvalues(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("not UTF-8 text: byte 0xff at offset 9")


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
            f"data error: {ppath}: row 5, column 1: non-numeric cell 'abc'\n"
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

    def test_weighted_run_checks_the_weights_once_in_one_pass(self, tmp_path, monkeypatch):
        # the weights are fixed when the set is built: one check of them, and
        # one pass over the null into one summary, which pi0 and the scan reuse
        rng = np.random.default_rng(102)
        mpath, lpath = write_fixture(tmp_path, rng, m=25)
        wpath = tmp_path / "weights.tsv"
        wpath.write_text("feature_id\tbenefit\tcost\n" + "".join(
            f"g{i:03d}\t{1 + i % 2}\t19\n" for i in range(25)))
        checked = mock.Mock(wraps=dfdr.estimators.checked_weights)
        passes, feed = [], dfdr.estimators.StatisticSet.feed
        monkeypatch.setattr(dfdr.estimators, "checked_weights", checked)
        monkeypatch.setattr(dfdr.decision, "checked_weights", checked, raising=False)
        monkeypatch.setattr(dfdr.estimators.StatisticSet, "feed",
                            lambda stats, tiles: passes.append(stats) or feed(stats, tiles))
        rc = main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath),
            "--group-a", "A", "--group-b", "B",
            "--weights", str(wpath), "--permutations", "10", "--seed", "1",
            "--out", str(tmp_path / "wout"),
        ])
        assert rc == 0
        assert checked.call_count == 1
        assert len(passes) == 1 and passes[0].passes == 1

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

    def test_unknown_weights_feature_is_data_error(self, tmp_path, capsys):
        # a row for no feature of the matrix is refused as in a subsets file,
        # whatever its cells, and nothing is written
        rows = ["feature_id\tbenefit\tcost"] + [f"g{i:03d}\t1\t19" for i in range(10)]
        rows.insert(4, "nowhere\t1\t-5")
        assert self.run_with(tmp_path, "--weights", "\n".join(rows) + "\n") == 2
        err = capsys.readouterr().err
        assert err == f"data error: {tmp_path / 'table.tsv'}: row 5: unknown feature id 'nowhere'\n"
        assert not any((tmp_path / "o").iterdir())


class TestExtremeWeights:
    """Weights whose null sums overflow, or whose shares of the null round to
    0, are a data error raised before the null is computed; m = 40 tests and
    30 permutations, every test with the same benefit and cost."""

    RANGE = "weights out of range: their sums over 1200 null statistics overflow or round to 0"

    @pytest.mark.parametrize("pi0", ["estimate", "one"])
    @pytest.mark.parametrize("benefit, cost, code, message", [
        ("1e308", "0", 2, RANGE),
        ("1e308", "1e308", 2, "benefits, costs and their sums must be finite"),
        ("5e-324", "0", 2, RANGE),
        ("1e305", "0", 0, None),
        ("1e-310", "0", 0, None),
    ])
    def test_extreme_weights(self, tmp_path, capsys, monkeypatch, benefit, cost, code, message,
                             pi0):
        mpath, lpath = write_fixture(tmp_path, np.random.default_rng(105))
        wpath = tmp_path / "weights.tsv"
        wpath.write_text("feature_id\tbenefit\tcost\n" + "".join(
            f"g{i:03d}\t{benefit}\t{cost}\n" for i in range(40)))
        nulls, null = [], dfdr.resampling.permutation_null
        monkeypatch.setattr(dfdr.resampling, "permutation_null",
                            lambda *args, **kw: nulls.append(args) or null(*args, **kw))
        out = tmp_path / "out"
        rc = main([
            "analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
            "--group-b", "B", "--weights", str(wpath), "--permutations", "30", "--pi0", pi0,
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == code, err
        if message is None:
            assert read_summary(out / "summary.txt")["weighted"] == "true"
        else:
            assert err.startswith(f"data error: {message}")
            assert not nulls and not any(out.iterdir())


class TestSubsetsFile:
    """Each subset's name and costs are checked as the file is read: before
    the null is computed and before any output is written."""

    def run(self, tmp_path, capsys, monkeypatch, rows):
        mpath, lpath = write_fixture(tmp_path, np.random.default_rng(106))
        spath = tmp_path / "subsets.tsv"
        spath.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
            f"g{i:03d}\t{name}\tA\tB\t{benefit}\t{cost}\n" for i, (name, benefit, cost) in enumerate(rows)))
        nulls, null = [], dfdr.decision.null_passes
        monkeypatch.setattr(dfdr.decision, "null_passes",
                            lambda *args, **kw: nulls.append(args) or null(*args, **kw))
        out = tmp_path / "out"
        rc = main(["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A",
                   "--group-b", "B", "--subsets", str(spath), "--min-subset-size", "10",
                   "--permutations", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert not nulls and not any(out.iterdir())
        return err

    def test_cost_benefit_ratio_that_overflows(self, tmp_path, capsys, monkeypatch):
        err = self.run(tmp_path, capsys, monkeypatch, [("z", "1e-320", "1e308")] * 40)
        where = f"{tmp_path / 'subsets.tsv'}: row 2: subset 'z'"
        assert err == f"data error: {where}: cost/benefit ratio inf above 1e+300\n"

    @pytest.mark.parametrize("name", ["a/b", "..", ".", "a\x00b", "n" * 240],
                             ids=["slash", "dotdot", "dot", "nul", "too-long"])
    def test_name_that_cannot_name_a_file(self, tmp_path, capsys, monkeypatch, name):
        # listed after a subset whose files could have been written first
        err = self.run(tmp_path, capsys, monkeypatch, [("z", 1, 19)] * 20 + [(name, 1, 19)] * 20)
        assert f"row 22: subset name {name!r} cannot be a file name stem" in err

    def test_empty_name(self, tmp_path, capsys, monkeypatch):
        err = self.run(tmp_path, capsys, monkeypatch, [("z", 1, 19)] * 20 + [("", 1, 19)] * 20)
        assert "row 22: subset name '' cannot be a file name stem" in err

    @pytest.mark.parametrize("cost", ["0", "19"])
    def test_benefit_whose_desirability_overflows(self, tmp_path, capsys, monkeypatch, cost):
        # 2 + ratio times benefit 1e308 times the subset's 40 tests is beyond the float
        # range: the run used to exit 0 with an overflow warning, desirability inf
        # and a tie among infinities
        err = self.run(tmp_path, capsys, monkeypatch, [("z", "1e308", cost)] * 40)
        ratio = float(cost) / 1e308
        assert err == (f"data error: {tmp_path / 'subsets.tsv'}: subset 'z': benefit 1e+308 at "
                       f"cost/benefit ratio {ratio!r} overflows the desirability of 40 tests\n")

    @pytest.mark.parametrize("at", [0, 5], ids=["first-row", "later-row"])
    def test_nan_benefit_is_named(self, tmp_path, capsys, monkeypatch, at):
        rows = [("z", 1, 19)] * 40
        rows[at] = ("z", "nan", 19)
        err = self.run(tmp_path, capsys, monkeypatch, rows)
        assert err.endswith(f"row {at + 2}: subset 'z': benefits, costs and their sums must be finite\n")


# Each input file, by its flag: a first line, then (after two blank lines) a good
# row on line 4 and a bad one on line 5.
ROW_FIVE = {
    "--matrix": ["id\t" + "\t".join(f"s{j:02d}" for j in range(10)), "g0" + "\t1" * 10,
                 "g1\tx" + "\t1" * 9],
    "--labels": ["s00\tA", "s01\tA", "s02\t "],
    "--pvalues": ["0.5", "0.25", "x"],
    "--weights": ["feature_id\tbenefit\tcost", "g000\t1\t19", "g001\tx\t19"],
    "--subsets": ["feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost", "g000\ts\tA\tB\t1\t19",
                  "g001\ts\tA\tB\tx\t19"],
}


@pytest.mark.parametrize("flag", ROW_FIVE)
def test_rows_count_every_line(tmp_path, capsys, flag):
    # blank lines were left out of the count of the weights and subsets files
    path = tmp_path / "input.tsv"
    first, *rest = ROW_FIVE[flag]
    path.write_text("\n".join([first, "", " \t "] + rest) + "\n")
    assert main(TestUnreadableInput.argv(tmp_path, flag, path)) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: row 5")


class TestUnreadableInput:
    """An input file that is not UTF-8, or a directory in its place, is a data
    error that names the path, for every input flag."""

    FLAGS = ["--pvalues", "--matrix", "--labels", "--weights", "--subsets"]

    @staticmethod
    def argv(tmp_path, flag, path):
        if flag == "--pvalues":
            return ["analyze", "--pvalues", str(path), "--out", str(tmp_path / "out")]
        mpath, lpath = write_fixture(tmp_path, np.random.default_rng(105), m=10)
        inputs = {"--matrix": str(mpath), "--labels": str(lpath)}
        inputs[flag] = str(path)
        return [
            "analyze", *(x for item in inputs.items() for x in item),
            "--group-a", "A", "--group-b", "B", "--permutations", "5",
            "--out", str(tmp_path / "out"),
        ]

    def check(self, tmp_path, capsys, flag, path):
        assert main(self.argv(tmp_path, flag, path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())
        return err

    @pytest.mark.parametrize("flag", FLAGS)
    def test_bytes_not_utf8(self, tmp_path, capsys, flag):
        path = tmp_path / "input.txt"
        path.write_bytes(b"secret\t0.5\nx\n0.1\xff\n")
        err = self.check(tmp_path, capsys, flag, path)
        assert "not UTF-8 text: byte 0xff at offset 16" in err
        assert "secret" not in err and "\\x" not in err

    @pytest.mark.parametrize("flag", FLAGS)
    def test_directory(self, tmp_path, capsys, flag):
        path = tmp_path / "folder"
        path.mkdir()
        assert "Is a directory" in self.check(tmp_path, capsys, flag, path)


class TestOutPath:
    """An --out that names a file, or a path through one, is a data error that
    names the path, for every command."""

    @staticmethod
    def argv(tmp_path, command):
        mpath, lpath = write_fixture(tmp_path, np.random.default_rng(106), m=10)
        if command == "simulate":
            return ["simulate", "--m", "50", "--replicates", "1"]
        if command == "reproduce":
            lpath.write_text("".join(f"s{j:02d}\t{'ALL' if j < 5 else 'AML'}\n" for j in range(10)))
            return ["reproduce", "--matrix", str(mpath), "--labels", str(lpath),
                    "--permutations", "5"]
        return ["analyze", "--matrix", str(mpath), "--labels", str(lpath),
                "--group-a", "A", "--group-b", "B", "--permutations", "5"]

    @pytest.mark.parametrize("command", ["analyze", "simulate", "reproduce"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "path-through-file"])
    def test_out_blocked_by_a_file(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "f"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert main(self.argv(tmp_path, command) + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(out) in err
        assert blocker.read_text() == "kept\n"


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
            (["analyze", "--pi0", "1.5"], "--pi0"),
            (["analyze", "--pi0", "-0.5"], "--pi0"),
            (["analyze", "--pi0", "nan"], "--pi0"),
            (["analyze", "--pi0", "inf"], "--pi0"),
            (["simulate", "--m", "50", "--replicates", "2", "--pi0", "2"], "--pi0"),
            (["simulate", "--m", "50", "--replicates", "2", "--permutations", "0"],
             "--permutations"),
            (["analyze", "--seed", "-1"], "--seed"),
            (["simulate", "--m", "0"], "--m"),
            (["simulate", "--n-a", "1"], "--n-a"),
            (["simulate", "--n-b", "1"], "--n-b"),
            (["simulate", "--block-size", "0"], "--block-size"),
            (["simulate", "--block-rho", "1"], "--block-rho"),
            (["simulate", "--block-rho", "-0.1"], "--block-rho"),
            (["simulate", "--pi0-true", "1.5"], "--pi0-true"),
            (["simulate", "--pi0-true", "nan"], "--pi0-true"),
            (["simulate", "--delta", "inf"], "--delta"),
            (["simulate", "--delta", "nan"], "--delta"),
            (["reproduce", "--seed", "-1"], "--seed"),
            (["reproduce", "--permutations", "0"], "--permutations"),
            # 1/p - 1 and 1/alpha - 1 overflow; a ratio whose desirability would
            (["analyze", "--p-threshold", "1e-320"], "--p-threshold"),
            (["simulate", "--m", "50", "--replicates", "2", "--p-threshold", "1e-320"],
             "--p-threshold"),
            (["analyze", "--cost-ratio", "1e308"], "--cost-ratio"),
            (["simulate", "--m", "50", "--replicates", "2", "--cost-ratio", "1e308"],
             "--cost-ratio"),
            (["analyze", "--mode", "control", "--alpha", "1e-320"], "--alpha"),
            (["analyze", "--min-subset-size", "-5"], "--min-subset-size"),
        ],
        ids=["sim-fraction", "sim-alpha-nan", "sim-cost-nan", "alpha-nan", "cost-nan", "cost-inf",
             "p-nan", "pi0-above-1", "pi0-negative", "pi0-nan", "pi0-inf", "sim-pi0-2",
             "sim-permutations-0", "seed-negative", "sim-m-0", "sim-n-a-1", "sim-n-b-1",
             "sim-block-size-0", "sim-block-rho-1", "sim-block-rho-negative",
             "sim-pi0-true-above-1", "sim-pi0-true-nan", "sim-delta-inf", "sim-delta-nan",
             "reproduce-seed-negative", "reproduce-permutations-0", "p-1e-320", "sim-p-1e-320",
             "cost-1e308", "sim-cost-1e308", "alpha-1e-320", "min-subset-size-negative"],
    )
    def test_bad_value_is_usage_error_before_any_output(self, fixture_paths, tmp_path, capsys,
                                                        argv, flag):
        mpath, lpath = fixture_paths
        if argv[0] == "analyze":
            argv = argv + ["--matrix", str(mpath), "--labels", str(lpath),
                           "--group-a", "A", "--group-b", "B", "--permutations", "5"]
        if argv[0] == "reproduce":
            argv = argv + ["--matrix", str(mpath), "--labels", str(lpath)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag} ")
        assert not out.exists()

    def test_negative_simulate_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--seed", "-3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: --seed must be >= 0\n"
        assert not out.exists()

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
    run_python(code, json.dumps(runs))
    assert (tmp_path / "analyze" / "summary.txt").exists()
    assert (tmp_path / "simulate" / "report.txt").exists()


def test_import_leaves_scipy_unloaded():
    # scipy is needed only by the analytic CDFs of the simulation oracle
    code = "import sys, dfdr.cli; print('scipy.stats' in sys.modules, 'scipy' in sys.modules)"
    assert run_python(code).split() == ["False", "False"]


@needs_proc_tasks
class TestOneBlasThread:
    """The CLI process loads BLAS with one thread and puts the caller's
    settings back; a process that loaded numpy first keeps its BLAS."""

    @pytest.mark.parametrize("caller", ["2", None], ids=["two", "unset"])
    def test_cli_import_runs_one_thread(self, caller):
        blas = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], caller)
        code = (
            "import json, os, sys, dfdr.cli\n"
            f"{PRINT_TASKS}\n"
            "print(json.dumps([os.environ.get(v) for v in sys.argv[1:]]))\n"
        )
        tasks, settings = run_python(code, *blas, env=blas).splitlines()
        assert int(tasks) == 1
        assert json.loads(settings) == list(blas.values())

    def test_numpy_imported_first_keeps_the_callers_threads(self):
        blas = {"OPENBLAS_NUM_THREADS": "2"}
        alone = run_python(f"import numpy; {PRINT_TASKS}", env=blas)
        assert run_python(f"import numpy, dfdr.cli; {PRINT_TASKS}", env=blas) == alone


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

    def test_pi0_that_cannot_be_estimated_names_the_flag(self, tmp_path, capsys):
        # one test and one permutation: no null statistic lies below lambda
        args = ["simulate", "--m", "1", "--replicates", "1", "--permutations", "1"]
        assert main(args + ["--out", str(tmp_path / "estimate")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: no null statistic below lambda=")
        assert "--pi0 one" in err
        assert main(args + ["--pi0", "one", "--out", str(tmp_path / "one")]) == 0

    def test_sentinels_at_an_infinite_threshold(self, tmp_path, capsys):
        # with a shift of 1e308 every alternative statistic is the +inf
        # sentinel, and so is each replicate's threshold: their offset is 0
        out = tmp_path / "inf"
        assert main(["simulate", "--m", "200", "--replicates", "4", "--delta", "1e308",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = (out / "report.txt").read_text()
        assert "nan" not in text and "boundary_offset" not in text


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
