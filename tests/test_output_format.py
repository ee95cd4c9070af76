"""Byte identity of tests.csv and curve.csv with the per-cell reference writer.

The CLI's table writer (``cli._table``) lays out a block of ``cli.BLOCK`` rows
at a time in numpy arrays, its floats through a fixed-width ``%.12g``
formatter with a fallback to Python; the reference (``reference_writer``)
formats each cell with ``format(x, ".12g")``. Both must give the same bytes for
every float, NaN and infinities included, for every route that writes decision
files, and wherever the rows fall against the block boundaries. The formatter
is also checked on its own against floats at its rounding and notation edges.
"""

import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfdr import cli
from dfdr.cli import _fmt, _table, _write_atomic, main
from reference_writer import decision_files, fmt, pvalue_ids, rows_text
from test_cli import write_fixture

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

SPECIAL = [
    math.nan,
    -math.nan,
    math.copysign(math.nan, -1.0),
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-308,
    2.225073858507201e-308,
    1e16,
    -1e16,
    1e16 + 2.0,
    2.0**53,
    123456789012.0,
    1234567890123.0,
    999999999999.5,
    0.1,
    1.0 / 3.0,
    1e-5,
    1e-4,
    1.7976931348623157e308,
]
floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-(10**17), 10**17).map(float),
)
ints = st.integers(-(10**20), 10**20)
ids = st.text(max_size=8)


# rows per block in the property tests: a list of up to 20 rows crosses several
blocks = st.integers(1, 6)


def write_table(header, columns, block):
    """The bytes the table writer writes, ``block`` rows at a time."""
    with mock.patch.object(cli, "BLOCK", block), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        _write_atomic(path, _table(",".join(header), columns))
        assert os.listdir(tmp) == ["table.csv"]  # no tmp file is left behind
        return path.read_bytes()


def column(rows, k, as_array):
    """Column ``k`` of ``rows``: a float array, as the CLI passes, or a list."""
    cells = [row[k] for row in rows]
    return np.array(cells, dtype=float) if as_array else cells


@PROPERTY
@given(st.lists(st.tuples(ids, floats, ints), max_size=20), blocks)
def test_tests_rows_match_reference(rows, block):
    header = ["feature_id", "statistic", "rejected"]
    columns = [column(rows, 0, False), column(rows, 1, True), column(rows, 2, False)]
    expected = rows_text(header, rows).encode("utf-8")
    assert write_table(header, columns, block) == expected


@PROPERTY
@given(st.lists(st.tuples(floats, floats, floats, ints), max_size=20), blocks)
def test_curve_rows_match_reference(rows, block):
    header = ["tau", "desirability", "dfdr", "discoveries"]
    columns = [column(rows, k, k < 3) for k in range(4)]
    expected = rows_text(header, rows).encode("utf-8")
    assert write_table(header, columns, block) == expected


@PROPERTY
@given(st.one_of(floats, ints, st.booleans(), ids))
def test_fmt_matches_reference(x):
    assert _fmt(x) == fmt(x)


def formatted(values):
    """Each value as the table writer formats a float column of them."""
    text = b"".join(_table("x", [np.array(values, dtype=float)])).decode()
    return text.splitlines()[1:]


@PROPERTY
@given(floats)
def test_fmt_and_tables_agree(x):
    # summary.txt and report.txt (_fmt) print a float as the tables do
    assert formatted([x]) == [_fmt(x)]


def neighbours(x):
    with np.errstate(over="ignore"):  # next to the largest double is inf
        return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


# 13 significant digits ending in 5: ties at 12 digits, but for the rounding
# of the decimal to the nearest double
ties = st.builds(lambda d, k: float(f"{10 * d + 5}e{k}"), st.integers(10**11, 10**12 - 1), st.integers(-30, 30))
POWERS = [10.0**k for k in range(-6, 14)]  # across the notation switches at 1e-4 and 1e12
CARRIES = [999999999999.5, 9.9999999999995e-5, 99999999999.95, 0.99999999999995, 9.99999999999949e13]
EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]
adversarial = st.one_of(
    ties.map(neighbours),
    st.sampled_from(POWERS + CARRIES).map(neighbours),
    st.sampled_from(EDGES).map(neighbours),
    st.floats(1e-310, 1e-290).map(neighbours),
    st.floats(1e290, 1e308).map(neighbours),
    st.floats(allow_nan=False, allow_infinity=False).map(neighbours),
)


@PROPERTY
@given(st.lists(adversarial, min_size=1, max_size=8), st.booleans())
def test_float_formatter_matches_reference(groups, negate):
    values = [-x if negate else x for group in groups for x in group]
    assert formatted(values) == [fmt(x) for x in values]


@pytest.mark.parametrize("bias", [1e-9, -1e-9])
def test_a_log10_one_off_costs_speed_not_bytes(monkeypatch, bias):
    # beside a power of ten, floor(log10 |x|) one off puts the scaled value just
    # outside [10^11, 10^12]: its digits are kept only within 0.01 of it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + bias)
    values = [10.0**k * (1 + d) for k in range(-6, 14) for d in (-3e-12, -1e-13, 0.0, 1e-13, 3e-12)]
    assert formatted(values) == [fmt(x) for x in values]


class CountedFormat(str):
    """A format string that counts the values it formats."""

    calls = 0

    def __mod__(self, value):
        self.calls += 1
        return str.__mod__(self, value)


def test_uniform_pvalues_take_the_fast_path(monkeypatch):
    number = CountedFormat(cli.NUMBER)
    monkeypatch.setattr(cli, "NUMBER", number)
    x = np.random.default_rng(17).random(10**5)
    assert formatted(x) == [fmt(v) for v in x.tolist()]
    assert 0 < number.calls < 0.01 * len(x)  # the near-ties alone


@pytest.fixture
def written(monkeypatch):
    """Every call the CLI makes to write decision files, with its inputs."""
    calls = []
    real = cli._write_decision_outputs

    def spy(outdir, ids, values, result, summary_fields, stem=""):
        calls.append((outdir, ids, np.array(values), result, stem))
        real(outdir, ids, values, result, summary_fields, stem)

    monkeypatch.setattr(cli, "_write_decision_outputs", spy)
    return calls


def assert_reference_bytes(calls, n_calls=1):
    assert len(calls) == n_calls
    for outdir, ids, values, result, stem in calls:
        suffix = f"_{stem}" if stem else ""
        for name, text in decision_files(ids, values, result).items():
            assert (outdir / f"{name}{suffix}.csv").read_bytes() == text.encode("utf-8")


def run_quietly(capsys, argv):
    """main(argv), which must exit 0 with nothing on stderr, numpy's warnings included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def written_ids(out):
    return [line.split(",")[0] for line in (out / "tests.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("mode", ["maximize", "control"])
def test_pvalue_route(tmp_path, written, capsys, mode):
    rng = np.random.default_rng(11)
    p = np.concatenate([rng.uniform(size=900), rng.beta(0.2, 1.0, size=200)])
    p[:40] = np.round(p[:40], 2)  # ties
    text = "\n".join(map(repr, p.tolist())) + "\n0\n1\n5e-324\n\n0.5\n"
    ppath = tmp_path / "p.txt"
    ppath.write_text(text)
    out = tmp_path / "out"
    run_quietly(capsys, ["analyze", "--pvalues", str(ppath), "--mode", mode, "--out", str(out)])
    assert_reference_bytes(written)
    n = len(p) + 4
    assert written_ids(out) == [f"p{i:04d}" for i in range(n)] == pvalue_ids(n)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_pvalue_route_at_block_boundary(tmp_path, written, extra):
    n = cli.BLOCK + extra
    p = np.random.default_rng(16).beta(0.5, 1.0, size=n)
    ppath = tmp_path / "p.txt"
    ppath.write_text("\n".join(map(repr, p.tolist())) + "\n")
    rc = main(["analyze", "--pvalues", str(ppath), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert_reference_bytes(written)
    assert written_ids(tmp_path / "out") == [f"p{i:0{len(str(n))}d}" for i in range(n)]


def test_pvalue_ids_at_a_power_of_ten(tmp_path, written):
    # 100 ids take the three digits of 100: p000 to p099
    ppath = tmp_path / "p.txt"
    ppath.write_text("\n".join(map(repr, np.linspace(0.001, 1.0, 100).tolist())) + "\n")
    assert main(["analyze", "--pvalues", str(ppath), "--out", str(tmp_path / "out")]) == 0
    assert_reference_bytes(written)
    assert written_ids(tmp_path / "out") == [f"p{i:03d}" for i in range(100)]


def test_statistic_route_with_sentinel_rows(tmp_path, written, capsys):
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(12), m=60)
    with mpath.open("a") as fh:
        fh.write("g%d\t" + "\t".join(["0.1"] * 10) + "\n")  # constant: t = 0
        fh.write("split1\t" + "\t".join(["1.5"] * 5 + ["2.5"] * 5) + "\n")  # +inf
        fh.write("split2\t" + "\t".join(["-3"] * 5 + ["7"] * 5) + "\n")  # +inf
    out = tmp_path / "out"
    run_quietly(capsys, [
        "analyze", "--matrix", str(mpath), "--labels", str(lpath),
        "--group-a", "A", "--group-b", "B", "--permutations", "30", "--seed", "3",
        "--out", str(out),
    ])
    assert_reference_bytes(written)
    statistics = written[0][2]
    assert np.isposinf(statistics).sum() == 2
    assert "split1,inf,1\n" in (out / "tests.csv").read_text()
    assert (out / "curve.csv").read_text().splitlines()[-1].startswith("inf,")


def test_weights_route(tmp_path, written):
    m = 50
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(13), m=m)
    rng = np.random.default_rng(14)
    wpath = tmp_path / "weights.tsv"
    rows = ["feature_id\tbenefit\tcost"]
    rows += [f"g{i:03d}\t{rng.uniform(0.1, 3.0)!r}\t{rng.uniform(1.0, 30.0)!r}" for i in range(m)]
    wpath.write_text("\n".join(rows) + "\n")
    rc = main([
        "analyze", "--matrix", str(mpath), "--labels", str(lpath),
        "--group-a", "A", "--group-b", "B", "--weights", str(wpath),
        "--permutations", "20", "--seed", "4", "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert_reference_bytes(written)


def test_subsets_route(tmp_path, written):
    m = 40
    mpath, lpath = write_fixture(tmp_path, np.random.default_rng(15), m=m)
    spath = tmp_path / "subsets.tsv"
    rows = ["feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost"]
    rows += [
        f"g{i:03d}\t{'low' if i < 20 else 'high'}\tA\tB\t{1.0 if i < 20 else 2.5}\t19.0"
        for i in range(m)
    ]
    spath.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    rc = main([
        "analyze", "--matrix", str(mpath), "--labels", str(lpath),
        "--group-a", "A", "--group-b", "B", "--subsets", str(spath),
        "--min-subset-size", "10", "--permutations", "15", "--seed", "5",
        "--out", str(out),
    ])
    assert rc == 0
    assert_reference_bytes(written, n_calls=2)
    assert sorted(stem for *_, stem in written) == ["high", "low"]
    assert (out / "tests_low.csv").exists() and (out / "curve_high.csv").exists()
