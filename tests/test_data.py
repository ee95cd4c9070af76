import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TABLE_KINDS, oracle_table
from dfdr import data
from dfdr import (
    DataMatrix,
    ParseError,
    PreprocessingError,
    ValidationError,
    load_matrix,
    preprocess,
    signed_log1p,
)


def write_tsv(path, header, rows):
    lines = ["\t".join(header)]
    lines += ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_labels(path, pairs):
    path.write_text("".join(f"{s}\t{g}\n" for s, g in pairs), encoding="utf-8")


@pytest.fixture
def matrix_files(tmp_path):
    mpath = tmp_path / "matrix.tsv"
    lpath = tmp_path / "labels.tsv"
    write_tsv(
        mpath,
        ["feature_id", "s1", "s2", "s3", "s4"],
        [
            ["g1", 1.0, 2.0, 3.0, 4.0],
            ["g2", 5.0, 6.0, 7.0, 8.0],
            ["g3", 0.5, 0.25, 0.125, 0.0625],
        ],
    )
    write_labels(lpath, [("s1", "A"), ("s2", "A"), ("s3", "B"), ("s4", "B")])
    return mpath, lpath


class TestLoadMatrix:
    def test_reads_dimensions_and_groups(self, matrix_files):
        matrix = load_matrix(*matrix_files)
        assert matrix.n_features == 3
        assert matrix.n_subjects == 4
        assert matrix.group_columns("A").tolist() == [0, 1]
        assert matrix.group_columns("B").tolist() == [2, 3]
        assert matrix.feature_ids == ("g1", "g2", "g3")
        np.testing.assert_array_equal(matrix.values[0], [1.0, 2.0, 3.0, 4.0])

    def test_ragged_row_names_row_number(self, matrix_files, tmp_path):
        mpath, lpath = matrix_files
        lines = mpath.read_text().splitlines()
        lines[2] = "g2\t5.0\t6.0"
        mpath.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 3"):
            load_matrix(mpath, lpath)

    def test_duplicate_feature_id_named(self, matrix_files):
        # the file, the row of the repeat and its column
        mpath, lpath = matrix_files
        text = mpath.read_text().replace("g3", "g1")
        mpath.write_text(text)
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 4, column 1: duplicate feature id 'g1'"

    def test_duplicate_subject_id_named(self, tmp_path):
        mpath = tmp_path / "m.tsv"
        lpath = tmp_path / "l.tsv"
        write_tsv(mpath, ["id", "s1", "s1"], [["g1", 1, 2]])
        write_labels(lpath, [("s1", "A")])
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 1, column 3: duplicate header cell 's1'"

    @pytest.mark.parametrize("blank", ["", " "])
    def test_blank_feature_id_names_row_and_column(self, matrix_files, blank):
        # a row that starts with a tab, or with spaces and a tab, has a blank feature id
        mpath, lpath = matrix_files
        mpath.write_text(mpath.read_text().replace("g2\t", blank + "\t"))
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 3, column 1: blank feature id"

    def test_repeated_label_subject_names_its_row(self, matrix_files):
        mpath, lpath = matrix_files
        lpath.write_text(lpath.read_text() + "\n\ns2\tB\n")
        with pytest.raises(ValidationError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{lpath}: row 7: duplicate subject id 's2'"

    def test_data_matrix_refuses_blank_and_repeated_ids(self):
        ids = {"feature_ids": ("g1", "g2"), "subject_ids": ("s1", "s2"), "labels": ("A", "B")}
        for key, bad, message in [("feature_ids", ("g1", ""), "blank feature id"),
                                  ("subject_ids", ("s1", "s1"), "duplicate subject id 's1'")]:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                DataMatrix(values=np.ones((2, 2)), **{**ids, key: bad})

    def test_missing_label_named(self, matrix_files, tmp_path):
        mpath, _ = matrix_files
        lpath = tmp_path / "short.tsv"
        write_labels(lpath, [("s1", "A"), ("s2", "A"), ("s3", "B")])
        with pytest.raises(ValidationError, match="'s4'"):
            load_matrix(mpath, lpath)

    def test_blank_cell_is_parse_error(self, matrix_files):
        mpath, lpath = matrix_files
        mpath.write_text(mpath.read_text().replace("6.0", ""))
        with pytest.raises(ParseError, match="missing value"):
            load_matrix(mpath, lpath)

    def test_na_cell_is_parse_error(self, matrix_files):
        mpath, lpath = matrix_files
        mpath.write_text(mpath.read_text().replace("6.0", "NA"))
        with pytest.raises(ParseError, match="missing value"):
            load_matrix(mpath, lpath)

    def test_non_numeric_cell_is_parse_error(self, matrix_files):
        mpath, lpath = matrix_files
        mpath.write_text(mpath.read_text().replace("6.0", "high"))
        with pytest.raises(ParseError, match="non-numeric"):
            load_matrix(mpath, lpath)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("inf", "non-finite cell 'inf'"),
            ("-inf", "non-finite cell '-inf'"),
            ("nan", "missing value"),
            ("NaN", "missing value"),
            ("NA", "missing value"),
        ],
    )
    def test_bad_cell_names_row_and_column(self, matrix_files, cell, message):
        mpath, lpath = matrix_files
        mpath.write_text(mpath.read_text().replace("6.0", cell))
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 3, column 3: {message}"

    @pytest.mark.parametrize(
        "edits, expected",
        [
            ({3: "nan", 5: "high"}, "row 3, column 4: missing value"),
            ({3: "high", 5: "nan"}, "row 3, column 4: non-numeric cell 'high'"),
            ({3: "inf", 5: "RAGGED"}, "row 3, column 4: non-finite cell 'inf'"),
            ({3: "RAGGED", 5: "inf"}, "row 3: expected 5 fields, got 2"),
            ({5: "-inf"}, "row 5, column 4: non-finite cell '-inf'"),
        ],
    )
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path, edits, expected):
        mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.tsv"
        rows = [[f"g{i}", 1.5, 2.5, 3.5, 4.5] for i in range(5)]
        for lineno, cell in edits.items():
            row = rows[lineno - 2]
            if cell == "RAGGED":
                del row[2:]
            else:
                row[3] = cell
        write_tsv(mpath, ["id", "s1", "s2", "s3", "s4"], rows)
        write_labels(lpath, [("s1", "A"), ("s2", "A"), ("s3", "B"), ("s4", "B")])
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: {expected}"

    @pytest.mark.parametrize(
        "cells, expected",
        [
            (["inf", "high"], "column 2: non-finite cell 'inf'"),
            (["high", "inf"], "column 2: non-numeric cell 'high'"),
            (["1e999", ""], "column 2: non-finite cell '1e999'"),
            (["", "1e999"], "column 2: missing value"),
        ],
    )
    def test_first_bad_cell_of_a_row_is_reported(self, tmp_path, cells, expected):
        mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.tsv"
        write_tsv(mpath, ["id", "s1", "s2", "s3", "s4"], [["g0", 1, 2, 3, 4], ["g1", cells[0], 2, cells[1], 4]])
        write_labels(lpath, [("s1", "A"), ("s2", "A"), ("s3", "B"), ("s4", "B")])
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 3, {expected}"

    def test_cells_parse_like_float(self, tmp_path):
        mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.tsv"
        cells = [" 1.5 ", "-0.0", "1_000", "5e-324"]
        write_tsv(mpath, ["id", "s1", "s2", "s3", "s4"], [[" g0 "] + cells])
        write_labels(lpath, [("s1", "A"), ("s2", "A"), ("s3", "B"), ("s4", "B")])
        matrix = load_matrix(mpath, lpath)
        assert matrix.feature_ids == ("g0",)
        assert matrix.values[0].tolist() == [1.5, -0.0, 1000.0, 5e-324]
        assert math.copysign(1.0, matrix.values[0, 1]) == -1.0

    def test_extra_label_entries_are_ignored(self, matrix_files, tmp_path):
        mpath, _ = matrix_files
        lpath = tmp_path / "extra.tsv"
        write_labels(
            lpath,
            [("s1", "A"), ("s2", "A"), ("s3", "B"), ("s4", "B"), ("s9", "C")],
        )
        matrix = load_matrix(mpath, lpath)
        assert matrix.labels == ("A", "A", "B", "B")


# Cells built to find where np.loadtxt and float() disagree: underscores,
# surrounding and non-ASCII whitespace, infinity and nan spellings,
# subnormals, signed zeros, non-ASCII digits, hex, NUL, and the separators
# that split a line or a row.
CELL_PIECES = st.sampled_from([
    "1", "0", "9", ".", "e", "E", "+", "-", "_", " ", "\xa0", "\u2003", "inf", "infinity",
    "nan", "NaN", "0x1p3", "4.9e-324", "2.2250738585072014e-308", "-0.0", "1e400", "\u0663",
    "\uff15", "\u0967", "\x00", "\x0c", "\x85", "\u2028", "\r", "\n", "\t",
])
numbers = st.floats(allow_nan=True, allow_infinity=True).map(repr)
cells = st.one_of(
    st.lists(CELL_PIECES, min_size=0, max_size=6).map("".join),
    st.tuples(CELL_PIECES, numbers, CELL_PIECES).map("".join),
    numbers,
    st.text(max_size=8),
)


def outcome(read):
    """What ``read()`` returns, with the values as their bytes, or its error's type and text."""
    try:
        header, rows, values = read()
    except (ParseError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return header, rows, values.shape, values.tobytes()


def read_both(path, kind):
    """(read_table's outcome, the oracle's, whether float() read a cell), for
    the file kind ``kind``; float() reads cells only where np.loadtxt's table
    was not taken."""
    with mock.patch.object(data, "_number", wraps=data._number) as cells:
        got = outcome(lambda: data.read_table(path, *TABLE_KINDS[kind]))
    return got, outcome(lambda: oracle_table(path, *TABLE_KINDS[kind])), cells.called


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cells, st.integers(0, 2), st.integers(1, 3))
def test_fast_reader_agrees_with_float(tmp_path_factory, cell, row, col):
    # Whatever np.loadtxt reads, float() reads to the same bits; whatever
    # float() rejects, loadtxt rejects too, and float() names the error.
    path = tmp_path_factory.mktemp("cells") / "matrix.tsv"
    rows = [["g0", "1.5", "-2", "3e-3"], ["g1", "0.25", "7", "8"], ["g2", "1", "2", "3"]]
    rows[row][col] = cell
    path.write_text("id\ts1\ts2\ts3\n" + "".join("\t".join(r) + "\n" for r in rows),
                    encoding="utf-8")
    got, want, _ = read_both(path, "matrix")
    assert got == want
    if not isinstance(got, str) and not any(c in cell for c in "\t\r\n"):  # the cell is one cell
        assert np.float64(float(cell)).tobytes() == got[3][8 * (3 * row + col - 1):][:8]


# Lines of every file kind: a row of the right width, of one cell fewer or
# more, or a blank line; cells from ``cells`` or ordinary numbers and ids.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x1c", "\n\n", "\n \t \n"]


@st.composite
def table_text(draw):
    kind = draw(st.sampled_from(sorted(TABLE_KINDS)))
    columns, strings, _ = TABLE_KINDS[kind]
    width = 4 if columns is None else len(columns) if isinstance(columns, list) else columns
    text = ""
    if not isinstance(columns, int):
        names = list(columns) if isinstance(columns, list) else ["id", "s1", "s2", "s3"]
        if draw(st.integers(0, 9)) == 0:
            names[draw(st.integers(0, width - 1))] = draw(st.sampled_from(["", " ", "x", "s1"]))
        text = "\t".join(names) + draw(st.sampled_from(LINE_ENDS))
    for i in range(draw(st.integers(0, 6))):
        n = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        row = [f"id{i}" if j < strings else draw(st.sampled_from(["0.5", "1", "-2e-3", "7"]))
               for j in range(max(n, 1))]
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        text += "\t".join(row) + draw(st.sampled_from(LINE_ENDS))
    return kind, text


@settings(derandomize=True, deadline=None, max_examples=400)
@given(table_text())
def test_reader_agrees_with_the_oracle_for_every_file_kind(tmp_path_factory, case):
    # the same header, rows and value bits as str.splitlines and float() on
    # the whole text, or the same error
    kind, text = case
    path = tmp_path_factory.mktemp("tables") / "table.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    got, want, _ = read_both(path, kind)
    assert got == want


class TestDataMatrixValidation:
    def test_needs_two_subjects(self):
        with pytest.raises(ValidationError):
            DataMatrix(
                values=np.array([[1.0]]),
                feature_ids=("g1",),
                subject_ids=("s1",),
                labels=("A",),
            )

    def test_unknown_group_lookup(self, tiny_matrix):
        with pytest.raises(ValidationError, match="'C'"):
            tiny_matrix.group_columns("C")


class TestPreprocess:
    def test_normalizes_by_column_median(self):
        # single column [2, 4, 6]: median 4, normalized [0.5, 1.0, 1.5]
        matrix = DataMatrix(
            values=np.array([[2.0, 2.0], [4.0, 4.0], [6.0, 6.0]]),
            feature_ids=("g1", "g2", "g3"),
            subject_ids=("s1", "s2"),
            labels=("A", "B"),
        )
        out = preprocess(matrix)
        expected = [math.log1p(0.5), math.log1p(1.0), math.log1p(1.5)]
        np.testing.assert_allclose(out.values[:, 0], expected, rtol=1e-15)

    def test_transform_value_e_minus_one(self):
        # normalized value e - 1 maps to exactly 1; its negation to -1
        assert signed_log1p(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)
        assert signed_log1p(-(math.e - 1.0)) == pytest.approx(-1.0, abs=1e-15)
        assert signed_log1p(0.0) == 0.0

    def test_zero_median_names_subject(self):
        matrix = DataMatrix(
            values=np.array([[1.0, -1.0], [0.0, 2.0], [-1.0, 3.0]]),
            feature_ids=("g1", "g2", "g3"),
            subject_ids=("sA", "sB"),
            labels=("A", "B"),
        )
        with pytest.raises(PreprocessingError, match="'sA'"):
            preprocess(matrix)

    def test_negative_median_allowed(self):
        matrix = DataMatrix(
            values=np.array([[-2.0, 1.0], [-4.0, 2.0], [-6.0, 3.0]]),
            feature_ids=("g1", "g2", "g3"),
            subject_ids=("s1", "s2"),
            labels=("A", "B"),
        )
        out = preprocess(matrix)
        # column 1 median is -4; -2 / -4 = 0.5
        assert out.values[0, 0] == pytest.approx(math.log1p(0.5))

    def test_preserves_shape_ids_labels(self, tiny_matrix):
        out = preprocess(tiny_matrix)
        assert out.values.shape == tiny_matrix.values.shape
        assert out.feature_ids == tiny_matrix.feature_ids
        assert out.subject_ids == tiny_matrix.subject_ids
        assert out.labels == tiny_matrix.labels

    def test_sign_preserved_for_positive_medians(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.normal(2.0, 1.0, size=(15, 6))  # medians positive w.h.p.
            matrix = DataMatrix(
                values=values,
                feature_ids=tuple(f"g{i}" for i in range(15)),
                subject_ids=tuple(f"s{j}" for j in range(6)),
                labels=("A",) * 3 + ("B",) * 3,
            )
            if np.any(np.median(values, axis=0) <= 0.0):
                continue
            out = preprocess(matrix)
            np.testing.assert_array_equal(np.sign(out.values), np.sign(values))

    def test_in_place_transform_is_bitwise_the_product_form(self):
        # the quotient is overwritten with its sign and multiplied into
        # log1p(|q|): the same two factors as sign(q) * log1p(|q|)
        tiny, huge = np.nextafter(0.0, 1.0), 1e307  # huge over any median here stays finite
        special = np.array([0.0, -0.0, tiny, -tiny, 2.0**-1030, -(2.0**-1040), huge, -huge, 1e300])
        rng = np.random.default_rng(12)
        values = rng.lognormal(size=(40, 6))
        values[30:] *= -1.0  # medians stay near 1
        values[: special.size, 0] = special
        values[: special.size, 5] = special[::-1]
        matrix = DataMatrix(
            values=values,
            feature_ids=tuple(f"g{i}" for i in range(40)),
            subject_ids=tuple(f"s{j}" for j in range(6)),
            labels=("A",) * 3 + ("B",) * 3,
        )
        q = values / np.median(values, axis=0)
        assert np.any(q == 0.0) and np.any(np.abs(q) < np.finfo(float).tiny)
        bits = (np.sign(q) * np.log1p(np.abs(q))).view(np.int64)
        np.testing.assert_array_equal(preprocess(matrix).values.view(np.int64), bits)
        np.testing.assert_array_equal(signed_log1p(q).view(np.int64), bits)
        expected = np.sign(special) * np.log1p(np.abs(special))
        np.testing.assert_array_equal(signed_log1p(special).view(np.int64), expected.view(np.int64))

    def test_preprocess_holds_at_most_two_and_a_half_matrices(self):
        # the quotient and its transform; the product form made five arrays
        rng = np.random.default_rng(13)
        values = rng.lognormal(size=(7129, 72))
        matrix = DataMatrix(
            values=values,
            feature_ids=tuple(f"g{i}" for i in range(7129)),
            subject_ids=tuple(f"s{j}" for j in range(72)),
            labels=("A",) * 47 + ("B",) * 25,
        )
        tracemalloc.start()
        try:
            preprocess(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * values.nbytes

    def test_transform_is_odd(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 3.0, size=1000)
        np.testing.assert_allclose(signed_log1p(-x), -signed_log1p(x), atol=1e-15)


# Text that np.loadtxt would read otherwise than float() cell by cell: line
# breaks that only str.splitlines knows, NUL, a ragged row, a cell float()
# reads and loadtxt does not, a whitespace-only line and a cell that is not
# finite; then text that loadtxt reads, among it blank lines anywhere.
GOOD = ["id\ts1\ts2\ts3", "g0\t1.5\t-2\t3e-3", "g1\t0.25\t7\t8"]
UNLIKE_LINES = {"nul": "\x00", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
                "nel": "\x85", "ls": "\u2028", "ps": "\u2029"}
DECLINED = {
    **{f"{name}-in-header": [GOOD[0] + char] + GOOD[1:] for name, char in UNLIKE_LINES.items()},
    **{f"{name}-in-row": GOOD[:2] + ["g1\t0.25" + char + "\t7\t8"] for name, char in UNLIKE_LINES.items()},
    "ragged-row": GOOD[:2] + ["g1\t0.25\t7"],
    "1_0-cell": GOOD[:2] + ["g1\t1_0\t7\t8"],
    "whitespace-only-line": GOOD[:2] + [" \t "] + GOOD[2:],
    "inf-cell": GOOD[:2] + ["g1\tinf\t7\t8"],
}
ACCEPTED = {
    "plain": GOOD,
    "trailing-blank-lines": GOOD + ["", ""],
    "interior-blank-lines": GOOD[:2] + ["", ""] + GOOD[2:],
    "leading-blank-lines": ["", ""] + GOOD,
    "beyond-ascii": ["id\ts1\tsé2\ts3", "gè0\t1.5\t-2\t3e-3", "g1\t0.25\t7\t 8"],
}


@pytest.mark.parametrize("lines", DECLINED.values(), ids=DECLINED.keys())
def test_fast_reader_leaves_to_the_plain_parser(tmp_path, lines):
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, want, by_float = read_both(path, "matrix")
    assert by_float and got == want


@pytest.mark.parametrize("lines", ACCEPTED.values(), ids=ACCEPTED.keys())
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_fast_reader_takes_other_text(tmp_path, lines, end):
    # one np.loadtxt call reads the numbers, and float() none
    path = tmp_path / "m.tsv"
    path.write_text(end.join(lines) + end, encoding="utf-8", newline="")
    with mock.patch.object(data.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got, want, by_float = read_both(path, "matrix")
    assert loadtxt.call_count == 1 and not by_float and got == want
    assert got[0] == next(filter(None, lines)).split("\t")


def test_blank_subject_id_names_the_matrix_column(tmp_path):
    # it was blamed on the labels file, as a subject '' without a label
    mpath, lpath = tmp_path / "m.tsv", tmp_path / "l.tsv"
    for blank in ("", " \xa0"):
        write_tsv(mpath, ["id", "s1", blank, "s3"], [["g0", 1, 2, 3]])
        write_labels(lpath, [("s1", "A"), ("s3", "B")])
        with pytest.raises(ParseError) as err:
            load_matrix(mpath, lpath)
        assert str(err.value) == f"{mpath}: row 1, column 3: blank header cell"


def test_interior_blank_lines_are_skipped_but_counted(matrix_files):
    mpath, lpath = matrix_files
    plain = load_matrix(mpath, lpath)
    lines = mpath.read_text().splitlines()
    mpath.write_text("\n".join(lines[:2] + ["", " \t "] + lines[2:]) + "\n")
    matrix = load_matrix(mpath, lpath)
    assert matrix.feature_ids == plain.feature_ids and matrix.values.tobytes() == plain.values.tobytes()
    mpath.write_text(mpath.read_text().replace("6.0", "six"))
    with pytest.raises(ParseError, match="row 5, column 3: non-numeric cell 'six'"):
        load_matrix(mpath, lpath)
