import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        mpath, lpath = matrix_files
        text = mpath.read_text().replace("g3", "g1")
        mpath.write_text(text)
        with pytest.raises(ValidationError, match="^duplicate feature id 'g1'$"):
            load_matrix(mpath, lpath)

    def test_duplicate_subject_id_named(self, tmp_path):
        mpath = tmp_path / "m.tsv"
        lpath = tmp_path / "l.tsv"
        write_tsv(mpath, ["id", "s1", "s1"], [["g1", 1, 2]])
        write_labels(lpath, [("s1", "A")])
        with pytest.raises(ValidationError, match="^duplicate subject id 's1'$"):
            load_matrix(mpath, lpath)

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


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cells, st.integers(0, 2), st.integers(1, 3))
def test_fast_reader_agrees_with_float(tmp_path_factory, cell, row, col):
    # Whatever np.loadtxt accepts, the plain float() parser reads to the same
    # bits; whatever float() rejects, loadtxt rejects too (None).
    path = tmp_path_factory.mktemp("cells") / "matrix.tsv"
    rows = [["g0", "1.5", "-2", "3e-3"], ["g1", "0.25", "7", "8"], ["g2", "1", "2", "3"]]
    rows[row][col] = cell
    path.write_text("id\ts1\ts2\ts3\n" + "".join("\t".join(r) + "\n" for r in rows),
                    encoding="utf-8")
    fast = data._read_fast(path)
    try:
        plain = data._read_plain(path)
    except ParseError:
        plain = None
    if fast is not None:
        assert plain is not None
        assert fast[:2] == plain[:2]
        assert fast[2].tobytes() == plain[2].tobytes()
        if not any(c in cell for c in "\t\r\n"):  # the cell is one cell
            assert np.float64(float(cell)).tobytes() == fast[2][row, col - 1].tobytes()


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

    def test_transform_is_odd(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 3.0, size=1000)
        np.testing.assert_allclose(signed_log1p(-x), -signed_log1p(x), atol=1e-15)
