"""Input files and per-subject normalization.

Every input file is a tab table, read by ``read_table`` under the one set of
rules of README "File formats".
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dfdr.errors import ParseError, PreprocessingError, ValidationError


@dataclass(frozen=True)
class DataMatrix:
    """Feature-by-subject measurement matrix with group labels.

    ``values`` has shape (n_features, n_subjects); ``labels[j]`` is the group
    tag of subject ``j``. Feature and subject identifiers must be unique and
    not blank.
    """

    values: np.ndarray
    feature_ids: tuple[str, ...]
    subject_ids: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValidationError("matrix values must be two-dimensional")
        m, n = values.shape
        if m < 1:
            raise ValidationError("matrix needs at least one feature row")
        if n < 2:
            raise ValidationError("matrix needs at least two subject columns")
        if len(self.feature_ids) != m:
            raise ValidationError(
                f"{len(self.feature_ids)} feature ids for {m} rows"
            )
        if len(self.subject_ids) != n or len(self.labels) != n:
            raise ValidationError(
                f"{len(self.subject_ids)} subject ids / {len(self.labels)} labels "
                f"for {n} columns"
            )
        for kind, ids in (("feature", self.feature_ids), ("subject", self.subject_ids)):
            if bad := _misnamed(ids, f"{kind} id"):
                raise ValidationError(bad[1])
        if not np.all(np.isfinite(values)):
            raise ValidationError("matrix contains non-finite values")

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_subjects(self) -> int:
        return self.values.shape[1]

    def group_columns(self, tag: str) -> np.ndarray:
        cols = [j for j, label in enumerate(self.labels) if label == tag]
        if not cols:
            raise ValidationError(f"group {tag!r} not present in labels")
        return np.asarray(cols, dtype=np.intp)


def read_text(path) -> str:
    """The text of a UTF-8 input file. Any other is a ParseError naming its
    path and first bad byte, not the file's bytes, which the decoding
    error's repr would echo."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"{path}: not UTF-8 text: byte {byte:#04x} at offset {exc.start}") from None


def load_labels(path) -> dict[str, str]:
    """The group tag of each subject in a labels file (README "File formats")."""
    labels: dict[str, str] = {}
    for lineno, subject, tag in read_table(path, 2, 2)[1]:
        if not subject or not tag:
            raise ParseError(f"{path}: row {lineno}: empty subject id or group tag")
        if subject in labels:
            raise ValidationError(f"{path}: row {lineno}: duplicate subject id {subject!r}")
        labels[subject] = tag
    if not labels:
        raise ParseError(f"{path}: no label rows found")
    return labels


def load_matrix(matrix_path, labels_path) -> DataMatrix:
    """A measurement matrix and its labels file (README "File formats").

    Every subject must appear in the labels file; label entries for unknown
    subjects are ignored.
    """
    label_map = load_labels(labels_path)
    header, rows, values = read_table(matrix_path, None, 1, finite=True)
    subject_ids = header[1:]
    if len(subject_ids) < 2 or not rows:
        raise ParseError(f"{matrix_path}: need a header row naming two subjects or more, then a feature row")
    feature_ids = tuple(fid for _, fid in rows)
    if bad := _misnamed(feature_ids, "feature id"):
        raise ParseError(f"{matrix_path}: row {rows[bad[0]][0]}, column 1: {bad[1]}")
    missing = [s for s in subject_ids if s not in label_map]
    if missing:
        raise ValidationError(f"{labels_path}: no group label for subject {missing[0]!r}")
    return DataMatrix(
        values=values,
        feature_ids=feature_ids,
        subject_ids=tuple(subject_ids),
        labels=tuple(label_map[s] for s in subject_ids),
    )


# str.splitlines breaks lines at these too, the file's line iterator does not;
# NUL could end a C parser's cell early
_UNLIKE_LINES = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def whole_lines(f):
    """The text of the open file ``f`` in pieces of about 64 KiB, each of whole lines."""
    return iter(lambda: f.read(2**16) + f.readline(), "")


def read_table(path, columns, strings: int, finite: bool = False):
    """(header, rows, values) of the tab table at ``path``, read by the rules
    of README "File formats".

    ``columns`` is the header the table opens with (a list of names), None
    for a header that sets the number of columns, or the number of columns
    of a table without a header. The first ``strings`` columns are text:
    ``rows`` holds each row's number and its text cells, and is empty for a
    table without text columns (which has no header). ``values`` holds the
    other cells' numbers, a row per row; with ``finite`` (the matrix) each is
    finite.

    A scan of the whole file decides whether np.loadtxt may read the numbers:
    not where it could split lines or rows otherwise than str.splitlines and
    a tab. loadtxt raises on a whitespace-only line (it skips only empty
    ones), and its table is dropped where a number is not finite. Then
    float() reads cell by cell: it names the first bad row or cell, or reads
    what loadtxt did not.
    """
    width = len(columns) if isinstance(columns, list) else columns
    head = 0 if isinstance(columns, int) else None  # the header's row number
    header, rows, fast, data, lineno = None, [], True, False, 0
    try:
        with open(path, encoding="utf-8") as f:
            for piece in whole_lines(f):
                fast = fast and not any(c in piece for c in _UNLIKE_LINES)
                data = data or not piece.isspace()
                for line in piece.splitlines() if strings else ():
                    lineno += 1
                    if not line or line.isspace():
                        continue
                    if head is None:
                        header, head = [c.strip() for c in line.split("\t")], lineno
                        width = len(header)
                    else:
                        fast = fast and line.count("\t") == width - 1
                        rows.append((lineno, *(c.strip() for c in line.split("\t", strings)[:strings])))
            # errors only now that all of the file is decoded: a byte that is not UTF-8 comes first
            named = isinstance(columns, list) and "<TAB>".join(columns)
            if head is None:
                expected = f"the header {named!r}" if named else "a header row"
                raise ParseError(f"{path}: empty file, expected {expected}")
            if named and header != columns:
                raise ParseError(f"{path}: header must be {named!r}")
            if head and (bad := _misnamed(header[strings:], "header cell")):
                raise ParseError(f"{path}: row {head}, column {strings + bad[0] + 1}: {bad[1]}")
            if fast and width > strings and (rows or not strings and data):
                f.seek(0)
                with contextlib.suppress(ValueError):  # float() reads the cells below
                    values = np.loadtxt(f, delimiter="\t", comments=None, skiprows=head, ndmin=2,
                                        usecols=range(strings, width) if strings else None)
                    if values.shape[1] == width - strings and np.isfinite(values).all():
                        return header, rows, values
            f.seek(0)
            numbers, lineno, n = [], 0, 0
            for piece in whole_lines(f):
                for line in piece.splitlines():
                    lineno += 1
                    if lineno <= head or not line or line.isspace():
                        continue
                    cells, n = line.split("\t"), n + 1
                    if len(cells) != width:
                        raise ParseError(f"{path}: row {lineno}: expected {width} fields, got {len(cells)}")
                    for col, cell in enumerate(cells[strings:], start=strings + 1):
                        try:
                            numbers.append(_number(cell.strip(), finite))
                        except ValueError as exc:
                            raise ParseError(f"{path}: row {lineno}, column {col}: {exc}") from None
            return header, rows, np.array(numbers, dtype=float).reshape(n, width - strings)
    except UnicodeDecodeError:
        read_text(path)  # raises the ParseError that names the first bad byte
        raise


def _number(cell: str, finite: bool) -> float:
    """float(cell), or a ValueError that says what is wrong with the cell:
    with ``finite``, blank, NA and NaN are missing values and every other
    number must be finite."""
    if finite and cell.upper() in ("", "NA", "NAN"):
        raise ValueError("missing value")
    try:
        x = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric cell {cell!r}") from None
    if finite and not math.isfinite(x):
        raise ValueError(f"non-finite cell {cell!r}")
    return x


def signed_log1p(x):
    """Odd transform sign(x) * ln(1 + |x|), defined as 0 at x = 0."""
    return _signed_log1p_over(np.array(x, dtype=float))[()]  # a scalar stays one


def _signed_log1p_over(x: np.ndarray) -> np.ndarray:
    """signed_log1p of the float array ``x``, bit for bit, overwriting ``x``
    with its sign: one array of x's size besides ``x``."""
    out = np.abs(x, out=np.empty_like(x))
    np.log1p(out, out=out)
    out *= np.sign(x, out=x)
    return out


def preprocess(matrix: DataMatrix) -> DataMatrix:
    """Normalize each subject column by its median, then apply signed_log1p.

    A column whose median is exactly zero cannot be normalized and raises
    PreprocessingError naming the subject. Negative medians are allowed.
    """
    medians = np.median(matrix.values, axis=0)
    zero = np.flatnonzero(medians == 0.0)
    if zero.size:
        raise PreprocessingError(
            f"subject {matrix.subject_ids[zero[0]]!r} has zero column median"
        )
    return DataMatrix(
        values=_signed_log1p_over(matrix.values / medians),
        feature_ids=matrix.feature_ids,
        subject_ids=matrix.subject_ids,
        labels=matrix.labels,
    )


def _misnamed(names, kind: str) -> tuple[int, str] | None:
    """The index of the first blank name or repeat of an earlier one, and
    what is wrong with it (a ``kind``); None if the names are unique."""
    if "" not in names and len(set(names)) == len(names):  # walk them only to find it
        return None
    seen = set()
    for i, name in enumerate(names):
        if not name or name in seen:
            return i, f"duplicate {kind} {name!r}" if name else f"blank {kind}"
        seen.add(name)
