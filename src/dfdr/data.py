"""Measurement-matrix ingestion and per-subject normalization.

The expected on-disk layout is a tab-separated matrix file (header row of
subject identifiers, one leading feature-identifier column) plus a two-column
labels file mapping each subject to a group tag. Missing values are not
supported: a blank, NA or NaN cell, a cell float() cannot read and an
infinite cell are parse errors, and the error names the first bad row or cell
in file order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dfdr.errors import ParseError, PreprocessingError, ValidationError


@dataclass(frozen=True)
class DataMatrix:
    """Feature-by-subject measurement matrix with group labels.

    ``values`` has shape (n_features, n_subjects); ``labels[j]`` is the group
    tag of subject ``j``. Feature and subject identifiers must be unique.
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
            if len(set(ids)) != len(ids):  # walk the ids only to name the repeat
                raise ValidationError(f"duplicate {kind} id {_first_duplicate(ids)!r}")
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
    """Read a two-column (subject id, group tag) tab-separated file."""
    labels: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 2:
            raise ParseError(
                f"{path}: row {lineno}: expected 2 tab-separated fields, "
                f"got {len(fields)}"
            )
        subject, tag = fields[0].strip(), fields[1].strip()
        if not subject or not tag:
            raise ParseError(f"{path}: row {lineno}: empty subject id or group tag")
        if subject in labels:
            raise ValidationError(f"{path}: duplicate subject id {subject!r}")
        labels[subject] = tag
    if not labels:
        raise ParseError(f"{path}: no label rows found")
    return labels


def load_matrix(matrix_path, labels_path) -> DataMatrix:
    """Read a tab-separated measurement matrix plus its labels file.

    The matrix header row carries subject identifiers (its first cell is
    ignored); every following row is a feature identifier and one numeric
    value per subject. Every subject must appear in the labels file; label
    entries for unknown subjects are ignored.
    """
    label_map = load_labels(labels_path)
    subject_ids, feature_ids, values = _read_fast(matrix_path) or _read_plain(matrix_path)
    missing = [s for s in subject_ids if s not in label_map]
    if missing:
        raise ValidationError(
            f"{labels_path}: no group label for subject {missing[0]!r}"
        )
    return DataMatrix(
        values=values,
        feature_ids=tuple(feature_ids),
        subject_ids=tuple(subject_ids),
        labels=tuple(label_map[s] for s in subject_ids),
    )


# str.splitlines breaks lines at these too, the file's line iterator does not;
# NUL could end a C parser's cell early
_UNLIKE_LINES = "\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def whole_lines(f):
    """The text of the open file ``f`` in pieces of about 64 KiB, each of whole lines."""
    return iter(lambda: f.read(2**16) + f.readline(), "")


def _read_fast(path):
    """(subject ids, feature ids, values) by ``np.loadtxt``, or None.

    None wherever the plain parser may decide otherwise: a line it would
    split elsewhere, a row without one cell per subject, fewer than two
    subjects or no row, a cell ``np.loadtxt`` does not read (it reads no cell
    that float() rejects, and the others to the same bits; it rejects some
    that float() reads, such as ``1_0``), or a value that is not finite. The
    rows are checked a piece of whole lines at a time before ``np.loadtxt``
    reads them.
    """
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline()
            n = header.count("\t")
            feature_ids = []
            for piece in whole_lines(f):
                lines = piece.splitlines()  # at "\n" alone, in a piece that passes
                if any(c in piece for c in _UNLIKE_LINES) or any(line.count("\t") != n for line in lines):
                    return None
                feature_ids += [line.partition("\t")[0].strip() for line in lines]
            if n < 2 or not feature_ids or any(c in header for c in _UNLIKE_LINES):
                return None
            f.seek(0)
            values = np.loadtxt(
                f, delimiter="\t", comments=None, skiprows=1, usecols=range(1, n + 1), ndmin=2
            )
    except (OSError, UnicodeDecodeError, ValueError):
        return None  # the plain parser raises the error, or reads what loadtxt did not
    if values.shape != (len(feature_ids), n) or not np.isfinite(values).all():
        return None
    subject_ids = [cell.strip() for cell in header.rstrip("\n").split("\t")[1:]]
    return subject_ids, feature_ids, values


def _read_plain(path):
    """(subject ids, feature ids, values), by float() on every cell.

    One pass in file order. A row is parsed whole; only a row that does not
    give finite floats is walked cell by cell, to name its first bad cell: a
    blank, NA or NaN cell is a missing value, any other must give a finite
    float().
    """
    lines = read_text(path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 2:
        raise ParseError(f"{path}: need a header row and at least one feature row")
    header = lines[0].split("\t")
    subject_ids = [cell.strip() for cell in header[1:]]
    n = len(subject_ids)
    if n < 2:
        raise ParseError(f"{path}: header row names fewer than two subjects")
    feature_ids: list[str] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != n + 1:
            raise ParseError(f"{path}: row {lineno}: expected {n + 1} fields, got {len(fields)}")
        try:
            row = list(map(float, fields[1:]))
            bad = not all(map(math.isfinite, row))
        except ValueError:
            bad = True
        if bad:
            for col, cell in enumerate(fields[1:], start=2):
                cell = cell.strip()
                if not cell or cell.upper() in ("NA", "NAN"):
                    raise ParseError(f"{path}: row {lineno}, column {col}: missing value")
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: non-numeric cell {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: non-finite cell {cell!r}"
                    )
        feature_ids.append(fields[0].strip())
        rows.append(row)
    return subject_ids, feature_ids, np.array(rows, dtype=float)


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


def _first_duplicate(items) -> str | None:
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None
