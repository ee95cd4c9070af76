"""A fuzzer for the CLI, through ``cli.main`` in-process: ``dfdr simulate``
with every flag at and beyond the edges of its ``cli.RANGES`` row, at tiny
sizes; ``dfdr analyze --weights`` with weights files of extreme,
non-numeric, repeated and missing cells on a small generated matrix;
``dfdr analyze --subsets`` with subsets files of such cells, names that
cannot name a file, unknown, repeated and overlapping features, unknown
groups and ``--min-subset-size`` at its edges, on the same matrix;
``dfdr analyze`` on edited copies of that matrix and its labels file; and
``dfdr reproduce`` with every flag at and beyond the edges of its rules.

For every case: the exit code is 0, 1 or 2; exit 1 or 2 writes no file
under --out; exit 0 writes nothing to stderr and raises no warning, and its
outputs hold no ``nan`` where a number is defined; a rerun gives the same
exit code, stderr and output bytes.
"""

import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfdr.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=500)

EDGES = ["nan", "inf", "-inf", "0", "-0", "-1", "1e308", "1e-320"]
NOT_INTS = ["nan", "1e308", "1.5"]
# each flag's values: the shared edges, then those of its RANGES row and ordinary ones
FLAGS = {
    "--m": ["-1", "0", "1", "2", "40", "1" + "0" * 30, *NOT_INTS],
    "--replicates": ["-1", "0", "1", "3", *NOT_INTS],
    "--permutations": ["-1", "0", "1", "4", str(2**32), *NOT_INTS],
    "--n-a": ["-1", "0", "1", "2", "3", *NOT_INTS],
    "--n-b": ["-1", "0", "1", "2", "5", *NOT_INTS],
    "--seed": ["-1", "0", str(2**32 - 1), str(2**32), str(2**64), str(2**200), *NOT_INTS],
    "--block-size": ["-1", "0", "1", "2", "7", "41", "1" + "0" * 20, *NOT_INTS],
    "--block-rho": [*EDGES, "1", "0.999999", "0.5"],
    "--pi0-true": [*EDGES, "1", "0.999", "0.5"],
    "--delta": [*EDGES, "2", "-3", "1e154", "-1e200"],
    "--cost-ratio": [*EDGES, "1e300", "1.0000001e300", "19"],
    "--p-threshold": [*EDGES, "1", "0.05", "1e-300", "9.9e-301"],
    "--alpha": [*EDGES, "1", "0.999", "0.05", "1e-300"],
    "--boundary-fraction": [*EDGES, "1", "0.999999", "0.5"],
    "--pi0": [*EDGES, "estimate", "one", "1", "0.5", "2"],
    "--mode": ["maximize", "control", "other"],
    "--truth-mode": ["fixed", "random", "other"],
}


@st.composite
def simulate_argv(draw):
    """Tiny sizes, then up to six flags from FLAGS (a later flag wins)."""
    argv = ["simulate", "--m", str(draw(st.integers(1, 40))),
            "--replicates", str(draw(st.integers(1, 3))),
            "--permutations", str(draw(st.integers(1, 4)))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), max_size=6, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAGS[flag]))]
    return argv


def run(argv, out: Path):
    """(exit code, stderr, warnings raised) of ``dfdr argv --out out``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def undefined_numbers(report: str, replicates: int) -> list[str]:
    """The report's lines that print nan for a defined number; fdr_se is
    undefined with one replicate."""
    bad = []
    for line in report.splitlines():
        key, *values = line.split("\t")
        if key == "fdr_se" and replicates == 1:
            continue
        if any(v.rpartition("=")[2] == "nan" for v in values):
            bad.append(line)
    return bad


def undefined_in_report(out: Path) -> list[str]:
    report = (out / "report.txt").read_text()
    return undefined_numbers(report, int(report.split("replicates\t")[1].split("\n")[0]))


def check(argv, undefined=undefined_in_report):
    """The contracts above for ``dfdr argv``; ``undefined(out)`` lists the
    nan printed for a defined number in the outputs of a run into ``out``."""
    with tempfile.TemporaryDirectory() as temp:
        first, second = Path(temp, "first"), Path(temp, "second")
        code, err, caught = run(argv, first)
        assert code in (0, 1, 2), err
        if code:
            assert not first.exists() or not any(first.iterdir()), sorted(first.iterdir())
        else:
            assert err == "" and caught == []
            assert undefined(first) == []
        assert run(argv, second) == (code, err.replace(str(first), str(second)), caught)
        if code == 0:
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (second / name).read_bytes() == (first / name).read_bytes(), name


@FUZZ
@given(simulate_argv())
def test_simulate_flags(argv):
    check(argv)


# Cases the fuzzer found, each fixed.


def test_block_size_beyond_int64():
    # a block of more than m features is one block of m; a size past int64
    # used to exit 3 from np.arange(m) // block_size
    check(["simulate", "--m", "19", "--replicates", "2", "--permutations", "1",
           "--block-size", "1" + "0" * 20, "--block-rho", "0.5"])


# ``analyze --weights``: a matrix of M features, 4 vs 4 subjects, whose
# feature 0 is constant and feature 1 a +inf sentinel; every weights row
# starts from one ordinary (benefit, cost) pair, then cells take values
# from CELLS, and rows go missing, repeat or name no feature.
M = 12
CELLS = ["nan", "inf", "-inf", "-1", "-0", "0", "1e-320", "1e308", "1e-300", "1e300",
         "abc", "", "1", "19"]


def write_matrix(folder: Path, seed: int) -> list[str]:
    """The matrix and labels files in ``folder``, as analyze argv."""
    values = np.random.default_rng(seed).normal(size=(M, 8))
    values[:4, 4:] += 3.0
    values[0] = 1.5
    values[1] = [2.0] * 4 + [5.0] * 4
    subjects = [f"s{j}" for j in range(8)]
    rows = ["\t".join(["feature_id", *subjects])]
    rows += ["\t".join([f"g{i}", *map(repr, row.tolist())]) for i, row in enumerate(values)]
    (folder / "matrix.tsv").write_text("\n".join(rows) + "\n")
    (folder / "labels.tsv").write_text("".join(f"{s}\t{'AB'[j >= 4]}\n" for j, s in enumerate(subjects)))
    return ["analyze", "--matrix", str(folder / "matrix.tsv"), "--labels", str(folder / "labels.tsv"),
            "--group-a", "A", "--group-b", "B"]


@st.composite
def weights_case(draw):
    """(matrix seed, weights file text, analyze flags without the files)."""
    rows = [[f"g{i}", *draw(st.sampled_from([("1", "19"), ("2", "19"), ("0.5", "3")]))] for i in range(M)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, M - 1))][draw(st.integers(1, 2))] = draw(st.sampled_from(CELLS))
    for i in sorted(draw(st.sets(st.integers(0, M - 1), max_size=2)), reverse=True):
        edit = draw(st.sampled_from(["drop", "repeat", "rename"]))
        if edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.append(list(rows[i]))
        else:
            rows[i][0] = "nowhere"
    text = "feature_id\tbenefit\tcost\n" + "".join("\t".join(row) + "\n" for row in rows)
    flags = ["--permutations", str(draw(st.integers(1, 6))), "--seed", str(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        flags += ["--pi0", draw(st.sampled_from(["estimate", "one", "0.5", "0"]))]
    return draw(st.integers(0, 3)), text, flags


def undefined_cells(out: Path) -> list[str]:
    """Output lines that print nan for a defined number: every cell of the
    tables, and every summary field but lambda, which is nan unless pi0 is
    estimated; in each decision's files (one per subset with --subsets)."""
    bad = []
    for path in sorted(out.iterdir()):
        lines = path.read_text().splitlines()
        if path.name.startswith("summary"):
            summary = dict(line.split("\t") for line in lines)
            bad += [f"{path.name} {k}" for k, v in summary.items()
                    if v == "nan" and not (k == "lambda" and summary["pi0_mode"] != "estimated")]
        else:
            bad += [f"{path.name} {line}" for line in lines if "nan" in line.split(",")]
    return bad


@settings(derandomize=True, deadline=None, max_examples=300)
@given(weights_case())
def test_weights_files(case):
    seed, text, flags = case
    with tempfile.TemporaryDirectory() as temp:
        (Path(temp) / "weights.tsv").write_text(text)
        argv = write_matrix(Path(temp), seed) + flags + ["--weights", str(Path(temp) / "weights.tsv")]
        check(argv, undefined_cells)


# ``analyze --subsets`` on the same matrix: its features fall into one to
# three subsets s, t and u, each comparing A with B or B with A (a
# comparison of its own, which may share features with A vs B) at an
# ordinary (benefit, cost) pair. Then up to two edits: a subset's costs, or
# one row's, take values from CELLS; a row takes a name from NAMES; a
# subset's groups become a pair of PAIRS (Z is no group); a row goes
# missing, repeats, joins a second subset or names no feature.
NAMES = ["", ".", "..", "a/b", "a\x00b", "n" * 300, "s", "t", "v"]
PAIRS = [("A", "B"), ("B", "A"), ("A", "Z"), ("Z", "B"), ("A", "A")]
ORDINARY = [("1", "19"), ("2", "19"), ("0.5", "3")]
EDITS = ["costs", "cell", "name", "groups", "drop", "repeat", "join", "rename"]
MIN_SIZES = ["-1", "0", str(M), str(M + 1), "1" + "0" * 30, "nan", "2.5"]


@st.composite
def subsets_case(draw):
    """(matrix seed, subsets file text, analyze flags without the files)."""
    subsets = [[name, *draw(st.sampled_from(PAIRS[:2])), *draw(st.sampled_from(ORDINARY))]
               for name in "stu"[: draw(st.integers(1, 3))]]
    rows = [[f"g{i}", *draw(st.sampled_from(subsets))] for i in range(M)]
    for _ in range(draw(st.integers(0, 2))):
        edit, i = draw(st.sampled_from(EDITS)), draw(st.integers(0, len(rows) - 1))
        if edit in ("costs", "groups"):  # in every row of one subset
            name = draw(st.sampled_from(subsets))[0]
            if edit == "costs":
                columns, values = [draw(st.integers(4, 5))], [draw(st.sampled_from(CELLS))]
            else:
                columns, values = [2, 3], draw(st.sampled_from(PAIRS))
            for row in rows:
                if row[1] == name:
                    for column, value in zip(columns, values):
                        row[column] = value
        elif edit == "cell":
            rows[i][draw(st.integers(4, 5))] = draw(st.sampled_from(CELLS))
        elif edit == "name":
            rows[i][1] = draw(st.sampled_from(NAMES))
        elif edit == "drop":
            del rows[i]
        elif edit == "repeat":
            rows.append(list(rows[i]))
        elif edit == "join":
            rows.append([rows[i][0], *draw(st.sampled_from(subsets))])
        else:
            rows[i][0] = "nowhere"
    header = "feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n"
    text = header + "".join("\t".join(row) + "\n" for row in rows)
    min_size = draw(st.one_of(st.integers(1, 4).map(str), st.sampled_from(MIN_SIZES)))
    flags = ["--min-subset-size", min_size,
             "--permutations", str(draw(st.integers(1, 6))), "--seed", str(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        flags += ["--pi0", draw(st.sampled_from(["estimate", "one", "0.5", "0"]))]
    return draw(st.integers(0, 3)), text, flags


@settings(derandomize=True, deadline=None, max_examples=300)
@given(subsets_case())
def test_subsets_files(case):
    seed, text, flags = case
    with tempfile.TemporaryDirectory() as temp:
        (Path(temp) / "subsets.tsv").write_text(text)
        argv = write_matrix(Path(temp), seed) + flags + ["--subsets", str(Path(temp) / "subsets.tsv")]
        check(argv, undefined_cells)


# ``analyze`` on generated matrices and labels files, the same 4 vs 4
# subjects: up to three edits of the matrix, among them ragged, constant,
# tiny, huge and subnormal rows, blank, repeated and non-UTF-8 feature or
# subject ids, and a character of ``data._UNLIKE_LINES`` anywhere; and of
# the labels file, missing, extra and repeated subjects and one-member
# groups; then a comparison with group B, a group C or group A itself.
UNLIKE = ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]
ROWS = {
    "constant": lambda rng: np.full(8, 2.5),
    "tiny": lambda rng: rng.normal(size=8) * 1e-300,
    "huge": lambda rng: rng.normal(size=8) * 1e300,
    "extreme": lambda rng: rng.choice([1e308, -1e308, 1.7e308], size=8),
    "subnormal": lambda rng: rng.choice([5e-324, -5e-324, 1e-320, 0.0], size=8),
}
IDS = ["", " ", "g0", "s0", "\udcff"]  # "\udcff" is written as the byte 0xff, which is not UTF-8


@st.composite
def matrix_case(draw):
    """(matrix lines, labels lines, analyze flags without the files)."""
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    values = rng.normal(size=(M, 8))
    values[:4, 4:] += 3.0
    cells = [list(map(repr, row)) for row in values.tolist()]
    ids, subjects, tags = [f"g{i}" for i in range(M)], [f"s{j}" for j in range(8)], list("AAAABBBB")
    for _ in range(draw(st.integers(0, 3))):
        edit, i = draw(st.sampled_from(["row"] * 4 + ["ragged", "id", "subject"])), draw(st.integers(0, M - 1))
        if edit == "row":
            cells[i] = list(map(repr, ROWS[draw(st.sampled_from(sorted(ROWS)))](rng).tolist()))
        elif edit == "ragged":
            cells[i] = cells[i][:-1] if draw(st.booleans()) else cells[i] + ["1.0"]
        elif edit == "id":
            ids[i] = draw(st.sampled_from(IDS))
        else:
            subjects[i % 8] = draw(st.sampled_from(IDS))
    labels = [f"s{j}\t{tag}" for j, tag in enumerate(tags)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        edit, j = draw(st.sampled_from(["missing", "repeat"] + ["extra", "alone"] * 3)), draw(st.integers(0, 7))
        if edit == "missing":
            labels = [line for line in labels if not line.startswith(f"s{j}\t")]
        elif edit == "extra":
            labels.append(draw(st.sampled_from(["s9\tA", "s9\tC", "x\tB"])))
        elif edit == "repeat":
            labels.append(f"s{j}\t{draw(st.sampled_from('AB'))}")
        else:  # s{j} the one member of group C
            labels = [f"s{j}\tC" if line.startswith(f"s{j}\t") else line for line in labels]
    lines = ["\t".join(["feature_id", *subjects])] + ["\t".join([g, *row]) for g, row in zip(ids, cells)]
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(UNLIKE)) + lines[k][at:]
    flags = ["--group-b", draw(st.sampled_from("BBBCA")),  # A: a group compared with itself
             "--permutations", str(draw(st.integers(1, 6))), "--seed", str(draw(st.integers(0, 9)))]
    flags += draw(st.sampled_from([[], ["--preprocess"], ["--pi0", "one"], ["--mode", "control"]]))
    return lines, labels, flags


@settings(derandomize=True, deadline=None, max_examples=300)
@given(matrix_case())
def test_matrix_and_labels_files(case):
    lines, labels, flags = case
    with tempfile.TemporaryDirectory() as temp:
        mpath, lpath = Path(temp, "matrix.tsv"), Path(temp, "labels.tsv")
        mpath.write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))
        lpath.write_text("".join(line + "\n" for line in labels))
        check(["analyze", "--matrix", str(mpath), "--labels", str(lpath), "--group-a", "A", *flags],
              undefined_cells)


# ``reproduce`` on a matrix of 50 features (the second comparison's subset
# needs the default minimum of 50) and 4 ALL, 4 AML and 4 TALL subjects:
# --permutations and --seed at and beyond the edges of their rules and
# ``cli.RANGES`` rows, and each group flag an ordinary group, another
# flag's group, or a group that no subject has.
REPRODUCE = {
    "--permutations": ["-1", "0", "1", "4", str(2**32 - 1), str(2**32), *NOT_INTS],
    "--seed": FLAGS["--seed"],
    "--group-a": ["ALL", "AML", "Z"],
    "--group-b": ["AML", "ALL", "TALL", "Z"],
    "--group-t": ["TALL", "ALL", "AML", "Z"],
}


def undefined_in_comparison(out: Path) -> list[str]:
    """Rows of comparison.csv that print nan: every number in it is defined."""
    return [line for line in (out / "comparison.csv").read_text().splitlines() if "nan" in line.split(",")]


def write_reference_matrix(folder: Path, seed: int) -> list[str]:
    """The matrix and labels files in ``folder``, as reproduce argv."""
    values = np.random.default_rng(seed).lognormal(size=(50, 12))
    values[:10, 4:8] *= 3.0
    subjects = [f"s{j}" for j in range(12)]
    rows = ["\t".join(["feature_id", *subjects])]
    rows += ["\t".join([f"g{i}", *map(repr, row)]) for i, row in enumerate(values.tolist())]
    (folder / "matrix.tsv").write_text("\n".join(rows) + "\n")
    (folder / "labels.tsv").write_text("".join(f"{s}\t{('ALL', 'AML', 'TALL')[j // 4]}\n"
                                               for j, s in enumerate(subjects)))
    return ["reproduce", "--matrix", str(folder / "matrix.tsv"), "--labels", str(folder / "labels.tsv")]


@st.composite
def reproduce_flags(draw):
    """(matrix seed, up to five flags from REPRODUCE after --permutations 3)."""
    flags = ["--permutations", "3"]
    for flag in draw(st.lists(st.sampled_from(sorted(REPRODUCE)), max_size=5, unique=True)):
        flags += [flag, draw(st.sampled_from(REPRODUCE[flag]))]
    return draw(st.integers(0, 3)), flags


@settings(derandomize=True, deadline=None, max_examples=300)
@given(reproduce_flags())
def test_reproduce_flags(case):
    seed, flags = case
    with tempfile.TemporaryDirectory() as temp:
        check(write_reference_matrix(Path(temp), seed) + flags, undefined_in_comparison)
