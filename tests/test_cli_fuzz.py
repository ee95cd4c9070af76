"""A fuzzer for ``dfdr simulate``: every flag at and beyond the edges of its
``cli.RANGES`` row, at tiny sizes, through ``cli.main`` in-process.

For every case: the exit code is 0, 1 or 2; exit 1 or 2 writes no file
under --out; exit 0 writes nothing to stderr and raises no warning, and its
report holds no ``nan`` where a number is defined; a rerun gives the same
exit code, stderr and report bytes.
"""

import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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


def check(argv):
    with tempfile.TemporaryDirectory() as temp:
        first, second = Path(temp, "first"), Path(temp, "second")
        code, err, caught = run(argv, first)
        assert code in (0, 1, 2), err
        if code:
            assert not first.exists() or not any(first.iterdir()), sorted(first.iterdir())
        else:
            assert err == "" and caught == []
            report = (first / "report.txt").read_text()
            replicates = int(report.split("replicates\t")[1].split("\n")[0])
            assert undefined_numbers(report, replicates) == []
        assert run(argv, second) == (code, err.replace(str(first), str(second)), caught)
        if code == 0:
            assert (second / "report.txt").read_bytes() == (first / "report.txt").read_bytes()


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
