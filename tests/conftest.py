import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from dfdr import DataMatrix, DecisionResult, Pi0Estimate, StatisticSet, resolve_pi0
from dfdr.decision import Curve
from dfdr.errors import ParseError
from dfdr.estimators import array_tiles, dfdr_from_counts, weight_exceedances


SRC = str(Path(__file__).resolve().parents[1] / "src")
# Prints the number of OS threads of the process (Linux).
PRINT_TASKS = "import os; print(len(os.listdir('/proc/self/task')))"
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task (Linux)"
)


def run_python(code: str, *args: str, env: dict | None = None) -> str:
    """The stdout of ``python -c code args`` in a fresh interpreter that
    imports dfdr from this checkout, which must exit 0. ``env`` sets
    variables over the current environment; a value of None removes one."""
    full = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for var, value in (env or {}).items():
        full.pop(var, None)
        if value is not None:
            full[var] = value
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=full, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture
def tiny_matrix() -> DataMatrix:
    """3 features x 4 subjects, two groups of two."""
    return DataMatrix(
        values=np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [5.0, 5.0, 5.0, 5.0],
                [2.0, 4.0, 1.0, 3.0],
            ]
        ),
        feature_ids=("g1", "g2", "g3"),
        subject_ids=("s1", "s2", "s3", "s4"),
        labels=("A", "A", "B", "B"),
    )


@pytest.fixture
def four_test_stats() -> StatisticSet:
    """The worked 4-test example: one permutation, hand-checkable counts."""
    return four_tests()


def four_tests(weights=None) -> StatisticSet:
    """The worked 4-test example, built with per-test ``weights`` if given."""
    return StatisticSet.from_null(np.array([3.0, 2.0, 1.0, 0.5]), FOUR_TEST_NULLS, 1, weights)


FOUR_TEST_NULLS = np.array([0.5, 0.4, 0.3, 0.2])


@pytest.fixture
def pi0_one() -> Pi0Estimate:
    return Pi0Estimate.fixed_one()


def random_statistic_set(
    rng: np.random.Generator, max_m: int = 50, max_b: int = 5
) -> tuple[StatisticSet, np.ndarray]:
    """Random small instance with ties (one-decimal rounding) and occasional
    +inf, with its null."""
    m = int(rng.integers(1, max_m + 1))
    b = int(rng.integers(1, max_b + 1))
    observed = np.round(np.abs(rng.normal(1.0, 1.0, size=m)), 1)
    nulls = np.round(np.abs(rng.normal(0.8, 0.8, size=m * b)), 1)
    if rng.random() < 0.1:
        observed[rng.integers(0, m)] = np.inf
    return StatisticSet.from_null(observed, nulls, b), nulls


def null_summary(nulls) -> StatisticSet:
    """A stored null as one test's permutations, unobserved: what
    ``choose_lambda`` reads of the values."""
    nulls = np.asarray(nulls, dtype=float).ravel()
    return StatisticSet(1, nulls.size).feed(array_tiles(nulls, 1))


def dfdr_at(stats: StatisticSet, pi0: Pi0Estimate, tau: float, weights=None):
    """(dFDR, discoveries, null exceedances) of [tau, inf), from the engine's counts.

    The null is read tile by tile from the set's tile source, so a null
    that was never held whole (from ``build_statistic_set``) is recomputed
    here.
    """
    w = np.ones(stats.n_tests, np.intp) if weights is None else np.asarray(weights, dtype=float)
    obs = weight_exceedances(stats.observed, w, tau)
    null = sum(weight_exceedances(tile.ravel(), w[rows], tau) for rows, tile in stats.tiles())
    value = dfdr_from_counts(pi0.value, null / stats.n_null, obs, stats.n_tests)
    return float(value), obs, null


@dataclass(frozen=True)
class FixedThresholdRule:
    """Decision rule for measure_error_rates: reject every statistic >= tau."""

    tau: float
    pi0_mode: object = "one"

    def __call__(self, stats: StatisticSet) -> DecisionResult:
        pi0 = resolve_pi0(stats, self.pi0_mode)
        return DecisionResult(
            tau=float(self.tau),
            rejected=np.flatnonzero(stats.observed >= self.tau),
            dfdr=dfdr_at(stats, pi0, self.tau)[0],
            desirability=math.nan,
            pi0=pi0,
            curve=Curve(*[np.empty(0)] * 4),  # no candidates scanned
        )


# The read_table arguments of each input file: (columns, text columns, finite).
WEIGHTS_HEADER = ["feature_id", "benefit", "cost"]
SUBSETS_HEADER = ["feature_id", "subset", "group_a", "group_b", "benefit", "cost"]
TABLE_KINDS = {
    "matrix": (None, 1, True),
    "labels": (2, 2, False),
    "pvalues": (1, 0, False),
    "weights": (WEIGHTS_HEADER, 1, False),
    "subsets": (SUBSETS_HEADER, 4, False),
}


def oracle_cell(cell: str, finite: bool) -> float:
    """float() of a stripped cell, or a ValueError saying what is wrong with it."""
    if finite and cell.upper() in ("", "NA", "NAN"):
        raise ValueError("missing value")
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric cell {cell!r}") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


def oracle_table(path, columns, strings, finite=False):
    """``data.read_table`` by README "File formats", on the whole text: lines
    as ``str.splitlines`` ends them, whitespace-only lines skipped but
    counted, the header the first line left, then float() on each number."""
    lines = [(n, line) for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
             if line.strip()]
    header, width = None, columns
    if not isinstance(columns, int):
        if not lines:
            what = "a header row" if columns is None else f"the header {'<TAB>'.join(columns)!r}"
            raise ParseError(f"{path}: empty file, expected {what}")
        (head, line), lines = lines[0], lines[1:]
        header = [c.strip() for c in line.split("\t")]
        if columns is not None and header != columns:
            raise ParseError(f"{path}: header must be {'<TAB>'.join(columns)!r}")
        for col, name in enumerate(header[strings:], start=strings + 1):
            if not name:
                raise ParseError(f"{path}: row {head}, column {col}: blank header cell")
            if name in header[strings : col - 1]:
                raise ParseError(f"{path}: row {head}, column {col}: duplicate header cell {name!r}")
        width = len(header)
    rows, values = [], []
    for lineno, line in lines:
        cells = line.split("\t")
        if len(cells) != width:
            raise ParseError(f"{path}: row {lineno}: expected {width} fields, got {len(cells)}")
        for col, cell in enumerate(cells[strings:], start=strings + 1):
            try:
                values.append(oracle_cell(cell.strip(), finite))
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}, column {col}: {exc}") from None
        if strings:
            rows.append((lineno, *(c.strip() for c in cells[:strings])))
    return header, rows, np.array(values, dtype=float).reshape(len(lines), width - strings)
