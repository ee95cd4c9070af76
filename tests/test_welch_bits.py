"""Golden bits: the Welch kernel's output, pinned by sha256 digest.

The other kernel tests check that ``welch_abs_t`` agrees with itself across
blockings and batches. These pin its bytes to a recorded reference, so a new
layout of the kernel's temporaries that moved any bit fails here. The digests
in ``welch_bits.json`` were recorded with the rows x positions kernel of
commit f21e54d; regenerate them only for a change that is meant to move
bits, with

    PYTHONPATH=src python tests/test_welch_bits.py
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dfdr.cli import main
from dfdr.stats import welch_abs_t

GOLDEN = Path(__file__).with_name("welch_bits.json")
SIMULATE = ["simulate", "--m", "300", "--replicates", "9", "--seed", "7"]


def _splits(rng, n, count):
    return np.stack([np.arange(n)] + [rng.permutation(n) for _ in range(count - 1)])


def _constant(rng):
    n, n_a = 12, 5
    levels = [0.1, math.log(100), -7.0, 1e-300, 1e300, 5e-324, 0.0]
    values = rng.normal(size=(40, n))
    values[::3] = np.array([levels[i % len(levels)] for i in range(0, 40, 3)])[:, None]
    return values, np.arange(n), n_a, _splits(rng, n, 30)


def _sentinels(rng):
    # rows of two levels, one per group of the identity split: +inf at the
    # identity and at any split that keeps the groups together
    n, n_a = 14, 6
    pairs = [(0.1, 0.3), (math.log(7), math.log(100)), (1e8, 1e8 + 2), (-1e-200, 3e-200)]
    values = np.empty((24, n))
    for i in range(values.shape[0]):
        low, high = pairs[i % len(pairs)]
        values[i, :n_a], values[i, n_a:] = high, low
    # one group constant, the other constant but for one value an ulp off
    values[1::4, -1] = np.nextafter(values[1::4, -1], math.inf)
    within = np.concatenate([rng.permutation(n_a), n_a + rng.permutation(n - n_a)])
    splits = np.vstack([np.arange(n), within, _splits(rng, n, 20)])
    return values, np.arange(n), n_a, splits


def _two_pass(rng):
    # spreads too narrow for the one-pass form: each group tight about its own
    # level, spreads of a few ulps, ties and outliers
    n, n_a = 16, 7
    rows = []
    for i in range(60):
        kind = i % 5
        if kind == 0:
            row = 1.0 + rng.normal(size=n) * 1e-4
            row[:n_a] = rng.normal(size=n_a) * 1e-4
        elif kind == 1:
            row = 1e6 + rng.integers(-3, 4, size=n) * np.spacing(1e6)
            row[:n_a] = 1.0 + rng.integers(-3, 4, size=n_a) * 1e-9
        elif kind == 2:
            row = 1e8 + rng.integers(-3, 4, size=n) * np.spacing(1e8)
        elif kind == 3:
            row = rng.choice([0.1, 0.3, 0.7], size=n)
        else:
            row = 1.0 + rng.normal(size=n) * 1e-9
            row[rng.integers(n)] = 1e6
        rows.append(row)
    return np.array(rows), np.arange(n), n_a, _splits(rng, n, 40)


def _scales(rng):
    n, n_a = 11, 4
    values = rng.normal(size=(81, n)) * 10.0 ** np.linspace(-200, 200, 81)[:, None]
    return values, np.arange(n), n_a, _splits(rng, n, 25)


def _offset(rng):
    n, n_a = 20, 10
    values = 1e8 + rng.normal(size=(50, n)) * 1e-6
    return values, np.arange(n), n_a, _splits(rng, n, 25)


def _blocks(rng):
    # several row blocks, the first strided, and two chunks of splits
    n, n_a = 24, 11
    values = rng.normal(size=(900, n + 2)) * rng.choice([1e-3, 1.0, 1e5], size=(900, 1))
    pool = rng.permutation(n + 2)[:n]
    return values, pool, n_a, _splits(rng, n, 70)


def _shape(n):
    def case(rng):
        # extra columns and a shuffled pool
        values = rng.normal(size=(100 + n, n + 3)) + rng.normal(size=(100 + n, 1)) * 10
        pool = rng.permutation(n + 3)[:n]
        n_a = int(rng.integers(2, n - 1))
        return values, pool, n_a, _splits(rng, n, 70)

    return case


CASES = {
    "constant": _constant,
    "sentinels": _sentinels,
    "two_pass": _two_pass,
    "scales": _scales,
    "offset": _offset,
    "blocks": _blocks,
    **{f"n{n}": _shape(n) for n in range(4, 25)},
}


def case_digest(name: str) -> str:
    rng = np.random.default_rng(list(name.encode()))
    t = welch_abs_t(*CASES[name](rng))
    return hashlib.sha256(t.tobytes()).hexdigest()


def simulate_digest(out: Path) -> str:
    assert main(SIMULATE + ["--out", str(out)]) == 0
    return hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned(golden):
    assert sorted(golden["welch_abs_t"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_welch_abs_t_bits(golden, name):
    assert case_digest(name) == golden["welch_abs_t"][name]


def test_simulate_report_bits(golden, tmp_path):
    assert simulate_digest(tmp_path / "out") == golden["simulate_report"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        report = simulate_digest(Path(tmp) / "out")
    digests = {name: case_digest(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps({"welch_abs_t": digests, "simulate_report": report}, indent=2) + "\n")
