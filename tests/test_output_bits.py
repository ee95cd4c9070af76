"""Golden outputs: every analyze route's files, pinned by sha256 digest.

Each route runs the CLI on small seeded inputs, and the digests of the files
it writes (``summary*.txt``, ``tests*.csv``, ``curve*.csv``, and
``comparison.csv`` for ``reproduce``) must match ``output_bits.json``. The
routes: maximize (on a null large enough to stream), control, non-integer
``--weights`` (streamed as well), two-comparison ``--subsets``, ``--pvalues``
in both modes and with ``--pi0 one`` and a number, ``reproduce`` with and
without ``--group-t``, and a matrix
with a ``1_0`` cell, which ``np.loadtxt`` refuses, so the plain parser reads
it. The digests were recorded at commit f51f16a, except the ``weights``
route's ``curve.csv``, recorded again on top of a423a9b when the null weight
sums came to be formed from exact counts per distinct weight (7 of its 1202
rows moved in the 12th significant digit), and the ``pvalues_one`` and
``pvalues_number`` routes, recorded at 5caa740, before the p-value route's
pi0 came to be decided by the same rule as the matrix route's. Regenerate them only for a change
that is meant to move output bytes, with

    PYTHONPATH=src python tests/test_output_bits.py
"""

import hashlib
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dfdr import PermutationPlan, build_statistic_set, load_matrix, permutation_null
from dfdr.cli import _load_weights, main

GOLDEN = Path(__file__).with_name("output_bits.json")
M = 1200
GROUPS = ["ALL"] * 8 + ["AML"] * 7 + ["TALL"] * 5
INPUTS = ("matrix", "labels", "weights", "subsets", "plain", "pvalues")


def write_inputs(root: Path) -> dict[str, str]:
    """The seeded input files under ``root``, by name."""
    rng = np.random.default_rng(20020)
    values = np.abs(rng.normal(2.0, 0.5, size=(M, len(GROUPS)))) + 0.5
    values[:60, 8:15] *= 2.0
    values[60:100, 15:] *= 1.8
    values[100:110] = np.round(values[100:110], 1)  # ties among the statistics
    subjects = [f"s{j:02d}" for j in range(len(GROUPS))]
    rows = ["\t".join(["feature_id", *subjects])]
    rows += ["\t".join([f"g{i:04d}", *map(repr, v.tolist())]) for i, v in enumerate(values)]
    paths = {name: root / f"{name}.tsv" for name in INPUTS}
    paths["matrix"].write_text("\n".join(rows) + "\n")
    plain = rows[:41]
    cells = plain[7].split("\t")
    plain[7] = "\t".join([cells[0], "1_0", *cells[2:]])  # float() reads 10, loadtxt refuses
    paths["plain"].write_text("\n".join(plain) + "\n")
    paths["labels"].write_text("".join(f"{s}\t{t}\n" for s, t in zip(subjects, GROUPS)))
    benefit = rng.choice([1.5, 2.25], size=M).tolist()
    cost = rng.choice([19.3, 7.7], size=M).tolist()
    paths["weights"].write_text("feature_id\tbenefit\tcost\n" + "".join(
        f"g{i:04d}\t{b!r}\t{c!r}\n" for i, (b, c) in enumerate(zip(benefit, cost))
    ))
    subsets = [f"g{i:04d}\tlow\tALL\tAML\t1\t19\n" for i in range(0, 600)]
    subsets += [f"g{i:04d}\thigh\tALL\tAML\t2.5\t9\n" for i in range(600, M)]
    subsets += [f"g{i:04d}\ttall\tALL\tTALL\t1\t4\n" for i in range(M)]
    paths["subsets"].write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n"
                                + "".join(subsets))
    p = rng.random(2000)
    p[:400] = rng.beta(0.3, 1.0, size=400)
    p[400:500] = np.round(p[400:500], 2)  # ties among the p-values
    paths["pvalues"].write_text("".join(f"{v!r}\n" for v in p.tolist()))
    return {name: str(path) for name, path in paths.items()}


def routes(inputs: dict[str, str]) -> dict[str, list[str]]:
    """Each route's argv, without ``--out``."""
    matrix = ["analyze", "--matrix", inputs["matrix"], "--labels", inputs["labels"],
              "--group-a", "ALL", "--group-b", "AML", "--seed", "3"]
    reproduce = ["reproduce", "--matrix", inputs["matrix"], "--labels", inputs["labels"],
                 "--permutations", "30", "--seed", "5"]
    return {
        "maximize": matrix + ["--permutations", "500"],
        "control": matrix + ["--mode", "control", "--alpha", "0.1", "--preprocess",
                             "--permutations", "50"],
        "weights": matrix + ["--weights", inputs["weights"], "--permutations", "500"],
        "subsets": matrix + ["--subsets", inputs["subsets"], "--permutations", "60"],
        "pvalues_maximize": ["analyze", "--pvalues", inputs["pvalues"], "--cost-ratio", "9"],
        "pvalues_control": ["analyze", "--pvalues", inputs["pvalues"], "--mode", "control"],
        "pvalues_one": ["analyze", "--pvalues", inputs["pvalues"], "--pi0", "one"],
        "pvalues_number": ["analyze", "--pvalues", inputs["pvalues"], "--pi0", "0.7", "--mode", "control"],
        "reproduce": reproduce,
        "reproduce_group_t": reproduce + ["--group-t", "TALL"],
        "plain_parser": ["analyze", "--matrix", inputs["plain"], "--labels", inputs["labels"],
                         "--group-a", "ALL", "--group-b", "TALL", "--permutations", "40"],
    }


def route_digests(root: Path, name: str) -> dict[str, str]:
    """sha256 of each file the route writes, by file name."""
    root.mkdir(exist_ok=True)
    out = root / "out"
    assert main(routes(write_inputs(root))[name] + ["--out", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


ROUTES = sorted(routes(dict.fromkeys(INPUTS, "")))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_route_is_pinned(golden):
    assert sorted(golden) == ROUTES


@pytest.mark.parametrize("name", ROUTES)
def test_route_bits(golden, tmp_path, name):
    assert route_digests(tmp_path, name) == golden[name]


def test_weights_route_class_sums_against_exact_sums(tmp_path):
    # The route's null weight sums: exact counts per distinct weight, then d
    # products and d - 1 additions of nonnegative terms, each rounded once.
    inputs = write_inputs(tmp_path)
    matrix = load_matrix(inputs["matrix"], inputs["labels"])
    weights = _load_weights(inputs["weights"], matrix).weights
    plan = PermutationPlan(500, 3)
    summary = build_statistic_set(matrix, "ALL", "AML", plan, weights)
    null = permutation_null(matrix, "ALL", "AML", plan).reshape(500, -1)
    d = summary.distinct.size
    assert d == 4 and summary.classes is not None
    exact = [Fraction(0)] * summary.taus.size
    for c, w in enumerate(summary.distinct.tolist()):
        mine = np.sort(null[:, weights == w], axis=None)
        counts = (mine.size - np.searchsorted(mine, summary.taus)).tolist()
        assert summary.counts[c].tolist() == counts
        exact = [e + Fraction(w) * n for e, n in zip(exact, counts)]
    for got, e in zip(summary.exceedances.tolist(), exact):
        assert abs(Fraction(got) - e) <= (d + 1) * 2.0**-53 * e


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: route_digests(Path(tmp) / name, name) for name in ROUTES}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
