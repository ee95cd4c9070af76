"""Seeded workload inputs and the CLI argument lists that consume them.

Every file is made here with numpy alone, never with ``dfdr``, so a change to
the program under test cannot change what the other workloads read. The same
(workload, seed, size) always gives the same bytes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Golub et al. (1999) training + independent set: 7129 genes, 47 ALL, 25 AML.
GOLUB = {"m": 7129, "n_a": 47, "n_b": 25, "permutations": 1000}
PVALUES = {"m": 100_000}
SIMULATE = {}  # `dfdr simulate` defaults: m=2000, 10 vs 10, B=25, 200 replicates

# Small sizes for the self-test; same code paths, seconds instead of minutes.
TOY = {
    "golub": {"m": 400, "n_a": 12, "n_b": 8, "permutations": 40},
    "pvalues": {"m": 3000},
    "simulate": {"m": 300, "replicates": 8, "permutations": 10},
}

WORKLOADS = ("golub_weighted", "pvalues_1e5", "simulate_default")


def _rng(seed: int, stream: str) -> np.random.Generator:
    # One independent stream per kind of input, so adding a file to one
    # workload leaves the bytes of every other input unchanged.
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def cli_seed(seed: int) -> int:
    """The CLI's --seed, derived from the workload seed."""
    return int(_rng(seed, "cli").integers(0, 2**31 - 1))


def _fmt_row(values) -> str:
    # repr() prints the shortest string that round-trips: full precision.
    return "\t".join(map(repr, values))


def write_golub(outdir: Path, seed: int, m: int, n_a: int, n_b: int) -> dict[str, Path]:
    """Golub-shaped expression matrix, labels and a weights file.

    Cells are positive "average difference"-like levels: log-normal per gene,
    a random scale per subject (so --preprocess has columns to normalize), and
    a shift in the AML group for 30% of genes with effects spread from weak to
    strong, which gives hundreds to low thousands of discoveries.
    """
    rng = _rng(seed, "golub")
    n = n_a + n_b
    tags = np.array(["ALL"] * n_a + ["AML"] * n_b)
    rng.shuffle(tags)
    level = rng.normal(7.0, 1.5, size=(m, 1))
    spread = rng.uniform(0.2, 0.6, size=(m, 1))
    subject_scale = rng.normal(0.0, 0.15, size=(1, n))
    log_x = level + spread * rng.standard_normal((m, n)) + subject_scale
    altered = rng.random(m) < 0.3
    effect = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.1, 1.2, size=m)
    log_x[np.ix_(altered, tags == "AML")] += (effect[altered] * spread[altered, 0])[:, None]
    x = np.exp(log_x)

    digits = len(str(m))
    genes = [f"g{i:0{digits}d}" for i in range(m)]
    subjects = [f"s{j:02d}" for j in range(n)]
    paths = {"matrix": outdir / "matrix.tsv", "labels": outdir / "labels.tsv"}
    lines = ["\t".join(["gene"] + subjects)]
    lines += [g + "\t" + _fmt_row(row) for g, row in zip(genes, x.tolist())]
    paths["matrix"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["labels"].write_text(
        "".join(f"{s}\t{t}\n" for s, t in zip(subjects, tags)), encoding="utf-8"
    )
    # The paper's doubled-benefit example: benefit 1 or 2, cost 19. Drawn
    # after the matrix, so the matrix bytes do not depend on the weights.
    benefit = np.where(rng.random(m) < 0.3, 2, 1)
    paths["weights"] = outdir / "weights.tsv"
    paths["weights"].write_text(
        "feature_id\tbenefit\tcost\n"
        + "".join(f"{g}\t{b}\t19\n" for g, b in zip(genes, benefit)),
        encoding="utf-8",
    )
    return paths


def write_pvalues(outdir: Path, seed: int, m: int) -> dict[str, Path]:
    """m p-values: 80% uniform nulls, 20% Beta(0.3, 1) non-nulls."""
    rng = _rng(seed, "pvalues")
    p = rng.random(m)
    alt = rng.random(m) < 0.2
    p[alt] = rng.beta(0.3, 1.0, size=int(alt.sum()))
    path = outdir / "pvalues.txt"
    path.write_text("\n".join(map(repr, p.tolist())) + "\n", encoding="utf-8")
    return {"pvalues": path}


def prepare(workload: str, seed: int, workdir: Path, toy: bool = False):
    """Write the workload's inputs under ``workdir``.

    Returns (argv without --out, input paths). The argv is for ``dfdr``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    seed_args = ["--seed", str(cli_seed(seed))]
    if workload == "golub_weighted":
        size = TOY["golub"] if toy else GOLUB
        files = write_golub(workdir, seed, size["m"], size["n_a"], size["n_b"])
        argv = [
            "analyze", "--matrix", str(files["matrix"]), "--labels", str(files["labels"]),
            "--group-a", "ALL", "--group-b", "AML", "--preprocess", "--mode", "maximize",
            "--permutations", str(size["permutations"]), "--weights", str(files["weights"]),
            *seed_args,
        ]
        return argv, files
    if workload == "pvalues_1e5":
        size = TOY["pvalues"] if toy else PVALUES
        files = write_pvalues(workdir, seed, size["m"])
        return ["analyze", "--pvalues", str(files["pvalues"]), "--p-threshold", "0.05"], files
    if workload == "simulate_default":
        size = TOY["simulate"] if toy else SIMULATE
        argv = ["simulate", *seed_args]
        for key, value in size.items():
            argv += [f"--{key}", str(value)]
        return argv, {}
    raise ValueError(f"unknown workload {workload!r}")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
