"""Peak memory: the p-value route grows by the bytes of its arrays alone, a
run of many subsets peaks no higher than one subset of all rows, and no
higher on every CPU than on one.

The CLI is spawned from ``peak_rss.py``, a launcher that has not imported
numpy, and its ``ru_maxrss`` is read with ``os.wait4``. Spawned from this test
process instead, the child would start from this process's high-water mark
and read flat.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LAUNCHER = Path(__file__).with_name("peak_rss.py")
SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="ru_maxrss in KiB and its inheritance are Linux's"
)


def write_pvalues(path, m, seed):
    """m p-values as the benchmark writes them: 80% uniform, 20% Beta(0.3, 1)."""
    rng = np.random.default_rng(seed)
    p = rng.random(m)
    alt = rng.random(m) < 0.2
    p[alt] = rng.beta(0.3, 1.0, size=int(alt.sum()))
    path.write_text("\n".join(map(repr, p.tolist())) + "\n")


def write_matrix(root, m, seed):
    """An m-feature matrix of 20 vs 20 subjects (A, B), a fifth of it shifted
    in B, under ``root``; returns the analyze flags that read it."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, 40))
    values[: m // 5, 20:] += 1.0
    lines = ["\t".join(["id", *(f"s{j}" for j in range(40))])]
    lines += ["\t".join([f"g{i}", *map(repr, row)]) for i, row in enumerate(values.tolist())]
    (root / "matrix.tsv").write_text("\n".join(lines) + "\n")
    (root / "labels.tsv").write_text("".join(f"s{j}\t{'AB'[j >= 20]}\n" for j in range(40)))
    return ["analyze", "--matrix", str(root / "matrix.tsv"), "--labels", str(root / "labels.tsv"),
            "--group-a", "A", "--group-b", "B"]


def write_subsets(path, m, size):
    """Subsets of ``size`` consecutive features, benefit 1 and cost 19."""
    path.write_text("feature_id\tsubset\tgroup_a\tgroup_b\tbenefit\tcost\n" + "".join(
        f"g{i}\ts{i // size}\tA\tB\t1\t19\n" for i in range(m)))


def peak_rss_kib(argv, prefix=()) -> int:
    """Peak RSS of ``python -m dfdr.cli argv``, run by the command ``prefix``
    if one is given, which must exit 0."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    command = [sys.executable, str(LAUNCHER), *prefix, sys.executable, "-m", "dfdr.cli", *argv]
    out = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    code, kib = map(int, out.stdout.split()[-2:])
    assert code == 0, out.stdout
    return kib


def test_pvalue_route_peak_grows_by_its_arrays(tmp_path):
    sizes = (20_000, 200_000)
    peaks = []
    for m in sizes:
        write_pvalues(tmp_path / f"p{m}.txt", m, seed=m)
        peaks.append(peak_rss_kib(
            ["analyze", "--pvalues", str(tmp_path / f"p{m}.txt"), "--out", str(tmp_path / f"{m}")]
        ))
    per_test = (peaks[1] - peaks[0]) * 1024 / (sizes[1] - sizes[0])
    # a list of the lines or of the rows' strings costs hundreds of bytes a test
    assert per_test < 150, f"peak RSS {peaks} KiB: {per_test:.0f} bytes per test"


def test_per_subset_peak_is_one_subsets(tmp_path):
    # 2000 features, 20 vs 20 subjects, 5000 permutations: 40 subsets of 50
    # rows each keep their whole null (250,000 values), one subset at a time,
    # so the run peaks no higher than one subset of all rows, whose null streams
    m = 2000
    analyze = write_matrix(tmp_path, m, seed=74)
    peaks = {}
    for size in (50, m):
        spath = tmp_path / f"subsets{size}.tsv"
        write_subsets(spath, m, size)
        peaks[size] = peak_rss_kib(analyze + ["--subsets", str(spath), "--permutations", "5000",
                                              "--out", str(tmp_path / f"out{size}")])
    assert peaks[50] <= 1.1 * peaks[m], f"peak RSS {peaks} KiB by subset size"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or not shutil.which("taskset"),
                    reason="needs two CPUs, and taskset to run on one of them")
def test_workers_results_cost_no_more_than_the_callers(tmp_path):
    # 3000 one-row subsets, half decided in a forked worker and sent back:
    # its results, loaded in the caller, take about the memory of the ones
    # the caller makes itself, so every CPU peaks within 1.1 times one CPU,
    # and writes the same bytes
    m = 3000
    analyze = write_matrix(tmp_path, m, seed=75)
    write_subsets(tmp_path / "subsets.tsv", m, 1)
    analyze += ["--subsets", str(tmp_path / "subsets.tsv"), "--min-subset-size", "1", "--permutations", "100"]
    peaks = {name: peak_rss_kib(analyze + ["--out", str(tmp_path / name)], prefix)
             for name, prefix in (("all", ()), ("one", ("taskset", "-c", "0")))}
    assert peaks["all"] <= 1.1 * peaks["one"], f"peak RSS {peaks} KiB by CPUs"
    files = sorted(os.listdir(tmp_path / "all"))
    assert len(files) == 3 * m and files == sorted(os.listdir(tmp_path / "one"))
    for name in files:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name
