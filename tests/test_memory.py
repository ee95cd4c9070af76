"""Peak memory of the p-value route: it grows by the bytes of its arrays alone.

The CLI is spawned from ``peak_rss.py``, a launcher that has not imported
numpy, and its ``ru_maxrss`` is read with ``os.wait4``. Spawned from this test
process instead, the child would start from this process's high-water mark
and read flat.
"""

import os
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


def peak_rss_kib(argv) -> int:
    """Peak RSS of ``python -m dfdr.cli argv``, which must exit 0."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    command = [sys.executable, str(LAUNCHER), sys.executable, "-m", "dfdr.cli", *argv]
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
