"""Reference writer for tests.csv and curve.csv: one ``format()`` per cell.

This is how the CLI wrote both files before it formatted whole rows at once.
The byte-identity tests compare the CLI's files with what this writer makes
from the same decision.
"""

import math

import numpy as np


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


def rows_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def decision_files(ids, values, result) -> dict[str, str]:
    """Text of tests.csv and curve.csv for one decision, keyed "tests" and "curve"."""
    rejected, curve = result.rejected, result.curve
    tests = rows_text(
        ["feature_id", "statistic", "rejected"],
        ((ids[i], float(values[i]), 1 if i in rejected else 0) for i in range(len(ids))),
    )
    curve_text = rows_text(
        ["tau", "desirability", "dfdr", "discoveries"],
        zip(
            curve.tau.tolist(),
            curve.desirability.tolist(),
            curve.dfdr.tolist(),
            curve.discoveries.tolist(),
        ),
    )
    return {"tests": tests, "curve": curve_text}
