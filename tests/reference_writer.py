"""Reference writer for tests.csv and curve.csv: one ``format()`` per cell.

The CLI's table writer lays a block of rows out in numpy arrays instead; the
byte-identity tests compare the CLI's files with what this writer makes from
the same decision, and its float formatter with ``fmt``.
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


def pvalue_ids(m: int) -> list[str]:
    """The p-value route's ids: "p" and the row index zero-padded to the digits of m."""
    return [f"p{i:0{len(str(m))}d}" for i in range(m)]


def decision_files(ids, values, result) -> dict[str, str]:
    """Text of tests.csv and curve.csv for one decision, keyed "tests" and "curve".
    ``ids`` is a list of str, or range(m) for the p-value route's ids."""
    if isinstance(ids, range):
        ids = pvalue_ids(len(ids))
    rejected, curve = set(result.rejected.tolist()), result.curve
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
