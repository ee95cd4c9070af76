"""Count the lines of Python files: total, code, docstring, comment and blank.

    python tools/line_counts.py src/dfdr/*.py

prints one row per file and a total row. The total is ``wc -l``'s count
for a file that ends in a newline.
A docstring line is any line of a string-literal first statement of a
module, class or function. A comment line holds only a comment, and a blank
line only whitespace. Every other line is code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_counts(source: str) -> dict[str, int]:
    """The lines of ``source`` by kind, as KINDS, and their total."""
    lines = source.split("\n")
    if lines[-1] == "":  # the end of the last line, as wc -l counts
        lines.pop()
    kinds = ["code"] * len(lines)
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            kinds[number - 1] = "blank"
        elif number in comments and stripped.startswith("#"):
            kinds[number - 1] = "comment"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                kinds[first.lineno - 1 : first.end_lineno] = ["docstring"] * (first.end_lineno - first.lineno + 1)
    counts = {kind: kinds.count(kind) for kind in KINDS}
    counts["total"] = len(lines)
    return counts


def main(paths: list[str]) -> int:
    print(f"{'total':>6} " + " ".join(f"{kind:>9}" for kind in KINDS) + "  file")
    sums = dict.fromkeys(("total", *KINDS), 0)
    for path in paths:
        counts = line_counts(Path(path).read_text())
        for kind in sums:
            sums[kind] += counts[kind]
        print(f"{counts['total']:>6} " + " ".join(f"{counts[kind]:>9}" for kind in KINDS) + f"  {path}")
    print(f"{sums['total']:>6} " + " ".join(f"{sums[kind]:>9}" for kind in KINDS) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
