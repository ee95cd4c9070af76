"""``tools/line_counts.py``: the line count that CHANGES.md cites for ``src/``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
line_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_counts)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "dfdr").glob("*.py")), ids=lambda p: p.name)
def test_kinds_sum_to_wc_l(path):
    counts = line_counts.line_counts(path.read_text())
    assert sum(counts[kind] for kind in line_counts.KINDS) == counts["total"] == path.read_bytes().count(b"\n")


def test_each_kind_of_line():
    source = '''"""Module
docstring."""

# a comment
x = """not a
docstring"""  # code with a comment


class C:
    "class docstring"

    def f(self):
        """Function docstring."""
        # indented comment
        return "#"
'''
    assert line_counts.line_counts(source) == {
        "code": 5, "docstring": 4, "comment": 2, "blank": 4, "total": 15,
    }
