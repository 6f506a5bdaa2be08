import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def f(x):
    """Docstring."""
    return math.hypot(x,
                      1.0)


TEXT = ("""a string value,
not a docstring""")
'''


def test_counts_lines_and_code_lines():
    # code lines: the import, the def, both lines of the return statement
    # and both lines of the string assignment; the docstrings, comments and
    # blank lines are not code
    assert src_lines.count(SOURCE) == (16, 6)


def test_counts_the_package(capsys):
    assert src_lines.main(["src_lines.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out[1:]]
    assert rows[-1][2] == "total"
    assert [int(n) for n in rows[-1][:2]] == [
        sum(int(row[i]) for row in rows[:-1]) for i in (0, 1)]
    assert any(row[2].endswith("capacity.py") for row in rows)
