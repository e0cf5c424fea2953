"""tools/count_lines.py on a synthetic source whose counts are known."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    assigned, so code"""
    return (x +
            1)


class C:
    "A class docstring."
    y = f(
        2)
'''
# code: import, def, text (2 lines), return (2 lines), class, y (2 lines)
CODE_LINES = 9


def test_counts_wc_and_code_lines(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "a.py").write_text(SOURCE)
    (src / "notes.txt").write_text("not python\n")
    out = subprocess.run([sys.executable, str(TOOL), str(src)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    wc = SOURCE.count("\n")
    assert out[0].split() == [str(wc), str(CODE_LINES), str(src / "a.py")]
    assert out[1].split()[:3] == [str(wc), str(CODE_LINES), "total"]
    assert len(out) == 2
