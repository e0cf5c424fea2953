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


def test_base_prints_both_totals_and_the_net_change(tmp_path):
    """``--base REV`` counts the same paths in REV's ``git archive``: a
    file grown since REV and one added after it (which counts 0 at REV)."""
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SOURCE)
    subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["add", "."], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], cwd=tmp_path, check=True)
    (pkg / "a.py").write_text(SOURCE + "z = 1\n")
    (pkg / "b.py").write_text("x = 2\ny = 3\n")
    out = subprocess.run([sys.executable, str(TOOL), "--base", "HEAD", "pkg/a.py", "pkg/b.py"],
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    wc = SOURCE.count("\n")
    assert len(out) == 5
    assert out[2].split()[:3] == [str(wc + 3), str(CODE_LINES + 3), "total"]
    assert out[3].split()[:4] == [str(wc), str(CODE_LINES), "total", "at"]
    assert out[4].split() == ["+3", "+3", "net", "change"]
