"""Count the lines of Python sources two ways: ``wc -l`` and code lines.

A code line holds a token other than a comment, a blank or a docstring; a
statement that is only a string counts as a docstring.  Directories are
searched for ``*.py`` files.  Prints one row a file, then the total:

    python3 tools/count_lines.py src/

``--base REV`` also counts the same paths in revision REV of the git
repository holding the working directory, unpacked with ``git archive``
(``bench_pairs.unpack``), and prints its total and the net change; a path
missing there counts 0:

    python3 tools/count_lines.py --base HEAD src/
"""

import argparse
import io
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

from bench_pairs import unpack

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def count(paths, show=print) -> tuple:
    """(wc -l, code lines) over the ``*.py`` files of ``paths``; each file's
    row goes to ``show``."""
    files = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total_wc = total_code = 0
    for path in files:
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        show(f"{wc:7d} {code:7d}  {path}")
    return total_wc, total_code


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="a git revision to count the same paths in")
    parser.add_argument("paths", nargs="*", default=["."])
    args = parser.parse_args(argv)
    paths = [Path(arg) for arg in args.paths]
    total = count(paths)
    print(f"{total[0]:7d} {total[1]:7d}  total (wc -l, code lines)")
    if args.base is None:
        return 0
    top = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                              capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory() as tmp:
        sha = unpack(args.base, Path(tmp), repo=top)
        based = [Path(tmp) / path.resolve().relative_to(top) for path in paths]
        base = count([path for path in based if path.exists()], show=lambda row: None)
    print(f"{base[0]:7d} {base[1]:7d}  total at {args.base} ({sha[:12]})")
    print(f"{total[0] - base[0]:+7d} {total[1] - base[1]:+7d}  net change")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
