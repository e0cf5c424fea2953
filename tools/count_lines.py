"""Count the lines of Python sources two ways: ``wc -l`` and code lines.

A code line holds a token other than a comment, a blank or a docstring; a
statement that is only a string counts as a docstring.  Directories are
searched for ``*.py`` files.  Prints one row a file, then the total:

    python3 tools/count_lines.py src/
"""

import io
import sys
import tokenize
from pathlib import Path

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


def main(argv) -> int:
    files = []
    for arg in argv or ["."]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total_wc = total_code = 0
    for path in files:
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:7d} {code:7d}  {path}")
    print(f"{total_wc:7d} {total_code:7d}  total (wc -l, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
