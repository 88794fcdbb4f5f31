"""Count the code lines of a Python package: lines that hold a token other
than a comment, with blank lines and docstrings left out.

A docstring here is a statement made of string literals alone, which is
what a module, class or function docstring is. The count reads each file
with ``tokenize``, so a multi-line call counts every line it spans and a
multi-line docstring none.

Run from the repository root::

    python tools/code_lines.py            # per-module and total for src/modir/
    python tools/code_lines.py some/dir   # the same for another directory
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(readline) -> int:
    """Code lines of one source, read through ``readline`` (bytes lines)."""
    lines, statement = set(), []
    for tok in tokenize.tokenize(readline):
        if tok.type in _LAYOUT:
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if statement and not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/modir")
    total = 0
    for path in sorted(root.rglob("*.py")):
        with open(path, "rb") as fh:
            count = code_lines(fh.readline)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
