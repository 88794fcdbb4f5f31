import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(a, b):
    """One-line docstring."""

    total = max(
        a,  # an argument with a comment
        b,
    )
    return total


class C:
    """Class docstring,
    two lines."""

    x = """a string that is a value,
    not a docstring"""
'''


def count(source: str) -> int:
    return code_lines.code_lines(io.BytesIO(source.encode()).readline)


def test_counts_code_and_skips_blank_lines_comments_and_docstrings():
    # import, def, the four lines of the max call, return, class, and the two
    # lines of the assigned string
    assert count(SOURCE) == 10


def test_an_empty_source_has_no_code_lines():
    assert count("") == 0 and count("# only a comment\n\n") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["    10  a.py", "     1  sub/b.py", "    11  total"]
