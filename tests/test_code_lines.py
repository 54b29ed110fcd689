"""The code-line count leaves out docstrings, comments and blank lines."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring
over two lines."""
import os  # a comment after code counts

# a comment line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function docstring,
    three lines
    long."""
    s = """a string that is
    not a docstring"""
    return a + b
'''


def test_counts_code_lines_of_a_fixture():
    # import, class, x, def over two lines, the assignment over two, return
    assert code_lines.code_lines(FIXTURE) == 8
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 9, 16, 17, 18}


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["8", "a.py"], ["1", "b.py"], ["9", "total"]]
