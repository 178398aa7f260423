"""tools/code_lines.py counts code lines: not blank, comment or docstring lines."""

from __future__ import annotations

from conftest import load_tool

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    s = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class
    docstring."""

    y = 1
'''


def test_code_lines_skip_blank_comment_and_docstring_lines():
    # import, def, the two lines of s, the two lines of the return, class, y
    assert load_tool("code_lines").code_lines(SOURCE) == 8
