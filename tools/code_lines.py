"""Count the code lines of Python sources: lines that hold code, not counting
blank lines, comment-only lines and the lines of docstrings.

A line counts when a token other than a comment or a line break starts on it
or spans it (so every line of a multi-line expression or string counts),
unless it lies within the docstring of a module, class or function.  Only
the standard library's `ast` and `tokenize` are used.  Run from the
repository root with files or directories (searched for `*.py`):

    python tools/code_lines.py src/quiverrep/linalg.py src/quiverrep

prints one count per argument.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def path_code_lines(path: Path) -> int:
    """Code lines of a file, or of every `*.py` file under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> None:
    for arg in argv:
        print(f"{path_code_lines(Path(arg)):6d}  {arg}")


if __name__ == "__main__":
    main(sys.argv[1:])
