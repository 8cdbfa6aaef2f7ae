#!/usr/bin/env python3
"""Count the code lines of the qstar package.

    python tools/code_lines.py

A code line of ``src/qstar/*.py`` is a line that holds a token of code: it
is not blank, not a comment-only line and not a line of a docstring (the
leading string of a module, class or function).  A string that spans lines
counts on each of them, unless it is a docstring.  The script prints the
count of each module and the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

#: token types that are not code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(root: Path) -> None:
    """Print the code lines of each module under ``root/src/qstar``, then the total."""
    total = 0
    for path in sorted((root / "src" / "qstar").glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(Path(__file__).resolve().parents[1])
