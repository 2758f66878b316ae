"""Count source lines of the lammsc package.

A source line is a line holding code: blank lines, comment-only lines and
the lines of module, class and function docstrings are not counted. Prints
one line per module and the total, e.g.::

    python3 tools/sloc.py            # src/lammsc of this checkout
    python3 tools/sloc.py some/dir   # any directory of .py files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "lammsc"
    root = Path(argv[0]) if argv else default
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16s} {n:5d}")
    print(f"{'total':16s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
