"""Physical and logical lines of each Python module under a directory.

    python3 tools/code_lines.py src/pgakit

A logical line here is a physical line that holds code: docstrings,
comments and blank lines are left out.  A line counts when a token other
than a comment or a line break starts on it or runs through it, so a
statement split over three lines counts three; a docstring is the string
that opens a module, class or function body.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical, logical) lines of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    physical = len(source.splitlines())
    return physical, len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="directory of .py files")
    args = parser.parse_args(argv)
    total = [0, 0]
    print(f"{'physical':>9} {'logical':>8}  module")
    for path in sorted(args.root.rglob("*.py")):
        physical, logical = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += logical
        print(f"{physical:>9} {logical:>8}  {path.relative_to(args.root)}")
    print(f"{total[0]:>9} {total[1]:>8}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
