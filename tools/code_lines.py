"""Count total and code lines per ``src/catdom`` module.

Usage:

    python3 tools/code_lines.py [--root CHECKOUT]

A code line is one that is not blank, not only a comment and not part of a
docstring (the leading string of a module, class or function). Prints one
row per module and the sum over all of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in ignored:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="count catdom source lines")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    total = code = 0
    print(f"{'module':<16} {'total':>6} {'code':>6}")
    for path in sorted((args.root / "src" / "catdom").glob("*.py")):
        source = path.read_text()
        lines, kept = len(source.splitlines()), code_lines(source)
        total += lines
        code += kept
        print(f"{path.name:<16} {lines:>6} {kept:>6}")
    print(f"{'sum':<16} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
