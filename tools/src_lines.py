"""Line counts of the package source: code, docstring, comment and blank lines.

Usage: python3 tools/src_lines.py   (from the repository root)

Every line of every .py file under src/radstack falls in one class. A docstring line
belongs to a module, class or function docstring, its blank lines included.
A code line holds a token of code, with or without a trailing comment. Of the
other lines, a comment line holds a comment and a blank line nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict:
    """{kind: number of lines} of one source file."""
    source = path.read_bytes()
    docs = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        out["docstring" if n in docs else "code" if n in code else "comment" if n in comments else "blank"] += 1
    return out


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    for path in sorted(Path("src/radstack").rglob("*.py")):
        for kind, n in count(path).items():
            total[kind] += n
    total["total"] = sum(total.values())
    for kind, n in total.items():
        print(f"{kind:<10}{n:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
