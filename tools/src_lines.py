"""Count the lines of each `src/centering` module: raw lines, and code lines.

A code line is one that is not blank, not a comment and not part of a
docstring (of the module, a class or a function, found with `ast`). Run
from anywhere, with the standard library only:

    python3 tools/src_lines.py [PACKAGE_DIR]

It prints one row per module and a total row; PACKAGE_DIR defaults to the
repository's `src/centering`.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of `tree` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """The raw and code line counts of the module at `path`."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for n, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and n not in docs
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "centering"
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
