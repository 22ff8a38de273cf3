"""Count the lines of each `src/centering` module: raw lines, and code lines.

A code line is one that is not blank, not a comment and not part of a
docstring (of the module, a class or a function, found with `ast`). Run
from anywhere, with the standard library only:

    python3 tools/src_lines.py [PACKAGE_DIR] [--against REF]

It prints one row per module and a total row; PACKAGE_DIR defaults to the
repository's `src/centering`. With `--against REF`, each row also gives the
change of both counts since the git revision REF, whose modules are read
with `git show REF:path`; a module that one side lacks counts 0 lines
there.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path
from typing import Optional


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


def count_text(text: Optional[str]) -> tuple[int, int]:
    """The raw and code line counts of a module's source; (0, 0) for a
    module that does not exist (None)."""
    if text is None:
        return 0, 0
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for n, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#") and n not in docs
    )
    return len(lines), code


def delta(before: Optional[str], after: Optional[str]) -> tuple[int, int, int, int]:
    """The raw and code counts of the source `after`, and their changes
    from the source `before`; either is None for a module that side lacks."""
    raw_before, code_before = count_text(before)
    raw, code = count_text(after)
    return raw, code, raw - raw_before, code - code_before


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


def modules_at(root: Path, ref: str) -> dict[str, str]:
    """The source of each module of the package directory `root` at the git
    revision `ref`, by file name."""
    names = _git(root, "ls-tree", "--name-only", ref, "./").split()
    return {n: _git(root, "show", f"{ref}:./{n}") for n in names if n.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "package",
        nargs="?",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src" / "centering",
    )
    parser.add_argument("--against", metavar="REF", help="git revision to compare with")
    args = parser.parse_args(argv)
    root = args.package

    current = {p.name: p.read_text(encoding="utf-8") for p in sorted(root.glob("*.py"))}
    header = ["raw", "code"]
    if args.against is None:
        rows = {name: count_text(text) for name, text in current.items()}
    else:
        try:
            before = modules_at(root, args.against)
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot read {args.against}: {exc.stderr.strip()}")
        rows = {
            name: delta(before.get(name), current.get(name))
            for name in sorted(current.keys() | before.keys())
        }
        header += ["d_raw", "d_code"]
    rows["total"] = tuple(sum(row[k] for row in rows.values()) for k in range(len(header)))
    print(f"{'module':<16} " + " ".join(f"{h:>6}" for h in header))
    for name, row in rows.items():
        counts = [f"{n:>6}" for n in row[:2]] + [f"{n:>+6}" for n in row[2:]]
        print(f"{name:<16} " + " ".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
