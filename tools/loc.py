"""Line counts of the package: all lines, and lines of code.

    python3 tools/loc.py [DIRECTORY]

For each module of ``src/tailwls`` (or of DIRECTORY), one line gives its
file name, its line count (as ``wc -l`` counts) and its code-line count;
the last line gives the totals. A code line is not blank, not a comment,
and not inside a module, class or function docstring. The two totals are
the package size that ROADMAP's "Current state" quotes.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tailwls"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """(lines, code lines) of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, _DOCUMENTED) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = [number for number, line in enumerate(source.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#") and number not in docstrings]
    return source.count("\n"), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    for path in sorted(directory.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
