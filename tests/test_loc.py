"""The line counts of ``tools/loc.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = ('"""A module.\n\nIts docstring.\n"""\n'
              "# a comment\n"
              "\n"
              "x = 1  # a statement with a comment\n"
              "def f():\n"
              '    """One line."""\n')
    assert _loc().counts(source) == (9, 2)
