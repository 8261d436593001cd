"""Test set-up shared by every module: the package is imported from ``src``.

pytest's ``pythonpath`` setting covers the test process itself. The tests
that start ``python -m tailwls`` or a demo script in a subprocess rely on
the environment, so ``src`` is put at the front of PYTHONPATH here.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
