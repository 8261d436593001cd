"""Test set-up shared by every module.

The package is imported from ``src``: pytest's ``pythonpath`` setting covers
the test process itself, and the tests that start ``python -m tailwls`` or a
demo script in a subprocess rely on the environment, so ``src`` is put at the
front of PYTHONPATH here.

Hypothesis caches the constants it reads from the package's source under its
home directory, ``.hypothesis`` in the working directory by default, and its
pytest plugin does so while collecting, whatever the ``database`` setting.
That home is a temporary directory, removed when the process exits, so a run
writes nothing into the checkout.
"""

import os
import tempfile
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="tailwls-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
