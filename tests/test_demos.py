"""The documented demo scripts and the README's code run to completion."""

import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    ["bias_mse_study.py", "estimator_paths.py", "sampling_check.py", "weight_moments.py"],
)
def test_demo_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    """Every ```python block of README.md runs, in order, in one namespace."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
