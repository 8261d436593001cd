"""The documented demo scripts run to completion."""

import subprocess
import sys
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
