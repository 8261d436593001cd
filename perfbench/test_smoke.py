"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tailwls as tw  # noqa: E402
from workloads import WORKLOADS, checked_call, compare_reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "1",
         "--seed", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert "failed_frac" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_check_fails_on_perturbed_reference(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())["tiny"][workload]
    wl = WORKLOADS[workload]("tiny")
    inputs = wl.build(tw, 0, tmp_path)
    out, picks = checked_call(tw, wl, inputs)
    view = wl.reference_view(out, picks)
    assert wl.invariants(tw, inputs, out, picks) == []
    assert compare_reference(view, reference) == []

    for key, values in reference["close"].items():
        perturbed = copy.deepcopy(reference)
        arr = np.array(values)
        arr[np.unravel_index(np.argmax(np.abs(arr)), arr.shape)] *= 1.0 + 1e-6
        perturbed["close"][key] = arr.tolist()
        assert compare_reference(view, perturbed), key
    for key in reference["exact"]:
        perturbed = copy.deepcopy(reference)
        perturbed["exact"][key] = None
        assert compare_reference(view, perturbed), key


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "model_k100", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
