"""Write reference.json: the checked outputs of every workload at DEFAULT_SEED.

    python3 perfbench/record_reference.py

The reference pins the numbers the package produced when the benchmark was
defined. Re-record it only on purpose, for a change meant to alter results,
and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tailwls as tw  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, checked_call  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for scale in SIZES:
            reference[scale] = {}
            for name, workload in WORKLOADS.items():
                wl = workload(scale)
                inputs = wl.build(tw, DEFAULT_SEED, Path(tmp))
                out, picks = checked_call(tw, wl, inputs)
                reference[scale][name] = wl.reference_view(out, picks)
    (HERE / "reference.json").write_text(json.dumps(reference) + "\n")


if __name__ == "__main__":
    main()
