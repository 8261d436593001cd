"""Benchmark of the tailwls pipeline: one workload per invocation.

    python3 perfbench/run.py --workload sim_minvar --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing. The workload runs in a
fresh single-process child with BLAS pinned to one thread. One caller makes
one call at a time (a closed loop). Set-up time is measured in further
fresh interpreters started between timed calls. Call and set-up times are
normalised for the host's speed with the fixed kernel of ``hostspeed.py``.
With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer metrics from a traced run. A readable report comes first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracing import per_layer_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "norm_items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(args) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", str(WORKDIR)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict) -> dict:
    wall = statistics.median(result["norm_times"])
    return {
        "norm_wall_s": wall,
        "norm_items_per_s": result["items_per_call"] / wall,
        "setup_s": statistics.median(result["norm_setup"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - result["failed"] / result["attempted"],
    }


def per_layer(result: dict) -> dict:
    traced = statistics.median(result["traced_times"])
    values = {
        f"{span}.{stat}": value
        for span, stats in result["layers"].items()
        for stat, value in stats.items()
    }
    values.update({f"second_order.picks.{rho}": c for rho, c in result["picks"].items()})
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = (statistics.median(result["traced_norm_times"])
                                  - statistics.median(result["norm_times"]))
    return {name: values[name] for name in per_layer_names()}


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f} (one call)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]"


def report_end_to_end(metrics: dict, result: dict) -> None:
    times, norm = result["times"], result["norm_times"]
    print(f"timed calls: {len(times)} (after 1 checked warm-up call): "
          f"{' '.join(f'{t:.3f}' for t in times)} s")
    print(f"wall_s       {quartiles(times)} s (raw, host-speed dependent)")
    print(f"items_per_s  {result['items_per_call'] / statistics.median(times):.6g} 1/s (raw)")
    print(f"norm_wall_s  {quartiles(norm)} s (normalised for host speed)")
    print(f"set-up probes: {len(result['setup'])}: "
          f"{' '.join(f'{t:.3f}' for t in result['setup'])} s (raw); "
          f"setup_s is their normalised median")
    for name, value in metrics.items():
        print(f"{name:12s} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"failed_frac  {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations and checks)")


def report_layers(result: dict, metrics: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"traced calls: {len(result['traced_times'])}, untraced: "
          f"{len(result['times'])}; traced wall {wall:.4f} s, "
          f"overhead (normalised) {metrics['trace.overhead_s']:.4f} s")
    print(f"{'span':42s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}")
    covered = 0.0
    for span, s in result["layers"].items():
        if s["calls"]:
            covered += s["self_s"]
            print(f"{span:42s} {s['calls']:9.0f} {s['busy_s']:9.4f} "
                  f"{s['self_s']:9.4f} {100 * s['self_s'] / wall:6.1f}")
    print(f"self times cover {100 * covered / wall:.1f}% of the traced wall time")
    picks = {rho: c for rho, c in result["picks"].items() if c}
    print(f"resolved rho histogram: {picks}")
    for name, cls, count in result["errors_by_class"]:
        print(f"errors: {name} {cls} x{count}")
    if result["missing_sites"]:
        print(f"lookup sites not found: {', '.join(result['missing_sites'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="stop starting timed calls once this would be exceeded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tailwls" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'tailwls'}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        result = run_child(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(result)
        report_layers(result, metrics)
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    else:
        metrics = end_to_end(result)
        report_end_to_end(metrics, result)
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
