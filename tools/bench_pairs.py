"""Alternating parent/change pairs of the benchmark, summarised into one BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seconds 30 --trace-workload sim_minvar --claim sim_minvar:norm_wall_s \\
        --predicted "drop of 30-40%" --out BENCH_9.json

Commit the change first: both sides are git revisions of the repository
this script lives in. The committed files of each are extracted with
``git archive`` into a temporary directory (removed again at the end), and
the two checkouts are sibling directories whose names have the same length,
``parent`` and ``change``: the same code run from the repository and from a
copy in another directory read 5-10% apart on model_k100 (2-CPU x86_64
host). Both sides run their own, unchanged ``perfbench/run.py``. Pair i
runs both sides with seed ``--first-seed`` + i (default 0, so pair i uses
seed i; a later first seed gives a series on seeds not looked at while
writing the change), and the side that runs first alternates from pair to
pair. For each workload and each end-to-end metric of ``BENCHMARK.json``
the output holds each side's median, quartiles and range, the change's
median relative to the parent's, the pairs the change won, whether the
median gap exceeds the parent's interquartile range, and whether the
change stays within the metric's bound. ``--claim`` adds a verdict on one
metric: met only if the change won nine tenths of the pairs by a median gap
beyond the parent's IQR, every run was correct, and the change failed no
more operations than the parent. ``--trace-workload`` adds one
``--trace 1`` pair per named workload with every per-layer metric. The
output is rewritten after every run, so an interrupted series keeps the
runs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from hostspeed import KERNEL_REF_S, kernel_seconds  # noqa: E402

SIDES = ("parent", "change")
RAW_WALL = re.compile(r"^wall_s\s+median (\S+)", re.MULTILINE)


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its JSON line plus the raw median wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = RAW_WALL.search(proc.stdout)
    result["raw_wall_s"] = float(raw.group(1)) if raw else None
    return result


def timed_run(root: Path, workload: str, pair: int, seed: int, side: str, ran_first: bool,
              seconds: float) -> dict:
    """One end-to-end run of pair ``pair`` with ``seed`` as a BENCH ``runs`` entry."""
    kernel_s = kernel_seconds()
    result = run_bench(root, workload, seed, seconds, 0)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    raw = result["raw_wall_s"]
    print(f"{workload} pair {pair} {side}: norm_wall_s {values['norm_wall_s']:.6g}",
          file=sys.stderr)
    return {
        "pair": pair, "seed": seed, "side": side, "ran_first": ran_first,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "kernel_s_before_run": round(kernel_s, 5),
        # the kernel time that turns the raw median wall time into the normalised one
        "implied_kernel_s": raw and round(KERNEL_REF_S * raw / values["norm_wall_s"], 5),
        **values,
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarise(runs: list, metrics: list) -> dict:
    """One workload's entry: its runs, and per metric the comparison over complete pairs."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in by_pair.values() if len(p) == 2]
    compared = {}
    for spec in metrics if pairs else ():
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        wins = sum(sign * (p["change"][name] - p["parent"][name]) < 0 for p in pairs)
        ties = sum(p["change"][name] == p["parent"][name] for p in pairs)
        relative = change / parent - 1.0 if parent else 0.0
        compared[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": stats["parent"], "change": stats["change"],
            "change_vs_parent": relative,
            "change_wins": wins, "ties": ties,
            "median_gap_exceeds_parent_iqr":
                abs(change - parent) > stats["parent"]["q3"] - stats["parent"]["q1"],
            "within_bound": sign * relative <= spec["bound"],
        }
    return {
        "pairs": len(pairs),
        "seeds": [p["parent"]["seed"] for p in pairs],
        "all_correct": all(run["correct"] for run in runs),
        "failed_ops": {side: sum(r["failed"] for r in runs if r["side"] == side)
                       for side in SIDES},
        "metrics": compared,
        "runs": runs,
    }


def verdict(workload: dict, metric: str) -> str:
    """Whether a claimed gain holds: 9/10 of the pairs won, a gap beyond the parent's IQR,
    every run correct, and no more failed operations than the parent's."""
    m = workload["metrics"][metric]
    pairs, failed = workload["pairs"], workload["failed_ops"]
    met = m["change_wins"] >= 0.9 * pairs and m["median_gap_exceeds_parent_iqr"] and (
        m["change_vs_parent"] < 0) == (m["better"] == "lower")
    faults = []
    if not workload["all_correct"]:
        faults.append("a run gave incorrect output")
    if failed["change"] > failed["parent"]:
        faults.append(f"the change failed {failed['change']} operations, "
                      f"the parent {failed['parent']}")
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    return (f"{'met' if met and not faults else 'not met'}: median "
            f"{m['parent']['median']:.5g} -> {m['change']['median']:.5g} "
            f"({100 * m['change_vs_parent']:+.1f}%), change better in {m['change_wins']} of "
            f"{pairs} pairs, median gap {abs(m['change']['median'] - m['parent']['median']):.3g}"
            f" against a parent IQR of {iqr:.3g}" + "".join(f"; {f}" for f in faults))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="seed of pair 0; pair i uses first-seed + i (default 0)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads (default: all of BENCHMARK.json)")
    parser.add_argument("--trace-workload", action="append", default=[],
                        help="workload that also gets one --trace 1 pair (repeatable)")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--predicted", default=None, help="the claim's prediction, as text")
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)
    # a terminated series still removes its checkouts (the with block below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    revisions = (args.parent, args.change)
    doc = {
        "benchmark": f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                     "--trace 0",
        "what": "parent commit against this change, each in a fresh checkout, alternating "
                f"which side runs first; pair i uses seed {args.first_seed} + i on both sides",
        "revisions": {side: subprocess.run(
            ["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip() for side, rev in zip(SIDES, revisions)},
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host, Python "
                f"{platform.python_version()}, numpy {np.__version__}; "
                "worker pinned to one CPU",
        "kernel_ref_s": KERNEL_REF_S,
        "workloads": {},
    }
    out = Path(args.out)

    def save():
        out.write_text(json.dumps(doc, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, revisions):
            roots[side].mkdir()
            archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(roots[side])], input=archive, check=True)
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs.append(timed_run(roots[side], workload, pair, args.first_seed + pair,
                                          side, side == order[0], args.seconds))
                    doc["workloads"][workload] = summarise(runs, metrics)
                    save()
        for workload in args.trace_workload:
            traced = doc.setdefault("trace", {})[workload] = {
                "benchmark": f"perfbench/run.py --workload {workload} "
                             f"--seed {args.first_seed} --seconds {args.seconds:g} --trace 1"}
            for side in SIDES:
                result = run_bench(roots[side], workload, args.first_seed, args.seconds, 1)
                traced[side] = {name: m["value"] for name, m in result["metrics"].items()}
                traced[side]["correct"] = result["correct"]
                save()
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"workload": workload, "metric": metric, "predicted": args.predicted,
                        "result": verdict(doc["workloads"][workload], metric)}
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
