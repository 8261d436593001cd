"""One workload in one fresh process; started by ``run.py``, not by hand.

``probe`` imports the package, builds the workload's inputs and reports how
long that took. ``run`` does the same, then makes one checked call (with
``resolve_rho`` traced, to see every resolved rho; excluded from timing as
warm-up) and timed calls until ``--seconds`` would be exceeded. The process
stays on one CPU, and each timed call is bracketed by two runs of the
``hostspeed`` kernel, which gives the call's normalised time. Without
tracing, a ``probe`` in a fresh interpreter, bracketed the same way, follows
each of the first timed calls, so set-up is timed at several moments of the
run rather than in one burst. With ``--trace 1`` every second timed call
runs traced, so one process gives both the traced and the untraced wall
time. The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# a set-up probe follows each of the first PROBES_MAX timed calls; at least PROBES_MIN run
PROBES_MAX, PROBES_MIN = 9, 7


def probe(args) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter running this file as ``probe``.

    Returns the raw seconds and the seconds normalised with the ``hostspeed``
    kernel run just before and after, on the CPU the probe inherits.
    """
    # imported late, like the package, so a probe's set-up time includes numpy
    from hostspeed import KERNEL_REF_S, kernel_seconds

    workdir = args.workdir / "probe"
    workdir.mkdir(exist_ok=True)
    cmd = [sys.executable, __file__, "probe", "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--workdir", str(workdir)]
    kernel_before = kernel_seconds()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    kernel_s = (kernel_before + kernel_seconds()) / 2
    setup_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
    return setup_s, setup_s * KERNEL_REF_S / kernel_s


def main(argv=None) -> int:
    t0 = perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import tailwls as tw

    if not Path(tw.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"tailwls imported from {tw.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from hostspeed import KERNEL_REF_S, kernel_seconds
    from tracing import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, checked_call, compare_reference

    wl = WORKLOADS[args.workload](args.scale)
    inputs = wl.build(tw, args.seed, args.workdir)
    setup_s = perf_counter() - t0
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the kernel and the calls must see the same core, whose speed varies
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kernel_seconds()  # warm-up
    first, picks = checked_call(tw, wl, inputs)
    attempted, failed = wl.operations(first)
    checks = []  # one list of failure messages per check made

    tracer = Tracer(wl.name)
    times, traced_times, setup = [], [], []
    norm_times, traced_norm_times = [], []
    start = perf_counter()
    i = 1
    while True:
        traced = args.trace == 1 and i % 2 == 0
        kernel_before = kernel_seconds()
        with tracer.installed(tw, iteration=i) if traced else nullcontext():
            t = perf_counter()
            raw = wl.call(tw, inputs)
            call_s = perf_counter() - t
        kernel_s = (kernel_before + kernel_seconds()) / 2
        (traced_times if traced else times).append(call_s)
        (traced_norm_times if traced else norm_times).append(
            call_s * KERNEL_REF_S / kernel_s)
        out = wl.outputs(tw, inputs, raw)
        ops, bad = wl.operations(out)
        attempted, failed = attempted + ops, failed + bad
        checks.append([] if wl.same(out, first)
                      else [f"call {i}: output differs from the checked call"])
        if args.trace == 0 and len(setup) < PROBES_MAX:
            setup.append(probe(args))
        i += 1
        done = times and (args.trace == 0 or traced_times)
        if done and perf_counter() - start + statistics.median(times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while args.trace == 0 and len(setup) < PROBES_MIN:
        setup.append(probe(args))

    checks.append(wl.invariants(tw, inputs, first, picks))
    if args.seed == DEFAULT_SEED:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
        checks.append(compare_reference(wl.reference_view(first, picks),
                                        reference[args.scale][wl.name]))
    for message in (m for group in checks for m in group):
        print(f"check failed: {message}", file=sys.stderr)

    result = {
        "setup": [raw for raw, _ in setup],
        "norm_setup": [norm for _, norm in setup],
        "times": times,
        "traced_times": traced_times,
        "norm_times": norm_times,
        "traced_norm_times": traced_norm_times,
        "items_per_call": wl.items(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted + len(checks),
        "failed": failed + sum(bool(group) for group in checks),
    }
    if args.trace:
        result["layers"] = tracer.layer_stats()
        result["picks"] = {f"{rho:g}": c for rho, c in tracer.pick_counts().items()}
        result["errors_by_class"] = [
            [name, cls, count] for (name, cls), count in tracer.errors_by_class().items()
        ]
        result["missing_sites"] = tracer.missing_sites
        tracer.dump(args.workdir / f"trace-{wl.name}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
