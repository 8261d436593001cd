"""Spans recorded from outside the package, around the calls into each layer.

A function is traced by replacing the attribute its caller looks up (for
example ``montecarlo.resolve_rho``) with a wrapper that records one span per
call: name, start, end, parent span, iteration id and the class of any
``TailwlsError`` raised through it. Spans stay in memory and are written out
once, at the end of the run. Nothing inside ``src/tailwls`` is modified.
"""

from __future__ import annotations

import csv
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: The rho candidate grid of ``RhoMethod.min_variance()``; one histogram bin each.
RHO_GRID = (-0.25, -0.5, -0.75, -1.0, -1.5, -2.0, -3.0)

# (span name, module, attribute looked up by the caller, records a rho pick).
# One name may be patched at several lookup sites; each call is one span.
SITES = (
    ("cli.main", "cli", "main", False),
    ("cli.cmd_estimate", "cli", "cmd_estimate", False),
    ("cli.read_numeric_column", "cli", "read_numeric_column", False),
    ("spacings.validate_and_sort", "cli", "validate_and_sort", False),
    ("second_order.resolve_rho", "cli", "resolve_rho", True),
    ("estimators.evi_path", "cli", "evi_path", False),
    ("montecarlo.run_simulation", "montecarlo", "run_simulation", False),
    ("montecarlo.run_model_simulation", "montecarlo", "run_model_simulation", False),
    ("distributions.sample", "montecarlo", "sample", False),
    ("spacings.validate_and_sort", "montecarlo", "validate_and_sort", False),
    ("spacings.all_log_spacings", "montecarlo", "all_log_spacings", False),
    ("spacings.all_log_spacings", "estimators", "all_log_spacings", False),
    ("spacings.all_log_spacings", "second_order", "all_log_spacings", False),
    ("second_order.resolve_rho", "montecarlo", "resolve_rho", True),
    ("estimators.wls_gamma_grid", "estimators", "wls_gamma_grid", False),
    ("estimators.wls_fit", "montecarlo", "wls_fit", False),
    ("estimators.hill", "montecarlo", "hill", False),
    ("asymptotics.amse", "asymptotics", "amse", False),
    ("montecarlo.sample_model_spacings", "montecarlo", "sample_model_spacings", False),
    ("montecarlo.summarize", "montecarlo", "summarize", False),
)

ESTIMATOR_IDS = ("HILL", "BCHILL", "LS", "RR", "WLS")


def span_names() -> list[str]:
    """Every span name a trace can report, ``evi_path`` split by estimator."""
    names = []
    for name, *_ in SITES:
        if name == "estimators.evi_path":
            names.extend(f"{name}.{e}" for e in ESTIMATOR_IDS)
        elif name not in names:
            names.append(name)
    return names


def per_layer_names() -> list[str]:
    """Per-layer metric names, in the order of ``BENCHMARK.json``."""
    names = [
        f"{span}.{stat}"
        for span in span_names()
        for stat in ("calls", "busy_s", "self_s", "errors")
    ]
    names += [f"second_order.picks.{rho:g}" for rho in RHO_GRID]
    names += ["trace.wall_s", "trace.overhead_s"]
    return names


class Tracer:
    """Span recorder; ``installed`` patches the lookup sites for one iteration."""

    def __init__(self, workload: str, names=None):
        self.workload = workload
        self.names = names  # span names to record; None records every site
        self.spans: list = []  # (name, start, end, parent, iteration, error)
        self.iterations: list[str] = []
        self.picks: dict[str, list[float]] = {}  # iteration -> resolved rhos
        self.missing_sites: list[str] = []
        self._stack: list[int] = []
        self._iteration = ""

    def _wrap(self, name: str, fn, records_pick: bool, tailwls_error):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name
            if name == "estimators.evi_path":
                span_name = f"{name}.{args[1] if len(args) > 1 else kwargs['estimator_id']}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = ""
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tailwls_error as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent, self._iteration, error)
            if records_pick:
                self.picks[self._iteration].append(result)
            return result

        return traced

    @contextmanager
    def installed(self, tw, iteration: int):
        """Patch the ``SITES`` whose span name is recorded while the block runs."""
        self._iteration = f"{self.workload}:{iteration}"
        self.iterations.append(self._iteration)
        self.picks[self._iteration] = []
        saved = []
        try:
            for name, module_name, attr, records_pick in SITES:
                if self.names is not None and name not in self.names:
                    continue
                module = importlib.import_module(f"{tw.__name__}.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    # a later version of the package may drop a lookup site
                    site = f"{module_name}.{attr}"
                    if site not in self.missing_sites:
                        self.missing_sites.append(site)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr,
                        self._wrap(name, original, records_pick, tw.TailwlsError))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Median over iterations of calls, busy_s, self_s and errors per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        per_iter: dict[str, dict[str, list]] = {it: {} for it in self.iterations}
        for idx, (name, t0, t1, _, it, error) in enumerate(self.spans):
            row = per_iter[it].setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
            row[3] += bool(error)
        stats = {}
        for name in span_names():
            rows = [d.get(name, [0, 0.0, 0.0, 0]) for d in per_iter.values()]
            stats[name] = {
                stat: statistics.median(r[i] for r in rows)
                for i, stat in enumerate(("calls", "busy_s", "self_s", "errors"))
            }
        return stats

    def pick_counts(self) -> dict[float, float]:
        """Median over iterations of how often each grid rho was resolved."""
        counts = [Counter(p) for p in self.picks.values()]
        return {rho: statistics.median(c[rho] for c in counts) for rho in RHO_GRID}

    def errors_by_class(self) -> Counter:
        return Counter((s[0], s[5]) for s in self.spans if s[5])

    def dump(self, path) -> None:
        """Write every span as one CSV row; times are perf_counter seconds."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start", "end", "parent",
                             "iteration", "error"])
            for idx, (name, t0, t1, parent, it, error) in enumerate(self.spans):
                writer.writerow([idx, name, repr(t0), repr(t1), parent, it, error])
