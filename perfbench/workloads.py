"""The three benchmark workloads: inputs, the timed call, and output checks.

Each workload builds its inputs from the seed, makes one call into the
package per timed repetition, and turns what the call produced into plain
arrays that the checks compare. Two kinds of check run on those arrays:

* invariants, at every seed: every estimate is finite, mse equals
  variance + bias^2 per cell, the HILL results equal cumulative means of the
  log-spacings recomputed here with numpy, every resolved rho lies in the
  candidate grid;
* at ``DEFAULT_SEED``, a comparison with ``reference.json``, recorded from
  the package as it was when the benchmark was defined. Floats agree within
  ``REL_TOL`` of the largest magnitude in their array, which admits the
  roundoff of a prefix-sum rewrite of the fits (~1e-10) and catches a wrong
  fit; resolved rho values, k values and missing counts must match exactly.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
from pathlib import Path

import numpy as np

from tracing import RHO_GRID, Tracer

DEFAULT_SEED = 0
REL_TOL = 1e-8

# Burr(eta=1, tau=sqrt 2, lam=sqrt 2): gamma = 1/(lam tau) = 0.5, rho = -1/lam.
BURR = {"eta": 1.0, "tau": math.sqrt(2.0), "lam": math.sqrt(2.0)}
BURR_GAMMA = 1.0 / (BURR["lam"] * BURR["tau"])

SIZES = {
    "full": {
        "sim_minvar": {"n": 200, "reps": 20, "k_min": 10, "k_max": 150},
        "estimate_n1000": {"n": 1000, "k_min": 2, "k_max": 999},
        "model_k100": {"gamma": 1.0, "b": 0.1, "rho": -1.0, "k": 100,
                       "reps": 10000},
    },
    "tiny": {
        "sim_minvar": {"n": 60, "reps": 4, "k_min": 10, "k_max": 50},
        "estimate_n1000": {"n": 300, "k_min": 2, "k_max": 299},
        "model_k100": {"gamma": 1.0, "b": 0.1, "rho": -1.0, "k": 100,
                       "reps": 300},
    },
}


def burr_quantile(u: np.ndarray) -> np.ndarray:
    return BURR["eta"] * ((1.0 - u) ** (-1.0 / BURR["lam"]) - 1.0) ** (1.0 / BURR["tau"])


def hill_path(x: np.ndarray, k_values: np.ndarray) -> np.ndarray:
    """Hill estimates at each k: cumulative means of j * log(X_(j) / X_(j+1))."""
    logs = np.log(np.sort(x)[::-1])
    z = np.arange(1, x.size) * (logs[:-1] - logs[1:])
    return np.cumsum(z)[k_values - 1] / k_values


def close(a, b) -> bool:
    """Equal within REL_TOL of the largest magnitude in ``b``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return bool(np.all(np.abs(a - b) <= REL_TOL * scale))


def compare_reference(view: dict, ref: dict) -> list[str]:
    """Differences between a reference view and its recorded reference."""
    failures = []
    for key, expected in ref["close"].items():
        if not close(view["close"].get(key, []), expected):
            failures.append(f"reference: {key} differs by more than {REL_TOL:g} relative")
    for key, expected in ref["exact"].items():
        if view["exact"].get(key) != expected:
            failures.append(f"reference: {key} differs")
    return failures


def summary_checks(out: dict, true_gamma: float, hill_reps) -> list[str]:
    """Invariants of summary outputs whose first row is HILL.

    ``hill_reps`` holds the HILL estimate of every replication, shape
    (reps, K), recomputed by the benchmark.
    """
    mean, variance, mse = out["mean"], out["variance"], out["mse"]
    failures = []
    if not (np.isfinite(mean).all() and np.isfinite(variance).all()
            and np.isfinite(mse).all()):
        failures.append("summary: non-finite cell")
    if not close(mse, variance + (mean - true_gamma) ** 2):
        failures.append("summary: mse != variance + bias^2")
    replay = (hill_reps.mean(axis=0), hill_reps.var(axis=0),
              ((hill_reps - true_gamma) ** 2).mean(axis=0))
    for label, got, want in zip(("mean", "variance", "mse"),
                                (mean[0], variance[0], mse[0]), replay):
        if not close(got, want):
            failures.append(f"summary: HILL {label} != numpy cumulative means")
    return failures


def checked_call(tw, wl, inputs) -> tuple[dict, list]:
    """One call of ``wl`` with its outputs and every rho it resolved, in order."""
    checked = Tracer(wl.name, names={"second_order.resolve_rho"})
    with checked.installed(tw, iteration=0):
        out = wl.outputs(tw, inputs, wl.call(tw, inputs))
    return out, checked.picks[f"{wl.name}:0"]


class SummaryWorkload:
    """A simulation whose call returns a ``SimulationSummary`` over ``reps``."""

    name = ""
    estimators = ("HILL", "WLS")

    def __init__(self, scale: str):
        self.p = SIZES[scale][self.name]

    def outputs(self, tw, inputs, summary) -> dict:
        return {
            "estimators": list(summary.estimators),
            "k_values": np.asarray(summary.k_values),
            "mean": np.asarray(summary.mean),
            "variance": np.asarray(summary.variance),
            "mse": np.asarray(summary.mse),
            "missing": np.asarray(summary.missing),
        }

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return all(np.array_equal(a[key], b[key], equal_nan=key != "k_values")
                   for key in ("k_values", "mean", "variance", "mse", "missing"))

    def operations(self, out: dict) -> tuple[int, int]:
        return out["mean"].size * self.p["reps"], int(out["missing"].sum())

    def items(self) -> int:
        return self.p["reps"]

    def reference_view(self, out: dict, picks: list) -> dict:
        return {
            "close": {key: out[key].tolist() for key in ("mean", "variance", "mse")},
            "exact": {"estimators": out["estimators"],
                      "k_values": out["k_values"].tolist(),
                      "missing": out["missing"].tolist()},
        }


class SimMinvar(SummaryWorkload):
    """``run_simulation`` on Burr data with the min-variance rho resolution."""

    name = "sim_minvar"

    def build(self, tw, seed: int, workdir: Path):
        p = self.p
        return tw.SimulationConfig(
            spec=tw.burr(BURR["eta"], BURR["tau"], BURR["lam"]),
            n=p["n"], reps=p["reps"], k_min=p["k_min"], k_max=p["k_max"],
            estimators=self.estimators,
            rho_method=tw.RhoMethod.min_variance(), master_seed=seed,
        )

    def call(self, tw, config):
        return tw.montecarlo.run_simulation(config)

    def invariants(self, tw, config, out: dict, picks: list) -> list[str]:
        p = self.p
        k_values = np.arange(p["k_min"], p["k_max"] + 1)
        hill_reps = np.array([
            hill_path(burr_quantile(np.random.Generator(
                np.random.PCG64(tw.rep_seed(config.master_seed, r))).random(p["n"])),
                k_values)
            for r in range(p["reps"])
        ])
        failures = summary_checks(out, BURR_GAMMA, hill_reps)
        if len(picks) != p["reps"]:
            failures.append(f"rho: {len(picks)} resolutions for {p['reps']} replications")
        if any(rho not in RHO_GRID for rho in picks):
            failures.append("rho: resolved value outside the candidate grid")
        return failures

    def reference_view(self, out: dict, picks: list) -> dict:
        view = super().reference_view(out, picks)
        view["exact"]["resolved_rho"] = picks
        return view


class EstimateN1000:
    """``tailwls estimate`` through ``cli.main`` on one generated Burr file."""

    name = "estimate_n1000"
    estimators = ("HILL", "BCHILL", "LS", "RR", "WLS")

    def __init__(self, scale: str):
        self.p = SIZES[scale][self.name]

    def build(self, tw, seed: int, workdir: Path):
        importlib.import_module("tailwls.cli")
        x = burr_quantile(np.random.default_rng(seed).random(self.p["n"]))
        data = workdir / f"{self.name}-input.txt"
        data.write_text("x\n" + "\n".join(format(v, ".17g") for v in x) + "\n")
        return {"x": x, "data": data, "out": workdir / f"{self.name}-path.csv"}

    def call(self, tw, inputs):
        argv = ["estimate", str(inputs["data"]), "--out", str(inputs["out"]),
                "--k-min", str(self.p["k_min"]), "--k-max", str(self.p["k_max"]),
                "--estimators", ",".join(self.estimators), "--rho", "minvar"]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return tw.cli.main(argv)

    def outputs(self, tw, inputs, rc) -> dict:
        out = {"rc": rc, "csv": b"", "meta": {}}
        if rc != 0:
            return out
        out["csv"] = inputs["out"].read_bytes()
        meta = Path(str(inputs["out"]) + ".meta").read_text()
        out["meta"] = dict(line.split("=", 1) for line in meta.splitlines() if "=" in line)
        rows = list(csv.reader(io.StringIO(out["csv"].decode())))
        out["header"] = rows[0]
        body = rows[1:]
        out["k"] = np.array([int(r[0]) for r in body])
        out["estimator"] = [r[1] for r in body]
        out["rho_used"] = np.array([float(r[2]) for r in body])
        out["gamma_hat"] = np.array([float(r[3]) for r in body])
        return out

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return a["rc"] == b["rc"] and a["csv"] == b["csv"]

    def _k_values(self) -> np.ndarray:
        return np.arange(self.p["k_min"], self.p["k_max"] + 1)

    def items(self) -> int:
        return len(self.estimators) * len(self._k_values())

    def operations(self, out: dict) -> tuple[int, int]:
        if out["rc"] != 0:
            return self.items(), self.items()
        return self.items(), int((~np.isfinite(out["gamma_hat"])).sum())

    def invariants(self, tw, inputs, out: dict, picks: list) -> list[str]:
        if out["rc"] != 0:
            return [f"estimate: exit code {out['rc']}"]
        k_values = self._k_values()
        n_est = len(self.estimators)
        if (out["header"] != ["k", "estimator", "rho_used", "gamma_hat"]
                or not np.array_equal(out["k"], np.repeat(k_values, n_est))
                or out["estimator"] != list(self.estimators) * len(k_values)):
            return ["estimate: CSV rows are not (k, estimator) in order"]
        gamma = out["gamma_hat"].reshape(len(k_values), n_est)
        rho_used = out["rho_used"].reshape(len(k_values), n_est)
        failures = []
        if not np.isfinite(gamma).all():
            failures.append("estimate: non-finite gamma_hat")
        if not close(gamma[:, 0], hill_path(inputs["x"], k_values)):
            failures.append("estimate: HILL path != numpy cumulative means")
        resolved = float(out["meta"].get("resolved_rho", "nan"))
        if resolved not in RHO_GRID or picks != [resolved]:
            failures.append("estimate: resolved rho missing or outside the grid")
        if not (np.isnan(rho_used[:, 0]).all() and (rho_used[:, 1:] == resolved).all()):
            failures.append("estimate: rho_used column disagrees with resolved rho")
        return failures

    def reference_view(self, out: dict, picks: list) -> dict:
        k_values = self._k_values()
        gamma = out["gamma_hat"].reshape(len(k_values), len(self.estimators))
        # every k below 20, then every 20th: small k and the whole range
        rows = np.unique(np.concatenate([np.arange(min(18, len(k_values))),
                                         np.arange(0, len(k_values), 20),
                                         [len(k_values) - 1]]))
        return {
            "close": {f"gamma_hat.{e}": gamma[rows, i].tolist()
                      for i, e in enumerate(self.estimators)},
            "exact": {"k_values": k_values[rows].tolist(),
                      "resolved_rho": float(out["meta"]["resolved_rho"])},
        }


class ModelK100(SummaryWorkload):
    """``run_model_simulation``: many draws from the regression model at one k."""

    name = "model_k100"

    def build(self, tw, seed: int, workdir: Path):
        return seed

    def call(self, tw, seed):
        p = self.p
        return tw.montecarlo.run_model_simulation(
            p["gamma"], p["b"], p["rho"], p["k"], p["reps"],
            estimators=self.estimators, master_seed=seed)

    def invariants(self, tw, seed, out: dict, picks: list) -> list[str]:
        p = self.p
        j = np.arange(1, p["k"] + 1)
        means = p["gamma"] + p["b"] * (j / (p["k"] + 1.0)) ** (-p["rho"])
        hill_reps = np.array([
            np.mean(means * -np.log1p(-np.random.Generator(
                np.random.PCG64(tw.rep_seed(seed, r))).random(p["k"])))
            for r in range(p["reps"])
        ])[:, None]
        return summary_checks(out, p["gamma"], hill_reps)


WORKLOADS = {w.name: w for w in (SimMinvar, EstimateN1000, ModelK100)}
