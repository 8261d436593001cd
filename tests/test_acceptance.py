"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line. Criteria 3
and 4 check the variance of the WLS estimator. The paper claims
Var(gamma_hat) = 4 gamma^2 / (3k), but that is only the sum w_j^2 term of the
exact variance gamma^2 sum a_j^2: the slope-fluctuation terms decay like 1/k
too, so k Var(gamma_hat) / gamma^2 tends to 24/5 at rho = -1, and the paper's
standardized statistic has variance near 18/5, not 1 (``tailwls.asymptotics``
and ``tests/test_asymptotics.py`` pin the algebra). Both criteria therefore
gate on the library's ``amse``, which is that variance with sum w_j^2 at its
limit 4/(3k), and print the paper's constant beside the measured value.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tailwls as tw

REPO_ROOT = Path(__file__).resolve().parents[1]


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return ok, line


def test_criterion_1_weight_moment_limits():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (-0.5, -1.0, -2.0):
        m = tw.s_moments(100_000, rho)
        worst = max(
            worst,
            abs(m.s1 - m.s1_limit),
            abs(m.s2 - m.s2_limit),
            abs(m.s_dot),
            abs(m.s_ddot),
        )
    elapsed = time.perf_counter() - t0
    ok, line = report(
        1, "weight-moment-limits",
        worst < 1e-3 and elapsed < 1.0,
        f"max deviation {worst:.2e} at k=1e5, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_2_model_unbiasedness():
    t0 = time.perf_counter()
    s = tw.run_model_simulation(
        gamma=0.5, b=0.1, rho=-1.0, k=100, reps=10_000, master_seed=3
    )
    elapsed = time.perf_counter() - t0
    err = abs(s.cell("WLS", 100)["mean"] - 0.5)
    ok, line = report(
        2, "model-unbiasedness",
        err <= 0.002 and elapsed < 10.0,
        f"|mean - 0.5| = {err:.5f} (tol 0.002), {elapsed:.1f}s",
    )
    assert ok, line


def _influence_weights(k, rho):
    """a_j with gamma_hat = sum a_j Z_j for the WLS fit."""
    m = tw.s_moments(k, rho)
    w = tw.weights(k)
    c = tw.covariates(k, rho)
    return w * (1.0 + (m.s1**2 - m.s1 * c) / m.s2)


def test_criterion_3_claimed_variance_rate():
    t0 = time.perf_counter()
    s = tw.run_model_simulation(
        gamma=1.0, b=0.0, rho=-1.0, k=100, reps=10_000, master_seed=7
    )
    elapsed = time.perf_counter() - t0
    var = s.cell("WLS", 100)["variance"]
    target = tw.amse(1.0, 100, -1.0)
    a = _influence_weights(100, -1.0)
    ok, line = report(
        3, "claimed-variance-rate",
        abs(var - target) <= 0.2 * target and elapsed < 10.0,
        f"empirical var {var:.5f} vs amse {target:.5f} +-20%; "
        f"exact finite-k var {float(a @ a):.5f}; "
        f"paper's 4/(3k) = {4.0 / 300.0:.5f}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_standardized_normality():
    t0 = time.perf_counter()
    rep = tw.normality_report(
        reps=5000, k=500, master_seed=11, gamma=1.0, b=0.0, rho=-1.0
    )
    elapsed = time.perf_counter() - t0
    # the statistic's variance: 3k amse / 4, where the paper assumes 1
    v = 3.0 * rep.k * tw.amse(1.0, rep.k, -1.0) / 4.0
    mean = rep.sample_mean / math.sqrt(v)
    ratio = rep.sample_variance / v
    # gamma_hat is a weighted sum of exponentials: its exact skewness
    a = _influence_weights(rep.k, -1.0)
    skew_exact = 2.0 * float(np.sum(a**3)) / float(a @ a) ** 1.5
    ok_mean = abs(mean) <= 0.1
    ok_var = abs(ratio - 1.0) <= 0.15
    # the sample skewness has standard error about sqrt(6/reps)
    skew_tol = 3.0 * math.sqrt(6.0 / rep.reps)
    ok_skew = abs(rep.skewness) <= 0.2 and abs(rep.skewness - skew_exact) <= skew_tol
    ok, line = report(
        4, "standardized-normality",
        ok_mean and ok_var and ok_skew and elapsed < 30.0,
        f"mean/sqrt(v) {mean:.3f} (|.|<=0.1: {ok_mean}), "
        f"var {rep.sample_variance:.3f} = {ratio:.3f} v with "
        f"v = 3k amse/4 = {v:.3f}, paper's v = 1 (|var/v-1|<=0.15: {ok_var}), "
        f"skew {rep.skewness:.3f}, exact {skew_exact:.3f} "
        f"(|.|<=0.2 and |skew-exact|<={skew_tol:.3f}: {ok_skew}), {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_bias_reduction_ordering():
    t0 = time.perf_counter()
    cfg = tw.SimulationConfig(
        spec=tw.burr(1.0, math.sqrt(2.0), math.sqrt(2.0)),
        n=200, reps=1000, k_min=100, k_max=100,
        estimators=("HILL", "WLS"),
        rho_method=tw.RhoMethod.min_variance(),
        master_seed=5,
    )
    s = tw.run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    bias_h = abs(s.cell("HILL", 100)["bias"])
    bias_w = abs(s.cell("WLS", 100)["bias"])
    ok, line = report(
        5, "bias-reduction-ordering",
        bias_w < bias_h and elapsed < 120.0,
        f"|bias| WLS {bias_w:.4f} < HILL {bias_h:.4f}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_6_path_stability():
    t0 = time.perf_counter()
    spec = tw.burr(1.0, math.sqrt(2.0), math.sqrt(2.0))
    meth = tw.RhoMethod.min_variance()
    wins = 0
    for r in range(100):
        tail = tw.validate_and_sort(tw.sample(spec, 200, tw.rep_seed(99, r)))
        paths = tw.path_estimates(tail.z_all, tail.n, ("HILL", "WLS"),
                                  tw.resolve_rho(tail, meth), np.arange(40, 161)).paths
        sd_w = np.std(paths["WLS"])
        sd_h = np.std(paths["HILL"])
        wins += sd_w < sd_h
    elapsed = time.perf_counter() - t0
    ok, line = report(
        6, "path-stability",
        wins >= 70 and elapsed < 120.0,
        f"WLS path flatter in {wins}/100 samples (need >= 70), {elapsed:.1f}s",
    )
    assert ok, line


def _condroz_path():
    env = os.environ.get("TAILWLS_CONDROZ")
    if env and Path(env).exists():
        return Path(env)
    bundled = REPO_ROOT / "data" / "condroz.csv"
    if bundled.exists():
        return bundled
    return None


def test_criterion_7_condroz_plateau():
    path = _condroz_path()
    if path is None:
        print("ACCEPTANCE 7 condroz-plateau: SKIP "
              "(dataset not bundled; see `tailwls fetch-note`)")
        pytest.skip("Condroz dataset not available")
    from tailwls.cli import read_numeric_column

    values = read_numeric_column(str(path), column=None)
    tail = tw.validate_and_sort(values)
    rho = tw.resolve_rho(tail, tw.RhoMethod.min_variance())
    path_wls = tw.path_estimates(tail.z_all, tail.n, ("WLS",), rho, np.arange(710, 1231)).paths
    mean = float(np.mean(path_wls["WLS"]))
    ok, line = report(
        7, "condroz-plateau",
        abs(mean - 0.26) <= 0.03,
        f"mean over k in [710,1230] = {mean:.4f} (target 0.26 +- 0.03, n={tail.n})",
    )
    assert ok, line


def test_criterion_8_exact_recovery_and_oracles():
    t0 = time.perf_counter()
    worst_exact = 0.0
    for k, gamma, b, rho in ((25, 0.7, 0.3, -1.0), (60, 2.0, -0.5, -0.4)):
        c = tw.covariates(k, rho)
        z = gamma + b * c
        table = tw.path_estimates(z, None, ("LS", "WLS"), rho, [k])
        for est in ("LS", "WLS"):
            worst_exact = max(worst_exact, abs(table.paths[est][0] - gamma),
                              abs(table.slopes[est][0] - b))

    rng = np.random.default_rng(424242)
    worst_oracle = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 400))
        rho = float(-rng.uniform(0.05, 4.0))
        zvals = rng.exponential(rng.uniform(0.2, 3.0), size=k)
        z = zvals
        w = tw.weights(k)
        c = tw.covariates(k, rho)
        design = np.stack([np.ones(k), c], axis=1)
        lhs = design.T @ (w[:, None] * design)
        rhs = design.T @ (w * zvals)
        g_ref, b_ref = np.linalg.solve(lhs, rhs)
        table = tw.path_estimates(z, None, ("WLS",), rho, [k])
        worst_oracle = max(worst_oracle, abs(table.paths["WLS"][0] - g_ref),
                           abs(table.slopes["WLS"][0] - b_ref))

    u = np.linspace(0.001, 0.999, 400)
    worst_round = 0.0
    for spec in (tw.pareto(0.5), tw.burr(1.0, 2.0, 0.5),
                 tw.frechet(2.0), tw.loggamma(1.5, 2.0)):
        x = tw.quantile(spec, u)
        worst_round = max(worst_round, float(np.max(np.abs(tw.cdf(spec, x) - u))))
    elapsed = time.perf_counter() - t0
    ok, line = report(
        8, "exact-recovery-and-oracles",
        worst_exact < 1e-10 and worst_oracle < 1e-10
        and worst_round < 1e-8 and elapsed < 5.0,
        f"noise-free {worst_exact:.1e}, oracle {worst_oracle:.1e}, "
        f"round-trip {worst_round:.1e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_9_simulate_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "tailwls", "simulate",
             "--dist", "burr", "--tau", "2", "--lambda", "1",
             "--n", "60", "--reps", "30", "--seed", "7",
             "--k-min", "5", "--k-max", "15",
             "--estimators", "HILL,BCHILL,LS,RR,WLS",
             "--rho", "minvar", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    ok, line = report(
        9, "simulate-determinism",
        outs[0] == outs[1],
        f"two identical invocations, {len(outs[0])} bytes each, "
        f"byte-identical: {outs[0] == outs[1]}",
    )
    assert ok, line
