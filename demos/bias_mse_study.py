"""Small Monte Carlo comparison of the five estimators.

Burr with gamma = 1 and rho = -1, n = 200, 400 replications, the true rho
given to the regressions. What it prints:

* At each estimator's own best k (the oracle k0), Hill has the lower mean
  squared error: 0.0373 at k0 = 36, against 0.0512 for WLS at k0 = 113.
  WLS does not beat Hill there; BCHILL (0.0328) does.
* WLS trades variance for bias. Its bias stays small as k grows (-0.06 at
  k = 100), while Hill's grows fast (+0.38 at k = 100). So WLS has the lower
  mean squared error only at large k: 0.052 against 0.156 at k = 100, and
  0.076 against 0.750 at k = 150. At k = 20 and 50 Hill wins.

The point of WLS here is a flat error curve in k, not a lower minimum.
"""

import tailwls as tw

cfg = tw.SimulationConfig(
    spec=tw.burr(1.0, 1.0, 1.0),     # gamma = 1, rho = -1
    n=200,
    reps=400,
    k_min=10,
    k_max=150,
    estimators=tw.ESTIMATOR_IDS,
    rho_method=tw.RhoMethod.fixed(-1.0),
    master_seed=42,
)
summary = tw.run_simulation(cfg)

print(f"true gamma = {summary.true_gamma}, reps = {cfg.reps}, n = {cfg.n}")
print()
print("estimator  k0   mse(k0)    bias(k0)   var(k0)")
for est in cfg.estimators:
    pairs = ((int(k), summary.cell(est, int(k))["mse"]) for k in summary.k_values)
    k0, mse0 = tw.optimal_k(pairs)
    cell = summary.cell(est, k0)
    print(f"{est:<9} {k0:>4} {mse0:>9.5f} {cell['bias']:>10.5f} "
          f"{cell['variance']:>9.5f}")

print()
print("Hill versus WLS at a few fixed k (bias grows with k for Hill):")
print("k      bias(HILL)  bias(WLS)   mse(HILL)  mse(WLS)")
for k in (20, 50, 100, 150):
    h = summary.cell("HILL", k)
    w = summary.cell("WLS", k)
    print(f"{k:<6} {h['bias']:>10.5f} {w['bias']:>10.5f} "
          f"{h['mse']:>11.5f} {w['mse']:>9.5f}")

# the mse column decomposes exactly because all moments share one divisor
k = 100
c = summary.cell("WLS", k)
print()
print(f"decomposition check at k={k}: mse - (var + bias^2) = "
      f"{c['mse'] - (c['variance'] + c['bias'] ** 2):.2e}")
