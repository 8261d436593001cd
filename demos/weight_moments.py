"""Finite-k weight moments against their closed-form limits.

The triangular weights W_j = 1 - j/(k+1) give the covariate moments S1 and
S2 simple limits as k grows. This prints the convergence table for rho = -1
plus the asymptotic mean squared error proxy as a function of k, whose
minimizer is the usual bias/variance sweet spot.
"""

import tailwls as tw

rho = -1.0
print(f"rho = {rho}")
print(f"s1 limit = {tw.s1_limit(rho)}  (1/3 at rho=-1)")
print(f"s2 limit = {tw.s2_limit(rho)}  (1/18 at rho=-1)")
print()

print("k        s1         s2      s_dot     s_ddot   |s1-lim|   |s2-lim|")
for k in (10, 100, 1000, 10_000, 100_000):
    m = tw.s_moments(k, rho)
    print(f"{k:<7d} {m.s1:.6f} {m.s2:.6f} {m.s_dot:9.6f} {m.s_ddot:9.6f} "
          f"{abs(m.s1 - tw.s1_limit(rho)):10.2e} {abs(m.s2 - tw.s2_limit(rho)):10.2e}")

# The amse proxy is the variance part of the error, so it decays like 1/k.
# The interesting number is the constant: k * amse tends to 24/5, not the
# 4/3 a reader might expect from the headline rate, because the slope
# fluctuation terms (the S_dot and S_ddot pieces) do not vanish relative
# to 1/k. See the diagnose subcommand for the same table from the CLI.
print()
gamma = 1.0
print("k                 amse   k*amse")
for k in (10, 100, 1000, 10_000, 100_000):
    a = tw.amse(gamma, k, rho)
    print(f"{k:<7d} {a:>14.6f} {k * a:>8.4f}")
print(f"limit of k*amse at rho=-1: 24/5 = {24 / 5}")
