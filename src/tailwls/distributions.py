"""Heavy-tailed sampling distributions with known tail parameters.

Four Pareto-type families used throughout the simulation layer. Each spec
records the true tail index ``true_gamma`` and the true second-order
parameter ``true_rho`` implied by its parameters:

    pareto(gamma)        quantile (1-u)^(-gamma)          rho: none (-inf)
    burr(eta, tau, lam)  eta*((1-u)^(-1/lam) - 1)^(1/tau) gamma = 1/(lam*tau),
                                                          rho = -1/lam
    frechet(alpha)       (-log u)^(-1/alpha)              gamma = 1/alpha,
                                                          rho = -1
    loggamma(lam, alpha) exp of Gamma(alpha, rate lam)    gamma = 1/lam,
                                                          rho = 0

The strict Pareto tail has no second-order term at all, recorded as
``true_rho = -inf``. The log-gamma family sits at the boundary rho = 0 where
the regression model is misspecified; it is included for exactly that reason.
Sampling is inverse-transform with one uniform per draw, so a seed fixes the
sample bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, NonPositiveError, UOutOfRangeError
from .spacings import check_positive

FAMILIES = ("pareto", "burr", "frechet", "loggamma")


@dataclass(frozen=True)
class DistributionSpec:
    """One member of a supported family, with its true tail parameters."""

    family: str
    params: dict
    true_gamma: float
    true_rho: float


def _reciprocal(den: float, what: str = "true gamma") -> float:
    """1/den for a spec's ``what``; NonFiniteError if den underflowed to 0 or 1/den overflows."""
    if den == 0.0 or 1.0 / den == np.inf:
        raise NonFiniteError(f"{what} needs 1/{den}, which is not finite")
    return 1.0 / den


def pareto(gamma: float) -> DistributionSpec:
    """Strict Pareto with survival function x^(-1/gamma) on [1, inf)."""
    gamma = check_positive("gamma", gamma)
    return DistributionSpec(
        family="pareto",
        params={"gamma": gamma},
        true_gamma=gamma,
        true_rho=-np.inf,
    )


def burr(eta: float, tau: float, lam: float) -> DistributionSpec:
    """Burr(eta, tau, lam): 1 - F(x) = (1 + (x/eta)^tau)^(-lam) on (0, inf)."""
    eta = check_positive("eta", eta)
    tau = check_positive("tau", tau)
    lam = check_positive("lam", lam)
    return DistributionSpec(
        family="burr",
        params={"eta": eta, "tau": tau, "lam": lam},
        true_gamma=_reciprocal(lam * tau),
        true_rho=-_reciprocal(lam, "true rho"),
    )


def frechet(alpha: float) -> DistributionSpec:
    """Frechet with F(x) = exp(-x^(-alpha)) on (0, inf)."""
    alpha = check_positive("alpha", alpha)
    return DistributionSpec(
        family="frechet",
        params={"alpha": alpha},
        true_gamma=_reciprocal(alpha),
        true_rho=-1.0,
    )


def loggamma(lam: float, alpha: float) -> DistributionSpec:
    """exp(G) with G ~ Gamma(shape alpha, rate lam); support [1, inf).

    A subnormal alpha raises NonPositiveError: scipy's incomplete gamma
    function is wrong there (``gammainc(1e-308, 1)`` is 0, where F is 1 to
    double precision, and ``gammaincinv`` gives NaN).
    """
    lam = check_positive("lam", lam)
    alpha = check_positive("alpha", alpha)
    if alpha < np.finfo(np.float64).tiny:
        raise NonPositiveError(f"alpha={alpha} is subnormal; it must be a normal float")
    return DistributionSpec(
        family="loggamma",
        params={"lam": lam, "alpha": alpha},
        true_gamma=_reciprocal(lam),
        true_rho=0.0,
    )


def _check_u(u) -> np.ndarray:
    arr = np.asarray(u, dtype=np.float64)
    bad = ~((arr >= 0.0) & (arr < 1.0))
    if bad.any():
        val = arr[bad].ravel()[0] if arr.ndim else float(arr)
        raise UOutOfRangeError(f"quantile argument {val} outside [0, 1)")
    return arr


def quantile(spec: DistributionSpec, u):
    """Quantile function Q(u) = F^{-1}(u); scalar in, scalar out.

    Accepts scalars or arrays with entries in [0, 1). Q(0) is the lower
    endpoint of the support by continuity. A Q(u) beyond the float range is
    inf, without a warning: ``validate_and_sort`` rejects it as a
    NonFiniteError, and ``block_tails`` marks its row a failed draw.

    Raises:
        UOutOfRangeError: some u outside [0, 1).
    """
    arr = _check_u(u)
    p = spec.params
    with np.errstate(over="ignore", divide="ignore"):  # divide: Frechet's log(0)
        if spec.family == "pareto":
            x = (1.0 - arr) ** (-p["gamma"])
        elif spec.family == "burr":
            x = p["eta"] * ((1.0 - arr) ** (-1.0 / p["lam"]) - 1.0) ** (1.0 / p["tau"])
        elif spec.family == "frechet":
            x = (-np.log(arr)) ** (-1.0 / p["alpha"])
        elif spec.family == "loggamma":
            from scipy import special  # only log-gamma needs scipy; keep import cheap

            x = np.exp(special.gammaincinv(p["alpha"], arr) / p["lam"])
        else:
            raise ValueError(f"unknown family {spec.family!r}")
    return float(x) if np.ndim(u) == 0 else x


def cdf(spec: DistributionSpec, x):
    """Distribution function F(x); scalar in, scalar out.

    Defined on the whole real line, with F = 0 left of the support and
    F(inf) = 1. A power that overflows gives F its limit, 0 or 1, without a
    warning. A NaN x raises NonFiniteError, as does a log-gamma F that scipy
    gives as NaN (at an alpha above about 3e305).
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise NonFiniteError("cdf argument is NaN")
    p = spec.params
    out = np.zeros_like(arr)
    with np.errstate(over="ignore"):
        if spec.family == "pareto":
            inside = arr > 1.0
            out[inside] = 1.0 - arr[inside] ** (-1.0 / p["gamma"])
        elif spec.family == "burr":
            inside = arr > 0.0
            out[inside] = 1.0 - (1.0 + (arr[inside] / p["eta"]) ** p["tau"]) ** (-p["lam"])
        elif spec.family == "frechet":
            inside = arr > 0.0
            out[inside] = np.exp(-arr[inside] ** (-p["alpha"]))
        elif spec.family == "loggamma":
            from scipy import special

            inside = arr > 1.0
            y = p["lam"] * np.log(arr[inside])
            # scipy's gammainc exceeds 1 by rounding at a tiny alpha (by 7.8e-14 at 1e-300)
            out[inside] = np.minimum(special.gammainc(p["alpha"], y), 1.0)
            if np.isnan(out).any():
                raise NonFiniteError(f"alpha={p['alpha']}: scipy's gammainc gives NaN")
        else:
            raise ValueError(f"unknown family {spec.family!r}")
    return float(out) if np.ndim(x) == 0 else out


def _uniforms(seeds, width: int) -> np.ndarray:
    """The ``(rows, width)`` block of uniforms, row i the start of seed i's PCG64 stream.

    The one place a seed becomes uniforms: a row holds what
    ``np.random.Generator(np.random.PCG64(seed)).random(width)`` returns.
    """
    block = np.empty((len(seeds), width))
    for row, seed in zip(block, seeds):
        np.random.Generator(np.random.PCG64(seed)).random(out=row)
    return block


def sample(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """Draw n values by inverse transform, one uniform per draw.

    The same (spec, n, seed) always yields the same array; the stream is a
    PCG64 generator seeded with ``seed``, a nonnegative int or an
    ``ISeedSequence``. Either way the stream is the one ``np.random.PCG64``
    builds from that seed, so an ISeedSequence whose state equals
    ``SeedSequence(s).generate_state(4, np.uint64)`` gives the stream of
    the int s. The uniforms are the one-row block of :func:`_uniforms`.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    return quantile(spec, _uniforms([seed], n)[0])
