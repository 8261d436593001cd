"""Weight-moment sums, asymptotic MSE, and the standardized WLS statistic.

The normalized weights w_j and covariates C_j define four sums that control
the large-k behaviour of the WLS estimator:

    S1     = sum w_j C_j              -> 2 / ((1-rho)(2-rho))
    S2     = sum w_j C_j^2 - S1^2     -> rho^2 (5-rho) /
                                          ((1-2 rho)(1-rho)^2 (2-rho)^2)
    S_dot  = sum w_j^2 (S1 - C_j)     -> 0
    S_ddot = sum w_j^2 (S1 - C_j)^2   -> 0

gamma_hat is the linear combination sum a_j Z_j with influence weights
a_j = w_j (1 + (S1^2 - S1 C_j) / S2), so its variance is exactly

    gamma^2 sum a_j^2 = gamma^2 (sum w_j^2 + 2 S1 S_dot / S2
                                 + S1^2 S_ddot / S2^2).

S_dot and S_ddot tend to 0 only like 1/k, the same order as
sum w_j^2 -> 4 / (3k), so they do not drop out of the variance:
k Var(gamma_hat) / gamma^2 tends to lim k * amse(1, k, rho), which is 24/5
at rho = -1. The paper's stated constant 4 gamma^2 / (3k) is the sum w_j^2
term alone. The standardized statistic sqrt(3k) (gamma_hat - gamma) /
(2 gamma) is therefore asymptotically normal with variance
(3/4) lim k * amse(1, k, rho), which is 18/5 at rho = -1, not 1.

``amse`` is this variance, cross-term coefficient 2, with sum w_j^2 at its
limit 4/(3k); ``SMoments.amse`` computes it from the four sums, which
``s_moments`` reads for every k at once from the WLS path engine's design.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRhoError, NonFiniteError
from .estimators import _design, _prefix_sums
from .spacings import check_int, check_k_values, check_positive, check_rho

__all__ = ["SMoments", "s_moments", "s1_limit", "s2_limit", "amse", "standardized_statistic"]


def s1_limit(rho: float) -> float:
    """Large-k limit of S1."""
    return 2.0 / ((1.0 - rho) * (2.0 - rho))


def s2_limit(rho: float) -> float:
    """Large-k limit of S2."""
    return (
        rho**2
        * (5.0 - rho)
        / ((1.0 - 2.0 * rho) * (1.0 - rho) ** 2 * (2.0 - rho) ** 2)
    )


@dataclass(frozen=True)
class SMoments:
    """The four weight-moment sums at a finite k, or at each k of an array."""

    k: int | np.ndarray
    rho: float
    s1: float | np.ndarray
    s2: float | np.ndarray
    s_dot: float | np.ndarray
    s_ddot: float | np.ndarray

    def amse(self, gamma: float):
        """gamma^2 (4/(3k) + 2 S1 S_dot / S2 + S1^2 S_ddot / S2^2), elementwise.

        InvalidRhoError at the first k where S2 is not positive or S2^2 underflows
        to a subnormal or 0: an extreme rho makes the covariates all but equal.
        Then NonFiniteError at the first k where the AMSE of a finite gamma
        overflows, and any other gamma is checked by ``check_positive``.
        """
        bad = np.flatnonzero(~((self.s2 > 0.0) & (np.square(self.s2) >= sys.float_info.min)))
        if bad.size:
            raise InvalidRhoError(f"rho={self.rho}: S2={np.ravel(self.s2)[bad[0]]} at "
                                  f"k={np.ravel(self.k)[bad[0]]} is too small for the AMSE")
        with np.errstate(over="ignore"):  # np.float64 ** 2 is the C pow of float ** 2
            value = np.float64(gamma) ** 2 * (
                4.0 / (3.0 * self.k) + 2.0 * self.s1 * self.s_dot / self.s2
                + self.s1 * self.s1 * self.s_ddot / (self.s2 * self.s2))
        bad = np.flatnonzero(~np.isfinite(value) & np.isfinite(gamma))
        if bad.size:
            raise NonFiniteError(
                f"gamma={gamma}: gamma^2 overflows the AMSE at k={np.ravel(self.k)[bad[0]]}")
        check_positive("gamma", gamma)
        return value if np.ndim(value) else float(value)


def s_moments(k, rho: float) -> SMoments:
    """Compute S1, S2, S_dot, S_ddot at k, an int or a strictly ascending array of ints.

    S1 and S2 are the path engine's weighted ``_design``. From its v, m1 and scale,
    S_dot = scale (m1 q0 - q1) and S_ddot = scale^2 (q2 - 2 m1 q1 + m1^2 q0), with
    q_m = sum w_j^2 v_j^m by sum_{j<=k} (k+1-j)^2 f_j = 2 P3(f)_k - P2(f)_k, P a prefix
    sum: O(max k) for all k, accurate as rho -> 0. An int k gives its one-entry numbers.

    Raises:
        KTooSmallError: k < 2 (S2 degenerates to 0 at k=1).
        EmptyOrTinyError / KOutOfRangeError: no k, or k not ascending integers.
        InvalidRhoError: rho not finite negative, or overflowing the design or these sums.
    """
    ks = check_k_values(k, 2)
    k_max, i = int(ks[-1]), ks - 1
    design = _design((check_rho(rho),), ks, True)
    if design.rejected:
        raise InvalidRhoError(design.rejected[0][1])
    v, m1, scale = design.v[0], design.m1[0], design.scale[0]
    with np.errstate(over="ignore", invalid="ignore"):
        q0, q1, q2 = ((2.0 * np.add.accumulate(p) - p)[i] / design.totals ** 2 for p in
                      (_prefix_sums(f, k_max, True) for f in (np.ones(k_max), v, v * v)))
        s_dot, s_ddot = scale * (m1 * q0 - q1), scale * (scale * (q2 - 2.0 * m1 * q1 + m1**2 * q0))
    if not np.isfinite([s_dot, s_ddot]).all():
        raise InvalidRhoError(f"rho={rho} overflows the weight-moment sums up to k={k_max}")
    sums = dict(k=ks, s1=design.s1[0], s2=design.s2[0], s_dot=s_dot, s_ddot=s_ddot)
    return SMoments(rho=float(rho), **{f: a if np.ndim(k) else a.item() for f, a in sums.items()})


def amse(gamma: float, k: int, rho: float) -> float:
    """Asymptotic mean squared error approximation for the WLS estimator.

        gamma^2 * (4/(3k) + 2 S1 S_dot / S2 + S1^2 S_ddot / S2^2)

    Under the exponential regression model with b = 0 the fit is unbiased,
    and this is its variance gamma^2 sum a_j^2 (module docstring) with
    sum w_j^2 replaced by its limit 4/(3k). Errors as :func:`s_moments`,
    InvalidRhoError where S2^2 underflows (an extreme rho), NonFiniteError
    where the AMSE of a finite gamma overflows, and NonPositiveError or
    NonFiniteError for a gamma that is not positive or not finite.
    """
    return s_moments(k, rho).amse(gamma)


def standardized_statistic(gamma_hat: float | np.ndarray, gamma_true: float,
                           k: int) -> float | np.ndarray:
    """sqrt(3k) (gamma_hat - gamma_true) / (2 gamma_true), elementwise for an array.

    This is the paper's standardization, which assumes Var(gamma_hat) =
    4 gamma^2 / (3k). For the WLS fit the statistic's limiting variance is
    3k * amse(1, k, rho) / 4 instead (18/5 at rho = -1; see the module
    docstring), so it is not standard normal.

    Raises:
        NonPositiveError: gamma_true <= 0 or NaN.
        NonFiniteError: gamma_true infinite, a gamma_hat NaN or infinite,
            or a statistic or 2 gamma_true that overflows.
        KOutOfRangeError: k < 1, or k not an integer.
    """
    gamma_true = check_positive("gamma_true", gamma_true)
    k = check_int("k", k, low=1)
    gamma_hat = np.asarray(gamma_hat, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        stat = np.sqrt(3.0 * k) * (gamma_hat - gamma_true) / (2.0 * gamma_true)
    if not (np.isfinite(stat).all() and np.isfinite(2.0 * gamma_true)):
        raise NonFiniteError(f"gamma_true={gamma_true}, k={k}: a statistic is not finite "
                             "(gamma_hat not finite, or an overflow)")
    return stat
