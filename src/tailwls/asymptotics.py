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
limit 4/(3k); ``SMoments.unit_amse`` computes it from the four sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KOutOfRangeError, KTooSmallError, NonFiniteError, NonPositiveError
from .spacings import covariates, weights


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
    """The four weight-moment sums at a finite k, plus their limits."""

    k: int
    rho: float
    s1: float
    s2: float
    s_dot: float
    s_ddot: float

    @property
    def s1_limit(self) -> float:
        return s1_limit(self.rho)

    @property
    def s2_limit(self) -> float:
        return s2_limit(self.rho)

    @property
    def unit_amse(self) -> float:
        """amse(1, k, rho): 4/(3k) + 2 S1 S_dot / S2 + S1^2 S_ddot / S2^2."""
        return (4.0 / (3.0 * self.k) + 2.0 * self.s1 * self.s_dot / self.s2
                + self.s1**2 * self.s_ddot / self.s2**2)

    def amse(self, gamma: float) -> float:
        """gamma^2 * unit_amse; NonFiniteError where it overflows for a finite gamma."""
        with np.errstate(over="ignore"):  # np.float64 ** 2 is the C pow of float ** 2
            value = float(np.float64(gamma) ** 2 * self.unit_amse)
        if not np.isfinite(value) and np.isfinite(gamma):
            raise NonFiniteError(f"gamma={gamma}: gamma^2 overflows the AMSE at k={self.k}")
        return value


def s_moments(k: int, rho: float) -> SMoments:
    """Compute S1, S2, S_dot, S_ddot at a finite k.

    Raises:
        KTooSmallError: k < 2 (S2 degenerates to 0 at k=1).
        InvalidRhoError: rho not finite negative.
    """
    k = int(k)
    if k < 2:
        raise KTooSmallError(f"weight moments need k >= 2, got k={k}")
    c = covariates(k, rho)
    w = weights(k)
    s1 = float(w @ c)
    s2 = float(w @ (c * c)) - s1 * s1
    d = s1 - c
    wsq = w * w
    s_dot = float(wsq @ d)
    s_ddot = float(wsq @ (d * d))
    return SMoments(k=k, rho=float(rho), s1=s1, s2=s2, s_dot=s_dot, s_ddot=s_ddot)


def amse(gamma: float, k: int, rho: float) -> float:
    """Asymptotic mean squared error approximation for the WLS estimator.

        gamma^2 * (4/(3k) + 2 S1 S_dot / S2 + S1^2 S_ddot / S2^2)

    Under the exponential regression model with b = 0 the fit is unbiased,
    and this is its variance gamma^2 sum a_j^2 (module docstring) with
    sum w_j^2 replaced by its limit 4/(3k). Errors as :func:`s_moments`, and
    NonFiniteError where the AMSE of a finite gamma overflows.
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
        NonPositiveError: gamma_true <= 0.
        KOutOfRangeError: k < 1.
    """
    gamma_true = float(gamma_true)
    if not gamma_true > 0.0:
        raise NonPositiveError(f"gamma_true={gamma_true} must be > 0")
    k = int(k)
    if k < 1:
        raise KOutOfRangeError(f"k={k} must be at least 1")
    gamma_hat = np.asarray(gamma_hat, dtype=np.float64)
    return np.sqrt(3.0 * k) * (gamma_hat - gamma_true) / (2.0 * gamma_true)
