"""Tail-index estimators built on weighted log-spacings.

The exponential regression representation of the spacings,

    Z_j = gamma + b * C_j + error_j,    C_j = (j/(k+1))^(-rho),

turns tail-index estimation into a one-covariate linear fit. Five closed-form
estimators are provided:

    HILL    sample mean of the Z_j (Hill 1975), no bias correction,
    LS      unweighted least squares intercept,
    RR      ridge-regularized least squares intercept,
    WLS     weighted least squares with weights W_j = 1 - j/(k+1),
    BCHILL  multiplicatively bias-corrected Hill using a slope estimate.

:func:`path_estimates` is the one table from estimator id to computation;
every path and every simulation cell goes through it.

All regression fits share one algebraic core: with unit-sum weights w_j,

    b_hat     = sum w_j (C_j - S1) Z_j / (S2 + shrink)
    gamma_hat = sum w_j Z_j - b_hat * S1

where S1 = sum w_j C_j, S2 = sum w_j C_j^2 - S1^2, and ``shrink`` is zero for
plain fits and penalty/k for ridge. With penalty 0 the ridge path is
bit-for-bit the LS path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NegativePenaltyError,
)
from .spacings import (
    LogSpacings,
    OrderedTail,
    all_log_spacings,
    covariates,
    weights,
)

#: Canonical estimator identifiers, in reporting order.
ESTIMATOR_IDS = ("HILL", "BCHILL", "LS", "RR", "WLS")

#: Ridge penalty candidates are these factors times k.
RIDGE_PENALTY_FACTORS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class RegressionFit:
    """Result of one linear fit on k spacings.

    ``fitted_means`` holds gamma_hat + b_hat * C_j and ``residuals`` the
    difference Z_j - fitted. ``penalty`` is set only by ridge fits.
    """

    gamma_hat: float
    b_hat: float
    rho_used: float
    k: int
    fitted_means: np.ndarray
    residuals: np.ndarray
    penalty: float | None = None


@dataclass(frozen=True)
class EviPath:
    """Estimates of one estimator along a range of k values.

    ``rho_values[i]`` is the rho used at ``k_values[i]`` (NaN for HILL, which
    needs none). ``penalties`` is populated for RR paths, else None.
    """

    estimator_id: str
    k_values: np.ndarray
    estimates: np.ndarray
    rho_values: np.ndarray
    rho_method_id: str
    n: int
    penalties: np.ndarray | None = None


def _check_rho(rho) -> float:
    rho = float(rho)
    if not np.isfinite(rho) or rho >= 0.0:
        raise InvalidRhoError(f"rho={rho} must be finite and < 0")
    return rho


def _core_fit(zvals: np.ndarray, c: np.ndarray, w: np.ndarray, shrink: float):
    """Weighted one-covariate fit; returns (gamma_hat, b_hat, fitted)."""
    s1 = w @ c
    s2 = w @ (c * c) - s1 * s1
    b_hat = (w * (c - s1)) @ zvals / (s2 + shrink)
    gamma_hat = w @ zvals - b_hat * s1
    fitted = gamma_hat + b_hat * c
    return float(gamma_hat), float(b_hat), fitted


def _fit(z: LogSpacings, rho: float, weighted: bool,
         penalty: float | None = None) -> RegressionFit:
    """The regression fit behind :func:`wls_fit`, :func:`ls_fit` and :func:`ridge_fit`.

    ``weighted`` selects W_j = 1 - j/(k+1) over uniform weights 1/k; a
    ``penalty`` adds penalty/k to the centered sum of squares (ridge).
    """
    if z.k < 2:
        raise KTooSmallError(f"regression needs k >= 2, got k={z.k}")
    rho = _check_rho(rho)
    shrink = 0.0
    if penalty is not None:
        penalty = float(penalty)
        if not penalty >= 0.0:
            raise NegativePenaltyError(f"penalty={penalty} must be >= 0")
        # dividing the penalty by k matches the centered form in ridge_fit
        shrink = penalty / z.k
    w = weights(z.k).normalized if weighted else np.full(z.k, 1.0 / z.k)
    c = covariates(z.k, rho).c
    gamma_hat, b_hat, fitted = _core_fit(z.z, c, w, shrink)
    return RegressionFit(
        gamma_hat=gamma_hat,
        b_hat=b_hat,
        rho_used=rho,
        k=z.k,
        fitted_means=fitted,
        residuals=z.z - fitted,
        penalty=penalty,
    )


def hill(z: LogSpacings) -> float:
    """Hill estimator: the sample mean of the spacings."""
    return float(np.mean(z.z))


def wls_fit(z: LogSpacings, rho: float) -> RegressionFit:
    """Weighted least squares fit with weights W_j = 1 - j/(k+1).

    Args:
        z: spacings with k >= 2.
        rho: finite negative second-order parameter fixing the covariates.

    Returns:
        RegressionFit; ``gamma_hat`` is the reduced-bias tail-index estimate.

    Raises:
        KTooSmallError: k < 2.
        InvalidRhoError: rho not finite negative.
    """
    return _fit(z, rho, weighted=True)


def ls_fit(z: LogSpacings, rho: float) -> RegressionFit:
    """Plain least squares fit (uniform weights 1/k). Same contract as wls_fit."""
    return _fit(z, rho, weighted=False)


def ridge_fit(z: LogSpacings, rho: float, penalty: float) -> RegressionFit:
    """Ridge-regularized least squares fit.

    The slope solves the centered normal equation with ``penalty`` added to
    the centered sum of squares:

        b_hat = sum (C_j - Cbar)(Z_j - Zbar) / (sum (C_j - Cbar)^2 + penalty)

    and gamma_hat = Zbar - b_hat * Cbar. penalty=0 reproduces ls_fit exactly,
    penalty -> infinity sends b_hat to 0 and gamma_hat to the Hill estimate.

    Raises:
        KTooSmallError: k < 2.
        InvalidRhoError: rho not finite negative.
        NegativePenaltyError: penalty < 0.
    """
    return _fit(z, rho, weighted=False, penalty=penalty)


def select_ridge_penalty(z: LogSpacings, rho: float) -> RegressionFit:
    """Ridge fit with the penalty chosen from ``RIDGE_PENALTY_FACTORS * k``.

    The candidate with the smallest |gamma_hat| wins; ties go to the smallest
    penalty. This is the ranking by the AMSE proxy gamma_hat^2 *
    amse(1, k, rho), since amse(1, k, rho) is one positive factor shared by
    every candidate. Errors as :func:`ridge_fit`.
    """
    best: RegressionFit | None = None
    best_score = np.inf
    for factor in RIDGE_PENALTY_FACTORS:
        fit = ridge_fit(z, rho, factor * z.k)
        score = fit.gamma_hat**2
        if score < best_score:
            best = fit
            best_score = score
    assert best is not None
    return best


def bchill(z: LogSpacings, rho: float, b_hat: float, n: int) -> float:
    """Bias-corrected Hill estimate.

    Multiplies the Hill estimate by 1 - (b_hat / (1 - rho)) * (n/k)^rho,
    where b_hat is a slope estimate at the same k (here typically from
    wls_fit) and n is the full sample size.

    Raises:
        InvalidRhoError: rho not finite negative.
        KOutOfRangeError: n < k + 1.
    """
    rho = _check_rho(rho)
    n = int(n)
    if n < z.k + 1:
        raise KOutOfRangeError(f"n={n} must be at least k+1={z.k + 1}")
    correction = 1.0 - (float(b_hat) / (1.0 - rho)) * (n / z.k) ** rho
    return hill(z) * correction


def wls_gamma_grid(z_all: np.ndarray, k_values, rhos) -> np.ndarray:
    """WLS tail-index estimates for every (rho, k) pair, shape (len(rhos), len(k_values)).

    ``z_all`` is the full spacings array from :func:`all_log_spacings`;
    prefixes of it are refit for each k. This is the hot path behind the
    min-variance rho selector, so weights and spacing prefixes are reused
    across the rho candidates.
    """
    out = np.empty((len(rhos), len(k_values)))
    for i, k in enumerate(k_values):
        k = int(k)
        w = weights(k).normalized
        zk = z_all[:k]
        for j, rho in enumerate(rhos):
            c = covariates(k, rho).c
            gamma_hat, _, _ = _core_fit(zk, c, w, 0.0)
            out[j, i] = gamma_hat
    return out


def path_estimates(z_all: np.ndarray, n: int | None, estimator_id: str, rho,
                   k_values) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimates of one estimator at every k in the ascending ``k_values``.

    This is the one place that maps an estimator id to a computation. The
    estimate at k uses the first k entries of ``z_all`` (the spacings from
    :func:`all_log_spacings`, or any array of at least max(k_values)
    spacings). HILL takes cumulative means and ignores ``rho``; WLS runs the
    :func:`wls_gamma_grid` engine that min-variance rho selection also uses;
    LS, RR and BCHILL fit each k separately. ``n`` is the size of the
    originating sample, read only by BCHILL's (n/k)^rho factor.

    Returns:
        (estimates, penalties): ``estimates`` aligned with ``k_values``;
        ``penalties`` holds the chosen ridge penalties for RR, else None.

    Raises:
        ValueError: unknown estimator_id, or BCHILL with n None.
        KTooSmallError: a regression estimator with k_values[0] < 2.
        InvalidRhoError: rho not finite negative (all but HILL).
        KOutOfRangeError: BCHILL with n < k + 1.
    """
    if estimator_id not in ESTIMATOR_IDS:
        raise ValueError(
            f"unknown estimator {estimator_id!r}; expected one of {ESTIMATOR_IDS}"
        )
    k_values = np.asarray(k_values)
    if estimator_id == "HILL":
        return np.cumsum(z_all)[k_values - 1] / k_values, None
    if k_values[0] < 2:
        raise KTooSmallError(f"regression needs k >= 2, got k={k_values[0]}")
    if estimator_id == "WLS":
        return wls_gamma_grid(z_all, k_values, (rho,))[0], None
    if estimator_id == "BCHILL" and n is None:
        raise ValueError("BCHILL requires the sample size n for its (n/k)^rho factor")
    estimates = np.empty(len(k_values))
    penalties = np.empty(len(k_values)) if estimator_id == "RR" else None
    for i, k in enumerate(k_values):
        z = LogSpacings(z=z_all[:k], k=int(k), n=n)
        if estimator_id == "LS":
            estimates[i] = ls_fit(z, rho).gamma_hat
        elif estimator_id == "RR":
            fit = select_ridge_penalty(z, rho)
            estimates[i] = fit.gamma_hat
            penalties[i] = fit.penalty
        else:  # BCHILL: slope estimated by WLS at the same k
            estimates[i] = bchill(z, rho, wls_fit(z, rho).b_hat, n)
    return estimates, penalties


def evi_path(
    tail: OrderedTail,
    estimator_id: str,
    rho_method,
    k_min: int,
    k_max: int,
) -> EviPath:
    """Estimates of one estimator for every k in [k_min, k_max].

    The second-order parameter is resolved once from the sample (all
    resolution methods depend only on the sample, not on the current k) and
    reused along the path. HILL ignores rho entirely.

    Args:
        tail: validated descending sample.
        estimator_id: one of ``ESTIMATOR_IDS``.
        rho_method: a ``RhoMethod`` describing how to resolve rho.
        k_min, k_max: inclusive path range, 2 <= k_min <= k_max <= n - 1.

    Raises:
        ValueError: unknown estimator_id.
        KOutOfRangeError: bad path range.
        Errors from rho resolution propagate unchanged.
    """
    from .second_order import resolve_rho

    n = tail.n
    k_min, k_max = int(k_min), int(k_max)
    if not 2 <= k_min <= k_max <= n - 1:
        raise KOutOfRangeError(
            f"need 2 <= k_min <= k_max <= n-1, got k_min={k_min}, "
            f"k_max={k_max}, n={n}"
        )
    k_values = np.arange(k_min, k_max + 1)
    rho = np.nan if estimator_id == "HILL" else resolve_rho(tail, rho_method)
    estimates, penalties = path_estimates(
        all_log_spacings(tail), n, estimator_id, rho, k_values
    )
    return EviPath(
        estimator_id=estimator_id,
        k_values=k_values,
        estimates=estimates,
        rho_values=np.full(len(k_values), rho),
        rho_method_id=rho_method.method_id,
        n=n,
        penalties=penalties,
    )


def optimal_k(mse_by_k) -> tuple[int, float]:
    """Smallest k attaining the minimal MSE.

    Args:
        mse_by_k: iterable of (k, mse) pairs, mse >= 0.

    Returns:
        (k0, mse at k0); ties broken toward the smallest k.

    Raises:
        EmptyInputError: no pairs given.
    """
    best_k: int | None = None
    best_mse = np.inf
    for k, mse in mse_by_k:
        k = int(k)
        mse = float(mse)
        if mse < best_mse or (mse == best_mse and (best_k is None or k < best_k)):
            best_k, best_mse = k, mse
    if best_k is None:
        raise EmptyInputError("no (k, mse) pairs supplied")
    return best_k, best_mse
