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

:func:`path_estimates` is the one table from estimator ids to computation;
every path and every simulation cell goes through it, one call per set.

All regression fits share one algebraic core: with unit-sum weights w_j,

    b_hat     = sum w_j (C_j - S1) Z_j / (S2 + shrink)
    gamma_hat = sum w_j Z_j - b_hat * S1

where S1 = sum w_j C_j, S2 = sum w_j C_j^2 - S1^2, and ``shrink`` is zero for
plain fits and penalty/k for ridge. One path engine, ``_path_fit``, fits
every k of a path at once from prefix sums (Beirlant, Dierckx, Goegebeur and
Matthys 1999). The one-k fits (``wls_fit``, ``ls_fit``, ``ridge_fit``) are the
engine at one k; they exist for the slope b_hat, which no path returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyOrTinyError, InvalidRhoError, KOutOfRangeError, NonPositiveError
from .spacings import check_k_values, check_rho, raise_on_overflow

#: Canonical estimator identifiers, in reporting order.
ESTIMATOR_IDS = ("HILL", "BCHILL", "LS", "RR", "WLS")

#: The estimators fitted without rho; every other one regresses on the covariates.
_RHO_FREE = frozenset({"HILL"})

#: The regression estimators computed by the unweighted and by the weighted engine run.
_UNWEIGHTED, _WEIGHTED = frozenset({"LS", "RR"}), frozenset({"WLS", "BCHILL"})

#: Ridge penalty candidates are these factors times k.
RIDGE_PENALTY_FACTORS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class RegressionFit:
    """Result of one linear fit on k spacings; ``penalty`` is set only by ridge fits."""

    gamma_hat: float
    b_hat: float
    rho_used: float
    k: int
    penalty: float | None = None


def _prefix_sums(f: np.ndarray, k_max: int, weighted: bool) -> np.ndarray:
    """sum_{j<=k} W_j f_j for k = 1..k_max, W_j = 1 or, if ``weighted``, k+1-j.

    sum_{j<=k} (k+1-j) f_j = cumsum(cumsum(f))_k, so either takes O(k_max).
    The sums run along the last axis, so each row of a block is summed in
    sequence, as its own 1-D call would be. ``np.add.accumulate`` is what
    ``cumsum`` computes, without its wrapper's cost on short rows.
    """
    p = np.add.accumulate(f[..., :k_max], axis=-1)
    return np.add.accumulate(p, axis=-1) if weighted else p


# The smallest positive normal float; a smaller S2 makes the slope inf or NaN.
_TINY = np.finfo(np.float64).tiny

# Cached designs, least recently used first, with at most 16 rho rows in all
# (or one larger grid): a min-variance sampling study needs 7 + 7.
_designs: dict = {}


def _design(rhos: tuple, k_max: int, weighted: bool):
    """Read-only (v, scale, totals, m1, S1, S2) at k = 1..k_max, row r for ``rhos[r]``, and rejects.

    ``rhos`` is a tuple of float rhos; one rho is a grid of one. C_j =
    (1 + v_j) * scale_k with v_j = j^(-rho) - 1 and scale_k = (k+1)^rho;
    totals_k = sum_{j<=k} W_j (exact, 1-D) and m1 = sum w_j v_j. Working with
    v keeps S2 = scale^2 * (sum w_j v_j^2 - m1^2) accurate as rho -> 0. Each
    row is computed on its own, so it does not depend on its grid. A row is
    NaN, and ``rejects`` pairs r with its InvalidRhoError message, unless
    rho is finite negative with finite v_j^2 and S2 a positive normal float
    at every k in 2..k_max (S2 underflows for |rho| below about 1e-154).
    """
    key = (rhos, k_max, weighted)
    design = _designs.pop(key, None)
    if design is None:
        k = np.arange(1, k_max + 1)
        totals = _prefix_sums(np.ones(k_max), k_max, weighted)
        rows, rejected = [], []
        for r, rho in enumerate(rhos):
            try:
                rho = check_rho(rho)
                with np.errstate(over="ignore", invalid="ignore"):
                    v, scale = np.expm1(-rho * np.log(k)), (k + 1.0) ** rho
                    m1 = _prefix_sums(v, k_max, weighted) / totals
                    # scaling twice keeps every intermediate a normal float
                    s2 = (_prefix_sums(v * v, k_max, weighted) / totals - m1 * m1) * scale * scale
                if not np.isfinite(s2).all():
                    raise InvalidRhoError(f"rho={rho} overflows the covariate sums up to k={k_max}")
                if not (s2[1:] >= _TINY).all():  # S2 is 0 at k = 1 for every rho
                    raise InvalidRhoError(f"rho={rho} underflows the covariate sums up to k={k_max}")
                rows.append((v, scale, m1, (1.0 + m1) * scale, s2))
            except InvalidRhoError as exc:
                rejected.append((r, str(exc)))
                rows.append((np.full(k_max, np.nan),) * 5)
        v, scale, m1, s1, s2 = (np.stack(a) for a in zip(*rows))
        design = (v, scale, totals, m1, s1, s2, tuple(rejected))
        for a in design[:-1]:
            a.flags.writeable = False
        while _designs and sum(len(r) for r, _, _ in _designs) + len(rhos) > 16:
            del _designs[next(iter(_designs))]
    _designs[key] = design
    return design


def _rejected(rhos: tuple, k_max: int, est_ids) -> dict:
    """r -> message for each ``rhos[r]`` whose design an engine run of ``est_ids`` rejects."""
    rejected = {}
    for weighted, run_ids in ((False, _UNWEIGHTED), (True, _WEIGHTED)):
        if run_ids.intersection(est_ids):
            rejected.update(_design(rhos, k_max, weighted)[6])
    return rejected


def _path_fit(z_all: np.ndarray, k_values: np.ndarray, rhos: tuple, weighted: bool,
              shrink=0.0, index=0):
    """The path engine: (gamma_hat, b_hat) at every k of the checked ``k_values``.

    The fit at k uses the first k entries of ``z_all`` along its last axis,
    with W_j = 1 - j/(k+1) if ``weighted``, else uniform weights; ``shrink``
    is penalty/k (ridge). ``z_all`` may have leading axes (a block of rows,
    one per sample). ``index`` maps the rows of the ``rhos`` :func:`_design`
    onto those axes: 0 for one rho, ``np.s_[:]`` for a grid (a rho axis in
    front; ``np.s_[:, None]`` on a block), or an int array, a design row per
    block row; ``shrink`` may add axes in front of all. Every row equals its
    1-D one-rho call bit for bit: zbar, the weighted mean of Z, is summed
    once per sample and shared by every rho. A rejected rho raises, unless
    ``index`` is an array.
    """
    k_max, i = int(k_values[-1]), k_values - 1
    v, scale, totals, m1, s1, s2, rejected = _design(rhos, k_max, weighted)
    if rejected and not isinstance(index, np.ndarray):
        raise InvalidRhoError(rejected[0][1])
    v, totals = v[index], totals[i]
    # take on the last axis costs a 1-D call less than indexing with [..., i]
    m1, scale, s1, s2 = (a.take(i, axis=-1)[index] for a in (m1, scale, s1, s2))
    zbar = _prefix_sums(z_all, k_max, weighted).take(i, axis=-1) / totals
    svz = _prefix_sums(v * z_all[..., :k_max], k_max, weighted).take(i, axis=-1) / totals
    # sum w_j (C_j - S1) Z_j = scale_k * (sum w_j v_j Z_j - m1 * zbar)
    b_hat = (svz - m1 * zbar) * scale / (s2 + shrink)
    return zbar - b_hat * s1, b_hat


def _bchill(hill_values, b_hat, rhos: tuple, index, n: int, k_values: np.ndarray):
    """Hill times 1 - (b_hat / (1 - rho)) * (n/k)^rho at every k, with ``index`` as the engine's."""
    if n is None or n < k_values[-1] + 1:
        raise KOutOfRangeError(f"BCHILL needs n >= k+1={k_values[-1] + 1}, got n={n}")
    with np.errstate(over="ignore"):  # only a rejected rho > 0, whose row is NaN, overflows
        decay = [(n / k_values) ** r for r in rhos]
    rho, decay = (np.array(a)[index] for a in (rhos, decay))
    return hill_values * (1.0 - (b_hat / (1.0 - rho[..., None])) * decay)


def _fit(z: np.ndarray, rho: float, weighted: bool,
         penalty: float | None = None) -> RegressionFit:
    """The engine at k = len(z), behind :func:`wls_fit`, :func:`ls_fit` and :func:`ridge_fit`.

    ``weighted`` selects W_j = 1 - j/(k+1) over uniform weights 1/k; a
    ``penalty`` adds penalty/k to the centered sum of squares (ridge).
    """
    k = len(z)
    # dividing the penalty by k matches the centered form in ridge_fit
    shrink = 0.0 if penalty is None else penalty / k
    fit = _path_fit(z, check_k_values(k, 2), (check_rho(rho),), weighted, shrink)
    gamma_hat, b_hat = (float(v[0]) for v in fit)
    return RegressionFit(gamma_hat, b_hat, float(rho), k, penalty)


def wls_fit(z: np.ndarray, rho: float) -> RegressionFit:
    """Weighted least squares fit with weights W_j = 1 - j/(k+1).

    Args:
        z: the spacings Z_1..Z_k, k >= 2 (``log_spacings(tail, k)``).
        rho: finite negative second-order parameter fixing the covariates.

    Returns:
        RegressionFit; ``gamma_hat`` is the reduced-bias tail-index estimate.

    Raises:
        KTooSmallError: k < 2.
        InvalidRhoError: rho not finite negative.
    """
    return _fit(z, rho, weighted=True)


def ls_fit(z: np.ndarray, rho: float) -> RegressionFit:
    """Plain least squares fit (uniform weights 1/k). Same contract as wls_fit."""
    return _fit(z, rho, weighted=False)


def ridge_fit(z: np.ndarray, rho: float, penalty: float) -> RegressionFit:
    """Ridge-regularized least squares fit.

    The slope solves the centered normal equation with ``penalty`` added to
    the centered sum of squares:

        b_hat = sum (C_j - Cbar)(Z_j - Zbar) / (sum (C_j - Cbar)^2 + penalty)

    and gamma_hat = Zbar - b_hat * Cbar. penalty=0 reproduces ls_fit exactly,
    penalty -> infinity sends b_hat to 0 and gamma_hat to the Hill estimate.

    Raises:
        KTooSmallError: k < 2.
        InvalidRhoError: rho not finite negative.
        NonPositiveError: penalty < 0.
    """
    penalty = float(penalty)
    if not penalty >= 0.0:
        raise NonPositiveError(f"penalty={penalty} must be >= 0")
    return _fit(z, rho, weighted=False, penalty=penalty)


def _ridge_choice(gammas: np.ndarray, k_values: np.ndarray):
    """RR's (gamma_hat, penalty) at every k, from the gammas of a full penalty block.

    The chosen row is the first argmin of |gamma_hat| over axis 0, so ties go
    to the smallest penalty.
    """
    best = np.argmin(np.abs(gammas), axis=0)[None]
    gamma_hat = np.take_along_axis(gammas, best, axis=0)[0]
    return gamma_hat, np.take(RIDGE_PENALTY_FACTORS, best[0]) * k_values


def wls_gamma_grid(z_all: np.ndarray, k_values, rhos) -> np.ndarray:
    """WLS tail-index estimates for every (rho, k) pair, shape (len(rhos), len(k_values)).

    ``z_all`` is a tail's full spacings array (``OrderedTail.z_all``), and
    ``k_values`` ascend. The whole grid is one run of the path engine with a
    leading rho axis, whose design is cached per (rhos, k_max); row r equals
    the WLS path at ``rhos[r]`` bit for bit. This is the hot path behind the
    min-variance rho selector. Errors as the WLS path, and EmptyOrTinyError
    for an empty grid.
    """
    rhos = tuple(float(rho) for rho in rhos)
    if not rhos:
        raise EmptyOrTinyError("rho candidate grid is empty")
    k_values = check_k_values(k_values, 2, np.shape(z_all)[-1])
    index = (slice(None),) + (None,) * (np.ndim(z_all) - 1)  # the rho axis goes first
    return _path_fit(z_all, k_values, rhos, True, index=index)[0]


def check_estimators(est_ids) -> tuple[str, ...]:
    """``est_ids`` as a tuple; EmptyOrTinyError if empty, ValueError on a bad or repeated id."""
    ids = tuple(est_ids)
    if not ids:
        raise EmptyOrTinyError("no estimators requested")
    for e in ids:
        if e not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {e!r}; expected one of {ESTIMATOR_IDS}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate estimator in {ids}")
    return ids


def needs_rho(est_ids) -> bool:
    """Whether some id in ``est_ids`` is a regression, which needs rho (all but HILL)."""
    return not _RHO_FREE.issuperset(est_ids)


def path_estimates(z_all: np.ndarray, n: int | None, est_ids, rho,
                   k_values) -> tuple[dict, np.ndarray | None]:
    """Paths of the estimators ``est_ids`` at every k in the ascending ``k_values``.

    This is the one place that maps estimator ids to computations. The
    estimate at k uses the first k entries of ``z_all`` (a tail's
    ``OrderedTail.z_all``, or any array of at least max(k_values) spacings).
    ``z_all`` may also be a block with leading axes, one row of spacings per
    sample along the last axis: every path and penalty array
    then has the same leading axes, and each row equals the 1-D call on
    that row bit for bit (cumulative sums run along each row in order, and
    every other step is elementwise). A whole set costs at most one
    unweighted run of the path engine (LS is the zero-penalty row of RR's
    penalty block), one weighted run (WLS, and the slope BCHILL corrects
    with) and one cumulative mean (HILL, and the path BCHILL corrects).
    ``rho`` None means unresolved: the ids that need one are left out. A 2-D
    block may take one rho per row, NaN where unresolved: the engine builds
    each distinct rho's design once, and each row equals its own one-rho
    call, or is NaN where that call leaves an id out or fails on its rho
    (HILL too); RR's penalties are NaN on the rows where RR is. ``n`` is the
    size of the originating sample, read only by BCHILL's (n/k)^rho factor.

    Returns:
        (paths, penalties): ``paths`` maps each computed id to its estimates,
        aligned with ``k_values`` on the last axis; ``penalties`` holds the
        chosen ridge penalties if RR is computed, else None.

    Raises:
        EmptyOrTinyError / ValueError: bad ``est_ids``, as check_estimators, or no k.
        KOutOfRangeError: k_values not strictly ascending integers, k_values[0]
            < 1 or k_values[-1] > len(z_all), or BCHILL with n None or n < k + 1.
        KTooSmallError: a regression estimator with k_values[0] < 2.
        InvalidRhoError: one rho, not finite negative or over- or underflowing the sums.
        NonFiniteError: a path that overflows (spacings near the float range).
    """
    ids = check_estimators(est_ids)
    per_row = getattr(rho, "ndim", 0) > 0  # np.ndim would cost a conversion per call
    rhos, index = () if rho is None or per_row else (float(rho),), 0
    if per_row:  # np.unique keeps one NaN, last
        distinct, index = np.unique(rho, return_inverse=True)
        rhos = tuple(distinct[~np.isnan(distinct)].tolist())
        unresolved = index == len(rhos)
        index[unresolved] = 0
    if not rhos:
        ids = tuple(_RHO_FREE.intersection(ids))
    k_values = check_k_values(k_values, 2 if needs_rho(ids) else 1, z_all.shape[-1])
    paths, penalties = {}, None
    with raise_on_overflow("a path"):
        if _UNWEIGHTED.intersection(ids):  # LS is row 0, the zero penalty, of RR's block
            factors = RIDGE_PENALTY_FACTORS if "RR" in ids else RIDGE_PENALTY_FACTORS[:1]
            shrink = np.reshape(factors, (-1,) + (1,) * z_all.ndim)
            gammas = _path_fit(z_all, k_values, rhos, False, shrink, index)[0]
            paths["LS"] = gammas[0]
            if "RR" in ids:
                paths["RR"], penalties = _ridge_choice(gammas, k_values)
        if _WEIGHTED.intersection(ids):
            paths["WLS"], b_hat = _path_fit(z_all, k_values, rhos, True, index=index)
        if "HILL" in ids or "BCHILL" in ids:
            hill_sums = _prefix_sums(z_all, k_values[-1], False)
            paths["HILL"] = hill_sums.take(k_values - 1, axis=-1) / k_values
        if "BCHILL" in ids:
            paths["BCHILL"] = _bchill(paths["HILL"], b_hat, rhos, index, n, k_values)
    if per_row:  # blank what each row's own call would not give
        failed = np.isin(index, list(_rejected(rhos, int(k_values[-1]), ids))) & ~unresolved
        for e, path in paths.items():
            path[failed | unresolved & (e not in _RHO_FREE)] = np.nan
        if penalties is not None:
            penalties[failed | unresolved] = np.nan
    return {e: paths[e] for e in ids}, penalties


def optimal_k(mse_by_k) -> tuple[int, float]:
    """Smallest k attaining the minimal MSE.

    Args:
        mse_by_k: iterable of (k, mse) pairs, mse >= 0.

    Returns:
        (k0, mse at k0); ties broken toward the smallest k.

    Raises:
        EmptyOrTinyError: no pair has a finite MSE (or none is given).
    """
    best_k: int | None = None
    best_mse = np.inf
    for k, mse in mse_by_k:
        k = int(k)
        mse = float(mse)
        if mse < best_mse or (mse == best_mse and (best_k is None or k < best_k)):
            best_k, best_mse = k, mse
    if best_k is None:
        raise EmptyOrTinyError("no finite MSE among the (k, mse) pairs")
    return best_k, best_mse
