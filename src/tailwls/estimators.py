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
Matthys 1999); the table returns the slope b_hat of LS and WLS beside their
paths, and a fit at one k is the table at ``[k]``. The covariate sums of a set
of rhos are one design, built in one pass by ``_build_design`` and cached
whole.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EmptyOrTinyError, InvalidRhoError, KOutOfRangeError
from .spacings import check_int, check_k_values, check_rho, raise_on_overflow

__all__ = ["ESTIMATOR_IDS", "path_estimates", "optimal_k"]

#: Canonical estimator identifiers, in reporting order.
ESTIMATOR_IDS = ("HILL", "BCHILL", "LS", "RR", "WLS")

#: The estimators fitted without rho; every other one regresses on the covariates.
_RHO_FREE = frozenset({"HILL"})

#: The regression estimators computed by the unweighted and by the weighted engine run.
_UNWEIGHTED, _WEIGHTED = frozenset({"LS", "RR"}), frozenset({"WLS", "BCHILL"})

#: Ridge penalty candidates are these factors times k.
RIDGE_PENALTY_FACTORS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def _prefix_sums(f: np.ndarray, k_max: int, weighted: bool) -> np.ndarray:
    """sum_{j<=k} W_j f_j for k = 1..k_max, W_j = 1 or, if ``weighted``, k+1-j.

    sum_{j<=k} (k+1-j) f_j = cumsum(cumsum(f))_k, so either takes O(k_max).
    The sums run along the last axis, so each row of a block is summed in
    sequence, as its own 1-D call would be. ``np.add.accumulate`` is what
    ``cumsum`` computes, without its wrapper's cost on short rows; the second
    pass runs in place, which gives the same bits without a second array.
    """
    p = np.add.accumulate(f[..., :k_max], axis=-1)
    return np.add.accumulate(p, axis=-1, out=p) if weighted else p


def _sums_at(t: np.ndarray, i: np.ndarray, out=None) -> np.ndarray:
    """The running sums of ``t`` along its last axis at the 0-based indices ``i``, on a last axis.

    At one index on two rows or more, each row's sum of its first k entries
    is one in-order reduction over a C-contiguous (k, rows...) copy, with
    ``accumulate``'s bits: numpy adds along a slow axis one element at a
    time and sums pairwise only along the fast one (``numpy.sum``, Notes),
    and -0.0 as the start keeps a sum of -0.0 (0.0 would make it +0.0). One
    row would be summed pairwise, so it, like several indices, takes
    ``accumulate`` into ``out`` (``t`` itself where the caller owns it) and
    then the entries at ``i``.
    """
    if len(i) == 1 and t.size > t.shape[-1]:
        return np.add.reduce(t[..., :i[0] + 1].T.copy(), axis=0, initial=-0.0).T[..., None]
    return np.add.accumulate(t, axis=-1, out=out).take(i, axis=-1)


# The smallest positive normal float; a smaller S2 makes the slope inf or NaN.
_TINY = np.finfo(np.float64).tiny


class _Design(NamedTuple):
    """The covariate design of one or more rhos at the k values it serves, read-only.

    Row r is for ``rhos[r]``: v_j = j^(-rho) - 1 at j = 1..k_max, and at each
    k, m1 = sum w_j v_j, scale = (k+1)^rho, S1 and S2. ``i`` holds k - 1 and
    ``totals`` sum_{j<=k} W_j, shared by every row. ``rejected`` pairs r with
    its InvalidRhoError message; a rejected row is NaN.
    """

    weighted: bool
    i: np.ndarray
    totals: np.ndarray
    v: np.ndarray
    m1: np.ndarray
    scale: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    rejected: tuple


def _design(rhos: tuple, k_values: np.ndarray, weighted: bool) -> _Design:
    """The :class:`_Design` of the float ``rhos`` (one rho is a grid of one) at ``k_values``."""
    return _build_design(rhos, k_values.astype(np.intp, copy=False).tobytes(), weighted)


def _rejection(rho: float, over: bool, k_max: int) -> str:
    """The InvalidRhoError message of a design row that ``rho`` cannot fill."""
    try:
        check_rho(rho)
    except InvalidRhoError as exc:
        return str(exc)
    return f"rho={rho} {'over' if over else 'under'}flows the covariate sums up to k={k_max}"


# The 16 most recently used designs, whole: a min-variance study's per-row
# table calls cycle through a few sets of picks.
@lru_cache(maxsize=16)
def _build_design(rhos: tuple, k_bytes: bytes, weighted: bool) -> _Design:
    """The design of ``rhos`` at the k values whose ``np.intp`` bytes are ``k_bytes``.

    Every row is built at once on a (rho, k) block. C_j = (1 + v_j) * scale_k,
    and working with v keeps S2 = scale^2 * (sum w_j v_j^2 - m1^2) accurate as
    rho -> 0. A row is NaN, and rejected, unless its rho is finite negative
    with finite v_j^2 and S2 a positive normal float at every k in 2..k_max
    (S2 underflows for |rho| below about 1e-154). Each row equals the design
    of its rho alone bit for bit: only the power runs once per rho, as numpy's
    power on a block can miss the scalar-exponent fast paths (a reciprocal at
    rho = -1) by a last bit.
    """
    i = np.frombuffer(k_bytes, np.intp) - 1
    k_max = int(i[-1]) + 1
    k = np.arange(1, k_max + 1)
    totals = _prefix_sums(np.ones(k_max), k_max, weighted)
    rho = np.array(rhos)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.expm1(-rho[:, None] * np.log(k))
        scale = np.array([(k + 1.0) ** r for r in rhos])
        m1 = _prefix_sums(v, k_max, weighted) / totals
        # scaling twice keeps every intermediate a normal float
        s2 = (_prefix_sums(v * v, k_max, weighted) / totals - m1 * m1) * scale * scale
    # row masks; S2 is 0 at k = 1 for every rho
    over = ~np.isfinite(s2).all(axis=-1)
    bad = over | ~(s2[:, 1:] >= _TINY).all(axis=-1) | ~((-np.inf < rho) & (rho < 0.0))
    rejected = tuple((r, _rejection(rhos[r], over[r], k_max)) for r in bad.nonzero()[0].tolist())
    for a in (v, m1, scale, s2):
        a[bad] = np.nan
    # take keeps the gathered columns C-contiguous, as the engine reads them
    m1, scale, s2 = (a.take(i, axis=-1) for a in (m1, scale, s2))
    design = _Design(weighted, i, totals.take(i), v, m1, scale, (1.0 + m1) * scale, s2, rejected)
    for a in design[1:-1]:
        a.flags.writeable = False
    return design


def _path_fit(z_all: np.ndarray, z_sums: np.ndarray, design: _Design, shrink=None, index=0):
    """The path engine: (gamma_hat, b_hat) at every k of ``design``.

    The fit at k uses the first k entries of ``z_all`` along its last axis,
    with W_j = 1 - j/(k+1) if the design is weighted, else uniform weights;
    ``shrink`` is penalty/k (ridge), None for a plain fit. ``z_sums`` is the
    running sum of ``z_all`` up to the design's k_max (``_prefix_sums(z_all,
    k_max, False)``), which a caller computes once per sample and shares.
    ``z_all`` may have leading axes (a block of rows, one per sample).
    ``index`` maps the design's rows onto those axes: 0 for one rho,
    ``np.s_[:]`` for a grid (a rho axis in front; ``np.s_[:, None]`` on a
    block), or an int array, a design row per block row; ``shrink`` may add
    axes in front of all. Every row equals its 1-D one-rho call bit for bit.
    A rejected rho raises, unless ``index`` is an array. The passes read only
    at the design's k values, the weighted second pass of Z and the last
    pass of v*Z, go through ``_sums_at``: at one k on two rows or more (a
    model or one-k study's chunk) each is one in-order reduction, which
    keeps the bits of the full running sum at k and skips its other entries.
    """
    weighted, i, totals, v, m1, scale, s1, s2, rejected = design
    if rejected and not isinstance(index, np.ndarray):
        raise InvalidRhoError(rejected[0][1])
    k_max = v.shape[-1]
    v, m1, scale, s1, s2 = (a[index] for a in (v, m1, scale, s1, s2))
    # zbar, the weighted mean of Z: the second pass of a weighted prefix sum
    zbar = _sums_at(z_sums, i) if weighted else z_sums.take(i, axis=-1)
    zbar /= totals
    # summed in place, so a run's slope sums take one block-sized array (two at
    # one k, with the reduction's copy): on a 128 KiB model chunk each more
    # live one cost page faults on every call
    svz = np.multiply(v, z_all[..., :k_max])
    if weighted:
        np.add.accumulate(svz, axis=-1, out=svz)
    b_hat = _sums_at(svz, i, out=svz)
    b_hat /= totals
    # sum w_j (C_j - S1) Z_j = scale_k * (sum w_j v_j Z_j - m1 * zbar), formed
    # in the array the slope sums own; a shrink adds its axes in a new one
    b_hat -= m1 * zbar
    b_hat *= scale
    if shrink is None:
        b_hat /= s2
    else:
        b_hat = b_hat / (s2 + shrink)
    gamma_hat = b_hat * s1
    return np.subtract(zbar, gamma_hat, out=gamma_hat), b_hat


def _bchill(hill_values, b_hat, rhos: tuple, index, n: int, k_values: np.ndarray):
    """Hill times 1 - (b_hat / (1 - rho)) * (n/k)^rho at every k, with ``index`` as the engine's."""
    if n is None or n < k_values[-1] + 1:
        raise KOutOfRangeError(f"BCHILL needs n >= k+1={k_values[-1] + 1}, got n={n}")
    with np.errstate(over="ignore"):  # only a rejected rho > 0, whose row is NaN, overflows
        decay = [(n / k_values) ** r for r in rhos]
    rho, decay = (np.array(a)[index] for a in (rhos, decay))
    return hill_values * (1.0 - (b_hat / (1.0 - rho[..., None])) * decay)


def _ridge_choice(gammas: np.ndarray, k_values: np.ndarray):
    """RR's (gamma_hat, penalty) at every k, from the gammas of a full penalty block.

    The chosen row is the first argmin of |gamma_hat| over axis 0, so ties go
    to the smallest penalty.
    """
    best = np.argmin(np.abs(gammas), axis=0)[None]
    gamma_hat = np.take_along_axis(gammas, best, axis=0)[0]
    return gamma_hat, np.take(RIDGE_PENALTY_FACTORS, best[0]) * k_values


def check_estimators(est_ids) -> tuple[str, ...]:
    """``est_ids`` as a tuple; EmptyOrTinyError if empty, ValueError on a bad or repeated id.

    TypeError for a string, which would otherwise be read one letter at a time.
    """
    if isinstance(est_ids, str):
        raise TypeError(f"estimators={est_ids!r} is a string, not a tuple of ids "
                        f"such as ({est_ids!r},)")
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


class Table(NamedTuple):
    """What :func:`path_estimates` returns, read by field name.

    ``paths`` maps each computed id to its estimates, aligned with
    ``k_values`` on the last axis. ``slopes`` maps each computed id of an
    unshrunk engine run, LS and WLS, to its slope b_hat at every k.
    ``penalties`` holds RR's chosen ridge penalties if RR is computed, else
    None.
    """

    paths: dict
    slopes: dict
    penalties: np.ndarray | None


def path_estimates(z_all: np.ndarray, n: int | None, est_ids, rho, k_values) -> Table:
    """Paths of the estimators ``est_ids`` at every k in the ascending ``k_values``.

    This is the one place that maps estimator ids to computations. The
    estimate at k uses the first k entries of ``z_all`` (a tail's
    ``OrderedTail.z_all``, or any array of at least max(k_values) spacings).
    ``z_all`` may also be a block with leading axes, one row of spacings per
    sample along the last axis: every path, slope and penalty array
    then has the same leading axes, and each row equals the 1-D call on
    that row bit for bit (cumulative sums run along each row in order, and
    every other step is elementwise). A whole set costs at most one
    unweighted run of the path engine (LS is the zero-penalty row of RR's
    penalty block) and one weighted run (WLS, and the slope BCHILL corrects
    with), which share one running sum of Z with HILL (and the path BCHILL
    corrects).
    ``rho`` None means unresolved: the ids that need one are left out. A 2-D
    block may take one rho per row, a 1-D array with one entry per row, NaN
    where unresolved: the engine runs once on the design of the distinct
    rhos, and each row equals its own one-rho call, or is NaN where that
    call leaves an id out or fails on its rho (HILL too); slopes and RR's
    penalties are NaN on the rows where their paths are. ``n`` is the size
    of the originating sample, read only by BCHILL's (n/k)^rho factor.

    Returns:
        :class:`Table` of the paths, the LS and WLS slopes, and RR's penalties.

    Raises:
        EmptyOrTinyError / ValueError: bad ``est_ids``, as check_estimators, or no k.
        TypeError: ``est_ids`` a string, not a tuple of ids.
        KOutOfRangeError: k_values not strictly ascending integers, k_values[0]
            < 1 or k_values[-1] > len(z_all), or BCHILL with n None or n < k + 1.
        KTooSmallError: a regression estimator with k_values[0] < 2.
        InvalidRhoError: one rho, not finite negative or over- or underflowing the
            sums, or a per-row rho that is not one entry per row of a 2-D block.
        NonFiniteError: a path that overflows (spacings near the float range).
    """
    ids = check_estimators(est_ids)
    per_row = getattr(rho, "ndim", 0) > 0  # np.ndim would cost a conversion per call
    rhos, index = () if rho is None or per_row else (float(rho),), 0
    if per_row and not (rho.ndim == 1 and z_all.ndim == 2 and len(rho) == len(z_all)):
        raise InvalidRhoError(f"rho of shape {rho.shape} is not one rho per row of spacings "
                              f"of shape {z_all.shape}")
    if per_row:  # np.unique keeps one NaN, last
        distinct, index = np.unique(rho, return_inverse=True)
        rhos = tuple(distinct[~np.isnan(distinct)].tolist())
        unresolved = index == len(rhos)
        index[unresolved] = 0
    if not rhos:
        ids = tuple(_RHO_FREE.intersection(ids))
    k_values = check_k_values(k_values, 2 if needs_rho(ids) else 1, z_all.shape[-1])
    paths, slopes, penalties, rejected = {}, {}, None, {}
    with raise_on_overflow("a path"):
        z_sums = _prefix_sums(z_all, k_values[-1], False)
        if _UNWEIGHTED.intersection(ids):  # LS is row 0, the zero penalty, of RR's block
            factors = RIDGE_PENALTY_FACTORS if "RR" in ids else RIDGE_PENALTY_FACTORS[:1]
            shrink = np.reshape(factors, (-1,) + (1,) * z_all.ndim)
            design = _design(rhos, k_values, False)
            rejected.update(design.rejected)
            gammas, b_hat = _path_fit(z_all, z_sums, design, shrink, index)
            paths["LS"], slopes["LS"] = gammas[0], b_hat[0]
            if "RR" in ids:
                paths["RR"], penalties = _ridge_choice(gammas, k_values)
        if _WEIGHTED.intersection(ids):
            design = _design(rhos, k_values, True)
            rejected.update(design.rejected)
            paths["WLS"], slopes["WLS"] = _path_fit(z_all, z_sums, design, index=index)
        if "HILL" in ids or "BCHILL" in ids:
            paths["HILL"] = z_sums.take(k_values - 1, axis=-1) / k_values
        if "BCHILL" in ids:
            paths["BCHILL"] = _bchill(paths["HILL"], slopes["WLS"], rhos, index, n, k_values)
    paths, slopes = {e: paths[e] for e in ids}, {e: slopes[e] for e in ids if e in slopes}
    if per_row:  # blank what each row's own call would not give
        failed = np.isin(index, list(rejected)) & ~unresolved if rejected else False
        for e, a in [*paths.items(), *slopes.items(), ("RR", penalties)]:
            if a is not None:
                a[failed | unresolved & (e not in _RHO_FREE)] = np.nan
    return Table(paths, slopes, penalties)


def optimal_k(mse_by_k) -> tuple[int, float]:
    """Smallest k attaining the minimal MSE.

    Args:
        mse_by_k: iterable of (k, mse) pairs, mse >= 0.

    Returns:
        (k0, mse at k0); ties broken toward the smallest k.

    Raises:
        EmptyOrTinyError: no pair has a finite MSE (or none is given).
        KOutOfRangeError: a k that is not an integer.
    """
    best_k: int | None = None
    best_mse = np.inf
    for k, mse in mse_by_k:
        k, mse = check_int("k", k), float(mse)
        if np.isfinite(mse) and (mse < best_mse or mse == best_mse and k < best_k):
            best_k, best_mse = k, mse
    if best_k is None:
        raise EmptyOrTinyError("no finite MSE among the (k, mse) pairs")
    return best_k, best_mse
