"""Resolution of the second-order parameter rho.

The covariates C_j = (j/(k+1))^(-rho) need a value of rho before any
regression fit can run. Three ways to get one:

    fixed         the caller supplies a constant,
    moment        the moment-ratio estimator of Fraga Alves, Gomes and
                  de Haan (2003) on the top k1 = floor(n^0.995) excesses,
    min_variance  pick, from a small grid of candidates, the rho whose WLS
                  estimate path is flattest (smallest variance over a wide
                  k window); ties go to the most negative candidate.

All three depend on the sample only, never on the k later used for the fit,
so a resolved value can be reused along a whole estimate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateTailError, EmptyOrTinyError, KOutOfRangeError
from .estimators import _path_fit, _prefix_sums, _row, _stack
from .spacings import OrderedTail, check_rho, raise_on_overflow

#: Candidate grid for min-variance selection.
DEFAULT_RHO_GRID = (-0.25, -0.5, -0.75, -1.0, -1.5, -2.0, -3.0)

#: The moment-type estimate is clamped into this interval.
MOMENT_RHO_RANGE = (-8.0, -0.05)


@dataclass(frozen=True)
class RhoMethod:
    """How to obtain rho: kind 'fixed', 'moment' or 'minvar'.

    Build instances through the classmethods; the extra fields only matter
    for their respective kinds (fixed_value for 'fixed', tau for 'moment',
    grid for 'minvar').
    """

    kind: str
    fixed_value: float | None = None
    tau: float = 0.0
    grid: tuple[float, ...] = DEFAULT_RHO_GRID

    def __post_init__(self):
        if self.kind not in ("fixed", "moment", "minvar"):
            raise ValueError(f"unknown rho method kind {self.kind!r}")
        if self.kind == "fixed":
            check_rho(self.fixed_value)
        if self.kind == "minvar":
            if len(self.grid) == 0:
                raise EmptyOrTinyError("rho candidate grid is empty")
            for g in self.grid:
                check_rho(g)

    @classmethod
    def fixed(cls, value: float) -> "RhoMethod":
        return cls(kind="fixed", fixed_value=float(value))

    @classmethod
    def moment(cls, tau: float = 0.0) -> "RhoMethod":
        return cls(kind="moment", tau=float(tau))

    @classmethod
    def min_variance(cls, grid=DEFAULT_RHO_GRID) -> "RhoMethod":
        return cls(kind="minvar", grid=tuple(float(g) for g in grid))

    @property
    def method_id(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.fixed_value:g}"
        if self.kind == "moment":
            return "moment" if self.tau == 0.0 else f"moment:tau={self.tau:g}"
        return "minvar"


def resolve_rho(tail: OrderedTail, method: RhoMethod) -> float:
    """Resolve rho for a sample.

    Raises:
        KOutOfRangeError: the sample is too small for the min-variance window.
        DegenerateTailError: a tail with no variation (moment method), or
            one on which every min-variance candidate path is constant.
    """
    if method.kind == "fixed":
        return float(method.fixed_value)
    if method.kind == "moment":
        return _moment_rho(tail, method.tau)
    return _min_variance_rho(tail, method.grid)


def _moment_rho(tail: OrderedTail, tau: float) -> float:
    """Moment-ratio estimate of rho from the top floor(n^0.995) excesses.

    With M^(i) the i-th empirical moment of log(X_{n-j+1,n} / X_{n-k1,n}),
    the statistic

        T = (M1^tau - (M2/2)^(tau/2)) / ((M2/2)^(tau/2) - (M3/6)^(tau/3))

    (with logs replacing powers at tau = 0) converges to (3(T-1)/(T-3))
    -related limits, giving rho_hat = -|3(T-1)/(T-3)|, clamped into
    MOMENT_RHO_RANGE.
    """
    n = tail.n
    k1 = int(math.floor(n**0.995))
    k1 = min(max(k1, 1), n - 1)
    logs = np.log(tail.values[:k1]) - np.log(tail.values[k1])
    if not logs[0] > 0.0:
        raise DegenerateTailError(
            f"top {k1 + 1} order statistics are all equal"
        )
    m1 = float(np.mean(logs))
    m2 = float(np.mean(logs**2))
    m3 = float(np.mean(logs**3))
    if tau == 0.0:
        num = math.log(m1) - 0.5 * math.log(m2 / 2.0)
        den = 0.5 * math.log(m2 / 2.0) - math.log(m3 / 6.0) / 3.0
    else:
        num = m1**tau - (m2 / 2.0) ** (tau / 2.0)
        den = (m2 / 2.0) ** (tau / 2.0) - (m3 / 6.0) ** (tau / 3.0)
    if den == 0.0:
        raise DegenerateTailError("moment ratio is degenerate (zero denominator)")
    t_stat = num / den
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = 3.0 * (t_stat - 1.0) / (t_stat - 3.0)
    if np.isnan(raw):
        raise DegenerateTailError(f"moment ratio T={t_stat} gives no rho")
    lo, hi = MOMENT_RHO_RANGE
    return float(np.clip(-abs(raw), lo, hi))


@lru_cache(maxsize=1)
def _window(grid: tuple, n: int):
    """(float grid array, WLS design of its candidates over n's k window), built once.

    The window is k in [max(2, ceil(n/10)), floor(0.9*(n-1))]. Only the last
    (grid, n) is kept, which is all a study or a CLI call uses. Its rows
    stay out of the engine's row cache, so the design is held once.
    """
    lo = max(2, math.ceil(n / 10))
    hi = math.floor(0.9 * (n - 1))
    if hi < lo:
        raise KOutOfRangeError(
            f"n={n} leaves no k window [{lo}, {hi}] for min-variance selection"
        )
    rhos, window = tuple(float(g) for g in grid), np.arange(lo, hi + 1)
    return np.array(rhos), _stack([_row(rho, window, True) for rho in rhos])


def _path_variances(z_all: np.ndarray, design) -> np.ndarray:
    """Variance of each design row's WLS path over the design's k values: one engine run.

    Computed with the two reductions of ``np.var`` without its wrapper, so
    the bits are ``np.var``'s. NonFiniteError where a path or its variance
    overflows.
    """
    with raise_on_overflow("a min-variance path"):
        z_sums = _prefix_sums(z_all, design.v.shape[-1], False)
        paths = _path_fit(z_all, z_sums, design, index=np.s_[:])[0]
        m = paths.shape[-1]
        dev = paths - np.add.reduce(paths, axis=-1, keepdims=True) / m
        return np.add.reduce(dev * dev, axis=-1) / m


def _min_variance_rho(tail: OrderedTail, grid) -> float:
    """Grid candidate whose WLS path has the smallest variance.

    The path runs over k in [max(2, ceil(n/10)), floor(0.9*(n-1))], on a
    design cached per (grid, n), so a resolution is one engine run. Ties on
    the variance go to the most negative candidate, so the result does not
    depend on grid order. A tail on which every candidate path is constant
    (all spacings zero, say) has nothing to choose by and raises
    DegenerateTailError, as the moment method does.
    """
    rhos, design = _window(tuple(grid), tail.n)
    variances = _path_variances(tail.z_all, design)
    if (variances == 0.0).all():
        lo, hi = design.i[[0, -1]] + 1
        raise DegenerateTailError(
            f"every candidate rho gives a constant WLS path over k in [{lo}, {hi}]"
        )
    # smallest variance first, ties to the most negative rho
    return float(rhos[np.lexsort((rhos, variances))[0]])
