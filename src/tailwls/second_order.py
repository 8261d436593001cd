"""Resolution of the second-order parameter rho.

The covariates C_j = (j/(k+1))^(-rho) need a value of rho before any
regression fit can run. Three ways to get one:

    fixed         the caller supplies a constant,
    moment        the moment-ratio estimator of Fraga Alves, Gomes and
                  de Haan (2003) on the top k1 = floor(n^0.995) excesses,
    min_variance  pick, from the candidates of DEFAULT_RHO_GRID, the rho whose
                  WLS estimate path is flattest (smallest variance over a
                  wide k window); ties go to the most negative candidate.

All three depend on the sample only, never on the k later used for the fit,
so a resolved value can be reused along a whole estimate path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateTailError, KOutOfRangeError, NonFiniteError
from .estimators import _design, _path_fit, _prefix_sums
from .spacings import OrderedTail, check_rho, raise_on_overflow

__all__ = ["RhoMethod", "resolve_rho", "DEFAULT_RHO_GRID", "MOMENT_RHO_RANGE"]

#: Candidate grid for min-variance selection.
DEFAULT_RHO_GRID = (-0.25, -0.5, -0.75, -1.0, -1.5, -2.0, -3.0)

#: The moment-type estimate is clamped into this interval.
MOMENT_RHO_RANGE = (-8.0, -0.05)


@dataclass(frozen=True)
class RhoMethod:
    """How to obtain rho: kind 'fixed', 'moment' or 'minvar'.

    Build instances through the classmethods; the extra fields only matter
    for their respective kinds (fixed_value for 'fixed', tau for 'moment').
    'minvar' always searches DEFAULT_RHO_GRID. ``method_id`` writes a method
    as text (the CLI's ``--rho`` and a sidecar's ``rho_method``), and
    ``parse`` reads it back: ``RhoMethod.parse(m.method_id) == m``.
    """

    kind: str
    fixed_value: float | None = None
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "moment", "minvar"):
            raise ValueError(f"unknown rho method kind {self.kind!r}")
        if self.kind == "fixed":
            check_rho(self.fixed_value)
        if self.kind == "moment" and not math.isfinite(self.tau):
            raise NonFiniteError(f"tau={self.tau} must be finite")

    @classmethod
    def fixed(cls, value: float) -> "RhoMethod":
        return cls(kind="fixed", fixed_value=float(value))

    @classmethod
    def moment(cls, tau: float = 0.0) -> "RhoMethod":
        return cls(kind="moment", tau=float(tau))

    @classmethod
    def min_variance(cls) -> "RhoMethod":
        return cls(kind="minvar")

    @property
    def method_id(self) -> str:
        """'minvar', 'moment', 'moment:tau=<tau>' or 'fixed:<value>'.

        A value is written with ``%g`` where that gives it back exactly, and
        with ``repr`` otherwise, so the id records the method it names.
        """
        if self.kind == "minvar" or self.kind == "moment" and self.tau == 0.0:
            return self.kind
        value = self.fixed_value if self.kind == "fixed" else self.tau
        text = f"{value:g}" if float(f"{value:g}") == value else repr(value)
        return f"fixed:{text}" if self.kind == "fixed" else f"moment:tau={text}"

    @classmethod
    def parse(cls, text: str) -> "RhoMethod":
        """The method whose id is ``text``, the inverse of ``method_id``.

        Reads 'minvar', 'moment', 'moment:tau=<t>' and 'fixed:<v>'. ValueError
        on any other text, or a <t> or <v> that ``float`` does not read; a
        value the builders reject raises their error.
        """
        if text in ("minvar", "moment"):
            return cls(kind=text)
        for prefix, build, name in (("fixed:", cls.fixed, "fixed rho"),
                                    ("moment:tau=", cls.moment, "moment tau")):
            if text.startswith(prefix):
                try:
                    value = float(text[len(prefix):])
                except ValueError:
                    raise ValueError(f"bad {name} in {text!r}") from None
                return build(value)
        raise ValueError(f"bad --rho value {text!r}; expected fixed:<value>, moment, or minvar")


def check_rho_method(method) -> None:
    """TypeError unless ``method`` is a RhoMethod, naming its builders."""
    if not isinstance(method, RhoMethod):
        raise TypeError(f"rho_method={method!r} is not a RhoMethod.fixed(value), "
                        "RhoMethod.moment() or RhoMethod.min_variance()")


def resolve_rho(tail: OrderedTail, method: RhoMethod) -> float:
    """Resolve rho for a sample.

    Raises:
        TypeError: ``tail`` is not an OrderedTail (build one with
            validate_and_sort), or ``method`` not a RhoMethod.
        KOutOfRangeError: the sample is too small for the min-variance window.
        DegenerateTailError: a tail with no variation (moment method), or
            one on which every min-variance candidate path is constant.
        NonFiniteError: a power of the moment method's tau overflows.
    """
    if not isinstance(tail, OrderedTail):
        raise TypeError(f"tail is a {type(tail).__name__}, not an OrderedTail; "
                        "build one with validate_and_sort")
    check_rho_method(method)
    if method.kind == "fixed":
        return float(method.fixed_value)
    if method.kind == "moment":
        return _moment_rho(tail, method.tau)
    return _min_variance_rho(tail)


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
    k1 = int(math.floor(n**0.995))  # in [1, n - 1] for every n >= 2
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
        try:
            num = m1**tau - (m2 / 2.0) ** (tau / 2.0)
            den = (m2 / 2.0) ** (tau / 2.0) - (m3 / 6.0) ** (tau / 3.0)
        except OverflowError:
            raise NonFiniteError(f"tau={tau}: a moment power overflows") from None
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
    (grid, n) is kept, which is all a study or a CLI call uses. The design is
    the engine's cached one, so it is built once and held once.
    """
    lo = max(2, math.ceil(n / 10))
    hi = math.floor(0.9 * (n - 1))
    if hi < lo:
        raise KOutOfRangeError(
            f"n={n} leaves no k window [{lo}, {hi}] for min-variance selection"
        )
    rhos, window = tuple(float(g) for g in grid), np.arange(lo, hi + 1)
    return np.array(rhos), _design(rhos, window, True)


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
        mean = np.add.reduce(paths, axis=-1, keepdims=True)
        mean /= m
        paths -= mean  # centred and squared in place: the paths are this call's own
        np.multiply(paths, paths, out=paths)
        variances = np.add.reduce(paths, axis=-1)
        variances /= m
        return variances


def _min_variance_rho(tail: OrderedTail, grid=DEFAULT_RHO_GRID) -> float:
    """Grid candidate whose WLS path has the smallest variance.

    ``RhoMethod.min_variance`` always searches DEFAULT_RHO_GRID; ``grid`` is
    there for tests of the tie rule, the per-rho oracle and overflowing
    candidates. The path runs over k in [max(2, ceil(n/10)), floor(0.9*(n-1))],
    on a design cached per (grid, n), so a resolution is one engine run. Ties on
    the variance go to the most negative candidate, so the result does not
    depend on grid order. A tail on which every candidate path is constant
    (all spacings zero, say) has nothing to choose by and raises
    DegenerateTailError, as the moment method does.
    """
    rhos, design = _window(tuple(grid), tail.n)
    variances = _path_variances(tail.z_all, design)
    if not variances.any():  # every variance 0 (a NaN is nonzero)
        lo, hi = design.i[[0, -1]] + 1
        raise DegenerateTailError(
            f"every candidate rho gives a constant WLS path over k in [{lo}, {hi}]"
        )
    # smallest variance first, ties to the most negative rho
    return float(rhos[np.lexsort((rhos, variances))[0]])
