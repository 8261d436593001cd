"""Exception types shared across the package.

Every error raised on purpose by this package derives from ``TailwlsError``,
so callers can catch one base class. Concrete classes also inherit
``ValueError`` because they all signal a rejected input or configuration.
"""


class TailwlsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyOrTinyError(TailwlsError, ValueError):
    """An input has too few entries."""


class NonPositiveError(TailwlsError, ValueError):
    """A value is zero or negative where it must be positive.

    Raised for a sample value, a distribution parameter or a true gamma
    that is not strictly positive, a subnormal log-gamma alpha, and a model
    mean gamma + b*C_j that is not strictly positive.
    """


class NonFiniteError(TailwlsError, ValueError):
    """A value is NaN or infinite where it must be finite.

    Raised for a sample value, a distribution parameter, true gamma or true
    rho, a ``cdf`` argument, a model parameter or mean gamma + b*C_j, the
    AMSE of a finite gamma that overflows, a path or model spacing that
    overflows, and a standardized statistic that is not finite.
    """


class KOutOfRangeError(TailwlsError, ValueError):
    """Tail fraction k lies outside the admissible range for the sample."""


class KTooSmallError(KOutOfRangeError):
    """Regression needs at least two spacings (k >= 2)."""


class InvalidRhoError(TailwlsError, ValueError):
    """Second-order parameter rho must be finite and strictly negative.

    Also raised for a rho whose covariate sums over- or underflow, so that
    S2 is not a positive normal float.
    """


class DegenerateTailError(TailwlsError, ValueError):
    """Top order statistics carry no usable variation (e.g. all tied)."""


class UOutOfRangeError(TailwlsError, ValueError):
    """Quantile argument u must satisfy 0 <= u < 1."""
