"""Order statistics, weighted log-spacings, weights and covariates.

Everything downstream works on the same ingredients: a positive sample sorted
in descending order, the scaled log-ratios of consecutive upper order
statistics

    Z_j = j * log(X_{n-j+1,n} / X_{n-j,n}),    j = 1, ..., k,

the unit-sum form w_j = W_j / (k/2) of the linearly decreasing weights
W_j = 1 - j/(k+1) (which sum to k/2 exactly), and the second-order
covariates C_j = (j/(k+1))^(-rho) with rho < 0. This module builds those
four objects and holds the checks every caller shares: of rho, of a positive
parameter, of an integer setting, of a k range, of an array of k, and of
overflow in a computation.
``block_tails`` alone computes spacings: it
sorts a ``(rows, n)`` block of samples and takes all their spacings at once.
``validate_and_sort`` is its one-row case, and every spacing is read from an
OrderedTail's ``z_all``: Z_1..Z_k of a tail are ``tail.z_all[:k]``, and tied
order statistics give exact zeros.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NonFiniteError,
    NonPositiveError,
)

__all__ = ["OrderedTail", "validate_and_sort", "weights", "covariates"]


def _readonly(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous float64 copy with the writeable flag cleared."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class OrderedTail:
    """A strictly positive sample stored in descending order, with its spacings.

    ``values[0]`` is the sample maximum, ``values[n-1]`` the minimum, and
    ``z_all`` holds all n-1 spacings Z_1..Z_{n-1}, which do not depend on k.
    Both arrays are read-only; build instances through
    :func:`validate_and_sort` or :func:`block_tails`.
    """

    values: np.ndarray
    z_all: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.size)


def check_rho(rho) -> float:
    """rho as a float; InvalidRhoError unless it is finite and strictly negative (None too)."""
    if rho is None or not math.isfinite(rho := float(rho)) or rho >= 0.0:
        raise InvalidRhoError(f"rho={rho} must be finite and < 0")
    return rho


def check_positive(name: str, value) -> float:
    """``value`` as a float; NonPositiveError unless it is > 0 (NaN too), NonFiniteError if inf."""
    value = float(value)
    if not value > 0.0:
        raise NonPositiveError(f"{name}={value} must be > 0")
    if value == math.inf:
        raise NonFiniteError(f"{name}={value} must be finite")
    return value


def check_int(name: str, value, error: type = KOutOfRangeError, low: int | None = None) -> int:
    """``value`` as an int; ``error`` unless ``operator.index`` takes it and it is >= ``low``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name}={value!r} must be an integer") from None
    if low is not None and value < low:
        raise error(f"{name}={value} must be at least {low}")
    return value


class raise_on_overflow:
    """Run the block with numpy overflow raising NonFiniteError, which names ``what``.

    A float overflow costs no pass over the result to find: numpy reports it.
    A small class around ``np.errstate(over="raise")``, not a generator
    ``@contextmanager``: a sampling study enters it once per table call and
    once per min-variance resolution, and the generator's machinery costs
    more than the errstate itself.
    """

    __slots__ = ("what", "_errstate")

    def __init__(self, what: str):
        self.what, self._errstate = what, np.errstate(over="raise")

    def __enter__(self):
        self._errstate.__enter__()

    def __exit__(self, kind, exc, tb):
        self._errstate.__exit__(kind, exc, tb)
        if kind is not None and issubclass(kind, FloatingPointError):
            raise NonFiniteError(f"{self.what} overflows ({exc})") from None


def check_k_range(k_min: int, k_max: int, n: int) -> np.ndarray:
    """The k values of a path; KOutOfRangeError unless integers 2 <= k_min <= k_max <= n - 1."""
    k_min, k_max, n = check_int("k_min", k_min), check_int("k_max", k_max), check_int("n", n)
    if not 2 <= k_min <= k_max <= n - 1:
        raise KOutOfRangeError(
            f"need 2 <= k_min <= k_max <= n-1, got k_min={k_min}, "
            f"k_max={k_max}, n={n}"
        )
    return np.arange(k_min, k_max + 1)


def check_k_values(k_values, k_low: int, size: int | None = None) -> np.ndarray:
    """``k_values`` (an int or ints) as a 1-D array, if they strictly ascend in [k_low, size].

    Raises:
        EmptyOrTinyError: no k.
        KTooSmallError: the first k is below k_low = 2 (a fit needs two spacings).
        KOutOfRangeError: a k that is not an integer, below k_low = 1 or
            above ``size``, or k that do not strictly ascend.
    """
    ks = np.atleast_1d(k_values)
    if not ks.size:
        raise EmptyOrTinyError("no k values")
    if ks.ndim != 1 or ks.dtype.kind not in "iu":
        raise KOutOfRangeError(f"k must be integers along one axis, got {ks.dtype} {ks.shape}")
    if ks[0] < k_low:
        raise (KTooSmallError if k_low > 1 else KOutOfRangeError)(
            f"need k >= {k_low}, got k={ks[0]}")
    if size is not None and ks[-1] > size:
        raise KOutOfRangeError(f"k={ks[-1]} exceeds the {size} spacings")
    if ks.size > 1 and not (ks[1:] > ks[:-1]).all():
        raise KOutOfRangeError("k values must strictly ascend")
    return ks


def validate_and_sort(raw_sample) -> OrderedTail:
    """Validate a raw sample, then return row 0 of ``block_tails`` on it.

    Args:
        raw_sample: array-like of sample values; flattened to 1-D.

    Returns:
        OrderedTail with a read-only descending float64 array.

    Raises:
        EmptyOrTinyError: fewer than two values.
        NonFiniteError: a NaN or infinity is present (first index reported).
        NonPositiveError: a value <= 0 is present (first index reported).
    """
    arr = np.asarray(raw_sample, dtype=np.float64).ravel()
    if arr.size < 2:
        raise EmptyOrTinyError(
            f"need at least two sample values, got {arr.size}"
        )
    bad = ~np.isfinite(arr)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteError(f"non-finite value {arr[i]} at index {i}")
    nonpos = arr <= 0.0
    if nonpos.any():
        i = int(np.argmax(nonpos))
        raise NonPositiveError(f"non-positive value {arr[i]} at index {i}")
    return block_tails(arr[None])[1][0]


def block_tails(raw: np.ndarray) -> tuple[np.ndarray, list]:
    """Validate, sort and take the log-spacings of every row of a ``(rows, n)`` block.

    The only code that takes spacings, one numpy call per step for the whole
    block. Returns the read-only ``(rows, n-1)`` block of spacings and, per
    row, its OrderedTail, or None where ``validate_and_sort`` would raise
    (fewer than two values, or a non-finite or non-positive one); such a
    row's spacings are NaN. The tails' values are the rows of one
    C-contiguous descending block, and each tail's ``z_all`` is its row of
    the spacings block, so nothing is copied or computed per row. The logs
    are taken on that contiguous block because ``np.log`` may take another
    loop on a strided view, which on some hosts differs by one ulp.
    """
    raw = np.asarray(raw, dtype=np.float64)
    ok = ((raw > 0.0) & (raw < np.inf)).all(axis=1) & (raw.shape[1] >= 2)
    if not ok.all():
        raw = np.where(ok[:, None], raw, np.nan)
    values = _readonly(np.sort(raw, axis=1)[:, ::-1])
    logs = np.log(values)
    j = np.arange(1, values.shape[1], dtype=np.float64)
    z_all = j * (logs[:, :-1] - logs[:, 1:])
    z_all.flags.writeable = False
    tails = [OrderedTail(row, z_row) if good else None
             for row, z_row, good in zip(values, z_all, ok.tolist())]
    return z_all, tails


def weights(k: int) -> np.ndarray:
    """Read-only unit-sum weights w_j = W_j / (k/2), W_j = 1 - j/(k+1), j = 1..k.

    Dividing by the exact total k/2 sums them to one without a float total.

    Raises:
        KOutOfRangeError: k < 1, or k not an integer.
    """
    k = check_int("k", k, low=1)
    j = np.arange(1, k + 1, dtype=np.float64)
    return _readonly((1.0 - j / (k + 1.0)) / (k / 2.0))


def covariates(k: int, rho: float) -> np.ndarray:
    """Covariates C_j = (j/(k+1))^(-rho), j = 1..k, as a read-only array.

    They increase from near zero toward one as j runs from 1 to k, and lie
    in (0, 1) for every admissible rho.

    Raises:
        KOutOfRangeError: k < 1, or k not an integer.
        InvalidRhoError: rho is not finite or not strictly negative.
    """
    k = check_int("k", k, low=1)
    rho = check_rho(rho)
    j = np.arange(1, k + 1, dtype=np.float64)
    return _readonly((j / (k + 1.0)) ** (-rho))
