import math

import numpy as np
import pytest

from tailwls import (
    DEFAULT_RHO_GRID,
    DegenerateTailError,
    InvalidRhoError,
    KOutOfRangeError,
    MOMENT_RHO_RANGE,
    RhoMethod,
    burr,
    frechet,
    loggamma,
    pareto,
    rep_seed,
    resolve_rho,
    sample,
    validate_and_sort,
)
from tailwls.second_order import _min_variance_rho


def _burr_tail(n, seed, tau=None, lam=None):
    tau = np.sqrt(2.0) if tau is None else tau
    lam = np.sqrt(2.0) if lam is None else lam
    return validate_and_sort(sample(burr(1.0, tau, lam), n, seed))


class TestRhoMethod:
    def test_fixed_validation(self):
        m = RhoMethod.fixed(-1.0)
        assert m.method_id == "fixed:-1"
        for bad in (0.0, 0.5, -np.inf, np.nan):
            with pytest.raises(InvalidRhoError):
                RhoMethod.fixed(bad)
        with pytest.raises(InvalidRhoError):
            RhoMethod(kind="fixed")

    def test_moment_ids(self):
        assert RhoMethod.moment().method_id == "moment"
        assert RhoMethod.moment(tau=0.5).method_id == "moment:tau=0.5"
        assert RhoMethod.moment(0.123456789).method_id == "moment:tau=0.123456789"

    @pytest.mark.parametrize("method", [
        *(pytest.param(RhoMethod.fixed(v), id=str(v))
          for v in (-1.0, -0.7, -1e-08, -0.123456789, -123456.7, -2.5e-300)),
        *(pytest.param(RhoMethod.moment(t), id=f"tau={t}")
          for t in (0.5, 1.0, -0.123456789, 1e300)),
    ])
    def test_fixed_id_parses_back_to_its_method(self, method):
        """The id keeps every digit of the value: ``%g`` where it is exact, else ``repr``.

        A moment tau is written the same way, and both parse back to the method.
        """
        assert RhoMethod.parse(method.method_id) == method

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            RhoMethod(kind="guess")


def test_resolve_fixed():
    tail = _burr_tail(50, 1)
    assert resolve_rho(tail, RhoMethod.fixed(-1.5)) == -1.5


def test_moment_median_near_true_rho():
    """Median moment-type estimate over 100 Burr samples lands near -1/lam."""
    true_rho = -1.0 / np.sqrt(2.0)
    vals = [
        resolve_rho(_burr_tail(1000, rep_seed(1234, r)), RhoMethod.moment())
        for r in range(100)
    ]
    assert abs(np.median(vals) - true_rho) < 0.25


def test_moment_stays_clamped():
    lo, hi = MOMENT_RHO_RANGE
    for r in range(30):
        tail = validate_and_sort(sample(pareto(1.0), 400, rep_seed(55, r)))
        rho = resolve_rho(tail, RhoMethod.moment())
        assert lo <= rho <= hi


def test_moment_nonzero_tau_runs():
    tail = _burr_tail(800, 3)
    rho = resolve_rho(tail, RhoMethod.moment(tau=0.5))
    assert -8.0 <= rho <= -0.05


def test_moment_degenerate_tail():
    tail = validate_and_sort(np.full(50, 7.0))
    with pytest.raises(DegenerateTailError):
        resolve_rho(tail, RhoMethod.moment())
    # n = 200, k1 = 194: every log is 1, so at tau = 2100 the ratio's numerator is 1 and
    # its denominator (1/2)^1050 - (1/6)^700 a subnormal 8.3e-317, and T = inf
    tail = validate_and_sort([math.e] * 194 + [1.0] * 6)
    with pytest.raises(DegenerateTailError, match="T=inf gives no rho"):
        resolve_rho(tail, RhoMethod.moment(2100.0))


def test_minvar_degenerate_tail():
    # every candidate path is identically 0: no variance to choose by
    tail = validate_and_sort(np.full(100, 2.5))
    with pytest.raises(DegenerateTailError):
        resolve_rho(tail, RhoMethod.min_variance())


def test_minvar_returns_grid_element_deterministically():
    tail = _burr_tail(200, 4)
    a = resolve_rho(tail, RhoMethod.min_variance())
    b = resolve_rho(tail, RhoMethod.min_variance())
    assert a == b
    assert a in DEFAULT_RHO_GRID


def test_minvar_grid_order_does_not_matter():
    tail = _burr_tail(150, 5)
    fwd = _min_variance_rho(tail, DEFAULT_RHO_GRID)
    rev = _min_variance_rho(tail, tuple(reversed(DEFAULT_RHO_GRID)))
    assert fwd == rev == resolve_rho(tail, RhoMethod.min_variance())


def test_minvar_single_candidate():
    tail = _burr_tail(80, 6)
    assert _min_variance_rho(tail, (-0.9,)) == -0.9


def _min_variance_oracle(tail, grid):
    """The min-variance rule with one one-rho WLS engine run per candidate."""
    from tailwls import estimators

    n = tail.n
    k_values = np.arange(max(2, math.ceil(n / 10)), math.floor(0.9 * (n - 1)) + 1)
    z_all = tail.z_all
    z_sums = estimators._prefix_sums(z_all, k_values[-1], False)
    paths = np.array([estimators._path_fit(z_all, z_sums,
                                           estimators._design((float(rho),), k_values, True))[0]
                      for rho in grid])
    # smallest variance first, ties to the most negative rho
    return float(grid[np.lexsort((grid, paths.var(axis=1)))[0]])


def test_minvar_pick_equals_per_rho_oracle():
    specs = (pareto(0.5), burr(1.0, 2.0, 1.0), burr(1.0, np.sqrt(2.0), np.sqrt(2.0)),
             frechet(2.0), loggamma(1.5, 2.0))
    grids = (DEFAULT_RHO_GRID, tuple(reversed(DEFAULT_RHO_GRID)), (-0.5, -2.0, -0.5))
    picks = set()
    for spec in specs:
        for n in (60, 200, 1000):
            for seed in range(4):
                tail = validate_and_sort(sample(spec, n, rep_seed(13, seed)))
                for grid in grids:
                    got = _min_variance_rho(tail, grid)
                    assert got == _min_variance_oracle(tail, grid), (spec, n, seed, grid)
                    picks.add(got)
    assert len(picks) > 2


def test_minvar_variances_and_picks_equal_the_grid_reference():
    """The resolver's window variances are those of the one-rho WLS table paths, bit for bit.

    The reference stacks one ``path_estimates`` call per candidate over the
    k window, with ``np.var`` and ``np.lexsort``; the resolver runs the
    engine once on its cached window design and reduces as ``np.var`` does,
    without its wrapper.
    """
    from tailwls import path_estimates, second_order

    specs = (pareto(0.5), burr(1.0, 2.0, 1.0), frechet(2.0), loggamma(1.5, 2.0))
    grids = (DEFAULT_RHO_GRID, tuple(reversed(DEFAULT_RHO_GRID)), (-0.5, -2.0, -0.5))
    for spec in specs:
        for n in (20, 200, 1000):
            k_values = np.arange(max(2, math.ceil(n / 10)), math.floor(0.9 * (n - 1)) + 1)
            for seed in range(5):
                tail = validate_and_sort(sample(spec, n, rep_seed(21, seed)))
                for grid in grids:
                    want = np.array([
                        path_estimates(tail.z_all, None, ("WLS",), rho, k_values).paths["WLS"]
                        for rho in grid]).var(axis=1)
                    rhos, design = second_order._window(grid, n)
                    assert np.array_equal(design.i + 1, k_values) and rhos.tolist() == list(grid)
                    got = second_order._path_variances(tail.z_all, design)
                    assert got.tobytes() == want.tobytes(), (spec, n, seed, grid)
                    pick = float(grid[np.lexsort((grid, want))[0]])
                    assert _min_variance_rho(tail, grid) == pick


def test_minvar_grid_overflow_raises_invalid_rho():
    # rho=-400 overflows the covariate sums of the k window at n=200
    with pytest.raises(InvalidRhoError):
        _min_variance_rho(_burr_tail(200, 9), (-1.0, -400.0))


def test_minvar_tiny_sample():
    tail = validate_and_sort([3.0, 2.0, 1.0])
    with pytest.raises(KOutOfRangeError):
        resolve_rho(tail, RhoMethod.min_variance())
