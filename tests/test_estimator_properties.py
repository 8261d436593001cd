"""Property tests of the estimator and distribution contracts.

The table (``path_estimates``) and the rho resolutions see a sample only
through its log-spacings, so permuting the sample changes no bit, rescaling
it changes only rounding, and raising it to a power p multiplies the
spacings, and with them every linear estimator, by p. Valid but extreme
inputs give finite values or a typed ``TailwlsError``, and the distributions
give values in their documented ranges or a typed ``TailwlsError``. The
examples are derandomized and no example database is kept, so a run is
repeatable.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from tailwls import (  # noqa: E402
    DEFAULT_RHO_GRID,
    ESTIMATOR_IDS,
    MOMENT_RHO_RANGE,
    RhoMethod,
    TailwlsError,
    amse,
    burr,
    cdf,
    frechet,
    loggamma,
    pareto,
    path_estimates,
    quantile,
    resolve_rho,
    run_model_simulation,
    s_moments,
    sample,
    standardized_statistic,
    validate_and_sort,
    wls_gamma_grid,
)

SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=25)

FAMILIES = (burr(1.0, 2.0, 1.0), frechet(2.0), pareto(0.5), burr(1.0, np.sqrt(2.0), np.sqrt(2.0)))
METHODS = (RhoMethod.fixed(-0.7), RhoMethod.moment(), RhoMethod.min_variance())

# Tolerances, each relative to the largest |estimate| of the path. On 600
# seeded samples (n = 20..300, these families) the largest errors were
# 8e-13 for X -> cX, c = 1e-300..1e300 (each log-spacing is rounded anew)
# and 1.2e-14 for X -> X^p, p = 0.3..3.7.
SCALE_RTOL = 1e-9
POWER_RTOL = 1e-10
# The moment rho is a smooth function of the spacings away from its pole
# T = 3; on the same samples it moved by at most 2.7e-11 relative.
MOMENT_RTOL = 1e-8
# A min-variance pick may change under X -> cX only at a near-tie: where the
# WLS path variances of the two picks differ by less than this, relative.
TIE_RTOL = 1e-6

samples = st.builds(lambda spec, n, seed: sample(spec, n, seed),
                    st.sampled_from(FAMILIES), st.integers(20, 300), st.integers(0, 2**32 - 1))

# finite but extreme, infinite and NaN values for every float argument
EXTREMES = (math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, -1e-308, 5e-324)


def _paths(x, ids=ESTIMATOR_IDS, rho=-1.0):
    tail = validate_and_sort(x)
    return path_estimates(tail.z_all, tail.n, ids, rho, np.arange(2, tail.n))[0]


def _picks(x):
    tail = validate_and_sort(x)
    return [resolve_rho(tail, method) for method in METHODS]


def _close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _finite_or_typed(call):
    """Call; a TailwlsError passes, anything else returned must be finite."""
    try:
        out = call()
    except TailwlsError:
        return
    for a in out if isinstance(out, list) else [out]:
        assert np.isfinite(np.asarray(a, dtype=np.float64)).all(), a


@SETTINGS
@given(samples, st.data())
def test_permuting_the_sample_changes_no_bit(x, data):
    y = x[data.draw(st.permutations(range(x.size)))]
    got, want = _paths(y), _paths(x)
    for est in ESTIMATOR_IDS:
        assert got[est].tobytes() == want[est].tobytes(), est
    assert _picks(y) == _picks(x)


@SETTINGS
@given(samples, st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
def test_rescaling_the_sample_keeps_paths_and_picks(x, c):
    got, want = _paths(c * x), _paths(x)
    for est in ESTIMATOR_IDS:
        assert _close(got[est], want[est], SCALE_RTOL), (est, c)
    (fixed, moment, minvar), (fixed0, moment0, minvar0) = _picks(c * x), _picks(x)
    assert fixed == fixed0
    assert abs(moment - moment0) <= MOMENT_RTOL * abs(moment0)
    if minvar != minvar0:
        tail = validate_and_sort(x)
        lo, hi = max(2, math.ceil(tail.n / 10)), math.floor(0.9 * (tail.n - 1))
        var = wls_gamma_grid(tail.z_all, np.arange(lo, hi + 1), (minvar, minvar0)).var(axis=1)
        assert abs(var[0] - var[1]) <= TIE_RTOL * var[1], (minvar, minvar0, var)


@SETTINGS
@given(samples, st.floats(0.25, 4.0))
def test_powering_the_sample_scales_the_regressions(x, p):
    """X -> X^p multiplies HILL, LS, RR and WLS by p, at a fixed rho.

    BCHILL is left out: its slope b_hat carries the units of Z, so it is not
    equivariant. On Burr(1,2,1), n = 500, seed 3, k = 50, rho = -1, X -> X^2
    takes it from 0.457441 to 0.921059, where doubling gives 0.914882.
    RR is compared in absolute value: it keeps the smallest |gamma_hat| over
    its penalties, a continuous function of the spacings, whose sign may flip
    where two penalties of opposite sign tie.
    """
    got, want = _paths(x ** p, ("HILL", "LS", "RR", "WLS")), _paths(x, ("HILL", "LS", "RR", "WLS"))
    for est in ("HILL", "LS", "WLS"):
        assert _close(got[est], p * want[est], POWER_RTOL), (est, p)
    assert _close(np.abs(got["RR"]), p * np.abs(want["RR"]), POWER_RTOL), p


positive = st.floats(1e-300, 1e300)


@SETTINGS
@given(st.one_of(samples, arrays(np.float64, st.integers(20, 60), elements=positive)))
def test_resolved_rho_stays_in_its_documented_range(x):
    tail = validate_and_sort(x)
    assert resolve_rho(tail, METHODS[0]) == -0.7
    for method in METHODS[1:]:
        try:
            rho = resolve_rho(tail, method)
        except TailwlsError:
            continue  # a degenerate tail
        if method.kind == "moment":
            assert MOMENT_RHO_RANGE[0] <= rho <= MOMENT_RHO_RANGE[1]
        else:
            assert rho in DEFAULT_RHO_GRID


def test_extreme_table_inputs_give_finite_paths_or_typed_errors():
    """Extreme rhos, spacings scaled to the float range, and no k.

    Spacings are finite by construction (``block_tails``), and a NaN row is
    the table's mark of a failed draw, so only their scale is extreme here.
    A block with one rho per row is NaN exactly on the rows whose own call
    raises (and off HILL on an unresolved row), finite elsewhere.
    """
    z = validate_and_sort(sample(FAMILIES[0], 200, 3)).z_all
    k_values = np.arange(2, 200)
    for rho, scale in itertools.product(EXTREMES + (None, -1.0), (1.0, 1e308, 1e-308, 5e-324)):
        for ids in (("HILL",), ESTIMATOR_IDS):
            def call():
                paths, penalties = path_estimates(z / z.max() * scale, 200, ids, rho, k_values)
                return list(paths.values()) + ([] if penalties is None else [penalties])
            _finite_or_typed(call)
        _finite_or_typed(lambda: list(path_estimates(z, 200, ESTIMATOR_IDS, rho, [])[0]))
    rhos = np.array((-1.0,) + EXTREMES)
    block = np.tile(z, (rhos.size, 1))
    paths, penalties = path_estimates(block, 200, ESTIMATOR_IDS, rhos, k_values)
    for row, rho in enumerate(rhos.tolist()):
        try:
            path_estimates(z, 200, ESTIMATOR_IDS, None if math.isnan(rho) else rho, k_values)
            ok = True
        except TailwlsError:
            ok = False
        fitted = ok and not math.isnan(rho)  # an unresolved row's own call gives HILL only
        for est, path in paths.items():
            kept = fitted or ok and est == "HILL"
            assert (np.isfinite(path[row]).all() if kept else np.isnan(path[row]).all()), (rho, est)
        assert (np.isfinite(penalties[row]).all() if fitted else np.isnan(penalties[row]).all())


def test_extreme_moment_inputs_give_finite_values_or_typed_errors():
    for rho in EXTREMES + (-1.0,):
        for k in (2, [2, 3, 50], []):
            def moments(k=k, rho=rho):
                m = s_moments(k, rho)
                return [m.s1, m.s2, m.s_dot, m.s_ddot]
            _finite_or_typed(moments)
        for gamma in EXTREMES + (1.0,):
            _finite_or_typed(lambda: amse(gamma, 10, rho))
    for gamma_hat, gamma_true in itertools.product(EXTREMES + (1.0, []), EXTREMES + (1.0,)):
        for k in (1, 10):
            _finite_or_typed(lambda: standardized_statistic(gamma_hat, gamma_true, k))


def test_extreme_model_studies_give_finite_estimates_or_typed_errors():
    """Every cell's mean, bias, mse and variance is finite, or the study raises a TailwlsError.

    mse and variance scale as gamma^2, so from about gamma = 1e155 the study
    raises NonFiniteError where they would overflow (gamma = 1e200 here).
    """
    for gamma, b, rho in itertools.product(EXTREMES + (1.0, 1e200), EXTREMES + (0.0,),
                                           EXTREMES + (-1.0,)):
        for est_ids, n in ((("HILL", "WLS"), None), (ESTIMATOR_IDS, 20)):
            def study():
                s = run_model_simulation(gamma, b, rho, 5, 3, est_ids, n=n)
                return [s.mean, s.bias, s.mse, s.variance]
            _finite_or_typed(study)


def _in_range_or_typed(call, low, high):
    """Call; a TailwlsError passes, anything else returned must lie in [low, high]."""
    try:
        out = np.asarray(call(), dtype=np.float64)
    except TailwlsError:
        return
    assert ((low <= out) & (out <= high)).all(), out  # NaN fails both


def test_extreme_distribution_inputs_give_values_in_range_or_typed_errors():
    """Each family with each parameter, u and x at each extreme, with no warning.

    ``cdf`` lies in [0, 1]; ``quantile`` and ``sample`` are never NaN and
    never negative, with inf where Q(u) overflows.
    """
    families = {pareto: (0.5,), burr: (1.0, 2.0, 1.0), frechet: (2.0,), loggamma: (2.0, 2.0)}
    us = EXTREMES + (0.0, 0.5, 1.0 - 2.0 ** -53)
    xs = EXTREMES + (1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, params in families.items():
            for i, value in itertools.product(range(len(params)), EXTREMES):
                try:
                    spec = make(*params[:i], value, *params[i + 1:])
                except TailwlsError:
                    continue
                for u in us + (np.array(us),):
                    _in_range_or_typed(lambda: quantile(spec, u), 0.0, math.inf)
                for x in xs + (np.array(xs),):
                    _in_range_or_typed(lambda: cdf(spec, x), 0.0, 1.0)
                _in_range_or_typed(lambda: sample(spec, 50, 3), 0.0, math.inf)
