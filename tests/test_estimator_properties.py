"""Property tests of the estimator and distribution contracts.

The table (``path_estimates``) and the rho resolutions see a sample only
through its log-spacings, so permuting the sample changes no bit, rescaling
it changes only rounding, and raising it to a power p multiplies the
spacings, and with them every linear estimator and the LS and WLS slopes,
by p. Valid but extreme inputs give finite values (or, for a min-variance
rho, a grid value; for a study, NaN where every replication is missing) or
a typed ``TailwlsError``, and the distributions
give values in their documented ranges or a typed ``TailwlsError``. Every
rho method's id parses back to that method. The
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
    InvalidRhoError,
    NonFiniteError,
    RhoMethod,
    SimulationConfig,
    TailwlsError,
    amse,
    burr,
    cdf,
    frechet,
    loggamma,
    normality_report,
    pareto,
    path_estimates,
    quantile,
    resolve_rho,
    run_model_simulation,
    run_simulation,
    s_moments,
    sample,
    standardized_statistic,
    validate_and_sort,
)
from tailwls import second_order  # noqa: E402

SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=25)

FAMILIES = (burr(1.0, 2.0, 1.0), frechet(2.0), pareto(0.5), burr(1.0, np.sqrt(2.0), np.sqrt(2.0)))
METHODS = (RhoMethod.fixed(-0.7), RhoMethod.moment(), RhoMethod.min_variance())

# Tolerances, each relative to the largest |estimate| (or |slope|) of the
# path. On 600 seeded samples (n = 20..300, these families) the largest
# errors were 8e-13 (1.0e-12 for a slope) for X -> cX, c = 1e-300..1e300
# (each log-spacing is rounded anew) and 1.2e-14 (1.1e-14) for X -> X^p,
# p = 0.3..3.7.
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


def _table(x, ids=ESTIMATOR_IDS, rho=-1.0):
    tail = validate_and_sort(x)
    return path_estimates(tail.z_all, tail.n, ids, rho, np.arange(2, tail.n))


def _wls_variances(tail, rhos):
    """Variance of the WLS path over the min-variance k window, one table call per rho."""
    window = np.arange(max(2, math.ceil(tail.n / 10)), math.floor(0.9 * (tail.n - 1)) + 1)
    return np.array([path_estimates(tail.z_all, None, ("WLS",), rho, window).paths["WLS"]
                     for rho in rhos]).var(axis=1)


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
    got, want = _table(y), _table(x)
    for est in ESTIMATOR_IDS:
        assert got.paths[est].tobytes() == want.paths[est].tobytes(), est
    for est in ("LS", "WLS"):
        assert got.slopes[est].tobytes() == want.slopes[est].tobytes(), est
    assert _picks(y) == _picks(x)


@SETTINGS
@given(samples, st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
def test_rescaling_the_sample_keeps_paths_and_picks(x, c):
    got, want = _table(c * x), _table(x)
    for est in ESTIMATOR_IDS:
        assert _close(got.paths[est], want.paths[est], SCALE_RTOL), (est, c)
    for est in ("LS", "WLS"):
        assert _close(got.slopes[est], want.slopes[est], SCALE_RTOL), (est, c)
    (fixed, moment, minvar), (fixed0, moment0, minvar0) = _picks(c * x), _picks(x)
    assert fixed == fixed0
    assert abs(moment - moment0) <= MOMENT_RTOL * abs(moment0)
    if minvar != minvar0:
        var = _wls_variances(validate_and_sort(x), (minvar, minvar0))
        assert abs(var[0] - var[1]) <= TIE_RTOL * var[1], (minvar, minvar0, var)


@SETTINGS
@given(samples, st.floats(0.25, 4.0))
def test_powering_the_sample_scales_the_regressions(x, p):
    """X -> X^p multiplies HILL, LS, RR and WLS, and the LS and WLS slopes, by p, at a fixed rho.

    The slopes are linear in Z. BCHILL is left out: its slope b_hat carries the units of Z, so it is not
    equivariant. On Burr(1,2,1), n = 500, seed 3, k = 50, rho = -1, X -> X^2
    takes it from 0.457441 to 0.921059, where doubling gives 0.914882.
    RR is compared in absolute value: it keeps the smallest |gamma_hat| over
    its penalties, a continuous function of the spacings, whose sign may flip
    where two penalties of opposite sign tie.
    """
    ids = ("HILL", "LS", "RR", "WLS")
    got, want = _table(x ** p, ids), _table(x, ids)
    for est in ("HILL", "LS", "WLS"):
        assert _close(got.paths[est], p * want.paths[est], POWER_RTOL), (est, p)
    for est in ("LS", "WLS"):
        assert _close(got.slopes[est], p * want.slopes[est], POWER_RTOL), (est, p)
    assert _close(np.abs(got.paths["RR"]), p * np.abs(want.paths["RR"]), POWER_RTOL), p


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
    raises (and off HILL on an unresolved row), finite elsewhere; so are the
    slopes and penalties. The min-variance grids run the resolver's engine
    run on the scaled spacings.
    """
    z = validate_and_sort(sample(FAMILIES[0], 200, 3)).z_all
    k_values = np.arange(2, 200)
    for rho, scale in itertools.product(EXTREMES + (None, -1.0), (1.0, 1e308, 1e-308, 5e-324)):
        for ids in (("HILL",), ESTIMATOR_IDS):
            def call():
                table = path_estimates(z / z.max() * scale, 200, ids, rho, k_values)
                return ([*table.paths.values(), *table.slopes.values()]
                        + ([] if table.penalties is None else [table.penalties]))
            _finite_or_typed(call)
        _finite_or_typed(lambda: list(path_estimates(z, 200, ESTIMATOR_IDS, rho, []).paths))
        for grid in ((-1.0, -2.0),) + (() if rho is None else ((rho,), (rho, -1.0))):
            _finite_or_typed(lambda: second_order._path_variances(
                z / z.max() * scale, second_order._window(grid, 200)[1]))
    rhos = np.array((-1.0,) + EXTREMES)
    block = np.tile(z, (rhos.size, 1))
    table = path_estimates(block, 200, ESTIMATOR_IDS, rhos, k_values)
    for row, rho in enumerate(rhos.tolist()):
        try:
            path_estimates(z, 200, ESTIMATOR_IDS, None if math.isnan(rho) else rho, k_values)
            ok = True
        except TailwlsError:
            ok = False
        fitted = ok and not math.isnan(rho)  # an unresolved row's own call gives HILL only
        for est, path in table.paths.items():
            kept = fitted or ok and est == "HILL"
            assert (np.isfinite(path[row]).all() if kept else np.isnan(path[row]).all()), (rho, est)
        for a in [*table.slopes.values(), table.penalties]:
            assert (np.isfinite(a[row]).all() if fitted else np.isnan(a[row]).all()), rho


def test_extreme_min_variance_grids_give_grid_values_or_typed_errors():
    """Grids with extreme candidates on samples with tiny, huge and widely spread spacings.

    A candidate near 0 (-1e-153) passes the design checks but makes its WLS
    path and that path's variance overflow; -1e-150 does not.
    """
    x = sample(FAMILIES[0], 200, 3)
    tails = [validate_and_sort(y) for y in (x, x * 1e300, x * 1e-300, x ** 40,
                                            np.geomspace(5e-324, 1e308, 200))]
    grids = [(-1e-150, -40.0), (-1e-153, -1.0), (-40.0,), (-1e-150,), DEFAULT_RHO_GRID]
    grids += [(rho, -1.0) for rho in EXTREMES]
    for tail, grid in itertools.product(tails, grids):
        try:
            rho = second_order._min_variance_rho(tail, grid)
        except TailwlsError:
            continue
        assert rho in grid, (grid, rho)


# finite taus whose powers of the moment method's moments over- or underflow
EXTREME_TAUS = (1e308, -1e308, 1e3, -1e3)


def test_extreme_moment_taus_give_range_values_or_typed_errors():
    """A moment rho is in MOMENT_RHO_RANGE or a typed error, and a study counts it unresolved.

    The tails have log-excess moments from near 0 to large, so each tau
    sign overflows a power on some tail. RhoMethod.moment rejects a tau
    that is NaN or infinite.
    """
    x = sample(FAMILIES[0], 200, 3)
    tails = [validate_and_sort(y) for y in (x, x * 1e300, x ** 0.01, x ** 40)]
    for tail, tau in itertools.product(tails, EXTREME_TAUS):
        try:
            rho = resolve_rho(tail, RhoMethod.moment(tau))
        except TailwlsError:
            continue
        assert MOMENT_RHO_RANGE[0] <= rho <= MOMENT_RHO_RANGE[1], (tau, rho)
    for tau in EXTREME_TAUS:
        s = run_simulation(SimulationConfig(FAMILIES[0], 100, 3, 5, 20, ("WLS",),
                                            RhoMethod.moment(tau)))
        assert s.metadata["resolved_rho_counts"].endswith(
            "unresolved:3" if abs(tau) == 1e308 else "unresolved:0"), tau
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonFiniteError, match="tau"):
            RhoMethod.moment(tau)


@settings(SETTINGS, max_examples=300)
@given(st.one_of(
    st.just(RhoMethod.min_variance()),
    st.builds(RhoMethod.fixed, st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)),
    st.builds(RhoMethod.moment, st.floats(allow_nan=False, allow_infinity=False))))
def test_every_method_id_parses_back_to_its_method(method):
    """Any finite negative fixed rho and any finite tau: the id reads back to the method."""
    assert RhoMethod.parse(method.method_id) == method


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


def _extreme_specs(families):
    """Each family with one parameter at each extreme, where that is a valid spec."""
    for make, params in families.items():
        for i, value in itertools.product(range(len(params)), EXTREMES):
            try:
                yield make(*params[:i], value, *params[i + 1:])
            except TailwlsError:
                continue


SAMPLING_SPECS = {pareto: (0.5,), burr: (1.0, 2.0, 1.0), frechet: (2.0,)}
# the finite negative extremes, the only ones RhoMethod.fixed takes; their sums over- or underflow
FIXED_EXTREMES = (-1e308, -1e-308)


def test_extreme_sampling_studies_give_finite_cells_or_typed_errors():
    """A cell is finite where some replication counts and NaN where none does, or the study raises.

    Each valid extreme spec runs with each rho method, and Burr(1,2,1) with
    a fixed rho at each extreme, every replication of which is missing.
    """
    runs = [(spec, method) for spec in _extreme_specs(SAMPLING_SPECS) for method in METHODS]
    runs += [(FAMILIES[0], RhoMethod.fixed(rho)) for rho in FIXED_EXTREMES]
    for spec, method in runs:
        try:
            s = run_simulation(SimulationConfig(spec=spec, n=30, reps=5, k_min=2, k_max=29,
                                                rho_method=method))
        except TailwlsError:
            continue
        cells = np.stack([s.mean, s.bias, s.mse, s.variance])
        none = s.missing == s.metadata["reps"]
        assert np.isfinite(cells[:, ~none]).all() and np.isnan(cells[:, none]).all(), (spec, method)
        if method.kind == "fixed" and method.fixed_value in FIXED_EXTREMES:
            assert none.all(), method


def test_extreme_normality_reports_give_finite_moments_or_typed_errors():
    """Moments are finite, or NaN with every replication missing, or the report raises.

    Model mode rejects an extreme rho with InvalidRhoError. In sampling
    mode a fixed rho at a finite negative extreme counts every replication
    missing; RhoMethod.fixed rejects the other extremes.
    """
    def moments_or_typed(call):
        try:
            report = call()
        except TailwlsError:
            return
        moments = [report.sample_mean, report.sample_variance]
        if report.config["missing"] == report.reps:
            assert np.isnan(moments).all(), report
        else:
            assert np.isfinite(moments).all(), report

    for gamma, b, rho in itertools.product(EXTREMES + (1.0,), EXTREMES + (0.0,),
                                           EXTREMES + (-1.0,)):
        moments_or_typed(lambda: normality_report(100, 5, gamma=gamma, b=b, rho=rho))
    for rho in EXTREMES:
        with pytest.raises(InvalidRhoError):
            normality_report(100, 5, gamma=1.0, b=0.0, rho=rho)
    for spec, method in itertools.product(_extreme_specs(SAMPLING_SPECS), METHODS):
        moments_or_typed(lambda: normality_report(100, 5, spec=spec, n=20, rho_method=method))
    for rho in EXTREMES:
        if rho in FIXED_EXTREMES:
            report = normality_report(100, 5, spec=FAMILIES[0], n=20,
                                      rho_method=RhoMethod.fixed(rho))
            assert report.config["missing"] == report.reps and math.isnan(report.sample_mean)
        else:
            with pytest.raises(InvalidRhoError):
                RhoMethod.fixed(rho)


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
        for spec in _extreme_specs(families):
            for u in us + (np.array(us),):
                _in_range_or_typed(lambda: quantile(spec, u), 0.0, math.inf)
            for x in xs + (np.array(xs),):
                _in_range_or_typed(lambda: cdf(spec, x), 0.0, 1.0)
            _in_range_or_typed(lambda: sample(spec, 50, 3), 0.0, math.inf)
