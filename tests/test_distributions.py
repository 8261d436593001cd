import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from tailwls import (
    NonFiniteError,
    NonPositiveError,
    UOutOfRangeError,
    burr,
    cdf,
    frechet,
    loggamma,
    pareto,
    quantile,
    sample,
    validate_and_sort,
)

ALL_SPECS = [
    pareto(0.5),
    pareto(1.0),
    burr(1.0, np.sqrt(10.0), np.sqrt(10.0)),
    burr(1.0, np.sqrt(2.0), np.sqrt(2.0)),
    burr(1.0, 2.0, 0.5),
    burr(2.5, 1.3, 0.8),
    frechet(10.0),
    frechet(1.0),
    loggamma(10.0, 2.0),
    loggamma(2.0, 2.0),
    loggamma(1.0, 2.0),
]


def test_true_parameters():
    s = burr(1.0, np.sqrt(10.0), np.sqrt(10.0))
    assert s.true_gamma == pytest.approx(0.1, abs=1e-14)
    assert s.true_rho == pytest.approx(-1.0 / np.sqrt(10.0), abs=1e-14)
    assert frechet(2.0).true_gamma == 0.5
    assert frechet(2.0).true_rho == -1.0
    assert loggamma(2.0, 2.0).true_gamma == 0.5
    assert loggamma(2.0, 2.0).true_rho == 0.0
    # strict Pareto has no second-order term at all
    assert pareto(1.0).true_rho == -np.inf


def test_parameter_validation():
    with pytest.raises(NonPositiveError):
        pareto(0.0)
    with pytest.raises(NonPositiveError):
        burr(1.0, -1.0, 2.0)
    with pytest.raises(NonPositiveError):
        burr(0.0, 1.0, 2.0)
    with pytest.raises(NonPositiveError):
        frechet(-2.0)
    with pytest.raises(NonPositiveError):
        loggamma(1.0, 0.0)


def test_parameters_must_be_finite():
    # frechet(inf) would have true gamma 0 and draw samples of all ones
    for make in (lambda: pareto(np.inf), lambda: burr(np.inf, 1.0, 1.0),
                 lambda: burr(1.0, np.inf, 1.0), lambda: burr(1.0, 1.0, np.inf),
                 lambda: frechet(np.inf), lambda: loggamma(np.inf, 1.0),
                 lambda: loggamma(1.0, np.inf)):
        with pytest.raises(NonFiniteError):
            make()
    with pytest.raises(NonPositiveError):  # NaN is not > 0
        pareto(np.nan)
    assert frechet(1e300).true_gamma == 1e-300


def test_true_gamma_must_be_finite():
    # 1/(lam*tau) with lam*tau underflowing to 0, and 1/1e-320 overflowing
    for make in (lambda: burr(1.0, 1e-200, 1e-200), lambda: frechet(1e-320),
                 lambda: burr(1.0, 1e-320, 1.0), lambda: loggamma(1e-320, 1.0)):
        with pytest.raises(NonFiniteError):
            make()
    assert burr(1.0, 1e-154, 1e-154).true_gamma == 1.0 / (1e-154 * 1e-154)
    assert frechet(1e-300).true_gamma == 1.0 / 1e-300


def test_true_rho_must_be_finite():
    # -1/lam overflows below lam ~ 5.6e-309, though 1/(lam*tau) is finite here
    with pytest.raises(NonFiniteError, match="true rho"):
        burr(1.0, 1e308, 1e-320)
    assert burr(1.0, 1.0, 6e-309).true_rho == -1.0 / 6e-309


def test_pareto_quantile_closed_form():
    s = pareto(0.5)
    u = np.array([0.0, 0.3, 0.9, 0.999])
    assert quantile(s, u) == pytest.approx((1.0 - u) ** -0.5, rel=1e-15)


def test_burr_median_hand_value():
    s = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    want = (2.0 ** (1.0 / np.sqrt(2.0)) - 1.0) ** (1.0 / np.sqrt(2.0))
    assert quantile(s, 0.5) == pytest.approx(want, rel=1e-14)


def test_frechet_unit_point():
    assert quantile(frechet(1.0), np.exp(-1.0)) == pytest.approx(1.0, rel=1e-14)
    assert quantile(frechet(3.0), 0.0) == 0.0


def test_loggamma_against_gamma_inverse():
    # independent route: exp of the inverse regularized gamma over rate lam
    s = loggamma(2.0, 3.0)
    u = np.linspace(0.01, 0.99, 23)
    want = np.exp(special.gammaincinv(3.0, u) / 2.0)
    assert quantile(s, u) == pytest.approx(want, rel=1e-12)


def test_support_lower_ends():
    assert quantile(pareto(1.0), 0.0) == 1.0
    assert quantile(burr(1.0, 2.0, 1.0), 0.0) == 0.0
    assert quantile(loggamma(1.0, 1.0), 0.0) == 1.0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family + str(sorted(s.params.items())))
def test_quantile_cdf_round_trip(spec):
    u = np.concatenate([[0.0], np.linspace(0.001, 0.999, 199), [0.999999]])
    back = cdf(spec, quantile(spec, u))
    assert np.max(np.abs(back - u)) < 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS[:6], ids=lambda s: s.family + str(sorted(s.params.items())))
def test_quantile_monotone(spec):
    rng = np.random.default_rng(3)
    u = np.sort(rng.random(500))
    q = quantile(spec, u)
    assert (np.diff(q) >= 0).all()


def test_u_out_of_range():
    s = pareto(1.0)
    for bad in (1.0, -0.1, 1.5):
        with pytest.raises(UOutOfRangeError):
            quantile(s, bad)
    with pytest.raises(UOutOfRangeError):
        quantile(s, np.array([0.5, 1.0]))


def test_quantile_beyond_the_float_range_is_inf_without_a_warning():
    # Q(0.999999) = 1e600 for pareto(100), beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quantile(pareto(100.0), 0.999999) == np.inf
        x = quantile(pareto(100.0), np.array([0.5, 0.999999]))
    with pytest.raises(NonFiniteError):
        validate_and_sort(x)


def test_scalar_in_scalar_out():
    s = burr(1.0, 2.0, 1.0)
    assert isinstance(quantile(s, 0.5), float)
    assert isinstance(cdf(s, 2.0), float)
    assert quantile(s, [0.1, 0.2]).shape == (2,)


def test_cdf_below_support():
    assert cdf(pareto(1.0), 0.5) == 0.0
    assert cdf(pareto(1.0), 1.0) == 0.0
    assert cdf(burr(1.0, 2.0, 1.0), -3.0) == 0.0
    assert cdf(frechet(2.0), 0.0) == 0.0
    assert cdf(loggamma(2.0, 2.0), 1.0) == 0.0


def test_cdf_at_the_extremes_is_quiet_and_typed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cdf(frechet(2.0), 1e-200) == 0.0  # x^-alpha overflows
        assert cdf(burr(1.0, 2.0, 1.0), 1e200) == 1.0  # (x/eta)^tau overflows
        for spec in ALL_SPECS:
            assert cdf(spec, np.inf) == 1.0
            assert cdf(spec, -np.inf) == 0.0
    for x in (np.nan, np.array([2.0, np.nan])):
        with pytest.raises(NonFiniteError):
            cdf(pareto(1.0), x)


def test_loggamma_where_scipy_fails_is_typed_or_clipped():
    # gammaincinv is NaN at a subnormal shape (which loggamma rejects),
    # gammainc at a shape near 1e308, and gammainc exceeds 1 by rounding at a
    # tiny shape
    with pytest.raises(NonPositiveError, match="subnormal"):
        loggamma(2.0, 5e-324)
    with pytest.raises(NonFiniteError, match="gammainc"):
        cdf(loggamma(2.0, 1e308), 1e308)
    assert cdf(loggamma(2.0, 1e-300), np.exp(np.linspace(0.01, 3.0, 300))).max() == 1.0


def test_loggamma_rejects_a_subnormal_alpha():
    """Below the smallest normal float scipy's gammainc reads 0 where F is 1."""
    tiny = np.finfo(np.float64).tiny
    for alpha in (1e-308, 5e-324, np.nextafter(tiny, 0.0)):
        with pytest.raises(NonPositiveError, match="subnormal"):
            loggamma(2.0, alpha)
    spec = loggamma(2.0, tiny)
    assert cdf(spec, np.exp(0.5)) == 1.0
    assert quantile(spec, np.array([0.0, 0.5, 1.0 - 2.0 ** -53])).tolist() == [1.0, 1.0, 1.0]


def test_sample_deterministic_and_positive():
    s = frechet(2.0)
    a = sample(s, 500, seed=99)
    b = sample(s, 500, seed=99)
    c = sample(s, 500, seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert (a > 0).all()


def test_sample_matches_inverse_transform():
    # the sampler must consume exactly one uniform per draw, in order
    s = pareto(2.0)
    got = sample(s, 40, seed=7)
    u = np.random.Generator(np.random.PCG64(7)).random(40)
    assert np.array_equal(got, quantile(s, u))


def test_sample_bad_n():
    with pytest.raises(ValueError):
        sample(pareto(1.0), 0, seed=1)


def test_import_does_not_load_scipy():
    # scipy is needed only by the log-gamma quantile and cdf, and numpy.random
    # only by the first study (montecarlo._seed_state_type)
    code = ("import tailwls, sys; "
            "assert 'scipy' not in sys.modules and 'numpy.random' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True)
