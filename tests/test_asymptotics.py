import numpy as np
import pytest

from tailwls import (
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NonFiniteError,
    NonPositiveError,
    TailwlsError,
    amse,
    covariates,
    normality_report,
    pareto,
    path_estimates,
    run_model_simulation,
    s1_limit,
    s2_limit,
    s_moments,
    standardized_statistic,
    weights,
)


def test_s_moments_exact_values_k2():
    # k=2, rho=-1: weights (2/3, 1/3), covariates (1/3, 2/3); all sums rational
    m = s_moments(2, -1.0)
    assert m.s1 == pytest.approx(4 / 9, abs=1e-15)
    assert m.s2 == pytest.approx(2 / 81, abs=1e-15)
    assert m.s_dot == pytest.approx(2 / 81, abs=1e-15)
    assert m.s_ddot == pytest.approx(8 / 729, abs=1e-15)


def test_limit_values():
    assert s1_limit(-1.0) == pytest.approx(1 / 3, abs=1e-15)
    assert s2_limit(-1.0) == pytest.approx(1 / 18, abs=1e-15)
    assert s1_limit(-0.5) == pytest.approx(2 / (1.5 * 2.5), abs=1e-15)
    assert s2_limit(-0.5) == pytest.approx(0.25 * 5.5 / (2 * 2.25 * 6.25), abs=1e-15)


@pytest.mark.parametrize("rho", [-0.5, -1.0, -2.0])
def test_s_moments_converge_to_limits(rho):
    m = s_moments(10**5, rho)
    assert abs(m.s1 - s1_limit(rho)) < 1e-3
    assert abs(m.s2 - s2_limit(rho)) < 1e-3
    assert abs(m.s_dot) < 1e-3
    assert abs(m.s_ddot) < 1e-3


@pytest.mark.parametrize("rho", [-0.3, -1.0, -2.5])
@pytest.mark.parametrize("k", [2, 10, 500])
def test_s_moments_ranges(k, rho):
    m = s_moments(k, rho)
    assert 0.0 < m.s1 < 1.0
    assert m.s2 > 0.0
    assert m.s_ddot >= 0.0


def test_s_moments_argument_errors():
    with pytest.raises(KTooSmallError):
        s_moments(1, -1.0)
    with pytest.raises(InvalidRhoError):
        s_moments(10, 0.0)


def test_amse_exact_value_k2():
    # 4/6 + 2*(4/9)(2/81)/(2/81) + (4/9)^2 (8/729)/(2/81)^2 = 2/3 + 8/9 + 32/9
    assert amse(1.0, 2, -1.0) == pytest.approx(46 / 9, rel=1e-13)


def test_amse_limit_is_24_over_5_at_rho_minus_1():
    """k * amse(1, k, -1) tends to 24/5, the hand-derived limit.

    The influence weights have the limit profile a(u) = 2(1-u)(3-6u), so
    k sum a_j^2 -> 4 int_0^1 (1-u)^2 (3-6u)^2 du = 24/5; the paper's 4/3 is
    the sum w_j^2 term alone.
    """
    k = 100_000
    assert abs(k * amse(1.0, k, -1.0) - 24 / 5) < 1e-3


def test_amse_scales_with_gamma_squared():
    assert amse(2.0, 50, -1.0) == pytest.approx(4.0 * amse(1.0, 50, -1.0), rel=1e-13)


# 1e154 at k = 2: gamma^2 is finite, and times the unit AMSE 46/9 it overflows
@pytest.mark.parametrize("gamma, k", [(1e155, 10), (1e200, 10), (-1e300, 10), (1e154, 2)])
def test_amse_overflowing_gamma_is_a_typed_error(gamma, k):
    with pytest.raises(NonFiniteError) as info:
        amse(gamma, k, -1.0)
    assert isinstance(info.value, TailwlsError) and "gamma^2 overflows" in str(info.value)
    assert amse(1e150, 10, -1.0) == 5.5030303030303024e+299


# S2 at k = 2 is 2 v_2^2 / 9 with v_2 = 2^(-rho) - 1: about 1e-301 at rho = -1e-150
# and 1e-201 at -1e-100, normal floats whose squares underflow to 0. At rho = -800
# v_2^2 overflows, so the design, and with it s_moments, rejects that rho.
@pytest.mark.parametrize("rho", [-1e-150, -800.0, -1e-100])
def test_amse_at_an_underflowing_s2_is_a_typed_error(rho):
    if rho == -800.0:
        with pytest.raises(InvalidRhoError, match="overflows"):
            s_moments(2, rho)
        with pytest.raises(InvalidRhoError, match="overflows"):
            amse(1.0, 2, rho)
        return
    m = s_moments(2, rho)
    assert 0.0 < m.s2 < 1e-150
    with pytest.raises(InvalidRhoError, match="too small"):
        m.amse(1.0)
    with pytest.raises(InvalidRhoError, match="too small"):
        amse(1.0, 2, rho)


@pytest.mark.parametrize("rho", [-1e-8, -1e-10])
@pytest.mark.parametrize("k", [2, 3, 10, 50])
def test_s2_keeps_its_rho_squared_limit_near_rho_0(k, rho):
    """As rho -> 0, C_j = 1 - rho log(j/(k+1)) + O(rho^2), so S2 / rho^2 tends to
    the w-weighted variance of log(j/(k+1)); Sum w_j C_j^2 - S1^2 read noise there."""
    w, log_u = weights(k), np.log(np.arange(1, k + 1) / (k + 1))
    want = w @ (log_u - w @ log_u) ** 2
    assert s_moments(k, rho).s2 / rho**2 == pytest.approx(want, rel=1e-6)


def test_prefix_sums_match_the_direct_dot_products():
    """The four sums against their definitions, summed per k over length-k arrays."""
    k = np.arange(2, 401)
    for rho in (-0.5, -1.0, -2.0):
        m = s_moments(k, rho)
        for i, kk in enumerate(k):
            w, c = weights(kk), covariates(kk, rho)
            s1 = w @ c
            d = s1 - c
            want = (s1, w @ (c - s1) ** 2, (w * w) @ d, (w * w) @ (d * d))
            got = (m.s1[i], m.s2[i], m.s_dot[i], m.s_ddot[i])
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (rho, kk)


def test_array_k_equals_each_single_k_bit_for_bit():
    k = np.arange(2, 301)
    for rho in (-0.25, -1.0, -3.0):
        block = s_moments(k, rho)
        assert np.array_equal(block.k, k) and block.rho == rho
        singles = [s_moments(int(j), rho) for j in k]
        for field in ("s1", "s2", "s_dot", "s_ddot"):
            want = [getattr(m, field) for m in singles]
            assert all(type(x) is float for x in want)
            assert np.array_equal(getattr(block, field), want), (rho, field)
        for gamma in (1.0, 2.5):
            want = [m.amse(gamma) for m in singles]
            assert all(type(x) is float for x in want)
            assert np.array_equal(block.amse(gamma), want), (rho, gamma)


def test_s_moments_rejects_a_rho_every_fit_rejects():
    # v_100^2 = (100^100 - 1)^2 overflows
    with pytest.raises(InvalidRhoError, match="overflows"):
        path_estimates(np.ones(100), 101, ("WLS",), -100.0, [2, 100])
    with pytest.raises(InvalidRhoError, match="overflows"):
        s_moments(100, -100.0)
    with pytest.raises(InvalidRhoError, match="overflows"):
        s_moments(np.arange(2, 101), -100.0)
    # the design's v_2^2 = (2^511.9 - 1)^2 is finite, but 2 P3(v^2)_2 = 2 v_2^2 is not
    with pytest.raises(InvalidRhoError, match="overflows the weight-moment sums up to k=2"):
        s_moments(2, -511.9)


def test_array_errors_name_the_first_k_at_fault():
    # 1e154^2 times the unit AMSE overflows at k = 2 and 3 (46/9, 23/9) but not at k = 4
    with pytest.raises(NonFiniteError, match=r"^gamma=1e\+154: .* at k=2$"):
        s_moments(np.arange(2, 20), -1.0).amse(1e154)
    assert np.isfinite(s_moments(np.arange(4, 20), -1.0).amse(1e154)).all()
    with pytest.raises(InvalidRhoError, match=r"at k=2 is too small"):
        s_moments(np.arange(2, 20), -1e-100).amse(1.0)
    with pytest.raises(KTooSmallError, match="k=1"):
        s_moments(np.arange(1, 20), -1.0)


def test_amse_matches_moment_formula():
    for k, rho in ((5, -0.5), (40, -1.0), (333, -2.2)):
        m = s_moments(k, rho)
        want = 4 / (3 * k) + 2 * m.s1 * m.s_dot / m.s2 + m.s1**2 * m.s_ddot / m.s2**2
        assert amse(1.0, k, rho) == pytest.approx(want, rel=1e-13)


def test_variance_identity_against_influence_weights():
    """The moment sums reproduce the exact fit variance sum a_j^2.

    gamma_hat is the linear combination sum a_j Z_j with
    a_j = w_j (1 + (S1^2 - S1 C_j)/S2), so under unit-variance noise its
    variance is sum a_j^2 = sum w_j^2 + 2 S1 S_dot/S2 + S1^2 S_ddot/S2^2.
    """
    for k, rho in ((10, -0.5), (100, -1.0), (47, -2.0)):
        w = weights(k)
        c = covariates(k, rho)
        m = s_moments(k, rho)
        a = w * (1 + (m.s1**2 - m.s1 * c) / m.s2)
        via_moments = w @ w + 2 * m.s1 * m.s_dot / m.s2 + m.s1**2 * m.s_ddot / m.s2**2
        assert a @ a == pytest.approx(via_moments, rel=1e-12)


def test_empirical_variance_matches_exact_identity():
    """Monte Carlo variance of the fit agrees with sum a_j^2, not with 4/(3k).

    At k=100, rho=-1 the exact coefficient sum is about 0.0486, more than
    three times 4/(3k); the correction sums decay like 1/k and never become
    negligible relative to the leading term.
    """
    k = 100
    w = weights(k)
    c = covariates(k, -1.0)
    m = s_moments(k, -1.0)
    a = w * (1 + (m.s1**2 - m.s1 * c) / m.s2)
    exact = float(a @ a)
    s = run_model_simulation(1.0, 0.0, -1.0, k, 4000, ("WLS",), master_seed=7)
    got = s.cell("WLS", k)["variance"]
    assert got == pytest.approx(exact, rel=0.12)
    assert exact > 3.0 * 4 / (3 * k)


def test_standardized_statistic_hand_value():
    # sqrt(3*75) = 15, so (1.2 - 1)/2 scales to 1.5
    assert standardized_statistic(1.2, 1.0, 75) == pytest.approx(1.5, abs=1e-13)
    assert standardized_statistic(1.0, 1.0, 10) == 0.0


def test_standardized_statistic_errors():
    with pytest.raises(NonPositiveError):
        standardized_statistic(1.0, 0.0, 10)
    with pytest.raises(KOutOfRangeError):
        standardized_statistic(1.0, 1.0, 0)
    with pytest.raises(KOutOfRangeError, match="^k=10.7 must be an integer$"):
        standardized_statistic(1.0, 1.0, 10.7)  # int() made it k = 10


@pytest.mark.parametrize("gamma, error", [(np.nan, NonPositiveError), (-1.0, NonPositiveError),
                                          (0.0, NonPositiveError), (np.inf, NonFiniteError)])
def test_gamma_inputs_are_checked(gamma, error):
    """amse and standardized_statistic share the distributions' positivity check."""
    with pytest.raises(error, match="gamma"):
        amse(gamma, 10, -1.0)
    with pytest.raises(error, match="gamma"):
        s_moments(np.arange(2, 12), -1.0).amse(gamma)
    with pytest.raises(error, match="gamma_true"):
        standardized_statistic(1.0, gamma, 10)


def test_standardized_statistic_that_is_not_finite_raises():
    # at k = 1, 5e307 from 1e308 is finite and 2 * 1e308 is not: the quotient would read -0.0
    for gamma_hat, gamma, k in ((1e308, 1.0, 10), (1.0, 1e-308, 10), (1.0, 1e308, 10),
                                ([1.0, np.nan], 1.0, 10), (np.inf, 1.0, 10), (5e307, 1e308, 1)):
        with pytest.raises(NonFiniteError, match="not finite"):
            standardized_statistic(gamma_hat, gamma, k)
    assert standardized_statistic(8e307, 8e307, 1) == 0.0


def test_normality_report_model_mode():
    rep = normality_report(2000, 500, master_seed=8, gamma=2.0, b=0.0, rho=-1.0)
    assert rep.reps == 2000 and rep.k == 500
    se = np.sqrt(rep.sample_variance / rep.reps)
    assert abs(rep.sample_mean) < 3 * se
    # the statistic's spread sits near 18/5, not 1 (slope fluctuation counts)
    assert 3.2 < rep.sample_variance < 4.1
    assert abs(rep.skewness) < 0.5
    assert rep.config["mode"] == "model"


def test_normality_report_sampling_mode():
    rep = normality_report(1000, 200, master_seed=4, spec=pareto(1.0), n=500)
    assert 3.0 < rep.sample_variance < 4.0
    assert abs(rep.sample_mean) < 0.2
    assert rep.config["mode"] == "sampling"
    assert rep.config["family"] == "pareto"


def test_normality_report_deterministic():
    a = normality_report(200, 50, master_seed=3, gamma=1.0)
    b = normality_report(200, 50, master_seed=3, gamma=1.0)
    assert a.sample_mean == b.sample_mean
    assert a.excess_kurtosis == b.excess_kurtosis


def test_normality_report_argument_errors():
    with pytest.raises(ValueError):
        normality_report(50, 100, gamma=1.0)
    with pytest.raises(NonPositiveError):
        normality_report(200, 100)  # model mode without gamma
    with pytest.raises(KOutOfRangeError):
        normality_report(200, 100, spec=pareto(1.0))  # sampling mode without n
    with pytest.raises(NonPositiveError):
        normality_report(200, 100, gamma=0.1, b=-1.0, rho=-1.0)
    with pytest.raises(KTooSmallError):
        normality_report(200, 1, gamma=1.0)  # the WLS fit needs k >= 2
