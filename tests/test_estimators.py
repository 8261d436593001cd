import numpy as np
import pytest

from tailwls import (
    DEFAULT_RHO_GRID,
    ESTIMATOR_IDS,
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    LogSpacings,
    NonPositiveError,
    RhoMethod,
    SimulationConfig,
    all_log_spacings,
    bchill,
    burr,
    covariates,
    evi_path,
    hill,
    log_spacings,
    ls_fit,
    optimal_k,
    path_estimates,
    rep_seed,
    resolve_rho,
    ridge_fit,
    run_model_simulation,
    run_simulation,
    sample,
    select_ridge_penalty,
    validate_and_sort,
    weights,
    wls_fit,
    wls_gamma_grid,
)
from tailwls.montecarlo import _model_draw


def _spacings(z, n=None):
    z = np.asarray(z, dtype=float)
    return LogSpacings(z=z, k=len(z), n=n if n is not None else len(z) + 1)


def solve_weighted_normal_equations(z, c, w):
    """Brute-force oracle: solve the 2x2 weighted normal equations directly."""
    X = np.column_stack([np.ones_like(c), c])
    A = X.T @ (w[:, None] * X)
    rhs = X.T @ (w * z)
    gamma, b = np.linalg.solve(A, rhs)
    return gamma, b


def _one_id(z_all, n, est, rho, k_values):
    """The table called for one estimator id: (its path, the RR penalties or None)."""
    paths, penalties = path_estimates(z_all, n, (est,), rho, k_values)
    return paths[est], penalties


def test_hill_is_mean():
    z = _spacings([0.2, 0.8, 0.5])
    assert hill(z) == pytest.approx(0.5, abs=1e-15)


def test_wls_noise_free_recovery():
    c = covariates(3, -1.0)
    z = _spacings(0.5 + 0.2 * c)
    fit = wls_fit(z, -1.0)
    assert fit.gamma_hat == pytest.approx(0.5, abs=1e-12)
    assert fit.b_hat == pytest.approx(0.2, abs=1e-12)
    residuals = z.z - (fit.gamma_hat + fit.b_hat * c)
    assert residuals == pytest.approx(np.zeros(3), abs=1e-12)


def test_constant_spacings_give_zero_slope():
    z = _spacings(np.full(20, 0.7))
    for fit in (wls_fit(z, -1.5), ls_fit(z, -1.5)):
        assert fit.gamma_hat == pytest.approx(0.7, abs=1e-12)
        assert fit.b_hat == pytest.approx(0.0, abs=1e-12)


def test_wls_matches_normal_equations_oracle():
    """WLS closed form against np.linalg.solve on 100 fuzzed inputs."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 200))
        rho = float(-rng.uniform(0.05, 6.0))
        z = _spacings(rng.exponential(scale=rng.uniform(0.1, 3.0), size=k))
        fit = wls_fit(z, rho)
        gamma, b = solve_weighted_normal_equations(
            z.z, covariates(k, rho), weights(k)
        )
        assert abs(fit.gamma_hat - gamma) < 1e-10
        assert abs(fit.b_hat - b) < 1e-10


def test_ls_matches_normal_equations_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        k = int(rng.integers(2, 150))
        rho = float(-rng.uniform(0.1, 4.0))
        z = _spacings(rng.exponential(size=k))
        fit = ls_fit(z, rho)
        gamma, b = solve_weighted_normal_equations(
            z.z, covariates(k, rho), np.full(k, 1.0 / k)
        )
        assert abs(fit.gamma_hat - gamma) < 1e-10
        assert abs(fit.b_hat - b) < 1e-10


def test_fit_residual_orthogonality():
    # normal equations: weighted residuals are orthogonal to (1, C)
    rng = np.random.default_rng(44)
    z = _spacings(rng.exponential(size=30))
    fit = wls_fit(z, -0.8)
    w = weights(30)
    c = covariates(30, -0.8)
    residuals = z.z - (fit.gamma_hat + fit.b_hat * c)
    assert w @ residuals == pytest.approx(0.0, abs=1e-12)
    assert (w * c) @ residuals == pytest.approx(0.0, abs=1e-12)


def test_regression_needs_two_spacings():
    z = _spacings([0.5])
    for f in (wls_fit, ls_fit):
        with pytest.raises(KTooSmallError):
            f(z, -1.0)
    with pytest.raises(KTooSmallError):
        ridge_fit(z, -1.0, 1.0)


@pytest.mark.parametrize("rho", [0.0, 1.0, np.inf, np.nan])
def test_fit_rejects_bad_rho(rho):
    z = _spacings([0.5, 0.6, 0.7])
    with pytest.raises(InvalidRhoError):
        wls_fit(z, rho)


def test_ridge_zero_penalty_is_ls_bitwise():
    rng = np.random.default_rng(46)
    z = _spacings(rng.exponential(size=40))
    r = ridge_fit(z, -1.2, 0.0)
    l = ls_fit(z, -1.2)
    assert r.gamma_hat == l.gamma_hat
    assert r.b_hat == l.b_hat
    assert r.penalty == 0.0 and l.penalty is None


def test_ridge_matches_centered_formula():
    rng = np.random.default_rng(47)
    for _ in range(25):
        k = int(rng.integers(2, 80))
        rho = float(-rng.uniform(0.1, 3.0))
        penalty = float(rng.uniform(0.0, 50.0))
        z = _spacings(rng.exponential(size=k))
        c = covariates(k, rho)
        zbar, cbar = z.z.mean(), c.mean()
        b = ((c - cbar) @ (z.z - zbar)) / (((c - cbar) @ (c - cbar)) + penalty)
        fit = ridge_fit(z, rho, penalty)
        assert abs(fit.b_hat - b) < 1e-10
        assert abs(fit.gamma_hat - (zbar - b * cbar)) < 1e-10


def test_ridge_large_penalty_shrinks_to_hill():
    z = _spacings(np.random.default_rng(48).exponential(size=25))
    fit = ridge_fit(z, -1.0, 1e12)
    assert fit.b_hat == pytest.approx(0.0, abs=1e-9)
    assert fit.gamma_hat == pytest.approx(hill(z), abs=1e-9)


def test_ridge_negative_penalty():
    z = _spacings([0.5, 0.6])
    with pytest.raises(NonPositiveError):
        ridge_fit(z, -1.0, -0.1)


def test_select_ridge_penalty_minimizes_proxy():
    from tailwls import amse
    from tailwls.estimators import RIDGE_PENALTY_FACTORS

    rng = np.random.default_rng(49)
    z = _spacings(rng.exponential(size=60))
    best = select_ridge_penalty(z, -1.0)
    unit = amse(1.0, 60, -1.0)
    scores = {
        f * 60: ridge_fit(z, -1.0, f * 60).gamma_hat ** 2 * unit
        for f in RIDGE_PENALTY_FACTORS
    }
    assert best.penalty in scores
    assert scores[best.penalty] == min(scores.values())


def test_select_ridge_penalty_runs_the_engine_once(monkeypatch):
    """The chosen fit is a row of the penalty block, equal to a ridge_fit rerun."""
    from tailwls import estimators

    rng = np.random.default_rng(50)
    for k in (2, 3, 17, 60, 400):
        z = _spacings(rng.exponential(rng.uniform(0.2, 2.0), size=k))
        rho = -rng.uniform(0.1, 2.5)
        calls = []
        real = estimators._path_fit

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "_path_fit", counted)
        got = select_ridge_penalty(z, rho)
        monkeypatch.setattr(estimators, "_path_fit", real)
        assert len(calls) == 1
        penalty = path_estimates(z.z, z.n, ("RR",), rho, [k])[1][0]
        want = ridge_fit(z, rho, penalty)
        assert (got.gamma_hat, got.b_hat, got.penalty) == (
            want.gamma_hat, want.b_hat, want.penalty)
        assert (got.rho_used, got.k) == (want.rho_used, want.k)


def test_bchill_formula_and_limits():
    z = _spacings(np.full(10, 0.5), n=101)
    # b_hat = 0 leaves Hill untouched
    assert bchill(z, -1.0, 0.0, 101) == pytest.approx(hill(z), abs=1e-15)
    got = bchill(z, -1.0, 0.3, 101)
    want = 0.5 * (1.0 - (0.3 / 2.0) * (101 / 10) ** -1.0)
    assert got == pytest.approx(want, abs=1e-13)


def test_bchill_argument_checks():
    z = _spacings([0.5, 0.4, 0.3])
    with pytest.raises(InvalidRhoError):
        bchill(z, 0.0, 0.1, 100)
    with pytest.raises(KOutOfRangeError):
        bchill(z, -1.0, 0.1, 3)  # n must be >= k+1


def _geometric_tail(r, n):
    # values r^0, r^-1, ..., r^-(n-1): every log-ratio is log r, so Z_j = j*log r
    return validate_and_sort(r ** -np.arange(n, dtype=float))


def test_paths_on_geometric_sample_match_oracle():
    tail = _geometric_tail(1.7, 40)
    logr = np.log(1.7)
    method = RhoMethod.fixed(-1.0)
    ph = evi_path(tail, "HILL", method, 2, 39)
    # Hill(k) = mean of j*logr over j<=k = logr*(k+1)/2
    want = logr * (ph.k_values + 1) / 2.0
    assert ph.estimates == pytest.approx(want, rel=1e-12)
    assert np.isnan(ph.rho)

    pw = evi_path(tail, "WLS", method, 2, 39)
    for i, k in enumerate(pw.k_values):
        z = logr * np.arange(1, k + 1)
        gamma, _ = solve_weighted_normal_equations(
            z, covariates(int(k), -1.0), weights(int(k))
        )
        assert abs(pw.estimates[i] - gamma) < 1e-10
    assert pw.rho == -1.0


def test_evi_path_consistency_with_single_fits():
    rng = np.random.default_rng(50)
    tail = validate_and_sort(rng.pareto(1.2, size=80) + 1.0)
    method = RhoMethod.fixed(-0.7)
    path = evi_path(tail, "WLS", method, 5, 30)
    for i, k in enumerate(path.k_values):
        fit = wls_fit(log_spacings(tail, int(k)), -0.7)
        assert path.estimates[i] == pytest.approx(fit.gamma_hat, abs=1e-13)
    assert path.n == 80
    assert path.rho_method_id == "fixed:-0.7"


def test_evi_path_rr_records_penalties():
    rng = np.random.default_rng(51)
    tail = validate_and_sort(rng.pareto(1.0, size=50) + 1.0)
    path = evi_path(tail, "RR", RhoMethod.fixed(-1.0), 5, 12)
    assert path.penalties is not None
    assert path.penalties.shape == path.estimates.shape


def test_evi_path_bad_arguments():
    tail = validate_and_sort(np.arange(1.0, 21.0))
    with pytest.raises(ValueError):
        evi_path(tail, "NOPE", RhoMethod.fixed(-1.0), 2, 10)
    with pytest.raises(KOutOfRangeError):
        evi_path(tail, "WLS", RhoMethod.fixed(-1.0), 1, 10)
    with pytest.raises(KOutOfRangeError):
        evi_path(tail, "WLS", RhoMethod.fixed(-1.0), 5, 20)
    with pytest.raises(KOutOfRangeError):
        evi_path(tail, "WLS", RhoMethod.fixed(-1.0), 12, 5)


def test_wls_gamma_grid_matches_fits():
    from tailwls import all_log_spacings

    rng = np.random.default_rng(52)
    tail = validate_and_sort(rng.pareto(0.8, size=70) + 1.0)
    z_all = all_log_spacings(tail)
    ks = np.array([5, 10, 33, 69])
    rhos = (-0.5, -1.0, -2.0)
    grid = wls_gamma_grid(z_all, ks, rhos)
    for j, rho in enumerate(rhos):
        for i, k in enumerate(ks):
            fit = wls_fit(log_spacings(tail, int(k)), rho)
            assert grid[j, i] == pytest.approx(fit.gamma_hat, abs=1e-13)


def test_grid_rows_equal_one_rho_runs_bitwise(monkeypatch):
    """Row r of the grid is the one-rho WLS path at rhos[r], bit for bit."""
    from tailwls import estimators

    keys, designs = [], []
    real = estimators._design

    def recorded(rhos, k_max, weighted):
        keys.append(rhos)
        designs.append(real(rhos, k_max, weighted))
        return designs[-1]

    monkeypatch.setattr(estimators, "_design", recorded)
    rng = np.random.default_rng(57)
    for _ in range(30):
        n = int(rng.integers(20, 400))
        z_all = rng.exponential(rng.uniform(0.1, 3.0), size=n - 1)
        contiguous = np.arange(int(rng.integers(2, 10)), n)
        sparse = np.unique(rng.integers(2, n, size=12))
        grid = tuple(-rng.uniform(0.05, 3.0, size=int(rng.integers(2, 8))))
        for k_values in (contiguous, sparse):
            for rhos in (grid[:1], grid[::-1], grid + grid[:1], DEFAULT_RHO_GRID):
                want = np.array([estimators._path_fit(z_all, k_values, rho, True)[0]
                                 for rho in rhos])
                for given in (list(rhos), np.array(rhos)):
                    got = wls_gamma_grid(z_all, k_values, given)
                    assert got.shape == (len(rhos), len(k_values))
                    assert np.array_equal(got, want)
    assert all(type(key) is tuple and all(type(rho) is float for rho in key)
               for key in keys)
    # integer and numpy rhos share the float key of the same grid
    estimators._designs.clear()
    for given in ((-1, -2), [np.float64(-1.0), -2.0], np.array([-1.0, -2.0])):
        wls_gamma_grid(z_all, contiguous, given)
    assert keys[-3:] == [(-1.0, -2.0)] * 3
    assert designs[-1] is designs[-2] is designs[-3]  # one build (miss), then two hits
    # a block of samples puts the rho axis first, each row still its one-rho path
    block = rng.exponential(size=(3, n - 1))
    got = estimators._path_fit(block, contiguous, grid, True)[0]
    assert got.shape == (len(grid), 3, len(contiguous))
    for r, rho in enumerate(grid):
        for row in range(3):
            want = estimators._path_fit(block[row], contiguous, rho, True)[0]
            assert np.array_equal(got[r, row], want)


def test_design_cache_keeps_16_rho_rows_and_evicts_the_least_recent(monkeypatch):
    from tailwls import estimators

    monkeypatch.setattr(estimators, "_designs", {})
    singles = [(-0.1 * (i + 1),) for i in range(16)]
    for rhos in singles:
        estimators._design(rhos, 30, True)
    first = estimators._design(singles[0], 30, True)  # a hit makes it the most recent
    assert estimators._design(singles[0], 30, True) is first
    grid = tuple(-0.25 * (i + 1) for i in range(7))
    estimators._design(grid, 30, True)
    # 7 rows need room: the 7 least recent singles go, singles[0] was used last
    assert list(estimators._designs) == [(rhos, 30, True) for rhos in
                                         singles[8:] + [singles[0], grid]]
    assert sum(len(key[0]) for key in estimators._designs) == 16
    big = tuple(-0.05 * (i + 1) for i in range(20))
    estimators._design(big, 30, True)  # a grid of more than 16 rhos is kept alone
    assert list(estimators._designs) == [(big, 30, True)]


def test_grid_call_runs_the_engine_once(monkeypatch):
    """One grid call is one engine run with two prefix sums, however many rhos."""
    from tailwls import estimators

    tail = validate_and_sort(sample(burr(1.0, np.sqrt(2.0), np.sqrt(2.0)), 200, 5))
    z_all, k_values = all_log_spacings(tail), np.arange(20, 180)
    wls_gamma_grid(z_all, k_values, DEFAULT_RHO_GRID)  # fills the design cache
    engine, sums = [], []
    real_fit, real_sums = estimators._path_fit, estimators._prefix_sums

    def fit(*args, **kwargs):
        engine.append(args[2])
        return real_fit(*args, **kwargs)

    def prefix_sums(*args):
        sums.append(args[0].shape)
        return real_sums(*args)

    monkeypatch.setattr(estimators, "_path_fit", fit)
    monkeypatch.setattr(estimators, "_prefix_sums", prefix_sums)
    wls_gamma_grid(z_all, k_values, DEFAULT_RHO_GRID)
    assert engine == [DEFAULT_RHO_GRID]
    # zbar once per sample, then the (rho, k) block of slope sums
    assert sums == [z_all.shape, (len(DEFAULT_RHO_GRID), 179)]
    engine.clear()
    sums.clear()
    resolve_rho(tail, RhoMethod.min_variance())
    assert len(engine) == 1 and len(sums) == 2


def test_wls_gamma_grid_errors():
    z_all = all_log_spacings(validate_and_sort(np.arange(1.0, 21.0)))
    with pytest.raises(KTooSmallError):
        wls_gamma_grid(z_all, [1, 5], DEFAULT_RHO_GRID)
    with pytest.raises(KOutOfRangeError):
        wls_gamma_grid(z_all, [5, 20], DEFAULT_RHO_GRID)
    with pytest.raises(InvalidRhoError):
        wls_gamma_grid(z_all, [5, 19], (-1.0, 0.0))
    with pytest.raises(InvalidRhoError):  # overflows the covariate sums
        wls_gamma_grid(z_all, [5, 19], (-1.0, -400.0))
    with pytest.raises(EmptyOrTinyError):
        wls_gamma_grid(z_all, [5, 19], [])


def test_optimal_k_picks_smallest_on_ties():
    assert optimal_k([(10, 0.5), (4, 0.25), (7, 0.25)]) == (4, 0.25)
    assert optimal_k([(3, 1.0)]) == (3, 1.0)


def test_optimal_k_empty():
    with pytest.raises(EmptyOrTinyError):
        optimal_k([])


def test_all_callers_share_one_table():
    """Paths, sampling cells and model cells are the same computation, bit for bit."""
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    method = RhoMethod.fixed(-1.0)
    tail = validate_and_sort(sample(spec, 200, rep_seed(3, 0)))
    summary = run_simulation(SimulationConfig(
        spec=spec, n=200, reps=1, k_min=10, k_max=150,
        estimators=ESTIMATOR_IDS, rho_method=method, master_seed=3,
    ))
    z_model = _model_draw(0.5, 0.1, -1.0, 100)([rep_seed(3, 0)])[0][0]
    model = run_model_simulation(0.5, 0.1, -1.0, 100, reps=1,
                                 estimators=ESTIMATOR_IDS, master_seed=3, n=200)
    for e, est in enumerate(ESTIMATOR_IDS):
        path = evi_path(tail, est, method, 10, 150)
        assert np.array_equal(summary.mean[e], path.estimates), est
        want, _ = _one_id(z_model, 200, est, -1.0, [100])
        assert np.array_equal(model.mean[e], want), est


def test_path_estimates_errors():
    z_all = all_log_spacings(validate_and_sort(np.arange(1.0, 21.0)))
    with pytest.raises(ValueError):
        _one_id(z_all, 20, "NOPE", -1.0, [5])
    for est in ("BCHILL", "LS", "RR", "WLS"):
        with pytest.raises(KTooSmallError):
            _one_id(z_all, 20, est, -1.0, [1, 2])
    with pytest.raises(ValueError):
        _one_id(z_all, None, "BCHILL", -1.0, [5])
    hill_path, penalties = _one_id(z_all, 20, "HILL", None, [1, 2])
    assert hill_path[0] == z_all[0] and penalties is None
    # the k range is checked at both ends, for every estimator
    with pytest.raises(KOutOfRangeError):
        _one_id(z_all, 20, "HILL", None, [0, 1])
    for est in ESTIMATOR_IDS:
        with pytest.raises(KOutOfRangeError):
            _one_id(z_all, 20, est, -1.0, [5, 20])


def test_set_table_equals_one_id_calls_bitwise():
    """Every estimator set gives each id the path of its one-id call, bit for bit.

    A (rows, n - 1) block gives each row the paths of its own 1-D call.
    """
    from itertools import combinations

    rng, block_rng = np.random.default_rng(54), np.random.default_rng(55)
    subsets = [c for r in range(1, 6) for c in combinations(ESTIMATOR_IDS, r)]
    assert len(subsets) == 31
    for rows in (1, 3, 7, 5):  # 7 rows, as many as RR's penalties, must not broadcast
        n = int(rng.integers(20, 400))
        z_all = rng.exponential(rng.uniform(0.1, 3.0), size=n - 1)
        k_values = np.arange(int(rng.integers(2, 10)), n)
        rho = -rng.uniform(0.05, 3.0)
        block = np.vstack([z_all, block_rng.exponential(size=(rows - 1, n - 1))])
        single = {est: _one_id(z_all, n, est, rho, k_values) for est in ESTIMATOR_IDS}
        per_row = [{est: _one_id(row, n, est, rho, k_values) for est in ESTIMATOR_IDS}
                   for row in block]
        for ids in subsets:
            paths, penalties = path_estimates(z_all, n, ids, rho, k_values)
            assert list(paths) == list(ids)
            for est in ids:
                assert np.array_equal(paths[est], single[est][0]), (ids, est)
            if "RR" in ids:
                assert np.array_equal(penalties, single["RR"][1])
            else:
                assert penalties is None
            paths, penalties = path_estimates(block, n, ids, rho, k_values)
            assert list(paths) == list(ids)
            for est in ids:
                assert paths[est].shape == (rows, len(k_values))
                for r, want in enumerate(per_row):
                    assert np.array_equal(paths[est][r], want[est][0]), (ids, est, r)
            if "RR" in ids:
                assert np.array_equal(penalties, [want["RR"][1] for want in per_row])
            else:
                assert penalties is None
            # an unresolved rho leaves out every id but HILL
            for z in (z_all, block):
                paths, penalties = path_estimates(z, n, ids, None, k_values)
                assert list(paths) == (["HILL"] if "HILL" in ids else [])
                assert penalties is None
            if "HILL" in ids:
                assert np.array_equal(paths["HILL"],
                                      [want["HILL"][0] for want in per_row])


def test_path_entries_equal_single_fits_bitwise():
    """Every path entry is the single-k view at that k, bit for bit, on fuzzed inputs."""
    rng = np.random.default_rng(53)
    for _ in range(2000):
        n = int(rng.integers(4, 301))
        z_all = rng.exponential(rng.uniform(0.1, 3.0), size=n - 1)
        k_values = np.arange(2, n)
        k = int(rng.integers(2, n))
        z = _spacings(z_all[:k].copy(), n=n)
        at_k = {est: _one_id(z_all, n, est, -0.9, k_values)
                for est in ESTIMATOR_IDS}
        assert at_k["HILL"][0][k - 2] == hill(z)
        if k % 10:
            continue  # the regressions on every tenth input
        rr = select_ridge_penalty(z, -0.9)
        assert at_k["WLS"][0][k - 2] == wls_fit(z, -0.9).gamma_hat
        assert at_k["LS"][0][k - 2] == ls_fit(z, -0.9).gamma_hat
        assert at_k["RR"][0][k - 2] == rr.gamma_hat
        assert at_k["RR"][1][k - 2] == rr.penalty
        assert at_k["BCHILL"][0][k - 2] == bchill(z, -0.9, wls_fit(z, -0.9).b_hat, n)


def test_paths_match_oracle_at_scale():
    """WLS and LS paths on n = 20 000 agree with np.linalg.solve to 1e-9 of the path's scale."""
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    z_all = all_log_spacings(validate_and_sort(sample(spec, 20_000, 11)))
    k_values = np.arange(2, z_all.size + 1, 97)
    for rho in DEFAULT_RHO_GRID + (-0.05, -8.0):
        for est, uniform in (("WLS", False), ("LS", True)):
            got, _ = _one_id(z_all, 20_000, est, rho, k_values)
            want = np.array([
                solve_weighted_normal_equations(
                    z_all[:k], covariates(k, rho),
                    np.full(k, 1.0 / k) if uniform else weights(k),
                )[0]
                for k in k_values
            ])
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (est, rho)


def test_extreme_rho_matches_oracle_or_raises():
    """rho = -50 still matches the direct fit; at rho = -100 the covariate sums overflow."""
    z_all = all_log_spacings(validate_and_sort(sample(burr(1.0, 2.0, 1.0), 1000, 12)))
    k_values = np.arange(2, 1000)
    for est in ("WLS", "LS"):
        got, _ = _one_id(z_all, 1000, est, -50.0, k_values)
        for k in k_values:
            w = weights(k) if est == "WLS" else np.full(k, 1.0 / k)
            want, _ = solve_weighted_normal_equations(z_all[:k], covariates(k, -50.0), w)
            assert abs(got[k - 2] - want) <= 1e-12 * abs(want), (est, k)
    for est in ("BCHILL", "LS", "RR", "WLS"):
        with pytest.raises(InvalidRhoError):
            _one_id(z_all, 1000, est, -100.0, k_values)


def test_underflowing_covariate_sums_raise():
    """Below |rho| ~ 1e-154 S2 is subnormal or 0, which would give inf or NaN estimates."""
    from tailwls.estimators import check_covariate_sums

    z_all = all_log_spacings(validate_and_sort(sample(burr(1.0, 2.0, 1.0), 200, 4)))
    k_values = np.arange(2, 200)
    for est in ("BCHILL", "LS", "RR", "WLS"):
        got, _ = _one_id(z_all, 200, est, -1e-150, k_values)
        assert np.isfinite(got).all(), est
        for rho in (-1e-155, -1e-170, -1e-300):
            with pytest.raises(InvalidRhoError, match="underflows"):
                _one_id(z_all, 200, est, rho, k_values)
            with pytest.raises(InvalidRhoError, match="underflows"):
                check_covariate_sums(rho, 2, ("HILL", est))
    check_covariate_sums(-1e-300, 2, ("HILL",))


def test_paths_stay_accurate_as_rho_approaches_zero():
    """Near rho = 0 the paths match a centred two-pass fit to 1e-10.

    The oracle takes C_j - 1 from expm1, so it does not cancel; the plain
    sum w C^2 - S1^2 loses about 5e-8 here.
    """
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    z_all = all_log_spacings(validate_and_sort(sample(spec, 1000, 3)))
    for rho in (-1e-3, -1e-4):
        for est in ("WLS", "LS"):
            got, _ = _one_id(z_all, 1000, est, rho, np.arange(10, 1000, 70))
            for g, k in zip(got, range(10, 1000, 70)):
                w = weights(k) if est == "WLS" else np.full(k, 1.0 / k)
                cm1 = np.expm1(-rho * np.log(np.arange(1, k + 1) / (k + 1.0)))
                d = cm1 - w @ cm1
                b = (w * d) @ z_all[:k] / ((w * d) @ d)
                want = w @ z_all[:k] - b * (1.0 + w @ cm1)
                assert abs(g - want) <= 1e-10 * abs(want), (est, rho, k)
