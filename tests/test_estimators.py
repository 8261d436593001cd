import re

import numpy as np
import pytest

from tailwls import (
    DEFAULT_RHO_GRID,
    ESTIMATOR_IDS,
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NonFiniteError,
    RhoMethod,
    SimulationConfig,
    burr,
    covariates,
    optimal_k,
    pareto,
    path_estimates,
    rep_seed,
    resolve_rho,
    run_model_simulation,
    run_simulation,
    sample,
    validate_and_sort,
    weights,
)
from tailwls.asymptotics import s_moments
from tailwls.estimators import check_estimators, needs_rho
from tailwls.montecarlo import _model_draw, _rep_seeds, _sampling_draw, _seed_states
from tailwls.spacings import check_k_range


def _spacings(z):
    return np.asarray(z, dtype=float)


def solve_weighted_normal_equations(z, c, w):
    """Brute-force oracle: solve the 2x2 weighted normal equations directly."""
    X = np.column_stack([np.ones_like(c), c])
    A = X.T @ (w[:, None] * X)
    rhs = X.T @ (w * z)
    gamma, b = np.linalg.solve(A, rhs)
    return gamma, b


def _one_id(z_all, n, est, rho, k_values):
    """The table called for one estimator id: (its path, the RR penalties or None)."""
    table = path_estimates(z_all, n, (est,), rho, k_values)
    return table.paths[est], table.penalties


def _at_k(z, est, rho):
    """(gamma_hat, b_hat) of LS or WLS at k = len(z): one table call at [k]."""
    table = path_estimates(z, None, (est,), rho, [len(z)])
    return table.paths[est][0], table.slopes[est][0]


def _ridge(z, rho, penalty):
    """(gamma_hat, b_hat) of the ridge fit at k = len(z): the engine with shrink penalty/k."""
    from tailwls import estimators

    k = len(z)
    design = estimators._design((float(rho),), np.array([k]), False)
    gamma_hat, b_hat = estimators._path_fit(z, estimators._prefix_sums(z, k, False), design,
                                            penalty / k)
    return gamma_hat[0], b_hat[0]


def test_hill_is_mean():
    """The HILL path is the cumulative mean of the spacings."""
    path, penalties = _one_id(np.array([0.2, 0.8, 0.5]), 4, "HILL", None, [1, 2, 3])
    assert path == pytest.approx([0.2, 0.5, 0.5], abs=1e-15)
    assert penalties is None


def test_wls_noise_free_recovery():
    c = covariates(3, -1.0)
    z = _spacings(0.5 + 0.2 * c)
    gamma_hat, b_hat = _at_k(z, "WLS", -1.0)
    assert gamma_hat == pytest.approx(0.5, abs=1e-12)
    assert b_hat == pytest.approx(0.2, abs=1e-12)
    residuals = z - (gamma_hat + b_hat * c)
    assert residuals == pytest.approx(np.zeros(3), abs=1e-12)


def test_constant_spacings_give_zero_slope():
    z = _spacings(np.full(20, 0.7))
    for est in ("WLS", "LS"):
        gamma_hat, b_hat = _at_k(z, est, -1.5)
        assert gamma_hat == pytest.approx(0.7, abs=1e-12)
        assert b_hat == pytest.approx(0.0, abs=1e-12)


def test_wls_matches_normal_equations_oracle():
    """WLS closed form against np.linalg.solve on 100 fuzzed inputs."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 200))
        rho = float(-rng.uniform(0.05, 6.0))
        z = _spacings(rng.exponential(scale=rng.uniform(0.1, 3.0), size=k))
        gamma_hat, b_hat = _at_k(z, "WLS", rho)
        gamma, b = solve_weighted_normal_equations(
            z, covariates(k, rho), weights(k)
        )
        assert abs(gamma_hat - gamma) < 1e-10
        assert abs(b_hat - b) < 1e-10


def test_ls_matches_normal_equations_oracle():
    rng = np.random.default_rng(43)
    for _ in range(40):
        k = int(rng.integers(2, 150))
        rho = float(-rng.uniform(0.1, 4.0))
        z = _spacings(rng.exponential(size=k))
        gamma_hat, b_hat = _at_k(z, "LS", rho)
        gamma, b = solve_weighted_normal_equations(
            z, covariates(k, rho), np.full(k, 1.0 / k)
        )
        assert abs(gamma_hat - gamma) < 1e-10
        assert abs(b_hat - b) < 1e-10


def test_fit_residual_orthogonality():
    # normal equations: weighted residuals are orthogonal to (1, C)
    rng = np.random.default_rng(44)
    z = _spacings(rng.exponential(size=30))
    gamma_hat, b_hat = _at_k(z, "WLS", -0.8)
    w = weights(30)
    c = covariates(30, -0.8)
    residuals = z - (gamma_hat + b_hat * c)
    assert w @ residuals == pytest.approx(0.0, abs=1e-12)
    assert (w * c) @ residuals == pytest.approx(0.0, abs=1e-12)


def test_regression_needs_two_spacings():
    z = _spacings([0.5])
    for est in ("WLS", "LS", "RR"):
        with pytest.raises(KTooSmallError):
            path_estimates(z, None, (est,), -1.0, [1])


@pytest.mark.parametrize("rho", [0.0, 1.0, np.inf, np.nan])
def test_fit_rejects_bad_rho(rho):
    z = _spacings([0.5, 0.6, 0.7])
    with pytest.raises(InvalidRhoError):
        _at_k(z, "WLS", rho)


def test_ridge_zero_penalty_is_ls_bitwise():
    rng = np.random.default_rng(46)
    z = _spacings(rng.exponential(size=40))
    r = _ridge(z, -1.2, 0.0)
    l = _at_k(z, "LS", -1.2)
    assert r[0] == l[0]
    assert r[1] == l[1]


def test_ridge_matches_centered_formula():
    rng = np.random.default_rng(47)
    for _ in range(25):
        k = int(rng.integers(2, 80))
        rho = float(-rng.uniform(0.1, 3.0))
        penalty = float(rng.uniform(0.0, 50.0))
        z = _spacings(rng.exponential(size=k))
        c = covariates(k, rho)
        zbar, cbar = z.mean(), c.mean()
        b = ((c - cbar) @ (z - zbar)) / (((c - cbar) @ (c - cbar)) + penalty)
        gamma_hat, b_hat = _ridge(z, rho, penalty)
        assert abs(b_hat - b) < 1e-10
        assert abs(gamma_hat - (zbar - b * cbar)) < 1e-10


def test_ridge_large_penalty_shrinks_to_hill():
    z = _spacings(np.random.default_rng(48).exponential(size=25))
    gamma_hat, b_hat = _ridge(z, -1.0, 1e12)
    assert b_hat == pytest.approx(0.0, abs=1e-9)
    assert gamma_hat == pytest.approx(z.mean(), abs=1e-9)


def test_rr_choice_minimizes_proxy():
    """RR keeps the penalty whose ridge fit ranks lowest by gamma_hat^2 * amse(1, k, rho)."""
    from tailwls import amse
    from tailwls.estimators import RIDGE_PENALTY_FACTORS

    rng = np.random.default_rng(49)
    z = _spacings(rng.exponential(size=60))
    rr, penalties = _one_id(z, 61, "RR", -1.0, [60])
    unit = amse(1.0, 60, -1.0)
    scores = {
        f * 60: _ridge(z, -1.0, f * 60)[0] ** 2 * unit
        for f in RIDGE_PENALTY_FACTORS
    }
    assert penalties[0] in scores
    assert scores[penalties[0]] == min(scores.values())
    assert rr[0] == _ridge(z, -1.0, penalties[0])[0]


def test_bchill_formula_and_limits():
    """BCHILL is the HILL path times 1 - (b_hat / (1 - rho)) * (n/k)^rho, b_hat the WLS slope."""
    z = _spacings(np.full(10, 0.5))
    # constant spacings: the WLS slope is 0, which leaves Hill untouched
    paths = path_estimates(z, 101, ("HILL", "BCHILL"), -1.0, [10]).paths
    assert paths["BCHILL"][0] == pytest.approx(paths["HILL"][0], abs=1e-15)
    z = _spacings(np.random.default_rng(56).exponential(size=10))
    table = path_estimates(z, 101, ("HILL", "BCHILL", "WLS"), -1.0, [10])
    slope = table.slopes["WLS"][0]
    want = table.paths["HILL"][0] * (1.0 - (slope / 2.0) * (101 / 10) ** -1.0)
    assert table.paths["BCHILL"][0] == pytest.approx(want, rel=1e-13)


def test_bchill_argument_checks():
    z_all = np.array([0.5, 0.4, 0.3])
    with pytest.raises(InvalidRhoError):
        _one_id(z_all, 100, "BCHILL", 0.0, [3])
    with pytest.raises(KOutOfRangeError):
        _one_id(z_all, 3, "BCHILL", -1.0, [3])  # n must be >= k+1
    _one_id(z_all, 4, "BCHILL", -1.0, [3])


def _geometric_tail(r, n):
    # values r^0, r^-1, ..., r^-(n-1): every log-ratio is log r, so Z_j = j*log r
    return validate_and_sort(r ** -np.arange(n, dtype=float))


def test_paths_on_geometric_sample_match_oracle():
    tail = _geometric_tail(1.7, 40)
    logr = np.log(1.7)
    k_values = check_k_range(2, 39, tail.n)
    assert not needs_rho(("HILL",))
    ph, _ = _one_id(tail.z_all, tail.n, "HILL", None, k_values)
    # Hill(k) = mean of j*logr over j<=k = logr*(k+1)/2
    want = logr * (k_values + 1) / 2.0
    assert ph == pytest.approx(want, rel=1e-12)

    rho = resolve_rho(tail, RhoMethod.fixed(-1.0))
    assert rho == -1.0
    pw, _ = _one_id(tail.z_all, tail.n, "WLS", rho, k_values)
    for i, k in enumerate(k_values):
        z = logr * np.arange(1, k + 1)
        gamma, _ = solve_weighted_normal_equations(
            z, covariates(int(k), -1.0), weights(int(k))
        )
        assert abs(pw[i] - gamma) < 1e-10


def test_wls_path_consistency_with_single_fits():
    rng = np.random.default_rng(50)
    tail = validate_and_sort(rng.pareto(1.2, size=80) + 1.0)
    k_values = check_k_range(5, 30, tail.n)
    path, _ = _one_id(tail.z_all, tail.n, "WLS", resolve_rho(tail, RhoMethod.fixed(-0.7)), k_values)
    for i, k in enumerate(k_values):
        gamma_hat, _ = _at_k(tail.z_all[:k], "WLS", -0.7)
        assert path[i] == pytest.approx(gamma_hat, abs=1e-13)


def test_rr_path_records_penalties():
    rng = np.random.default_rng(51)
    tail = validate_and_sort(rng.pareto(1.0, size=50) + 1.0)
    path, penalties = _one_id(tail.z_all, tail.n, "RR", -1.0, check_k_range(5, 12, tail.n))
    assert penalties is not None
    assert penalties.shape == path.shape


def test_path_bad_arguments():
    """The checks a caller makes before the table, and the table itself, reject a bad path."""
    z_all = validate_and_sort(np.arange(1.0, 21.0)).z_all
    with pytest.raises(ValueError):
        check_estimators(("NOPE",))
    with pytest.raises(ValueError, match=r"^duplicate estimator in \('WLS', 'WLS'\)$"):
        check_estimators(("WLS", "WLS"))
    with pytest.raises(ValueError):
        _one_id(z_all, 20, "NOPE", -1.0, np.arange(2, 11))
    # a string is not read one letter at a time: a TypeError names the tuple form
    tuple_form = r"is a string, not a tuple of ids such as \('(WLS|HILL)',\)$"
    for call in (lambda: check_estimators("WLS"),
                 lambda: path_estimates(z_all, 20, "WLS", -1.0, np.arange(2, 11)),
                 lambda: run_model_simulation(1, 0, -1, 10, 2, "WLS"),
                 lambda: SimulationConfig(pareto(1.0), 50, 3, 5, 20, estimators="HILL")):
        with pytest.raises(TypeError, match=tuple_form):
            call()
    # k from 1, k up to n = 20 (one past the 19 spacings), k descending
    for k_min, k_max, k_values in ((1, 10, np.arange(1, 11)), (5, 20, np.arange(5, 21)),
                                   (12, 5, [12, 5])):
        with pytest.raises(KOutOfRangeError):
            check_k_range(k_min, k_max, 20)
        with pytest.raises(KOutOfRangeError):
            _one_id(z_all, 20, "WLS", -1.0, k_values)
    for k_min, k_max, n in ((2.5, 10, 20), (2, 10.7, 20), (2, 10, 20.0)):  # int() truncated
        with pytest.raises(KOutOfRangeError, match="must be an integer"):
            check_k_range(k_min, k_max, n)


def test_grid_rows_equal_one_rho_runs_bitwise(monkeypatch):
    """Row r of a grid run is the one-rho WLS table path at rhos[r], bit for bit.

    A grid run is one engine run on a stacked design with a leading rho axis,
    as the min-variance resolver makes.
    """
    from tailwls import estimators

    keys = []
    real_design = estimators._design

    def recorded(rhos, k_values, weighted):
        keys.append(rhos)
        return real_design(rhos, k_values, weighted)

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
                want = np.array([path_estimates(z_all, None, ("WLS",), rho, k_values).paths["WLS"]
                                 for rho in rhos])
                z_sums = estimators._prefix_sums(z_all, k_values[-1], False)
                design = estimators._design(tuple(map(float, rhos)), k_values, True)
                got = estimators._path_fit(z_all, z_sums, design, index=np.s_[:])[0]
                assert got.shape == (len(rhos), len(k_values))
                assert np.array_equal(got, want)
    # integer and numpy rhos share the float design of the same rho: one build, then hits
    estimators._build_design.cache_clear()
    for given in (-1, np.int64(-1), np.float64(-1.0), -1.0):
        path_estimates(z_all, None, ("WLS",), given, contiguous)
    assert keys[-4:] == [(-1.0,)] * 4
    info = estimators._build_design.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert all(type(key) is tuple and all(type(rho) is float for rho in key)
               for key in keys)
    # a block of samples puts the rho axis first, each row still its one-rho path
    block = rng.exponential(size=(3, n - 1))
    z_sums = estimators._prefix_sums(block, contiguous[-1], False)
    design = estimators._design(grid, contiguous, True)
    got = estimators._path_fit(block, z_sums, design, index=np.s_[:, None])[0]
    assert got.shape == (len(grid), 3, len(contiguous))
    for r, rho in enumerate(grid):
        for row in range(3):
            want = path_estimates(block[row], None, ("WLS",), rho, contiguous).paths["WLS"]
            assert np.array_equal(got[r, row], want)


def test_design_cache_keeps_16_designs_and_evicts_the_least_recent():
    """Designs are built whole and cached per (rhos, k values, weighting), the 16 most recent."""
    from tailwls import estimators

    def rebuilt(rhos, k_values=np.arange(2, 31), weighted=True):
        """Whether a ``_design`` call builds its design, i.e. misses the cache."""
        before = estimators._build_design.cache_info().misses
        estimators._design(tuple(rhos), k_values, weighted)
        return estimators._build_design.cache_info().misses > before

    estimators._build_design.cache_clear()
    k_values = np.arange(2, 31)
    singles = [(-0.1 * (i + 1) - 0.01,) for i in range(16)]
    assert all(rebuilt(rhos) for rhos in singles)
    assert not rebuilt(singles[0])  # a repeated rho set builds nothing; now the most recent
    grid = tuple(-0.25 * (i + 1) for i in range(7))
    assert rebuilt(grid) and not rebuilt(grid)
    design = estimators._design(grid, k_values, True)
    assert design.v.shape == (7, 30) and design.s2.shape == (7, len(k_values))
    assert not any(a.flags.writeable for a in design[1:-1])
    assert all(a.flags.c_contiguous for a in design[1:-1])
    # each row is the design of its rho alone, bit for bit
    for r, rho in enumerate(grid):
        one = estimators._design((rho,), k_values, True)
        assert all(np.array_equal(got[r], want[0]) for got, want in zip(design[3:8], one[3:8]))
    assert estimators._build_design.cache_info().currsize == 16
    # the grid and its rows took the room of the 8 least recent singles; singles[0] was used last
    assert not rebuilt(singles[0]) and not rebuilt(singles[9])
    assert rebuilt(singles[1])
    # another k range, weighting or order of the rhos is another design
    assert rebuilt(grid, np.arange(2, 30)) and rebuilt(grid, weighted=False)
    assert rebuilt(grid[::-1])
    assert estimators._build_design.cache_info().currsize == 16


def test_min_variance_studies_build_the_window_design_once(monkeypatch):
    """A sweep of sim_minvar-sized studies builds the grid's window design once."""
    from tailwls import estimators, second_order

    window_calls, keys = [], set()
    real_design = estimators._design

    def window_design(rhos, k_values, weighted):
        window_calls.append((rhos, k_values[0], k_values[-1], weighted))
        return real_design(rhos, k_values, weighted)

    def table_design(rhos, k_values, weighted):
        keys.add((rhos, k_values[0], k_values[-1], weighted))
        return real_design(rhos, k_values, weighted)

    estimators._build_design.cache_clear()
    second_order._window.cache_clear()
    monkeypatch.setattr(second_order, "_design", window_design)
    monkeypatch.setattr(estimators, "_design", table_design)
    for seed in range(50):
        run_simulation(SimulationConfig(spec=burr(1.0, np.sqrt(2.0), np.sqrt(2.0)), n=200,
                                        reps=20, k_min=10, k_max=150, estimators=("HILL", "WLS"),
                                        rho_method=RhoMethod.min_variance(), master_seed=seed))
    assert window_calls == [(DEFAULT_RHO_GRID, 20, 179, True)]
    # the table's designs are of the picks at the study's k values, each built at most once
    assert {(lo, hi, weighted) for _, lo, hi, weighted in keys} == {(10, 150, True)}
    assert all(set(rhos) <= set(DEFAULT_RHO_GRID) for rhos, *_ in keys)
    assert estimators._build_design.cache_info().misses == 1 + len(keys) <= 1 + 16


def test_grid_call_runs_the_engine_once(monkeypatch):
    """One resolution is one engine run, one table call two, each with one sum of Z."""
    from tailwls import estimators, second_order

    tail = validate_and_sort(sample(burr(1.0, np.sqrt(2.0), np.sqrt(2.0)), 200, 5))
    z_all, k_values = tail.z_all, np.arange(20, 180)
    # fill the design caches
    resolve_rho(tail, RhoMethod.min_variance())
    path_estimates(z_all, tail.n, ESTIMATOR_IDS, -1.0, k_values)
    engine, sums = [], []
    real_fit, real_sums = estimators._path_fit, estimators._prefix_sums

    def fit(*args, **kwargs):
        engine.append((args[2].v.shape[0], args[2].weighted))
        return real_fit(*args, **kwargs)

    def prefix_sums(*args):
        sums.append(args[0].shape)
        return real_sums(*args)

    for module in (estimators, second_order):
        monkeypatch.setattr(module, "_path_fit", fit)
        monkeypatch.setattr(module, "_prefix_sums", prefix_sums)
    resolve_rho(tail, RhoMethod.min_variance())
    assert engine == [(len(DEFAULT_RHO_GRID), True)]
    assert sums == [z_all.shape]  # the running sum of Z, once per sample
    engine.clear()
    sums.clear()
    path_estimates(z_all, tail.n, ESTIMATOR_IDS, -1.0, k_values)
    assert engine == [(1, False), (1, True)]
    assert sums == [z_all.shape]  # shared by HILL and both runs


def test_every_k_array_entry_raises_typed_errors():
    """Descending, repeated, empty, fractional or 2-D k arrays raise before any indexing."""
    z_all = np.ones(20)
    entries = {
        "s_moments": lambda k: s_moments(k, -1.0),
        "WLS": lambda k: path_estimates(z_all, 21, ("WLS",), -1.0, k),
        "HILL": lambda k: path_estimates(z_all, 21, ("HILL",), None, k),
    }
    bad = [([10, 5], KOutOfRangeError), ([5, 5], KOutOfRangeError),
           ([], EmptyOrTinyError), (np.array([], dtype=int), EmptyOrTinyError),
           ([2.5, 4.5], KOutOfRangeError), ([2.5, 4.0], KOutOfRangeError),
           ([2.0, 4.0], KOutOfRangeError), ([[2, 3]], KOutOfRangeError)]
    for entry in entries.values():
        for k, error in bad:
            with pytest.raises(error):
                entry(k)
        for k in ([3, 7, 19], np.array([3, 7, 19], dtype=np.uint8), 19):
            entry(k)  # ascending ints of any integer type, or one int
    with pytest.raises(KTooSmallError):
        entries["WLS"]([1, 5])
    with pytest.raises(KOutOfRangeError):
        entries["HILL"]([0, 5])
    with pytest.raises(KOutOfRangeError):
        entries["HILL"]([5, 21])
    assert s_moments(np.array([2, 4]), -1.0).s1.tolist() == [
        s_moments(2, -1.0).s1, s_moments(4, -1.0).s1]


def test_optimal_k_picks_smallest_on_ties():
    assert optimal_k([(10, 0.5), (4, 0.25), (7, 0.25)]) == (4, 0.25)
    assert optimal_k([(3, 1.0)]) == (3, 1.0)
    assert optimal_k([(np.int64(3), 1.0)]) == (3, 1.0)
    with pytest.raises(KOutOfRangeError, match="must be an integer"):
        optimal_k([(5.7, 0.1)])  # int() would give (5, 0.1)


def test_optimal_k_empty():
    with pytest.raises(EmptyOrTinyError):
        optimal_k([])


def test_optimal_k_skips_non_finite_mses():
    assert optimal_k([(5, np.inf), (6, 0.1)]) == (6, 0.1)
    assert optimal_k([(5, np.nan), (6, np.inf), (7, 0.3)]) == (7, 0.3)
    with pytest.raises(EmptyOrTinyError):
        optimal_k([(5, np.inf), (6, np.inf)])


def test_all_callers_share_one_table():
    """Paths, sampling cells and model cells are the same computation, bit for bit."""
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    method = RhoMethod.fixed(-1.0)
    tail = validate_and_sort(sample(spec, 200, rep_seed(3, 0)))
    summary = run_simulation(SimulationConfig(
        spec=spec, n=200, reps=1, k_min=10, k_max=150,
        estimators=ESTIMATOR_IDS, rho_method=method, master_seed=3,
    ))
    state = _seed_states(_rep_seeds(3, np.zeros(1, dtype=np.uint64)))  # replication 0's
    z_model = _model_draw(0.5, 0.1, -1.0, 100)(state)[0][0]
    model = run_model_simulation(0.5, 0.1, -1.0, 100, reps=1,
                                 estimators=ESTIMATOR_IDS, master_seed=3, n=200)
    rho = resolve_rho(tail, method)
    for e, est in enumerate(ESTIMATOR_IDS):
        path, _ = _one_id(tail.z_all, tail.n, est, rho if needs_rho((est,)) else None,
                          np.arange(10, 151))
        assert np.array_equal(summary.mean[e], path), est
        want, _ = _one_id(z_model, 200, est, -1.0, [100])
        assert np.array_equal(model.mean[e], want), est


def test_path_estimates_errors():
    z_all = validate_and_sort(np.arange(1.0, 21.0)).z_all
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
    """Every estimator set gives each id the path and slope of its one-id call, bit for bit.

    A (rows, n - 1) block gives each row the paths of its own 1-D call.
    Slopes come with LS and WLS only.
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
        single = {est: path_estimates(z_all, n, (est,), rho, k_values) for est in ESTIMATOR_IDS}
        per_row = [{est: path_estimates(row, n, (est,), rho, k_values) for est in ESTIMATOR_IDS}
                   for row in block]
        for ids in subsets:
            table = path_estimates(z_all, n, ids, rho, k_values)
            assert list(table.paths) == list(ids)
            assert list(table.slopes) == [est for est in ids if est in ("LS", "WLS")]
            for est in ids:
                assert np.array_equal(table.paths[est], single[est].paths[est]), (ids, est)
            for est in table.slopes:
                assert np.array_equal(table.slopes[est], single[est].slopes[est]), (ids, est)
            if "RR" in ids:
                assert np.array_equal(table.penalties, single["RR"].penalties)
            else:
                assert table.penalties is None
            table = path_estimates(block, n, ids, rho, k_values)
            assert list(table.paths) == list(ids)
            for est in ids:
                assert table.paths[est].shape == (rows, len(k_values))
                for r, want in enumerate(per_row):
                    assert np.array_equal(table.paths[est][r], want[est].paths[est]), (ids, est, r)
            for est in table.slopes:
                assert table.slopes[est].shape == (rows, len(k_values))
                for r, want in enumerate(per_row):
                    assert np.array_equal(table.slopes[est][r], want[est].slopes[est]), (ids, est, r)
            if "RR" in ids:
                assert np.array_equal(table.penalties, [want["RR"].penalties for want in per_row])
            else:
                assert table.penalties is None
            # an unresolved rho leaves out every id but HILL
            for z in (z_all, block):
                table = path_estimates(z, n, ids, None, k_values)
                assert list(table.paths) == (["HILL"] if "HILL" in ids else [])
                assert table.slopes == {} and table.penalties is None
            if "HILL" in ids:
                assert np.array_equal(table.paths["HILL"],
                                      [want["HILL"].paths["HILL"] for want in per_row])


def test_per_row_rho_equals_one_row_calls_bitwise():
    """A chunk with one rho per row gives each row its one-row call, bit for bit.

    Min-variance picks repeat a few grid values, -1 among them; a moment rho
    differs on every row. (k+1)^rho taken on a column of rhos differs in the
    last bit from the scalar power on some hosts, so the design's power runs
    per distinct rho. An unresolved row keeps only HILL; a row whose rho
    overflows the covariate sums is NaN throughout, as its own call raises.
    The LS and WLS slopes and RR's penalties are NaN on both, as their paths are.
    """
    spec, n, k_values = burr(1.0, np.sqrt(2.0), np.sqrt(2.0)), 200, np.arange(10, 151)
    states = _seed_states(_rep_seeds(3, np.arange(40, dtype=np.uint64)))
    for method in (RhoMethod.min_variance(), RhoMethod.moment()):
        block, rho = _sampling_draw(spec, n, method, ESTIMATOR_IDS)(states)
        if method.kind == "minvar":
            assert (rho == -1.0).sum() >= 2 and 1 < len(set(rho.tolist())) < 8
        else:
            assert len(set(rho.tolist())) == len(rho)
        rho[[1, 5]] = np.nan, -200.0
        table = path_estimates(block, n, ESTIMATOR_IDS, rho, k_values)
        assert list(table.paths) == list(ESTIMATOR_IDS)
        assert list(table.slopes) == ["LS", "WLS"]
        for row, z_all in enumerate(block):
            if row == 5:
                with pytest.raises(InvalidRhoError):
                    path_estimates(z_all, n, ESTIMATOR_IDS, rho[row], k_values)
                assert all(np.isnan(a[row]).all()
                           for a in [*table.paths.values(), *table.slopes.values()])
                assert np.isnan(table.penalties[row]).all()
                continue
            one_rho = None if row == 1 else float(rho[row])
            want = path_estimates(z_all, n, ESTIMATOR_IDS, one_rho, k_values)
            for field in ("paths", "slopes"):
                got, wanted = getattr(table, field), getattr(want, field)
                for est in got:
                    if est in wanted:
                        assert np.array_equal(got[est][row], wanted[est]), (method, row, est)
                    else:
                        assert np.isnan(got[est][row]).all(), (method, row, est)
            if want.penalties is not None:
                assert np.array_equal(table.penalties[row], want.penalties), (method, row)
            else:
                assert np.isnan(table.penalties[row]).all(), (method, row)
    # three rows, one each fitted, unresolved and rejected: only the first has penalties
    three = np.array([-1.0, np.nan, -400.0])
    table = path_estimates(block[:3], n, ("RR", "WLS"), three, k_values)
    want = path_estimates(block[0], n, ("RR", "WLS"), -1.0, k_values)
    assert np.array_equal(table.penalties[0], want.penalties)
    assert np.array_equal(table.slopes["WLS"][0], want.slopes["WLS"])
    assert np.isnan(table.paths["RR"][1:]).all() and np.isnan(table.penalties[1:]).all()
    assert np.isnan(table.slopes["WLS"][1:]).all()
    # every row unresolved leaves out every id but HILL, as rho None does
    rho[:] = np.nan
    table = path_estimates(block, n, ESTIMATOR_IDS, rho, k_values)
    assert list(table.paths) == ["HILL"] and table.slopes == {} and table.penalties is None
    assert np.array_equal(table.paths["HILL"],
                          path_estimates(block, n, ("HILL",), None, k_values).paths["HILL"])
    # a per-row rho is 1-D with one entry per row of a 2-D block; other shapes are typed
    for z_all, shape in ((block[:3, :50], (2,)), (block[0], (1,)), (block[:3], (3, 1))):
        message = f"rho of shape {re.escape(str(shape))} .* of shape {re.escape(str(z_all.shape))}"
        with pytest.raises(InvalidRhoError, match=message):
            path_estimates(z_all, n, ESTIMATOR_IDS, np.full(shape, -1.0), np.arange(10, 30))


def test_path_entries_equal_single_fits_bitwise():
    """Each path entry equals the one-k table call on ``z_all[:k]``, bit for bit, on fuzzed inputs.

    That holds for the paths, the LS and WLS slopes and RR's penalty at k;
    HILL's entry is also the cumulative mean.
    """
    ids = ("HILL", "LS", "RR", "WLS")
    rng = np.random.default_rng(53)
    for _ in range(2000):
        n = int(rng.integers(4, 301))
        z_all = rng.exponential(rng.uniform(0.1, 3.0), size=n - 1)
        k_values = np.arange(2, n)
        k = int(rng.integers(2, n))
        z = _spacings(z_all[:k].copy())
        table = path_estimates(z_all, n, ids, -0.9, k_values)
        assert table.paths["HILL"][k - 2] == np.cumsum(z)[-1] / k
        if k % 10:
            continue  # the one-k calls on every tenth input
        at_k = path_estimates(z, None, ids, -0.9, [k])
        for est in ids:
            assert table.paths[est][k - 2] == at_k.paths[est][0], est
        for est in ("LS", "WLS"):
            assert table.slopes[est][k - 2] == at_k.slopes[est][0], est
        assert table.penalties[k - 2] == at_k.penalties[0]


def _bits(a):
    """The float64 bits of ``a``: unlike ``np.array_equal``, they tell -0.0 from 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def test_one_k_blocks_equal_row_calls_and_path_entries_bitwise():
    """A one-k table on a block gives each row its 1-D call and its path's entry at k, bit for bit.

    At one k on two rows or more the engine takes its last running-sum passes
    as one in-order reduction. Fuzzed blocks of 2-200 rows, k at and below the
    row length, hold zero, -0.0 and NaN rows, one rho or one per row with
    unresolved rows, and go through every estimator set in turn.
    """
    from itertools import combinations

    subsets = [c for r in range(1, 6) for c in combinations(ESTIMATOR_IDS, r)]
    rng = np.random.default_rng(61)
    for trial in range(2 * len(subsets)):
        ids = subsets[trial % len(subsets)]
        rows, width = int(rng.integers(2, 201)), int(rng.integers(2, 151))
        k = width if trial % 2 else int(rng.integers(2, width + 1))
        block = rng.exponential(rng.uniform(0.1, 3.0), size=(rows, width))
        block[rng.random(block.shape) < 0.1] = 0.0
        block[rng.random(block.shape) < 0.1] = -0.0
        for r, fill in zip(rng.choice(rows, size=min(rows, 3), replace=False),
                           (-0.0, 0.0, np.nan)):
            block[r] = fill
        if trial % 3:
            rho = rng.choice([-0.5, -1.0, -2.0, -rng.uniform(0.05, 3.0), np.nan], size=rows)
            row_rho = [None if np.isnan(r) else float(r) for r in rho]
        else:
            rho = -rng.uniform(0.05, 3.0)
            row_rho = [rho] * rows
        table = path_estimates(block, width + 1, ids, rho, [k])
        for r, z_all in enumerate(block):
            one = path_estimates(z_all, width + 1, ids, row_rho[r], [k])
            path = path_estimates(z_all, width + 1, ids, row_rho[r], np.arange(2, k + 1))
            for field in ("paths", "slopes"):
                got, at_k, full = (getattr(t, field) for t in (table, one, path))
                for est in got:
                    if est not in at_k:  # an unresolved row keeps only HILL
                        assert np.isnan(got[est][r]).all(), (trial, r, est)
                        continue
                    want = _bits(at_k[est])
                    assert np.array_equal(_bits(got[est][r]), want), (trial, r, field, est)
                    assert np.array_equal(_bits(full[est][-1:]), want), (trial, r, field, est)
            if one.penalties is not None:
                assert np.array_equal(_bits(table.penalties[r]), _bits(one.penalties))


def test_one_k_blocks_that_overflow_raise_as_their_rows_do():
    """A one-k block whose weighted or slope sums overflow raises NonFiniteError, as a row does.

    The running sum of Z stays finite at k = 100 (1e308); the second,
    weighted pass of it and the slope sum of v*Z do not.
    """
    block = np.full((163, 100), 1e306)
    for ids in (("WLS",), ("LS",), ("HILL", "BCHILL", "RR")):
        for z_all in (block, block[:2], block[0]):
            with pytest.raises(NonFiniteError, match="a path overflows"):
                path_estimates(z_all, 101, ids, -1.0, [100])
    assert np.isfinite(path_estimates(block, 101, ("HILL",), -1.0, [100]).paths["HILL"]).all()


def test_paths_match_oracle_at_scale():
    """WLS and LS paths on n = 20 000 agree with np.linalg.solve to 1e-9 of the path's scale."""
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    z_all = validate_and_sort(sample(spec, 20_000, 11)).z_all
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
    z_all = validate_and_sort(sample(burr(1.0, 2.0, 1.0), 1000, 12)).z_all
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
    z_all = validate_and_sort(sample(burr(1.0, 2.0, 1.0), 200, 4)).z_all
    k_values = np.arange(2, 200)
    for est in ("BCHILL", "LS", "RR", "WLS"):
        got, _ = _one_id(z_all, 200, est, -1e-150, k_values)
        assert np.isfinite(got).all(), est
        for rho in (-1e-155, -1e-170, -1e-300):
            with pytest.raises(InvalidRhoError, match="underflows"):
                _one_id(z_all, 200, est, rho, k_values)
            with pytest.raises(InvalidRhoError, match="underflows"):
                path_estimates(z_all, 200, ("HILL", est), rho, [2])
    hill, _ = _one_id(z_all, 200, "HILL", -1e-300, k_values)
    assert np.isfinite(hill).all()


def test_paths_stay_accurate_as_rho_approaches_zero():
    """Near rho = 0 the paths match a centred two-pass fit to 1e-10.

    The oracle takes C_j - 1 from expm1, so it does not cancel; the plain
    sum w C^2 - S1^2 loses about 5e-8 here.
    """
    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    z_all = validate_and_sort(sample(spec, 1000, 3)).z_all
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
