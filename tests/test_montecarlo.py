from dataclasses import replace

import numpy as np
import pytest

from tailwls import (
    ESTIMATOR_IDS,
    EmptyOrTinyError,
    InvalidRhoError,
    KOutOfRangeError,
    KTooSmallError,
    NonFiniteError,
    NonPositiveError,
    RhoMethod,
    SimulationConfig,
    TailwlsError,
    burr,
    covariates,
    frechet,
    log_spacings,
    loggamma,
    normality_report,
    pareto,
    path_estimates,
    rep_seed,
    run_model_simulation,
    run_simulation,
    s_moments,
    sample,
    standardized_statistic,
    summarize,
    validate_and_sort,
)
from tailwls import montecarlo, resolve_rho
from tailwls.montecarlo import (_CHUNK_ENTRIES, _model_draw, _rep_seeds, _replicate,
                                _sampling_draw, _seed_state_type, _seed_states)


def test_rep_seed_is_deterministic_and_wide():
    seeds = {rep_seed(123, r) for r in range(2000)}
    assert len(seeds) == 2000
    assert rep_seed(123, 7) == rep_seed(123, 7)
    assert rep_seed(123, 7) != rep_seed(124, 7)
    assert all(0 <= s < 2**64 for s in seeds)


@pytest.mark.parametrize("master_seed", [0, 1, 2**63, -1])
def test_vectorised_rep_seed_equals_the_scalar_one(master_seed):
    r = np.arange(20_001, dtype=np.uint64)
    got = _rep_seeds(master_seed, r)
    assert got.dtype == np.uint64
    assert got.tolist() == [rep_seed(master_seed, i) for i in range(20_001)]


def test_seed_states_equal_numpy_seed_sequence():
    # the guard against a change of numpy's SeedSequence hash
    seeds = [rep_seed(m, r) for m in (0, 7) for r in range(5_000)]
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    got = _seed_states(np.array(seeds, dtype=np.uint64))
    assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
    want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    assert np.array_equal(got, want)


def test_model_block_rows_are_the_replication_streams():
    gamma, b, rho, k, master_seed = 0.5, 0.1, -1.0, 50, 6
    r = np.arange(40, dtype=np.uint64)
    seed_state = _seed_state_type()
    seeds = [seed_state(state) for state in _seed_states(_rep_seeds(master_seed, r))]
    block, rhos = _model_draw(gamma, b, rho, k)(seeds)
    assert block.shape == (40, k) and rhos == rho
    means = gamma + b * covariates(k, rho)
    for i, row in enumerate(block):
        u = np.random.Generator(np.random.PCG64(rep_seed(master_seed, i))).random(k)
        assert np.array_equal(row, means * -np.log1p(-u))


def test_model_study_constructs_no_seed_sequence(monkeypatch):
    real_pcg64, real_seq = np.random.PCG64, np.random.SeedSequence
    built = []

    class Counted(real_seq):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def pcg64(seed=None):
        bit_gen = real_pcg64(seed)
        if type(bit_gen.seed_seq) is real_seq:  # one numpy built from an int seed
            built.append(seed)
        return bit_gen

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    monkeypatch.setattr(np.random, "PCG64", pcg64)
    s = run_model_simulation(1.0, 0.1, -1.0, 100, 400, ("HILL", "WLS"), master_seed=3)
    assert s.missing.sum() == 0 and built == []
    # an int seed, as each replication used before, is one SeedSequence each
    for r in range(3):
        np.random.Generator(np.random.PCG64(rep_seed(3, r))).random(100)
    assert len(built) == 3


def test_model_spacings_deterministic():
    a, rho_a = _model_draw(0.5, 0.1, -1.0, 50)([11])
    b, _ = _model_draw(0.5, 0.1, -1.0, 50)([11])
    assert np.array_equal(a, b)
    assert a.shape == (1, 50) and rho_a == -1.0
    assert (a >= 0).all()


def test_model_spacings_mean_matches_theory():
    # E(Z_j) = gamma + b*C_j; check against 3 standard errors per coordinate
    gamma, b, rho, k, reps = 1.0, 0.5, -1.0, 20, 4000
    acc = np.zeros(k)
    draw = _model_draw(gamma, b, rho, k)
    for r in range(reps):
        acc += draw([rep_seed(77, r)])[0][0]
    mean = acc / reps
    expect = gamma + b * covariates(k, rho)
    se = expect / np.sqrt(reps)  # sd of Z_j equals its mean for exponential noise
    assert (np.abs(mean - expect) < 3 * se).all()


def test_model_spacings_argument_errors():
    with pytest.raises(KOutOfRangeError):
        _model_draw(1.0, 0.0, -1.0, 0)
    with pytest.raises(InvalidRhoError):
        _model_draw(1.0, 0.0, 0.5, 10)
    with pytest.raises(NonPositiveError):
        _model_draw(0.1, -1.0, -1.0, 10)


def test_run_model_simulation_single_rep_is_exact():
    s = run_model_simulation(0.5, 0.1, -1.0, 30, reps=1, estimators=("WLS", "HILL"),
                             master_seed=9)
    z_model = _model_draw(0.5, 0.1, -1.0, 30)([rep_seed(9, 0)])[0][0]
    z = z_model
    assert s.cell("WLS", 30)["mean"] == path_estimates(z, None, ("WLS",), -1.0, [30]).paths["WLS"][0]
    assert s.cell("HILL", 30)["mean"] == np.cumsum(z)[-1] / 30
    assert s.cell("WLS", 30)["variance"] == 0.0
    assert s.cell("WLS", 30)["missing"] == 0


def test_run_model_simulation_unbiased_within_3se():
    gamma, b, rho, k, reps = 0.8, 0.2, -1.0, 60, 3000
    s = run_model_simulation(gamma, b, rho, k, reps, ("WLS",), master_seed=21)
    cell = s.cell("WLS", k)
    se = np.sqrt(cell["variance"] / reps)
    assert abs(cell["bias"]) < 3 * se


def test_run_model_simulation_validation():
    with pytest.raises(NonPositiveError):
        run_model_simulation(0.0, 0.1, -1.0, 10, 5)
    with pytest.raises(EmptyOrTinyError):
        run_model_simulation(1.0, 0.1, -1.0, 10, 5, estimators=())
    with pytest.raises(ValueError):
        run_model_simulation(1.0, 0.1, -1.0, 10, 5, estimators=("XX",))
    with pytest.raises(ValueError):
        # BCHILL needs a sample size for its (n/k)^rho factor
        run_model_simulation(1.0, 0.1, -1.0, 10, 5, estimators=("BCHILL",))
    run_model_simulation(1.0, 0.1, -1.0, 10, 5, estimators=("BCHILL",), n=100)
    with pytest.raises(NonPositiveError):
        # a configuration error raises; it is not counted as missing cells
        run_model_simulation(0.1, -1.0, -1.0, 10, 5)


def test_non_finite_model_parameters_raise_up_front(monkeypatch):
    """inf passes ``gamma > 0`` and ``means > 0``; the finite check stops it before a replication."""
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "_replicate", no_replication)
    for gamma, b in ((1.0, np.inf), (np.inf, 0.1), (1e308, 1e308), (1.0, np.nan)):
        with pytest.raises(NonFiniteError):
            run_model_simulation(gamma, b, -1.0, 10, 5)
    with pytest.raises(NonFiniteError):
        normality_report(100, 10, gamma=1.0, b=np.inf)
    with pytest.raises(NonFiniteError):
        _model_draw(1e308, 1e308, -1.0, 10)


def test_model_studies_raise_configuration_errors_from_the_first_table_call():
    # each would fail every replication alike, so it is not counted as missing
    with pytest.raises(KTooSmallError):
        run_model_simulation(1.0, 0.1, -1.0, 1, 4, estimators=("HILL", "WLS"))
    with pytest.raises(KOutOfRangeError):
        run_model_simulation(1.0, 0.1, -1.0, 100, 5, estimators=("BCHILL", "WLS"), n=50)
    s = run_model_simulation(1.0, 0.1, -1.0, 1, 4, estimators=("HILL",))
    assert s.missing.sum() == 0
    with pytest.raises(KTooSmallError):
        normality_report(100, 1, gamma=1.0)
    # rho=-200 overflows the covariate sums at k=100, for every regression,
    # and rho=-1e-300 underflows them
    for rho in (-200.0, -1e-300):
        s = run_model_simulation(1.0, 0.0, rho, 100, 5, estimators=("HILL",))
        assert s.missing.sum() == 0
        for est in ("BCHILL", "LS", "RR", "WLS"):
            with pytest.raises(InvalidRhoError):
                run_model_simulation(1.0, 0.0, rho, 100, 5, ("HILL", est), n=200)
        with pytest.raises(InvalidRhoError):
            normality_report(100, 100, gamma=1.0, rho=rho)
        with pytest.raises(InvalidRhoError):
            s_moments(100, rho)


def test_one_replication_runs_the_path_engine_twice(monkeypatch):
    """All five estimators share one unweighted and one weighted engine run."""
    from tailwls import estimators

    calls = []
    real = estimators._path_fit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "_path_fit", counted)
    s = run_model_simulation(0.5, 0.1, -1.0, 100, 1, estimators=ESTIMATOR_IDS, n=200)
    assert len(calls) == 2
    assert s.missing.sum() == 0


def test_overflowing_model_studies_raise_non_finite_error():
    """A gamma near the float range overflows the spacings or a path: NonFiniteError, no inf."""
    for gamma, est_ids, n in ((1e303, ("HILL", "WLS"), None), (1e305, ("LS", "RR"), None),
                              (1e155, ("BCHILL",), 200), (1e306, ESTIMATOR_IDS, 200)):
        with pytest.raises(NonFiniteError, match="overflows"):
            run_model_simulation(gamma, 0.0, -1.0, 100, 50, est_ids, n=n)
    with pytest.raises(NonFiniteError, match="overflows"):
        normality_report(100, 10, gamma=1e306)
    with pytest.raises(NonFiniteError, match="model spacing overflows"):
        _model_draw(1e308, 0.0, -1.0, 10)([rep_seed(0, r) for r in range(200)])
    # just below, every replication's estimate is finite (the aggregates of
    # the first two overflow, see the next test)
    for gamma, est_ids in ((1e300, ("HILL", "WLS")), (1e304, ("LS", "RR")), (1e154, ("BCHILL",))):
        values = _replicate(_model_draw(gamma, 0.0, -1.0, 100), 100, est_ids, np.array([100]),
                            200, 50, 0)[0]
        assert np.isfinite(values).all(), gamma


def test_overflowing_aggregates_raise_non_finite_error():
    """From gamma = 1e155 the squared errors overflow: NonFiniteError, not an inf mse."""
    for est_ids in (("HILL", "WLS"), ("LS", "RR")):
        for gamma in (1e155, 1e300):
            with pytest.raises(NonFiniteError, match="mse or variance"):
                run_model_simulation(gamma, 0.0, -1.0, 100, 50, est_ids)
        s = run_model_simulation(1e154, 0.0, -1.0, 100, 50, est_ids)
        assert np.isfinite([s.mean, s.mse, s.variance]).all() and s.missing.sum() == 0
    # a cell with no replication stays NaN and raises nothing
    values = np.array([[[1.0, 3.0], [np.nan, np.nan]]])
    agg = summarize(values, 1.0)
    assert agg["mse"][0, 0] == 2.0 and agg["variance"][0, 0] == 1.0
    assert np.isnan([agg["mean"][0, 1], agg["mse"][0, 1], agg["variance"][0, 1]]).all()


def test_failed_table_call_marks_the_whole_replication_missing():
    # rho=-200 overflows the covariate sums and rho=-1e-170 underflows them,
    # so every replication's table call fails; HILL, which needs no rho, is
    # missing with the rest
    for rho in (-200.0, -1e-170):
        cfg = SimulationConfig(spec=pareto(1.0), n=60, reps=4, k_min=5, k_max=50,
                               rho_method=RhoMethod.fixed(rho), master_seed=8)
        s = run_simulation(cfg)
        assert s.missing.shape == (len(ESTIMATOR_IDS), 46)
        assert (s.missing == 4).all(), rho


def _reference_replicate(draw, est_ids, k_values, n, reps, master_seed):
    """The engine one replication at a time: a one-row draw from the int seed, a 1-D call."""
    values = np.full((len(est_ids), len(k_values), reps), np.nan)
    rhos = []
    for r in range(reps):
        block, rho = draw([rep_seed(master_seed, r)])
        if np.isnan(block[0]).all():  # the draw failed
            continue
        z_all = block[0]
        rho = float(np.broadcast_to(rho, 1)[0])
        rho = None if np.isnan(rho) else rho
        rhos.append(rho)
        try:
            paths = path_estimates(z_all, n, est_ids, rho, k_values).paths
        except TailwlsError:
            continue
        for e, est in enumerate(est_ids):
            values[e, :, r] = paths.get(est, np.nan)
    return values, rhos


def test_chunked_engine_equals_one_replication_at_a_time():
    """Chunks, rho groups and failures reproduce the per-replication loop bit for bit."""
    n = 41
    rows = _CHUNK_ENTRIES // (n - 1)
    k_values = np.arange(2, n)

    def draw(seeds):
        block, rhos = np.empty((len(seeds), n - 1)), []
        for row, seed in zip(block, seeds):
            rng = np.random.default_rng(seed)
            pick = int(rng.integers(0, 6))
            # the draw failed (a NaN row); NaN is unresolved; -200 overflows the
            # covariate sums, failing its row
            rhos.append((np.nan, np.nan, -0.5, -1.0, -2.0, -200.0)[pick])
            row[:] = rng.exponential(size=n - 1)
            if pick == 0:
                row[:] = np.nan
        return block, np.array(rhos)

    reps = 2 * rows + 1
    got, rhos = _replicate(draw, n - 1, ESTIMATOR_IDS, k_values, n, reps, 4)
    want, want_rhos = _reference_replicate(draw, ESTIMATOR_IDS, k_values, n, reps, 4)
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.isnan(got).all(axis=(0, 1)).all()
    assert rhos == want_rhos and len(rhos) < reps  # failed draws hand back no rho
    got, rhos = _replicate(draw, n - 1, ESTIMATOR_IDS, k_values, n, 1, 4)
    want, want_rhos = _reference_replicate(draw, ESTIMATOR_IDS, k_values, n, 1, 4)
    assert np.array_equal(got, want, equal_nan=True) and rhos == want_rhos

    spec = burr(1.0, np.sqrt(2.0), np.sqrt(2.0))
    n = 60
    reps = 2 * (_CHUNK_ENTRIES // (n - 1)) + 1
    draw = _sampling_draw(spec, n, RhoMethod.min_variance(), ESTIMATOR_IDS)
    k_values = np.arange(5, n)
    got, rhos = _replicate(draw, n - 1, ESTIMATOR_IDS, k_values, n, reps, 11)
    want, want_rhos = _reference_replicate(draw, ESTIMATOR_IDS, k_values, n, reps, 11)
    assert np.array_equal(got, want, equal_nan=True)
    assert rhos == want_rhos
    got, rhos = _replicate(draw, n - 1, ESTIMATOR_IDS, k_values, n, 1, 11)
    want, want_rhos = _reference_replicate(draw, ESTIMATOR_IDS, k_values, n, 1, 11)
    assert np.array_equal(got, want, equal_nan=True) and rhos == want_rhos


@pytest.mark.parametrize("n", [9, 6, 3])
def test_seed_batches_of_several_chunks_equal_one_replication_at_a_time(monkeypatch, n):
    # 64 entries: a batch of 16 state rows, which is two chunks of 8 rows at
    # n = 9, one of 12 at n = 6, and one of 32 (more rows than 16) at n = 3
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 64)
    k_values = np.arange(2, n)

    def draw(seeds):
        block, rhos = np.empty((len(seeds), n - 1)), []
        for row, seed in zip(block, seeds):
            rng = np.random.default_rng(seed)
            pick = int(rng.integers(0, 5))
            rhos.append((np.nan, np.nan, -0.5, -1.0, -200.0)[pick])
            row[:] = rng.exponential(size=n - 1)
            if pick == 0:  # the draw failed
                row[:] = np.nan
        return block, np.array(rhos)

    est_ids = ("HILL", "LS", "WLS")
    for reps in (1, 50, 131):
        got, rhos = _replicate(draw, n - 1, est_ids, k_values, n, reps, 5)
        want, want_rhos = _reference_replicate(draw, est_ids, k_values, n, reps, 5)
        assert np.array_equal(got, want, equal_nan=True) and rhos == want_rhos
    model = _model_draw(1.0, 0.1, -1.0, n - 1)
    got, rhos = _replicate(model, n - 1, est_ids, k_values[-1:], n, 50, 7)
    want, want_rhos = _reference_replicate(model, est_ids, k_values[-1:], n, 50, 7)
    assert np.array_equal(got, want) and rhos == want_rhos


def test_seed_states_run_once_per_batch_of_chunks(monkeypatch):
    calls = []
    real = montecarlo._seed_states

    def counted(seeds):
        calls.append(seeds.size)
        return real(seeds)

    monkeypatch.setattr(montecarlo, "_seed_states", counted)
    # k = 100: chunks of 163 rows, batches of 25 chunks (4 075 rows)
    run_model_simulation(1.0, 0.1, -1.0, 100, 10_000, ("HILL", "WLS"), master_seed=1)
    assert calls == [4075, 4075, 1850]
    calls.clear()
    run_simulation(SimulationConfig(spec=burr(1.0, 2.0, 1.0), n=200, reps=20, k_min=10,
                                    k_max=150, estimators=("HILL", "WLS")))
    assert calls == [20]


def test_unresolved_rho_blanks_only_its_replications(monkeypatch):
    calls = []
    real = montecarlo.resolve_rho

    def every_other(tail, method):
        calls.append(None)
        if len(calls) % 2 == 0:  # replications 1, 3, 5, ...
            raise InvalidRhoError("no rho for this replication")
        return real(tail, method)

    monkeypatch.setattr(montecarlo, "resolve_rho", every_other)
    reps = 2 * (_CHUNK_ENTRIES // 29) + 3
    draw = _sampling_draw(pareto(1.0), 30, RhoMethod.fixed(-1.0), ("HILL", "LS", "WLS"))
    values, rhos = _replicate(draw, 29, ("HILL", "LS", "WLS"), np.arange(2, 30), 30, reps, 3)
    assert rhos == [None if r % 2 else -1.0 for r in range(reps)]
    assert len(calls) == reps
    assert np.isfinite(values[0]).all()
    odd = np.arange(reps) % 2 == 1
    assert np.isnan(values[1:, :, odd]).all()
    assert np.isfinite(values[1:, :, ~odd]).all()


def test_one_table_call_per_chunk_and_rho(monkeypatch):
    calls, picks = [], []
    real_table, real_rho = montecarlo.path_estimates, montecarlo.resolve_rho

    def table(z_all, *args):
        calls.append(z_all.shape)
        return real_table(z_all, *args)

    def resolve(tail, method):
        picks.append(real_rho(tail, method))
        return picks[-1]

    monkeypatch.setattr(montecarlo, "path_estimates", table)
    monkeypatch.setattr(montecarlo, "resolve_rho", resolve)
    n = 50
    rows = _CHUNK_ENTRIES // (n - 1)
    reps = 2 * rows + 1
    run_simulation(SimulationConfig(spec=burr(1.0, 2.0, 1.0), n=n, reps=reps, k_min=5,
                                    k_max=49, estimators=("HILL", "WLS"), master_seed=2))
    assert len(picks) == reps and len(set(picks)) > 1
    assert len(calls) == 3  # one call per chunk, whatever the rhos
    assert sum(shape[0] for shape in calls) == reps

    calls.clear()
    k = 100
    reps = 2 * (_CHUNK_ENTRIES // k) + 1
    run_model_simulation(1.0, 0.1, -1.0, k, reps, ("HILL", "WLS"), master_seed=2)
    assert len(calls) == 3  # one rho: one call per chunk


@pytest.mark.parametrize("method", [RhoMethod.fixed(-1.0), RhoMethod.min_variance(),
                                    RhoMethod.moment()], ids=["fixed", "minvar", "moment"])
def test_one_table_call_per_chunk_for_every_rho_method(monkeypatch, method):
    """Failed draws and unresolved rows ride in their chunk's one table call."""
    calls, resolved = [], []
    real_table, real_rho = montecarlo.path_estimates, montecarlo.resolve_rho

    def table(z_all, n, est_ids, rho, k_values):
        calls.append((len(z_all), int(np.isnan(z_all[:, 0]).sum()), int(np.isnan(rho).sum())))
        return real_table(z_all, n, est_ids, rho, k_values)

    def resolve(tail, method):
        resolved.append(None)
        if len(resolved) % 4 == 0:
            raise InvalidRhoError("no rho for this replication")
        return real_rho(tail, method)

    monkeypatch.setattr(montecarlo, "path_estimates", table)
    monkeypatch.setattr(montecarlo, "resolve_rho", resolve)
    n = 60
    reps = 2 * (_CHUNK_ENTRIES // (n - 1)) + 1  # three chunks, the last of one row
    s = run_simulation(SimulationConfig(spec=pareto(100.0), n=n, reps=reps, k_min=5, k_max=59,
                                        estimators=("HILL", "WLS"), rho_method=method,
                                        master_seed=9))
    assert [rows for rows, _, _ in calls] == [reps // 2, reps // 2, 1]
    failed = sum(nan_rows for _, nan_rows, _ in calls)
    unresolved = len(resolved) // 4
    assert 0 < failed and 0 < unresolved and len(resolved) == reps - failed
    assert sum(nan_rhos for _, _, nan_rhos in calls) == failed + unresolved
    assert (s.missing[0] == failed).all() and (s.missing[1] == failed + unresolved).all()
    assert s.metadata["resolved_rho_counts"].endswith(f"unresolved:{unresolved}")


def test_overflowing_minvar_grid_blanks_only_the_regressions():
    # rho=-400 overflows the covariate sums, so resolve_rho raises InvalidRhoError
    # on every sample: the regressions are missing and HILL is filled
    cfg = SimulationConfig(spec=burr(1.0, 2.0, 1.0), n=200, reps=6, k_min=10, k_max=150,
                           estimators=("HILL", "WLS", "RR"), master_seed=3,
                           rho_method=RhoMethod.min_variance(grid=(-1.0, -400.0)))
    s = run_simulation(cfg)
    assert (s.missing[0] == 0).all()
    assert (s.missing[1:] == 6).all()
    assert s.metadata["resolved_rho_counts"] == "unresolved:6"
    hill_only = run_simulation(replace(cfg, estimators=("HILL",)))
    assert np.array_equal(s.mean[0], hill_only.mean[0])


def test_resolved_rho_counts_match_the_picks(monkeypatch):
    picks, draws = [], []
    real_rho, real_quantile = montecarlo.resolve_rho, montecarlo.quantile

    def resolve(tail, method):
        if len(picks) % 5 == 3:
            picks.append(None)
            raise InvalidRhoError("no rho for this replication")
        picks.append(real_rho(tail, method))
        return picks[-1]

    def quantile_or_fail(spec, u):
        x = real_quantile(spec, u)
        for row in x:
            draws.append(row[0])
            if len(draws) % 7 == 0:
                row[0] = 0.0  # a non-positive value fails the draw
        return x

    monkeypatch.setattr(montecarlo, "resolve_rho", resolve)
    monkeypatch.setattr(montecarlo, "quantile", quantile_or_fail)
    reps = 60
    s = run_simulation(SimulationConfig(spec=frechet(2.0), n=100, reps=reps, k_min=5,
                                        k_max=90, estimators=("HILL", "WLS"),
                                        master_seed=4))
    failed = reps // 7
    assert len(draws) == reps and len(picks) == reps - failed
    resolved = [rho for rho in picks if rho is not None]
    assert len(set(resolved)) > 1
    want = [f"{rho:g}:{resolved.count(rho)}" for rho in sorted(set(resolved))]
    want.append(f"unresolved:{picks.count(None)}")
    got = s.metadata["resolved_rho_counts"]
    assert got == ",".join(want)
    assert sum(int(item.rsplit(":", 1)[1]) for item in got.split(",")) == reps - failed
    assert (s.missing[0] == failed).all()  # HILL is missing on the failed draws only


def _per_sample(spec, n, master_seed, r, rho_method):
    """Replication r by the single-sample functions: (spacings, rho) or None if it fails."""
    try:
        tail = validate_and_sort(sample(spec, n, rep_seed(master_seed, r)))
    except TailwlsError:
        return None
    try:
        rho = resolve_rho(tail, rho_method)
    except TailwlsError:
        rho = None
    return tail.z_all, rho


@pytest.mark.parametrize("spec", [pareto(0.5), burr(1.0, np.sqrt(2.0), np.sqrt(2.0)),
                                  frechet(2.0), loggamma(2.0, 2.0), pareto(100.0)],
                         ids=["pareto", "burr", "frechet", "loggamma", "pareto-overflow"])
def test_sampling_block_equals_the_per_sample_pipeline(spec):
    """Each row of a chunk's block, its flag and its rho equal its own single-sample run."""
    n, master_seed, method = 60, 9, RhoMethod.min_variance()
    draw = _sampling_draw(spec, n, method, ("HILL", "WLS"))
    chunks = []

    def recorded(seeds):
        block, rhos = draw(seeds)
        chunks.append((block, rhos))
        return block, rhos

    reps = 2 * (_CHUNK_ENTRIES // (n - 1)) + 1  # three chunks, the last of one row
    study_rhos = _replicate(recorded, n - 1, ("HILL", "WLS"), np.arange(5, n), n, reps,
                            master_seed)[1]
    want = [_per_sample(spec, n, master_seed, r, method) for r in range(reps)]
    assert [len(rhos) for _, rhos in chunks] == [reps // 2, reps // 2, 1]
    block = np.concatenate([b for b, _ in chunks])
    rhos = [rho for _, chunk_rhos in chunks for rho in chunk_rhos]
    for r, (row, rho, ref) in enumerate(zip(block, rhos, want)):
        if ref is None:
            assert np.isnan(row).all() and np.isnan(rho), r
        else:
            assert (np.isnan(rho) if ref[1] is None else rho == ref[1]), r
            assert np.array_equal(row, ref[0]), r
    assert study_rhos == [ref[1] for ref in want if ref is not None]
    failed = sum(ref is None for ref in want)
    if spec.params.get("gamma") == 100.0:
        assert 0 < failed < reps  # some rows, not all, overflow to inf
    else:
        assert failed == 0


def test_resolve_rho_gets_each_good_row_once_in_order(monkeypatch):
    """perfbench's contract: one resolve_rho call per good replication, in order of r."""
    seen, real_rho = [], montecarlo.resolve_rho

    def resolve(tail, method):
        seen.append(tail.z_all)
        return real_rho(tail, method)

    monkeypatch.setattr(montecarlo, "resolve_rho", resolve)
    spec, n, master_seed = pareto(100.0), 60, 1
    draw = _sampling_draw(spec, n, RhoMethod.min_variance(), ("HILL", "WLS"))
    seed_state = _seed_state_type()
    r = np.arange(400, dtype=np.uint64)
    block, rhos = draw([seed_state(s) for s in _seed_states(_rep_seeds(master_seed, r))])
    good = [i for i, row in enumerate(block) if not np.isnan(row).all()]
    assert 0 < len(good) < len(rhos) and len(seen) == len(good)
    for i, z_all in zip(good, seen):
        assert np.shares_memory(z_all, block[i]) and np.array_equal(z_all, block[i])
    for row, seed in enumerate([rep_seed(master_seed, 0), rep_seed(master_seed, 1)]):
        one_row, one_rho = draw([seed])  # a chunk of one row
        assert np.array_equal(one_row[0], block[row])
        assert np.array_equal(one_rho, rhos[row:row + 1], equal_nan=True)


def test_run_model_simulation_deterministic():
    a = run_model_simulation(1.0, 0.3, -0.5, 25, 50, ("WLS", "LS", "RR"), master_seed=5)
    b = run_model_simulation(1.0, 0.3, -0.5, 25, 50, ("WLS", "LS", "RR"), master_seed=5)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.mse, b.mse)


def test_decomposition_identity():
    s = run_model_simulation(0.5, 0.1, -1.0, 40, 500, ("HILL", "WLS", "LS"),
                             master_seed=13)
    assert np.max(np.abs(s.mse - (s.variance + s.bias**2))) < 1e-9
    assert np.all(s.mse >= s.bias**2 - 1e-12)


def test_summarize_handles_missing_and_permutation():
    rng = np.random.default_rng(2)
    values = rng.normal(loc=0.5, size=(2, 3, 40))
    values[0, 1, 5] = np.nan
    values[1, 2, :] = np.nan
    agg = summarize(values, 0.5)
    assert agg["missing"][0, 1] == 1
    assert agg["missing"][1, 2] == 40
    assert np.isnan(agg["mean"][1, 2])
    # replication order must not matter
    perm = values[:, :, rng.permutation(40)]
    agg2 = summarize(perm, 0.5)
    assert agg2["mean"][0, 0] == pytest.approx(agg["mean"][0, 0], abs=1e-12)
    assert agg2["variance"][0, 1] == pytest.approx(agg["variance"][0, 1], abs=1e-12)
    assert np.array_equal(agg2["missing"], agg["missing"])


def test_simulation_config_validation():
    spec = pareto(1.0)
    with pytest.raises(KOutOfRangeError):
        SimulationConfig(spec=spec, n=50, reps=10, k_min=1, k_max=10)
    with pytest.raises(KOutOfRangeError):
        SimulationConfig(spec=spec, n=50, reps=10, k_min=5, k_max=50)
    with pytest.raises(ValueError):
        SimulationConfig(spec=spec, n=50, reps=0, k_min=5, k_max=10)
    with pytest.raises(EmptyOrTinyError):
        SimulationConfig(spec=spec, n=50, reps=10, k_min=5, k_max=10, estimators=())


def test_run_simulation_replay_single_rep():
    """With reps=1 every cell must equal the directly computed estimate."""
    spec = burr(1.0, 2.0, 1.0)
    cfg = SimulationConfig(spec=spec, n=60, reps=1, k_min=10, k_max=12,
                           estimators=("HILL", "WLS"),
                           rho_method=RhoMethod.fixed(-1.0), master_seed=42)
    s = run_simulation(cfg)
    tail = validate_and_sort(sample(spec, 60, rep_seed(42, 0)))
    for k in (10, 11, 12):
        z = log_spacings(tail, k)
        assert s.cell("HILL", k)["mean"] == np.cumsum(z)[-1] / k
        assert s.cell("WLS", k)["mean"] == path_estimates(z, None, ("WLS",), -1.0, [k]).paths["WLS"][0]


def test_run_simulation_shapes_and_determinism():
    spec = pareto(0.5)
    cfg = SimulationConfig(spec=spec, n=40, reps=30, k_min=5, k_max=15,
                           estimators=("HILL", "BCHILL", "WLS"),
                           rho_method=RhoMethod.fixed(-1.0), master_seed=17)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.k_values.tolist() == list(range(5, 16))
    assert a.mean.shape == (3, 11)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.missing, b.missing)
    assert a.missing.sum() == 0
    assert a.metadata["family"] == "pareto"
    assert a.metadata["rho_method"] == "fixed:-1"


def test_run_simulation_rows_order():
    spec = pareto(0.5)
    cfg = SimulationConfig(spec=spec, n=30, reps=5, k_min=3, k_max=4,
                           estimators=("HILL", "WLS"),
                           rho_method=RhoMethod.fixed(-1.0), master_seed=1)
    rows = list(run_simulation(cfg).rows())
    assert [(r["estimator"], r["k"]) for r in rows] == [
        ("HILL", 3), ("HILL", 4), ("WLS", 3), ("WLS", 4)
    ]
    for r in rows:
        assert set(r) == {"estimator", "k", "mean", "bias", "mse", "variance", "missing"}


def test_cell_unknown_k():
    s = run_model_simulation(1.0, 0.0, -1.0, 10, 3, ("HILL",), master_seed=0)
    with pytest.raises(KeyError):
        s.cell("HILL", 11)


def test_normality_report_on_loggamma_falls_back_to_rho_minus_one():
    # log-gamma's true rho is 0, which no fit accepts; the default is then -1
    rep = normality_report(100, 20, spec=loggamma(2.0, 2.0), n=200)
    assert rep.config["rho_method"] == "fixed:-1"
    assert np.isfinite(rep.sample_variance)


def test_normality_report_counts_failed_replications():
    # n=3 leaves min-variance rho no k window: every replication fails
    rep = normality_report(100, 2, spec=pareto(1.0), n=3,
                           rho_method=RhoMethod.min_variance())
    assert rep.config["missing"] == 100
    assert np.isnan(rep.sample_mean) and np.isnan(rep.sample_variance)


def test_normality_report_shares_the_engine_with_model_simulation():
    gamma, b, rho, k, reps, seed = 1.5, 0.2, -1.0, 40, 300, 17
    rep = normality_report(reps, k, master_seed=seed, gamma=gamma, b=b, rho=rho)
    s = run_model_simulation(gamma, b, rho, k, reps, ("WLS",), master_seed=seed)
    want = standardized_statistic(s.cell("WLS", k)["mean"], gamma, k)
    assert rep.sample_mean == pytest.approx(want, rel=1e-12)
    assert rep.config["missing"] == 0
