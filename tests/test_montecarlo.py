import warnings
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
                                _sampling_draw, _seed_states)
from tailwls.second_order import _min_variance_rho


def _states(*seeds):
    """The (rows, 4) block of PCG64 seed states of the int seeds, as PCG64 asks each for it."""
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])


def test_rep_seed_is_deterministic_and_wide():
    seeds = {rep_seed(123, r) for r in range(2000)}
    assert len(seeds) == 2000
    assert rep_seed(123, 7) == rep_seed(123, 7)
    assert rep_seed(123, 7) != rep_seed(124, 7)
    assert all(0 <= s < 2**64 for s in seeds)
    assert rep_seed(np.int64(123), np.uint8(7)) == rep_seed(123, 7)
    for master_seed, r in ((0, 1.5), (1.5, 0)):  # int() would run seed 0, r 1 and seed 1, r 0
        with pytest.raises(ValueError, match="must be an integer"):
            rep_seed(master_seed, r)


# rep_seed(m, r) for these r (a negative r is taken mod 2^64), per master seed m; the values
# were computed by a scalar SplitMix64 finalizer with Python integers masked to 64 bits.
REP_SEED_R = (1, 2**32, 2**63, 2**64 - 1, -1)
REP_SEED_REFERENCE = {
    0: (0x910A2DEC89025CC1, 0xC42C5A1AA3820138, 0x481EC0A212A9F3DB, 0xE4D971771B652C20,
        0xE4D971771B652C20),
    1: (0x910A2DEC89025CC0, 0xC42C5A1AA3820139, 0x481EC0A212A9F3DA, 0xE4D971771B652C21,
        0xE4D971771B652C21),
    2**63: (0x110A2DEC89025CC1, 0x442C5A1AA3820138, 0xC81EC0A212A9F3DB, 0x64D971771B652C20,
            0x64D971771B652C20),
    -1: (0x6EF5D21376FDA33E, 0x3BD3A5E55C7DFEC7, 0xB7E13F5DED560C24, 0x1B268E88E49AD3DF,
         0x1B268E88E49AD3DF),
}


@pytest.mark.parametrize("master_seed", [0, 1, 2**63, -1])
def test_vectorised_rep_seed_equals_the_scalar_one(master_seed):
    """rep_seed and the engine's vectorised _rep_seeds give the scalar SplitMix64 values."""
    # the first output of SplitMix64 seeded with 0 (Steele, Lea & Flood 2014)
    assert rep_seed(0, 0) == 0xE220A8397B1DCDAF
    want = list(REP_SEED_REFERENCE[master_seed])
    assert [rep_seed(master_seed, r) for r in REP_SEED_R] == want
    got = _rep_seeds(master_seed, np.array([r % 2**64 for r in REP_SEED_R], dtype=np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == want


def test_seed_states_equal_numpy_seed_sequence():
    # the guard against a change of numpy's SeedSequence hash
    seeds = [rep_seed(m, r) for m in (0, 7) for r in range(5_000)]
    seeds += [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    got = _seed_states(np.array(seeds, dtype=np.uint64))
    assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
    want = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])
    assert np.array_equal(got, want)


SEED_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


@pytest.mark.parametrize("rows", [1, 20, 4075])
def test_seed_states_at_edge_seeds_and_batch_sizes(rows):
    """Each row is SeedSequence(s).generate_state(4, uint64), in a C-contiguous block.

    The hash wraps mod 2^32 in uint32 arrays; numpy warns where a uint32
    scalar wraps, which the suite's warning filter turns into a failure.
    """
    want = {s: np.random.SeedSequence(s).generate_state(4, np.uint64) for s in SEED_EDGES}
    edges = np.array(SEED_EDGES, dtype=np.uint64)
    for seeds in ([edges[i:i + 1] for i in range(edges.size)] if rows == 1
                  else [np.resize(edges, rows)]):
        got = _seed_states(seeds)
        assert got.shape == (rows, 4) and got.dtype == np.uint64 and got.flags.c_contiguous
        assert all(np.array_equal(row, want[s]) for row, s in zip(got, seeds.tolist()))


def test_model_block_rows_are_the_replication_streams():
    gamma, b, rho, k, master_seed = 0.5, 0.1, -1.0, 50, 6
    r = np.arange(40, dtype=np.uint64)
    block, rhos = _model_draw(gamma, b, rho, k)(_seed_states(_rep_seeds(master_seed, r)))
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
    a, rho_a = _model_draw(0.5, 0.1, -1.0, 50)(_states(11))
    b, _ = _model_draw(0.5, 0.1, -1.0, 50)(_states(11))
    assert np.array_equal(a, b)
    assert a.shape == (1, 50) and rho_a == -1.0
    assert (a >= 0).all()


def test_model_spacings_mean_matches_theory():
    # E(Z_j) = gamma + b*C_j; check against 3 standard errors per coordinate
    gamma, b, rho, k, reps = 1.0, 0.5, -1.0, 20, 4000
    acc = np.zeros(k)
    draw = _model_draw(gamma, b, rho, k)
    for r in range(reps):
        acc += draw(_states(rep_seed(77, r)))[0][0]
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
    z_model = _model_draw(0.5, 0.1, -1.0, 30)(_states(rep_seed(9, 0)))[0][0]
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


def test_normality_report_checks_the_true_gamma_before_any_draw(monkeypatch):
    """A true gamma of 1e308 overflows 2 gamma: NonFiniteError up front, in either mode."""
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "_replicate", no_replication)
    for spec in (pareto(1e308), frechet(1e-308), burr(1.0, 1e-308, 1.0)):
        for method in (RhoMethod.fixed(-1.0), RhoMethod.moment(), RhoMethod.min_variance()):
            with pytest.raises(NonFiniteError):
                normality_report(100, 5, spec=spec, n=20, rho_method=method)
    for gamma in (1e308, np.inf):
        with pytest.raises(NonFiniteError):
            normality_report(100, 10, gamma=gamma)


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
        _model_draw(1e308, 0.0, -1.0, 10)(_states(*(rep_seed(0, r) for r in range(200))))
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


def _nan_aggregates(values, true_gamma):
    """numpy's nan-reductions, the definition summarize's arithmetic follows."""
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # an empty slice
        return {"mean": np.nanmean(values, axis=2), "variance": np.nanvar(values, axis=2),
                "mse": np.nanmean((values - true_gamma) ** 2, axis=2),
                "missing": np.isnan(values).sum(axis=2)}


def test_summarize_equals_numpy_nan_reductions_bitwise():
    """NaN cells, an all-NaN cell, one replication and either layout give numpy's bits."""
    rng = np.random.default_rng(27)
    blocks = []
    for shape in ((2, 141, 20), (3, 7, 1), (1, 5, 333)):
        values = rng.normal(0.5, 0.3, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        values[rng.random(shape) < 0.2] = np.nan
        values[0, 1] = np.nan  # a cell with no replication
        blocks += [values, np.asfortranarray(values)]
    for values in blocks:
        got, want = summarize(values, 0.5), _nan_aggregates(values, 0.5)
        for key in ("mean", "variance", "mse", "missing"):
            assert got[key].dtype == want[key].dtype, key
            assert got[key].tobytes() == want[key].tobytes(), key  # NaN bits too
        assert got["bias"].tobytes() == (want["mean"] - 0.5).tobytes()


def test_summarize_raises_on_overflow_at_numpys_first_bad_cell():
    values = np.full((2, 3, 4), 1.0)
    values[1, 2, :2] = [1e200, -1e200]  # finite mean, overflowing mse and variance
    values[1, 1, :] = np.nan
    want = _nan_aggregates(values, 1.0)
    bad = np.isfinite(want["mean"]) & ~np.isfinite(want["mse"] + want["variance"])
    e, i = np.argwhere(bad)[0]
    message = (f"the mse or variance of cell [{e}, {i}] overflows "
               f"(mean {want['mean'][e, i]}, gamma 1.0)")
    with pytest.raises(NonFiniteError) as raised:
        summarize(values, 1.0)
    assert str(raised.value) == message


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
    """The engine one replication at a time: a one-row draw from the int seed's state, a 1-D call."""
    values = np.full((len(est_ids), len(k_values), reps), np.nan)
    rhos = []
    for r in range(reps):
        block, rho = draw(_states(rep_seed(master_seed, r)))
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

    def draw(states):
        block, rhos = np.empty((len(states), n - 1)), []
        for row, state in zip(block, states):
            rng = np.random.default_rng(state)
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
    # n = 200 with k up to 150 builds designs of more rhos and k than a (3, 150)
    # block, where a power taken on the whole block changed bits
    for n, k_values, method in ((60, np.arange(5, 60), RhoMethod.min_variance()),
                                (200, np.arange(10, 151), RhoMethod.min_variance()),
                                (200, np.arange(10, 151), RhoMethod.moment())):
        draw = _sampling_draw(spec, n, method, ESTIMATOR_IDS)
        for reps in (2 * (_CHUNK_ENTRIES // (n - 1)) + 1, 1):
            got, rhos = _replicate(draw, n - 1, ESTIMATOR_IDS, k_values, n, reps, 11)
            want, want_rhos = _reference_replicate(draw, ESTIMATOR_IDS, k_values, n, reps, 11)
            assert np.array_equal(got, want, equal_nan=True), (n, method)
            assert rhos == want_rhos


@pytest.mark.parametrize("n", [9, 6, 3])
def test_seed_batches_of_several_chunks_equal_one_replication_at_a_time(monkeypatch, n):
    # 64 entries: a batch of 16 state rows, which is two chunks of 8 rows at
    # n = 9, one of 12 at n = 6, and one of 32 (more rows than 16) at n = 3
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 64)
    k_values = np.arange(2, n)

    def draw(states):
        block, rhos = np.empty((len(states), n - 1)), []
        for row, state in zip(block, states):
            rng = np.random.default_rng(state)
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
    want = _reference_replicate(model, est_ids, k_values[-1:], n, 50, 7)[0]
    assert np.array_equal(got, want) and rhos == []  # the model's one rho is its caller's


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


def test_overflowing_minvar_grid_blanks_only_the_regressions(monkeypatch):
    # rho=-400 overflows the covariate sums, so resolving on this grid raises
    # InvalidRhoError on every sample: the regressions are missing and HILL is filled
    def overflowing_grid(tail, method):
        return _min_variance_rho(tail, (-1.0, -400.0))

    monkeypatch.setattr(montecarlo, "resolve_rho", overflowing_grid)
    cfg = SimulationConfig(spec=burr(1.0, 2.0, 1.0), n=200, reps=6, k_min=10, k_max=150,
                           estimators=("HILL", "WLS", "RR"), master_seed=3,
                           rho_method=RhoMethod.min_variance())
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
    r = np.arange(400, dtype=np.uint64)
    block, rhos = draw(_seed_states(_rep_seeds(master_seed, r)))
    good = [i for i, row in enumerate(block) if not np.isnan(row).all()]
    assert 0 < len(good) < len(rhos) and len(seen) == len(good)
    for i, z_all in zip(good, seen):
        assert np.shares_memory(z_all, block[i]) and np.array_equal(z_all, block[i])
    for row, seed in enumerate([rep_seed(master_seed, 0), rep_seed(master_seed, 1)]):
        one_row, one_rho = draw(_states(seed))  # a chunk of one row
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
        z = tail.z_all[:k]
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


def test_cell_unknown_estimator_raises_key_error_naming_it():
    s = run_model_simulation(1.0, 0.0, -1.0, 10, 3, ("HILL",), master_seed=0)
    with pytest.raises(KeyError, match="'WLS'"):
        s.cell("WLS", 10)
    for k in (10.5, 9.9):  # a k off the summary's, not truncated onto one
        with pytest.raises(KeyError, match=f"k={k} "):
            s.cell("HILL", k)
    assert s.cell("HILL", 10.0) == s.cell("HILL", np.int64(10)) == s.cell("HILL", 10)


def test_simulation_config_keeps_a_one_shot_iterable_of_ids_as_their_tuple():
    cfg = SimulationConfig(spec=pareto(1.0), n=50, reps=3, k_min=5, k_max=20,
                           estimators=(e for e in ("HILL", "WLS")))
    s = run_simulation(cfg)
    assert cfg.estimators == ("HILL", "WLS") and s.estimators == ("HILL", "WLS")
    assert s.missing.sum() == 0


@pytest.mark.parametrize("setting,error", [
    ({"reps": 2.5}, ValueError), ({"reps": "3"}, ValueError), ({"n": 50.5}, KOutOfRangeError),
    ({"k_min": 5.7}, KOutOfRangeError), ({"k_max": 20.0}, KOutOfRangeError),
    ({"master_seed": 1.5}, ValueError),
])
def test_integer_settings_must_be_integers(setting, error):
    (name, value), = setting.items()
    base = dict(spec=pareto(1.0), n=50, reps=3, k_min=5, k_max=20)
    with pytest.raises(error, match=f"^{name}={value!r} must be an integer$"):
        SimulationConfig(**{**base, **setting})


@pytest.mark.parametrize("kwargs,error", [
    ({"gamma": 1.0, "reps": 100.0}, ValueError),
    ({"gamma": 1.0, "k": 10.5}, KOutOfRangeError),
    ({"gamma": 1.0, "master_seed": 1.5}, ValueError),
    ({"spec": pareto(1.0), "n": 50.5}, KOutOfRangeError),
    ({"spec": pareto(1.0), "n": 50, "master_seed": 1.5}, ValueError),
])
def test_normality_report_rejects_non_integer_settings(kwargs, error):
    with pytest.raises(error, match="must be an integer"):
        normality_report(**{"reps": 100, "k": 10, **kwargs})


def test_model_study_rejects_a_non_integer_seed_reps_or_k():
    for kwargs, error in (({"master_seed": 1.5}, ValueError), ({"reps": 2.5}, ValueError),
                          ({"k": 10.0}, KOutOfRangeError)):
        args = {"gamma": 1.0, "b": 0.1, "rho": -1.0, "k": 10, "reps": 5, **kwargs}
        with pytest.raises(error, match="must be an integer"):
            run_model_simulation(**args)


@pytest.mark.parametrize("rho_method", ["minvar", "moment", None, -1.0])
def test_rho_method_must_be_a_rho_method(rho_method):
    """A rho method that is not a RhoMethod fails at construction, naming the builders.

    ``resolve_rho`` names them too, and names ``validate_and_sort`` for a
    tail that is not an OrderedTail.
    """
    message = r"RhoMethod\.fixed\(value\), RhoMethod\.moment\(\) or RhoMethod\.min_variance\(\)"
    with pytest.raises(TypeError, match=message):
        SimulationConfig(spec=pareto(1.0), n=50, reps=3, k_min=5, k_max=20, rho_method=rho_method)
    tail = validate_and_sort(np.arange(1.0, 51.0))
    with pytest.raises(TypeError, match=message):
        resolve_rho(tail, rho_method)
    with pytest.raises(TypeError, match=r"^tail is a list, not an OrderedTail; .*validate_and_sort"):
        resolve_rho([1, 2, 3], RhoMethod.min_variance())
    if rho_method is not None:  # normality_report reads None as the spec's true rho
        with pytest.raises(TypeError, match=message):
            normality_report(100, 10, spec=pareto(1.0), n=50, rho_method=rho_method)


@pytest.mark.parametrize("spec", [None, "pareto", {"gamma": 1.0}])
def test_spec_must_be_a_distribution_spec(spec):
    """A spec that is not a DistributionSpec fails before any draw, naming the builders."""
    message = r"pareto\(\), burr\(\), frechet\(\) or loggamma\(\)$"
    with pytest.raises(TypeError, match=message):
        SimulationConfig(spec, 50, 5, 5, 20)
    if spec is not None:  # normality_report reads None as model mode
        with pytest.raises(TypeError, match=message):
            normality_report(100, 10, spec=spec, n=50)


@pytest.mark.parametrize("kwargs,message", [
    ({"gamma": 5.0, "spec": pareto(1.0), "n": 50}, "gamma has no use in sampling mode"),
    ({"gamma": 1.0, "rho_method": RhoMethod.moment()}, "rho_method has no use in model mode"),
    ({"gamma": 1.0, "n": 5}, "n has no use in model mode"),
])
def test_normality_report_rejects_the_other_modes_arguments(kwargs, message, monkeypatch):
    """An argument the mode would ignore is a TypeError naming it, before any draw."""
    def no_replication(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(montecarlo, "_replicate", no_replication)
    with pytest.raises(TypeError, match=message):
        normality_report(100, 10, **kwargs)


def test_integer_settings_are_stored_as_the_ints_that_ran():
    cfg = SimulationConfig(spec=pareto(1.0), n=np.int64(50), reps=np.int32(3),
                           k_min=np.int64(5), k_max=np.uint16(20), master_seed=np.int64(7))
    assert [type(getattr(cfg, name)) for name in ("n", "reps", "k_min", "k_max",
                                                   "master_seed")] == [int] * 5
    s = run_simulation(cfg)
    want = run_simulation(replace(cfg, master_seed=7))
    np.testing.assert_array_equal(s.mean, want.mean)
    assert s.metadata["master_seed"] == 7 and type(s.metadata["master_seed"]) is int
    m = run_model_simulation(1.0, 0.1, -1.0, np.int64(10), np.int64(5), master_seed=np.int64(2))
    assert type(m.metadata["master_seed"]) is int and m.metadata["reps"] == 5
    rep = normality_report(np.int64(100), np.int64(10), np.int64(3), gamma=1.0)
    assert type(rep.config["master_seed"]) is int and (rep.reps, rep.k) == (100, 10)


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


def test_normality_report_shares_the_engine_with_sampling_simulation():
    # at gamma = 150 some samples overflow to inf: 86 of the 300 draws fail
    n, k, reps, seed = 40, 30, 300, 5
    for spec in (burr(1.0, np.sqrt(2.0), np.sqrt(2.0)), pareto(150.0)):
        for method in (RhoMethod.fixed(-0.5), RhoMethod.moment(), RhoMethod.min_variance()):
            rep = normality_report(reps, k, master_seed=seed, spec=spec, n=n, rho_method=method)
            s = run_simulation(SimulationConfig(spec, n, reps, k, k, ("WLS",), method, seed))
            want = standardized_statistic(s.cell("WLS", k)["mean"], spec.true_gamma, k)
            assert rep.sample_mean == pytest.approx(want, rel=1e-12)
            assert rep.config["missing"] == s.cell("WLS", k)["missing"]
            assert rep.config["resolved_rho_counts"] == s.metadata["resolved_rho_counts"]
    assert 0 < rep.config["missing"] < reps


def test_normality_report_config_keeps_its_keys():
    """The keys a report has always had keep their values; the new ones are the studies' own."""
    rep = normality_report(100, 10, master_seed=np.int64(3), gamma=2, b=0, rho=-1)
    old = {key: rep.config[key] for key in ("mode", "gamma", "b", "rho", "master_seed", "missing")}
    assert repr(old) == repr({"mode": "model", "gamma": 2.0, "b": 0.0, "rho": -1.0,
                              "master_seed": 3, "missing": 0})
    assert rep.config["k"] == 10 and rep.config["reps"] == 100
    spec = burr(1.0, 2.0, 1.0)
    rep = normality_report(100, 10, master_seed=np.int64(3), spec=spec, n=np.int64(30))
    old = {key: rep.config[key]
           for key in ("mode", "family", "params", "n", "rho_method", "master_seed", "missing")}
    assert repr(old) == repr({"mode": "sampling", "family": "burr",
                              "params": {"eta": 1.0, "tau": 2.0, "lam": 1.0}, "n": 30,
                              "rho_method": "fixed:-1", "master_seed": 3, "missing": 0})
    s = run_simulation(SimulationConfig(spec, 30, 100, 10, 10, ("WLS",), RhoMethod.fixed(-1.0),
                                        3))
    for key in set(rep.config) & set(s.metadata) - {"wall_clock_s"}:
        assert rep.config[key] == s.metadata[key], key
    assert rep.config["resolved_rho_counts"] == "-1:100,unresolved:0"
    assert rep.config["wall_clock_s"] > 0.0
