"""Monte Carlo machinery: seeded generators, one replication engine, aggregation.

Replication r of a study draws from a PCG64 stream seeded with

    rep_seed(master_seed, r) = master_seed XOR splitmix64(r)

so runs are reproducible, independent of replication order, and cheap to
shard. Every study runs through one engine, ``_replicate``. It takes the
replications in order, in chunks of at most ``_CHUNK_ENTRIES`` spacings,
sized from the draw's row length before anything is drawn. It derives the
PCG64 seed states of a batch of whole chunks in one vectorised step, which
equals ``np.random.SeedSequence(rep_seed(master_seed, r))
.generate_state(4, np.uint64)`` bit for bit; a batch is as many chunks as
fit their ``(rows, 4)`` state block in ``_CHUNK_ENTRIES`` words (128 KiB),
and at least one. Each chunk hands the draw one seed object per
replication, from its rows of the batch's block. A PCG64 built from that
object is the stream ``PCG64(rep_seed(master_seed, r))`` would give, so a
replication replays from its integer seed alone. One call of
:func:`tailwls.estimators.path_estimates` computes every estimator path of a
chunk, whatever the rho method: the model draw hands it one rho, the
sampling draw one per row.
Both draws start from one block of uniforms, one row from each
replication's stream (``distributions._uniforms``; ``sample`` is one row).
The sampling draw turns the chunk's block into samples with one quantile
call, then validates, sorts and takes the log-spacings of all rows at once
(:func:`tailwls.spacings.block_tails`; ``validate_and_sort`` is one row);
only the rho of each good row is resolved one replication at a time. The
model draw turns its block into unit exponentials f_j scaled by the means
of the exponential regression model, built and checked once per study,

    Z_j = (gamma + b * C_j) * f_j.

``run_simulation``, ``run_model_simulation`` and ``normality_report``
validate, build a draw and call the engine. One failure rule holds for all
three, per replication: a failed draw, or a rho that over- or underflows the
covariate sums, marks the whole replication missing, and an unresolved rho
marks every rho-dependent estimator. A table call fails as a whole only on
the k range, n, the ids or the model's one rho, so studies raise those
configuration errors from the first chunk's table call, which no
replication survives. The one error a study raises later is NonFiniteError,
from a model spacing, a path or an aggregate that overflows (a gamma near
the float range).
Aggregates use the population-style divisor (number of successful
replications), so mse = variance + bias^2 holds exactly.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import __version__
from .asymptotics import standardized_statistic
from .distributions import DistributionSpec, _uniforms, quantile
from .errors import KOutOfRangeError, NonFiniteError, NonPositiveError, TailwlsError
from .estimators import ESTIMATOR_IDS, check_estimators, needs_rho, path_estimates
from .second_order import RhoMethod, resolve_rho
from .spacings import block_tails, check_k_range, covariates, raise_on_overflow

_MASK64 = (1 << 64) - 1

#: Identifier of the uniform stream recorded in summary metadata.
GENERATOR_ID = "pcg64/splitmix64-xor"

# Spacings per chunk of ``_replicate``. It bounds each temporary of a table
# call at 16 384 float64 (128 KiB) whatever the row length, where a fixed row
# count would make a study at n = 10^5 allocate 100 MB per temporary; a row
# longer than the bound is a chunk of its own. At k = 100 a chunk holds 163
# rows, enough that the table's per-call cost no longer counts. The same bound
# sizes a batch of seed states: 4 096 rows of 4 uint64 words.
_CHUNK_ENTRIES = 16384


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer; bijective scramble of a 64-bit integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def rep_seed(master_seed: int, r: int) -> int:
    """Derived seed for replication r; distinct r give well-separated seeds."""
    return (int(master_seed) & _MASK64) ^ _splitmix64(int(r))


def _rep_seeds(master_seed: int, r: np.ndarray) -> np.ndarray:
    """``rep_seed(master_seed, r)`` for every entry of a uint64 array r.

    uint64 arithmetic wraps modulo 2^64, as the masks of the scalar form do.
    """
    u = np.uint64
    x = r + u(0x9E3779B97F4A7C15)
    x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
    return u(int(master_seed) & _MASK64) ^ x ^ (x >> u(31))


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The hash constants h_0 = init, h_{i+1} = h_i * mult (mod 2^32)."""
    steps = [init]
    while len(steps) < count:
        steps.append(steps[-1] * mult & 0xFFFFFFFF)
    return tuple(np.uint64(h) for h in steps)


# numpy's SeedSequence: INIT_A/MULT_A drive the 16 hashes that fill and mix a
# pool of 4 words, INIT_B/MULT_B the 8 that give 4 uint64 words of output.
_POOL_HASH = _hash_steps(0x43B0D7E5, 0x931E8875, 17)
_STATE_HASH = _hash_steps(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_MASK32, _SHIFT = np.uint64(0xFFFFFFFF), np.uint64(16)


def _hash32(v: np.ndarray, before, after) -> np.ndarray:
    """One SeedSequence hash step on uint32 values held in uint64: (v ^ h_i) * h_{i+1}."""
    v = (v ^ before) * after & _MASK32
    return v ^ (v >> _SHIFT)


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` per uint64 seed s.

    Returns a ``(rows, 4)`` uint64 block. numpy's pool hash and output hash
    run on 32-bit words held in uint64 arrays, so a product of two words
    never overflows before the mask. SeedSequence pools a one- or two-word
    seed exactly as it pools the same words padded with zeros to 4, so every
    seed takes this one path.
    """
    zero = np.zeros_like(seeds)
    pool = [seeds & _MASK32, seeds >> np.uint64(32), zero, zero]
    h = iter(zip(_POOL_HASH, _POOL_HASH[1:]))
    pool = [_hash32(word, *next(h)) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (pool[dst] * _MIX_L - _hash32(pool[src], *next(h)) * _MIX_R) & _MASK32
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = [_hash32(pool[i % 4], _STATE_HASH[i], _STATE_HASH[i + 1]) for i in range(8)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])],
                    axis=1)


@cache
def _seed_state_type() -> type:
    """The ISeedSequence that hands a precomputed seed state to ``np.random.PCG64``.

    PCG64 asks its seed object once, for ``generate_state(4, np.uint64)``;
    an instance answers with its row of :func:`_seed_states`, a contiguous
    uint64 array of 4. The class is built on first use, so importing the
    package does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _model_draw(gamma: float, b: float, rho: float, k: int):
    """Draw of model spacings with the true rho; the means are checked once, here.

    The draw takes one seed per replication (an int or an ISeedSequence) and
    returns the ``(rows, k)`` block of spacings, row i from seed i's PCG64
    stream as ``means * -log1p(-U)`` with k uniforms U, and the one rho. It
    raises NonFiniteError where a spacing overflows.

    Raises:
        KOutOfRangeError: k < 1.
        InvalidRhoError: rho not finite negative.
        NonFiniteError: some mean gamma + b C_j is NaN or overflows.
        NonPositiveError: some mean gamma + b C_j <= 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked next: inf * 0 is NaN
        means = float(gamma) + float(b) * covariates(k, rho)
    if not np.isfinite(means).all():
        raise NonFiniteError(f"gamma={gamma}, b={b}: a mean gamma + b*C_j is not finite")
    if not (means > 0.0).all():
        j_bad = int(np.argmin(means)) + 1
        raise NonPositiveError(
            f"mean gamma + b*C_j = {means.min()} at j={j_bad} is not positive"
        )
    scale = -means

    def draw(seeds):
        block = _uniforms(seeds, means.size)
        np.log1p(np.negative(block, out=block), out=block)
        with raise_on_overflow("a model spacing"):
            block *= scale  # log1p(-U) * -means, which is means * -log1p(-U) exactly
        return block, rho

    return draw


def _sampling_draw(spec: DistributionSpec, n: int, rho_method: RhoMethod,
                   est_ids: tuple[str, ...]):
    """Draw of full samples: one block for the chunk, then each row's rho.

    The draw takes one seed per replication and returns the ``(rows, n-1)``
    block of spacings and the ``(rows,)`` array of their rhos. Row i is the
    sample ``sample(spec, n, seed_i)`` gives and the spacings
    ``validate_and_sort`` gives it, as both are the one-row case of the
    builders used here; a row that fails that validation is NaN, spacings and
    rho. Rho is resolved per good row, on the row's own OrderedTail, only
    when some estimator in ``est_ids`` needs it; it stays NaN where that
    fails or is not needed.
    """
    resolves = needs_rho(est_ids)

    def draw(seeds):
        block, tails = block_tails(quantile(spec, _uniforms(seeds, n)))
        rho = np.full(len(tails), np.nan)
        for row, tail in enumerate(tails):
            if resolves and tail is not None:
                try:
                    rho[row] = resolve_rho(tail, rho_method)
                except TailwlsError:
                    pass
        return block, rho

    return draw


def _replicate(draw, row_len: int, est_ids: tuple[str, ...], k_values: np.ndarray,
               n: int | None, reps: int, master_seed: int) -> tuple[np.ndarray, list]:
    """The replication engine behind every study: (values[estimator, k, rep], rhos).

    Replications run in order of r, in chunks of ``max(1, _CHUNK_ENTRIES //
    row_len)``, where ``row_len`` is the length of a draw's rows. The seed
    states come from one :func:`_seed_states` call per batch of whole
    chunks, the most whose ``(rows, 4)`` state block fits in
    ``_CHUNK_ENTRIES`` words and at least one: the cost of that call is
    mostly per call, not per row. ``draw`` gets one seed object (of
    :func:`_seed_state_type`) per replication of a chunk, each holding its
    row of the batch's block. It returns the ``(rows, row_len)`` block of
    spacings, NaN in a row whose draw failed, and the rows' rho: one for all,
    or one per row, NaN where unresolved. The chunk is one table call, and
    each row of the result is its replication's paths, bit for bit, or NaN
    where the module's failure rule marks it missing; a call that fails as a
    whole raises. ``rhos`` holds the rho (None if unresolved) of every draw
    that did not fail, in order of r.
    """
    values = np.full((len(est_ids), len(k_values), reps), np.nan)
    rhos = []
    chunk = max(1, _CHUNK_ENTRIES // row_len)
    batch = max(1, _CHUNK_ENTRIES // 4 // chunk) * chunk
    seed_state = _seed_state_type()
    for start in range(0, reps, chunk):
        offset = start % batch
        if offset == 0:
            r = np.arange(start, min(start + batch, reps), dtype=np.uint64)
            states = _seed_states(_rep_seeds(master_seed, r))
        block, rho = draw([seed_state(state) for state in states[offset:offset + chunk]])
        ok = ~np.isnan(block[:, 0])  # a failed draw's row is NaN
        rhos += [None if math.isnan(r) else r for r in np.broadcast_to(rho, ok.shape)[ok].tolist()]
        paths = path_estimates(block, n, est_ids, rho, k_values).paths
        for e, est in enumerate(est_ids):
            if est in paths:
                values[e][:, start:start + len(block)] = paths[est].T
    return values, rhos


def _rho_counts(rhos) -> str:
    """``rho:count`` for each resolved rho in ascending order, then ``unresolved:count``."""
    resolved = sorted(rho for rho in rhos if rho is not None)
    counts = Counter(f"{rho:g}" for rho in resolved)
    counts["unresolved"] = len(rhos) - len(resolved)
    return ",".join(f"{label}:{count}" for label, count in counts.items())


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for a sampling-based study over a k range."""

    spec: DistributionSpec
    n: int
    reps: int
    k_min: int
    k_max: int
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    rho_method: RhoMethod = field(default_factory=RhoMethod.min_variance)
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps={self.reps} must be at least 1")
        check_k_range(self.k_min, self.k_max, self.n)
        check_estimators(self.estimators)


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated results, one cell per (estimator, k).

    All 2-D arrays are indexed [estimator, k] following ``estimators`` and
    ``k_values``. ``missing[e, i]`` counts replications whose estimate could
    not be computed; aggregates are over the remaining ones. ``metadata``
    echoes the configuration plus timing; nothing in the data arrays depends
    on wall-clock time.
    """

    estimators: tuple[str, ...]
    k_values: np.ndarray
    true_gamma: float
    mean: np.ndarray
    bias: np.ndarray
    mse: np.ndarray
    variance: np.ndarray
    missing: np.ndarray
    metadata: dict

    def _cell(self, e: int, i: int) -> dict:
        return {
            "estimator": self.estimators[e],
            "k": int(self.k_values[i]),
            "mean": float(self.mean[e, i]),
            "bias": float(self.bias[e, i]),
            "mse": float(self.mse[e, i]),
            "variance": float(self.variance[e, i]),
            "missing": int(self.missing[e, i]),
        }

    def cell(self, estimator: str, k: int) -> dict:
        """All aggregates for one (estimator, k) pair."""
        e = self.estimators.index(estimator)
        hits = np.nonzero(np.asarray(self.k_values) == int(k))[0]
        if len(hits) == 0:
            raise KeyError(f"k={k} not in summary")
        return self._cell(e, int(hits[0]))

    def rows(self):
        """Yield cells in reporting order: estimator-major, k ascending."""
        for e in range(len(self.estimators)):
            for i in range(len(self.k_values)):
                yield self._cell(e, i)


def summarize(values: np.ndarray, true_gamma: float) -> dict:
    """Aggregate a (E, K, reps) array with NaN marking failures.

    Means, variances and MSEs are taken over the non-NaN replications of
    each cell with the population divisor, so mse = variance + bias^2
    exactly. A permutation of the replication axis changes nothing beyond
    float roundoff. A cell with no replication is NaN throughout.

    Raises:
        NonFiniteError: at the first cell, estimator-major, whose mean is
            finite but whose mse or variance overflows (a gamma near 1e155).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(values, axis=2)
        variance = np.nanvar(values, axis=2)
        mse = np.nanmean((values - true_gamma) ** 2, axis=2)
    bad = np.isfinite(mean) & ~(np.isfinite(mse) & np.isfinite(variance))
    if bad.any():
        e, i = np.argwhere(bad)[0]
        raise NonFiniteError(f"the mse or variance of cell [{e}, {i}] overflows "
                             f"(mean {mean[e, i]}, gamma {true_gamma})")
    bias = mean - true_gamma
    missing = np.isnan(values).sum(axis=2)
    return {
        "mean": mean,
        "bias": bias,
        "mse": mse,
        "variance": variance,
        "missing": missing,
    }


def _summary(values: np.ndarray, est_ids: tuple[str, ...], k_values: np.ndarray,
             true_gamma: float, master_seed: int, t0: float,
             settings: dict) -> SimulationSummary:
    """Aggregate an engine output; metadata is ``settings`` plus the common keys."""
    agg = summarize(values, true_gamma)
    metadata = {
        **settings,
        "estimators": ",".join(est_ids),
        "master_seed": master_seed,
        "uniform_generator": GENERATOR_ID,
        "package_version": __version__,
        "wall_clock_s": time.perf_counter() - t0,
    }
    return SimulationSummary(est_ids, k_values, true_gamma, metadata=metadata, **agg)


def run_simulation(config: SimulationConfig) -> SimulationSummary:
    """Full sampling study: draw, sort, resolve rho, estimate, aggregate.

    Each replication draws one sample of size n from the spec, resolves rho
    once (the resolution methods do not depend on k), and computes the path
    of every requested estimator over [k_min, k_max]. Failures are counted
    as missing by the module's failure rule. ``metadata["resolved_rho_counts"]``
    counts the replications per resolved rho, then the unresolved ones.
    """
    t0 = time.perf_counter()
    est_ids = check_estimators(config.estimators)
    k_values = np.arange(config.k_min, config.k_max + 1)
    spec = config.spec
    draw = _sampling_draw(spec, config.n, config.rho_method, est_ids)
    values, rhos = _replicate(draw, config.n - 1, est_ids, k_values, config.n, config.reps,
                              config.master_seed)
    return _summary(
        values, est_ids, k_values, spec.true_gamma, config.master_seed, t0,
        {
            "mode": "sampling",
            "family": spec.family,
            "params": dict(spec.params),
            "true_gamma": spec.true_gamma,
            "true_rho": spec.true_rho,
            "n": config.n,
            "reps": config.reps,
            "k_min": config.k_min,
            "k_max": config.k_max,
            "rho_method": config.rho_method.method_id,
            "resolved_rho_counts": _rho_counts(rhos),
        },
    )


def run_model_simulation(
    gamma: float,
    b: float,
    rho: float,
    k: int,
    reps: int,
    estimators=("WLS",),
    master_seed: int = 0,
    n: int | None = None,
) -> SimulationSummary:
    """Study at a single k with spacings drawn straight from the model.

    The true rho is handed to every estimator, so this isolates estimation
    error from rho-resolution error. BCHILL needs a nominal sample size for
    its (n/k)^rho factor, which the pure generator does not have; pass ``n``
    explicitly when requesting it. Every replication shares rho, k and n,
    so whatever would fail its table call raises from the first one.

    Raises:
        NonPositiveError: gamma <= 0, or a model mean gamma + b C_j <= 0.
        NonFiniteError: a model mean that is NaN or infinite (gamma or b so),
            or a spacing, an estimate or an mse that overflows.
        EmptyOrTinyError / ValueError: bad estimator set.
        KOutOfRangeError / InvalidRhoError: k < 1, BCHILL without n >= k+1,
            rho not finite negative, or a regression estimator's covariate
            sums over- or underflowing at rho.
        KTooSmallError: a regression estimator with k < 2.
    """
    t0 = time.perf_counter()
    gamma = float(gamma)
    if not gamma > 0.0:
        raise NonPositiveError(f"gamma={gamma} must be > 0")
    est_ids = check_estimators(estimators)
    reps, k = int(reps), int(k)
    if reps < 1:
        raise ValueError(f"reps={reps} must be at least 1")
    draw = _model_draw(gamma, b, rho, k)
    k_values = np.array([k])
    values = _replicate(draw, k, est_ids, k_values, n, reps, master_seed)[0]
    return _summary(
        values, est_ids, k_values, gamma, master_seed, t0,
        {
            "mode": "model",
            "gamma": gamma,
            "b": float(b),
            "rho": float(rho),
            "k": k,
            "reps": reps,
        },
    )


@dataclass(frozen=True)
class NormalityReport:
    """Empirical moments of the standardized WLS statistic over many runs."""

    sample_mean: float
    sample_variance: float
    skewness: float
    excess_kurtosis: float
    reps: int
    k: int
    config: dict = field(default_factory=dict)


def normality_report(
    reps: int,
    k: int,
    master_seed: int = 0,
    *,
    gamma: float | None = None,
    b: float = 0.0,
    rho: float = -1.0,
    spec=None,
    n: int | None = None,
    rho_method=None,
) -> NormalityReport:
    """Moments of the standardized WLS statistic under repeated sampling.

    Two generation modes share the signature and the replication engine of
    :func:`run_simulation`. With ``spec`` None the spacings come straight
    from the exponential regression model with parameters (gamma, b, rho),
    which must then include gamma > 0. With ``spec`` set to a
    DistributionSpec, full samples of size ``n`` are drawn and the top k
    order statistics are kept; rho is then resolved by ``rho_method``
    (default: the spec's true rho when finite negative, else -1).

    The statistic is :func:`standardized_statistic`, so at b = 0 its
    variance approaches 3k * amse(1, k, rho) / 4 (18/5 at rho = -1), not the
    1 of the paper's normality statement. The first table call raises
    KTooSmallError at k = 1 and, in model mode, InvalidRhoError for a rho
    that over- or underflows the covariate sums. A replication that fails
    (by the module's failure rule) is counted in ``config["missing"]`` and
    the moments are taken over the others; they are NaN when every
    replication fails.

    Args:
        reps: number of replications, at least 100.
        k: tail fraction used by every fit, at least 2.
        master_seed: base seed; replication r uses a derived stream.

    Returns:
        NormalityReport with mean, variance, skewness, excess kurtosis of the
        statistic and an echo of the generation settings.
    """
    reps = int(reps)
    if reps < 100:
        raise ValueError(f"reps={reps}; need at least 100 for stable moments")
    k = int(k)
    t0 = time.perf_counter()
    if spec is None:
        if gamma is None or not float(gamma) > 0.0:
            raise NonPositiveError(
                f"model mode needs gamma > 0, got {gamma}"
            )
        gamma = float(gamma)
        draw, row_len = _model_draw(gamma, b, rho, k), k
        config = {
            "mode": "model",
            "gamma": gamma,
            "b": float(b),
            "rho": float(rho),
            "master_seed": int(master_seed),
        }
    else:
        if n is None or int(n) < k + 1:
            raise KOutOfRangeError(f"sampling mode needs n >= k+1, got n={n}")
        n = int(n)
        if rho_method is None:
            true_rho = spec.true_rho
            fallback = true_rho if np.isfinite(true_rho) and true_rho < 0.0 else -1.0
            rho_method = RhoMethod.fixed(fallback)
        gamma = spec.true_gamma
        draw, row_len = _sampling_draw(spec, n, rho_method, ("WLS",)), n - 1
        config = {
            "mode": "sampling",
            "family": spec.family,
            "params": dict(spec.params),
            "n": n,
            "rho_method": rho_method.method_id,
            "master_seed": int(master_seed),
        }
    gamma_hat = _replicate(draw, row_len, ("WLS",), np.array([k]), n, reps,
                           master_seed)[0][0, 0]
    stats = standardized_statistic(gamma_hat[~np.isnan(gamma_hat)], gamma, k)
    config["missing"] = reps - stats.size
    config["wall_clock_s"] = time.perf_counter() - t0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN below two replications
        mean = np.mean(stats)
        centered = stats - mean
        m2 = np.mean(centered**2)
        m3 = np.mean(centered**3)
        m4 = np.mean(centered**4)
        skewness = m3 / m2**1.5
        excess_kurtosis = m4 / m2**2 - 3.0
    return NormalityReport(
        sample_mean=float(mean),
        sample_variance=float(m2),
        skewness=float(skewness),
        excess_kurtosis=float(excess_kurtosis),
        reps=reps,
        k=k,
        config=config,
    )
