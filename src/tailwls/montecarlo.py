"""Monte Carlo machinery: the seeded stream, one replication engine, aggregation.

The module owns the seeded stream: it turns a replication into a seed
(``rep_seed``), a seed into a PCG64 seed state (``_seed_states``) and a state
into uniforms (``_uniforms``), and ``sample`` is that stream's one-row case.
Replication r of a study draws from a PCG64 stream seeded with

    rep_seed(master_seed, r) = master_seed XOR splitmix64(r)

so runs are reproducible, independent of replication order, and cheap to
shard. Every study runs through one engine, ``_replicate``. It takes the
replications in order, in chunks of at most ``_CHUNK_ENTRIES`` spacings,
sized from the draw's row length before anything is drawn. It derives the
PCG64 seed states of a batch of whole chunks in one vectorised step on
uint32 words, which equals ``np.random.SeedSequence(rep_seed(master_seed,
r)).generate_state(4, np.uint64)`` bit for bit; a batch is as many chunks
as fit their C-contiguous ``(rows, 4)`` uint64 state block in
``_CHUNK_ENTRIES`` words (128 KiB), and at least one. That block is the
draw's input: each chunk hands the draw its rows of it, and the stream of
row r is the one ``PCG64(rep_seed(master_seed, r))`` gives, so a
replication replays from its integer seed alone. One call of
:func:`tailwls.estimators.path_estimates` computes every estimator path of a
chunk, whatever the rho method: the model draw hands it one rho, the
sampling draw one per row.
Both draws start from one block of uniforms, one row from each
replication's stream (``_uniforms``; ``sample`` is one row).
The sampling draw turns the chunk's block into samples with one quantile
call, then validates, sorts and takes the log-spacings of all rows at once
(:func:`tailwls.spacings.block_tails`; ``validate_and_sort`` is one row);
only the rho of each good row is resolved one replication at a time. The
model draw turns its block into unit exponentials f_j scaled by the means
of the exponential regression model, built and checked once per study,

    Z_j = (gamma + b * C_j) * f_j.

Each draw mode has one core (``_model_core``, ``_sampling_core``) that
validates, builds the draw and calls the engine. ``run_model_simulation``
and ``run_simulation`` summarize its values, and ``normality_report``
standardizes their WLS column. One failure rule holds for all three, per
replication: a failed draw, or a rho that over- or underflows the
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
from .distributions import DistributionSpec, quantile
from .errors import KOutOfRangeError, NonFiniteError, NonPositiveError, TailwlsError
from .estimators import ESTIMATOR_IDS, check_estimators, needs_rho, path_estimates
from .second_order import RhoMethod, check_rho_method, resolve_rho
from .spacings import (block_tails, check_int, check_k_range, check_k_values, check_positive,
                       covariates, raise_on_overflow)

__all__ = ["GENERATOR_ID", "SimulationConfig", "SimulationSummary", "rep_seed", "sample",
           "run_simulation", "run_model_simulation", "summarize", "NormalityReport",
           "normality_report"]

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


def rep_seed(master_seed: int, r: int) -> int:
    """Derived seed for replication r, taken mod 2^64; ValueError for a non-integer r or seed."""
    r = check_int("r", r, ValueError) & _MASK64
    return int(_rep_seeds(master_seed, np.array([r], dtype=np.uint64))[0])


def _rep_seeds(master_seed: int, r: np.ndarray) -> np.ndarray:
    """master_seed XOR splitmix64(r) for every entry of a uint64 array r, wrapping mod 2^64."""
    master_seed = check_int("master_seed", master_seed, ValueError)
    u = np.uint64
    x = r + u(0x9E3779B97F4A7C15)
    x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
    return u(master_seed & _MASK64) ^ x ^ (x >> u(31))


def _hash_steps(init: int, mult: int, count: int) -> tuple:
    """The hash constants h_0 = init, h_{i+1} = h_i * mult (mod 2^32)."""
    steps = [init]
    while len(steps) < count:
        steps.append(steps[-1] * mult & 0xFFFFFFFF)
    return tuple(np.uint32(h) for h in steps)


# numpy's SeedSequence: INIT_A/MULT_A drive the 16 hashes that fill and mix a
# pool of 4 words, INIT_B/MULT_B the 8 that give 4 uint64 words of output.
_POOL_HASH = _hash_steps(0x43B0D7E5, 0x931E8875, 17)
_STATE_HASH = _hash_steps(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash32(v: np.ndarray, before, after) -> np.ndarray:
    """One SeedSequence hash step on a uint32 array, in a new one: (v ^ h_i) * h_{i+1}, mixed."""
    v = v ^ before
    v *= after
    v ^= v >> _SHIFT
    return v


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` per uint64 seed s.

    Returns a C-contiguous ``(rows, 4)`` uint64 block. numpy's pool hash and
    output hash are arithmetic mod 2^32, which uint32 arrays do by wrapping;
    every step is an array op, as numpy warns on a uint32 scalar that wraps.
    SeedSequence pools a one- or two-word seed exactly as it pools the same
    words padded with zeros to 4, so every seed takes this one path. The 8
    output words of a row are its 4 uint64 words, low word first, which is
    how numpy views them on a little-endian host.
    """
    lo, hi = seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    h = iter(zip(_POOL_HASH, _POOL_HASH[1:]))
    pool = [_hash32(word, *next(h)) for word in (lo, hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_L
                mixed -= _hash32(pool[src], *next(h)) * _MIX_R
                mixed ^= mixed >> _SHIFT
                pool[dst] = mixed
    words = [_hash32(pool[i % 4], _STATE_HASH[i], _STATE_HASH[i + 1]) for i in range(8)]
    return np.stack(words, axis=1).view(np.uint64)


@cache
def _seed_state_type() -> type:
    """The ISeedSequence that hands a precomputed seed state to ``np.random.PCG64``.

    PCG64 asks its seed object once, for ``generate_state(4, np.uint64)``,
    and reads the answer's memory as its 4 words; an instance answers with
    the array its ``state`` points to. The class is built on first use, so
    importing the package does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeedState


def _uniforms(states, width: int) -> np.ndarray:
    """The ``(rows, width)`` block of uniforms, row i the start of state row i's PCG64 stream.

    The one place a seed state becomes uniforms. ``states`` is a ``(rows,
    4)`` block of uint64 PCG64 seed states, row i what ``np.random.PCG64``
    asks a seed for (:func:`_seed_states` of an int seed s), and row i of
    the result is what ``np.random.Generator(np.random.PCG64(s)).random(width)``
    returns. The block is taken C-contiguous once, since PCG64 reads a state
    row's memory and not its values: a strided row would seed another stream.
    One adapter of :func:`_seed_state_type` is pointed at each row in turn.
    """
    states = np.ascontiguousarray(states, dtype=np.uint64)
    block = np.empty((len(states), width))
    adapter = _seed_state_type()()
    for row, state in zip(block, states):
        adapter.state = state
        np.random.Generator(np.random.PCG64(adapter)).random(out=row)
    return block


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw n values from ``spec`` by inverse transform, one uniform per draw.

    The same (spec, n, seed) always yields the same array: the uniforms are
    ``np.random.Generator(np.random.PCG64(seed)).random(n)``, the one-row
    block of :func:`_uniforms`. n must be an integer >= 1 and seed an
    integer >= 0 (else ValueError).
    """
    n, seed = check_int("n", n, ValueError, 1), check_int("seed", seed, ValueError, 0)
    # numpy's SeedSequence builds one state in ~8 us where _seed_states, built
    # for a batch, takes ~140 us for one row (2-CPU x86_64 host); it also takes
    # the seeds past 2^64
    state = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    return quantile(spec, _uniforms(state[None], n)[0])


def _model_draw(gamma: float, b: float, rho: float, k: int):
    """Draw of model spacings with the true rho; the means are checked once, here.

    The draw takes the ``(rows, 4)`` block of PCG64 seed states of its
    replications (see :func:`_uniforms`) and returns the ``(rows, k)`` block
    of spacings, row i from state row i's stream as ``means * -log1p(-U)``
    with k uniforms U, and the one rho. It raises NonFiniteError where a
    spacing overflows.

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

    def draw(states):
        block = _uniforms(states, means.size)
        np.log1p(np.negative(block, out=block), out=block)
        with raise_on_overflow("a model spacing"):
            block *= scale  # log1p(-U) * -means, which is means * -log1p(-U) exactly
        return block, rho

    return draw


def _sampling_draw(spec: DistributionSpec, n: int, rho_method: RhoMethod,
                   est_ids: tuple[str, ...]):
    """Draw of full samples: one block for the chunk, then each row's rho.

    The draw takes the ``(rows, 4)`` block of PCG64 seed states of its
    replications and returns the ``(rows, n-1)`` block of spacings and the
    ``(rows,)`` array of their rhos. Row i is the sample ``sample(spec, n,
    seed_i)`` gives, for a seed whose state is row i, and the spacings
    ``validate_and_sort`` gives it, as both are the one-row case of the
    builders used here; a row that fails that validation is NaN, spacings and
    rho. Rho is resolved per good row, on the row's own OrderedTail, only
    when some estimator in ``est_ids`` needs it; it stays NaN where that
    fails or is not needed.
    """
    resolves = needs_rho(est_ids)

    def draw(states):
        block, tails = block_tails(quantile(spec, _uniforms(states, n)))
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
    mostly per call, not per row. ``draw`` gets a chunk's rows of the
    batch's C-contiguous block, one PCG64 seed state per replication. It
    returns the ``(rows, row_len)`` block of spacings, NaN in a row whose
    draw failed, and the rows' rho: one for all, or one per row, NaN where
    unresolved. The chunk is one table call, and each row of the result is
    its replication's paths, bit for bit, or NaN where the module's failure
    rule marks it missing; a call that fails as a whole raises. ``rhos``
    holds the rho (None if unresolved) of every draw that did not fail, in
    order of r, if the draw gives one per row; a draw that gives one rho
    for all (the model's, known to its caller) adds none.
    """
    values = np.full((len(est_ids), len(k_values), reps), np.nan)
    rhos = []
    chunk = max(1, _CHUNK_ENTRIES // row_len)
    batch = max(1, _CHUNK_ENTRIES // 4 // chunk) * chunk
    for start in range(0, reps, chunk):
        offset = start % batch
        if offset == 0:
            r = np.arange(start, min(start + batch, reps), dtype=np.uint64)
            states = _seed_states(_rep_seeds(master_seed, r))
        block, rho = draw(states[offset:offset + chunk])
        if getattr(rho, "ndim", 0):
            ok = ~np.isnan(block[:, 0])  # a failed draw's row is NaN
            rhos += [None if math.isnan(r) else r for r in rho[ok].tolist()]
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


def _check_spec(spec) -> DistributionSpec:
    """``spec`` if it is a DistributionSpec, else TypeError before any draw reads it."""
    if not isinstance(spec, DistributionSpec):
        raise TypeError(f"spec={spec!r} is not a DistributionSpec from pareto(), burr(), "
                        "frechet() or loggamma()")
    return spec


@dataclass(frozen=True)
class SimulationConfig:
    """Settings for a sampling-based study over a k range.

    ``estimators`` is stored as the tuple ``check_estimators`` returns, so
    an iterable of ids is read once, here; each integer setting as the int
    ``check_int`` returns (a non-integer reps or master_seed is a ValueError).
    ``spec`` must be a :class:`DistributionSpec`, ``rho_method`` a
    :class:`RhoMethod` and ``estimators`` not a string (else TypeError).
    """

    spec: DistributionSpec
    n: int
    reps: int
    k_min: int
    k_max: int
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    rho_method: RhoMethod = field(default_factory=RhoMethod.min_variance)
    master_seed: int = 0

    def __post_init__(self):
        _check_spec(self.spec)
        for name, error, low in (("reps", ValueError, 1), ("master_seed", ValueError, None),
                                 ("n", KOutOfRangeError, None), ("k_min", KOutOfRangeError, None),
                                 ("k_max", KOutOfRangeError, None)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), error, low))
        check_k_range(self.k_min, self.k_max, self.n)
        object.__setattr__(self, "estimators", check_estimators(self.estimators))
        check_rho_method(self.rho_method)


def _model_core(gamma, b, rho, k, reps, estimators, n, master_seed):
    """A model study up to its values: (values[estimator, 0, rep], est_ids, settings).

    It checks gamma, the estimators, reps and k, builds the model draw and
    runs the engine on the ``master_seed`` its caller checked; it raises what
    :func:`run_model_simulation` documents.
    """
    gamma = check_positive("gamma", gamma)
    est_ids = check_estimators(estimators)
    reps, k = check_int("reps", reps, ValueError, 1), check_int("k", k)
    values = _replicate(_model_draw(gamma, b, rho, k), k, est_ids, np.array([k]), n, reps,
                        master_seed)[0]
    return values, est_ids, {"mode": "model", "gamma": gamma, "b": float(b),
                             "rho": float(rho), "k": k, "reps": reps}


def _sampling_core(config: SimulationConfig):
    """A sampling study up to its values: (values[estimator, k, rep], est_ids, settings)."""
    est_ids, spec, n = config.estimators, config.spec, config.n
    values, rhos = _replicate(_sampling_draw(spec, n, config.rho_method, est_ids), n - 1,
                              est_ids, np.arange(config.k_min, config.k_max + 1), n,
                              config.reps, config.master_seed)
    return values, est_ids, {
        "mode": "sampling",
        "family": spec.family,
        "params": dict(spec.params),
        "true_gamma": spec.true_gamma,
        "true_rho": spec.true_rho,
        "n": n,
        "reps": config.reps,
        "k_min": config.k_min,
        "k_max": config.k_max,
        "rho_method": config.rho_method.method_id,
        "resolved_rho_counts": _rho_counts(rhos),
    }


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
        """All aggregates for one (estimator, k) pair; KeyError if the summary lacks either."""
        hits = np.nonzero(np.asarray(self.k_values) == k)[0]
        if estimator not in self.estimators or len(hits) == 0:
            raise KeyError(f"estimator {estimator!r} at k={k} is not in the summary")
        return self._cell(self.estimators.index(estimator), int(hits[0]))

    def rows(self):
        """Yield cells in reporting order: estimator-major, k ascending."""
        for e in range(len(self.estimators)):
            for i in range(len(self.k_values)):
                yield self._cell(e, i)


def summarize(values: np.ndarray, true_gamma: float) -> dict:
    """Aggregate a (E, K, reps) float64 array with NaN marking failures.

    Means, variances and MSEs are taken over the non-NaN replications of
    each cell with the population divisor, so mse = variance + bias^2
    exactly. A permutation of the replication axis changes nothing beyond
    float roundoff. A cell with no replication is NaN throughout. The
    arithmetic is that of ``np.nanmean``, ``np.nanvar`` and
    ``np.nanmean((values - true_gamma)**2)`` for a finite ``true_gamma``,
    so the bits are theirs: one NaN mask, a zero-filled copy, one sum over
    the replications per aggregate, divided by the count. It runs those ops
    without the functions' wrappers and warning filters, which cost more
    than the sums on a study-sized block.

    Raises:
        NonFiniteError: at the first cell, estimator-major, whose mean is
            finite but whose mse or variance overflows (a gamma near 1e155).
    """
    nan = np.isnan(values)
    filled = np.array(values, copy=True)  # the layout numpy's nan-reductions copy to
    np.copyto(filled, 0.0, where=nan)
    missing = np.add.reduce(nan, axis=2, dtype=np.intp)
    count = values.shape[2] - missing
    with np.errstate(all="ignore"):  # 0/0 in an empty cell; an overflow is checked below
        mean = np.add.reduce(filled, axis=2)
        mean /= count
        squares = []  # of the deviations from the mean, then from gamma
        for centre in (mean[..., None], true_gamma):
            dev = filled - centre
            np.copyto(dev, 0.0, where=nan)
            np.multiply(dev, dev, out=dev)
            total = np.add.reduce(dev, axis=2)
            total /= count
            squares.append(total)
    variance, mse = squares
    np.copyto(variance, np.nan, where=count == 0)  # as np.nanvar marks an empty cell
    bad = np.isfinite(mean) & ~(np.isfinite(mse) & np.isfinite(variance))
    if bad.any():
        e, i = np.argwhere(bad)[0]
        raise NonFiniteError(f"the mse or variance of cell [{e}, {i}] overflows "
                             f"(mean {mean[e, i]}, gamma {true_gamma})")
    return {
        "mean": mean,
        "bias": mean - true_gamma,
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
    values, est_ids, settings = _sampling_core(config)
    return _summary(values, est_ids, np.arange(config.k_min, config.k_max + 1),
                    config.spec.true_gamma, config.master_seed, t0, settings)


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
        EmptyOrTinyError / ValueError: bad estimator set, reps < 1, or a
            reps or master_seed that is not an integer.
        KOutOfRangeError / InvalidRhoError: k not an integer, k < 1, BCHILL
            without n >= k+1, rho not finite negative, or a regression
            estimator's covariate sums over- or underflowing at rho.
        KTooSmallError: a regression estimator with k < 2.
        TypeError: ``estimators`` a string, not a tuple of ids.
    """
    t0 = time.perf_counter()
    master_seed = check_int("master_seed", master_seed, ValueError)
    values, est_ids, settings = _model_core(gamma, b, rho, k, reps, estimators, n, master_seed)
    return _summary(values, est_ids, np.array([settings["k"]]), settings["gamma"],
                    master_seed, t0, settings)


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

    The two generation modes run on the cores of :func:`run_model_simulation`
    and :func:`run_simulation` (at k_min = k_max = k), and ``config`` is the
    core's settings plus ``master_seed``, ``missing`` and ``wall_clock_s``; in
    sampling mode that includes ``resolved_rho_counts``. With ``spec`` None
    the spacings come straight from the exponential regression model with
    parameters (gamma, b, rho), which must then include gamma > 0. With
    ``spec`` set to a DistributionSpec (any other spec is a TypeError), full
    samples of size ``n`` (an integer >= k+1; the ``SimulationConfig``
    raises KOutOfRangeError otherwise) are drawn and the top k order
    statistics are kept; rho is then resolved by ``rho_method`` (default:
    the spec's true rho when finite negative, else -1). An argument of the
    other mode raises TypeError before any draw: ``gamma`` with a ``spec``,
    ``rho_method`` or ``n`` without one. ``b`` and ``rho`` have defaults, so
    sampling mode cannot tell them from unset ones; it ignores them.

    The statistic is :func:`standardized_statistic`, so at b = 0 its
    variance approaches 3k * amse(1, k, rho) / 4 (18/5 at rho = -1), not the
    1 of the paper's normality statement. A true gamma that is not positive,
    or whose 2 gamma overflows, raises before any draw, and so does k = 1 in
    sampling mode (KTooSmallError). In model mode the first table call raises
    KTooSmallError at k = 1 and InvalidRhoError for a rho that over- or
    underflows the covariate sums. A replication that fails (by the module's
    failure rule) is counted in ``config["missing"]`` and the moments are
    taken over the others; they are NaN when every replication fails.

    Args:
        reps: number of replications, an integer >= 100 (else ValueError).
        k: tail fraction used by every fit, an integer >= 2 (else KOutOfRangeError).
        master_seed: integer base seed (else ValueError); replication r uses a derived stream.

    Returns:
        NormalityReport with mean, variance, skewness, excess kurtosis of the
        statistic and an echo of the generation settings.
    """
    mode, other = (("model mode (spec=None)", {"rho_method": rho_method, "n": n})
                   if spec is None else ("sampling mode (spec given)", {"gamma": gamma}))
    for name, value in other.items():
        if value is not None:
            raise TypeError(f"{name} has no use in {mode}")
    reps, k = check_int("reps", reps, ValueError, 100), check_int("k", k)
    master_seed = check_int("master_seed", master_seed, ValueError)
    t0 = time.perf_counter()
    if spec is None:
        if gamma is None:
            raise NonPositiveError("model mode needs gamma > 0, got None")
        standardized_statistic(gamma, gamma, k)  # gamma and 2 gamma, before any draw
        values, _, config = _model_core(gamma, b, rho, k, reps, ("WLS",), None, master_seed)
    else:
        check_k_values(k, 2)  # KTooSmallError at k = 1, as in model mode
        gamma = _check_spec(spec).true_gamma
        standardized_statistic(gamma, gamma, k)  # 2 gamma, before any draw
        if rho_method is None:  # the true rho where a fit takes it, else -1
            true_rho = spec.true_rho
            rho_method = RhoMethod.fixed(true_rho if -np.inf < true_rho < 0.0 else -1.0)
        values, _, config = _sampling_core(SimulationConfig(spec, n, reps, k, k, ("WLS",),
                                                            rho_method, master_seed))
    gamma_hat = values[0, 0]
    stats = standardized_statistic(gamma_hat[~np.isnan(gamma_hat)], gamma, k)
    config.update(master_seed=master_seed, missing=reps - stats.size,
                  wall_clock_s=time.perf_counter() - t0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN below two replications
        mean = np.mean(stats)
        centered = stats - mean
        m2, m3, m4 = (np.mean(centered**p) for p in (2, 3, 4))
        return NormalityReport(
            sample_mean=float(mean),
            sample_variance=float(m2),
            skewness=float(m3 / m2**1.5),
            excess_kurtosis=float(m4 / m2**2 - 3.0),
            reps=reps,
            k=k,
            config=config,
        )
