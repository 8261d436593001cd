"""Monte Carlo machinery: seeded generators, one replication engine, aggregation.

Replication r of a study draws from a PCG64 stream seeded with

    rep_seed(master_seed, r) = master_seed XOR splitmix64(r)

so runs are reproducible, independent of replication order, and cheap to
shard. Every study runs through one engine, ``_replicate``, which calls a
draw per replication, in order, each from its own stream. The draws collect
into chunks of at most ``_CHUNK_ENTRIES`` spacings; within a chunk the rows
that share a rho form one block, and one call of
:func:`tailwls.estimators.path_estimates` computes every estimator path of
the block (one group for a model study, at most one per grid rho, plus the
unresolved ones, for a sampling study). The sampling draw samples a full
dataset from a distribution spec, sorts it, takes its log-spacings and
resolves rho. The model draw scales unit exponentials f_j, one uniform each
from the replication's stream, by the means of the exponential regression
model, built and checked once per study,

    Z_j = (gamma + b * C_j) * f_j.

``run_simulation``, ``run_model_simulation`` and ``normality_report``
validate, build a draw and call the engine. One failure rule holds for all
three: a failed draw or a failed table call marks the whole replication
missing, and an unresolved rho marks every rho-dependent estimator;
configuration errors raise before the first replication. Grouping leaves
this rule as it was per replication, because a table call fails only on
what a group's rows share: rho, the k range, n and the estimator ids.
Aggregates use the population-style divisor (number of successful
replications), so mse = variance + bias^2 holds exactly.
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .asymptotics import standardized_statistic
from .distributions import DistributionSpec, sample
from .errors import KOutOfRangeError, KTooSmallError, NonPositiveError, TailwlsError
from .estimators import (ESTIMATOR_IDS, check_covariate_sums, check_estimators, needs_rho,
                         path_estimates)
from .second_order import RhoMethod, resolve_rho
from .spacings import all_log_spacings, check_k_range, covariates, validate_and_sort

_MASK64 = (1 << 64) - 1

#: Identifier of the uniform stream recorded in summary metadata.
GENERATOR_ID = "pcg64/splitmix64-xor"

# Spacings per chunk of ``_replicate``. It bounds each temporary of a table
# call at 16 384 float64 (128 KiB) whatever the row length, where a fixed row
# count would make a study at n = 10^5 allocate 100 MB per temporary; a row
# longer than the bound is a chunk of its own. At k = 100 a chunk holds 163
# rows, enough that the table's per-call cost no longer counts.
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


def _unit_exponentials(seed: int, k: int) -> np.ndarray:
    """k unit exponentials -log(1-U), one uniform each from the seeded stream."""
    rng = np.random.Generator(np.random.PCG64(int(seed) & _MASK64))
    return -np.log1p(-rng.random(k))


def _model_draw(gamma: float, b: float, rho: float, k: int):
    """Draw of model spacings with the true rho; the means are checked once, here.

    Raises:
        KOutOfRangeError: k < 1.
        InvalidRhoError: rho not finite negative.
        NonPositiveError: some mean gamma + b C_j <= 0.
    """
    means = float(gamma) + float(b) * covariates(k, rho)
    if not (means > 0.0).all():
        j_bad = int(np.argmin(means)) + 1
        raise NonPositiveError(
            f"mean gamma + b*C_j = {means.min()} at j={j_bad} is not positive"
        )
    return lambda seed: (means * _unit_exponentials(seed, means.size), rho)


def _sampling_draw(spec: DistributionSpec, n: int, rho_method: RhoMethod,
                   est_ids: tuple[str, ...]):
    """Draw of a full sample: sample, sort, log-spacings, then rho.

    Rho is resolved only when some estimator in ``est_ids`` needs it; a
    failed resolution hands on None instead.
    """
    resolves = needs_rho(est_ids)

    def draw(seed):
        tail = validate_and_sort(sample(spec, n, seed))
        z_all = all_log_spacings(tail)
        rho = None
        if resolves:
            try:
                rho = resolve_rho(tail, rho_method)
            except TailwlsError:
                pass
        return z_all, rho

    return draw


def _replicate(draw, est_ids: tuple[str, ...], k_values: np.ndarray,
               n: int | None, reps: int, master_seed: int) -> tuple[np.ndarray, list]:
    """The replication engine behind every study: (values[estimator, k, rep], rhos).

    Replication r calls ``draw(rep_seed(master_seed, r))``, which returns the
    spacings ``z_all`` and the rho to fit with (None if it could not be
    resolved). Draws run in order of r and collect into chunks of at most
    ``_CHUNK_ENTRIES`` spacings (at least one row). Within a chunk the rows
    are grouped by their rho, and each group is one table call on the
    ``(rows, len(z_all))`` block; each row of the result is its replication's
    paths, bit for bit. Cells that the module's failure rule marks missing
    stay NaN: a table call can fail only on what every row of a group
    shares (rho, the k range, n and the ids), so a failed group blanks
    exactly the replications whose own call would fail. ``rhos`` holds the
    rho of every draw that did not fail, in order of r.
    """
    values = np.full((len(est_ids), len(k_values), reps), np.nan)
    rhos = []
    groups: dict = {}  # rho -> (replication indices, their spacings) in this chunk

    def run_chunk():
        for rho, (index, block) in groups.items():
            try:
                paths = path_estimates(np.stack(block), n, est_ids, rho, k_values)[0]
            except TailwlsError:
                continue
            for e, est in enumerate(est_ids):
                if est in paths:
                    values[e][:, index] = paths[est].T
        groups.clear()

    rows = 0
    for r in range(reps):
        try:
            z_all, rho = draw(rep_seed(master_seed, r))
        except TailwlsError:
            continue
        rhos.append(rho)
        index, block = groups.setdefault(rho, ([], []))
        index.append(r)
        block.append(z_all)
        rows += 1
        if (rows + 1) * z_all.size > _CHUNK_ENTRIES:
            run_chunk()
            rows = 0
    run_chunk()
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
    float roundoff.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(values, axis=2)
        variance = np.nanvar(values, axis=2)
        mse = np.nanmean((values - true_gamma) ** 2, axis=2)
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
    values, rhos = _replicate(draw, est_ids, k_values, config.n, config.reps,
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
    so whatever would fail its table call raises before the first one.

    Raises:
        NonPositiveError: gamma <= 0, or a model mean gamma + b C_j <= 0.
        EmptyOrTinyError / ValueError: bad estimator set.
        KOutOfRangeError / InvalidRhoError: k < 1, BCHILL without n >= k+1,
            rho not finite negative, or a regression estimator's covariate
            sums overflowing at rho.
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
    if k < 2 and needs_rho(est_ids):
        raise KTooSmallError(f"the regression estimators need k >= 2, got k={k}")
    if "BCHILL" in est_ids and (n is None or n < k + 1):
        raise KOutOfRangeError(f"BCHILL needs n >= k+1={k + 1}, got n={n}")
    check_covariate_sums(rho, k, est_ids)
    k_values = np.array([k])
    values = _replicate(draw, est_ids, k_values, n, reps, master_seed)[0]
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
    1 of the paper's normality statement. In model mode a rho that
    overflows the covariate sums raises InvalidRhoError before the first
    replication. A replication that fails (by the module's failure rule) is
    counted in ``config["missing"]`` and the moments are taken over the
    others; they are NaN when every replication fails.

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
    if k < 2:
        raise KTooSmallError(f"the WLS fit needs k >= 2, got k={k}")
    t0 = time.perf_counter()
    if spec is None:
        if gamma is None or not float(gamma) > 0.0:
            raise NonPositiveError(
                f"model mode needs gamma > 0, got {gamma}"
            )
        gamma = float(gamma)
        draw = _model_draw(gamma, b, rho, k)
        check_covariate_sums(rho, k, ("WLS",))
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
        draw = _sampling_draw(spec, n, rho_method, ("WLS",))
        config = {
            "mode": "sampling",
            "family": spec.family,
            "params": dict(spec.params),
            "n": n,
            "rho_method": rho_method.method_id,
            "master_seed": int(master_seed),
        }
    gamma_hat = _replicate(draw, ("WLS",), np.array([k]), n, reps, master_seed)[0][0, 0]
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
