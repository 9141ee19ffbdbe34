"""Event-driven Monte Carlo for binary branching Brownian motion.

Particles carry exponential lifetimes and exact Gaussian displacements
between events; nothing is time-discretized, so tail probabilities carry no
discretization bias.  Positions are in units of sigma (unit variance per
unit time): X_max of the model with variance rate sigma2 is sigma times
these.  Every trial owns a counter-based random stream keyed by
(seed, trial_index), which makes results bit-identical for any worker count
or execution order.  Streams come from a per-process pool of Philox
Generators, not shared across threads, re-keyed per trial.

Trials run in blocks of about 2^17 / e^t (at most 1024), the jobs that run
serially or over a worker pool: a block advances one generation per pass in
shared arrays, so its per-generation arithmetic costs a few numpy calls for
all of its trials.  The budget allows for trees that estimate_tail stops,
which simulate about half their segments: at t = 8 a block holds 43 trials.
The stream contract is the same as for a trial simulated alone: per
generation, a trial with k live particles draws k lifetimes and then k
displacements from its own stream, so every draw, x_max and population is
independent of the block size.

A naive tail reads a tree only through 1{x_max <= x}, so estimate_tail stops
a tree once a particle ends at t above the highest threshold, which sets every
indicator to 0; the tree has drawn a prefix of its stream, so results stay
independent of blocks and workers, and only a tree not yet decided can hit the cap.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import RHO, SQRT2
from .rates import scenario_geometry
from .varopt import log_normal_cdf

DEFAULT_MAX_PARTICLES = 1 << 23
MAX_TRIALS = 1 << 26  # a run peaks near 57 bytes a trial (at t = 0.5): 3.8 GB
# A block of trials holds about this many particles at the horizon on average
# (each array stays near 1 MB; a stopped tree reaches about half as many) and
# at most this many trials (the bound of the Generator pool).
_BLOCK_PARTICLES = 1 << 17
_BLOCK_TRIALS = 1 << 10
_POOL: list[np.random.Generator] = []


class ParticleCapError(RuntimeError):
    """A tree passed max_particles before it was decided; lower t or raise the cap."""


@dataclass(frozen=True)
class SimConfig:
    """Horizon, seed and population cap for a batch of trials."""

    t: float
    seed: int
    max_particles: int = DEFAULT_MAX_PARTICLES

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"horizon t must be >= 0, got {self.t!r}")
        if self.max_particles < 1:
            raise ValueError("max_particles must be >= 1")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass(frozen=True)
class SamplerStats:
    """Work behind an estimate: trees sampled, particle segments simulated, largest tree.

    A segment is one particle's life from birth to branching or to the horizon,
    so a tree with n particles alive at the horizon has 2n - 1.  A tree that
    estimate_tail stops early counts only the segments it drew, and the peak
    is the most particles any tree brought to the horizon.
    """

    trials: int
    particle_segments: int
    peak_population: int

    @classmethod
    def total(cls, parts) -> "SamplerStats":
        """Over several independent sets of trees."""
        parts = list(parts)
        return cls(sum(p.trials for p in parts), sum(p.particle_segments for p in parts),
                   max(p.peak_population for p in parts))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error, stream provenance and sampler work."""

    p_hat: float
    stderr: float
    n_trials: int
    log_p_hat: float
    ess: float
    seed: int
    sampler: SamplerStats

    @property
    def low_ess(self) -> bool:
        """Effective sample size below 10, or below 1% of the trial count.

        Fewer than 10 effective samples cannot support a standard error; the
        ESS is at least 1, so a bare 1% rule never fires at 100 trials or fewer.
        """
        return self.ess < max(10.0, 0.01 * self.n_trials)


@dataclass(frozen=True)
class ScenarioConfig:
    """Forced no-branch window and the target threshold, in sigma units."""

    tau: float
    threshold: float

    @classmethod
    def for_alpha(cls, alpha: float, t: float) -> "ScenarioConfig":
        """Defaults from the closed-form scenario geometry.

        Below the kink the optimal no-branch window is the whole horizon,
        which leaves no time for the post-branch tree; there the tree keeps
        the last min(0.05 t, 0.4) time units, short enough that it need not
        deviate itself at large t.
        """
        if alpha >= -RHO:
            tau = scenario_geometry(alpha).tau_fraction * t
        else:
            tau = t - min(0.05 * t, 0.4)
        return cls(tau=tau, threshold=alpha * SQRT2 * t)


def _trial_rngs(seed: int, lo: int, hi: int) -> list[np.random.Generator]:
    """Generators of trials lo..hi-1 from the pool, valid until the next call.

    Each gets the whole state of a fresh Philox(key=(seed, i)), about 2 us where
    building one takes 20 us.  The sampler asks for at most _BLOCK_TRIALS.
    """
    _POOL.extend(np.random.Generator(np.random.Philox()) for _ in range(hi - lo - len(_POOL)))
    state = np.random.Philox(key=0).state
    for i, rng in zip(range(lo, hi), _POOL):
        state["state"]["key"] = (seed, i)
        rng.bit_generator.state = state
    return _POOL[:hi - lo]


def _block_trials(t: float) -> int:
    """Trials advanced together at horizon t: e^t particles each on average."""
    mean_population = math.exp(min(t, 700.0))
    return int(min(_BLOCK_TRIALS, max(1.0, _BLOCK_PARTICLES / mean_population)))


def _xmax_block(config: SimConfig, lo: int, hi: int,
                stop: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact realizations of trials lo..hi-1: (x_max, particles at t, segments drawn).

    The block advances one generation per pass.  Its particles sit in shared
    arrays, each live trial's in one contiguous segment in trial order
    (np.repeat keeps that order).  A trial with k live particles draws k
    lifetimes, then k displacements, from its own stream, just as a trial
    simulated alone does; all other arithmetic is one pass over the block,
    with per-trial sums and maxima reduced over the segments.

    A trial whose x_max passes stop drops its branching particles after that
    generation, so its x_max is only known to exceed stop.  Segments count each
    trial's live particles over its generations.
    """
    n = hi - lo
    rngs = _trial_rngs(config.seed, lo, hi)
    exponentials = [rng.standard_exponential for rng in rngs]
    normals = [rng.standard_normal for rng in rngs]
    cap = config.max_particles
    pos = np.zeros(n)
    rem = np.full(n, float(config.t))
    ids = np.arange(n)  # trials with live particles, in order
    counts = np.ones(n, dtype=np.int64)  # their live particles
    x_max = np.full(n, -math.inf)
    n_final = np.zeros(n, dtype=np.int64)
    segments = np.zeros(n, dtype=np.int64)
    while ids.size:
        lives = np.empty(pos.size)
        z = np.empty(pos.size)
        ends = np.cumsum(counts)
        starts = ends - counts
        for j, a, b in zip(ids.tolist(), starts.tolist(), ends.tolist()):
            exponentials[j](out=lives[a:b])
            normals[j](out=z[a:b])
        branch = lives < rem
        # each particle's step, min(life, rem), is its life where it branches,
        # so rem - step is the remaining time its children inherit
        np.minimum(lives, rem, out=lives)
        rem -= lives
        z *= np.sqrt(lives, out=lives)
        pos += z
        branched = np.add.reduceat(branch, starts, dtype=np.int64)
        # the displacement buffer takes the positions, -inf where a particle
        # branches, so its segment maxima are the trials' ended maxima
        np.copyto(z, pos)
        z[branch] = -math.inf
        running = np.maximum(x_max[ids], np.maximum.reduceat(z, starts))
        x_max[ids] = running
        n_final[ids] += counts - branched
        segments[ids] += counts
        if stop < math.inf:
            decided = running > stop
            if decided.any():
                branch &= np.repeat(~decided, counts)
                branched[decided] = 0
        counts = 2 * branched
        # per trial, as alone, before the doubled arrays exist: n_final + live
        # only grows, so this fails iff some undecided trial's population
        # exceeds the cap
        if (n_final[ids] + counts > cap).any():
            raise ParticleCapError(f"population exceeded max_particles={cap} at t={config.t}")
        twice = 2 * branch
        pos = np.repeat(pos, twice)
        rem = np.repeat(rem, twice)
        alive = counts > 0
        ids, counts = ids[alive], counts[alive]
    return x_max, n_final, segments


def run_jobs(fn: Callable, jobs: Sequence[tuple], n_workers: int) -> list:
    """[fn(*job) for job in jobs], in order, over min(n_workers, len(jobs), cores) processes.

    A pool forks all of its processes at its first task, so it is never larger
    than its jobs or the machine; where that size is 1 the jobs run here.
    """
    size = min(n_workers, len(jobs), os.cpu_count() or 1)
    if size <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * size))))


def _sample(config: SimConfig, n_trials: int, n_workers: int,
            stop: float = math.inf) -> tuple[np.ndarray, np.ndarray, SamplerStats]:
    """(x_max, final population, work) over trials 0..n_trials-1, each decided at stop.

    The jobs are blocks of _block_trials(t) trials, run by run_jobs over at
    most n_workers processes and assembled in trial order.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_trials > MAX_TRIALS:
        raise ValueError(f"n_trials must be <= {MAX_TRIALS}, got {n_trials}")
    size = _block_trials(config.t)
    blocks = [(lo, min(lo + size, n_trials)) for lo in range(0, n_trials, size)]
    parts = run_jobs(functools.partial(_xmax_block, config, stop=stop), blocks, n_workers)
    xm, nf, segments = (np.concatenate(p) for p in zip(*parts))
    return xm, nf, SamplerStats(n_trials, int(segments.sum()), int(nf.max()))


def sample_xmax(
    config: SimConfig, n_trials: int, n_workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of (x_max, final population) over trial indices 0..n_trials-1.

    The jobs are blocks of _block_trials(t) trials that advance generation by
    generation together, but trial i draws from its own stream keyed by
    (seed, i) in the same order as a trial simulated alone, so its outcome
    depends on (seed, i) only; it is a Generator from the process's pool (not
    shared across threads), re-keyed to a fresh Philox(key=(seed, i)).  Results
    are assembled in trial order, so the aggregate is independent of the blocks
    and n_workers.  Every tree runs to the horizon.
    """
    return _sample(config, n_trials, n_workers)[:2]


def _binomial_estimate(hits: np.ndarray, seed: int, sampler: SamplerStats) -> Estimate:
    n = hits.size
    k = int(np.count_nonzero(hits))
    p = k / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    log_p = math.log(p) if k > 0 else -math.inf
    return Estimate(p_hat=p, stderr=stderr, n_trials=n, log_p_hat=log_p, ess=float(n), seed=seed,
                    sampler=sampler)


def estimate_tail(
    config: SimConfig, xs: Sequence[float], n_trials: int, n_workers: int = 1
) -> list[Estimate]:
    """Fraction of trials with x_max <= x, for each threshold x in xs.

    The thresholds share one set of trials; the Estimates come in their order.
    A trial stops once a particle ends at t above max(xs), which decides every
    indicator; its sampler work and the population cap count only what it drew.
    """
    if n_trials < 100:
        raise ValueError("n_trials must be >= 100")
    stop = max(map(float, xs), default=-math.inf)
    xm, _, sampler = _sample(config, n_trials, n_workers, stop)
    return [_binomial_estimate(xm <= float(x), config.seed, sampler) for x in xs]


def scenario_estimate(
    config: SimConfig, scen: ScenarioConfig, n_trials: int, n_workers: int = 1
) -> Estimate:
    """Unbiased estimate of P(x_max <= threshold, no branching before tau).

    The first particle survives to tau with probability exp(-tau), and
    its displacement y ~ N(0, tau) is independent of the maximum xm of the
    tree it then spawns over the remaining horizon, so
    P(y + xm <= threshold | xm) = Phi((threshold - xm) / sqrt(tau)).
    Each trial samples one such tree and contributes exp(-tau) times that
    conditional probability, so every trial adds positive mass.  The ESS is
    taken over these per-trial values.  The estimated functional is a
    certified lower bound on the plain tail probability at the same threshold.
    Where every trial's weight underflows to 0 (alpha below about -1e154),
    the estimate would be 0/0, so it raises ValueError naming alpha.
    """
    if n_trials < 100:
        raise ValueError("n_trials must be >= 100")
    if not 0.0 < scen.tau <= config.t:
        raise ValueError(f"tau must lie in (0, t], got tau={scen.tau!r}, t={config.t!r}")
    xm, _, sampler = _sample(replace(config, t=config.t - scen.tau), n_trials, n_workers)
    # below z = -1.9e154, ln Phi(z) is less than the least float: -inf, a weight of 0
    with np.errstate(over="ignore"):
        logv = -scen.tau + log_normal_cdf((scen.threshold - xm) / math.sqrt(scen.tau))
    if not np.any(logv > -math.inf):
        alpha = scen.threshold / (SQRT2 * config.t)
        raise ValueError(f"every trial's weight underflows to 0 at alpha={alpha:.6g} "
                         f"(threshold {scen.threshold!r}, tau {scen.tau!r})")

    # values relative to the largest, so neither ess nor stderr underflows
    shift = float(logv.max())
    v = np.exp(logv - shift)
    ess = float(v.sum() ** 2 / (v * v).sum())
    log_p = shift + math.log(float(v.sum())) - math.log(n_trials)
    stderr = float(np.std(v, ddof=1) / math.sqrt(n_trials)) * math.exp(shift)
    return Estimate(
        p_hat=math.exp(log_p), stderr=stderr, n_trials=n_trials, log_p_hat=log_p, ess=ess,
        seed=config.seed, sampler=sampler,
    )


def upper_tail_first_moment(t: float, alpha: float) -> float:
    """ln E[#particles above alpha sqrt(2) t at time t] = t + ln Phi(-alpha sqrt(2 t)).

    By Markov's inequality its exponential upper-bounds P(x_max > alpha
    sqrt(2) t); per unit time it approaches 1 - alpha^2 for large t.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    return t + log_normal_cdf(-alpha * SQRT2 * math.sqrt(t))


def first_branch_times(seed: int, n_trials: int) -> np.ndarray:
    """First lifetime drawn by each trial stream (the first branching epoch).

    Replays exactly the first draw of the streams used by sample_xmax /
    estimate_tail, uncensored by any horizon.
    """
    out = np.empty(n_trials)
    for lo in range(0, n_trials, _BLOCK_TRIALS):
        for i, rng in enumerate(_trial_rngs(seed, lo, min(lo + _BLOCK_TRIALS, n_trials)), lo):
            out[i] = rng.standard_exponential(1)[0]
    return out
