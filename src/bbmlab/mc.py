"""Event-driven Monte Carlo for binary branching Brownian motion.

Particles carry exponential lifetimes and exact Gaussian displacements
between events; nothing is time-discretized, so tail probabilities carry no
discretization bias.  Every trial owns a counter-based random stream keyed
by (seed, trial_index), which makes results bit-identical for any worker
count or execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .model import RHO, ModelParams
from .rates import scenario_geometry
from .varopt import log_normal_cdf

DEFAULT_MAX_PARTICLES = 1 << 23


class ParticleCapError(RuntimeError):
    """Population exceeded max_particles; lower t or raise the cap."""


@dataclass(frozen=True)
class SimConfig:
    """Model, horizon, seed and population cap for a batch of trials."""

    params: ModelParams
    t: float
    seed: int
    max_particles: int = DEFAULT_MAX_PARTICLES

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"horizon t must be >= 0, got {self.t!r}")
        if self.max_particles < 1:
            raise ValueError("max_particles must be >= 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and stream provenance."""

    p_hat: float
    stderr: float
    n_trials: int
    log_p_hat: float
    ess: float
    seed: int

    @property
    def low_ess(self) -> bool:
        """Effective sample size below 10, or below 1% of the trial count.

        Fewer than 10 effective samples cannot support a standard error; the
        ESS is at least 1, so a bare 1% rule never fires at 100 trials or fewer.
        """
        return self.ess < max(10.0, 0.01 * self.n_trials)


@dataclass(frozen=True)
class ScenarioConfig:
    """Forced no-branch window and the target threshold."""

    tau: float
    threshold: float

    @classmethod
    def for_alpha(cls, alpha: float, params: ModelParams, t: float) -> "ScenarioConfig":
        """Defaults from the closed-form scenario geometry.

        Below the kink the optimal no-branch window is the whole horizon,
        which leaves no time for the post-branch tree; there the tree keeps
        the last min(0.05 t, 0.4) time units, short enough that it need not
        deviate itself at large t.
        """
        if alpha >= -RHO:
            tau = scenario_geometry(alpha, params).tau_fraction * t
        else:
            tau = t - min(0.05 * t, 0.4)
        return cls(tau=tau, threshold=alpha * params.critical_velocity * t)


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_xmax_one(
    rng: np.random.Generator,
    params: ModelParams,
    t: float,
    max_particles: int,
) -> tuple[float, int]:
    """One exact realization: returns (max position at t, particles alive at t)."""
    if t <= 0.0:
        return 0.0, 1
    sigma = params.sigma
    pos = np.zeros(1)
    rem = np.full(1, float(t))
    x_max = -math.inf
    n_final = 0
    while pos.size:
        k = pos.size
        lives = rng.standard_exponential(k)
        z = rng.standard_normal(k)
        branch = lives < rem
        step = np.minimum(lives, rem)
        np.sqrt(step, out=step)
        step *= sigma
        z *= step
        pos += z
        n_hit = k - int(np.count_nonzero(branch))
        if n_hit:
            m = float(pos[~branch].max())
            if m > x_max:
                x_max = m
            n_final += n_hit
        sub_rem = rem[branch]
        sub_rem -= lives[branch]
        pos = np.repeat(pos[branch], 2)
        rem = np.repeat(sub_rem, 2)
        if n_final + pos.size > max_particles:
            raise ParticleCapError(
                f"population exceeded max_particles={max_particles} at t={t}"
            )
    return x_max, n_final


# -- trial batches -------------------------------------------------------------


def _xmax_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    config, lo, hi = args
    xm = np.empty(hi - lo)
    nf = np.empty(hi - lo, dtype=np.int64)
    for i in range(lo, hi):
        rng = _trial_rng(config.seed, i)
        xm[i - lo], nf[i - lo] = _simulate_xmax_one(
            rng, config.params, config.t, config.max_particles
        )
    return xm, nf


def _chunks(n_trials: int, n_workers: int) -> list[tuple[int, int]]:
    size = max(1, -(-n_trials // max(1, n_workers * 4)))
    return [(lo, min(lo + size, n_trials)) for lo in range(0, n_trials, size)]


def _run_chunked(fn, jobs, n_workers: int):
    if n_workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, jobs))


def sample_xmax(
    config: SimConfig, n_trials: int, n_workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of (x_max, final population) over trial indices 0..n_trials-1.

    Results are assembled in trial order, so the aggregate is independent of
    the chunking and of n_workers.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    jobs = [(config, lo, hi) for lo, hi in _chunks(n_trials, n_workers)]
    parts = _run_chunked(_xmax_chunk, jobs, n_workers)
    xm = np.concatenate([p[0] for p in parts])
    nf = np.concatenate([p[1] for p in parts])
    return xm, nf


def _binomial_estimate(hits: np.ndarray, n: int, seed: int) -> Estimate:
    k = int(np.count_nonzero(hits))
    p = k / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    log_p = math.log(p) if k > 0 else -math.inf
    return Estimate(p_hat=p, stderr=stderr, n_trials=n, log_p_hat=log_p, ess=float(n), seed=seed)


def estimate_tail(config: SimConfig, x, n_trials: int, n_workers: int = 1):
    """Fraction of trials with x_max <= x.

    x may be a scalar or a sequence of thresholds; a sequence shares one set
    of trials and returns a list of Estimates in the same order.
    """
    if n_trials < 100:
        raise ValueError("n_trials must be >= 100")
    xm, _ = sample_xmax(config, n_trials, n_workers)
    if np.ndim(x) == 0:
        return _binomial_estimate(xm <= float(x), n_trials, config.seed)
    return [_binomial_estimate(xm <= float(xi), n_trials, config.seed) for xi in x]


def scenario_estimate(
    config: SimConfig, scen: ScenarioConfig, n_trials: int, n_workers: int = 1
) -> Estimate:
    """Unbiased estimate of P(x_max <= threshold, no branching before tau).

    The first particle survives to tau with probability exp(-tau), and
    its displacement y ~ N(0, sigma2 tau) is independent of the maximum xm of
    the tree it then spawns over the remaining horizon, so
    P(y + xm <= threshold | xm) = Phi((threshold - xm) / (sigma sqrt(tau))).
    Each trial samples one such tree and contributes exp(-tau) times that
    conditional probability, so every trial adds positive mass.  The ESS is
    taken over these per-trial values.  The estimated functional is a
    certified lower bound on the plain tail probability at the same threshold.
    """
    if n_trials < 100:
        raise ValueError("n_trials must be >= 100")
    if not 0.0 < scen.tau <= config.t:
        raise ValueError(f"tau must lie in (0, t], got tau={scen.tau!r}, t={config.t!r}")
    params = config.params
    xm, _ = sample_xmax(replace(config, t=config.t - scen.tau), n_trials, n_workers)
    logv = -scen.tau + log_normal_cdf(
        (scen.threshold - xm) / (params.sigma * math.sqrt(scen.tau))
    )

    # values relative to the largest, so neither ess nor stderr underflows
    shift = float(logv.max())
    v = np.exp(logv - shift)
    ess = float(v.sum() ** 2 / (v * v).sum())
    log_p = shift + math.log(float(v.sum())) - math.log(n_trials)
    stderr = float(np.std(v, ddof=1) / math.sqrt(n_trials)) * math.exp(shift)
    return Estimate(
        p_hat=math.exp(log_p), stderr=stderr, n_trials=n_trials, log_p_hat=log_p, ess=ess,
        seed=config.seed,
    )


def upper_tail_first_moment(t: float, v: float, params: ModelParams) -> float:
    """ln E[#particles above v t at time t] = t + ln Phi(-v sqrt(t)/sigma).

    By Markov's inequality its exponential upper-bounds P(x_max > v t); per
    unit time it approaches 1 - v^2/(2 sigma2) for large t.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    return t + log_normal_cdf(-v * math.sqrt(t) / params.sigma)


def first_branch_times(seed: int, n_trials: int) -> np.ndarray:
    """First lifetime drawn by each trial stream (the first branching epoch).

    Replays exactly the first draw of the streams used by sample_xmax /
    estimate_tail, uncensored by any horizon.
    """
    out = np.empty(n_trials)
    for i in range(n_trials):
        out[i] = _trial_rng(seed, i).standard_exponential(1)[0]
    return out
