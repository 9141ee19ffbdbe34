"""Reference values, reference implementations and stand-ins used across test modules.

The ln Phi table was computed with 60-digit arithmetic (mpmath) before the
implementation existed; 25 significant figures are retained here.
"""

import concurrent.futures
import math
import os

import numpy as np

from bbmlab import fkpp
from bbmlab.mc import ParticleCapError

# ln(Phi(z)) at the acceptance grid
LOG_NCDF_ORACLE = {
    -40.0: -804.6084420137537881666068,
    -30.0: -454.3212439563431971073558,
    -20.0: -203.9171553710972639368045,
    -10.0: -53.23128515051247057834703,
    -5.0: -15.0649983939887257360837,
    -1.0: -1.841021645009263505770783,
    0.0: -0.6931471805599453094172321,
    1.0: -0.1727537790234498895264832,
    5.0: -2.866516129637635933845963e-7,
    8.0: -6.220960574271786058533519e-16,
}


def xmax_one_at_a_time(config, lo, hi, stop=math.inf):
    """(x_max, final population, segments drawn) of trials lo..hi-1, each simulated alone.

    The per-trial generation loop of bbmlab 0.6.0 in sigma units, kept as the
    reference for the block-batched sampler: trial i draws from Philox keyed by
    (seed, i), per generation k lifetimes and then k displacements.  A trial
    stops after the generation in which a particle ends at t above stop; with
    the default stop every tree runs to the horizon.  The segments are the k
    summed over a trial's generations.
    """
    xm = np.empty(hi - lo)
    nf = np.empty(hi - lo, dtype=np.int64)
    segments = np.zeros(hi - lo, dtype=np.int64)
    for i in range(lo, hi):
        if config.t <= 0.0:
            xm[i - lo], nf[i - lo], segments[i - lo] = 0.0, 1, 1
            continue
        key = np.array([config.seed, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        pos = np.zeros(1)
        rem = np.full(1, float(config.t))
        x_max = -math.inf
        n_final = 0
        while pos.size:
            k = pos.size
            segments[i - lo] += k
            lives = rng.standard_exponential(k)
            z = rng.standard_normal(k)
            branch = lives < rem
            step = np.minimum(lives, rem)
            np.sqrt(step, out=step)
            z *= step
            pos += z
            n_hit = k - int(np.count_nonzero(branch))
            if n_hit:
                x_max = max(x_max, float(pos[~branch].max()))
                n_final += n_hit
            if x_max > stop:
                break
            sub_rem = rem[branch]
            sub_rem -= lives[branch]
            pos = np.repeat(pos[branch], 2)
            rem = np.repeat(sub_rem, 2)
            if n_final + pos.size > config.max_particles:
                raise ParticleCapError(
                    f"population exceeded max_particles={config.max_particles} at t={config.t}"
                )
        xm[i - lo], nf[i - lo] = x_max, n_final
    return xm, nf, segments


def heat_reference(L, K):
    """One heat pass of the allocating stepper: u <- K * u with u = e^L, u = 1 beyond x_max.

    The stepper before fkpp.advance kept two padded fields: every step pads
    L with np.concatenate and sums with np.convolve, and near u = 1 it
    convolves 1 - u = -expm1(L).  fkpp's pass does the same arithmetic, so
    the two agree bit for bit.
    """
    n, w = L.size, K.size // 2
    P = np.concatenate([np.full(w, L[0]), L, np.zeros(w)])
    out = np.empty(n)
    i1 = int(np.searchsorted(L, -1.0))
    m = P[2 * w: i1 + 2 * w]
    b0 = 0
    while b0 < i1:
        b1 = max(b0 + 1, int(np.searchsorted(m, P[b0 + w] + fkpp._SPAN, "right")))
        shift = m[b1 - 1]
        E = np.exp(P[b0: b1 + 2 * w] - shift)
        np.log(np.convolve(E, K, "valid"), out=out[b0:b1])
        out[b0:b1] += shift
        b0 = b1
    if i1 < n:
        c = np.convolve(-np.expm1(P[i1:]), K, "valid")
        np.log1p(-c, out=out[i1:])
    return np.minimum(out, 0.0, out=out)


def react_reference(L, h):
    """Exact logistic flow du/dt = u^2 - u over time h, in place, allocating its temporaries."""
    a = math.expm1(h)
    i0 = int(np.searchsorted(L, -40.0))
    L[:i0] -= math.log1p(a)
    e = np.expm1(L[i0:])
    e *= -a
    L[i0:] -= np.log1p(e)


def advance_reference(fld, t_end, sigma2):
    """fkpp.advance as a loop over heat_reference and react_reference; its
    result is checked once, as every LogField is when it is built."""
    amount = t_end - fld.time
    grid = fld.grid
    L = fld.L.copy()
    n = max(1, math.ceil(amount / grid.dt - 1e-9)) if amount > 0.0 else 0
    if n:
        h = amount / n
        K = fkpp._kernel(math.sqrt(sigma2 * h) / grid.dx)
        react_reference(L, 0.5 * h)
        for i in range(n):
            L = heat_reference(L, K)
            react_reference(L, h if i < n - 1 else 0.5 * h)
    return fkpp.LogField(L=L, time=t_end, grid=grid, max_violation=fld.max_violation,
                         steps=fld.steps + n)


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process, maps here."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return list(map(fn, *iterables))


def serial_pools(monkeypatch, cores):
    """Put SerialPool in place of every process pool on a machine of `cores` cores.

    Returns the list that each pool's size is appended to.
    """
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(SerialPool, "sizes", [])
    return SerialPool.sizes
