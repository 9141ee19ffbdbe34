"""Reference values and reference implementations used across test modules.

The ln Phi table was computed with 60-digit arithmetic (mpmath) before the
implementation existed; 25 significant figures are retained here.
"""

import math

import numpy as np

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
