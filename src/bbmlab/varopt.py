"""Variational optimization of the delayed-first-branch lower bound.

The objective is the log of  exp(-tau) * P(N(0, sigma2*tau) <= endpoint(tau)),
the probability that the initial particle branches after tau and has drifted
deep enough by then, with endpoint(tau) = v*t - sqrt(2 sigma2)*(t - tau) - 1:
the -1 leaves the tree spawned at tau a unit of room above its linear front
sqrt(2 sigma2)*(t - tau).  That is the lower-bound form, the only one
computed here.  Maximizing over tau in (0, t] and dividing by -t recovers
the closed-form rate as t grows.

Everything is computed in log space; the Gaussian tail mass routinely sits
near exp(-800) at the horizons of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ModelParams
from .rates import phi

_LN_HALF = math.log(0.5)
_SQRT_HALF = math.sqrt(0.5)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ENDPOINT_MARGIN = -1.0  # offset of the pre-branch endpoint in the lower-bound form


def log_normal_cdf(z):
    """Natural log of the standard normal CDF, stable on the whole real line.

    For z <= 0 uses the scaled complementary error function, so the deep left
    tail (z ~ -40 and far beyond) keeps full relative precision of the log
    value instead of underflowing to -inf.  Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(arr)
    neg = arr <= 0.0
    zn = arr[neg]
    out[neg] = _LN_HALF + np.log(special.erfcx(-zn * _SQRT_HALF)) - 0.5 * zn * zn
    zp = arr[~neg]
    out[~neg] = np.log1p(-0.5 * special.erfc(zp * _SQRT_HALF))
    if np.ndim(z) == 0:
        return float(out[0])
    return out.reshape(np.shape(z))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Target velocity v < sqrt(2 sigma2), horizon t and the model.

    The objective is the lower-bound form: its pre-branch endpoint is
    v*t - sqrt(2 sigma2)*(t - tau) + ENDPOINT_MARGIN.
    """

    v: float
    t: float
    params: ModelParams = ModelParams()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"horizon t must be positive, got {self.t!r}")
        if not self.v < self.params.critical_velocity:
            raise ValueError(
                f"objective requires v < sqrt(2*sigma2), got v={self.v!r}, "
                f"sigma2={self.params.sigma2!r}"
            )


@dataclass(frozen=True)
class Optimum:
    """Maximizer and value of the log objective over tau in (0, t]."""

    tau_star: float
    log_value: float
    empirical_rate: float


def _objective_values(tau, spec: ObjectiveSpec):
    params = spec.params
    endpoint = spec.v * spec.t - params.critical_velocity * (spec.t - tau) + ENDPOINT_MARGIN
    return -tau + log_normal_cdf(endpoint / (params.sigma * np.sqrt(tau)))


def objective(tau: float, spec: ObjectiveSpec) -> float:
    """Log of exp(-tau) times the Gaussian mass below the moving endpoint."""
    if not (0.0 < tau <= spec.t):
        raise ValueError(f"tau must lie in (0, t], got tau={tau!r}, t={spec.t!r}")
    return float(_objective_values(np.asarray(tau, dtype=float), spec))


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section maximization on [lo, hi] to an x tolerance."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def maximize(spec: ObjectiveSpec, n_coarse: int = 2048) -> Optimum:
    """Maximize the objective over tau in (0, t].

    Coarse scan over n_coarse equally spaced tau values guards against a
    missed local maximum (the objective is smooth and empirically unimodal,
    but that is not proven), then golden-section refinement near the best
    gridpoint down to 1e-10 * t.  Boundary maxima at tau = t are returned
    exactly as t.
    """
    t = spec.t
    taus = t * np.arange(1, n_coarse + 1) / n_coarse
    vals = _objective_values(taus, spec)
    k = int(np.argmax(vals))
    lo = taus[k - 1] if k > 0 else 0.5 * taus[0]
    hi = taus[k + 1] if k < n_coarse - 1 else t

    f = lambda tau: float(_objective_values(np.asarray(tau, dtype=float), spec))
    refined = _golden_max(f, lo, hi, xtol=1e-10 * t)

    candidates = [refined, float(taus[k]), t]
    tau_star = max(candidates, key=f)
    log_value = f(tau_star)
    return Optimum(tau_star=tau_star, log_value=log_value, empirical_rate=-log_value / t)


def rate_convergence_table(v: float, sigma2: float, t_list) -> list[tuple[float, float, float]]:
    """Rows (t, empirical rate, closed-form rate) over a list of horizons."""
    params = ModelParams(sigma2=sigma2)
    reference = phi(v, params).rate
    rows = []
    for t in t_list:
        opt = maximize(ObjectiveSpec(v=v, t=float(t), params=params))
        rows.append((float(t), opt.empirical_rate, reference))
    return rows
