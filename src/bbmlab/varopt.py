"""Variational optimization of the delayed-first-branch lower bound.

Lengths are in units of sigma, so the objective depends on the normalized
velocity alpha = v / sqrt(2 sigma2) alone.  It is the log of
exp(-tau) * P(N(0, tau) <= endpoint(tau)), the probability that the initial
particle branches after tau and has drifted deep enough by then, with
endpoint(tau) = alpha*sqrt(2)*t - sqrt(2)*(t - tau) - 1: the -1 leaves the
tree spawned at tau one sigma of room above its linear front
sqrt(2)*(t - tau).  That is the lower-bound form, the only one computed
here.  Maximizing over tau in (0, t] and dividing by -t recovers the
closed-form rate psi(alpha) as t grows.

Everything is computed in log space; the Gaussian tail mass routinely sits
near exp(-800) at the horizons of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SQRT2
from .rates import psi

_SQRT_HALF = math.sqrt(0.5)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ENDPOINT_MARGIN = -1.0  # offset of the pre-branch endpoint in the lower-bound form, in sigma

_ASYMPTOTIC_Z = -20.0  # below this, ln Phi comes from the asymptotic series
# (-1)^k (2k-1)!! for k = 1..15: the series' terms at z = -20 fall below 1e-23
_SERIES = [(-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(1, 16)]


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x), float, x.size)


def log_normal_cdf(z):
    """Natural log of the standard normal CDF, stable on the whole real line.

    ln(erfc(-z/sqrt 2) / 2) for -20 <= z <= 0 and log1p(-erfc(z/sqrt 2) / 2)
    for z > 0.  Below -20 the asymptotic series -z^2/2 - ln(-z) - ln sqrt(2 pi)
    + log1p(sum_k (-1)^k (2k-1)!! z^-2k), k = 1..15 (truncation error below
    1e-24), keeps full relative precision of the log value where Phi
    underflows.  Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(arr)
    deep = arr < _ASYMPTOTIC_Z
    near = ~deep
    zn = arr[near]
    tail = 0.5 * _erfc(np.abs(zn) * _SQRT_HALF)  # Phi(-|z|); NaN stays NaN
    pos = zn > 0.0
    # ln only where z <= 0: tail underflows to 0 above z = 38
    out[near] = np.where(pos, np.log1p(-tail), np.log(np.where(pos, 1.0, tail)))
    if deep.any():
        zd = arr[deep]
        w = (1.0 / zd) ** 2
        series = np.zeros_like(w)
        for c in reversed(_SERIES):
            series += c
            series *= w
        out[deep] = -0.5 * zd * zd - np.log(-zd) - _LN_SQRT_2PI + np.log1p(series)
    if np.ndim(z) == 0:
        return float(out[0])
    return out.reshape(np.shape(z))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Normalized target velocity alpha < 1 and horizon t.

    The objective is the lower-bound form: its pre-branch endpoint is
    alpha*sqrt(2)*t - sqrt(2)*(t - tau) + ENDPOINT_MARGIN, in sigma units.
    """

    alpha: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"horizon t must be positive, got {self.t!r}")
        if not self.alpha < 1.0:
            raise ValueError(f"objective requires alpha < 1, got alpha={self.alpha!r}")


@dataclass(frozen=True)
class Optimum:
    """Maximizer and value of the log objective over tau in (0, t]."""

    tau_star: float
    log_value: float
    empirical_rate: float


def _objective_values(tau, spec: ObjectiveSpec):
    endpoint = spec.alpha * SQRT2 * spec.t - SQRT2 * (spec.t - tau) + ENDPOINT_MARGIN
    return -tau + log_normal_cdf(endpoint / np.sqrt(tau))


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


def rate_convergence_table(alpha: float, t_list) -> list[tuple[float, float, float]]:
    """Rows (t, empirical rate, closed-form rate) over a list of horizons."""
    reference = psi(alpha).rate
    rows = []
    for t in t_list:
        opt = maximize(ObjectiveSpec(alpha=alpha, t=float(t)))
        rows.append((float(t), opt.empirical_rate, reference))
    return rows
