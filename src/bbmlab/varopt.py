"""Variational optimization of the delayed-first-branch lower bound.

Lengths are in units of sigma, so the objective depends on the normalized
velocity alpha = v / sqrt(2 sigma2) alone.  It is the log of
exp(-tau) * P(N(0, tau) <= endpoint(tau)), the probability that the initial
particle branches after tau and has drifted deep enough by then, with
endpoint(tau) = alpha*sqrt(2)*t - sqrt(2)*(t - tau) - 1: the -1 leaves the
tree spawned at tau one sigma of room above its linear front
sqrt(2)*(t - tau).  That is the lower-bound form, the only one computed
here.  Maximizing over tau in (0, t], where the objective is concave,
and dividing by -t recovers the closed-form rate psi(alpha) as t grows.

Everything is computed in log space; the Gaussian tail mass routinely sits
near exp(-800) at the horizons of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SQRT2

_SQRT_HALF = math.sqrt(0.5)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
ENDPOINT_MARGIN = -1.0  # offset of the pre-branch endpoint in the lower-bound form, in sigma

_ASYMPTOTIC_Z = -20.0  # below this, ln Phi comes from the asymptotic series
# (-1)^k (2k-1)!! for k = 1..15: the series' terms at z = -20 fall below 1e-23
_SERIES = [(-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(1, 16)]


def _tail_series(z):
    """sum_k (-1)^k (2k-1)!! z^-2k, k = 1..15: Phi(z) = phi(z) (1 + this) / -z for z < -20."""
    w = (1.0 / z) ** 2
    series = 0.0
    for c in reversed(_SERIES):
        series = (series + c) * w
    return series


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
        out[deep] = -0.5 * zd * zd - np.log(-zd) - _LN_SQRT_2PI + np.log1p(_tail_series(zd))
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
        # maximize adds two taus, and the maximum is at least the objective at
        # tau = t, about -t - z^2 / 2 there, so the rate is at most about 1 + z^2 / (2 t)
        z_t = _z(self.t, self)
        if not (math.isfinite(2.0 * self.t) and math.isfinite(0.5 * z_t * z_t / self.t)):
            raise ValueError(
                f"horizon t={self.t!r} overflows the objective at alpha={self.alpha!r}")


@dataclass(frozen=True)
class Optimum:
    """Maximizer and value of the log objective over tau in (0, t]."""

    tau_star: float
    log_value: float
    empirical_rate: float


def _z(tau: float, spec: ObjectiveSpec) -> float:
    """Pre-branch endpoint over sqrt(tau), the quantile whose Gaussian mass is read."""
    return (spec.alpha * SQRT2 * spec.t - SQRT2 * (spec.t - tau) + ENDPOINT_MARGIN) / math.sqrt(tau)


def objective(tau: float, spec: ObjectiveSpec) -> float:
    """Log of exp(-tau) times the Gaussian mass below the moving endpoint."""
    if not (0.0 < tau <= spec.t):
        raise ValueError(f"tau must lie in (0, t], got tau={tau!r}, t={spec.t!r}")
    return -tau + log_normal_cdf(_z(tau, spec))


def _slope(tau: float, spec: ObjectiveSpec) -> float:
    """d/dtau of the objective: -1 + M(z) z'(tau), M = phi / Phi the inverse Mills ratio.

    Below _ASYMPTOTIC_Z, M = -z / (1 + series) from the asymptotic series of
    Phi, since exp(-z^2/2 - ln Phi(z)) would cancel two terms of size z^2/2.
    """
    z = _z(tau, spec)
    dz = SQRT2 / math.sqrt(tau) - z / (2.0 * tau)
    if z < _ASYMPTOTIC_Z:
        return -1.0 - z / (1.0 + _tail_series(z)) * dz
    return -1.0 + math.exp(-0.5 * z * z - _LN_SQRT_2PI - log_normal_cdf(z)) * dz


def maximize(spec: ObjectiveSpec) -> Optimum:
    """Maximize the objective over tau in (0, t].

    The objective f(tau) = -tau + ln Phi(z(tau)) is strictly concave.  With
    c = sqrt(2) t (alpha - 1) + ENDPOINT_MARGIN < 0, z(tau) = c / sqrt(tau)
    + sqrt(2 tau) is concave, since z'' = (3c/4) tau^(-5/2) - (sqrt(2)/4)
    tau^(-3/2) < 0, and ln Phi is concave and increasing, so ln Phi(z) is
    concave; -tau is linear.  The slope therefore changes sign at most once.
    If it is not negative at t, the maximum is the boundary and tau_star is
    exactly t.  Otherwise (0, t) is bisected on the sign of the slope until
    its ends are adjacent floats, so tau_star is a sign change of the
    computed slope to the last bit; how close that is to the true root
    depends only on the slope's rounding, not on comparisons of the flat
    objective.
    """
    t = spec.t
    if _slope(t, spec) >= 0.0:
        tau_star = t
    else:
        lo, hi, mid = 0.0, t, 0.5 * t
        while lo < mid < hi:
            if _slope(mid, spec) > 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        tau_star = mid
    log_value = objective(tau_star, spec)
    return Optimum(tau_star=tau_star, log_value=log_value, empirical_rate=-log_value / t)
