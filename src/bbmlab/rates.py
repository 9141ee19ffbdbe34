"""Closed-form decay rates for the rightmost-particle position of a binary BBM.

Sign convention used throughout: rates are positive decay coefficients, i.e.
ln P ~ -rate * t for the event in question.  This holds both for the lower
deviations (rightmost particle unusually far left) and, via psi's upper
branch, for the upper ones.  Velocities are alpha = v / sqrt(2 sigma2) and
lengths are in units of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import RHO, SQRT2


class Regime(Enum):
    """Which piece of the piecewise rate formula applied."""

    NO_BRANCH_REGIME = "no_branch"
    DELAYED_BRANCH_REGIME = "delayed_branch"
    UPPER_REGIME = "upper"


@dataclass(frozen=True)
class RateValue:
    """A decay rate (1/time units) tagged with the regime that produced it."""

    rate: float
    branch_tag: Regime


@dataclass(frozen=True)
class ScenarioGeometry:
    """Geometry of the dominant lower-deviation scenario.

    tau_fraction: optimal first-branch time divided by the horizon t.
    endpoint_coeff: coefficient of t in the optimal pre-branch endpoint.
    drift: constant drift that reaches that endpoint at tau.

    Lengths are in units of sigma: the physical endpoint and drift are sigma
    times these.
    """

    tau_fraction: float
    endpoint_coeff: float
    drift: float


def psi(alpha: float) -> RateValue:
    """Lower/upper deviation rate of the normalized rightmost position.

    Piecewise in alpha with kinks at -(sqrt(2)-1) and 1:
    1 + alpha^2 on the far left (single surviving line, no branching),
    2*(sqrt(2)-1)*(1 - alpha) in the middle (delayed first branching),
    alpha^2 - 1 above 1 (one line moving anomalously fast).

    At the kinks the adjacent pieces agree in value; the tag is taken from
    the piece on the right so it is deterministic.  Where the rate is not a
    float (|alpha| above about 1.3e154) it raises ValueError naming alpha.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if alpha < -RHO:
        value = RateValue(1.0 + alpha * alpha, Regime.NO_BRANCH_REGIME)
    elif alpha < 1.0:
        value = RateValue(2.0 * RHO * (1.0 - alpha), Regime.DELAYED_BRANCH_REGIME)
    else:
        value = RateValue(alpha * alpha - 1.0, Regime.UPPER_REGIME)
    if not math.isfinite(value.rate):
        raise ValueError(f"psi overflows a float at alpha={alpha!r}")
    return value


def bramson_centering(t: float) -> float:
    """Front centering sqrt(2)*t - (3/(2*sqrt(2))) * ln t, in sigma units.

    The physical median front position sits near sigma * bramson_centering(t).
    """
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"centering requires t > 0, got {t!r}")
    return SQRT2 * t - (3.0 / (2.0 * SQRT2)) * math.log(t)


def scenario_geometry(alpha: float) -> ScenarioGeometry:
    """Optimal first-branch fraction, pre-branch endpoint and drift.

    For alpha >= -(sqrt(2)-1) the first branch is delayed to (1-alpha)/sqrt(2)
    of the horizon and the particle drifts to -(sqrt(2)-1)(1-alpha)*t, which
    makes the drift -(2-sqrt(2)) independently of alpha.  Below the kink the
    particle simply never branches and drifts straight to the target
    alpha*sqrt(2)*t.
    """
    if not (math.isfinite(alpha) and alpha < 1.0):
        raise ValueError(f"scenario geometry requires alpha < 1, got {alpha!r}")
    if alpha >= -RHO:
        tau_fraction = (1.0 - alpha) / SQRT2
        endpoint_coeff = -RHO * (1.0 - alpha)
    else:
        tau_fraction = 1.0
        endpoint_coeff = alpha * SQRT2
    drift = endpoint_coeff / tau_fraction
    return ScenarioGeometry(tau_fraction=tau_fraction, endpoint_coeff=endpoint_coeff, drift=drift)


def chen_lower_bound(alpha: float) -> float:
    """Universal lower bound (1 - alpha)/6 on the lower-deviation rate."""
    if not (math.isfinite(alpha) and alpha < 1.0):
        raise ValueError(f"lower bound defined for alpha < 1, got {alpha!r}")
    return (1.0 - alpha) / 6.0


def prefactor_exponent() -> float:
    """Conjectured power-law exponent 3*(sqrt(2)-1)/2 of the t prefactor.

    In a fit of -ln P against {t, ln t, 1} the ln t coefficient corresponding
    to this prefactor is the negative of this value.
    """
    return 1.5 * RHO
