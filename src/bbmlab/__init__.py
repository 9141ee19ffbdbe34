"""Desk-scale numerics for lower deviations of the rightmost particle of a BBM.

Closed-form rate evaluators (`rates`), the variational delayed-branching
optimizer (`varopt`), a log-domain front-equation solver (`fkpp`), exact
event-driven Monte Carlo with a conditional scenario estimator (`mc`), and a
CLI harness (`cli`).
"""

__version__ = "0.9.0"

from .model import RHO, SQRT2, ModelParams
from .rates import (
    RateValue,
    Regime,
    ScenarioGeometry,
    bramson_centering,
    chen_lower_bound,
    prefactor_exponent,
    psi,
    scenario_geometry,
)
from .varopt import ObjectiveSpec, Optimum, log_normal_cdf, maximize, objective

__all__ = [
    "RHO",
    "SQRT2",
    "ModelParams",
    "RateValue",
    "Regime",
    "ScenarioGeometry",
    "bramson_centering",
    "chen_lower_bound",
    "prefactor_exponent",
    "psi",
    "scenario_geometry",
    "ObjectiveSpec",
    "Optimum",
    "log_normal_cdf",
    "maximize",
    "objective",
    "__version__",
]
