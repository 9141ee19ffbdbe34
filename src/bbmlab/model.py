"""Model constants and the diffusion variance of binary branching Brownian motion.

By Brownian scaling, X_max of the model with variance rate sigma2 has the law
of sigma times X_max of the sigma = 1 model.  So rates, varopt and mc take
the dimensionless velocity alpha = v / sqrt(2 sigma2) and work in lengths of
one sigma; ModelParams reaches only fkpp and the CLI, which converts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)

# Kink location of the lower-deviation rate function, sqrt(2) - 1.
# Computed from the square root at import, never typed as a decimal.
RHO = SQRT2 - 1.0


@dataclass(frozen=True)
class ModelParams:
    """Diffusion variance per unit time.

    The model branches at rate 1 into two offspring; neither is a setting.
    """

    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2!r}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def critical_velocity(self) -> float:
        """Asymptotic spreading speed sqrt(2 sigma2) of the rightmost particle."""
        return math.sqrt(2.0 * self.sigma2)
