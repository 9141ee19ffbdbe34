import math

import pytest

from bbmlab.model import RHO, ModelParams


def test_rho_full_precision():
    # computed from sqrt at import, so it matches a fresh evaluation exactly
    assert abs(RHO - (math.sqrt(2.0) - 1.0)) < 1e-15
    assert abs(RHO - 0.4142135623730951) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma2=0.0)
    with pytest.raises(ValueError):
        ModelParams(sigma2=-1.0)
    p = ModelParams(sigma2=4.0)
    assert p.sigma == 2.0
    assert p.critical_velocity == pytest.approx(math.sqrt(8.0), rel=1e-15)


def test_branch_rate_and_offspring_are_not_settings():
    # the model branches at rate 1 into two offspring; ModelParams carries sigma2 alone
    with pytest.raises(TypeError):
        ModelParams(branch_rate=1.0)
    with pytest.raises(TypeError):
        ModelParams(offspring_count=2)
