import math
import re

import numpy as np
import pytest

from bbmlab.model import RHO, SQRT2
from bbmlab.rates import (
    Regime,
    bramson_centering,
    chen_lower_bound,
    prefactor_exponent,
    psi,
    scenario_geometry,
)


class TestPsi:
    def test_middle_branch_at_zero(self):
        assert psi(0.0).rate == pytest.approx(2.0 * (SQRT2 - 1.0), rel=1e-15)
        assert psi(0.0).branch_tag is Regime.DELAYED_BRANCH_REGIME

    def test_kink_value_from_both_sides(self):
        # 1 + rho^2 == 2 rho (1 + rho) == 4 - 2 sqrt(2)
        target = 4.0 - 2.0 * SQRT2
        assert psi(-RHO).rate == pytest.approx(target, abs=1e-12)
        eps = 1e-13
        assert psi(-RHO - eps).rate == pytest.approx(target, abs=1e-10)
        assert psi(-RHO + eps).rate == pytest.approx(target, abs=1e-10)
        # deterministic tag at the kink: the delayed-branch piece
        assert psi(-RHO).branch_tag is Regime.DELAYED_BRANCH_REGIME

    def test_zero_at_one(self):
        assert psi(1.0).rate == 0.0
        assert psi(1.0 - 1e-13).rate == pytest.approx(0.0, abs=1e-12)
        assert psi(1.0 + 1e-13).rate == pytest.approx(0.0, abs=1e-12)

    def test_far_left_branch(self):
        assert psi(-2.0).rate == 5.0
        assert psi(-2.0).branch_tag is Regime.NO_BRANCH_REGIME
        assert psi(-5.0).rate == 26.0

    @pytest.mark.parametrize("alpha", [-1e300, -1.4e154, 1.4e154, 1e300])
    def test_rate_beyond_a_float_raises(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"psi overflows a float at alpha={alpha!r}")):
            psi(alpha)

    def test_largest_alphas_are_finite(self):
        assert psi(-1.3e154).rate == 1.3e154 ** 2
        assert psi(1.3e154).rate == 1.3e154 ** 2

    def test_upper_branch(self):
        assert psi(2.0).rate == 3.0
        assert psi(2.0).branch_tag is Regime.UPPER_REGIME

    def test_continuity_at_kinks(self):
        for eps in np.linspace(1e-4, 0.1, 25):
            assert abs(psi(-RHO - eps).rate - psi(-RHO + eps).rate) <= 4.0 * eps
            assert abs(psi(1.0 - eps).rate - psi(1.0 + eps).rate) <= 4.0 * eps

    def test_second_derivative_regime_witness(self):
        # curvature 2 on the left piece, 0 on the middle piece, at every offset;
        # h = eps/8 keeps the stencil on one piece and clear of float roundoff
        for eps in np.linspace(1e-3, 0.1, 20):
            h = eps / 8.0
            for a, expected in ((-RHO - eps, 2.0), (-RHO + eps, 0.0)):
                second = (psi(a + h).rate - 2.0 * psi(a).rate + psi(a - h).rate) / h**2
                assert second == pytest.approx(expected, abs=1e-3)

    def test_dominates_chen_bound(self):
        rng = np.random.default_rng(1234)
        alphas = rng.uniform(-10.0, 1.0, size=1000)
        for a in alphas:
            assert psi(a).rate >= chen_lower_bound(a)

    def test_minimum_on_left_branch_at_kink(self):
        alphas = np.linspace(-10.0, -RHO, 2000)
        vals = [psi(a).rate for a in alphas]
        assert min(vals) == pytest.approx(4.0 - 2.0 * SQRT2, abs=1e-9)
        assert np.argmin(vals) == len(vals) - 1
        assert all(v >= 1.0 for v in vals[:-1])

    def test_nonnegative_everywhere(self):
        for a in np.linspace(-10.0, 10.0, 501):
            assert psi(a).rate >= 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            psi(float("nan"))
        with pytest.raises(ValueError):
            psi(float("inf"))


class TestUpperRate:
    """psi's upper branch v^2 / (2 sigma2) - 1, reached in velocity units."""

    def test_examples(self):
        for v, sigma2, rate in ((2.0, 1.0, 1.0), (3.0, 2.0, 1.25)):
            alpha = v / math.sqrt(2.0 * sigma2)
            assert psi(alpha).rate == pytest.approx(rate, rel=1e-15)
            assert psi(alpha).branch_tag is Regime.UPPER_REGIME


class TestBramsonCentering:
    def test_values(self):
        assert bramson_centering(1.0) == pytest.approx(SQRT2, rel=1e-15)
        # sqrt(2) e - 3/(2 sqrt(2)); recomputed, not copied from anywhere
        assert bramson_centering(math.e) == pytest.approx(
            SQRT2 * math.e - 3.0 / (2.0 * SQRT2), rel=1e-14
        )
        assert bramson_centering(100.0) == pytest.approx(
            100.0 * SQRT2 - (3.0 / (2.0 * SQRT2)) * math.log(100.0), rel=1e-14
        )
        assert bramson_centering(100.0) == pytest.approx(136.5368, abs=5e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bramson_centering(0.0)
        with pytest.raises(ValueError):
            bramson_centering(-3.0)


class TestScenarioGeometry:
    def test_middle_regime(self):
        g = scenario_geometry(0.0)
        assert g.tau_fraction == pytest.approx(1.0 / SQRT2, rel=1e-14)
        assert g.endpoint_coeff == pytest.approx(-(SQRT2 - 1.0), rel=1e-14)
        assert g.drift == pytest.approx(-(2.0 - SQRT2), rel=1e-12)

    def test_drift_independent_of_alpha_in_middle(self):
        drifts = [scenario_geometry(a).drift for a in (-0.3, 0.0, 0.4, 0.9)]
        assert max(drifts) - min(drifts) < 1e-12

    def test_kink_agreement(self):
        g = scenario_geometry(-RHO)
        assert g.tau_fraction == pytest.approx(1.0, rel=1e-12)
        assert g.endpoint_coeff == pytest.approx(-RHO * SQRT2, rel=1e-12)

    def test_no_branch_regime(self):
        g = scenario_geometry(-2.0)
        assert g.tau_fraction == 1.0
        assert g.drift == pytest.approx(-2.0 * SQRT2, rel=1e-14)

    def test_endpoint_drift_consistency(self):
        # drift * (tau_fraction * t) == endpoint_coeff * t, in sigma units
        for a in (-3.0, -1.0, -RHO, 0.0, 0.5, 0.99):
            g = scenario_geometry(a)
            assert g.drift * g.tau_fraction == pytest.approx(g.endpoint_coeff, rel=1e-12)

    def test_rejects_alpha_at_or_above_one(self):
        with pytest.raises(ValueError):
            scenario_geometry(1.0)
        with pytest.raises(ValueError):
            scenario_geometry(1.5)


class TestChenBound:
    def test_examples(self):
        assert chen_lower_bound(0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert chen_lower_bound(1.0 - 1e-9) == pytest.approx(1e-9 / 6.0, rel=1e-6)
        assert chen_lower_bound(-5.0) == pytest.approx(1.0, rel=1e-15)
        assert psi(-5.0).rate >= 1.0
        assert psi(0.0).rate >= 1.0 / 6.0

    def test_rejects_alpha_at_or_above_one(self):
        with pytest.raises(ValueError):
            chen_lower_bound(1.0)

    def test_slope_matches_early_front_tail_exponent(self):
        # the 1/6 slope is sqrt(2) times the 1/(6 sqrt 2) exponent governing
        # early-front excursions, the estimate the bound descends from
        c2 = 1.0 / (6.0 * SQRT2)
        assert chen_lower_bound(0.0) == pytest.approx(SQRT2 * c2, rel=1e-15)
        for a in (-3.0, 0.5):
            assert chen_lower_bound(a) == pytest.approx(SQRT2 * c2 * (1.0 - a), rel=1e-14)


def test_prefactor_exponent():
    assert prefactor_exponent() == pytest.approx(3.0 * (SQRT2 - 1.0) / 2.0, rel=1e-15)
    assert prefactor_exponent() == pytest.approx(0.6213203, abs=1e-7)
    assert prefactor_exponent() == pytest.approx(1.5 * RHO, rel=1e-15)
