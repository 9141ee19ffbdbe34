import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import log_ndtr

from bbmlab import varopt
from bbmlab.model import RHO, SQRT2
from bbmlab.rates import psi, scenario_geometry
from bbmlab.varopt import ObjectiveSpec, log_normal_cdf, maximize, objective

from oracles import LOG_NCDF_ORACLE


class TestLogNormalCdf:
    def test_oracle_table(self):
        for z, ref in LOG_NCDF_ORACLE.items():
            got = log_normal_cdf(z)
            assert abs(got - ref) <= 1e-10 * abs(ref), f"z={z}: {got} vs {ref}"

    def test_symmetry_at_zero(self):
        assert log_normal_cdf(0.0) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_deep_tail_matches_inverse_power_series(self):
        z = -40.0
        series = (
            -0.5 * z * z
            - math.log(-z * math.sqrt(2.0 * math.pi))
            + math.log(1.0 - 1.0 / z**2 + 3.0 / z**4)
        )
        got = log_normal_cdf(z)
        assert abs(got - series) <= 1e-8 * abs(series)

    def test_never_underflows_to_minus_inf(self):
        zs = np.linspace(-40.0, 8.0, 2001)
        vals = log_normal_cdf(zs)
        assert np.all(np.isfinite(vals))

    def test_monotone_nondecreasing(self):
        zs = np.linspace(-40.0, 8.0, 20001)
        vals = log_normal_cdf(zs)
        assert np.all(np.diff(vals) >= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(allow_nan=False), b=st.floats(allow_nan=False))
    def test_nondecreasing_over_all_floats(self, a, b):
        lo, hi = sorted((a, b))
        # below about -1.9e154 the correctly rounded value is -inf
        with np.errstate(over="ignore", divide="ignore"):
            assert log_normal_cdf(lo) <= log_normal_cdf(hi)

    @settings(max_examples=300, deadline=None)
    @given(z=st.floats(min_value=-1e154, allow_infinity=False))
    def test_finite_down_to_minus_1e154(self, z):
        # below about -1.9e154 the true value, about -z^2/2, is not a float
        assert math.isfinite(log_normal_cdf(z))

    def test_complement_consistency(self):
        # exp(lnPhi(z)) + exp(lnPhi(-z)) == 1 within 1e-12 for |z| <= 8
        zs = np.linspace(-8.0, 8.0, 801)
        total = np.exp(log_normal_cdf(zs)) + np.exp(log_normal_cdf(-zs))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_array_shape_and_scalar_type(self):
        out = log_normal_cdf(np.array([[0.0, -1.0], [-2.0, 3.0]]))
        assert out.shape == (2, 2)
        assert isinstance(log_normal_cdf(-3.0), float)


class TestLogNormalCdfAgainstScipy:
    @staticmethod
    def assert_matches(zs, rel):
        ref = log_ndtr(zs)
        got = log_normal_cdf(zs)
        normal = np.abs(ref) >= np.finfo(float).tiny
        err = np.abs(got[normal] - ref[normal]) / np.abs(ref[normal])
        assert np.max(err) <= rel, zs[normal][np.argmax(err)]

    def test_dense_grid_up_to_8(self):
        self.assert_matches(np.linspace(-40.0, 8.0, 96001), 1e-14)

    def test_both_sides_of_the_series_switch(self):
        # z = -20 switches from erfc to the asymptotic series; check the
        # floats next to it and a band around it
        near = [-20.0]
        for direction in (-math.inf, math.inf):
            z = -20.0
            for _ in range(200):
                z = math.nextafter(z, direction)
                near.append(z)
        zs = np.concatenate([near, np.linspace(-20.5, -19.5, 20001)])
        self.assert_matches(zs, 1e-14)
        ordered = np.sort(zs)
        assert np.all(np.diff(log_normal_cdf(ordered)) >= 0.0)

    def test_far_left_tail(self):
        self.assert_matches(-np.logspace(1.0, 150.0, 4001), 1e-14)


class TestObjective:
    def test_direct_evaluation_example(self):
        spec = ObjectiveSpec(alpha=0.0, t=100.0)
        tau = 70.71
        z = (0.0 * 100.0 - SQRT2 * (100.0 - tau) - 1.0) / math.sqrt(tau)
        expected = -tau + log_normal_cdf(z)
        assert objective(tau, spec) == pytest.approx(expected, rel=1e-14)
        # within O(ln t) of -2 rho t
        assert abs(objective(tau, spec) - (-2.0 * RHO * 100.0)) < 5.0

    def test_endpoint_bound_when_cdf_at_least_half(self):
        # alpha sqrt(2) t - 1 >= 0 at tau = t makes the Gaussian mass >= 1/2
        spec = ObjectiveSpec(alpha=0.5 / SQRT2, t=50.0)
        assert objective(50.0, spec) >= -50.0 + math.log(0.5)

    def test_small_tau_with_negative_endpoint_diverges(self):
        spec = ObjectiveSpec(alpha=0.0, t=10.0)
        vals = [objective(tau, spec) for tau in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e7

    def test_rejects_tau_outside_range(self):
        spec = ObjectiveSpec(alpha=0.0, t=10.0)
        with pytest.raises(ValueError):
            objective(0.0, spec)
        with pytest.raises(ValueError):
            objective(10.0 + 1e-9, spec)

    def test_continuous_in_tau(self):
        # increments vanish linearly with h, including where the slope is huge
        spec = ObjectiveSpec(alpha=-0.7 / SQRT2, t=50.0)
        for tau in (0.5, 5.0, 25.0, 49.99):
            d_coarse = abs(objective(tau + 1e-4, spec) - objective(tau, spec))
            d_fine = abs(objective(tau + 1e-8, spec) - objective(tau, spec))
            assert d_fine <= 2e-4 * d_coarse + 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(alpha=1.0, t=10.0)
        with pytest.raises(ValueError):
            ObjectiveSpec(alpha=float("nan"), t=10.0)
        with pytest.raises(ValueError):
            ObjectiveSpec(alpha=0.0, t=0.0)

    def test_refuses_a_rate_beyond_the_floats(self):
        # the rate -log_value / t is about 1 + z^2 / (2 t); here z^2 / 2 is a
        # float but z^2 / (2 t) is not, and tau-opt wrote empirical_rate = inf
        alpha = -2.6e-150 / SQRT2
        with pytest.raises(ValueError, match=r"horizon t=1.95e-194 overflows the objective"):
            ObjectiveSpec(alpha=alpha, t=1.95e-194)


class TestMaximize:
    def test_middle_regime_t500(self):
        opt = maximize(ObjectiveSpec(alpha=0.0, t=500.0))
        assert opt.tau_star / 500.0 == pytest.approx(1.0 / SQRT2, abs=0.02)
        assert opt.empirical_rate == pytest.approx(2.0 * RHO, rel=0.01)
        assert opt.log_value <= 0.0

    def test_no_branch_regime_t500(self):
        opt = maximize(ObjectiveSpec(alpha=-2.0, t=500.0))
        assert opt.tau_star / 500.0 == pytest.approx(1.0, abs=0.02)
        assert opt.empirical_rate == pytest.approx(5.0, rel=0.01)

    def test_small_horizon(self):
        opt = maximize(ObjectiveSpec(alpha=0.0, t=1.0))
        assert 0.0 < opt.tau_star <= 1.0
        assert math.isfinite(opt.log_value)

    def test_boundary_maximum_is_exact(self):
        opt = maximize(ObjectiveSpec(alpha=-3.0, t=100.0))
        assert opt.tau_star == 100.0


class TestRateConvergence:
    def test_monotone_approach_v0(self):
        ref = psi(0.0).rate
        errs = [abs(maximize(ObjectiveSpec(alpha=0.0, t=t)).empirical_rate - ref)
                for t in (50.0, 100.0, 200.0, 400.0)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] <= 0.01

    def test_near_critical_velocity(self):
        ref = psi(0.9).rate
        rate = maximize(ObjectiveSpec(alpha=0.9, t=400.0)).empirical_rate
        assert ref == pytest.approx(2.0 * RHO * 0.1, rel=1e-12)
        assert rate == pytest.approx(ref, rel=0.10)

    def test_deep_left(self):
        ref = psi(-3.0).rate
        rate = maximize(ObjectiveSpec(alpha=-3.0, t=400.0)).empirical_rate
        assert ref == 10.0
        assert rate == pytest.approx(10.0, rel=0.01)

    def test_log_over_t_error_scale(self):
        # t * (rate - psi) / ln t stays within [-5, 5] across a dyadic range
        for alpha in (0.0, -1.0 / SQRT2):
            ref = psi(alpha).rate
            for t in (100.0, 200.0, 400.0, 800.0, 1600.0):
                opt = maximize(ObjectiveSpec(alpha=alpha, t=t))
                scaled = t * (opt.empirical_rate - ref) / math.log(t)
                assert -5.0 <= scaled <= 5.0

    def test_optimal_fraction_tracks_closed_form(self):
        # tau*/t at t = 500 within 0.02 of the piecewise optimal fraction
        for alpha in (-2.0, -RHO, -0.2, 0.0, 0.5, 0.9):
            opt = maximize(ObjectiveSpec(alpha=alpha, t=500.0))
            frac = scenario_geometry(alpha).tau_fraction
            assert opt.tau_star / 500.0 == pytest.approx(frac, abs=0.02)


def slope_50_digits(alpha, t, tau):
    """f'(tau) = -1 + (phi / Phi)(z) z'(tau) of the objective, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        alpha, t, tau = mpmath.mpf(alpha), mpmath.mpf(t), mpmath.mpf(tau)
        sqrt2 = mpmath.sqrt(2)
        z = (alpha * sqrt2 * t - sqrt2 * (t - tau) + varopt.ENDPOINT_MARGIN) / mpmath.sqrt(tau)
        dz = sqrt2 / mpmath.sqrt(tau) - z / (2 * tau)
        return -1 + mpmath.npdf(z) / mpmath.ncdf(z) * dz


def root_error_50_digits(alpha, t, tau):
    """|tau - root| / t for the slope's root, bracketed 1e-6 t either side of tau."""
    with mpmath.workdps(50):
        lo = mpmath.mpf(tau) - mpmath.mpf(1e-6) * t
        hi = mpmath.mpf(tau) + mpmath.mpf(1e-6) * t
        assert slope_50_digits(alpha, t, lo) > 0 > slope_50_digits(alpha, t, hi)
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope_50_digits(alpha, t, mid) > 0 else (lo, mid)
        return abs(float(mpmath.mpf(tau) - lo)) / t


ROOT_GRID = [(alpha, t) for alpha in (-3.0, -0.4, -0.2, 0.0, 0.5, 0.9, 0.99)
             for t in (5.0, 50.0, 500.0, 5000.0)]


class TestSlopeRoot:
    def test_within_1e12_t_of_50_digit_root(self):
        interior = 0
        for alpha, t in ROOT_GRID:
            opt = maximize(ObjectiveSpec(alpha=alpha, t=t))
            if slope_50_digits(alpha, t, t) >= 0:
                assert opt.tau_star == t, (alpha, t)
                continue
            interior += 1
            err = root_error_50_digits(alpha, t, opt.tau_star)
            assert err <= 1e-12, (alpha, t, err)
        assert interior == 21

    @pytest.mark.parametrize("alpha,t", [(-0.4, 2000.0), (-0.4, 5000.0), (-0.2, 2000.0),
                                         (0.0, 5000.0), (0.3, 5000.0)])
    def test_within_1e15_t_where_z_is_below_the_series_switch(self, alpha, t):
        # there the inverse Mills ratio comes from the asymptotic series, not
        # from exp(-z^2/2 - ln Phi(z)), which cancels two terms of size z^2/2
        spec = ObjectiveSpec(alpha=alpha, t=t)
        tau = maximize(spec).tau_star
        assert varopt._z(tau, spec) < varopt._ASYMPTOTIC_Z
        assert root_error_50_digits(alpha, t, tau) <= 1e-15

    def test_slope_changes_sign_across_interior_maxima(self):
        for alpha, t in ROOT_GRID:
            tau = maximize(ObjectiveSpec(alpha=alpha, t=t)).tau_star
            if tau == t:
                continue
            h = 1e-12 * t
            assert slope_50_digits(alpha, t, tau - h) > 0 > slope_50_digits(alpha, t, tau + h), \
                (alpha, t)


HUGE_ALPHAS = (-3.0, -2.0, -0.3, 0.0, 0.9, 0.999)


class TestHugeHorizons:
    @pytest.mark.parametrize("alpha", HUGE_ALPHAS)
    def test_optimum_tracks_closed_form_up_to_1e307(self, alpha):
        frac, ref = scenario_geometry(alpha).tau_fraction, psi(alpha).rate
        for t in (1e16, 1e20, 1e100, 1e250, 1e307):
            opt = maximize(ObjectiveSpec(alpha=alpha, t=t))
            assert opt.tau_star / t == pytest.approx(frac, rel=1e-9), t
            assert opt.empirical_rate == pytest.approx(ref, rel=1e-9), t

    @pytest.mark.parametrize("alpha", HUGE_ALPHAS)
    def test_refuses_1e308(self, alpha):
        # 2 t is not a float, and neither is z^2 / 2 at tau = t for alpha <= -2
        with pytest.raises(ValueError, match=r"horizon t=1e\+308 overflows"):
            ObjectiveSpec(alpha=alpha, t=1e308)


# alpha on both sides of the kink at -RHO
CONCAVITY_GRID = [(alpha, t) for alpha in (-3.0, -1.0, -RHO - 0.01, -RHO + 0.01, -0.2, 0.0, 0.6,
                                           0.999)
                  for t in (0.5, 5.0, 50.0, 500.0, 5000.0)]


class TestConcavity:
    @pytest.mark.parametrize("alpha,t", CONCAVITY_GRID)
    def test_slope_strictly_decreasing(self, alpha, t):
        spec = ObjectiveSpec(alpha=alpha, t=t)
        slopes = np.array([varopt._slope(tau, spec) for tau in t * np.geomspace(1e-4, 1.0, 2001)])
        drops = np.diff(slopes)
        assert np.all(drops <= 0.0)
        # the slope is -1 + M(z) z', computed in steps of 2^-53 where M(z) z' is
        # a few ulps of 1, so strictness is checked where that term is resolved
        resolved = slopes[1:] > -1.0 + 1e-12
        assert np.all(drops[resolved] < 0.0)
        assert resolved.sum() > 100

    @pytest.mark.parametrize("alpha,t", CONCAVITY_GRID)
    def test_tau_star_is_a_sign_change_of_the_slope(self, alpha, t):
        # near the root the computed slope is rounding noise of about 1e-14, so
        # tau_star is one end of a pair of adjacent floats across which it changes sign
        spec = ObjectiveSpec(alpha=alpha, t=t)
        tau = maximize(spec).tau_star
        if tau == t:
            assert varopt._slope(t, spec) >= 0.0
        elif varopt._slope(tau, spec) > 0.0:
            assert varopt._slope(math.nextafter(tau, math.inf), spec) <= 0.0
        else:
            assert varopt._slope(math.nextafter(tau, 0.0), spec) > 0.0
