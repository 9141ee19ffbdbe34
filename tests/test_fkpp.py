import json
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st
from scipy.special import ive

from bbmlab.model import SQRT2, ModelParams
from bbmlab import cli, fkpp, mc
from bbmlab.rates import bramson_centering
from bbmlab.varopt import log_normal_cdf

from oracles import advance_reference

P1 = ModelParams(sigma2=1.0)
LN_HALF = math.log(0.5)


def small_grid(dx=0.2, span=10.0):
    return fkpp.Grid.build(-span, span, dx, fkpp.DEFAULT_DT)


def lattice(size, grid):
    """A grid of size points with grid's dx and dt: the stepper reads no x."""
    k = size // 2
    return fkpp.Grid(x_min=-grid.dx * k, dx=grid.dx, n_points=size, dt=grid.dt)


def heat(L, K):
    """fkpp's heat pass on an unpadded field: L padded with w = K.size // 2
    cells of L[0] on the left and of 0 (u = 1) on the right."""
    w = K.size // 2
    P = np.concatenate([np.full(w, L[0]), L, np.zeros(w)])
    out = np.empty(L.size)
    fkpp._heat(P, out, K, np.empty(P.size))
    return out


def heat_steps(g, L, h, n):
    """n exact lattice heat steps of size h with no reaction: u solves the
    plain heat equation."""
    K = fkpp._kernel(math.sqrt(P1.sigma2 * h) / g.dx)
    for _ in range(n):
        L = heat(L, K)
    return L


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="straddle"):
            fkpp.Grid(x_min=1.0, dx=0.1, n_points=11, dt=0.001)
        with pytest.raises(ValueError, match="straddle"):
            fkpp.Grid(x_min=-1.0, dx=0.1, n_points=10, dt=0.001)  # ends at x = -0.1
        with pytest.raises(ValueError, match="dx must be positive"):
            fkpp.Grid(x_min=-1.0, dx=-0.1, n_points=21, dt=0.001)
        with pytest.raises(ValueError, match="dt must be positive"):
            fkpp.Grid(x_min=-1.0, dx=0.1, n_points=21, dt=0.0)
        for dx in (math.inf, math.nan, -0.1):
            with pytest.raises(ValueError, match="dx must be positive"):
                fkpp.Grid.build(-1.0, 1.0, dx, 0.001)
        with pytest.raises(ValueError, match="grid needs 8 to 4194304 points, got 7"):
            fkpp.Grid(x_min=-0.3, dx=0.1, n_points=7, dt=0.001)

    @pytest.mark.parametrize("x_min", [-1e-149, -4e-11, -5e-12])
    def test_build_names_dx_when_the_left_part_is_under_one_cell(self, x_min):
        # x_min would snap up to the origin: the message says which input to change
        with pytest.raises(ValueError, match=r"^dx=0\.05 is wider than the grid's .* left of 0: "
                                             r"lower dx$"):
            fkpp.Grid.build(x_min, -x_min, 0.05, 0.001)
        g = fkpp.Grid.build(x_min, -x_min, -x_min / 4.0, 0.001)
        assert g.x_min < 0.0 < g.x_max

    @pytest.mark.parametrize("lo,hi,dx", [
        (-math.inf, 1.0, 0.1), (-1.0, math.inf, 0.1), (math.nan, 1.0, 0.1), (-1.0, math.nan, 0.1),
        (-1e308, 1.0, 1e-10),  # x_min / dx overflows
        (-1.0, 1.7e308, 1e-300),  # the span in cells overflows
        (-1.5e308, 1.0, 1e308),  # x_min snaps down to -inf
    ])
    def test_build_refuses_bounds_off_the_floats(self, lo, hi, dx):
        with pytest.raises(ValueError, match="spans no finite count of dx"):
            fkpp.Grid.build(lo, hi, dx, 0.001)

    def test_point_bound(self):
        # refused before anything of the grid's size is allocated
        dx = 2.0**-10
        inside = fkpp.Grid.build(-1.0, -1.0 + (fkpp.MAX_POINTS - 1) * dx, dx, 0.001)
        assert inside.n_points == fkpp.MAX_POINTS == 2**22
        with pytest.raises(ValueError, match="grid needs 8 to 4194304 points, got 4194305"):
            fkpp.Grid.build(-1.0, -1.0 + fkpp.MAX_POINTS * dx, dx, 0.001)

    def test_build_snaps_to_lattice(self):
        g = fkpp.Grid.build(-1.0, 1.05, 0.2, 0.001)
        assert g.x_max == pytest.approx(-1.0 + 11 * 0.2, rel=1e-12)
        assert g.n_points == 12
        xs = g.xs()
        assert xs[0] == g.x_min and xs[-1] == pytest.approx(g.x_max, rel=1e-12)
        # x_min snaps down onto the lattice through x = 0
        g = fkpp.Grid.build(-188.88543819998318, 292.1, 0.1, 0.001)
        assert g.x_min == pytest.approx(-188.9, abs=1e-12)
        assert np.min(np.abs(g.xs())) == 0.0


class TestKernel:
    @pytest.mark.parametrize("s", np.logspace(-8.0, math.log10(0.999), 25))
    def test_short_step_kernel_matches_scaled_bessel(self, s):
        # below one cell per step the kernel is e^{-s^2} I_|k|(s^2), s the
        # step's standard deviation in cells, normalized to sum 1
        g = small_grid(dx=0.2)
        K = fkpp._kernel(s)
        k = np.arange(K.size) - K.size // 2
        ref = ive(np.abs(k), s * s)
        ref /= ref.sum()
        live = ref > 0.0
        assert np.all(K >= 0.0) and K.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.max(np.abs(K[live] - ref[live]) / ref[live]) <= 1e-13
        # the cut at max(12 s, 8) cells drops tail variance of at most 9e-10
        assert (K * k * k).sum() == pytest.approx(s * s, rel=1e-9)


    @pytest.mark.parametrize("s,taps", [(1e-300, 1), (1e-150, 3), (1e-30, 11), (1e-19, 15),
                                        (3e-19, 17), (1e-8, 17)])
    def test_short_step_kernel_keeps_no_weight_below_e_minus_700(self, s, taps):
        # weights rounded to 0 (or nearly) are dropped: a heat block of one is
        # shifted by its window's right end, whose term is the edge weight
        K = fkpp._kernel(s)
        assert K.size == taps and np.array_equal(K, K[::-1])
        assert K.min() >= math.exp(-700.0) and K.sum() == pytest.approx(1.0, rel=1e-15)


class TestInitField:
    def test_profile_values(self):
        g = small_grid(dx=0.2)
        fld = fkpp.init_field(g, smoothing_eps=0.2)
        xs = g.xs()
        i0 = int(np.argmin(np.abs(xs)))
        assert fld.L[i0] == pytest.approx(LN_HALF, rel=1e-12)
        ir = int(np.argmin(np.abs(xs - 2.0)))  # +10 eps
        assert abs(fld.L[ir]) < 1e-20
        il = int(np.argmin(np.abs(xs + 2.0)))  # -10 eps
        assert fld.L[il] == pytest.approx(log_normal_cdf(-10.0), rel=1e-12)

    def test_monotone_and_floor(self):
        g = fkpp.Grid.build(-30.0, 10.0, 0.1, 0.0025)
        fld = fkpp.init_field(g, smoothing_eps=0.1)
        assert np.all(np.diff(fld.L) >= 0.0)
        assert fld.L.min() == fkpp.TAIL_FLOOR

    def test_eps_band_enforced(self):
        g = small_grid(dx=0.2)
        with pytest.raises(ValueError):
            fkpp.init_field(g, smoothing_eps=0.05)  # below dx/2
        with pytest.raises(ValueError):
            fkpp.init_field(g, smoothing_eps=1.0)  # above 4 dx

    def test_right_boundary_pin_checked(self):
        g = fkpp.Grid.build(-40.0, 0.4, 0.2, 0.005)
        with pytest.raises(ValueError):
            fkpp.init_field(g, smoothing_eps=0.8)  # plateau not reached at x_max


class TestStep:
    def test_u_equal_one_is_fixed_point(self):
        g = small_grid()
        fld = fkpp.LogField(L=np.zeros(g.n_points), time=0.0, grid=g)
        out = fkpp.advance(fld, g.dt, P1.sigma2)
        assert np.max(np.abs(out.L)) == 0.0
        assert out.time == pytest.approx(g.dt)

    def test_constant_field_follows_pure_reaction(self):
        # interior points see only the reaction; compare with the exact
        # logistic-in-u solution du/dt = u^2 - u from u = 1/2
        g = small_grid()
        fld = fkpp.LogField(L=np.full(g.n_points, LN_HALF), time=0.0, grid=g)
        out = fkpp.advance(fld, g.dt, P1.sigma2)
        dt = g.dt
        u_exact = 0.5 * math.exp(-dt) / (0.5 + 0.5 * math.exp(-dt))
        mid = g.n_points // 2
        assert out.L[mid] - LN_HALF == pytest.approx(math.log(u_exact) - LN_HALF, abs=1e-6)
        # first-order size: dL ~ -dt/2
        assert out.L[mid] - LN_HALF == pytest.approx(-0.5 * dt, abs=0.01 * dt)

    def test_pure_heat_matches_kernel_oracle(self):
        # under the heat flow alone the Gaussian-step profile Phi(x / sqrt(t0))
        # evolves exactly to Phi(x / sqrt(t)).  The start sits at t0 > 0 where
        # the profile is grid-resolved; the singular smoothing layer at t = 0
        # is checked at its own scale elsewhere.
        dx = 0.005
        t0 = 0.25
        g = fkpp.Grid.build(-11.0, 8.0, dx, fkpp.DEFAULT_DT)
        xs = g.xs()
        L = np.minimum(log_normal_cdf(xs / math.sqrt(t0)), 0.0)
        L = heat_steps(g, L, (1.0 - t0) / 38, 38)
        sel = np.abs(xs) <= 6.0
        u_num = np.exp(L[sel])
        u_ref = np.exp(log_normal_cdf(xs[sel]))
        assert float(np.max(np.abs(u_num - u_ref))) <= 1e-6

    def test_rejects_non_monotone_input(self):
        g = small_grid()
        L = np.linspace(-5.0, 0.0, g.n_points)
        L[5] = L[6] + 1e-8  # violation above tolerance
        with pytest.raises(ValueError, match="^field is non-monotone by 1.000e-08$"):
            fkpp.LogField(L=np.minimum(L, 0.0), time=0.0, grid=g)

    @pytest.mark.parametrize("edit,message", [
        (lambda L: L[:-1], "field length does not match grid"),
        (lambda L: np.append(L, 0.0), "field length does not match grid"),
        (lambda L: np.where(np.arange(L.size) == 5, math.nan, L), "non-finite"),
        # the one non-finite value no difference of neighbours shows
        (lambda L: np.where(np.arange(L.size) == 0, -math.inf, L), "non-finite"),
        (lambda L: np.where(np.arange(L.size) == L.size - 1, 1e-9, L), "ln u must be <= 0"),
        (lambda L: np.where(np.arange(L.size) == L.size - 1, 2e-12, L), "ln u must be <= 0"),
    ], ids=["short", "long", "nan", "minus_inf_first", "positive", "positive_past_slack"])
    def test_rejects_malformed_input(self, edit, message):
        g = small_grid()
        with pytest.raises(ValueError, match=message):
            fkpp.LogField(L=edit(np.linspace(-5.0, 0.0, g.n_points)), time=0.0, grid=g)

    def test_tolerates_sub_tolerance_wiggle(self):
        g = small_grid()
        L = np.linspace(-5.0, 0.0, g.n_points)
        L[5] = L[6] + 1e-12  # within tolerance: accepted as input, not fatal
        fld = fkpp.LogField(L=np.minimum(L, 0.0), time=0.0, grid=g)
        out = fkpp.advance(fld, g.dt, P1.sigma2)
        assert np.all(np.diff(out.L) >= 0.0)
        # recorded: the worst defect of a field and of the fields it came from
        assert fld.max_violation == pytest.approx(1e-12, rel=1e-3)
        assert out.max_violation == fld.max_violation
        assert fkpp.LogField(L=fld.L, time=0.0, grid=g, max_violation=5e-10).max_violation == 5e-10

    def test_advance_keeps_grid_and_lands_on_t_end(self):
        g = small_grid()
        fld = fkpp.init_field(g, smoothing_eps=0.2)
        before = fld.L.copy()
        mid = fkpp.advance(fld, 0.1, P1.sigma2)
        out = fkpp.advance(mid, 0.3, P1.sigma2)
        assert out.grid is g and out.time == 0.3
        assert out.steps == 5 + 10  # ceil(0.1 / 0.02) steps, then ceil(0.2 / 0.02)
        assert np.array_equal(fld.L, before) and fld.time == 0.0  # input untouched
        assert fkpp.advance(out, 0.3, P1.sigma2).steps == out.steps
        with pytest.raises(ValueError, match="backwards"):
            fkpp.advance(out, 0.2, P1.sigma2)


class TestSplitting:
    """Invariants of the Strang splitting of exact heat and logistic sub-flows."""

    def test_second_order_in_h(self):
        # the benchmark's probes (four rays, t = 4..20, dx = eps = 0.05)
        # against a run at h/8 of the finest h; Strang error is O(h^2)
        probes = [(a, t) for a in (0.05, -0.3, -0.9, -1.8) for t in (4.0, 8.0, 12.0, 16.0, 20.0)]

        def log_u(h):
            res = fkpp.solve(P1, 20.0, probes=probes, dx=0.05, dt=h, smoothing_eps=0.05,
                             track_front=False)
            return np.concatenate([s.log_u for s in res.tails])

        hs = (0.08, 0.04, fkpp.DEFAULT_DT)
        ref = log_u(hs[-1] / 8.0)
        errs = [float(np.max(np.abs(log_u(h) - ref) / np.abs(ref))) for h in hs]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse >= 3.0 * fine, errs
        assert errs[-1] <= 1e-4, errs

    def test_heat_variance_exact_for_short_steps(self):
        # events every 0.0005 make sigma sqrt(h) smaller than dx, where a
        # sampled Gaussian would lose 29% of the variance per step
        dx = 0.05
        g = fkpp.Grid.build(-30.0, 15.0, dx, fkpp.DEFAULT_DT)
        L = heat_steps(g, fkpp.init_field(g, smoothing_eps=dx).L, 0.0005, 20000)
        xs = g.xs()
        sel = (xs >= -20.0) & (xs <= 5.0)
        ref = log_normal_cdf(xs[sel] / math.sqrt(dx * dx + 10.0))
        assert float(np.max(np.abs(L[sel] - ref) / np.abs(ref))) <= 1e-2

    def test_heat_exact_for_resolved_steps(self):
        dx = 0.05
        g = fkpp.Grid.build(-30.0, 15.0, dx, fkpp.DEFAULT_DT)
        L = heat_steps(g, fkpp.init_field(g, smoothing_eps=dx).L, fkpp.DEFAULT_DT, 500)
        xs = g.xs()
        sel = (xs >= -20.0) & (xs <= 5.0)
        ref = log_normal_cdf(xs[sel] / math.sqrt(dx * dx + 10.0))
        assert float(np.max(np.abs(L[sel] - ref) / np.abs(ref))) <= 1e-10

    @pytest.mark.parametrize("h", [0.01, 0.25, 1.0])
    def test_reaction_is_exact_logistic_flow(self, h):
        # a constant field feels no heat flow far from the pinned right edge
        # (whose pull on x <= -40 is below e^-900 by t = 2), so it must follow
        # ln u(t) = L0 - ln(1 - (e^t - 1)(u0 - 1)) exactly
        g = fkpp.Grid.build(-80.0, 20.0, 0.2, h)
        xs = g.xs()
        for L0 in (-300.0, -5.0, LN_HALF, -1e-6):
            fld = fkpp.LogField(L=np.full(g.n_points, L0), time=0.0, grid=g)
            out = fkpp.advance(fld, 2.0, P1.sigma2)
            exact = L0 - math.log1p(-math.expm1(2.0) * math.expm1(L0))
            mid = out.L[xs <= -40.0]
            assert float(np.max(np.abs(mid - exact))) <= 1e-12 * abs(exact), (h, L0)

    @pytest.mark.parametrize("h", [0.05, fkpp.DEFAULT_DT])
    def test_no_noise_growth_where_u_is_one(self, h):
        # ahead of the front u = 1 is an unstable state of the reaction:
        # rounding noise in 1 - u grows like e^t unless 1 - u keeps its
        # relative precision, and either breaks monotonicity or drags the
        # whole field off u = 1
        res = fkpp.solve(P1, 80.0, probes=[], dx=0.1, dt=h, front_samples=40,
                         snapshot_times=[80.0])
        assert res.steps == round(80.0 / h)
        assert res.max_violation <= 1e-12
        snap = res.snapshots[80.0]
        fkpp.LogField(L=snap.L, time=snap.time, grid=snap.grid)  # a valid field, rebuilt
        assert res.snapshots[80.0].L[-1] >= -1e-6  # still pinned at u = 1 on the right
        assert abs(res.front.position_at(80.0) - bramson_centering(80.0)) <= 2.5

    @pytest.mark.parametrize("dx,dt,slope", [(0.1, 0.0025, 200.0), (1.0, 0.01, 1e9)])
    def test_steep_step_needs_no_subcycling(self, dx, dt, slope):
        # profiles that once tripped the step-jump limit or exhausted the
        # subcycle budget: exact sub-flows take them in one step
        g = fkpp.Grid.build(-10.0, 10.0, dx, dt)
        fld = fkpp.LogField(L=np.minimum(0.0, slope * g.xs()), time=0.0, grid=g)
        out = fkpp.advance(fld, g.dt, P1.sigma2)
        assert out.steps == 1
        assert np.all(np.isfinite(out.L)) and np.all(out.L <= 0.0)
        assert np.all(np.diff(out.L) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        jumps=st.lists(st.floats(0.0, 60.0), min_size=8, max_size=60),
        top=st.floats(-5.0, 0.0),
        h=st.floats(1e-3, 1.0),
        amount=st.floats(0.0, 1.0),
    )
    def test_advance_keeps_monotone_and_nonpositive(self, jumps, top, h, amount):
        L = np.cumsum(jumps)
        L += top - L[-1]
        n = L.size
        g = fkpp.Grid(x_min=-0.2 * (n // 2), dx=0.2, n_points=n, dt=h)
        out = fkpp.advance(fkpp.LogField(L=L, time=0.0, grid=g), amount, P1.sigma2)
        assert np.all(out.L <= 0.0)
        assert np.all(np.diff(out.L) >= -1e-12 * max(1.0, float(np.max(np.abs(L)))))
        assert out.max_violation <= fkpp.MONO_TOL


def windowed_heat(L, K):
    """Reference heat pass: every window shifted by its own maximum, one exp
    per grid point and kernel tap (the stepper's arithmetic before 0.4.0)."""
    n, w = L.size, K.size // 2
    P = np.concatenate([np.full(w, L[0]), L, np.zeros(w)])
    out = np.empty(n)
    i1 = int(np.searchsorted(L, -1.0))
    if i1 > 0:
        m = P[2 * w: i1 + 2 * w]
        E = np.exp(sliding_window_view(P[: i1 + 2 * w], K.size) - m[:, None])
        out[:i1] = np.log(E @ K) + m
    if i1 < n:
        c = np.convolve(-np.expm1(P[i1:]), K, "valid")
        out[i1:] = np.log1p(-c)
    return np.minimum(out, 0.0)


class TestHeatPass:
    """The block-shifted heat pass against the windowed log-sum-exp."""

    @staticmethod
    def assert_matches_reference(L, dx, h):
        n = L.size
        g = fkpp.Grid(x_min=-dx * (n // 2), dx=dx, n_points=n, dt=h)
        K = fkpp._kernel(math.sqrt(P1.sigma2 * h) / g.dx)
        got, ref = heat(L, K), windowed_heat(L, K)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), (dx, h)

    def test_random_monotone_fields(self):
        rng = np.random.default_rng(20240607)
        for _ in range(200):
            n = int(rng.integers(20, 800))
            dx = 10.0 ** rng.uniform(-2.0, math.log10(0.2))
            h = 10.0 ** rng.uniform(-7.0, 0.0)
            L = np.cumsum(10.0 ** rng.uniform(-4.0, 2.0) * rng.exponential(1.0, n))
            L = np.minimum(L - L[int(rng.integers(0, n))], 0.0)
            self.assert_matches_reference(L, dx, h)

    @pytest.mark.parametrize("h", [1e-4, fkpp.DEFAULT_DT, 1.0])
    def test_initial_profile(self, h):
        g = fkpp.Grid.build(-40.0, 10.0, 0.05, h)
        self.assert_matches_reference(fkpp.init_field(g, smoothing_eps=0.05).L, 0.05, h)

    @pytest.mark.parametrize("slope", [60.0, 100.0])
    def test_steep_field_with_near_delta_kernel(self, slope):
        # a block's shift stays within 500 e-folds of every center value, so
        # no output's own term underflows even when the window maxima are
        # thousands of e-folds apart
        L = np.minimum(0.0, slope * np.arange(-300.0, 100.0))
        self.assert_matches_reference(L, 0.1, 1e-16)


    @pytest.mark.parametrize("h", [1e-300, 1e-60, 1e-40])
    def test_steep_field_with_trimmed_kernel(self, h):
        # every window spans 1,000 e-folds a cell, so every output is a block
        # of one: kept, the weights that round to 0 left its sum 0 and its log -inf
        L = np.minimum(0.0, 1000.0 * np.arange(-300.0, 100.0))
        self.assert_matches_reference(L, 0.1, h)


class TestReferenceStepper:
    """fkpp.advance against the allocating stepper it replaced: the arithmetic
    is unchanged, so every advance must agree bit for bit with the reference
    run on the cells it steps, and leave the value of the first of them to
    their left and L = 0 to their right."""

    @staticmethod
    def check_every_advance(monkeypatch):
        real = fkpp.advance
        calls = []

        def checked(fld, t_end, sigma2, lo=0, hi=None):
            got = real(fld, t_end, sigma2, lo, hi)
            window = fld.L[lo:hi]
            ref = advance_reference(fkpp.LogField(
                L=window.copy(), time=fld.time, grid=lattice(window.size, fld.grid),
                max_violation=fld.max_violation, steps=fld.steps), t_end, sigma2)
            end = lo + window.size
            assert got.L[lo:end].tobytes() == ref.L.tobytes(), (fld.time, t_end)
            assert np.all(got.L[:lo] == ref.L[0]) and np.all(got.L[end:] == 0.0)
            assert (got.steps, got.max_violation) == (ref.steps, ref.max_violation)
            calls.append((t_end, window.size, got.steps - fld.steps))
            return got

        monkeypatch.setattr(fkpp, "advance", checked)
        return calls

    @pytest.mark.parametrize("sigma2,t_final,kw", [
        (1.0, 40.0, dict(dx=0.1, front_samples=40)),
        (1.0, 8.0, dict(probes=[(a, t) for a in (0.05, -0.3, -0.9, -1.8) for t in (2.0, 4.0, 8.0)],
                        dx=0.05, smoothing_eps=0.05, track_front=False)),
        (1.0, 0.5, dict(dx=0.2, dt=0.001, front_samples=5)),  # sigma sqrt(h) < dx
        (4.0, 5.0, dict(probes=[(-0.5, 2.0), (-0.5, 5.0)], dx=0.1, front_samples=10)),
        (1.0, 3.0, dict(probes=[(-0.5, 0.0012), (-0.5, 2.3)], dx=0.1, front_samples=3,
                        snapshot_times=[0.0005, 0.003, 0.5, 2.99])),
    ], ids=["front", "four_rays", "short_steps", "sigma2_4", "uneven_events"])
    def test_solve_advances_match(self, monkeypatch, sigma2, t_final, kw):
        calls = self.check_every_advance(monkeypatch)
        res = fkpp.solve(ModelParams(sigma2=sigma2), t_final, **kw)
        assert len(calls) >= 3
        assert res.point_steps == sum(size * n for _, size, n in calls)

    def test_steep_field_with_near_delta_kernel(self, monkeypatch):
        calls = self.check_every_advance(monkeypatch)
        g = fkpp.Grid(x_min=-30.0, dx=0.1, n_points=400, dt=1e-16)
        L = np.minimum(0.0, 100.0 * np.arange(-300.0, 100.0))
        fkpp.advance(fkpp.LogField(L=L, time=0.0, grid=g), 3e-16, P1.sigma2)
        assert calls == [(3e-16, 400, 3)]


def whole_grid(monkeypatch):
    """Make every advance step the whole grid, as solve did before its window."""
    real = fkpp.advance
    monkeypatch.setattr(fkpp, "advance", lambda fld, t_end, sigma2, lo=0, hi=None:
                        real(fld, t_end, sigma2))


RAYS = [(a, t) for a in (0.05, -0.3, -0.9, -1.8) for t in (2.0, 4.0, 8.0)]


class TestWindow:
    """solve steps only the cells its reads depend on (module notes), and
    every front position and probe keeps its bits."""

    @pytest.mark.parametrize("t_final,kw,ratio", [
        (40.0, dict(dx=0.1, front_samples=40), 0.74),
        (8.0, dict(probes=RAYS, dx=0.05, smoothing_eps=0.05, track_front=False), 0.93),
        (8.0, dict(probes=RAYS, dx=0.05, smoothing_eps=0.05, front_samples=40), 0.88),
        (200.0, dict(dx=0.1, front_samples=400), 0.32),
    ], ids=["front", "four_rays", "four_rays_and_front", "front_200"])
    def test_window_keeps_every_bit(self, monkeypatch, t_final, kw, ratio):
        res = fkpp.solve(P1, t_final, **kw)
        whole_grid(monkeypatch)
        ref = fkpp.solve(P1, t_final, **kw)
        whole = ref.grid.n_points * ref.steps
        assert res.point_steps <= ratio * whole, res.point_steps / whole
        assert (res.front is None) == (ref.front is None)
        if res.front is not None:
            assert res.front.positions.tobytes() == ref.front.positions.tobytes()
        for a, b in zip(res.tails, ref.tails, strict=True):
            assert a.log_u.tobytes() == b.log_u.tobytes(), a.alpha
        assert (res.steps, res.max_violation) == (ref.steps, ref.max_violation)

    def test_snapshot_solve_steps_every_cell(self, monkeypatch):
        # a snapshot reads the whole grid, so every interval up to the last
        # snapshot steps every cell, and the window starts after it
        res = fkpp.solve(P1, 8.0, probes=RAYS, dx=0.05, front_samples=40, snapshot_times=[8.0])
        assert res.point_steps == res.grid.n_points * res.steps
        early = fkpp.solve(P1, 8.0, probes=RAYS, dx=0.05, front_samples=40,
                           snapshot_times=[4.0])
        assert early.point_steps < res.point_steps
        whole_grid(monkeypatch)
        ref = fkpp.solve(P1, 8.0, probes=RAYS, dx=0.05, front_samples=40, snapshot_times=[4.0])
        assert early.snapshots[4.0].L.tobytes() == ref.snapshots[4.0].L.tobytes()


def corrupt_after_step(monkeypatch, corrupt, step=2):
    """Apply corrupt(L, k) after the real flow of the reaction that ends the
    given step, fkpp._react's call step + 1; k is where L first reaches -5."""
    real = fkpp._react
    calls = []

    def wrapped(L, h, *scratch):
        real(L, h, *scratch)
        calls.append(h)
        if len(calls) == step + 1:
            corrupt(L, int(np.searchsorted(L, -5.0)))

    monkeypatch.setattr(fkpp, "_react", wrapped)


class TestInstability:
    """advance checks its result, not each step: any non-finite value and a
    monotonicity defect above MONO_TOL raise SolverInstabilityError, naming
    the time the advance ends at."""

    @staticmethod
    def two_steps():
        g = small_grid()
        return fkpp.advance(fkpp.init_field(g, smoothing_eps=0.2), 2 * g.dt, P1.sigma2)

    @pytest.mark.parametrize("where,value", [
        ("inside", math.nan), ("first", math.nan), ("first", -math.inf), ("inside", -math.inf),
    ])
    def test_non_finite_values_raise(self, monkeypatch, where, value):
        def corrupt(L, k):
            L[0 if where == "first" else k] = value

        corrupt_after_step(monkeypatch, corrupt)
        with pytest.raises(fkpp.SolverInstabilityError,
                           match=r"^advance to t=0\.04: field contains non-finite values$"):
            self.two_steps()

    @pytest.mark.parametrize("where", ["inside", "first"])
    def test_nan_before_the_last_step_raises(self, monkeypatch, where):
        # a NaN lasts to the result: exp, correlate, log and minimum propagate it
        def corrupt(L, k):
            L[0 if where == "first" else k] = math.nan

        corrupt_after_step(monkeypatch, corrupt, step=1)
        with pytest.raises(fkpp.SolverInstabilityError,
                           match=r"^advance to t=0\.04: field contains non-finite values$"):
            self.two_steps()

    def test_monotonicity_defect_raises(self, monkeypatch):
        def corrupt(L, k):
            L[k] = L[k + 1] + 1e-6

        corrupt_after_step(monkeypatch, corrupt)
        with pytest.raises(fkpp.SolverInstabilityError) as err:
            self.two_steps()
        assert str(err.value) == "advance to t=0.04: field is non-monotone by 1.000e-06"

    def test_rounding_defect_is_recorded(self, monkeypatch):
        defects = []

        def corrupt(L, k):
            L[k] = L[k + 1] + 1e-12
            defects.append(float(np.max(L[:-1] - L[1:])))

        corrupt_after_step(monkeypatch, corrupt)
        out = self.two_steps()
        assert out.steps == 2 and out.max_violation == defects[0]
        assert defects[0] == pytest.approx(1e-12, rel=1e-3)

    def test_cli_exits_3(self, monkeypatch, tmp_path, capsys):
        def corrupt(L, k):
            L[k] = math.nan

        corrupt_after_step(monkeypatch, corrupt)
        argv = ["fkpp-rate", "--alphas", "0", "-0.5", "--t-list", "1", "2",
                "--dx", "0.2", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "solver-instability"
        assert err["message"] == "advance to t=1.0: field contains non-finite values"


class TestDomain:
    """The lattice passes through x = 0 and the grid is as wide as what is read."""

    def test_probe_independent_of_horizon_and_other_probes(self):
        # the initial step must be sampled at one lattice phase in every
        # solve; a lattice based at x_min spreads these values by 3.6e-6
        runs = [((0.0, 10.0),), ((0.0, 10.0), (0.0, 20.0)), ((0.0, 10.0), (0.0, 30.0)),
                ((0.0, 10.0), (0.0, 30.0), (-1.5, 30.0))]
        vals = []
        for probes in runs:
            t_final = max(t for _, t in probes)
            res = fkpp.solve(P1, t_final, probes=probes, dx=0.05, track_front=False)
            vals.append(res.tail_for(0.0).log_u[0])
        assert max(vals) - min(vals) <= 1e-12, vals

    def test_front_only_grid_reads_same_front(self):
        res = fkpp.solve(P1, 80.0, dx=0.1)
        assert res.grid.n_points == 1433
        wide = fkpp.solve(P1, 80.0, dx=0.1, x_min=-188.9, x_max=292.0)
        assert wide.grid.n_points == 4810
        assert np.max(np.abs(res.front.positions - wide.front.positions)) <= 1e-12

    def test_right_margin_suffices_for_tail_probes(self):
        probes = [(a, t) for a in (0.05, -0.3, -0.9, -1.8) for t in (4.0, 8.0, 12.0, 16.0, 20.0)]
        res = fkpp.solve(P1, 20.0, probes=probes, dx=0.05, track_front=False)
        wide = fkpp.solve(P1, 20.0, probes=probes, dx=0.05, track_front=False,
                          x_max=res.grid.x_max + 20.0)
        for a in (0.05, -0.3, -0.9, -1.8):
            diff = res.tail_for(a).log_u - wide.tail_for(a).log_u
            assert np.max(np.abs(diff)) <= 1e-12, a


class TestMeasurements:
    def test_front_position_of_initial_step(self):
        g = small_grid(dx=0.2)
        fld = fkpp.init_field(g, smoothing_eps=0.2)
        assert fkpp.front_position(fld) == pytest.approx(0.0, abs=1e-12)

    def test_front_at_the_left_edge(self):
        g = small_grid()
        L = np.linspace(LN_HALF, 0.0, g.n_points)
        assert L[0] == LN_HALF
        assert fkpp.front_position(fkpp.LogField(L=L, time=0.0, grid=g)) == g.x_min

    def test_front_not_bracketed(self):
        g = small_grid()
        fld = fkpp.LogField(L=np.linspace(-9.0, -2.0, g.n_points), time=0.0, grid=g)
        with pytest.raises(fkpp.DomainOverflowError, match="does not bracket the half level"):
            fkpp.front_position(fld)

    def test_probe_log_u_bounds(self):
        g = small_grid()
        fld = fkpp.init_field(g, smoothing_eps=0.2)
        with pytest.raises(fkpp.DomainOverflowError):
            fld.log_u(100.0)

    def test_log_u_interpolates_on_the_grid(self):
        g = small_grid()
        fld = fkpp.init_field(g, smoothing_eps=0.2)
        xs = g.xs()
        x = np.concatenate([[g.x_min, g.x_max], np.linspace(g.x_min, g.x_max, 97)])
        assert np.array_equal(fld.log_u(x), np.interp(x, xs, fld.L))
        assert fld.log_u(g.x_min) == fld.L[0] and fld.log_u(g.x_max) == fld.L[-1]
        assert fld.log_u(0.3) == np.interp(0.3, xs, fld.L)

    @pytest.mark.parametrize("x", [[-10.5, 0.0], [0.0, 10.5], [math.nan], [-math.inf, 0.0]])
    def test_log_u_refuses_points_off_the_grid(self, x):
        fld = fkpp.init_field(small_grid(), smoothing_eps=0.2)
        with pytest.raises(fkpp.DomainOverflowError):
            fld.log_u(np.array(x))

    def test_renewal_quadrature_support_must_lie_on_the_grid(self):
        # the Gaussian support reaches 12 sqrt(sigma2 tau) = 12 either side of x
        fld = fkpp.init_field(small_grid(dx=0.2, span=15.0), smoothing_eps=0.2)
        fkpp.renewal_quadrature(fld, 0.0, 1.0, P1)
        for x in (-3.5, 3.5):
            with pytest.raises(fkpp.DomainOverflowError):
                fkpp.renewal_quadrature(fld, x, 1.0, P1)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_renewal_quadrature_requires_finite_positive_tau(self, tau):
        fld = fkpp.init_field(small_grid(), smoothing_eps=0.2)
        with pytest.raises(ValueError, match="tau"):
            fkpp.renewal_quadrature(fld, 0.0, tau, P1)

    def test_front_trace_fit_recovers_exact_model(self):
        t = np.linspace(5.0, 80.0, 60)
        pos = 1.4 * t - 1.05 * np.log(t) + 0.3
        trace = fkpp.FrontTrace(times=t, positions=pos)
        speed, blog, c = trace.fit_window(5.0, 80.0)
        assert speed == pytest.approx(1.4, abs=1e-9)
        assert blog == pytest.approx(-1.05, abs=1e-8)
        assert c == pytest.approx(0.3, abs=1e-8)

    def test_front_trace_refuses_reads_outside_its_samples(self):
        trace = fkpp.FrontTrace(times=np.linspace(1.0, 8.0, 8), positions=np.linspace(0.0, 7.0, 8))
        for t in (0.5, 8.5, math.nan):
            with pytest.raises(ValueError, match="outside sampled range"):
                trace.position_at(t)
        with pytest.raises(ValueError, match="need at least 8 front samples"):
            trace.fit_window(1.0, 7.5)


class TestTailFit:
    def _series(self, t, y):
        return np.asarray(t, float), -np.asarray(y, float)

    def test_exact_model_recovery(self):
        t = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        y = 0.8284 * t - 0.6213 * np.log(t) + 1.0
        fit = fkpp.fit_tail_series(*self._series(t, y))
        assert fit.a == pytest.approx(0.8284, abs=1e-9)
        assert fit.b == pytest.approx(-0.6213, abs=1e-9)
        assert fit.c == pytest.approx(1.0, abs=1e-8)
        assert fit.residual_norm < 1e-9

    def test_requires_five_samples_spanning_factor_four(self):
        with pytest.raises(ValueError, match="need at least 5 samples, got 4"):
            fkpp.fit_tail_series(*self._series([10, 20, 30, 40], [1, 2, 3, 4]))
        with pytest.raises(ValueError, match="span at least a factor 4"):
            fkpp.fit_tail_series(*self._series([10, 11, 12, 13, 14], [1, 2, 3, 4, 5]))

    def test_rank_deficiency_on_clustered_samples(self):
        t = [10.0, 10.0, 10.0, 10.0, 41.0]
        with pytest.raises(ValueError, match="rank deficient"):
            fkpp.fit_tail_series(*self._series(t, [1, 1, 1, 1, 2]))

    @pytest.mark.parametrize("t0,y0", [(math.nan, 8.0), (-50.0, 8.0), (0.0, 8.0),
                                       (10.0, math.nan), (10.0, math.inf)])
    def test_rejects_non_finite_or_non_positive_cells(self, t0, y0):
        t = [t0, 20.0, 30.0, 40.0, 50.0]
        with pytest.raises(ValueError, match="finite"):
            fkpp.fit_tail_series(*self._series(t, [y0, 16.0, 24.0, 32.0, 40.0]))

    def test_standard_errors_positive_on_noisy_data(self):
        rng = np.random.default_rng(5)
        t = np.linspace(10.0, 60.0, 12)
        y = 0.8 * t - 0.6 * np.log(t) + 1.0 + 0.01 * rng.standard_normal(t.size)
        fit = fkpp.fit_tail_series(*self._series(t, y))
        assert fit.se_a > 0 and fit.se_b > 0 and fit.se_c > 0


class TestSolve:
    def test_t_final_zero_returns_initial_values(self):
        res = fkpp.solve(P1, 0.0, probes=[(0.0, 0.0), (-0.5, 0.0)], dx=0.1)
        for series in res.tails:
            assert series.log_u[0] == pytest.approx(LN_HALF, rel=1e-12)
        assert res.front.positions[0] == pytest.approx(0.0, abs=1e-9)

    def test_x_probe_is_the_point_read(self):
        # read back at x_probe from the snapshot taken at the probe's time, the
        # field gives the probe's ln u bit for bit; for several of these
        # probes (a * crit) * t and (t * a) * crit differ in the last bit
        alphas, times = (-0.7, -0.3, 0.2, 0.3, 0.6, 0.7), (1.7, 3.0)
        res = fkpp.solve(P1, 3.0, probes=[(a, tp) for a in alphas for tp in times], dx=0.1,
                         snapshot_times=times, track_front=False)
        for series in res.tails:
            for tp, xp, lu in zip(series.times, series.x_probe, series.log_u):
                assert res.snapshots[tp].log_u(xp) == lu, (series.alpha, tp)

    def test_probe_order_does_not_matter(self):
        # tails come in ascending alpha, each in ascending t, whatever the
        # order of the probes; a probe given twice is read twice
        ordered = [(a, tp) for a in (-0.7, 0.2, 0.6) for tp in (1.0, 1.7, 1.7, 3.0)]
        shuffled = [ordered[i] for i in (5, 11, 0, 7, 2, 9, 4, 1, 10, 6, 3, 8)]
        assert sorted(shuffled) == ordered
        ref, res = (fkpp.solve(P1, 3.0, probes=p, dx=0.1, track_front=False).tails
                    for p in (ordered, shuffled))
        assert [s.alpha for s in res] == [-0.7, 0.2, 0.6]
        for a, b in zip(ref, res, strict=True):
            assert a.alpha == b.alpha and a.times.tolist() == [1.0, 1.7, 1.7, 3.0]
            for col in ("times", "log_u", "x_probe"):
                assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), (a.alpha, col)

    def test_deep_probes_read_the_field_not_the_clip(self):
        # ln u >= -t + ln Phi(alpha sqrt(2 t)), the chance that the first particle
        # never branches and ends below alpha sqrt(2) t; at alpha = -3 and
        # t >= 80 that bound lies below TAIL_FLOOR + t, so a clip at
        # TAIL_FLOOR would hold the probe above it
        res = fkpp.solve(P1, 100.0, probes=[(-3.0, 80.0), (-3.0, 100.0)], dx=0.1,
                         track_front=False)
        series = res.tail_for(-3.0)
        for t, lu in zip(series.times, series.log_u):
            bound = -t + log_normal_cdf(-3.0 * SQRT2 * math.sqrt(t))
            assert bound <= lu <= bound + 1.0

    def test_validates_probes(self):
        with pytest.raises(ValueError):
            fkpp.solve(P1, 2.0, probes=[(1.0, 1.0)], dx=0.2)
        with pytest.raises(ValueError):
            fkpp.solve(P1, 2.0, probes=[(0.0, 3.0)], dx=0.2)
        for a in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                fkpp.solve(P1, 2.0, probes=[(a, 1.0)], dx=0.2)
        for tp in (math.inf, math.nan):
            with pytest.raises(ValueError):
                fkpp.solve(P1, 2.0, probes=[(0.0, tp)], dx=0.2)

    def test_validates_horizon_and_snapshots(self):
        for t_final in (-1.0, math.nan):
            with pytest.raises(ValueError, match="t_final must be nonnegative"):
                fkpp.solve(P1, t_final, dx=0.2)
        with pytest.raises(ValueError, match="snapshot time 3.0 outside"):
            fkpp.solve(P1, 2.0, dx=0.2, snapshot_times=[1.0, 3.0])

    @pytest.mark.parametrize("alpha,tp", [(-2e154, 1.0), (-1e308, 2.0)],
                             ids=["no-branch-bound", "point"])
    def test_probe_beyond_the_floats_refused(self, alpha, tp):
        # z^2 / 2 of the no-branch bound, z = alpha sqrt(2 t), or the point
        # alpha sqrt(2 sigma2) t, is not a float
        with pytest.raises(ValueError, match="beyond the floats"):
            fkpp.solve(P1, 2.0, probes=[(alpha, tp)], dx=0.2, track_front=False)

    def test_work_bound_refused_before_allocation(self, monkeypatch):
        class Accepted(Exception):
            pass

        def accept(*args, **kwargs):
            raise Accepted

        # init_field allocates the first array of the grid's size
        monkeypatch.setattr(fkpp, "init_field", accept)
        with pytest.raises(Accepted):
            fkpp.solve(P1, 400.0, dx=0.1)  # the t = 400 front: 4.25e9 point-tap-steps
        for dt, work in [(1e-9, "1.75e\\+13"), (1e-300, "1.75e\\+304"), (5e-324, "inf")]:
            with pytest.raises(ValueError, match=f"solve needs {work} point-tap-steps"):
                fkpp.solve(P1, 1.0, probes=[(0.0, 1.0)], dt=dt, track_front=False)
        # a kernel 33,943 taps wide on a grid of 514,143 points
        with pytest.raises(ValueError, match="solve needs 9.07e\\+11 point-tap-steps"):
            fkpp.solve(ModelParams(sigma2=1e8), 1.0, probes=[(1e-300, 1e-8), (1e-300, 1.0)],
                       dx=1.0, track_front=False)

    def test_tail_for_unknown_alpha(self):
        res = fkpp.solve(P1, 1.0, probes=[(0.0, 1.0)], dx=0.2, track_front=False)
        assert res.tail_for(0.0).alpha == 0.0
        with pytest.raises(KeyError, match="alpha=0.5"):
            res.tail_for(0.5)

    @pytest.mark.parametrize("bounds", [
        dict(x_min=-10.0), dict(x_max=2.0), dict(x_min=-10.0, x_max=2.0),
        dict(x_min=0.0, x_max=0.0),
    ], ids=["x_min", "x_max", "both", "at_origin"])
    def test_bounds_only_widen_the_grid(self, bounds):
        # bounds inside the grid the probes need change nothing: every probe
        # lies on the grid by construction, so none is refused
        probes = [(-1.0, 4.0), (0.5, 4.0), (0.5, 2.0)]
        ref = fkpp.solve(P1, 4.0, probes=probes, dx=0.2)
        res = fkpp.solve(P1, 4.0, probes=probes, dx=0.2, **bounds)
        assert res.grid == ref.grid
        for a, b in zip(res.tails, ref.tails, strict=True):
            assert a.log_u.tobytes() == b.log_u.tobytes(), a.alpha
        assert res.front.positions.tobytes() == ref.front.positions.tobytes()

    def test_small_solve_bounds_and_renewal(self):
        # sandwich at every probe: exp(-t) * no-branch mass below, and the
        # expected-count union bound above where it is informative
        t_final = 3.0
        probes = [(0.0, 1.5), (0.0, 3.0), (-1.0, 3.0), (0.9, 1.0), (0.99, 1.0)]
        res = fkpp.solve(P1, t_final, probes=probes, dx=0.1, snapshot_times=[1.5, 3.0])
        for series in res.tails:
            assert np.all(series.log_u <= 0.0)
            if series.times.size > 1:
                assert np.all(np.diff(series.log_u) < 0.0)  # deeper as t grows
            for tp, lu in zip(series.times, series.log_u):
                z = series.alpha * SQRT2 * tp / math.sqrt(tp)
                lower = -tp + log_normal_cdf(z)
                assert lower <= lu + 1e-9, (series.alpha, tp)
                # union bound: u >= 1 - e^t Phi(-x / (sigma sqrt t))
                log_mean_above = tp + log_normal_cdf(-z)
                if log_mean_above < math.log(0.5):
                    assert lu >= math.log1p(-math.exp(log_mean_above)) - 1e-9
        # renewal inequality at tau = t/2 on a coarse x set
        half = res.snapshots[1.5]
        final = res.snapshots[3.0]
        for xq in (-4.0, -1.0, 0.0, 2.0, 5.0):
            q = fkpp.renewal_quadrature(half, xq, 1.5, P1)
            assert q <= final.log_u(xq) + math.log(1.0 + 1e-3)

    def test_solver_tail_matches_monte_carlo(self):
        res = fkpp.solve(P1, 3.0, probes=[(0.0, 3.0)], dx=0.1)
        ln_u = res.tails[0].log_u[0]
        cfg = mc.SimConfig(t=3.0, seed=91021)
        est = mc.estimate_tail(cfg, [0.0], 20000)[0]
        assert abs(math.exp(ln_u) - est.p_hat) <= 3.0 * est.stderr

    def test_grid_convergence_on_tail(self):
        vals = {}
        for dx in (0.1, 0.05):
            res = fkpp.solve(P1, 3.0, probes=[(-1.0, 3.0), (0.0, 3.0)], dx=dx,
                             track_front=False)
            vals[dx] = {s.alpha: s.log_u[0] for s in res.tails}
        for alpha in (-1.0, 0.0):
            a, b = vals[0.1][alpha], vals[0.05][alpha]
            if abs(b) >= 1.0:
                assert abs(a - b) / abs(b) < 0.01

    def test_brownian_scaling_in_sigma(self):
        # doubling sigma doubles lengths: u_{sigma=2}(2x, t) == u_{sigma=1}(x, t),
        # and the half-level front sits twice as far out
        res1 = fkpp.solve(P1, 3.0, probes=[(0.0, 3.0), (-0.8, 3.0)], dx=0.1)
        res4 = fkpp.solve(ModelParams(sigma2=4.0), 3.0, probes=[(0.0, 3.0), (-0.8, 3.0)],
                          dx=0.2)
        for a in (0.0, -0.8):
            lu1 = res1.tail_for(a).log_u[0]
            lu4 = res4.tail_for(a).log_u[0]
            assert lu4 == pytest.approx(lu1, rel=0.01)
        f1 = res1.front.position_at(3.0)
        f4 = res4.front.position_at(3.0)
        assert f4 == pytest.approx(2.0 * f1, rel=0.02)

    def test_front_advances_and_is_increasing(self):
        res = fkpp.solve(P1, 5.0, probes=[], dx=0.1, front_samples=50)
        t = res.front.times
        x = res.front.positions
        late = t >= 1.0
        assert np.all(np.diff(x[late]) > 0.0)
