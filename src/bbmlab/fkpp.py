"""Log-domain solver for the rightmost-particle CDF front.

The CDF u(x, t) of the rightmost position solves the semilinear
reaction-diffusion equation u_t = (sigma2/2) u_xx + u^2 - u; we store
L = ln u instead, because the quantities of interest sit near e^{-200}, far
below what a linear-domain field retains.

Scheme notes (these are constraints, not history):
  * Each step of size h is a Strang splitting R(h/2) H(h) R(h/2) of two
    sub-flows of the u-equation, each solved exactly: H, the heat flow, and
    R, the logistic flow L <- L - log1p(-expm1(h) expm1(L)).  Both are
    monotone maps that fix u = 1, so the field stays nondecreasing and <= 0
    without repair or step-size limits; the splitting error is O(h^2).
    advance takes a field to a given time on its own grid, in equal steps
    of at most dt; inside one advance the adjacent half-steps of R fuse.
  * H convolves u with a positive lattice kernel of sum 1.  Where L < -1
    this is a log-sum-exp, one exp per grid point: the outputs are cut into
    blocks that share one shift, the largest window maximum in the block,
    and a block ends before that maximum would lie more than _SPAN = 500
    e-folds above the center value of its first output (a window steeper
    than that is a block of one, shifted by its own maximum).  Since L is
    nondecreasing, every output's own center term is then at least e^-500
    and nothing it depends on underflows, whatever the step h.  Bounding
    only the spread of the window maxima is not enough: for a kernel that
    is nearly a delta (h <= 1e-16) the sum is the center term alone, which
    can lie hundreds of e-folds below its window maximum and underflow.
  * Where L >= -1, H convolves u - 1 = expm1(L) instead.  u = 1 is an
    unstable state of R, which multiplies 1 - u by e^h per step; a
    log-space sum there rounds at 1e-16 absolute, not relative to 1 - u, and
    R grows that noise like e^t, into monotonicity defects or a slide of the
    whole leading edge off u = 1.  Summing u - 1 rather than 1 - u changes
    no bit: rounding to nearest is symmetric in sign, so every product and
    partial sum is the exact negative of the other's, and log1p of the sum
    equals log1p of minus the other.  Where u = 1 only the sign of a zero
    result differs (-0.0 from 1 - u, +0.0 from u - 1), and the clip at L = 0,
    np.minimum(out, 0.0), writes +0.0 for both.
  * Both sums are np.correlate with the kernel, which is symmetric, so this
    is np.convolve's own computation: one dot product per output, whose
    order of additions sets the rounding.
  * The kernel's variance must be exactly sigma2 h: every step adds it, so a
    per-step deficit accumulates over thousands of short steps (between
    closely spaced events).  A sampled Gaussian is exact to 2e-7 once
    sigma sqrt(h) >= dx but loses 14% of the variance at sigma sqrt(h) =
    dx/2; below dx the kernel is the discrete heat kernel e^{-2r} I_k(2r),
    r = sigma2 h / (2 dx^2), whose variance is exact at any h (to 1e-9
    after the cut at 8 cells); it is summed from the power series of I_k,
    since 2r < 1 there.
  * Beyond the grid, u is held at u(x_min) on the left and at 1 on the
    right; probes keep 20 sigma sqrt(t) from x_min, so the left edge cannot
    reach them.  Probes and quadrature nodes read ln u through
    LogField.log_u, linear in L, which refuses any x off the grid.
  * advance keeps two fields of N + 2w points, w the kernel's half-width,
    and swaps them each step: H reads one and writes the N inner points of
    the other, and R works on those in place.  The pads carry the boundary
    rule above: the right pads are never written and stay at L = 0, and the
    left pad is refilled with L[0] before each H, because R moves L[0].
    One scratch array of N + 2w takes the exponentials and expm1 terms of H
    and R, and one of N - 1 the differences of the step check, so a step
    allocates nothing of the grid's size but np.correlate's outputs.
  * Every grid contains x = 0: Grid.build snaps x_min down to a multiple of
    dx, so the initial step is sampled at the same phase whatever t_final,
    the probes or explicit bounds.  A probe's value then depends on the rest
    of the solve only through the event times before it, which set the
    splitting steps, and through the domain edges, by less than 1e-12.
  * The domain is sized by what is read.  With probes or snapshots x_min is
    v_min t - 20 sigma sqrt(t) - 10 sigma, v_min the lowest probe velocity
    or 0; a front-only solve reads nothing left of its front and starts at
    -10 sigma.  x_max is sqrt(2 sigma2) t + 20 sigma: 1 - u decays like
    e^{-sqrt 2 (x - front)/sigma} ahead of the front, so u = 1 to rounding
    at x_max (ln u = -1.4e-16 there at t = 80, dx = 0.1) and doubling that
    margin moves no probe by 1e-12.
  * A non-finite value or a monotonicity defect above MONO_TOL after any step
    raises SolverInstabilityError; smaller defects are rounding, recorded as
    max_violation and left in place.  One pass finds both: viol, the largest
    of 0 and every L[i] - L[i+1], is NaN if any value is NaN, and +inf or
    NaN if any L[i] with i >= 1 is -inf, so only -inf at L[0] escapes it and
    L[0] is tested alone.  +inf cannot arise, since H clips at L = 0 and R
    only lowers L.  np.isfinite runs only once the check has failed, to
    choose the message.
  * The initial profile ln(Phi(x/eps)) is clipped at a floor, which raises u
    by at most e^floor.  Both sub-flows are order preserving and Lipschitz in
    u (H with constant 1, R with e^h), so the excess stays below
    e^{floor + t}.  Every probe (alpha, t > 0) reads at least its no-branch
    bound -t + ln Phi(alpha sqrt(2 t)), so solve clips at TAIL_FLOOR = -700
    or, where a probe lies deeper, at the lowest such bound minus t_final
    minus 40: the excess then stays 40 e-folds under every probe.  Solves
    that read only snapshots or the front keep TAIL_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SQRT2, ModelParams
from .varopt import log_normal_cdf

_LN_HALF = math.log(0.5)

DEFAULT_DT = 0.02  # splitting step; the exact sub-flows impose no diffusive bound
MONO_TOL = 1e-9  # a monotonicity defect above this aborts the run
_SPAN = 500.0  # e-folds from a heat block's shift down to its lowest center value
TAIL_FLOOR = -700.0  # highest clip of the initial ln u (module notes)
MAX_POINTS = 2**22  # largest grid (32 MiB per field), refused before anything is allocated


class SolverInstabilityError(RuntimeError):
    """The time stepper produced non-finite or non-monotone output."""


class DomainOverflowError(ValueError):
    """A probe, quadrature point or the front falls outside (or too close to) the grid."""


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid and splitting step."""

    x_min: float
    x_max: float
    dx: float
    dt: float

    def __post_init__(self) -> None:
        if not (self.x_min < 0.0 < self.x_max):
            raise ValueError(f"grid must straddle the origin, got [{self.x_min}, {self.x_max}]")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not 8 <= self.n_points <= MAX_POINTS:
            raise ValueError(f"grid needs 8 to {MAX_POINTS} points, got {self.n_points}")
        span = self.x_max - self.x_min
        if abs(span / self.dx - round(span / self.dx)) > 1e-6:
            raise ValueError("x_max - x_min must be an integer multiple of dx")

    @property
    def n_points(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @classmethod
    def build(cls, x_min: float, x_max: float, dx: float, dt: float) -> "Grid":
        """Grid on the dx lattice through x = 0: x_min snapped down, x_max up."""
        if not (dx > 0.0 and math.isfinite(dx)):
            raise ValueError(f"dx must be positive, got {dx!r}")
        x_min = math.floor(x_min / dx + 1e-9) * dx
        n_cells = max(7, int(math.ceil((x_max - x_min) / dx - 1e-9)))
        return cls(x_min=x_min, x_max=x_min + n_cells * dx, dx=dx, dt=dt)


@dataclass
class LogField:
    """ln u sampled on a grid at one instant."""

    L: np.ndarray
    time: float
    grid: Grid
    max_violation: float = 0.0  # worst monotonicity defect so far
    steps: int = 0  # splitting steps taken so far

    def log_u(self, x: float | np.ndarray) -> float | np.ndarray:
        """ln u at x (a number or an array), interpolated in L, not in u (it underflows)."""
        g = self.grid
        lo, hi = float(np.min(x)), float(np.max(x))
        if not (g.x_min <= lo and hi <= g.x_max):
            raise DomainOverflowError(f"x in [{lo!r}, {hi!r}] leaves grid [{g.x_min}, {g.x_max}]")
        return np.interp(x, g.xs(), self.L)

    def validate(self, pinned_right: bool = True) -> None:
        if self.L.shape != (self.grid.n_points,):
            raise ValueError("field length does not match grid")
        if not np.all(np.isfinite(self.L)):
            raise ValueError("field contains non-finite values")
        if np.any(self.L > 1e-12):
            raise ValueError("ln u must be <= 0 everywhere")
        viol = float(np.max(self.L[:-1] - self.L[1:], initial=0.0))
        if viol > MONO_TOL:
            raise ValueError(f"field is non-monotone by {viol:.3e}")
        if pinned_right and self.L[-1] < -1e-6:
            raise ValueError("right boundary is not pinned near u = 1; widen the domain")


def init_field(grid: Grid, smoothing_eps: float, floor: float = TAIL_FLOOR) -> LogField:
    """Smoothed-step initial data L(x) = ln(Phi(x / eps)), clipped at floor.

    eps must lie in [dx/2, 4 dx]: narrower is unresolvable, wider visibly
    biases the O(1) prefactor.  The exact indicator initial condition would
    put L = -inf left of the origin; the smoothing shifts prefactors only.
    """
    if not (0.5 * grid.dx - 1e-12 <= smoothing_eps <= 4.0 * grid.dx + 1e-12):
        raise ValueError(
            f"smoothing_eps must lie in [dx/2, 4*dx] = "
            f"[{0.5 * grid.dx}, {4.0 * grid.dx}], got {smoothing_eps!r}"
        )
    L = log_normal_cdf(grid.xs() / smoothing_eps)
    np.maximum(L, floor, out=L)
    np.minimum(L, 0.0, out=L)
    fld = LogField(L=L, time=0.0, grid=grid)
    fld.validate()
    return fld


def _kernel(s: float) -> np.ndarray:
    """Positive lattice kernel of sum 1 and variance s^2, s in cells."""
    w = max(int(math.ceil(12.0 * s)), 8)
    k = np.arange(-w, w + 1, dtype=float)
    if s >= 1.0:
        K = np.exp(-0.5 * (k / s) ** 2)
    else:
        # discrete heat kernel e^{-s^2} I_|k|(s^2), exact variance where a
        # sampled Gaussian has too little; the factor e^{-s^2} cancels below.
        # I_j(s^2) = sum_m a^(2m+j) / (m! (m+j)!), a = s^2/2 < 1/2: its
        # m-th term is below 4^-m / (m!)^2 of the first, so 12 terms suffice
        a = 0.5 * s * s
        j = np.abs(k)
        term = a ** j / np.array([math.factorial(int(i)) for i in j])
        K = term.copy()
        for m in range(1, 12):
            term *= a * a / (m * (m + j))
            K += term
    return K / K.sum()


def _heat(P: np.ndarray, out: np.ndarray, K: np.ndarray, E: np.ndarray) -> None:
    """Exact lattice heat flow of u = e^L: out <- ln(K * e^P), with u = 1 beyond x_max.

    P is L padded with w = K.size // 2 cells on each side, L[0] on the left
    and 0 on the right; out takes the P.size - 2w results, and E is scratch
    of P.size."""
    n, w = out.size, K.size // 2
    # searchsorted as a method: np.searchsorted's wrapper costs about a
    # microsecond a call, some percent of a step on a grid of 1,500 points
    i1 = int(P[w: w + n].searchsorted(-1.0))
    # log-sum-exp in blocks of outputs that share one shift: the largest
    # window maximum in the block (window maxima are right ends, since L
    # is nondecreasing), at most _SPAN above every center in the block
    m = P[2 * w: i1 + 2 * w]
    b0 = 0
    while b0 < i1:
        b1 = max(b0 + 1, int(m.searchsorted(P[b0 + w] + _SPAN, "right")))
        shift = m[b1 - 1]
        e = np.subtract(P[b0: b1 + 2 * w], shift, out=E[: b1 - b0 + 2 * w])
        np.exp(e, out=e)
        np.log(np.correlate(e, K, "valid"), out=out[b0:b1])
        out[b0:b1] += shift
        b0 = b1
    if i1 < n:
        # near u = 1 convolve u - 1, which keeps its relative precision
        e = np.expm1(P[i1:], out=E[: P.size - i1])
        np.log1p(np.correlate(e, K, "valid"), out=out[i1:])
    np.minimum(out, 0.0, out=out)


def _react(L: np.ndarray, h: float, E: np.ndarray) -> None:
    """Exact logistic flow du/dt = u^2 - u over time h, in place; E is
    scratch of at least L.size."""
    a = math.expm1(h)
    # expm1(L) is -1 to machine precision below L = -40: a plain shift there
    i0 = int(L.searchsorted(-40.0))
    L[:i0] -= math.log1p(a)
    e = np.expm1(L[i0:], out=E[: L.size - i0])
    e *= -a
    np.log1p(e, out=e)
    L[i0:] -= e


def advance(fld: LogField, t_end: float, sigma2: float) -> LogField:
    """The field at t_end, in ceil((t_end - fld.time) / dt) equal Strang steps
    on its own grid; fld itself is left as it is."""
    amount = t_end - fld.time
    if amount < 0.0:
        raise ValueError("cannot advance backwards")
    fld.validate(pinned_right=False)
    grid = fld.grid
    worst = fld.max_violation
    n = max(1, math.ceil(amount / grid.dt - 1e-9)) if amount > 0.0 else 0
    if not n:
        return LogField(L=fld.L.copy(), time=t_end, grid=grid, max_violation=worst,
                        steps=fld.steps)
    h = amount / n
    K = _kernel(math.sqrt(sigma2 * h) / grid.dx)
    # two padded fields that swap roles each step (module notes), the
    # heat and reaction scratch, and the differences of the step check
    size, w = fld.L.size, K.size // 2
    src, dst = np.zeros(size + 2 * w), np.zeros(size + 2 * w)
    E = np.empty(size + 2 * w)
    d = np.empty(size - 1)
    L = src[w: w + size]
    L[:] = fld.L
    # R(h/2) H(h) R(h/2) per step; adjacent reaction half-steps fuse
    _react(L, 0.5 * h, E)
    for i in range(n):
        src[:w] = L[0]
        L = dst[w: w + size]
        _heat(src, L, K, E)
        _react(L, h if i < n - 1 else 0.5 * h, E)
        np.subtract(L[:-1], L[1:], out=d)
        viol = float(d.max(initial=0.0))
        if not (viol <= MONO_TOL and L[0] > -math.inf):
            if not np.all(np.isfinite(L)):
                raise SolverInstabilityError("non-finite values after a step")
            raise SolverInstabilityError(
                f"monotonicity violated by {viol:.3e} (tolerance {MONO_TOL:g})"
            )
        worst = max(worst, viol)
        src, dst = dst, src
    return LogField(L=L.copy(), time=t_end, grid=grid, max_violation=worst,
                    steps=fld.steps + n)


# -- measurements ------------------------------------------------------------


def front_position(fld: LogField) -> float:
    """x where L crosses ln(1/2), linearly interpolated; off the grid, DomainOverflowError."""
    L = fld.L
    if L[0] > _LN_HALF or L[-1] < _LN_HALF:
        raise DomainOverflowError("field does not bracket the half level")
    i = int(np.searchsorted(L, _LN_HALF))
    if i == 0:
        return float(fld.grid.x_min)
    lo, hi = L[i - 1], L[i]
    frac = 0.0 if hi == lo else (_LN_HALF - lo) / (hi - lo)
    return float(fld.grid.x_min + fld.grid.dx * (i - 1 + frac))


def renewal_quadrature(fld: LogField, x: float, tau: float, params: ModelParams) -> float:
    """log of exp(-tau) * E[u(x - G, fld.time)] with G ~ N(0, sigma2 * tau).

    Trapezoid quadrature on the field's own lattice, carried out in log
    space.  Serves both the renewal inequality check and as the independent
    reference for the scenario estimator.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    sig2t = params.sigma2 * tau
    half = 12.0 * math.sqrt(sig2t)
    dy = fld.grid.dx
    n = int(math.ceil(2.0 * half / dy)) + 1
    y = -half + dy * np.arange(n)
    log_gauss = -0.5 * y * y / sig2t - 0.5 * math.log(2.0 * math.pi * sig2t)
    vals = log_gauss + fld.log_u(x - y)
    top = float(vals.max())
    return -tau + top + math.log(float(np.exp(vals - top).sum())) + math.log(dy)


# -- front trace and tail series ---------------------------------------------


@dataclass
class FrontTrace:
    """Sampled half-level positions with an affine + log fit."""

    times: np.ndarray
    positions: np.ndarray
    fitted_speed: float | None = None
    log_coeff: float | None = None

    def position_at(self, t: float) -> float:
        if not (self.times[0] <= t <= self.times[-1]):
            raise ValueError(f"t={t!r} outside sampled range")
        return float(np.interp(t, self.times, self.positions))

    def fit_window(self, t_lo: float, t_hi: float) -> tuple[float, float, float]:
        """Least squares of position against {t, ln t, 1} on [t_lo, t_hi]."""
        sel = (self.times >= t_lo) & (self.times <= t_hi) & (self.times > 0.0)
        t = self.times[sel]
        if t.size < 8:
            raise ValueError("need at least 8 front samples in the window")
        beta, _, _ = _fit_t_log_t(t, self.positions[sel])
        return float(beta[0]), float(beta[1]), float(beta[2])


@dataclass
class TailSeries:
    """ln u sampled along the ray x = alpha * sqrt(2 sigma2) * t."""

    alpha: float
    times: np.ndarray
    log_u: np.ndarray
    x_probe: np.ndarray


@dataclass(frozen=True)
class TailFit:
    """Coefficients of -ln u ~ a*t + b*ln t + c with standard errors."""

    a: float
    b: float
    c: float
    se_a: float
    se_b: float
    se_c: float
    residual_norm: float


def fit_tail_series(times: Sequence[float], log_u: Sequence[float]) -> TailFit:
    """Least-squares fit of -ln u against {t, ln t, 1}: ln u sampled at times."""
    t = np.asarray(times, dtype=float)
    y = -np.asarray(log_u, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(t > 0.0) and np.all(np.isfinite(y))):
        raise ValueError("every sample time must be finite and positive, every ln u finite")
    if t.size < 5:
        raise ValueError(f"need at least 5 samples, got {t.size}")
    if float(np.max(t)) < 4.0 * float(np.min(t)) - 1e-12:
        raise ValueError("samples must span at least a factor 4 in t")
    beta, se, rss = _fit_t_log_t(t, y)
    a, b, c = (float(v) for v in beta)
    se_a, se_b, se_c = (float(v) for v in se)
    return TailFit(a=a, b=b, c=c, se_a=se_a, se_b=se_b, se_c=se_c, residual_norm=math.sqrt(rss))


def _fit_t_log_t(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares of y against {t, ln t, 1}: coefficients, their standard
    errors and the residual sum of squares.  Callers supply more than three
    samples."""
    X = np.column_stack([t, np.log(t), np.ones_like(t)])
    beta, _, rank, sv = np.linalg.lstsq(X, y, rcond=None)
    if rank < 3 or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError("{t, ln t, 1} design matrix is rank deficient")
    resid = y - X @ beta
    rss = float(resid @ resid)
    cov = rss / (t.size - 3) * np.linalg.inv(X.T @ X)
    return beta, np.sqrt(np.maximum(np.diag(cov), 0.0)), rss


# -- full solve ---------------------------------------------------------------


@dataclass
class SolveResult:
    front: FrontTrace | None
    tails: list[TailSeries]
    snapshots: dict[float, LogField]
    grid: Grid
    smoothing_eps: float
    steps: int  # splitting steps taken
    max_violation: float  # worst monotonicity defect seen (at most MONO_TOL)

    def tail_for(self, alpha: float) -> TailSeries:
        for series in self.tails:
            if series.alpha == alpha:
                return series
        raise KeyError(f"no tail series for alpha={alpha!r}")


def solve(
    params: ModelParams,
    t_final: float,
    probes: Sequence[tuple[float, float]] = (),
    *,
    dx: float = 0.05,
    dt: float | None = None,
    smoothing_eps: float | None = None,
    snapshot_times: Sequence[float] = (),
    track_front: bool = True,
    front_samples: int = 400,
    x_min: float | None = None,
    x_max: float | None = None,
) -> SolveResult:
    """Evolve from the smoothed step to t_final, recording probes on the way.

    probes are (alpha, t) pairs; each records ln u at x = alpha*sqrt(2
    sigma2)*t by linear interpolation of L.  The domain is auto-sized by
    what is read (module notes): every probe stays at least 20 sigma
    sqrt(t) above the left edge, a front-only solve starts at -10 sigma,
    and x_max sits 20 sigma beyond sqrt(2 sigma2) t_final.  The x bounds
    can be overridden, at which point the probe margin is checked and
    DomainOverflowError raised if violated; x_min is snapped down to the
    dx lattice through x = 0 either way.  dt is the splitting step:
    each interval between consecutive probe, snapshot and front-sample times
    is split into ceil(interval / dt) equal steps.  The tails come in
    ascending alpha, each in ascending t, whatever the order of the probes.
    """
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be nonnegative, got {t_final!r}")
    crit = params.critical_velocity
    sigma = params.sigma
    # the probes as columns, in tail order: ascending alpha, then ascending t
    pairs = sorted((float(a), float(tp)) for a, tp in probes)
    pa, pt = np.array(pairs, dtype=float).reshape(-1, 2).T
    snapshot_times = [float(ts) for ts in snapshot_times]
    for a in pa.tolist():
        if not (math.isfinite(a) and a < 1.0):
            raise ValueError(f"probe alpha must be finite and < 1, got {a!r}")
    for what, ts in [*(("probe", tp) for tp in pt.tolist()),
                     *(("snapshot", ts) for ts in snapshot_times)]:
        if not 0.0 <= ts <= t_final + 1e-12:
            raise ValueError(f"{what} time {ts!r} outside [0, {t_final!r}]")

    px = pa * crit * pt  # each probe's point, as checked, read and written
    v_min = float(pa.min(initial=0.0)) * crit
    root_t = math.sqrt(t_final) if t_final > 0.0 else 0.0
    left_margin = 20.0 * sigma * root_t if pairs or snapshot_times else 0.0
    lo = x_min if x_min is not None else v_min * t_final - left_margin - 10.0 * sigma
    hi = x_max if x_max is not None else crit * t_final + 20.0 * sigma
    grid = Grid.build(lo, hi, dx, DEFAULT_DT if dt is None else dt)
    for a, tp, xp in zip(pa.tolist(), pt.tolist(), px.tolist()):
        if xp - 20.0 * sigma * math.sqrt(tp) < grid.x_min - 1e-9:
            raise DomainOverflowError(
                f"probe (alpha={a}, t={tp}) closer than 20*sigma*sqrt(t) to x_min"
            )
        if xp > grid.x_max + 1e-9:
            raise DomainOverflowError(f"probe (alpha={a}, t={tp}) beyond x_max")

    eps = smoothing_eps if smoothing_eps is not None else dx
    floor = TAIL_FLOOR
    timed = pt > 0.0
    if timed.any():
        # 40 e-folds of room under every probe's no-branch bound (module notes)
        tp = pt[timed]
        bound = float(np.min(-tp + log_normal_cdf(pa[timed] * SQRT2 * np.sqrt(tp))))
        floor = min(TAIL_FLOOR, bound - t_final - 40.0)
    fld = init_field(grid, eps, floor)

    front_set: set[float] = set()
    if track_front:
        front_set = {float(ts) for ts in np.linspace(0.0, t_final, front_samples + 1)}
    probe_set, snap_set = set(pt.tolist()), set(snapshot_times)

    events = sorted(front_set | probe_set | snap_set | {t_final})
    front_x: list[float] = []
    log_u = np.empty(pt.size)
    snapshots: dict[float, LogField] = {}

    for T in events:
        if T > fld.time:
            fld = advance(fld, T, params.sigma2)
        if T in front_set:
            front_x.append(front_position(fld))
        if T in probe_set:
            at = pt == T
            log_u[at] = fld.log_u(px[at])
        if T in snap_set:
            snapshots[T] = fld

    front = None
    if track_front:
        front = FrontTrace(times=np.array(sorted(front_set)), positions=np.asarray(front_x))
        window_lo = max(1.0, 0.1 * t_final)
        if np.count_nonzero(front.times >= window_lo) >= 8:
            front.fitted_speed, front.log_coeff, _ = front.fit_window(window_lo, t_final)

    tails = [TailSeries(alpha=a, times=pt[at], log_u=log_u[at], x_probe=px[at])
             for a in dict.fromkeys(pa.tolist()) for at in [pa == a]]
    return SolveResult(
        front=front, tails=tails, snapshots=snapshots, grid=grid,
        smoothing_eps=eps, steps=fld.steps, max_violation=fld.max_violation,
    )
