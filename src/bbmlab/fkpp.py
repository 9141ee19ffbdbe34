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
  * A solve steps one lattice of times t_k = k h, h = max(dt, dx^2 / sigma2),
    so every step spans at least a cell, sigma sqrt(h) >= dx.  Adjacent
    half-steps of R fuse, so the trajectory carries a pending R(h/2), and
    every read branches off it on a copy.  A read at T = k h (to 1e-12 T,
    the rounding of decimal times) finishes R(h/2).  Any other T takes the
    field at the last lattice time at least dx^2 / sigma2 before T to T in
    one Strang step, fused with R(h/2); below dx^2 / sigma2 it is the exact
    heat flow of the smoothed start, ln Phi(x / sqrt(eps^2 + sigma2 T))
    clipped at the floor (below), then R(T).  No read changes the
    trajectory, so a read depends on its own time alone.  Front samples are
    lattice times; advance is one read from a given field.
  * H convolves u with the Gaussian of variance sigma2 h sampled on the
    lattice out to max(12 s, 8) cells each side, s = sigma sqrt(h) / dx >= 1:
    its variance, which every step adds, is exact to 2.2e-7, and its every
    weight lies above e^-85 / (2.6 s).  Where L < -1 this is a log-sum-exp,
    one exp per grid point, in blocks that share one shift, cut from the
    right.  The first block ends at the L = -1 crossing, each next one where
    the last began; a block's shift is its last window's maximum (its right
    end), and it reaches left while its center values lie within _SPAN = 500
    e-folds of that shift.  So no shift depends on where the array starts,
    and each output sums its own center term at no less than K_0 e^-500, or,
    in a block of one where its window is steeper, K_w e^0: none underflows.
  * Where L >= -1, H convolves u - 1 = expm1(L) instead.  u = 1 is an
    unstable state of R, which grows the absolute rounding of a log-space
    sum like e^t, into monotonicity defects or a slide of the leading edge
    off u = 1.  Summing u - 1 rather than 1 - u changes no bit but the sign
    of a zero (rounding is symmetric in sign), which the clip np.minimum(out,
    0.0) writes as +0.0.  Both sums are np.correlate with the symmetric
    kernel, np.convolve's own computation.
  * A probe's path drifts |alpha| sqrt(2 sigma2) h per step, and solve
    refuses one that drifts more than half the kernel's reach, 6 sigma
    sqrt(h), in its widest step, branch steps included: |alpha| > 30 at h =
    0.02 (the probe sandwich failed by 1.8 to 3.5 e-folds at 50).
  * A run of steps covers a window of N cells of the grid.  Beyond them u is
    held at its value at the first of them on the left and at 1 on the
    right, and that is where the run leaves the cells outside.  It swaps two
    fields of N + 2w points, w the kernel's half-width, whose pads carry that
    rule: the right ones stay at L = 0, and the left ones are refilled with
    L[0] before each H, because R moves L[0].  Probes and quadrature nodes
    read ln u through LogField.log_u, linear in L, which refuses any x off
    the grid.
  * Lattice point k is the float k * dx in every grid (a Grid holds the
    integer start of its first point), and so is the initial data there.
    With heat blocks cut from the right and a probe solve stepped from its
    grid's left edge (below), widening x_min or x_max moves no probe's bits.
  * The grid is sized by what is read.  With probes x_min is v_min t -
    8 sigma sqrt(t) - 10 sigma, v_min the lowest probe velocity or 0, and
    with snapshots, which are read anywhere, v_min t - 20 sigma sqrt(t) -
    10 sigma; a front-only solve reads nothing left of its front and starts
    at -10 sigma.  x_max is sqrt(2 sigma2) t + 20 sigma: 1 - u decays like
    e^{-sqrt 2 (x - front)/sigma} ahead of the front, so u = 1 to rounding
    at x_max (ln u = -1.4e-16 there at t = 80, dx = 0.1) and doubling that
    margin moves no probe by 1e-12.  Explicit bounds only widen this grid,
    so every probe (alpha, t_p <= t) lies on it by construction, at least
    8 sigma sqrt(t_p) inside: alpha sqrt(2 sigma2) t_p >= v_min t, alpha < 1.
  * Each run of lattice steps, and each branch, steps only the cells that a
    later read depends on.  For one that ends at time T the window is
    [x_lo, x_hi] clipped to the grid, in lattice coordinates, with x_hi =
    sqrt(2 sigma2) T + 20 sigma + 4 sigma sqrt(t_final), and x_lo the grid's
    left edge, but front(last front sample) - 20 sigma in a front-only
    solve.  A snapshot reads the whole grid, so every run to a lattice time
    at or before the last snapshot's, and every branch off one, steps every
    cell.  Behind the front a perturbation decays toward it like e^{-sqrt 2
    y / sigma}, and ahead of it the pulled front feels its leading edge out
    to several sigma sqrt(t).  These margins are measured, not bounds: the
    fronts to t = 80, 200 and 400 (dx 0.1, 401 samples) keep every bit of a
    whole-grid solve in 0.52, 0.31 and 0.21 of its point-steps, where 20
    sigma + 3 sigma sqrt(t_final) moved 2 positions at t = 400 by 1.1e-13;
    the tests compare windowed and whole-grid solves bit for bit.
  * Each field is checked once, when it is built: a LogField holds one
    finite L <= 0 per grid point, nondecreasing but for rounding defects up
    to MONO_TOL, which it keeps and folds into max_violation.  Every read is
    checked, not each step, and a refusal there is a SolverInstabilityError.
    A NaN lasts to the reads after it.  A -inf would not, but the scheme
    makes none: H's sums never underflow (above) and R subtracts finite
    amounts; H clips at L = 0 and R only lowers L, so +inf cannot arise.
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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import SQRT2, ModelParams
from .varopt import log_normal_cdf

_LN_HALF = math.log(0.5)

DEFAULT_DT = 0.02  # splitting step, unless a cell's dx^2 / sigma2 is longer
MONO_TOL = 1e-9  # a monotonicity defect above this aborts the run
_SPAN = 500.0  # e-folds from a heat block's shift down to its lowest center value
TAIL_FLOOR = -700.0  # highest clip of the initial ln u (module notes)
MAX_POINTS = 2**22  # largest grid (32 MiB per field), refused before anything is allocated
MAX_WORK = 2**37  # largest nominal point-tap-steps of a solve, refused before anything is allocated


class SolverInstabilityError(RuntimeError):
    """The time stepper produced non-finite or non-monotone output."""


class DomainOverflowError(ValueError):
    """A read off the grid: an x given to log_u, or a front the field does not bracket."""


@dataclass(frozen=True)
class Grid:
    """n_points of the dx lattice from start * dx, and dt, the splitting step asked for:
    a solve steps max(dt, dx^2 / sigma2) (module notes)."""

    start: int
    dx: float
    n_points: int
    dt: float

    def __post_init__(self) -> None:
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise ValueError(f"dx must be positive, got {self.dx!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not 8 <= self.n_points <= MAX_POINTS:
            raise ValueError(f"grid needs 8 to {MAX_POINTS} points, got {self.n_points}")
        if not self.start < 0 < self.start + self.n_points - 1:
            raise ValueError(f"grid must straddle the origin, got [{self.x_min}, {self.x_max}]")

    @property
    def x_min(self) -> float:
        return self.start * self.dx

    @property
    def x_max(self) -> float:
        return (self.start + self.n_points - 1) * self.dx

    def xs(self) -> np.ndarray:
        return self.dx * np.arange(self.start, self.start + self.n_points)

    @classmethod
    def build(cls, x_min: float, x_max: float, dx: float, dt: float) -> "Grid":
        """Grid on the dx lattice: x_min snapped down to it, x_max up."""
        if not (dx > 0.0 and math.isfinite(dx)):
            raise ValueError(f"dx must be positive, got {dx!r}")
        start = math.floor(x_min / dx + 1e-9) if math.isfinite(x_min / dx) else math.inf
        cells = (x_max - start * dx) / dx - 1e-9  # not finite if a bound is off the floats
        if not math.isfinite(cells):
            raise ValueError(f"grid [{x_min!r}, {x_max!r}] spans no finite count of dx={dx!r}")
        if x_min < 0.0 <= start:  # the snap down would put x_min at the origin
            raise ValueError(f"dx={dx!r} is wider than the grid's {-x_min!r} left of 0: lower dx")
        return cls(start=start, dx=dx, n_points=max(7, math.ceil(cells)) + 1, dt=dt)


@dataclass
class LogField:
    """ln u sampled on a grid at one instant; checked once, when built (module notes)."""

    L: np.ndarray
    time: float
    grid: Grid
    max_violation: float = 0.0  # worst monotonicity defect of this field and those it came from
    steps: int = 0  # splitting steps taken so far

    def __post_init__(self) -> None:
        if self.L.shape != (self.grid.n_points,):
            raise ValueError("field length does not match grid")
        if not np.all(np.isfinite(self.L)):
            raise ValueError("field contains non-finite values")
        if np.any(self.L > 1e-12):
            raise ValueError("ln u must be <= 0 everywhere")
        viol = float(np.max(self.L[:-1] - self.L[1:], initial=0.0))
        if viol > MONO_TOL:
            raise ValueError(f"field is non-monotone by {viol:.3e}")
        self.max_violation = max(self.max_violation, viol)

    def log_u(self, x: float | np.ndarray) -> float | np.ndarray:
        """ln u at x (a number or an array), interpolated in L, not in u (it underflows)."""
        g = self.grid
        lo, hi = float(np.min(x)), float(np.max(x))
        if not (g.x_min <= lo and hi <= g.x_max):
            raise DomainOverflowError(f"x in [{lo!r}, {hi!r}] leaves grid [{g.x_min}, {g.x_max}]")
        return np.interp(x, g.xs(), self.L)


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
    L = _smoothed_step(grid, smoothing_eps, floor)
    fld = LogField(L=L, time=0.0, grid=grid)
    if L[-1] < -1e-6:
        raise ValueError("right boundary is not pinned near u = 1; widen the domain")
    return fld


def _smoothed_step(grid: Grid, width: float, floor: float) -> np.ndarray:
    """ln Phi(x / width) on the grid, clipped at floor and at 0."""
    L = np.maximum(log_normal_cdf(grid.xs() / width), floor)
    return np.minimum(L, 0.0, out=L)


def _half_width(s: float) -> int:
    """Half-width in cells of the kernel of standard deviation s cells."""
    return max(math.ceil(12.0 * s), 8)


def _kernel(s: float) -> np.ndarray:
    """The Gaussian of standard deviation s >= 1 cells sampled on the lattice, of sum 1."""
    w = _half_width(s)
    K = np.exp(-0.5 * (np.arange(-w, w + 1, dtype=float) / s) ** 2)
    K /= K.sum()
    return K


def _heat(P: np.ndarray, out: np.ndarray, K: np.ndarray, E: np.ndarray) -> None:
    """Exact lattice heat flow of u = e^L: out <- ln(K * e^P), with u = 1 beyond x_max.

    P is L padded with w = K.size // 2 cells on each side, L[0] on the left
    and 0 on the right; out takes the P.size - 2w results, and E is scratch
    of P.size."""
    n, w = out.size, K.size // 2
    # searchsorted as a method: np.searchsorted's wrapper costs about a
    # microsecond a call, some percent of a step on a grid of 1,500 points
    centers = P[w: w + n]
    i1 = int(centers.searchsorted(-1.0))
    # log-sum-exp in blocks cut from the right, each shifted by its last
    # window's right end and reaching left while centers lie within _SPAN
    b1 = i1
    while b1 > 0:
        shift = P[b1 - 1 + 2 * w]
        b0 = min(b1 - 1, int(centers.searchsorted(shift - _SPAN)))
        e = np.subtract(P[b0: b1 + 2 * w], shift, out=E[: b1 - b0 + 2 * w])
        np.exp(e, out=e)
        np.log(np.correlate(e, K, "valid"), out=out[b0:b1])
        out[b0:b1] += shift
        b1 = b0
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


def _lattice(amount: float, dt: float, cell: float) -> tuple[float, int, float]:
    """The step h = max(dt, cell), cell = dx^2 / sigma2, and for a read amount after
    the start the lattice index j it branches off and its step from there (module
    notes): 0 on the lattice, else at least cell, and amount where j = -1."""
    h = max(dt, cell)
    if amount == 0.0:
        return h, 0, 0.0
    if amount < cell:
        return h, -1, amount
    k = round(amount / h)
    if abs(amount - k * h) <= 1e-12 * amount:
        return h, k, 0.0
    j = math.floor((amount - cell) / h)
    return h, j, amount - j * h


def _strang(field: np.ndarray, lo: int, hi: int | None, K: np.ndarray | None, h: float,
            n: int, first: float, last: float) -> np.ndarray:
    """R(first) H(h) R(h) ... H(h) R(last), n >= 0 heat passes of the kernel K
    (None if n = 0), of the window field[lo:hi] alone, as a new array of field's
    size: the cells left of the window end at the value of its first cell and
    those right of it at L = 0, the rules the steps apply beyond its ends."""
    window = field[lo:hi]
    size, w = window.size, K.size // 2 if n else 0
    # two padded fields that swap roles each step (module notes), and scratch
    src, dst = np.zeros(size + 2 * w), np.zeros(size + 2 * w)
    E = np.empty(size + 2 * w)
    L = src[w: w + size]
    L[:] = window
    _react(L, first, E)
    for i in range(n):
        if i:
            _react(L, h, E)
        src[:w] = L[0]
        L = dst[w: w + size]
        _heat(src, L, K, E)
        src, dst = dst, src
    if last:
        _react(L, last, E)
    out = np.zeros(field.size)
    out[lo:lo + size] = L
    out[:lo] = L[0]
    return out


def _branch(start: LogField, L: np.ndarray, time: float, steps: int) -> LogField:
    """The read L at time, steps after start; a refused LogField is a SolverInstabilityError."""
    try:
        return replace(start, L=L, time=time, steps=start.steps + steps)
    except ValueError as err:
        raise SolverInstabilityError(f"advance to t={time!r}: {err}") from err


def advance(fld: LogField, t_end: float, sigma2: float, lo: int = 0,
            hi: int | None = None) -> LogField:
    """The field at t_end, read off the lattice of steps h after fld.time as solve
    reads its start (module notes), stepping the window fld.L[lo:hi] alone
    (_strang); fld itself is left as it is.  A t_end less than dx^2 / sigma2
    after fld.time is refused.  Only the result is checked."""
    amount = t_end - fld.time
    if amount < 0.0:
        raise ValueError("cannot advance backwards")
    cell = (fld.grid.dx / math.sqrt(sigma2)) * (fld.grid.dx / math.sqrt(sigma2))
    h, j, tau = _lattice(amount, fld.grid.dt, cell)
    if j < 0:
        raise ValueError(f"cannot advance by {amount!r}: no step is narrower than a cell")
    pending = 0.5 * h if j else 0.0
    L = _strang(fld.L, lo, hi, _kernel(math.sqrt(h / cell)), h, j, pending, 0.0)
    K = _kernel(math.sqrt(tau / cell)) if tau else None
    L = _strang(L, lo, hi, K, tau, int(tau > 0.0), pending + 0.5 * tau, 0.5 * tau)
    return _branch(fld, L, t_end, j + (tau > 0.0))


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
    return float(fld.grid.dx * (fld.grid.start + i - 1 + frac))


def renewal_quadrature(fld: LogField, x: float, tau: float, params: ModelParams) -> float:
    """log of exp(-tau) * E[u(x - G, fld.time)] with G ~ N(0, sigma2 * tau).

    Trapezoid quadrature on the field's own lattice, carried out in log
    space, so the Gaussian must be at least a cell wide.  Serves both the
    renewal inequality check and as the independent reference for the
    scenario estimator.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    sig2t = params.sigma2 * tau
    half = 12.0 * math.sqrt(sig2t)
    dy = fld.grid.dx
    if math.sqrt(sig2t) < dy:
        raise ValueError(f"tau={tau!r} gives a Gaussian of width {math.sqrt(sig2t):.3g}, "
                         f"narrower than a cell of dx={dy!r}")
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
    point_steps: int  # cells stepped, summed over the steps
    max_violation: float  # worst monotonicity defect of the fields read (at most MONO_TOL)

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
    sigma2)*t by linear interpolation of L.  The grid is sized by what is
    read (module notes), so every probe lies on it; x_min and x_max only
    widen it, and x_min is snapped down to the dx lattice through x = 0.
    It steps one lattice of times k h, h = max(dt, dx^2 / sigma2), and every
    probe, snapshot and front sample branches off it (module notes); front
    samples are the lattice times at or before front_samples + 1 even ones
    from 0 to t_final.  point_steps counts the cells stepped.  A solve of
    more than MAX_WORK grid points x kernel taps of its widest step x steps
    (the lattice's plus one per read off it), or with a probe that drifts
    more than 6 sigma sqrt(h) in a step of h, is refused with ValueError
    before anything is allocated.  The tails come in ascending alpha, each
    in ascending t, whatever the order of the probes.
    """
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be nonnegative, got {t_final!r}")
    if track_front and front_samples < 1:
        raise ValueError(f"front_samples must be at least 1, got {front_samples!r}")
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
        if not 0.0 <= ts <= t_final:
            raise ValueError(f"{what} time {ts!r} outside [0, {t_final!r}]")
    for a, tp in pairs:
        # the probe's point, and z^2 / 2 of its no-branch bound (module notes)
        z = a * SQRT2 * math.sqrt(tp)
        if not (math.isfinite(a * crit * tp) and math.isfinite(0.5 * z * z)):
            raise ValueError(f"probe (alpha={a!r}, t={tp!r}) has a point or a no-branch "
                             f"bound beyond the floats")

    px = pa * crit * pt  # each probe's point, as read and written
    a_min = float(pa.min(initial=0.0))  # the deepest probe's alpha, or 0
    v_min = a_min * crit
    root_t = math.sqrt(t_final)
    # the grid the reads need (module notes); x_min and x_max only widen it
    left_margin = (20.0 if snapshot_times else 8.0 if pairs else 0.0) * sigma * root_t
    lo = v_min * t_final - left_margin - 10.0 * sigma
    hi = crit * t_final + 20.0 * sigma
    grid = Grid.build(lo if x_min is None else min(lo, x_min),
                      hi if x_max is None else max(hi, x_max),
                      dx, DEFAULT_DT if dt is None else dt)

    # each read's lattice index and branch step (module notes); front samples add none
    sigma2, dx, cell = params.sigma2, grid.dx, (grid.dx / sigma) * (grid.dx / sigma)
    reads = {T: _lattice(T, grid.dt, cell)[1:] for T in {*pt.tolist(), *snapshot_times, t_final}}
    h, k_front, tau = _lattice(t_final, grid.dt, cell)
    k_front = math.floor(t_final / h) if tau else k_front  # the last lattice time <= t_final
    n_lattice = max(k_front if track_front else 0, *(j for j, _ in reads.values()))
    steps = n_lattice + sum(tau > 0.0 for _, tau in reads.values())
    widest = max([h] * (n_lattice > 0) + [tau for _, tau in reads.values()])
    work = grid.n_points * (2 * _half_width(math.sqrt(widest / cell)) + 1) * steps
    if work > MAX_WORK:
        raise ValueError(
            f"solve needs {work:.3g} point-tap-steps (grid points x kernel taps x steps), "
            f"above MAX_WORK = 2^37: raise dx or dt, or lower t")
    if -a_min * math.sqrt(2.0 * widest) > 6.0:
        # the kernel reaches 12 sigma sqrt(h): a probe's path may drift half that per step
        raise ValueError(
            f"probe alpha={a_min!r} drifts {-a_min * SQRT2 * widest:.3g} sigma in a step of "
            f"h={widest:.3g}, above 6 sigma sqrt(h) = {6.0 * math.sqrt(widest):.3g} sigma: "
            f"lower dt, and dx, to steps of at most 18 / alpha^2 = {18.0 / (a_min * a_min):.3g}")

    eps = smoothing_eps if smoothing_eps is not None else dx
    floor = TAIL_FLOOR
    timed = pt > 0.0
    if timed.any():
        # 40 e-folds of room under every probe's no-branch bound (module notes)
        tp = pt[timed]
        bound = float(np.min(-tp + log_normal_cdf(pa[timed] * SQRT2 * np.sqrt(tp))))
        floor = min(TAIL_FLOOR, bound - t_final - 40.0)
    start = init_field(grid, eps, floor)

    front_k: dict[float, int] = {}  # each front sample's lattice index
    if track_front:
        m = max(1, min(front_samples, k_front))
        front_k = {(t_final if k == k_front and not tau else k * h): k
                   for k in (np.arange(m + 1) * k_front // m).tolist()}
        reads.update({T: (k, 0.0) for T, k in front_k.items()})
    probe_set, snap_set = set(pt.tolist()), set(snapshot_times)
    front_x, log_u = [], np.empty(pt.size)
    snapshots: dict[float, LogField] = {}

    # each run of steps and each branch covers the cells its reads depend on (module notes)
    last_snapshot = max((reads[T][0] for T in snapshot_times), default=-1)
    right_margin = 20.0 * sigma + 4.0 * sigma * root_t
    K = _kernel(math.sqrt(h / cell)) if n_lattice else None
    L, k, pending = start.L, 0, 0.0
    point_steps, worst = 0, start.max_violation
    for T, (j, tau) in sorted(reads.items(), key=lambda read: read[1]):
        if j < 0:
            # before the first lattice time a cell from T: the exact heat flow, then R(T)
            out = _smoothed_step(grid, math.hypot(eps, sigma * math.sqrt(T)), floor)
            _react(out, T, np.empty(out.size))
            point_steps += grid.n_points
        else:
            whole = j <= last_snapshot
            lo = 0 if whole or pairs or not front_x else max(
                0, math.floor((front_x[-1] - 20.0 * sigma) / dx) - grid.start)
            hi = lambda t: grid.n_points if whole else min(
                grid.n_points, math.ceil((crit * t + right_margin) / dx) + 1 - grid.start)
            if j > k:
                L = _strang(L, lo, hi(j * h), K, h, j - k, pending + 0.5 * h, 0.0)
                point_steps += (hi(j * h) - lo) * (j - k)
                k, pending = j, 0.5 * h
            K_T = _kernel(math.sqrt(tau / cell)) if tau else None
            out = _strang(L, lo, hi(T), K_T, tau, int(tau > 0.0), pending + 0.5 * tau, 0.5 * tau)
            point_steps += (hi(T) - lo) * (tau > 0.0)
        fld = _branch(start, out, T, k + (tau > 0.0))
        worst = max(worst, fld.max_violation)
        if T in front_k:
            front_x.append(front_position(fld))
        if T in probe_set:
            at = pt == T
            log_u[at] = fld.log_u(px[at])
        if T in snap_set:
            snapshots[T] = fld

    front = None
    if track_front:
        front = FrontTrace(times=np.array(sorted(front_k)), positions=np.asarray(front_x))
        window_lo = max(1.0, 0.1 * t_final)
        if np.count_nonzero(front.times >= window_lo) >= 8:
            front.fitted_speed, front.log_coeff, _ = front.fit_window(window_lo, t_final)

    tails = [TailSeries(alpha=a, times=pt[at], log_u=log_u[at], x_probe=px[at])
             for a in dict.fromkeys(pa.tolist()) for at in [pa == a]]
    return SolveResult(
        front=front, tails=tails, snapshots=snapshots, grid=grid,
        smoothing_eps=eps, steps=steps, point_steps=point_steps, max_violation=worst,
    )
