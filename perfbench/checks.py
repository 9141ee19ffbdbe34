"""Output checks for the benchmark, against references computed apart from bbmlab.

Every closed form here is written out with `math` and `scipy.special.log_ndtr`;
nothing is taken from `bbmlab.rates` or `bbmlab.varopt`.  The Monte Carlo
estimates are checked against the independent PDE route (`fkpp`), whose
values the caller passes in.

Each check returns a list of failure reasons; an empty list means the output
passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

SQRT2 = math.sqrt(2.0)
RHO = SQRT2 - 1.0                    # kink of psi at alpha = -RHO
FRONT_LOG_COEFF = -3.0 / (2.0 * SQRT2)

SLOPE_BAND = 0.05         # fit slopes against psi, as the program's own `fit --check`
TAU_FRACTION_BAND = 0.02  # absolute, on tau*/t, as in criterion 2
FRONT_SPEED_BAND = 0.01   # criterion 4a
FRONT_LOG_BAND = 0.25     # criterion 4b
FRONT_OFFSET_BAND = 2.5   # offset from the log-corrected centering
# Monte Carlo against the PDE.  Criterion 6 uses 3 stderr for one fixed seed;
# the benchmark draws fresh seeds on every run and makes several hundred such
# comparisons per evaluation, where 3 stderr would flag a correct program about
# every other evaluation.  At 4.5 stderr a correct program is flagged with
# probability 7e-6 per comparison, and a 5-stderr shift is still rejected.
MC_BAND = 4.5
SANDWICH_SLACK = 3.0      # stderr allowed outside the closed-form sandwich


def psi(alpha: float) -> float:
    """Piecewise lower-deviation rate: 1 + a^2 below -RHO, 2 RHO (1 - a) up to 1."""
    if alpha < -RHO:
        return 1.0 + alpha * alpha
    return 2.0 * RHO * (1.0 - alpha)


def tau_fraction(alpha: float) -> float:
    """Optimal first-branch time over t: (1 - a)/sqrt 2, or 1 below the kink."""
    return (1.0 - alpha) / SQRT2 if alpha >= -RHO else 1.0


def scenario_tau(alpha: float, t: float, late_branch_fraction: float = 0.95) -> float:
    """No-branch window the CLI's scenario-lb uses by default."""
    return tau_fraction(alpha) * t if alpha >= -RHO else late_branch_fraction * t


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_rate_rows(alphas, rows) -> list[str]:
    """`rate` rows: psi, its regime tag and the (1 - a)/6 bound, in input order."""
    if len(rows) != len(alphas):
        return [f"rate: {len(rows)} rows for {len(alphas)} alphas"]
    out = []
    for a, row in zip(alphas, rows):
        tag = "NO_BRANCH_REGIME" if a < -RHO else "DELAYED_BRANCH_REGIME"
        got = (float(row["alpha"]), float(row["psi"]), row["branch_tag"],
               float(row["chen_lower_bound"]))
        if not (got[0] == a and _rel(got[1], psi(a)) <= 1e-12 and got[2] == tag
                and _rel(got[3], (1.0 - a) / 6.0) <= 1e-12):
            out.append(f"rate: alpha={a!r} row {got} != psi {psi(a)!r}, {tag}")
    return out


def check_tau_rows(alphas, t: float, rows) -> list[str]:
    """`tau-opt` rows: tau*/t and the empirical rate as in criterion 2."""
    if len(rows) != len(alphas):
        return [f"tau-opt: {len(rows)} rows for {len(alphas)} alphas"]
    out = []
    for a, row in zip(alphas, rows):
        frac = float(row["tau_fraction"])
        rate = float(row["empirical_rate"])
        ref = psi(a)
        if abs(frac - tau_fraction(a)) > TAU_FRACTION_BAND:
            out.append(f"tau-opt: alpha={a!r} tau*/t={frac!r} vs {tau_fraction(a)!r}")
        if abs(rate - ref) > max(0.01 * ref, 0.01) or _rel(float(row["phi"]), ref) > 1e-12:
            out.append(f"tau-opt: alpha={a!r} rate {rate!r}, phi {row['phi']} vs psi {ref!r}")
    return out


def probe_sandwich(x: float, t: float, eps: float) -> tuple[float, float]:
    """Bounds on ln u(x, t): the no-branching event below, one lineage above."""
    upper = float(log_ndtr(x / math.sqrt(t + eps * eps)))
    return -t + upper, upper


def check_probes(rows, eps: float) -> list[str]:
    """`fkpp-rate` rows: every ln u inside its closed-form sandwich."""
    out = []
    for row in rows:
        t, x, lu = float(row["t"]), float(row["x_probe"]), float(row["ln_u"])
        lo, hi = probe_sandwich(x, t, eps)
        if not lo <= lu <= hi:
            out.append(f"fkpp-rate: ln u({x:.4g}, {t:g}) = {lu!r} outside [{lo:.6g}, {hi:.6g}]")
    return out


def slope_errors(rows) -> dict[float, float]:
    """Relative error of each fitted slope against psi, by alpha."""
    return {float(r["alpha"]): _rel(float(r["a"]), psi(float(r["alpha"]))) for r in rows}


def check_fit_rows(alphas, rows) -> list[str]:
    """`fit` rows: one per ray, slope within SLOPE_BAND of psi."""
    errs = slope_errors(rows)
    if sorted(errs) != sorted(alphas):
        return [f"fit: rows for alphas {sorted(errs)}, expected {sorted(alphas)}"]
    return [f"fit: alpha={a!r} slope off psi by {e:.2%}"
            for a, e in errs.items() if not e <= SLOPE_BAND]


def check_front(times, positions, speed, log_coeff, t_from: float) -> list[str]:
    """Front fit against sqrt 2 and -3/(2 sqrt 2); offset from the centering."""
    out = []
    if speed is None or not _rel(speed, SQRT2) <= FRONT_SPEED_BAND:
        out.append(f"front: fitted speed {speed!r} vs sqrt 2")
    if log_coeff is None or not _rel(log_coeff, FRONT_LOG_COEFF) <= FRONT_LOG_BAND:
        out.append(f"front: ln t coefficient {log_coeff!r} vs {FRONT_LOG_COEFF!r}")
    t = np.asarray(times, dtype=float)
    sel = t >= t_from
    offset = np.asarray(positions, dtype=float)[sel] - (SQRT2 * t[sel] - 1.5 / SQRT2 * np.log(t[sel]))
    if not (sel.any() and np.all(np.abs(offset) <= FRONT_OFFSET_BAND)):
        worst = float(np.max(np.abs(offset))) if sel.any() else math.nan
        out.append(f"front: offset from the centering reaches {worst:.3g}")
    return out


def pooled(rows) -> tuple[float, float]:
    """Mean of equal-size estimates and its standard error."""
    p = [float(r["p_hat"]) for r in rows]
    se = [float(r["stderr"]) for r in rows]
    return sum(p) / len(p), math.sqrt(sum(s * s for s in se)) / len(se)


def check_estimate(name: str, p: float, se: float, ref: float, lo: float, hi: float) -> list[str]:
    """An estimate against a PDE reference and the closed-form sandwich [lo, hi]."""
    out = []
    if not abs(p - ref) <= MC_BAND * se:
        out.append(f"{name}: p_hat {p:.6g} vs PDE {ref:.6g}, {abs(p - ref) / se:.2f} stderr")
    if not lo - SANDWICH_SLACK * se <= p <= hi + SANDWICH_SLACK * se:
        out.append(f"{name}: p_hat {p:.6g} outside [{lo:.6g}, {hi:.6g}]")
    return out


def naive_sandwich(x: float, t: float) -> tuple[float, float]:
    """e^-t Phi(x/sqrt t) <= P(X_max(t) <= x) <= Phi(x/sqrt t)."""
    hi = math.exp(float(log_ndtr(x / math.sqrt(t))))
    return math.exp(-t) * hi, hi


def scenario_sandwich(thr: float, t: float, tau: float) -> tuple[float, float]:
    """e^-t Phi(thr/sqrt t) <= q <= e^-tau Phi(thr/sqrt t)."""
    phi = math.exp(float(log_ndtr(thr / math.sqrt(t))))
    return math.exp(-t) * phi, math.exp(-tau) * phi


def check_estimate_rows(kind: str, alphas, n_trials: int, rows) -> list[str]:
    """Shape of one `mc-tail` or `scenario-lb` CSV: a finite estimate per alpha."""
    if [float(r["alpha"]) for r in rows] != list(alphas):
        return [f"{kind}: rows for alphas {[r['alpha'] for r in rows]}, expected {list(alphas)}"]
    out = []
    for r in rows:
        p, se = float(r["p_hat"]), float(r["stderr"])
        if not (int(r["n_trials"]) == n_trials and 0.0 <= p <= 1.0 and 0.0 <= se < math.inf):
            out.append(f"{kind}: alpha={r['alpha']} row p_hat={p!r} stderr={se!r}")
    return out
