"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy PDE solves and Monte Carlo batches are module-scoped
fixtures shared across criteria; everything runs single-threaded, in about
25 s on a 2-core x86-64 machine (22-24 s with Python 3.11 and numpy 2.4).

Criterion 4a checks the front speed against the log-corrected centering
sqrt(2) t - (3/(2 sqrt 2)) ln t (`rates.bramson_centering`).  The half-level
front's secant over t in [40, 50] must sit within 1% of the centering's own
secant there, (m(50) - m(40))/10, and the speed term of the {t, ln t, 1} fit
over t in [20, 200] within 1% of sqrt(2).  The ln t term belongs in the
secant reference because at these times it still moves the secant by
-(3/(2 sqrt 2)) ln(50/40)/10 = -0.0237, 1.7% of sqrt(2): a front advancing at
exactly sqrt(2) would fail the check, while a solver that tracks the true
front passes it.  Criterion 4b checks the ln t coefficient itself.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from bbmlab.model import RHO, SQRT2, ModelParams
from bbmlab.rates import (
    bramson_centering,
    chen_lower_bound,
    prefactor_exponent,
    psi,
    scenario_geometry,
)
from bbmlab.varopt import ObjectiveSpec, log_normal_cdf, maximize
from bbmlab import fkpp, mc

P1 = ModelParams(sigma2=1.0)

SEED_MC_PDE = 31415926
SEED_SCENARIO = 777
SEED_LAWS = 909090
SEED_STOPPED = 271828


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- shared heavy artifacts ----------------------------------------------------


@pytest.fixture(scope="module")
def front_trace_200():
    res = fkpp.solve(P1, 200.0, probes=[], dx=0.1, front_samples=400)
    return res.front


@pytest.fixture(scope="module")
def tail_fits_60():
    alphas = [0.5, 0.0, -0.5, -1.8]
    t_list = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    res = fkpp.solve(
        P1, 60.0, probes=[(a, t) for a in alphas for t in t_list],
        dx=0.05, track_front=False,
    )
    return {s.alpha: fkpp.fit_tail_series(s.times, s.log_u) for s in res.tails}


@pytest.fixture(scope="module")
def smoothing_sensitivity_pair():
    t_list = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    fits = {}
    for eps_factor in (1.0, 2.0):
        res = fkpp.solve(
            P1, 60.0, probes=[(0.0, t) for t in t_list], dx=0.05,
            smoothing_eps=eps_factor * 0.05, track_front=False,
        )
        fits[eps_factor] = fkpp.fit_tail_series(res.tails[0].times, res.tails[0].log_u)
    return fits


@pytest.fixture(scope="module")
def mc_pde_t4():
    t = 4.0
    xs = [0.0, 3.0, 5.0]
    alphas = [x / (SQRT2 * t) for x in xs]
    res = fkpp.solve(P1, t, probes=[(a, t) for a in alphas], dx=0.05, track_front=False)
    cfg = mc.SimConfig(t=t, seed=SEED_MC_PDE)
    ests = mc.estimate_tail(cfg, xs, 200000)
    u_pde = [math.exp(res.tail_for(a).log_u[0]) for a in alphas]
    return xs, u_pde, ests


@pytest.fixture(scope="module")
def scenario_bundle_t8():
    t = 8.0
    scens = {a: mc.ScenarioConfig.for_alpha(a, t) for a in (0.0, -1.0)}
    remains = {a: t - s.tau for a, s in scens.items()}
    res = fkpp.solve(
        P1, t, probes=[(0.0, t), (-1.0, t)], dx=0.05,
        snapshot_times=sorted(set(remains.values())), track_front=False,
    )
    cfg = mc.SimConfig(t=t, seed=SEED_SCENARIO)
    out = {}
    for a, scen in scens.items():
        rem = remains[a]
        q_ref = math.exp(fkpp.renewal_quadrature(res.snapshots[rem], scen.threshold, scen.tau, P1))
        est = mc.scenario_estimate(cfg, scen, 100000)
        u_pde = math.exp(res.tail_for(a).log_u[0])
        out[a] = (scen, est, q_ref, u_pde)
    naive = mc.estimate_tail(cfg, [0.0], 40000)[0]
    return out, naive


@pytest.fixture(scope="module")
def whole_trees_t123():
    """(x_max, final population) of 100,000 whole trees at each of t = 1, 2, 3."""
    return {t: mc.sample_xmax(mc.SimConfig(t=t, seed=SEED_LAWS + int(t)), 100000)
            for t in (1.0, 2.0, 3.0)}


# -- criteria -------------------------------------------------------------------


def test_criterion_01_closed_form_suite():
    started = time.time()
    ok = True
    # continuity at the kinks: the adjacent branch formulas agree there
    ok &= abs((1.0 + RHO * RHO) - 2.0 * RHO * (1.0 + RHO)) <= 1e-12
    ok &= abs(2.0 * RHO * (1.0 - 1.0) - (1.0 * 1.0 - 1.0)) <= 1e-12
    # and the one-sided limits close in at the continuity rate
    for eps in (1e-6, 1e-9, 1e-13):
        ok &= abs(psi(-RHO - eps).rate - psi(-RHO + eps).rate) <= 4.0 * eps + 1e-12
        ok &= abs(psi(1.0 - eps).rate - psi(1.0 + eps).rate) <= 4.0 * eps + 1e-12
    ok &= abs(psi(-RHO).rate - (4.0 - 2.0 * SQRT2)) <= 1e-12
    ok &= abs(psi(0.0).rate - 2.0 * (SQRT2 - 1.0)) <= 1e-15
    ok &= psi(-2.0).rate == 5.0
    rng = np.random.default_rng(20250808)
    alphas = rng.uniform(-10.0, 1.0, size=1000)
    ok &= all(psi(a).rate >= chen_lower_bound(a) for a in alphas)
    elapsed = time.time() - started
    assert report("1 ", ok, f"closed forms, kinks, dominance bound ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_02_variational_numerics():
    started = time.time()
    t = 500.0
    ok = True
    details = []
    for alpha in (-2.0, -RHO, -0.2, 0.0, 0.5, 0.9):
        opt = maximize(ObjectiveSpec(alpha=alpha, t=t))
        ref = psi(alpha).rate
        frac = scenario_geometry(alpha).tau_fraction
        rate_ok = abs(opt.empirical_rate - ref) <= max(0.01 * ref, 0.01)
        frac_ok = abs(opt.tau_star / t - frac) <= 0.02
        ok &= rate_ok and frac_ok
        details.append(f"a={alpha:+.2f}:{'ok' if rate_ok and frac_ok else 'BAD'}")
    elapsed = time.time() - started
    assert report("2 ", ok, f"t=500 rates and branch times ({elapsed:.1f}s; {' '.join(details)})")
    assert elapsed < 10.0


def test_criterion_03_log_cdf_oracle_table():
    from oracles import LOG_NCDF_ORACLE

    started = time.time()
    worst = 0.0
    for z, ref in LOG_NCDF_ORACLE.items():
        worst = max(worst, abs(log_normal_cdf(z) - ref) / abs(ref))
    ok = worst <= 1e-10
    elapsed = time.time() - started
    assert report("3 ", ok, f"log normal CDF vs 60-digit table, worst rel {worst:.2e} ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_04a_front_secant_speed(front_trace_200):
    # both references are closed forms: the centering's secant and sqrt(2)
    secant = (front_trace_200.position_at(50.0) - front_trace_200.position_at(40.0)) / 10.0
    centering_secant = (bramson_centering(50.0) - bramson_centering(40.0)) / 10.0
    rel_secant = abs(secant - centering_secant) / centering_secant
    speed, _, _ = front_trace_200.fit_window(20.0, 200.0)
    rel_speed = abs(speed - SQRT2) / SQRT2
    ok = rel_secant <= 0.01 and rel_speed <= 0.01
    report(
        "4a", ok,
        f"secant[40,50]={secant:.5f} vs centering secant {centering_secant:.5f} "
        f"(rel {rel_secant:.3%}); fitted speed[20,200]={speed:.5f} vs "
        f"sqrt2={SQRT2:.5f} (rel {rel_speed:.3%}); band 1%",
    )
    assert ok, (
        "front speed off the log-corrected centering: the [40, 50] secant must "
        "sit within 1% of (m(50) - m(40))/10 with m = bramson_centering (the "
        "ln t term still puts it 1.7% below sqrt(2) there), and the fitted "
        "speed over [20, 200] within 1% of sqrt(2)"
    )


def test_criterion_04b_front_log_correction(front_trace_200):
    speed, blog, _ = front_trace_200.fit_window(20.0, 200.0)
    target = -3.0 / (2.0 * SQRT2)
    ok = abs(blog - target) <= 0.25 * abs(target)
    assert report(
        "4b", ok,
        f"ln t coefficient {blog:.4f} vs {target:.4f} "
        f"(rel {abs(blog - target) / abs(target):.2%}, band 25%); speed term {speed:.5f}",
    )


def test_front_tracks_log_corrected_centering(front_trace_200):
    # not a numbered criterion: the half-level front follows the log-corrected
    # centering with a bounded wave offset (the plain speed*t ratio is off by
    # the ln t term at these times, by design of the dynamics)
    for t in (50.0, 100.0, 200.0):
        offset = front_trace_200.position_at(t) - bramson_centering(t)
        assert abs(offset) <= 2.5, (t, offset)


def test_criterion_05_tail_slopes(tail_fits_60):
    ok = True
    details = []
    for alpha, target in ((0.5, psi(0.5).rate), (0.0, psi(0.0).rate),
                          (-0.5, psi(-0.5).rate), (-1.8, 1.0 + 1.8 ** 2)):
        fit = tail_fits_60[alpha]
        rel = abs(fit.a - target) / target
        ok &= rel <= 0.05
        details.append(f"a({alpha:+.1f})={fit.a:.4f} [{rel:.2%}]")
    assert report("5 ", ok, "slopes vs closed form, 5% band: " + ", ".join(details))


def test_criterion_05_smoothing_sensitivity(smoothing_sensitivity_pair):
    a1 = smoothing_sensitivity_pair[1.0].a
    a2 = smoothing_sensitivity_pair[2.0].a
    rel = abs(a1 - a2) / a1
    ok = rel < 0.002
    assert report(
        "5s", ok, f"slope change eps vs 2eps: {rel:.4%} (limit 0.2%)"
    )


def test_criterion_06_mc_pde_cross_validation(mc_pde_t4):
    xs, u_pde, ests = mc_pde_t4
    ok = True
    details = []
    for x, u, est in zip(xs, u_pde, ests):
        dev = abs(est.p_hat - u)
        ok &= dev <= 3.0 * est.stderr
        details.append(f"x={x:g}: |d|={dev:.2e} vs 3se={3 * est.stderr:.2e}")
    assert report("6 ", ok, "t=4 tail, n=2e5: " + "; ".join(details))


def test_criterion_07_scenario_estimator(scenario_bundle_t8):
    out, naive = scenario_bundle_t8
    ok = True
    details = []
    for alpha, (scen, est, q_ref, u_pde) in sorted(out.items()):
        unbiased = abs(est.p_hat - q_ref) <= 3.0 * est.stderr
        ok &= unbiased
        if alpha == 0.0:
            ordered = est.p_hat <= naive.p_hat + 3.0 * math.hypot(est.stderr, naive.stderr)
        else:
            # naive has no hits this deep (p ~ 1e-8); order against the PDE
            # value of the full tail instead, which the scenario lower-bounds
            ordered = est.p_hat <= u_pde + 3.0 * est.stderr
        ok &= ordered
        details.append(
            f"a={alpha:+.0f}: est={est.p_hat:.3e} ref={q_ref:.3e} "
            f"({'unbiased' if unbiased else 'BIASED'}, {'ordered' if ordered else 'UNORDERED'}, "
            f"ess={est.ess:.0f}{'/low' if est.low_ess else ''})"
        )
    assert report("7 ", ok, "; ".join(details))


def test_criterion_08_simulator_laws(whole_trees_t123):
    started = time.time()
    sample = mc.first_branch_times(SEED_LAWS, 100000)
    ks = stats.kstest(sample, "expon", alternative="greater")
    ks_ok = ks.pvalue > 1e-3

    pop_ok = True
    pop_details = []
    for t, (_, nf) in whole_trees_t123.items():
        mean = float(nf.mean())
        se = float(nf.std(ddof=1)) / math.sqrt(nf.size)
        pop_ok &= abs(mean - math.exp(t)) <= 3.0 * se
        pop_details.append(f"t={t:g}: {mean:.3f} vs {math.exp(t):.3f} (se {se:.3f})")

    cfg = mc.SimConfig(t=3.0, seed=SEED_LAWS)
    det_ok = mc.estimate_tail(cfg, [0.0], 500, n_workers=1) == mc.estimate_tail(
        cfg, [0.0], 500, n_workers=3
    )
    ok = ks_ok and pop_ok and det_ok
    elapsed = time.time() - started
    assert report(
        "8 ", ok,
        f"KS p={ks.pvalue:.3g}; population {'; '.join(pop_details)}; "
        f"worker-count determinism={'yes' if det_ok else 'NO'} ({elapsed:.0f}s)",
    )


def test_xmax_law_matches_pde_cdf(whole_trees_t123):
    # the whole law of X_max(t), not three thresholds: the Kolmogorov distance
    # D = sup_x |F_n(x) - u(x, t)| between criterion 8's trees and the PDE's
    # CDF.  The band is fixed in advance: the DKW bound at delta = 1e-3, plus
    # the PDE's own error, measured as its change when dx is halved
    delta = 1e-3
    solves = [fkpp.solve(P1, 3.0, dx=dx, snapshot_times=[1.0, 2.0, 3.0], track_front=False)
              for dx in (0.05, 0.025)]
    ok = True
    details = []
    for t, (xm, _) in whole_trees_t123.items():
        x = np.sort(xm)
        n = x.size
        u, u_half = (np.exp(res.snapshots[t].log_u(x)) for res in solves)
        dist = max(float(np.max(np.arange(1, n + 1) / n - u)), float(np.max(u - np.arange(n) / n)))
        band = math.sqrt(math.log(2.0 / delta) / (2.0 * n)) + float(np.max(np.abs(u - u_half)))
        ok &= dist <= band
        details.append(f"t={t:g}: D={dist:.2e} (sqrt(n) D={math.sqrt(n) * dist:.2f}) "
                       f"vs {band:.2e}")
    assert report("8+", ok, "Monte Carlo law of X_max vs PDE CDF: " + "; ".join(details))


def test_stopped_xmax_law_matches_pde_cdf():
    # the stopped sampler, as estimate_tail runs it, knows x_max exactly up to
    # stop; above it only that x_max exceeds stop.  So its empirical CDF on
    # (-inf, stop] meets the PDE's there: D = sup_{x <= stop} |F_n(x) - u(x, t)|,
    # taken at the samples below stop and at stop itself.  The band is fixed in
    # advance, as above: the DKW bound at delta = 1e-3, plus the PDE's change
    # when dx is halved at those points
    t, stop, delta = 4.0, 3.0, 1e-3
    xm, _, _ = mc._sample(mc.SimConfig(t=t, seed=SEED_STOPPED), 100000, 1, stop)
    n = xm.size
    below = np.sort(xm[xm <= stop])
    k = below.size
    at = np.append(below, stop)
    u, u_half = (np.exp(fkpp.solve(P1, t, dx=dx, snapshot_times=[t], track_front=False)
                        .snapshots[t].log_u(at)) for dx in (0.05, 0.025))
    upper = np.append(np.arange(1, k + 1), k) / n  # F_n at each point
    lower = np.append(np.arange(k), k) / n  # and just left of it
    dist = max(float(np.max(upper - u)), float(np.max(u - lower)))
    band = math.sqrt(math.log(2.0 / delta) / (2.0 * n)) + float(np.max(np.abs(u - u_half)))
    assert report("8+", dist <= band,
                  f"stopped sampler's law of X_max below {stop:g} vs PDE CDF at t={t:g}: "
                  f"D={dist:.2e} (sqrt(n) D={math.sqrt(n) * dist:.2f}) vs {band:.2e}; "
                  f"F_n({stop:g}) = {k / n:.4f}")


def test_criterion_09_upper_deviation_first_moment():
    started = time.time()
    val = mc.upper_tail_first_moment(400.0, SQRT2)
    rel = abs(val / 400.0 - (-1.0))
    ok = rel <= 0.02
    elapsed = time.time() - started
    assert report("9 ", ok,
                  f"(t + ln Phi(-alpha sqrt(2t)))/t = {val / 400.0:.5f} vs -1 ({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_criterion_10_prefactor_diagnostic(tail_fits_60):
    # soft, report-only: sign of the fitted ln t coefficient against the
    # conjectured -3(sqrt2 - 1)/2 power; no hard tolerance
    target = -prefactor_exponent()
    b0 = tail_fits_60[0.0].b
    b05 = tail_fits_60[0.5].b
    ok = (b0 < 0.0) and (b05 < 0.0)
    assert report(
        "10", ok,
        f"fitted b(0)={b0:.3f}, b(0.5)={b05:.3f}; conjectured {target:.3f} "
        f"(sign check only)",
    )
