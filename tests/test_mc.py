import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bbmlab.model import RHO, SQRT2, ModelParams
from bbmlab import fkpp, mc
from bbmlab.varopt import log_normal_cdf

from oracles import serial_pools, xmax_one_at_a_time

P1 = ModelParams(sigma2=1.0)


def cfg(t, seed=20250808, **kw):
    return mc.SimConfig(t=t, seed=seed, **kw)


class TestSimulate:
    def test_horizon_zero(self):
        xm, nf = mc.sample_xmax(cfg(0.0), 1)
        assert (xm[0], nf[0]) == (0.0, 1)

    def test_population_mean_matches_yule(self):
        xm, nf = mc.sample_xmax(cfg(2.0), 30000)
        mean = float(nf.mean())
        stderr = float(nf.std(ddof=1)) / math.sqrt(nf.size)
        assert abs(mean - math.exp(2.0)) <= 3.0 * stderr

    def test_xmax_centering_sanity(self):
        # wide a-priori band around the asymptotic median position
        xm, _ = mc.sample_xmax(cfg(3.0), 20000)
        center = SQRT2 * 3.0 - 3.0 / (2.0 * SQRT2) * math.log(3.0)
        assert center - 3.0 <= float(xm.mean()) <= center + 3.0

    def test_particle_cap(self):
        with pytest.raises(mc.ParticleCapError):
            mc.sample_xmax(cfg(8.0, max_particles=64), 10)

    def test_requires_a_trial(self):
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            mc.sample_xmax(cfg(1.0), 0)

    def test_trial_count_is_bounded(self, monkeypatch):
        # refused before the list of blocks is built: without the check this
        # would cost a 1,001-trial run, not an out-of-memory one
        monkeypatch.setattr(mc, "MAX_TRIALS", 1000)
        with pytest.raises(ValueError, match="n_trials must be <= 1000, got 1001"):
            mc.sample_xmax(cfg(1.0), 1001)

    def test_trial_bound_fits_in_memory(self):
        # about 57 bytes a trial at the peak: 2^26 trials need near 3.8 GB
        assert mc.MAX_TRIALS == 2**26

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mc.SimConfig(t=-1.0, seed=3)
        with pytest.raises(ValueError):
            mc.SimConfig(t=1.0, seed=3, max_particles=0)
        # a seed must be an integer, not a float or bool that int() would take
        for seed in (1.5, 7.0, True, np.True_, "3", -1, 2**64):
            with pytest.raises(ValueError):
                mc.SimConfig(t=1.0, seed=seed)
        assert mc.SimConfig(t=1.0, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self):
        e1 = mc.estimate_tail(cfg(2.0), [0.0], 300, n_workers=1)[0]
        e3 = mc.estimate_tail(cfg(2.0), [0.0], 300, n_workers=3)[0]
        assert e1 == e3

    def test_scenario_bit_identical_across_worker_counts(self):
        scen = mc.ScenarioConfig.for_alpha(0.0, 2.0)
        s1 = mc.scenario_estimate(cfg(2.0), scen, 300, n_workers=1)
        s3 = mc.scenario_estimate(cfg(2.0), scen, 300, n_workers=3)
        assert s1 == s3

    def test_trials_independent_of_batch_size(self):
        # the same trial index yields the same outcome however trials batch
        xm_all, _ = mc.sample_xmax(cfg(1.5), 64)
        xm_one, _ = mc.sample_xmax(cfg(1.5), 1)
        assert xm_all[0] == xm_one[0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 60), extra=st.integers(1, 60))
    def test_trial_outcome_depends_only_on_seed_and_index(self, seed, index, extra):
        config = cfg(1.5, seed=seed)
        xm, nf = mc.sample_xmax(config, index + extra)
        xm_one, nf_one, _ = mc._xmax_block(config, index, index + 1)
        assert (xm[index], nf[index]) == (xm_one[0], nf_one[0])

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), alpha=st.sampled_from([0.0, -1.0]))
    def test_scenario_estimate_independent_of_workers(self, seed, alpha):
        scen = mc.ScenarioConfig.for_alpha(alpha, 2.0)
        s1 = mc.scenario_estimate(cfg(2.0, seed=seed), scen, 100, n_workers=1)
        s3 = mc.scenario_estimate(cfg(2.0, seed=seed), scen, 100, n_workers=3)
        assert s1 == s3


class TestRunJobs:
    """run_jobs starts no more processes than it has jobs or the machine has cores."""

    @pytest.mark.parametrize("cores,sizes", [(None, []), (1, []), (2, [2]), (64, [3])])
    def test_estimate_tail_pool_is_bounded(self, monkeypatch, cores, sizes):
        # at t = 2 a block holds 1024 trials, so 3000 trials are 3 jobs
        serial = mc.estimate_tail(cfg(2.0), [0.0], 3000)
        started = serial_pools(monkeypatch, cores)
        assert mc.estimate_tail(cfg(2.0), [0.0], 3000, n_workers=10_000) == serial
        assert started == sizes

    def test_jobs_in_order(self, monkeypatch):
        started = serial_pools(monkeypatch, 64)
        jobs = [(2, 3), (3, 2), (5, 0)]
        assert mc.run_jobs(pow, jobs, 1) == mc.run_jobs(pow, jobs, 2) == [8, 9, 1]
        assert mc.run_jobs(pow, [], 4) == []
        assert started == [2]


class TestBlockSampler:
    """Blocks of trials advanced together against trials simulated one at a time."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), t=st.floats(0.0, 6.0),
           lo=st.integers(0, 2**32), blocks=st.floats(0.0, 2.5))
    def test_matches_one_at_a_time_oracle(self, seed, t, lo, blocks):
        # one block of up to 2.5 blocks' worth of trials from lo; sample_xmax
        # assembles its blocks from index 0
        config = cfg(t, seed=seed)
        n = 1 + int(blocks * mc._block_trials(t))
        for got, want in [(mc._xmax_block(config, lo, lo + n), xmax_one_at_a_time(config, lo, lo + n)),
                          (mc.sample_xmax(config, n), xmax_one_at_a_time(config, 0, n))]:
            assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))

    def test_large_trees_span_blocks(self):
        # 100 trials in blocks of 43, 43 and 14
        config = cfg(8.0, seed=8)
        assert mc._block_trials(8.0) == 43
        xm, nf = mc.sample_xmax(config, 100)
        want_xm, want_nf, _ = xmax_one_at_a_time(config, 0, 100)
        assert np.array_equal(xm, want_xm) and np.array_equal(nf, want_nf)

    def test_particle_cap_is_per_trial_and_tight(self):
        # n_final + live only grows, so a trial's peak is its final count:
        # a cap equal to the largest tree passes, one less raises, though the
        # block as a whole holds many times the cap
        config = cfg(4.0, seed=44)
        n = 200
        assert n <= mc._block_trials(4.0)
        xm, nf, _ = mc._xmax_block(config, 0, n)
        m = int(nf.max())
        assert np.count_nonzero(nf == m) == 1 and int(nf.sum()) > 10 * m
        xm_m, nf_m, _ = mc._xmax_block(replace(config, max_particles=m), 0, n)
        assert np.array_equal(xm_m, xm) and np.array_equal(nf_m, nf)
        with pytest.raises(mc.ParticleCapError):
            mc._xmax_block(replace(config, max_particles=m - 1), 0, n)

    def test_reused_generators_start_fresh(self):
        # fill every pooled Generator and leave its stream part-consumed (t=0.4
        # runs 1024-trial blocks), then replay first draws over the pool; later
        # blocks must still start each trial's stream from its beginning
        mc.sample_xmax(cfg(0.4, seed=5), 3000)
        assert len(mc._POOL) >= mc._BLOCK_TRIALS
        mc.first_branch_times(6, 1500)
        config = cfg(4.0, seed=9)
        got, want = mc._xmax_block(config, 700, 900), xmax_one_at_a_time(config, 700, 900)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        got, want = mc.sample_xmax(config, 700), xmax_one_at_a_time(config, 0, 700)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_block_size_follows_mean_population(self):
        assert mc._block_trials(0.0) == mc._block_trials(1.0) == 1024
        assert mc._block_trials(4.0) == 1024
        assert mc._block_trials(8.0) == 43
        assert mc._block_trials(11.0) == 2
        assert mc._block_trials(12.0) == 1
        assert mc._block_trials(1e6) == 1


class TestSamplerStats:
    def test_counts_from_final_populations(self):
        # a tree run to the horizon with n particles there has 2n - 1 segments
        _, nf, stats = mc._sample(cfg(3.0, seed=3), 500, 1)
        assert stats == mc.SamplerStats(trials=500, particle_segments=int(2 * nf.sum() - 500),
                                        peak_population=int(nf.max()))
        total = mc.SamplerStats.total([mc.SamplerStats(3, 9, 3), mc.SamplerStats(1, 9, 5)])
        assert total == mc.SamplerStats(trials=4, particle_segments=18, peak_population=5)


class TestDecidedTrees:
    """estimate_tail stops a tree once a particle ends at t above its largest threshold."""

    @pytest.mark.parametrize("t, stop, n", [(2.0, 1.0, 400), (4.0, 3.0, 300), (4.0, -math.inf, 300),
                                            (8.0, 8.0, 60)])
    def test_xmax_exact_up_to_stop(self, t, stop, n):
        config = cfg(t, seed=17)
        full_xm, full_nf, full_segments = xmax_one_at_a_time(config, 0, n)
        want = xmax_one_at_a_time(config, 0, n, stop=stop)
        got = mc._xmax_block(config, 0, n, stop=stop)
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))
        xm, nf, segments = got
        kept = full_xm <= stop
        assert kept.any() == math.isfinite(stop) and not kept.all()
        assert np.array_equal(xm[kept], full_xm[kept]) and np.array_equal(nf[kept], full_nf[kept])
        assert np.array_equal(segments[kept], full_segments[kept])
        assert (xm[~kept] > stop).all() and (segments <= full_segments).all()
        # blocks and the driver agree with one block
        xm_s, nf_s, stats = mc._sample(config, n, 1, stop=stop)
        assert np.array_equal(xm_s, xm) and np.array_equal(nf_s, nf)
        assert stats == mc.SamplerStats(n, int(segments.sum()), int(nf.max()))

    @pytest.mark.parametrize("t, xs", [(4.0, [5.0, 0.0, 3.0, -1.0]), (8.0, [8.0, 4.0, 6.0]),
                                       (8.0, [0.0])])
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_estimates_equal_full_sampler(self, t, xs, n_workers):
        config = cfg(t, seed=23)
        n = 400 if t < 8 else 100
        xm, _ = mc.sample_xmax(config, n)
        ests = mc.estimate_tail(config, xs, n, n_workers=n_workers)
        for x, est in zip(xs, ests):
            assert est == mc._binomial_estimate(xm <= x, config.seed, est.sampler)
        by_x = dict(zip(xs, ests))
        assert [by_x[x] for x in sorted(xs)] == mc.estimate_tail(config, sorted(xs), n)

    def test_segments_count_simulated_work(self):
        config = cfg(4.0, seed=29)
        xs = [3.0, 4.5]
        _, nf, segments = xmax_one_at_a_time(config, 0, 300, stop=4.5)
        est = mc.estimate_tail(config, xs, 300)[0]
        assert est.sampler == mc.SamplerStats(300, int(segments.sum()), int(nf.max()))
        _, full_nf = mc.sample_xmax(config, 300)
        assert est.sampler.particle_segments < int(2 * full_nf.sum() - 300)

    def test_particle_cap_applies_before_a_tree_is_decided(self):
        # trees of about 3,000 leaves pass a cap of 256, but each of these is
        # decided first; with TestSimulate.test_particle_cap's 64 one is not
        config = cfg(8.0, max_particles=256)
        with pytest.raises(mc.ParticleCapError):
            mc.sample_xmax(config, 100)
        est = mc.estimate_tail(config, [0.0], 100)[0]
        assert est == mc.estimate_tail(cfg(8.0), [0.0], 100)[0]
        assert est.sampler.peak_population <= 256
        with pytest.raises(mc.ParticleCapError):
            mc.estimate_tail(replace(config, max_particles=64), [0.0], 100)


class TestEstimateTail:
    def test_sure_event(self):
        est = mc.estimate_tail(cfg(1.0), [1e10], 200)[0]
        assert est.p_hat == 1.0
        assert est.stderr == 0.0
        assert est.log_p_hat == 0.0

    def test_no_branch_lower_bound_at_t1(self):
        # restricting to "no branching at all" gives p >= exp(-1) * Phi(0)
        est = mc.estimate_tail(cfg(1.0, seed=424242), [0.0], 20000)[0]
        bound = math.exp(-1.0) * 0.5
        assert est.p_hat >= bound - 3.0 * est.stderr

    def test_threshold_sequence_shares_trials(self):
        ests = mc.estimate_tail(cfg(2.0), [0.0, 1.0, 1e10], 500)
        assert [e.n_trials for e in ests] == [500, 500, 500]
        assert ests[0].p_hat <= ests[1].p_hat <= ests[2].p_hat == 1.0
        # the same numbers; the trials stop once the largest threshold decides them
        single = mc.estimate_tail(cfg(2.0), [1.0], 500)[0]
        assert single == replace(ests[1], sampler=single.sampler)
        assert single.sampler.particle_segments < ests[1].sampler.particle_segments

    def test_requires_minimum_trials(self):
        with pytest.raises(ValueError):
            mc.estimate_tail(cfg(1.0), [0.0], 99)


class TestScenarioEstimate:
    def test_degenerate_window_matches_naive(self):
        # tau -> 0: no suppression window, and each trial's conditional
        # probability is the indicator x_max <= 0 up to a 3e-5 blur
        t = 2.0
        scen = mc.ScenarioConfig(tau=1e-9, threshold=0.0)
        s = mc.scenario_estimate(cfg(t, seed=5), scen, 20000)
        n = mc.estimate_tail(cfg(t, seed=6), [0.0], 20000)[0]
        combined = math.hypot(s.stderr, n.stderr)
        assert abs(s.p_hat - n.p_hat) <= 3.0 * combined
        # indicator values: the ESS is the number of hits
        assert s.ess == pytest.approx(20000.0 * s.p_hat, rel=1e-4)

    def test_lower_bound_ordering_vs_naive(self):
        t, alpha = 6.0, 0.0
        scen = mc.ScenarioConfig.for_alpha(alpha, t)
        s = mc.scenario_estimate(cfg(t, seed=11), scen, 20000)
        n = mc.estimate_tail(cfg(t, seed=12), [0.0], 10000)[0]
        assert s.p_hat <= n.p_hat + 3.0 * math.hypot(s.stderr, n.stderr)
        assert s.p_hat > 0.0

    def test_unbiased_for_restricted_functional(self):
        # reference: exp(-tau) * integral of the Gaussian density times the
        # PDE field at the remaining horizon
        t, alpha = 4.0, 0.0
        scen = mc.ScenarioConfig.for_alpha(alpha, t)
        rem = t - scen.tau
        res = fkpp.solve(P1, t, probes=[], dx=0.1, snapshot_times=[rem], track_front=False)
        ref = math.exp(fkpp.renewal_quadrature(res.snapshots[rem], 0.0, scen.tau, P1))
        est = mc.scenario_estimate(cfg(t, seed=31), scen, 40000)
        assert abs(est.p_hat - ref) <= 3.0 * est.stderr

    def test_requires_minimum_trials(self):
        with pytest.raises(ValueError, match="n_trials must be >= 100"):
            mc.scenario_estimate(cfg(2.0), mc.ScenarioConfig(tau=1.0, threshold=0.0), 99)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            mc.scenario_estimate(cfg(2.0), mc.ScenarioConfig(tau=3.0, threshold=0.0), 200)
        with pytest.raises(ValueError):
            mc.scenario_estimate(cfg(2.0), mc.ScenarioConfig(tau=0.0, threshold=0.0), 200)

    def test_default_geometry(self):
        scen = mc.ScenarioConfig.for_alpha(0.0, 8.0)
        assert scen.tau == pytest.approx(8.0 / SQRT2, rel=1e-12)
        assert scen.threshold == 0.0
        late = mc.ScenarioConfig.for_alpha(-1.0, 8.0)
        assert late.tau == pytest.approx(0.95 * 8.0, rel=1e-12)
        assert late.threshold == pytest.approx(-SQRT2 * 8.0, rel=1e-12)
        # at large t the post-branch tree keeps a fixed 0.4 time units
        assert mc.ScenarioConfig.for_alpha(-1.0, 200.0).tau == pytest.approx(199.6, rel=1e-15)

    def test_rate_emergence_over_horizons(self):
        # -log(q)/t drifts down toward the closed-form rate and stays inside
        # a wide finite-horizon band (tightness is the PDE's job)
        psi0 = 2.0 * RHO
        values = []
        for t in (6.0, 8.0, 10.0, 12.0):
            scen = mc.ScenarioConfig.for_alpha(0.0, t)
            est = mc.scenario_estimate(mc.SimConfig(t=t, seed=4242), scen, 40000)
            values.append(-est.log_p_hat / t)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(psi0 - 0.05 <= v <= psi0 + 0.6 for v in values)


class TestFirstBranchLaw:
    def test_kolmogorov_smirnov_against_unit_exponential(self):
        sample = mc.first_branch_times(909, 20000)
        result = stats.kstest(sample, "expon", alternative="greater")
        assert result.pvalue > 1e-3

    def test_matches_trial_stream(self):
        # the replay reports the first lifetime of Philox keyed by (seed, i),
        # across the replay's block boundaries
        n = 2 * mc._BLOCK_TRIALS + 3
        times = mc.first_branch_times(77, n)
        for i in range(n):
            rng = np.random.Generator(np.random.Philox(key=[77, i]))
            assert rng.standard_exponential(1)[0] == times[i]


class TestFirstMoment:
    def test_frozen_small_t_value(self):
        got = mc.upper_tail_first_moment(1.0, SQRT2)
        assert got == pytest.approx(1.0 + log_normal_cdf(-2.0), rel=1e-14)
        assert got == pytest.approx(-2.7832, abs=2e-4)

    def test_rate_recovery_at_large_t(self):
        val = mc.upper_tail_first_moment(400.0, SQRT2)
        assert val / 400.0 == pytest.approx(-1.0, abs=0.02)

    def test_population_growth_dominates_at_v0(self):
        val = mc.upper_tail_first_moment(400.0, 0.0)
        assert val / 400.0 == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_requires_positive_t(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            mc.upper_tail_first_moment(t, 0.0)
