"""Benchmark of bbmlab's PDE and Monte Carlo routes, end to end and per module.

    python3 perfbench/run.py --workload pde --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's program calls for up to --seconds (at
least one round), checks every output, and prints one JSON object
as its last line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb);
with --trace 1 each round runs once untraced and once traced, and the metrics
are the per-layer ones, with the tracing overhead.  Outputs and spans go to
perfbench_out/<workload>/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checks
import workloads
from spans import Tracer, layer_metrics

# Set-up is timed in fresh interpreters, half before and half after the timed
# rounds, so that its median spans the run rather than one moment of it.
SETUP_RUNS = 6
# Process start to `bbmlab.cli` imported (numpy, scipy.linalg, scipy.special).
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import bbmlab.cli; "
    "print(time.monotonic())"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "serialize.fmt_float_calls": "count",
    "serialize.s": "s",
    "rates.calls": "count",
    "rates.s": "s",
    "varopt.maximize_calls": "count",
    "varopt.maximize_s": "s",
    "varopt.log_normal_cdf_elements": "count",
    "varopt.log_normal_cdf_s": "s",
    "fkpp.solve_calls": "count",
    "fkpp.solve_s": "s",
    "fkpp.grid_points": "count",
    "fkpp.nominal_steps": "count",
    "fkpp.point_steps": "count",
    "fkpp.ns_per_point_step": "ns",
    "fkpp.fit_s": "s",
    "fkpp.slope_rel_err_max": "fraction",
    "fkpp.front_speed_rel_err": "fraction",
    "mc.trials": "count",
    "mc.estimate_tail_s": "s",
    "mc.scenario_estimate_s": "s",
    "mc.us_per_trial": "us",
    "mc.particle_segments": "count",
    "mc.ns_per_segment": "ns",
    "mc.peak_population": "count",
    "mc.hit_fraction": "fraction",
    "mc.ess_fraction": "fraction",
    "trace.overhead_pct": "%",
}


def measure_setup(n: int) -> list[float]:
    """Seconds from process start to `bbmlab.cli` imported, in n fresh interpreters."""
    times = []
    for _ in range(n):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, workloads.SRC],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout.split()[-1]) - started)
    return times


def run_round(wl, r: int, tracer: Tracer | None) -> list[tuple]:
    """Run round r's calls; returns (op, seconds, output, error) for each."""
    results = []
    for op in wl.ops(r):
        call = op.call if tracer is None or op.out is None else tracer.wrap("cli.main", op.call)
        error = output = None
        started = time.perf_counter()
        try:
            raw = call()
        except Exception:
            raw, error = None, traceback.format_exc(limit=2)
        seconds = time.perf_counter() - started
        if error is None:
            try:
                output = op.read(raw)
            except workloads.OpFailed as exc:
                error = str(exc)
        results.append((op, seconds, output, error))
    return results


def output_bytes(results) -> int:
    return sum(os.path.getsize(p) for op, *_ in results if op.out
               for p in (op.out, op.out + ".manifest.json") if os.path.exists(p))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = os.path.join(workloads.ROOT, "perfbench_out", args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_times = [] if args.trace else measure_setup(SETUP_RUNS // 2)
    tracer = Tracer() if args.trace else None

    # Whole rounds while the next one, as long as the last, still ends within
    # --seconds; at least one round.
    rounds = []   # (round index, traced, results)
    started = time.perf_counter()
    r, last = 0, 0.0
    while r == 0 or time.perf_counter() - started + last <= args.seconds:
        round_started = time.perf_counter()
        rounds.append((r, False, run_round(wl, r, None)))
        if tracer is not None:
            tracer.round = r
            with tracer.installed(wl.bbm):
                rounds.append((r, True, run_round(wl, r, tracer)))
        last = time.perf_counter() - round_started
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_times += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)

    # Checks, outside the timed region.  A call fails if it raised, exited
    # non-zero, or its output fails a check; pooled checks over all rounds
    # fail every call of their kind.
    failed, wrong = set(), False
    pool: dict[str, list] = {}
    for r_i, traced, results in rounds:
        for op, _, output, error in results:
            key = (r_i, traced, op.kind)
            reasons = [error] if error else wl.check(op.kind, output)
            if not reasons and not traced:
                pool.setdefault(op.kind, []).append(output)
            if reasons:
                failed.add(key)
                wrong |= error is None
                print(f"FAILED round {r_i}{' traced' if traced else ''}: " + "; ".join(reasons))
    pooled_fail = wl.check_pooled(pool, wl.references())
    for kind, reasons in pooled_fail.items():
        if reasons:
            wrong = True
            print(f"FAILED {kind}, all rounds: " + "; ".join(reasons))
            failed |= {(r_i, traced, op.kind) for r_i, traced, res in rounds
                       for op, *_ in res if op.kind == kind}
    attempted = sum(len(res) for *_, res in rounds)

    plain = [sum(s for _, s, *_ in res) for _, traced, res in rounds if not traced]
    if tracer is None:
        values = {"setup_s": statistics.median(setup_times), "wall_s": statistics.median(plain),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    else:
        traced_rounds = [res for _, traced, res in rounds if traced]
        n = len(traced_rounds)
        values = layer_metrics(tracer.spans, n)
        values["cli.output_bytes"] = sum(output_bytes(res) for res in traced_rounds) / n
        final = {op.kind: output for op, _, output, error in traced_rounds[-1] if error is None}
        values["fkpp.slope_rel_err_max"] = (
            max(checks.slope_errors(final["fit"]).values()) if "fit" in final else 0.0)
        front = final.get("front")
        values["fkpp.front_speed_rel_err"] = (
            abs(front.fitted_speed - checks.SQRT2) / checks.SQRT2 if front is not None else 0.0)
        traced_s = sum(sum(s for _, s, *_ in res) for res in traced_rounds)
        values["trace.overhead_pct"] = 100.0 * (traced_s / sum(plain) - 1.0)
        units = PER_LAYER_UNITS
        tracer.write(os.path.join(out_dir, f"spans-seed{args.seed}.jsonl"))

    print(f"{args.workload} seed={args.seed}: {len(plain)} round(s), "
          f"{attempted} calls, {len(failed)} failed")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
