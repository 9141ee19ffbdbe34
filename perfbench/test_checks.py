"""Tests of the benchmark's own checks: each accepts today's output of the
program and rejects a perturbed copy.

    python3 -m pytest -q perfbench/test_checks.py     # about a minute

The outputs come from one real round of each workload at seed 1.
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def one_round(cls, out_dir):
    wl = cls(1, str(out_dir))
    results = run.run_round(wl, 0, None)
    assert all(error is None for *_, error in results), results
    return wl, {op.kind: output for op, _, output, _ in results}


@pytest.fixture(scope="module")
def pde(tmp_path_factory):
    return one_round(workloads.Pde, tmp_path_factory.mktemp("pde"))


@pytest.fixture(scope="module", params=[workloads.McSmallTrees, workloads.McLargeTrees])
def mc(request, tmp_path_factory):
    wl, outputs = one_round(request.param, tmp_path_factory.mktemp(request.param.name))
    return wl, outputs, wl.references()


def test_pde_outputs_pass(pde):
    wl, outputs = pde
    for kind, output in outputs.items():
        assert wl.check(kind, output) == [], kind


def test_slope_moved_by_ten_percent_rejected(pde):
    wl, outputs = pde
    for i in range(len(outputs["fit"])):
        rows = copy.deepcopy(outputs["fit"])
        rows[i]["a"] = repr(1.1 * float(rows[i]["a"]))
        assert wl.check("fit", rows), rows[i]["alpha"]
    for i in range(len(outputs["rate"])):
        rows = copy.deepcopy(outputs["rate"])
        rows[i]["psi"] = repr(1.1 * float(rows[i]["psi"]))
        assert wl.check("rate", rows), rows[i]["alpha"]
    for i in range(len(outputs["tau-opt"])):
        rows = copy.deepcopy(outputs["tau-opt"])
        rows[i]["empirical_rate"] = repr(1.1 * float(rows[i]["empirical_rate"]))
        assert wl.check("tau-opt", rows), rows[i]["v"]


def test_ln_u_outside_sandwich_rejected(pde):
    wl, outputs = pde
    for i, row in enumerate(outputs["fkpp-rate"]):
        lo, hi = checks.probe_sandwich(float(row["x_probe"]), float(row["t"]), workloads.PDE_EPS)
        for bad in (lo - 1e-6, hi + 1e-6):
            rows = copy.deepcopy(outputs["fkpp-rate"])
            rows[i]["ln_u"] = repr(bad)
            assert wl.check("fkpp-rate", rows), (i, bad)


def test_front_at_bare_sqrt2_rejected(pde):
    wl, outputs = pde
    front = outputs["front"]
    bare = wl.bbm.fkpp.FrontTrace(times=front.times, positions=checks.SQRT2 * front.times)
    speed, log_coeff, _ = bare.fit_window(0.1 * workloads.FRONT_T, workloads.FRONT_T)
    assert math.isclose(speed, checks.SQRT2, rel_tol=1e-9)
    bare.fitted_speed, bare.log_coeff = speed, log_coeff
    reasons = wl.check("front", bare)
    assert any("ln t coefficient" in r for r in reasons)
    assert any("offset" in r for r in reasons)


def test_mc_outputs_pass(mc):
    wl, outputs, refs = mc
    for kind, output in outputs.items():
        assert wl.check(kind, output) == [], kind
    pooled = wl.check_pooled({k: [v] for k, v in outputs.items()}, refs)
    assert pooled and all(r == [] for r in pooled.values()), pooled


def test_p_hat_shifted_by_five_stderr_rejected(mc):
    wl, outputs, refs = mc
    for kind, targets in refs.items():
        for i, (_, ref, _, _) in enumerate(targets):
            rows = copy.deepcopy(outputs[kind])
            p, se = float(rows[i]["p_hat"]), float(rows[i]["stderr"])
            rows[i]["p_hat"] = repr(p + math.copysign(5.0 * se, p - ref))
            assert wl.check_pooled({kind: [rows]}, refs)[kind], (kind, i)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_layer_metrics_self_time_and_idle_layers():
    spans = [
        {"round": 0, "id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 1.0},
        {"round": 0, "id": 1, "parent": 0, "name": "rates.phi", "start": 0.1, "end": 0.3},
        {"round": 0, "id": 2, "parent": 1, "name": "rates.psi", "start": 0.1, "end": 0.2},
        {"round": 0, "id": 3, "parent": 0, "name": "serialize.fmt_float", "start": 0.5, "end": 0.6},
    ]
    from spans import layer_metrics

    m = layer_metrics(spans, rounds=1)
    assert np.isclose(m["cli.self_s"], 0.7) and m["cli.calls"] == 1
    assert m["rates.calls"] == 1 and np.isclose(m["rates.s"], 0.2)
    assert m["fkpp.solve_s"] == 0 and m["mc.us_per_trial"] == 0
