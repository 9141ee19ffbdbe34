import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from bbmlab import cli, fkpp, mc
from bbmlab.model import RHO, SQRT2, ModelParams
from bbmlab.serialize import sha256_text
from bbmlab.varopt import log_normal_cdf

from oracles import serial_pools, xmax_one_at_a_time


# environment for a fresh interpreter that imports this checkout's bbmlab
SRC_ENV = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))}


def run_cli(args):
    return cli.main([str(a) for a in args])


def read(path):
    with open(path) as fh:
        return fh.read()


def write_probe(path, slope):
    """Probe CSV at alpha = 0 with ln u = -slope * t, t = 10..50."""
    path.write_text("alpha,t,x_probe,ln_u,dx,dt,eps\n" + "".join(
        f"0,{t},0,{-slope * t},0.1,0.001,0.1\n" for t in (10.0, 20.0, 30.0, 40.0, 50.0)
    ))


class TestRate:
    def test_single_alpha_row(self, tmp_path):
        out = tmp_path / "rate.csv"
        assert run_cli(["rate", "--alphas", 0, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "alpha,psi,branch_tag,chen_lower_bound"
        cells = lines[1].split(",")
        assert float(cells[1]) == pytest.approx(0.8284271247461903, rel=1e-15)
        assert cells[2] == "DELAYED_BRANCH_REGIME"

    def test_alpha_grid_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli(["rate", "--alpha-grid", -3, 0.99, 50, "--out", out]) == 0
        assert len(read(out).splitlines()) == 51

    @pytest.mark.parametrize("count", [0, -3, 2.5])
    def test_alpha_grid_count_must_be_positive_integer(self, tmp_path, count):
        out = tmp_path / "curve.csv"
        assert run_cli(["rate", "--alpha-grid", 0, 0.5, count, "--out", out]) == 2
        assert not out.exists()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "rate.csv"
        run_cli(["rate", "--alphas", 0.5, "--out", out])
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["config"]["kind"] == "rate"
        assert manifest["config"]["alphas"] == [0.5]
        assert "csv_sha256" in manifest and "wall_s" in manifest["timings"]
        assert manifest["env"] == {"python": platform.python_version(), "numpy": np.__version__,
                                   "platform": f"{platform.system()}-{platform.machine()}",
                                   "cores": os.cpu_count()}
        assert manifest["timings"]["wall_s"] >= 0.0


class TestTauOpt:
    def test_optimal_fraction(self, tmp_path):
        out = tmp_path / "tau.csv"
        assert run_cli(["tau-opt", "--v", 0, "--t", 500, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["tau_fraction"]) == pytest.approx(1.0 / SQRT2, abs=0.02)
        assert float(cols["empirical_rate"]) == pytest.approx(2.0 * RHO, rel=0.01)
        assert float(cols["phi"]) == pytest.approx(2.0 * RHO, rel=1e-12)

    def test_huge_horizons(self, tmp_path, capsys):
        # the slope keeps its precision where z is far below -20, so tau*/t and
        # the rate hold at t = 1e300; at t = 1e308, 2 t is not a float
        out = tmp_path / "tau.csv"
        assert run_cli(["tau-opt", "--v", 0, "--t", 1e300, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["tau_fraction"]) == pytest.approx(1.0 / SQRT2, rel=1e-9)
        assert float(cols["empirical_rate"]) == pytest.approx(2.0 * RHO, rel=1e-9)
        assert capsys.readouterr().err == ""
        assert run_cli(["tau-opt", "--v", 0, "--t", 1e308, "--out", tmp_path / "x.csv"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid",
            "message": "horizon t=1e+308 overflows the objective at alpha=0.0"}
        assert not (tmp_path / "x.csv").exists()

    def test_phi_equals_rate_psi(self, tmp_path):
        # (alpha sqrt 2) / sqrt 2 is not alpha in the last bit for these two
        alphas = [0.87, -1.9534]
        assert run_cli(["tau-opt", "--alphas", *alphas, "--t", 10,
                        "--out", tmp_path / "tau.csv"]) == 0
        assert run_cli(["rate", "--alphas", *alphas, "--out", tmp_path / "rate.csv"]) == 0
        tau_rows = read(tmp_path / "tau.csv").splitlines()[1:]
        rate_rows = read(tmp_path / "rate.csv").splitlines()[1:]
        assert [r.split(",")[-1] for r in tau_rows] == [r.split(",")[1] for r in rate_rows]


class TestValidation:
    def test_empty_t_list_is_config_invalid(self, tmp_path):
        cfg = {"kind": "fit", "input": "whatever.csv", "t_list": []}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["fit", "--config", path, "--out", tmp_path / "x.csv"]) == 2

    def test_decreasing_t_list_rejected(self, tmp_path):
        code = run_cli(
            ["fkpp-rate", "--alphas", 0, "--t-list", 3, 2, 1, "--out", tmp_path / "x.csv"]
        )
        assert code == 2

    def test_alpha_at_least_one_rejected_for_lower_kinds(self, tmp_path):
        code = run_cli(
            ["mc-tail", "--alphas", 1.2, "--t", 2, "--n-trials", 200,
             "--out", tmp_path / "x.csv"]
        )
        assert code == 2

    @pytest.mark.parametrize("argv,config", [
        (["mc-tail", "--alphas", "nan", "--t", 2, "--n-trials", 200], None),
        (["scenario-lb", "--alphas", "nan", "--t", 2, "--n-trials", 200], None),
        (["mc-tail", "--alphas", "inf", "--t", 2, "--n-trials", 200], None),
        (["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 200, "--workers", 0], None),
        (["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 200, "--workers", -2], None),
        (["tau-opt", "--alphas", 0, "--t", 10, "--sigma2", "nan"], None),
        (["mc-tail"], {"alphas": [math.nan], "t": 2.0, "n_trials": 200}),
        (["fkpp-rate"], {"alphas": [-math.inf], "t_list": [1.0, 2.0]}),
        (["sweep"], {"entries": [{"kind": "mc_tail", "alphas": [math.inf], "t": 2.0,
                                  "n_trials": 200}]}),
        (["tau-opt", "--alphas", 1.5, "--t", 10], None),
        (["tau-opt", "--alphas", "nan", "--t", 10], None),
        (["tau-opt", "--v", "nan", "--t", 10], None),
        (["tau-opt", "--v", 2, "--t", 10], None),
    ], ids=["nan-flag", "nan-scenario", "inf-flag", "workers-0", "workers-neg", "nan-sigma2",
            "nan-config", "neg-inf-config", "inf-sweep-entry", "tau-opt-alpha-1.5",
            "tau-opt-alpha-nan", "tau-opt-v-nan", "tau-opt-v-2"])
    def test_non_finite_or_out_of_range_rejected(self, tmp_path, argv, config):
        # NaN compares False with everything, so "alpha >= 1" or "sigma2 <= 0"
        # alone let it through
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", path]
        out = tmp_path / "x.csv"
        assert run_cli(argv + ["--out", out]) == 2
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path):
        assert run_cli(["tau-opt", "--t", 10, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("argv,config,message", [
        (["rate"], None, "rate requires --alphas or --alpha-grid"),
        (["tau-opt", "--v", 0], None, "tau_opt requires --t or --t-list"),
        (["fkpp-rate", "--alphas", 0], None, "fkpp_rate requires --alphas and --t-list"),
        (["mc-tail", "--alphas", 0], None, "mc_tail requires --alphas and --t"),
        (["scenario-lb", "--t", 8], None, "scenario_lb requires --alphas and --t"),
        (["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 99], None, "n_trials must be >= 100"),
        (["scenario-lb", "--alphas", 0, "--t", 2, "--n-trials", 99], None,
         "n_trials must be >= 100"),
        (["fit"], None, "fit requires --input"),
        (["sweep"], None, "sweep requires config entries"),
        (["sweep"], {"entries": [{"kind": "bogus"}]}, "unknown kind 'bogus'"),
        (["sweep"], {"entries": [{"alphas": [0.0]}]}, "config requires 'kind'"),
        (["sweep"], {"entries": [{"kind": "sweep", "entries": [{"kind": "rate", "alphas": [0.0]}]}]},
         "sweep entries cannot be sweeps"),
        (["sweep"], {"entries": [{"kind": "rate", "alphas": [0.5], "out": "zzz.csv"}]},
         "sweep entries cannot set out: the sweep writes one CSV"),
    ], ids=["rate", "tau-opt-t", "fkpp-rate-t-list", "mc-tail-t", "scenario-lb-alphas",
            "n-trials-99", "n-trials-99-scenario", "fit-input", "sweep-entries", "unknown-kind", "entry-without-kind",
            "sweep-of-sweeps", "entry-out"])
    def test_config_error_names_the_problem(self, tmp_path, capsys, argv, config, message):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", path]
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert run_cli(argv + ["--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config-invalid", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("kind,settings,message", [
        ("tau_opt", {"v": 0.0, "t": 10.0, "sigma2": 0},
         "sigma2 must be a number > 0 with sqrt(2 sigma2) finite, got 0"),
        ("fkpp_rate", {"alphas": [0.0], "t_list": [1.0], "sigma2": -math.inf},
         "sigma2 must be a number > 0 with sqrt(2 sigma2) finite, got -inf"),
        ("tau_opt", {"v": math.inf, "t": 10.0}, "v must be a finite number, got inf"),
        ("fkpp_rate", {"alphas": [0.0], "t_list": []},
         "t_list must be a non-empty, strictly increasing list of numbers, got []"),
        ("fit", {"input": "probe.csv", "t_list": [10, 20, 20]},
         "t_list must be a non-empty, strictly increasing list of numbers, got [10, 20, 20]"),
        ("rate", {"alpha_grid": [0, 0.5, 0]},
         "alpha_grid must be [min, max, count] with an integer count from 1 to 1048576, "
         "got [0, 0.5, 0]"),
        # refused before a row is built, though 2^20 + 1 rows would still be cheap
        ("rate", {"alpha_grid": [0, 0.5, 2 ** 20 + 1]},
         "alpha_grid must be [min, max, count] with an integer count from 1 to 1048576, "
         "got [0, 0.5, 1048577]"),
        ("rate", {"alpha_grid": [0, 0.5]},
         "alpha_grid must be [min, max, count] with an integer count from 1 to 1048576, "
         "got [0, 0.5]"),
        ("rate", {"alphas": [0.5], "workers": 0}, "workers must be an integer >= 1, got 0"),
        # JSON integers beyond the largest float would overflow in the run
        ("tau_opt", {"v": 0, "t": 10, "sigma2": 10**401},
         f"sigma2 must be a number > 0 with sqrt(2 sigma2) finite, got {10**401}"),
        ("mc_tail", {"alphas": [0], "t": 10**400}, f"t must be a number, got {10**400}"),
        ("rate", {"alphas": [10**400]}, f"alphas must be a list of numbers, got [{10**400}]"),
    ], ids=["sigma2-0", "sigma2-neg-inf", "v-inf", "t-list-empty", "t-list-repeat",
            "alpha-grid-count-0", "alpha-grid-count-2^20+1", "alpha-grid-short", "workers-0",
            "sigma2-10^401", "t-10^400", "alphas-10^400"])
    def test_field_domain_names_the_field(self, tmp_path, capsys, kind, settings, message):
        # each field's domain is checked where its type is, in every kind that reads it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(settings))
        out = tmp_path / "x.csv"
        assert run_cli([kind.replace("_", "-"), "--config", path, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config-invalid", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config", "sweep-entry"])
    @pytest.mark.parametrize("kind,settings,message", [
        ("rate", {"alphas": [0.5], "alpha_grid": [0, 0.5, 2]},
         "rate takes --alphas or --alpha-grid, not both"),
        ("tau_opt", {"v": 0.0, "alphas": [0.5], "t": 10.0, "t_list": [20]},
         "tau_opt takes --v or --alphas, not both"),
        ("tau_opt", {"alphas": [0.5], "t": 10.0, "t_list": [20]},
         "tau_opt takes --t or --t-list, not both"),
    ], ids=["rate", "tau-opt-v-alphas", "tau-opt-t-t-list"])
    def test_alternatives_exclude_each_other(self, tmp_path, capsys, kind, settings, message,
                                             route):
        # before, tau-opt --v 0 --alphas 0.5 --t 10 --t-list 20 wrote one row, for v = 0
        # at t = 20, and its manifest recorded the alphas and t it had dropped
        path = tmp_path / "cfg.json"
        if route == "flag":
            argv = TestUnreadFields.argv(tmp_path, kind, settings)
        elif route == "config":
            path.write_text(json.dumps(settings))
            argv = [kind.replace("_", "-"), "--config", path]
        else:
            path.write_text(json.dumps({"entries": [{"kind": kind, **settings}]}))
            argv = ["sweep", "--config", path]
        out = tmp_path / "x.csv"
        assert run_cli([*argv, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "config-invalid", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["rate", "--alphas=-1e300"], "psi overflows a float at alpha=-1e+300"),
        (["rate", "--alphas", 0, 1e300], "psi overflows a float at alpha=1e+300"),
        (["tau-opt", "--alphas=-1.3e184", "--t", 10], "psi overflows a float at alpha=-1.3e+184"),
        (["scenario-lb", "--alphas=-1e160", "--t", 1, "--n-trials", 100],
         "every trial's weight underflows to 0 at alpha=-1e+160 (threshold "),
    ], ids=["rate-psi-deep", "rate-psi-upper", "tau-opt-phi", "scenario-lb-zero-weights"])
    def test_non_finite_result_is_config_invalid(self, tmp_path, capsys, argv, message):
        # a rate or estimate that is not a finite number exits 2, naming alpha,
        # where it wrote inf or nan with exit 0 before; no warning on the way
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*argv, "--out", out]) == 2
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config-invalid" and err["message"].startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,message", [
        (["fkpp-rate", "--alphas=-1.7e308", "--t-list", 1], None,
         "alpha=-1.7e+308 at t=1.0: its point alpha sqrt(2 sigma2) t, or alpha sqrt(2) t in "
         "units of sigma, is not a finite float"),
        (["mc-tail", "--alphas=-1.7e308", "--t", 1, "--n-trials", 100], None,
         "alpha=-1.7e+308 at t=1.0: its point"),
        # a finite x, but alpha sqrt(2) t in units of sigma is not
        (["mc-tail", "--alphas=-1.5e308", "--t", 1, "--n-trials", 100, "--sigma2", 1e-300], None,
         "alpha=-1.5e+308 at t=1.0: its point"),
        (["tau-opt", "--alphas=-1e308", "--t-list", 1, 2], None,
         "alpha=-1e+308 at t=2.0: its point"),
        (["fkpp-rate", "--alphas", 0, "--t-list", 1, "--sigma2", 1.7e308], None,
         "sigma2 must be a number > 0 with sqrt(2 sigma2) finite, got 1.7e+308"),
        (["tau-opt", "--alphas", 0, "--t", 1, "--sigma2", 1.7e308], None, "sigma2 must be"),
        (["mc-tail", "--alphas", 0, "--t", 1, "--n-trials", 100, "--sigma2", 1.7e308], None,
         "sigma2 must be"),
        (["fkpp-rate", "--alphas", 0, "--t-list", 1, "--dt", 1e-300], None,
         "solve needs 1.75e+304 point-tap-steps"),
        (["fkpp-rate", "--alphas", 0, "--t-list", 1, "--dt", 1e-9], None,
         "solve needs 1.75e+13 point-tap-steps"),
        (["fkpp-rate"], {"sigma2": 1e8, "alphas": [1e-300], "t_list": [1e-8, 1], "dx": 1},
         "solve needs 9.07e+11 point-tap-steps"),
        (["fkpp-rate", "--alphas=-2e154", "--t-list", 1, "--sigma2", 1e-300], None,
         "probe (alpha=-2e+154, t=1.0) has a point or a no-branch bound beyond the floats"),
        (["tau-opt", "--v=-2.6e-150", "--t", 1.95e-194], None,
         "horizon t=1.95e-194 overflows the objective"),
    ], ids=["fkpp-rate-point", "mc-tail-point", "mc-tail-point-in-sigma", "tau-opt-point",
            "fkpp-rate-sigma2", "tau-opt-sigma2", "mc-tail-sigma2", "dt-1e-300", "dt-1e-9",
            "wide-kernel", "fkpp-rate-no-branch-bound", "tau-opt-rate"])
    def test_input_beyond_the_floats_or_the_work_bound(self, tmp_path, capsys, argv, config,
                                                       message):
        # each exited 1 with a traceback, ran for hours, or wrote an inf or
        # nan cell with exit 0; now each exits 2 naming the input, with no
        # warning on the way and no CSV
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", path]
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([*argv, "--out", out]) == 2
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config-invalid" and err["message"].startswith(message)
        assert not out.exists()

    def test_probes_at_steps_of_1e_300(self, tmp_path, capsys):
        # the first step has h = 1e-300: its kernel's weights rounded to 0, a
        # heat block of one summed nothing but them, and the run exited 3
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["fkpp-rate", "--alphas=-2.6e6", "--t-list", 1e-300, 1e-8,
                            "--dt", 0.002, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert len(rows) == 2 and all(math.isfinite(float(c)) for row in rows for c in row)

    def test_config_file_for_another_kind(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "rate", "alphas": [0.5]}))
        out = tmp_path / "x.csv"
        assert run_cli(["tau-opt", "--config", path, "--t", 10, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid",
            "message": f"{path} is a config for 'rate', not for 'tau_opt'"}
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,points", [("--dx", 1e-9, 51414213564),
                                                   ("--sigma2", 1e20, 10282842712476)])
    def test_grid_too_large_is_config_invalid(self, tmp_path, capsys, flag, value, points):
        out = tmp_path / "x.csv"
        argv = ["fkpp-rate", "--alphas", 0, "--t-list", 1, flag, value, "--out", out]
        assert run_cli(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": f"grid needs 8 to 4194304 points, got {points}"}
        assert list(tmp_path.iterdir()) == []

    def test_missing_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["rate", "--alphas", 0]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": "an output path is required (--out)"}
        assert list(tmp_path.iterdir()) == []

    def test_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run_cli(["rate", "--alphas", 0, "--out", tmp_path / "file" / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "config-invalid"

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "rate", "bogus": 1}))
        assert run_cli(["rate", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        # the retired scenario knobs are unknown fields too
        for name in ("drift", "late_branch_fraction"):
            path.write_text(json.dumps({"alphas": [-1.0], "t": 2.0, name: 0.9}))
            assert run_cli(["scenario-lb", "--config", path, "--out", tmp_path / "x.csv"]) == 2
        # and so are the solve horizon and the endpoint margin, retired in 0.5.0
        for kind, cfg in (("fkpp-rate", {"alphas": [0.0], "t_list": [1.0], "t_final": 2.0}),
                          ("tau-opt", {"v": 0.0, "t": 10.0, "margin": -1.0})):
            path.write_text(json.dumps(cfg))
            assert run_cli([kind, "--config", path, "--out", tmp_path / "x.csv"]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_every_config_field_has_a_type_check(self):
        named = {name for spec in cli._KINDS.values() for name in spec.fields}
        assert named | set(cli._DEPLOYMENT) == set(cli._FIELDS)

    # each field goes to a kind that reads it, with that kind's other settings
    FIELD_KINDS = {"input": ("fit", {}), "check": ("fit", {"input": "probe.csv"}),
                   "entries": ("sweep", {})}

    @pytest.mark.parametrize("field", [{"n_trials": 100.0}, {"workers": 1.5}, {"t": "8"},
                                       {"seed": 7.0}, {"out": 5}, {"input": 5},
                                       {"check": "yes"}, {"entries": [5]}],
                             ids=lambda f: "-".join(f))
    def test_numeric_config_field_types(self, tmp_path, capsys, field):
        # the output path comes from the file too, so {"out": 5} is not overridden
        out = tmp_path / "x.csv"
        path = tmp_path / "cfg.json"
        kind, cfg = self.FIELD_KINDS.get(next(iter(field)),
                                         ("mc_tail", {"alphas": [0.0], "t": 1.0, "n_trials": 100}))
        path.write_text(json.dumps({**cfg, "out": str(out), **field}))
        assert run_cli([kind.replace("_", "-"), "--config", path]) == 2
        assert f"{next(iter(field))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_particle_cap_exit_code(self, tmp_path):
        cfg = {"kind": "mc_tail", "alphas": [0.0], "t": 9.0, "n_trials": 100, "seed": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        # tiny cap via config file is not a field; instead horizon t=9 with the
        # default cap succeeds, so force the error through a huge horizon.  A
        # tree stops once it passes the highest threshold; near the median
        # maximum (x = 38 at t = 30) trees pass the cap long before that
        code = run_cli(
            ["mc-tail", "--alphas", 0.9, "--t", 30, "--n-trials", 100,
             "--out", tmp_path / "x.csv"]
        )
        assert code == 4

    def test_domain_overflow_exit_code(self):
        # grid overrides live at the library level; the CLI contract is the
        # mapping from DomainOverflowError to exit code 5
        from bbmlab import fkpp as fk

        err = fk.DomainOverflowError("x")
        for exc_type, code, _ in cli._EXCEPTION_EXITS:
            if isinstance(err, exc_type):
                assert code == 5
                break
        else:
            pytest.fail("DomainOverflowError has no exit-code mapping")

    def test_every_error_class_has_an_exit_code(self):
        # an error class without a row of its own in _EXCEPTION_EXITS would
        # exit 1 with a traceback, or under a class that does not name it
        import importlib
        import pkgutil

        import bbmlab

        mapped = [exc for exc, _, _ in cli._EXCEPTION_EXITS]
        for info in pkgutil.iter_modules(bbmlab.__path__):
            module = importlib.import_module(f"bbmlab.{info.name}")
            for obj in vars(module).values():
                if (isinstance(obj, type) and issubclass(obj, Exception)
                        and obj.__module__ == module.__name__):
                    assert obj in mapped or obj is cli.ConfigError, obj


class TestUnreadFields:
    """A kind refuses a setting it does not read, by every route; its manifest
    records only the fields it reads.  The lists are written out here, not
    taken from cli's tables, so that a slip in a table shows."""

    # per kind: cases that between them give a value to every field it reads,
    # besides out and workers.  A kind takes exactly one field of each group of
    # alternatives, so rate and tau_opt need a second case for the others
    EVERY_FIELD = {
        "rate": [{"alphas": [0.5]}, {"alpha_grid": [0, 0.5, 2]}],
        "tau_opt": [{"sigma2": 2.0, "v": 0.0, "t": 10.0},
                    {"sigma2": 2.0, "alphas": [0.0], "t_list": [10, 20]}],
        "fkpp_rate": [{"sigma2": 2.0, "alphas": [0.0], "t_list": [1.0], "dx": 0.2, "dt": 0.05,
                       "eps": 0.2}],
        "mc_tail": [{"sigma2": 2.0, "alphas": [0.0], "t": 1.0, "n_trials": 100, "seed": 3}],
        "scenario_lb": [{"sigma2": 2.0, "alphas": [0.0], "t": 1.0, "n_trials": 100, "seed": 3,
                         "tau": 0.5}],
        "fit": [{"input": "probe.csv", "t_list": [10, 20, 30, 40, 50], "check": True}],
        "sweep": [{"entries": [{"kind": "rate", "alphas": [0.5]}]}],
    }
    # per kind: a field it does not read, that flag which another kind offers, and a value
    UNREAD = [
        ("rate", "seed", ["--seed", 3], 3),
        ("tau_opt", "n_trials", ["--n-trials", 200], 200),
        ("fkpp_rate", "t", ["--t", 2], 2.0),
        ("mc_tail", "tau", ["--tau", 0.5], 0.5),
        ("scenario_lb", "dx", ["--dx", 0.1], 0.1),
        ("fit", "alphas", ["--alphas", 0], [0.0]),
        ("sweep", "alphas", ["--alphas", 0], [0.0]),
    ]

    @staticmethod
    def argv(tmp_path, kind, settings=None):
        """The kind's command with settings (its first case by default) set by flag, a
        sweep's by file."""
        write_probe(tmp_path / "probe.csv", slope=2.0 * RHO)
        if settings is None:
            settings = TestUnreadFields.EVERY_FIELD[kind][0]
        if kind == "sweep":
            (tmp_path / "sweep.json").write_text(json.dumps(settings))
            return ["sweep", "--config", tmp_path / "sweep.json"]
        argv = [kind.replace("_", "-")]
        for name, value in settings.items():
            argv.append("--" + name.replace("_", "-"))
            if name == "input":
                argv.append(tmp_path / value)
            elif value is not True:
                argv.extend(value if isinstance(value, list) else [value])
        return argv

    @pytest.mark.parametrize("kind", list(EVERY_FIELD))
    def test_manifest_records_only_read_fields(self, tmp_path, kind):
        # each case's manifest holds the fields it set, and over the cases the
        # kind's manifests hold no field that no case set
        out = tmp_path / "x.csv"
        base = {"kind", "out", "workers"}
        recorded, given = set(), set()
        for settings in self.EVERY_FIELD[kind]:
            assert run_cli([*self.argv(tmp_path, kind, settings), "--out", out]) == 0
            config = set(json.loads(read(str(out) + ".manifest.json"))["config"])
            assert set(settings) | base <= config
            recorded |= config
            given |= set(settings)
        assert recorded == given | base

    @pytest.mark.parametrize("kind,field,flag,value", UNREAD, ids=[k for k, *_ in UNREAD])
    def test_unread_flag_is_refused(self, tmp_path, capsys, kind, field, flag, value):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli([*self.argv(tmp_path, kind), *flag, "--out", out])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,field,flag,value", UNREAD, ids=[k for k, *_ in UNREAD])
    def test_unread_config_field_is_refused(self, tmp_path, capsys, kind, field, flag, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": kind, field: value}))
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert run_cli([*self.argv(tmp_path, kind), "--config", path, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": f"{kind} does not read ['{field}']"}
        assert not out.exists()

    @pytest.mark.parametrize("kind,field,flag,value", UNREAD[:-1], ids=[k for k, *_ in UNREAD[:-1]])
    def test_unread_sweep_entry_field_is_refused(self, tmp_path, capsys, kind, field, flag,
                                                 value):
        # each entry that sets a case of its kind runs; with the unread field it exits 2
        write_probe(tmp_path / "probe.csv", slope=2.0 * RHO)
        path = tmp_path / "sweep.json"
        for settings in self.EVERY_FIELD[kind]:
            entry = {"kind": kind, **settings}
            if kind == "fit":
                entry["input"] = str(tmp_path / "probe.csv")
            for extra, code in (({}, 0), ({field: value}, 2)):
                path.write_text(json.dumps({"entries": [{**entry, **extra}]}))
                out = tmp_path / f"{code}.csv"
                assert run_cli(["sweep", "--config", path, "--out", out]) == code
            assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
                "error": "config-invalid", "message": f"{kind} does not read ['{field}']"}
            assert not (tmp_path / "2.csv").exists()


class TestFlagPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "mc_tail", "alphas": [0.0], "t": 1.0,
                                    "n_trials": 100, "seed": 9}))
        out = tmp_path / "r.csv"
        assert run_cli(["mc-tail", "--config", path, "--alphas", -2, "--out", out]) == 0
        assert read(out).splitlines()[1].startswith("naive_tail,-2,")
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["config"]["seed"] == 9  # file value survives

    def test_workers_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out = tmp_path / "r.csv"
        assert run_cli(["rate", "--alphas", 0, "--out", out]) == 0
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["config"]["workers"] == 2

    def test_workers_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out = tmp_path / "r.csv"
        assert run_cli(["rate", "--alphas", 0, "--workers", 3, "--out", out]) == 0
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["config"]["workers"] == 3


class TestWorkerPool:
    """A run never starts more processes than it has jobs or the machine has cores."""

    @pytest.mark.parametrize("cores", [2, 64])
    def test_sweep_pool_is_bounded(self, tmp_path, monkeypatch, cores):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"entries": [{"kind": "rate", "alphas": [a]} for a in (0, 0.5)]}))
        assert run_cli(["sweep", "--config", path, "--out", tmp_path / "serial.csv"]) == 0
        started = serial_pools(monkeypatch, cores)
        assert run_cli(["sweep", "--config", path, "--workers", 10000,
                        "--out", tmp_path / "pool.csv"]) == 0
        assert started == [2]
        assert read(tmp_path / "pool.csv") == read(tmp_path / "serial.csv")

    @pytest.mark.parametrize("cores", [2, 64])
    def test_env_workers_pool_is_bounded(self, tmp_path, monkeypatch, cores):
        # at t = 2 a block holds 1024 trials, so 3000 trials are 3 jobs
        argv = ["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 3000]
        assert run_cli([*argv, "--out", tmp_path / "serial.csv"]) == 0
        started = serial_pools(monkeypatch, cores)
        monkeypatch.setenv(cli.WORKERS_ENV, "10000")
        out = tmp_path / "pool.csv"
        assert run_cli([*argv, "--out", out]) == 0
        assert started == [min(3, cores)]
        assert read(out) == read(tmp_path / "serial.csv")
        assert json.loads(read(str(out) + ".manifest.json"))["config"]["workers"] == 10000

    @pytest.mark.parametrize("cores", [2, 64])
    def test_sweep_runs_the_only_pool(self, tmp_path, monkeypatch, capsys, cores):
        # an entry's own workers would open a pool inside each of the sweep's
        entry = {"kind": "mc_tail", "alphas": [0], "t": 2, "n_trials": 3000}
        started = serial_pools(monkeypatch, cores)
        path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        path.write_text(json.dumps({"entries": [{**entry, "workers": 2}] * 2}))
        assert run_cli(["sweep", "--config", path, "--workers", 2, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid",
            "message": "sweep entries cannot set workers: the sweep runs one pool"}
        assert not out.exists() and started == []
        path.write_text(json.dumps({"entries": [entry] * 2}))
        assert run_cli(["sweep", "--config", path, "--workers", 10000, "--out", out]) == 0
        assert started == [2]

    def test_mc_tail_trial_count_is_bounded(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mc, "MAX_TRIALS", 1000)
        out = tmp_path / "mc.csv"
        assert run_cli(["mc-tail", "--alphas", 0, "--t", 1, "--n-trials", 1001, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": "n_trials must be <= 1000, got 1001"}
        assert not out.exists()

    def test_env_workers_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.WORKERS_ENV, "two")
        out = tmp_path / "r.csv"
        assert run_cli(["rate", "--alphas", 0, "--out", out]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": "$BBM_LDP_WORKERS must be an integer, got 'two'"}
        assert not out.exists()


class TestMcSubcommands:
    def test_mc_tail_row(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run_cli(
            ["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 300, "--seed", 42,
             "--out", out]
        ) == 0
        lines = read(out).splitlines()
        assert lines[0].startswith("estimator,alpha,t,x,")
        cells = lines[1].split(",")
        assert cells[0] == "naive_tail"
        assert cells[1:5] == ["0", "2", "0", "300"] and cells[9] == "42"
        assert 0.0 < float(cells[5]) < 1.0

    def test_manifests_record_sampler_stats(self, tmp_path):
        # counted by mc as the trees are simulated; one set of trees serves
        # every mc-tail threshold, each tree run until the largest decides it,
        # and scenario-lb samples one set of whole trees per alpha
        out = tmp_path / "mc.csv"
        assert run_cli(["mc-tail", "--alphas", 0, 0.5, "--t", 2, "--n-trials", 300,
                        "--seed", 42, "--out", out]) == 0
        stats = json.loads(read(str(out) + ".manifest.json"))["stats"]
        _, nf, segments = xmax_one_at_a_time(mc.SimConfig(t=2.0, seed=42), 0, 300,
                                             stop=0.5 * SQRT2 * 2.0)
        assert stats == {"trials": 300, "particle_segments": int(segments.sum()),
                         "peak_population": int(nf.max())}
        out = tmp_path / "lb.csv"
        assert run_cli(["scenario-lb", "--alphas", 0, -1, "--t", 2, "--n-trials", 300,
                        "--seed", 42, "--out", out]) == 0
        stats = json.loads(read(str(out) + ".manifest.json"))["stats"]
        nfs = [mc.sample_xmax(mc.SimConfig(t=2.0 - scen.tau, seed=42), 300)[1]
               for scen in (mc.ScenarioConfig.for_alpha(a, 2.0) for a in (0.0, -1.0))]
        assert stats["trials"] == 600
        assert stats["particle_segments"] == sum(int(2 * nf.sum() - 300) for nf in nfs)
        assert stats["peak_population"] == max(int(nf.max()) for nf in nfs)
        assert [e["alpha"] for e in stats["estimates"]] == [0.0, -1.0]

    def test_scenario_row_and_reproducibility(self, tmp_path):
        args = ["scenario-lb", "--alphas", 0, "--t", 2, "--n-trials", 300,
                "--seed", 42, "--out", tmp_path / "s1.csv"]
        assert run_cli(args) == 0
        args[-1] = tmp_path / "s2.csv"
        assert run_cli(args) == 0
        assert read(tmp_path / "s1.csv") == read(tmp_path / "s2.csv")

    def test_scenario_stderr_survives_weight_underflow(self, tmp_path):
        # the per-trial values are near e^-404, whose squares underflow
        out = tmp_path / "deep.csv"
        assert run_cli(["scenario-lb", "--alpha", -1, "--t", 200, "--n-trials", 100,
                        "--seed", 7, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["p_hat"]) > 0.0
        assert float(cols["stderr"]) > 0.0
        scen = mc.ScenarioConfig.for_alpha(-1.0, 200.0)
        xm, _ = mc.sample_xmax(mc.SimConfig(t=200.0 - scen.tau, seed=7), 100)
        logv = -scen.tau + log_normal_cdf((scen.threshold - xm) / math.sqrt(scen.tau))
        ess = math.exp(2.0 * logsumexp(logv) - logsumexp(2.0 * logv))
        assert float(cols["ess"]) == pytest.approx(ess, rel=1e-12)

    def test_scenario_deep_below_kink_above_floor(self, tmp_path):
        # no branching at all and ending below the threshold is one way to
        # realize the event: -t + ln Phi(thr / sqrt t) floors ln q
        out = tmp_path / "deep.csv"
        assert run_cli(["scenario-lb", "--alpha", -1, "--t", 200, "--n-trials", 100,
                        "--seed", 7, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        floor = -200.0 + log_normal_cdf(-SQRT2 * 200.0 / math.sqrt(200.0))
        rel_se = float(cols["stderr"]) / float(cols["p_hat"])
        assert float(cols["log_p_hat"]) >= floor - 3.0 * rel_se
        stats = json.loads(read(str(out) + ".manifest.json"))["stats"]
        assert stats["estimates"][0]["low_ess"] is False

    @pytest.mark.parametrize("alpha,t,tau,low", [(-1, 200, 190, True), (0, 8, None, False)],
                             ids=["-1-200-True", "0-8-False"])
    def test_scenario_manifest_flags_low_ess(self, tmp_path, alpha, t, tau, low):
        # at t = 200 a tree over the last 10 time units must deviate itself,
        # and two trials carry the mass (ess 2.3 of 100); at t = 8 the ess is
        # 75, enough to support a stderr
        out = tmp_path / "lb.csv"
        tau_flag = [] if tau is None else ["--tau", tau]
        assert run_cli(["scenario-lb", "--alpha", alpha, "--t", t, *tau_flag,
                        "--n-trials", 100, "--seed", 7, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        stats = json.loads(read(str(out) + ".manifest.json"))["stats"]
        assert stats["estimates"] == [
            {"alpha": float(alpha), "ess": float(cols["ess"]), "low_ess": low}
        ]


class TestSigmaScaling:
    """sigma is a unit of length: at sigma2 = 4 lengths double and nothing else moves."""

    @staticmethod
    def rows(tmp_path, argv, sigma2):
        out = tmp_path / f"sigma2-{sigma2}.csv"
        assert run_cli([*argv, "--sigma2", sigma2, "--out", out]) == 0
        header, *lines = read(out).splitlines()
        return [dict(zip(header.split(","), ln.split(","))) for ln in lines]

    @pytest.mark.parametrize("argv", [
        ["mc-tail", "--alphas", 0, -0.3, "--t", 4, "--n-trials", 3000, "--seed", 5],
        ["scenario-lb", "--alphas", 0, -1, "--t", 6, "--n-trials", 2000, "--seed", 5],
    ], ids=["mc-tail", "scenario-lb"])
    def test_mc_rows_equal_but_x_doubles(self, tmp_path, argv):
        one, four = (self.rows(tmp_path, argv, s) for s in (1, 4))
        assert len(one) == len(four) == 2
        for r1, r4 in zip(one, four):
            assert float(r4.pop("x")) == 2.0 * float(r1.pop("x"))
            assert r4 == r1

    def test_fkpp_rate_equal_at_doubled_dx_and_eps(self, tmp_path):
        argv = ["fkpp-rate", "--alphas", 0, -1, "--t-list", 1, 2, 4]
        one = self.rows(tmp_path, [*argv, "--dx", 0.1, "--eps", 0.1], 1)
        four = self.rows(tmp_path, [*argv, "--dx", 0.2, "--eps", 0.2], 4)
        assert [r["ln_u"] for r in four] == [r["ln_u"] for r in one]
        assert [float(r["x_probe"]) for r in four] == [2.0 * float(r["x_probe"]) for r in one]

    def test_tau_opt_free_of_sigma(self, tmp_path):
        argv = ["tau-opt", "--alphas", 0, -0.5, -2, "--t-list", 10, 100]
        one, four = (self.rows(tmp_path, argv, s) for s in (1, 4))
        assert len(one) == len(four) == 6
        for r1, r4 in zip(one, four):
            for col in ("tau_star", "log_value", "empirical_rate", "phi"):
                assert r4[col] == r1[col]


class TestCsvSchemas:
    ESTIMATE = "estimator,alpha,t,x,n_trials,p_hat,log_p_hat,stderr,ess,seed"

    @pytest.mark.parametrize("argv,header", [
        (["rate", "--alphas", 0, 1.5], "alpha,psi,branch_tag,chen_lower_bound"),
        (["tau-opt", "--v", 0, "--t-list", 10, 20],
         "v,sigma2,t,tau_star,tau_fraction,log_value,empirical_rate,phi"),
        (["fkpp-rate", "--alphas", 0, -0.5, "--t-list", 1, 2, "--dx", 0.2],
         "alpha,t,x_probe,ln_u,dx,dt,eps"),
        (["mc-tail", "--alphas", 0, 0.5, "--t", 1, "--n-trials", 100], ESTIMATE),
        (["scenario-lb", "--alphas", 0, -1, "--t", 1, "--n-trials", 100], ESTIMATE),
        (["fit", "--input", "PROBE"],
         "alpha,a,b,c,se_a,se_b,se_c,psi_reference,relative_slope_error,"
         "prefactor_b_reference,prefactor_sign_consistent,status"),
    ], ids=["rate", "tau-opt", "fkpp-rate", "mc-tail", "scenario-lb", "fit"])
    def test_header_matches_readme(self, tmp_path, argv, header):
        probe = tmp_path / "probe.csv"
        probe.write_text("alpha,t,x_probe,ln_u,dx,dt,eps\n" + "".join(
            f"0,{t},0,{-0.83 * t + 0.6 * math.log(t)},0.1,0.02,0.1\n" for t in (5, 10, 20, 40, 80)
        ))
        out = tmp_path / "out.csv"
        argv = [probe if a == "PROBE" else a for a in argv]
        assert run_cli([*argv, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0] == header
        assert len(lines) >= 2
        assert all(len(ln.split(",")) == header.count(",") + 1 for ln in lines[1:])


    def test_kind_fields_match_readme(self):
        # the README's list of the fields each kind reads, and its alternatives
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
            cli_section = fh.read().split("\n## CLI\n", 1)[1]
        listed = {}
        for line in re.search(r"^(\* .*\n)+", cli_section, re.M).group(0).splitlines():
            kind, fields = re.fullmatch(r"\* `([a-z-]+)`: (.*)", line).groups()
            listed[kind.replace("-", "_")] = (
                re.findall(r"`(\w+)`", fields),
                [tuple(sorted(g)) for g in re.findall(r"one of `(\w+)` or `(\w+)`", fields)])
        assert sorted(listed) == sorted(cli._KINDS)
        for kind, spec in cli._KINDS.items():
            fields, groups = listed[kind]
            assert sorted(fields) == sorted(spec.fields)
            assert sorted(groups) == sorted(tuple(sorted(g)) for g in spec.one_of)


class TestFkppAndFit:
    def test_probe_csv_then_fit_roundtrip(self, tmp_path):
        probe = tmp_path / "probe.csv"
        code = run_cli(
            ["fkpp-rate", "--alphas", 0, "--t-list", 2, 4, 6, 8, 10, "--dx", 0.2,
             "--out", probe]
        )
        assert code == 0
        rows = [ln.split(",") for ln in read(probe).splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.0, t) for t in (2, 4, 6, 8, 10)]
        fit_out = tmp_path / "fit.csv"
        assert run_cli(["fit", "--input", probe, "--out", fit_out]) == 0
        header, row = read(fit_out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["psi_reference"]) == pytest.approx(2.0 * RHO, rel=1e-12)
        assert cols["status"] in ("PASS", "FAIL")
        assert float(cols["prefactor_b_reference"]) == pytest.approx(-1.5 * RHO, rel=1e-12)
        assert cols["prefactor_sign_consistent"] in ("True", "False")

    def test_fit_check_failure_exit_code(self, tmp_path):
        # synthetic probe data with a slope far from the closed form
        probe = tmp_path / "probe.csv"
        write_probe(probe, slope=2.0)
        assert run_cli(["fit", "--input", probe, "--out", tmp_path / "f.csv",
                        "--check"]) == 6

    def test_replay_of_failed_check_exits_6(self, tmp_path, capsys):
        probe = tmp_path / "probe.csv"
        write_probe(probe, slope=2.0)
        out = tmp_path / "f.csv"
        assert run_cli(["fit", "--input", probe, "--check", "--out", out]) == 6
        capsys.readouterr()
        assert run_cli(["replay", "--manifest", str(out) + ".manifest.json"]) == 6
        assert read(tmp_path / "f.csv.replay.csv") == read(out)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [json.loads(ln)["error"] for ln in err.splitlines()] == ["acceptance-fail"]

    def test_replay_of_fit_from_another_directory(self, tmp_path, monkeypatch, capsys):
        # the manifest records --input relative to itself, as the README's
        # `fit --input tails.csv` run in the CSVs' directory does
        sub = tmp_path / "sub"
        sub.mkdir()
        write_probe(sub / "tails.csv", slope=2.0 * RHO)
        monkeypatch.chdir(sub)
        assert run_cli(["fit", "--input", "tails.csv", "--out", "report.csv"]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run_cli(["replay", "--manifest", "sub/report.csv.manifest.json"]) == 0
        assert "matches recorded sha256" in capsys.readouterr().out
        assert read(sub / "report.csv.replay.csv") == read(sub / "report.csv")
        # and the replay's own manifest replays from its directory
        monkeypatch.chdir(sub)
        assert run_cli(["replay", "--manifest", "report.csv.replay.csv.manifest.json"]) == 0
        # so do the fit entries of a sweep
        (sub / "sweep.json").write_text(json.dumps({"entries": [{"kind": "fit", "input": "tails.csv"}]}))
        assert run_cli(["sweep", "--config", "sweep.json", "--out", "sweep.csv"]) == 0
        monkeypatch.chdir(tmp_path)
        assert run_cli(["replay", "--manifest", "sub/sweep.csv.manifest.json"]) == 0
        assert read(sub / "sweep.csv.replay.csv") == read(sub / "report.csv")

    def test_fit_exact_synthetic_recovery(self, tmp_path):
        probe = tmp_path / "probe.csv"
        lines = ["alpha,t,x_probe,ln_u,dx,dt,eps"]
        a_true = 0.8284271247461903
        for t in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]:
            ln_u = -(a_true * t - 0.6213 * math.log(t) + 1.0)
            lines.append(f"0,{t},0,{ln_u!r},0.1,0.001,0.1")
        probe.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        assert run_cli(["fit", "--input", probe, "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["relative_slope_error"]) < 1e-9
        assert cols["status"] == "PASS"

    @pytest.mark.parametrize("content,message", [("\n\n", "empty file"), (None, "No such file")],
                             ids=["empty", "missing"])
    def test_fit_unreadable_input(self, tmp_path, capsys, content, message):
        probe = tmp_path / "probe.csv"
        if content is not None:
            probe.write_text(content)
        out = tmp_path / "report.csv"
        assert run_cli(["fit", "--input", probe, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid" and message in err["message"]
        assert not out.exists()

    def test_fit_missing_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert run_cli(["fit", "--input", bad, "--out", tmp_path / "f.csv"]) == 2
        # a row shorter than the header lacks the ln_u cell
        bad.write_text("alpha,t,x_probe,ln_u,dx,dt,eps\n0,10,0\n")
        capsys.readouterr()
        assert run_cli(["fit", "--input", bad, "--out", tmp_path / "f.csv"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid" and "line 2" in err["message"]

    def test_fit_t_list_keeps_only_listed_rows(self, tmp_path):
        # rows at t = 30, 50, 70 sit 40 units off the line; --t-list drops them
        a_true = 2.0 * RHO
        lines = ["alpha,t,x_probe,ln_u,dx,dt,eps"]
        for t in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0):
            ln_u = -(a_true * t - 0.6 * math.log(t) + 1.0) + (40.0 if t in (30, 50, 70) else 0.0)
            lines.append(f"0,{t},0,{ln_u!r},0.1,0.001,0.1")
        probe = tmp_path / "probe.csv"
        probe.write_text("\n".join(lines) + "\n")
        out = tmp_path / "f.csv"
        assert run_cli(["fit", "--input", probe, "--check", "--out", out]) == 6
        assert run_cli(["fit", "--input", probe, "--check", "--t-list", 10, 20, 40, 60, 80,
                        "--out", out]) == 0
        header, row = read(out).splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["relative_slope_error"]) < 1e-9
        assert cols["status"] == "PASS"
        # four listed rows are too few for a three-parameter fit
        assert run_cli(["fit", "--input", probe, "--t-list", 10, 20, 40, 80,
                        "--out", tmp_path / "g.csv"]) == 2

    def test_fit_rejects_mc_tail_csv(self, tmp_path, capsys):
        mc_csv = tmp_path / "mc.csv"
        assert run_cli(["mc-tail", "--alphas", 0, "--t", 2, "--n-trials", 200, "--seed", 1,
                        "--out", mc_csv]) == 0
        capsys.readouterr()
        assert run_cli(["fit", "--input", mc_csv, "--out", tmp_path / "f.csv"]) == 2
        assert "missing columns ['ln_u']" in capsys.readouterr().err

    def test_manifest_records_solver_stats(self, tmp_path):
        probe = tmp_path / "probe.csv"
        assert run_cli(["fkpp-rate", "--alphas", 0, "--t-list", 1, 2, "--dx", 0.2,
                        "--out", probe]) == 0
        stats = json.loads(read(str(probe) + ".manifest.json"))["stats"]
        assert stats["steps"] == 100  # t = 2 in steps of the default 0.02
        assert 0.0 <= stats["max_violation"] <= fkpp.MONO_TOL
        assert stats["grid_points"] > 0

    def test_fit_alpha_beyond_psi_is_config_invalid(self, tmp_path, capsys):
        # psi_reference was inf and relative_slope_error nan, with exit 0
        probe = tmp_path / "deep.csv"
        probe.write_text("alpha,t,x_probe,ln_u,dx,dt,eps\n" + "".join(
            f"-1e300,{t},0,{-t},0.1,0.02,0.1\n" for t in (10, 20, 30, 40, 50)))
        assert run_cli(["fit", "--input", probe, "--out", tmp_path / "f.csv"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "config-invalid", "message": "psi overflows a float at alpha=-1e+300"}
        assert not (tmp_path / "f.csv").exists()

    def test_manifest_records_point_steps(self, tmp_path):
        # the cells the solve stepped, summed over its steps: before t = 1 the
        # window leaves out the cells left of -30 sigma sqrt(1) - 10 sigma
        probe = tmp_path / "probe.csv"
        assert run_cli(["fkpp-rate", "--alphas", 0, "--t-list", 1, 4, "--dx", 0.2,
                        "--out", probe]) == 0
        stats = json.loads(read(str(probe) + ".manifest.json"))["stats"]
        res = fkpp.solve(ModelParams(), 4.0, probes=[(0.0, 1.0), (0.0, 4.0)], dx=0.2,
                         track_front=False)
        assert stats["point_steps"] == res.point_steps
        assert stats["point_steps"] < stats["grid_points"] * stats["steps"]

    def test_fit_insufficient_samples(self, tmp_path):
        probe = tmp_path / "probe.csv"
        probe.write_text(
            "alpha,t,x_probe,ln_u,dx,dt,eps\n0,10,0,-8,0.1,0.001,0.1\n0,20,0,-16,0.1,0.001,0.1\n"
        )
        assert run_cli(["fit", "--input", probe, "--out", tmp_path / "f.csv"]) == 2

    @pytest.mark.parametrize("t,ln_u", [("30", "nan"), ("30", "-inf"), ("30", "inf"),
                                        ("-50", "-20"), ("0", "-1"), ("nan", "-20")])
    def test_fit_rejects_bad_probe_cells(self, tmp_path, capsys, t, ln_u):
        # one bad row among good ones: the fit refuses it instead of writing
        # a NaN row or handing LAPACK a NaN design matrix
        probe = tmp_path / "probe.csv"
        write_probe(probe, slope=0.8)
        probe.write_text(read(probe) + f"-0.5,{t},0,{ln_u},0.1,0.001,0.1\n")
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert run_cli(["fit", "--input", probe, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert [json.loads(ln)["error"] for ln in err.splitlines()] == ["config-invalid"]
        assert "alpha=-0.5" in err


class TestSweepAndReplay:
    def test_sweep_concatenates_in_order(self, tmp_path):
        cfg = {
            "kind": "sweep",
            "entries": [
                {"kind": "rate", "alphas": [0.0]},
                {"kind": "rate", "alphas": [-2.0, 0.5]},
            ],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", path, "--out", out]) == 0
        lines = read(out).splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("0,") and lines[2].startswith("-2,")

    def test_sweep_parallel_matches_serial(self, tmp_path):
        cfg = {
            "kind": "sweep",
            "entries": [{"kind": "rate", "alphas": [a]} for a in (-1.0, 0.0, 0.5)],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli(["sweep", "--config", path, "--out", out1]) == 0
        assert run_cli(["sweep", "--config", path, "--workers", 3, "--out", out2]) == 0
        assert read(out1) == read(out2)

    def test_sweep_with_failing_check_writes_every_row(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_probe(good, slope=2.0 * RHO)
        write_probe(bad, slope=2.0)
        cfg = {"entries": [{"kind": "fit", "input": str(good)},
                           {"kind": "fit", "input": str(bad), "check": True},
                           {"kind": "fit", "input": str(good)}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert run_cli(["sweep", "--config", path, "--out", out1]) == 6
        assert run_cli(["sweep", "--config", path, "--workers", 2, "--out", out2]) == 6
        body = read(out1)
        assert body == read(out2)
        assert [ln.rsplit(",", 1)[1] for ln in body.splitlines()[1:]] == ["PASS", "FAIL", "PASS"]
        manifest = json.loads(read(str(out1) + ".manifest.json"))
        assert manifest["csv_sha256"] == sha256_text(body)

    def test_sweep_rejects_mixed_kinds(self, tmp_path):
        cfg = {
            "kind": "sweep",
            "entries": [{"kind": "rate", "alphas": [0.0]},
                        {"kind": "tau_opt", "v": 0.0, "t": 10.0}],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["sweep", "--config", path, "--out", tmp_path / "x.csv"]) == 2

    def test_replay_byte_identical(self, tmp_path):
        out = tmp_path / "tau.csv"
        assert run_cli(["tau-opt", "--v", 0, "--t", 50, "--out", out]) == 0
        manifest_path = str(out) + ".manifest.json"
        assert run_cli(["replay", "--manifest", manifest_path]) == 0
        replay_csv = str(out)[: -len(".csv")] + ".csv.replay.csv"
        # replay writes <manifest minus suffix>.replay.csv next to the original
        produced = manifest_path[: -len(".manifest.json")] + ".replay.csv"
        assert read(out) == read(produced)

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        run_cli(["rate", "--alphas", 0, "--out", out])
        manifest_path = str(out) + ".manifest.json"
        manifest = json.loads(read(manifest_path))
        manifest["csv_sha256"] = "0" * 64
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert run_cli(["replay", "--manifest", manifest_path]) == 6
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "acceptance-fail"
        assert "replay mismatch" in json.loads(line)["message"]

    def test_tampered_replay_of_failed_check_reports_the_mismatch(self, tmp_path, capsys):
        probe = tmp_path / "probe.csv"
        write_probe(probe, slope=2.0)
        out = tmp_path / "f.csv"
        assert run_cli(["fit", "--input", probe, "--check", "--out", out]) == 6
        manifest_path = str(out) + ".manifest.json"
        manifest = json.loads(read(manifest_path))
        manifest["csv_sha256"] = "0" * 64
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert run_cli(["replay", "--manifest", manifest_path]) == 6
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "acceptance-fail"
        assert "replay mismatch" in json.loads(line)["message"]

    def test_replay_writes_beside_a_manifest_of_any_name(self, tmp_path, monkeypatch):
        out = tmp_path / "rate.csv"
        run_cli(["rate", "--alphas", 0, "--out", out])
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "m.json").write_text(read(str(out) + ".manifest.json"))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["replay", "--manifest", os.path.join("sub", "m.json")]) == 0
        assert read(tmp_path / "sub" / "m.json.replay.csv") == read(out)
        assert sorted(os.listdir(tmp_path / "sub")) == [
            "m.json", "m.json.replay.csv", "m.json.replay.csv.manifest.json"]
        assert sorted(os.listdir(tmp_path)) == ["rate.csv", "rate.csv.manifest.json", "sub"]

    def test_replay_refuses_other_version(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        run_cli(["rate", "--alphas", 0, "--out", out])
        manifest_path = str(out) + ".manifest.json"
        manifest = json.loads(read(manifest_path))
        # 0.3.0 is the release before the PDE lattice moved to pass through x = 0;
        # every 0.4.0 manifest holds the retired margin field, refused by version;
        # 0.5.0 computed ln Phi, the short-step heat kernel and log-sum-exps with SciPy;
        # 0.6.0 put tau-opt's endpoint margin in x units and clipped every PDE tail at -700;
        # 0.7.0 found tau-opt's tau_star by golden-section search;
        # 0.8.0 wrote fkpp-rate's x_probe as (t alpha) sqrt(2 sigma2);
        # 0.9.0 bracketed tau-opt's tau_star with a 2048-point scan;
        # 0.10.0 recorded every kind's fields and a top-level seed in every manifest;
        # 0.11.0 lost the inverse Mills ratio's precision in tau-opt's slope below z = -20
        manifest["config"]["margin"] = -1.0
        for version in ("0.0.1", "0.3.0", "0.4.0", "0.5.0", "0.6.0", "0.7.0", "0.8.0", "0.9.0",
                        "0.10.0", "0.11.0"):
            manifest["version"] = version
            with open(manifest_path, "w") as fh:
                json.dump(manifest, fh)
            capsys.readouterr()
            assert run_cli(["replay", "--manifest", manifest_path]) == 6
            err = capsys.readouterr().err
            assert version in err and cli.__version__ in err
        assert not (tmp_path / "rate.csv.replay.csv").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("csv_sha256"), "['csv_sha256']"),
        (lambda m: m.pop("config"), "['config']"),
        (None, "expected a JSON object"),
        (lambda m: m.update(config=[m["config"]]), "config must be a JSON object"),
        (lambda m: m["config"].pop("kind"), "config requires 'kind'"),
        (lambda m: m["config"].update(kind="bogus"), "unknown kind 'bogus'"),
    ], ids=["no-csv-sha256", "no-config", "not-an-object", "config-not-an-object",
            "config-without-kind", "unknown-kind"])
    def test_malformed_manifest_is_config_invalid(self, tmp_path, capsys, edit, message):
        out = tmp_path / "rate.csv"
        run_cli(["rate", "--alphas", 0, "--out", out])
        manifest_path = str(out) + ".manifest.json"
        manifest = json.loads(read(manifest_path))
        if edit is None:
            manifest = [manifest]
        else:
            edit(manifest)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        assert run_cli(["replay", "--manifest", manifest_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-invalid" and message in err["message"]
        assert not (tmp_path / "rate.csv.replay.csv").exists()


class TestProcess:
    def test_cached_parser_carries_nothing_between_calls(self, tmp_path):
        # the parser is built once per process; a seed parsed by one call must
        # not reach a later call that omits it
        out = tmp_path / "mc.csv"
        mc_args = ["mc-tail", "--alpha", 0, "--t", 1, "--n-trials", 100, "--out", out]
        assert run_cli(mc_args + ["--seed", 5]) == 0
        assert run_cli(["rate", "--alphas", 0, "--out", tmp_path / "rate.csv"]) == 0
        assert run_cli(mc_args) == 0
        in_process = json.loads(read(str(out) + ".manifest.json"))
        subprocess.run(
            [sys.executable, "-m", "bbmlab.cli", *map(str, mc_args)],
            check=True, env=SRC_ENV,
        )
        fresh = json.loads(read(str(out) + ".manifest.json"))
        assert in_process["config"] == fresh["config"]
        assert in_process["config"]["seed"] == 1
        assert in_process["csv_sha256"] == fresh["csv_sha256"]

    def test_import_loads_no_scipy(self):
        # nor multiprocessing, which only a pool of --workers > 1 needs
        code = ("import bbmlab.cli, sys; "
                "print([m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'multiprocessing', 'concurrent')])")
        done = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True,
            env=SRC_ENV,
        )
        assert done.stdout.strip() == "[]"
