"""Command-line harness: rate tables, tau optimization, PDE and MC runs, fits.

The CLI computes nothing itself; every number in an output file comes from
an operation in rates, varopt, fkpp or mc.  Of those, only fkpp takes
sigma2: rates, varopt and mc work in alpha and in lengths of one sigma, and
the CLI converts (x = sigma x_1, and tau-opt's v = alpha sqrt(2 sigma2)).
The CLI alone knows the CSV formats: one header constant per output, rows
written by serialize.csv_lines.  Each kind reads the fields that _KINDS
lists for it, plus `out` and `workers`; a setting it does not read is a
config error.  Each run writes a CSV plus a sibling manifest
(<out>.manifest.json) recording the resolved config (those fields only),
package version, run statistics, timings and environment; `replay` reruns a
manifest written by the same package version and verifies the CSV body is
byte-identical.

Exit codes: 0 ok, 2 config-invalid, 3 solver-instability, 4 particle-cap,
5 domain-overflow, 6 check-failed (fit --check and replay mismatches).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .model import SQRT2, ModelParams
from . import fkpp, mc, rates, varopt
from .serialize import csv_lines, sha256_text

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSTABILITY = 3
EXIT_PARTICLE_CAP = 4
EXIT_DOMAIN = 5
EXIT_CHECK_FAILED = 6

WORKERS_ENV = "BBM_LDP_WORKERS"

SLOPE_TOLERANCE = 0.05  # acceptance tolerance for |a - psi| / psi in fit reports


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # a JSON integer beyond the largest float would overflow in the run
    return (_is_int(x) and abs(x) <= sys.float_info.max) or isinstance(x, float)


def _is_number_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_number, x))


def _is_object_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, dict) for e in x)


class _Field(NamedTuple):
    check: Callable[[object], bool]  # the field's domain; None passes where the default is None
    expected: str  # the domain, as "<field> must be <expected>" names it
    flag: dict | None  # argparse options of its flag ("flags": names); None: config files only


_INT = _Field(_is_int, "an integer", {"type": int})
_NUMBER = _Field(_is_number, "a number", {"type": float})
_NUMBERS = _Field(_is_number_list, "a list of numbers", {"type": float, "nargs": "+"})
_STR = _Field(lambda x: isinstance(x, str), "a string", {})

_MAX_ALPHA_GRID = 1 << 20  # rows of a rate --alpha-grid

# every setting of every kind: its whole domain, and how to set it by flag (the
# rules between fields are _config's)
_FIELDS = {
    **dict.fromkeys(("n_trials", "seed"), _INT),
    **dict.fromkeys(("t", "dx", "dt", "eps", "tau"), _NUMBER),
    "sigma2": _NUMBER._replace(check=lambda x: _is_number(x) and 0 < x < math.inf,
                               expected="a finite number > 0"),
    "v": _NUMBER._replace(check=lambda x: _is_number(x) and -math.inf < x < math.inf,
                          expected="a finite number"),
    "alphas": _NUMBERS._replace(flag={**_NUMBERS.flag, "flags": ("--alphas", "--alpha")}),
    "t_list": _NUMBERS._replace(
        check=lambda x: _is_number_list(x) and x != [] and all(a < b for a, b in zip(x, x[1:])),
        expected="a non-empty, strictly increasing list of numbers"),
    "alpha_grid": _Field(
        lambda x: _is_number_list(x) and len(x) == 3 and 1 <= x[2] <= _MAX_ALPHA_GRID
        and x[2] % 1 == 0,
        f"[min, max, count] with an integer count from 1 to {_MAX_ALPHA_GRID}",
        {"type": float, "nargs": 3, "metavar": ("MIN", "MAX", "COUNT")}),
    "input": _STR._replace(flag={"help": "probe CSV from fkpp-rate"}),
    "check": _Field(lambda x: isinstance(x, bool), "a boolean", {
        "action": "store_true",
        "help": "exit 6 when any relative slope error exceeds tolerance"}),
    "entries": _Field(_is_object_list, "a list of JSON objects", None),
    "out": _STR,
    "workers": _Field(lambda x: _is_int(x) and x >= 1, "an integer >= 1", {
        "type": int, "help": f"worker count (default from ${WORKERS_ENV} or 1)"}),
}


def _flags(name: str) -> tuple[str, ...]:
    return _FIELDS[name].flag.get("flags", ("--" + name.replace("_", "-"),))


def _setting(name: str) -> str:
    """How an error message names a field: its flag, or its config key."""
    return _flags(name)[0] if _FIELDS[name].flag is not None else f"config {name}"


# -- CSV schemas: one header per output, rows written by serialize.csv_lines ----

RATE_CSV_HEADER = "alpha,psi,branch_tag,chen_lower_bound"
TAU_CSV_HEADER = "v,sigma2,t,tau_star,tau_fraction,log_value,empirical_rate,phi"
PROBE_CSV_HEADER = "alpha,t,x_probe,ln_u,dx,dt,eps"
ESTIMATE_CSV_HEADER = "estimator,alpha,t,x,n_trials,p_hat,log_p_hat,stderr,ess,seed"
FIT_CSV_HEADER = (
    "alpha,a,b,c,se_a,se_b,se_c,psi_reference,relative_slope_error,"
    "prefactor_b_reference,prefactor_sign_consistent,status"
)


def _estimate_row(name: str, alpha: float, t: float, x: float, est: mc.Estimate) -> tuple:
    return (name, alpha, t, x, est.n_trials, est.p_hat, est.log_p_hat, est.stderr, est.ess,
            est.seed)


# -- experiment runners (one per kind, each returns an Output) -------------------


class Output(NamedTuple):
    lines: list[str]  # CSV header and rows
    stats: dict  # recorded under the manifest's "stats"
    check_failed: bool = False  # a fit --check found a slope outside tolerance


def _run_rate(cfg: SimpleNamespace) -> Output:
    alphas = cfg.alphas
    if cfg.alpha_grid:
        lo, hi, count = cfg.alpha_grid
        step = (hi - lo) / (count - 1) if count > 1 else 0.0
        alphas = [lo + i * step for i in range(int(count))]
    rows = []
    for a in alphas:
        val = rates.psi(a)
        chen = rates.chen_lower_bound(a) if a < 1.0 else float("nan")
        rows.append((a, val.rate, val.branch_tag.name, chen))
    return Output(csv_lines(RATE_CSV_HEADER, rows), {})


def _run_tau_opt(cfg: SimpleNamespace) -> Output:
    crit = math.sqrt(2.0 * cfg.sigma2)
    if cfg.v is not None:
        pairs = [(cfg.v, cfg.v / crit)]
    else:
        pairs = [(a * crit, a) for a in cfg.alphas]
    ts = cfg.t_list if cfg.t_list is not None else [cfg.t]
    rows = []
    for v, alpha in pairs:
        ref = rates.psi(alpha).rate
        for t in ts:
            opt = varopt.maximize(varopt.ObjectiveSpec(alpha=alpha, t=float(t)))
            rows.append((v, cfg.sigma2, t, opt.tau_star, opt.tau_star / t,
                         opt.log_value, opt.empirical_rate, ref))
    return Output(csv_lines(TAU_CSV_HEADER, rows), {})


def _run_fkpp_rate(cfg: SimpleNamespace) -> Output:
    params = ModelParams(sigma2=cfg.sigma2)
    probes = [(a, t) for a in cfg.alphas for t in cfg.t_list]
    result = fkpp.solve(
        params, max(cfg.t_list), probes=probes, dx=cfg.dx, dt=cfg.dt,
        smoothing_eps=cfg.eps, track_front=False,
    )
    grid = result.grid
    rows = [
        (series.alpha, t, xp, lu, grid.dx, grid.dt, result.smoothing_eps)
        for series in result.tails
        for t, xp, lu in zip(series.times, series.x_probe, series.log_u)
    ]
    stats = {
        "grid_points": grid.n_points,
        "steps": result.steps,
        "max_violation": result.max_violation,
    }
    return Output(csv_lines(PROBE_CSV_HEADER, rows), stats)


def _run_mc_tail(cfg: SimpleNamespace) -> Output:
    sigma = math.sqrt(cfg.sigma2)
    config = mc.SimConfig(t=cfg.t, seed=cfg.seed)
    xs = [a * SQRT2 * cfg.t for a in cfg.alphas]  # in sigma units
    # one set of trials serves every threshold
    ests = mc.estimate_tail(config, xs, cfg.n_trials, n_workers=cfg.workers)
    rows = [_estimate_row("naive_tail", a, cfg.t, sigma * x, est)
            for a, x, est in zip(cfg.alphas, xs, ests)]
    return Output(csv_lines(ESTIMATE_CSV_HEADER, rows), asdict(ests[0].sampler))


def _run_scenario_lb(cfg: SimpleNamespace) -> Output:
    sigma = math.sqrt(cfg.sigma2)
    config = mc.SimConfig(t=cfg.t, seed=cfg.seed)
    rows, estimates, samplers = [], [], []
    for a in cfg.alphas:
        scen = mc.ScenarioConfig.for_alpha(a, cfg.t)
        if cfg.tau is not None:
            scen = mc.ScenarioConfig(tau=cfg.tau, threshold=scen.threshold)
        est = mc.scenario_estimate(config, scen, cfg.n_trials, n_workers=cfg.workers)
        rows.append(_estimate_row("scenario_lb", a, cfg.t, sigma * scen.threshold, est))
        samplers.append(est.sampler)
        estimates.append({"alpha": a, "ess": est.ess, "low_ess": est.low_ess})
    stats = {"estimates": estimates, **asdict(mc.SamplerStats.total(samplers))}
    return Output(csv_lines(ESTIMATE_CSV_HEADER, rows), stats)


def _read_probe_csv(path: str) -> dict[float, tuple[list[float], list[float]]]:
    with open(path) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = lines[0][1].split(",")
    required = ["alpha", "t", "ln_u"]
    missing = [col for col in required if col not in header]
    if missing:
        raise ConfigError(f"{path}: missing columns {missing}")
    ia, it, iu = (header.index(c) for c in required)
    series: dict[float, tuple[list[float], list[float]]] = {}
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) < len(header):
            raise ConfigError(
                f"{path}: line {n} has {len(parts)} cells, fewer than the header's {len(header)}"
            )
        a, t, lu = float(parts[ia]), float(parts[it]), float(parts[iu])
        series.setdefault(a, ([], []))[0].append(t)
        series[a][1].append(lu)
    return series


def _run_fit(cfg: SimpleNamespace) -> Output:
    series = _read_probe_csv(cfg.input)
    rows = []
    prefactor_ref = -rates.prefactor_exponent()
    any_fail = False
    for a in sorted(series):
        ts, lus = series[a]
        if cfg.t_list is not None:
            keep = [(t, lu) for t, lu in zip(ts, lus) if any(abs(t - tt) < 1e-9 for tt in cfg.t_list)]
            ts = [t for t, _ in keep]
            lus = [lu for _, lu in keep]
        try:
            fit = fkpp.fit_tail_series(ts, lus)
        except ValueError as exc:
            raise ConfigError(f"alpha={a}: {exc}") from exc
        # reference always recomputed from the closed form, never read from files
        psi_ref = rates.psi(a).rate
        rel = abs(fit.a - psi_ref) / psi_ref if psi_ref > 0 else float("inf")
        status = "PASS" if rel <= SLOPE_TOLERANCE else "FAIL"
        any_fail = any_fail or status == "FAIL"
        # soft diagnostic only: the conjectured prefactor fixes the sign of b
        sign_consistent = (fit.b < 0.0) == (prefactor_ref < 0.0)
        rows.append((a, fit.a, fit.b, fit.c, fit.se_a, fit.se_b, fit.se_c, psi_ref, rel,
                     prefactor_ref, sign_consistent, status))
    return Output(csv_lines(FIT_CSV_HEADER, rows), {}, check_failed=cfg.check and any_fail)


def _run_sweep(cfg: SimpleNamespace) -> Output:
    kinds = {e.get("kind") for e in cfg.entries}
    if len(kinds) != 1:
        raise ConfigError("sweep entries must all share one kind")
    if kinds == {"sweep"}:
        raise ConfigError("sweep entries cannot be sweeps")
    for name, why in (("out", "the sweep writes one CSV"), ("workers", "the sweep runs one pool")):
        if any(name in e for e in cfg.entries):
            raise ConfigError(f"sweep entries cannot set {name}: {why}")
    jobs = [(_config(e),) for e in cfg.entries]
    results = mc.run_jobs(_KINDS[kinds.pop()].run, jobs, cfg.workers)
    # one kind, so one header: concatenate bodies in config order under it
    lines = [results[0].lines[0]]
    for res in results:
        lines.extend(res.lines[1:])
    return Output(lines, {"entries": [res.stats for res in results]},
                  check_failed=any(res.check_failed for res in results))


# -- kinds: the fields each reads, and config plumbing ------------------------------

_REQUIRED = object()  # in place of a default: the kind cannot run without the field


class _Kind(NamedTuple):
    run: Callable[[SimpleNamespace], Output]
    help: str
    fields: dict  # each field the kind reads -> its default, or _REQUIRED
    one_of: tuple = ()  # groups of alternative fields, of which exactly one must be set


_MC_FIELDS = {"sigma2": 1.0, "alphas": _REQUIRED, "t": _REQUIRED, "n_trials": 10000, "seed": 1}

_KINDS = {
    "rate": _Kind(_run_rate, "closed-form rate table / curve points",
                  {"alphas": [], "alpha_grid": None}, one_of=(("alphas", "alpha_grid"),)),
    "tau_opt": _Kind(_run_tau_opt, "optimize the first-branch time",
                     {"sigma2": 1.0, "alphas": [], "v": None, "t": None, "t_list": None},
                     one_of=(("v", "alphas"), ("t", "t_list"))),
    "fkpp_rate": _Kind(_run_fkpp_rate, "PDE tail probes along alpha rays",
                       {"sigma2": 1.0, "alphas": _REQUIRED, "t_list": _REQUIRED,
                        "dx": 0.05, "dt": None, "eps": None}),
    "mc_tail": _Kind(_run_mc_tail, "naive Monte Carlo tail estimate", _MC_FIELDS),
    "scenario_lb": _Kind(_run_scenario_lb, "no-early-branching lower bound",
                         {**_MC_FIELDS, "tau": None}),
    "sweep": _Kind(_run_sweep, "run a list of config entries, one CSV", {"entries": _REQUIRED}),
    "fit": _Kind(_run_fit, "slope fits of -ln u with pass/fail report",
                 {"input": _REQUIRED, "t_list": None, "check": False}),
}

# read by every kind; neither changes an output
_DEPLOYMENT = {"out": None, "workers": 1}

_LOWER_KINDS = ("tau_opt", "fkpp_rate", "mc_tail", "scenario_lb")


def _read_json_object(path: str) -> dict:
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return d


def _config(d: dict) -> SimpleNamespace:
    """The checked config of one run: d's kind, and its fields over their defaults."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" not in d:
        raise ConfigError("config requires 'kind'")
    kind = d["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"unknown kind {kind!r}")
    spec = _KINDS[kind]
    defaults = {**spec.fields, **_DEPLOYMENT}
    unread = sorted(set(d) - set(defaults) - {"kind"})
    if unread:
        raise ConfigError(f"{kind} does not read {unread}")
    cfg = {}
    for name, default in defaults.items():
        value = cfg[name] = d.get(name, None if default is _REQUIRED else default)
        check, expected, _ = _FIELDS[name]
        if name in d and not check(value) and not (value is None and default in (None, _REQUIRED)):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
    required = tuple(name for name, default in spec.fields.items() if default is _REQUIRED)
    for group, met, joiner in [(required, all, " and "), *((g, any, " or ") for g in spec.one_of)]:
        if not met(cfg[name] not in (None, []) for name in group):
            raise ConfigError(f"{kind} requires {joiner.join(map(_setting, group))}")
    for group in spec.one_of:
        if all(cfg[name] not in (None, []) for name in group):
            raise ConfigError(f"{kind} takes {' or '.join(map(_setting, group))}, not both")
    if kind in _LOWER_KINDS and not all(math.isfinite(a) and a < 1.0 for a in cfg["alphas"]):
        raise ConfigError("lower-deviation kinds require finite alphas < 1")
    if cfg.get("v") is not None and not cfg["v"] < (crit := math.sqrt(2.0 * cfg["sigma2"])):
        raise ConfigError(f"tau_opt requires v < sqrt(2 sigma2) = {crit!r}")
    return SimpleNamespace(kind=kind, **cfg)


def run(cfg: SimpleNamespace, expected_sha256: str | None = None) -> int:
    """Execute one experiment: write CSV and manifest, return an exit code.

    A failed fit check exits 6 after writing every row.  With expected_sha256
    (a replay), a CSV body of another hash exits 6 as well.
    """
    if cfg.out is None:
        raise ConfigError("an output path is required (--out)")
    started = time.perf_counter()
    res = _KINDS[cfg.kind].run(cfg)
    sha = _write_outputs(cfg, res, started)
    code = EXIT_OK
    if res.check_failed:
        _emit_error("acceptance-fail", "fit check failed (relative slope error above tolerance)")
        code = EXIT_CHECK_FAILED
    if expected_sha256 is not None:
        if sha != expected_sha256:
            _emit_error("acceptance-fail",
                        f"replay mismatch: sha256 {sha} != recorded {expected_sha256}")
            return EXIT_CHECK_FAILED
        print(f"replay ok: {cfg.out} matches recorded sha256")
    return code


def _write_outputs(cfg: SimpleNamespace, res: Output, started: float) -> str:
    """Write the CSV and its manifest; return the body's sha256."""
    body = "\n".join(res.lines) + "\n"
    sha = sha256_text(body)
    out_dir = os.path.dirname(os.path.abspath(cfg.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(cfg.out, "w") as fh:
        fh.write(body)
    manifest = {
        "version": __version__,
        "config": _move_inputs({k: v for k, v in vars(cfg).items() if v is not None},
                               lambda path: os.path.relpath(path, out_dir)),
        "csv_path": os.path.basename(cfg.out),
        "csv_sha256": sha,
        "stats": res.stats,
        "timings": {"wall_s": time.perf_counter() - started},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "platform": f"{platform.system()}-{platform.machine()}", "cores": os.cpu_count()},
    }
    with open(cfg.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return sha


def _move_inputs(config, move):
    """config with move applied to its fit input and its entries' fit inputs.

    A manifest records input paths relative to its own directory, and replay
    resolves them there, so a replay does not depend on the current directory.
    """
    if not isinstance(config, dict):
        return config
    moved = dict(config)
    if isinstance(moved.get("input"), str):
        moved["input"] = move(moved["input"])
    if isinstance(moved.get("entries"), list):
        moved["entries"] = [_move_inputs(e, move) for e in moved["entries"]]
    return moved


def _replay(manifest_path: str, out: str | None) -> int:
    manifest = _read_json_object(manifest_path)
    recorded = manifest.get("version")
    if recorded != __version__:
        _emit_error(
            "acceptance-fail",
            f"replay refused: manifest written by bbmlab {recorded}, "
            f"this is bbmlab {__version__}; rerun it with the version that wrote it",
        )
        return EXIT_CHECK_FAILED
    missing = [key for key in ("config", "csv_sha256") if key not in manifest]
    if missing:
        raise ConfigError(f"{manifest_path}: manifest lacks {missing}")
    base = os.path.dirname(manifest_path)
    cfg = _config(_move_inputs(manifest["config"], lambda path: os.path.join(base, path)))
    cfg.out = out or (manifest_path[: -len(".manifest.json")] + ".replay.csv")
    return run(cfg, expected_sha256=manifest["csv_sha256"])


def _emit_error(category: str, message: str) -> None:
    print(json.dumps({"error": category, "message": message}), file=sys.stderr)


# -- argument parsing -----------------------------------------------------------


@functools.cache  # built once per process; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbmlab",
        description=(
            "Deviation-rate laboratory for the rightmost particle of a branching "
            "Brownian motion. Precedence for every setting: flags > --config file "
            "> built-in defaults."
        ),
    )
    parser.add_argument("--version", action="version", version=f"bbmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, spec in _KINDS.items():
        # no abbreviations: --t would be --t-list where the kind does not read t
        sp = sub.add_parser(kind.replace("_", "-"), help=spec.help, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for name in (*spec.fields, *_DEPLOYMENT):
            opts = _FIELDS[name].flag
            if opts is not None:
                opts = {k: v for k, v in opts.items() if k != "flags"}
                sp.add_argument(*_flags(name), dest=name, default=None, **opts)

    sp = sub.add_parser("replay", help="rerun a manifest and verify the CSV")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", default=None)
    return parser


_EXCEPTION_EXITS = [
    (fkpp.DomainOverflowError, EXIT_DOMAIN, "domain-overflow"),
    (fkpp.SolverInstabilityError, EXIT_INSTABILITY, "solver-instability"),
    (mc.ParticleCapError, EXIT_PARTICLE_CAP, "particle-cap"),
    (ValueError, EXIT_CONFIG, "config-invalid"),
]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _replay(args.manifest, args.out)
        kind = args.command.replace("-", "_")
        settings = _read_json_object(args.config) if args.config else {}
        named = settings.setdefault("kind", kind)
        if named != kind:
            raise ConfigError(f"{args.config} is a config for {named!r}, not for {kind!r}")
        settings.update((k, v) for k, v in vars(args).items()
                        if k not in ("command", "config") and v is not None)
        if "workers" not in settings and (env := os.environ.get(WORKERS_ENV)):
            try:
                settings["workers"] = int(env)
            except ValueError:
                raise ConfigError(f"${WORKERS_ENV} must be an integer, got {env!r}") from None
        return run(_config(settings))
    except tuple(exc for exc, _, _ in _EXCEPTION_EXITS) as err:
        for exc_type, code, category in _EXCEPTION_EXITS:
            if isinstance(err, exc_type):
                _emit_error(category, str(err))
                return code
    except OSError as err:
        _emit_error("config-invalid", str(err))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
