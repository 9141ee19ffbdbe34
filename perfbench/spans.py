"""Spans around calls into bbmlab's modules, recorded from the benchmark's side.

While a `Tracer` is installed, every public function of `rates`, `varopt`,
`fkpp`, `mc` and `serialize` (and `fkpp.FrontTrace.fit_window`) is replaced,
wherever a bbmlab module binds it, by a wrapper that records a span: name,
start, end, parent span and the round it belongs to.  Some wrappers also
record counts read from the call's arguments and result.  The benchmark wraps
each `cli.main` call itself.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("rates", "varopt", "fkpp", "mc", "serialize")


def _solve_counts(args, kwargs, res):
    t_final = args[1] if len(args) > 1 else kwargs["t_final"]
    return {"grid_points": res.grid.n_points, "nominal_steps": t_final / res.grid.dt}


def _sample_counts(args, kwargs, res):
    leaves = np.asarray(res[1])
    return {"trials": leaves.size, "segments": int(np.sum(2 * leaves - 1)),
            "peak_population": int(leaves.max())}


def _tail_counts(args, kwargs, res):
    ests = res if isinstance(res, list) else [res]
    return {"hits": sum(round(e.p_hat * e.n_trials) for e in ests),
            "estimates_trials": sum(e.n_trials for e in ests)}


COUNTERS = {
    "varopt.log_normal_cdf": lambda a, k, res: {"elements": int(np.size(a[0]))},
    "fkpp.solve": _solve_counts,
    "mc.sample_xmax": _sample_counts,
    "mc.estimate_tail": _tail_counts,
    "mc.scenario_estimate": lambda a, k, res: {"trials": res.n_trials, "ess": res.ess},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = {"round": self.round, "id": len(self.spans),
                    "parent": self._stack[-1] if self._stack else None, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, res)
            return res

        return traced

    @contextmanager
    def installed(self, package):
        """Swap every public bbmlab function for its traced wrapper, then restore."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == package.__name__]
        targets = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    targets[fn] = self.wrap(f"{layer}.{name}", fn)
        saved = [(m, attr, fn) for m in modules for attr, fn in vars(m).items()
                 if inspect.isfunction(fn) and fn in targets]
        front_trace = package.fkpp.FrontTrace
        fit_window = front_trace.fit_window
        try:
            for m, attr, fn in saved:
                setattr(m, attr, targets[fn])
            front_trace.fit_window = self.wrap("fkpp.FrontTrace.fit_window", fit_window)
            yield self
        finally:
            for m, attr, fn in saved:
                setattr(m, attr, fn)
            front_trace.fit_window = fit_window

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-round work and busy time of each layer, from one traced run's spans.

    A layer's time counts only its outermost spans, so nested calls inside one
    layer are not counted twice.  Idle layers read 0.
    """
    by_id = {s["id"]: s for s in spans}
    layer = lambda s: s["name"].split(".")[0]

    def outer(prefix):
        return [s for s in spans if layer(s) == prefix
                and (s["parent"] is None or layer(by_id[s["parent"]]) != prefix)]

    def total(name, key=None):
        sel = [s for s in spans if s["name"] == name]
        return sum(s["counts"][key] for s in sel) if key else sum(_dur(s) for s in sel)

    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    cli = [s for s in spans if s["name"] == "cli.main"]
    fmt = [s for s in spans if s["name"] == "serialize.fmt_float"]
    rates = outer("rates")
    solve_s = total("fkpp.solve")
    steps = total("fkpp.solve", "nominal_steps")
    point_steps = sum(s["counts"]["grid_points"] * s["counts"]["nominal_steps"]
                      for s in spans if s["name"] == "fkpp.solve")
    tail_s = total("mc.estimate_tail")
    scen_s = total("mc.scenario_estimate")
    scen_trials = total("mc.scenario_estimate", "trials")
    trials = total("mc.sample_xmax", "trials") + scen_trials
    segments = total("mc.sample_xmax", "segments")
    est_trials = total("mc.estimate_tail", "estimates_trials")
    ratio = lambda num, den, scale=1.0: scale * num / den if den else 0.0
    per_round = {
        "cli.calls": len(cli),
        "cli.self_s": sum(_dur(s) - child_time.get(s["id"], 0.0) for s in cli),
        "serialize.fmt_float_calls": len(fmt),
        "serialize.s": sum(_dur(s) for s in outer("serialize")),
        "rates.calls": len(rates),
        "rates.s": sum(_dur(s) for s in rates),
        "varopt.maximize_calls": len([s for s in spans if s["name"] == "varopt.maximize"]),
        "varopt.maximize_s": total("varopt.maximize"),
        "varopt.log_normal_cdf_elements": total("varopt.log_normal_cdf", "elements"),
        "varopt.log_normal_cdf_s": total("varopt.log_normal_cdf"),
        "fkpp.solve_calls": len([s for s in spans if s["name"] == "fkpp.solve"]),
        "fkpp.solve_s": solve_s,
        "fkpp.grid_points": total("fkpp.solve", "grid_points"),
        "fkpp.nominal_steps": steps,
        "fkpp.point_steps": point_steps,
        "fkpp.fit_s": total("fkpp.fit_tail_series") + total("fkpp.FrontTrace.fit_window"),
        "mc.trials": trials,
        "mc.estimate_tail_s": tail_s,
        "mc.scenario_estimate_s": scen_s,
        "mc.particle_segments": segments,
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out.update({
        "fkpp.ns_per_point_step": ratio(solve_s, point_steps, 1e9),
        "mc.us_per_trial": ratio(tail_s + scen_s, trials, 1e6),
        "mc.ns_per_segment": ratio(tail_s, segments, 1e9),
        "mc.peak_population": max((s["counts"]["peak_population"] for s in spans
                                   if s["name"] == "mc.sample_xmax"), default=0),
        "mc.hit_fraction": ratio(total("mc.estimate_tail", "hits"), est_trials),
        "mc.ess_fraction": ratio(total("mc.scenario_estimate", "ess"), scen_trials),
    })
    return out
