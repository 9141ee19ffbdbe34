"""The benchmark's workloads: inputs drawn from the seed, the program calls of
one round, and the checks of their outputs.

Every workload draws its inputs from `--seed` alone; the program receives only
those inputs, through `bbmlab.cli.main` (all CLI kinds) and `bbmlab.fkpp.solve`
(the front, which the CLI does not expose).  Every call runs with one worker.
"""

from __future__ import annotations

import csv
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PDE_DX = 0.05
PDE_EPS = 0.05
TAIL_TIMES = (4.0, 8.0, 12.0, 16.0, 20.0)
TAU_T = 500.0
FRONT_T = 80.0
FRONT_DX = 0.1
FRONT_SAMPLES = 400

NAIVE_SMALL = (4.0, (0.0, 3.0, 5.0), 2000)   # (t, thresholds x, trials), criterion 6's x
SCENARIO = (8.0, (0.0, -1.0), 4000)          # (t, alphas, trials)
NAIVE_LARGE = (8.0, (4.0, 6.0, 8.0), 500)


def import_bbmlab():
    """Import bbmlab from this checkout's `src`, refusing any other copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bbmlab.cli

    where = os.path.dirname(os.path.abspath(bbmlab.cli.__file__))
    if where != os.path.join(SRC, "bbmlab"):
        raise ImportError(f"bbmlab imported from {where}, not from {SRC}")
    return bbmlab


class OpFailed(Exception):
    """A program call exited non-zero or raised."""


@dataclass
class Op:
    """One program call of a round: `call` is timed, `read` parses its output."""

    kind: str
    call: Callable[[], object]
    read: Callable[[object], object]
    out: str | None = None   # CSV path of a CLI call


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fmt(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _alphas_for(xs, t: float) -> list[float]:
    return [x / (checks.SQRT2 * t) for x in xs]


def round_seed(seed: int, r: int) -> int:
    """Monte Carlo seed of round r: fresh trials every round, fixed by --seed."""
    return random.Random(f"{seed}/{r}").getrandbits(62)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.bbm = import_bbmlab()
        self.seed = seed
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)

    def cli_op(self, kind: str, argv: list[str]) -> Op:
        out = os.path.join(self.out_dir, f"{kind}.csv")
        argv = [kind, *argv, "--workers", "1", "--out", out]

        def read(rc):
            if rc != 0:
                raise OpFailed(f"{kind} exited {rc}")
            return read_csv(out)

        return Op(kind, lambda: self.bbm.cli.main(argv), read, out)

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, kind: str, output) -> list[str]:
        """Checks of one call's output."""
        raise NotImplementedError

    def references(self) -> dict[str, list[tuple[str, float, float, float]]]:
        """Per kind and output row: label, PDE reference and closed-form sandwich."""
        return {}

    def check_pooled(self, outputs: dict[str, list], refs) -> dict[str, list[str]]:
        """Estimates pooled over all rounds against `references()`, by kind."""
        return {
            kind: [fail for i, (label, ref, lo, hi) in enumerate(targets)
                   for fail in checks.check_estimate(
                       label, *checks.pooled([rows[i] for rows in outputs[kind]]), ref, lo, hi)]
            for kind, targets in refs.items() if outputs.get(kind)
        }


class Pde(Workload):
    """rate, tau-opt, fkpp-rate on four rays, fit --check, and a front solve."""

    name = "pde"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        rng = random.Random(seed)
        u = lambda lo, hi: round(rng.uniform(lo, hi), 4)
        self.rate_alphas = sorted(u(-3.0, 0.99) for _ in range(8))
        self.tau_alphas = sorted([u(-2.5, -0.5), u(-2.5, -0.5), u(-0.35, 0.9), u(-0.35, 0.9)])
        # Two rays in each regime of psi.  The leftmost ray is fixed: it sets the
        # grid, so every seed does the same amount of PDE work.
        self.rays = sorted([u(-0.1, 0.1), u(-0.35, -0.2), u(-1.2, -0.6), -1.8])

    def ops(self, r: int) -> list[Op]:
        tails = os.path.join(self.out_dir, "fkpp-rate.csv")
        fkpp = self.bbm.fkpp
        front = lambda: fkpp.solve(
            self.bbm.model.ModelParams(), FRONT_T, probes=[], dx=FRONT_DX,
            front_samples=FRONT_SAMPLES,
        )
        return [
            self.cli_op("rate", ["--alphas", *_fmt(self.rate_alphas)]),
            self.cli_op("tau-opt", ["--alphas", *_fmt(self.tau_alphas), "--t", repr(TAU_T)]),
            self.cli_op("fkpp-rate", ["--alphas", *_fmt(self.rays), "--t-list", *_fmt(TAIL_TIMES),
                                      "--dx", repr(PDE_DX), "--eps", repr(PDE_EPS)]),
            self.cli_op("fit", ["--input", tails, "--check"]),
            Op("front", front, lambda res: res.front),
        ]

    def check(self, kind: str, output) -> list[str]:
        if kind == "rate":
            return checks.check_rate_rows(self.rate_alphas, output)
        if kind == "tau-opt":
            return checks.check_tau_rows(self.tau_alphas, TAU_T, output)
        if kind == "fkpp-rate":
            if len(output) != len(self.rays) * len(TAIL_TIMES):
                return [f"fkpp-rate: {len(output)} rows"]
            return checks.check_probes(output, PDE_EPS)
        if kind == "fit":
            return checks.check_fit_rows(self.rays, output)
        return checks.check_front(output.times, output.positions, output.fitted_speed,
                                  output.log_coeff, t_from=0.1 * FRONT_T)


class _Mc(Workload):
    """Shared by the Monte Carlo workloads: naive `mc-tail` on fixed thresholds."""

    naive = NAIVE_SMALL

    def naive_op(self, r: int) -> Op:
        t, xs, n = self.naive
        return self.cli_op("mc-tail", ["--alphas", *_fmt(_alphas_for(xs, t)), "--t", repr(t),
                                       "--n-trials", str(n), "--seed", str(round_seed(self.seed, r))])

    def check(self, kind: str, output) -> list[str]:
        if kind == "mc-tail":
            t, xs, n = self.naive
            return checks.check_estimate_rows(kind, _alphas_for(xs, t), n, output)
        t, alphas, n = SCENARIO
        return checks.check_estimate_rows(kind, alphas, n, output)

    def references(self):
        """u(x, t) from the PDE route at each naive threshold."""
        t, xs, _ = self.naive
        alphas = _alphas_for(xs, t)
        res = self.bbm.fkpp.solve(self.bbm.model.ModelParams(), t, probes=[(a, t) for a in alphas],
                                  dx=PDE_DX, track_front=False)
        return {"mc-tail": [(f"mc-tail x={x:g}", math.exp(res.tail_for(a).log_u[0]),
                             *checks.naive_sandwich(x, t)) for x, a in zip(xs, alphas)]}


class McSmallTrees(_Mc):
    """Naive tails at t=4 and scenario estimates at t=8: trees of tens of leaves."""

    name = "mc-small-trees"

    def ops(self, r: int) -> list[Op]:
        t, alphas, n = SCENARIO
        scen = self.cli_op("scenario-lb", ["--alphas", *_fmt(alphas), "--t", repr(t),
                                           "--n-trials", str(n), "--seed", str(round_seed(self.seed, r))])
        return [self.naive_op(r), scen]

    def references(self):
        """Adds the scenario functional: renewal quadrature on a PDE snapshot at t - tau."""
        refs = super().references()
        bbm = self.bbm
        params = bbm.model.ModelParams()
        t, alphas, _ = SCENARIO
        taus = [checks.scenario_tau(a, t) for a in alphas]
        thrs = [a * checks.SQRT2 * t for a in alphas]
        half = [12.0 * math.sqrt(tau) for tau in taus]   # renewal_quadrature's support
        rems = [t - tau for tau in taus]
        res = bbm.fkpp.solve(
            params, max(rems), snapshot_times=sorted(set(rems)), dx=PDE_DX, track_front=False,
            x_min=min(x - h for x, h in zip(thrs, half)) - 10.0,
            x_max=max(max(x + h for x, h in zip(thrs, half)), checks.SQRT2 * t) + 10.0,
        )
        refs["scenario-lb"] = [
            (f"scenario-lb alpha={a:g}",
             math.exp(bbm.fkpp.renewal_quadrature(res.snapshots[rem], x, tau, params)),
             *checks.scenario_sandwich(x, t, tau))
            for a, x, tau, rem in zip(alphas, thrs, taus, rems)
        ]
        return refs


class McLargeTrees(_Mc):
    """Naive tails at t=8: trees of thousands of leaves."""

    name = "mc-large-trees"
    naive = NAIVE_LARGE

    def ops(self, r: int) -> list[Op]:
        return [self.naive_op(r)]


WORKLOADS = {w.name: w for w in (Pde, McSmallTrees, McLargeTrees)}
