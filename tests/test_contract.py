"""A seeded sweep of the exit-code contract over accepted and refused inputs.

Configs for the computing kinds are drawn from the domains in cli._FIELDS,
ordinary values mixed with extremes, and each runs through cli.main in this
process with every RuntimeWarning an error and an alarm against hangs.  The
contract: the exit code is one of the table's; exit 0 prints nothing on
stderr and every other exit one JSON line; and on exit 0 every float cell is
finite, except the two cells the README names (`chen_lower_bound` at
alpha >= 1, `log_p_hat` at zero hits).  Cost is bounded only by the
horizon (t <= 3 where it costs work), n_trials <= 500, dx >= 0.05 sigma and
dt either ordinary or small enough to be refused; alpha, sigma2 and tau
range over their whole domains.
"""

import csv
import io
import json
import math
import random
import signal
import warnings

import pytest

from bbmlab import cli

SEED = 20261020
DRAWS = 300  # per kind
EXTREMES = (5e-324, -5e-324, 1e-300, -1e-300, 1e154, -1e154, 1.7e308, -1.7e308, 0.0)
EXITS = {0} | {code for _, code, _ in cli._EXCEPTION_EXITS}
ALARM_S = 10


class Hung(BaseException):
    """Raised by the alarm; not an Exception, so no exit-table row catches it."""


def number(rng, lo, hi, extremes=EXTREMES):
    """An ordinary value in [lo, hi], or one time in five an extreme."""
    return rng.uniform(lo, hi) if rng.random() < 0.8 else rng.choice(extremes)


def horizon(rng):
    """A time that costs at most t = 3 of work, or one the routes refuse."""
    return number(rng, 0.05, 3.0, (5e-324, 1e-300, 1e-8, 0.0, -1.0, 3.0))


def times(rng):
    ts = sorted({horizon(rng) for _ in range(rng.randint(1, 3))})
    return ts if rng.random() < 0.9 else ts[::-1]


def alphas(rng):
    return [number(rng, -3.0, 1.2, (*EXTREMES, 1.0, 0.999999)) for _ in range(rng.randint(1, 3))]


def sigma2(rng):
    return number(rng, 0.1, 10.0)


def draw(kind, rng):
    """One config of kind, from the fields it reads; each optional field set or not."""
    if kind == "rate":
        if rng.random() < 0.7:
            return {"alphas": alphas(rng)}
        lo, hi = alphas(rng)[0], alphas(rng)[0]
        return {"alpha_grid": [lo, hi, rng.choice([1, 2, 7])]}
    s2 = sigma2(rng)
    sigma = math.sqrt(s2) if 0.0 < s2 < math.inf else 1.0
    if kind == "tau_opt":
        # tau-opt costs the same at any horizon, so its t ranges freely
        cfg = {"sigma2": s2}
        cfg.update({"v": number(rng, -5.0, 1.0)} if rng.random() < 0.3 else {"alphas": alphas(rng)})
        if rng.random() < 0.5:
            cfg["t"] = number(rng, 0.1, 1000.0)
        else:
            cfg["t_list"] = sorted({number(rng, 0.1, 1000.0) for _ in range(rng.randint(1, 3))})
        return cfg
    if kind == "fkpp_rate":
        cfg = {"sigma2": s2, "alphas": alphas(rng), "t_list": times(rng)}
        if rng.random() < 0.5:
            cfg["dx"] = sigma * number(rng, 0.05, 0.5, (0.05, 1e154, -1.0, 0.0))
        if rng.random() < 0.4:
            cfg["dt"] = number(rng, 0.005, 0.1, (1e-300, 5e-324, 1e-9, 0.0, -1.0, 1e154))
        if rng.random() < 0.3:
            cfg["eps"] = number(rng, 0.02, 0.2, (5e-324, 1e154, -1.0))
        return cfg
    cfg = {"sigma2": s2, "alphas": alphas(rng), "t": horizon(rng),
           "n_trials": rng.choice([100, 257, 500, 500, 99]),
           "seed": rng.choice([0, 7, 2**64 - 1, 2**64 - 1, 2**64])}
    if kind == "scenario_lb" and rng.random() < 0.5:
        cfg["tau"] = number(rng, 0.01, 3.0)
    return cfg


def documented_non_finite(row, name):
    """The cells the README names as non-finite on exit 0."""
    if name == "chen_lower_bound":
        return row[name] == "nan" and float(row["alpha"]) >= 1.0
    if name == "log_p_hat":
        return row[name] == "-inf" and float(row["p_hat"]) == 0.0
    return False


def on_alarm(signum, frame):
    raise Hung()


@pytest.mark.parametrize("kind", ["rate", "tau_opt", "fkpp_rate", "mc_tail", "scenario_lb"])
def test_contract_holds_on_drawn_configs(kind, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    rng = random.Random(f"{SEED}/{kind}")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for i in range(DRAWS):
            cfg = {"kind": kind, **draw(kind, rng)}
            path, out = tmp_path / f"{i}.json", tmp_path / f"{i}.csv"
            path.write_text(json.dumps(cfg))
            signal.alarm(ALARM_S)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = cli.main([kind.replace("_", "-"), "--config", str(path),
                                     "--out", str(out)])
            except Hung:
                pytest.fail(f"ran past {ALARM_S} s: {cfg}")
            except Exception as exc:  # no row of the exit table: exit 1 with a traceback
                pytest.fail(f"{exc!r} escaped: {cfg}")
            finally:
                signal.alarm(0)
            err = capsys.readouterr().err
            assert code in EXITS, (code, cfg)
            if code:
                lines = err.splitlines()
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}, \
                    (err, cfg)
                continue
            assert err == "", (err, cfg)
            for row in csv.DictReader(io.StringIO(out.read_text())):
                for name, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a tag, not a number
                    assert math.isfinite(value) or documented_non_finite(row, name), \
                        (name, cell, cfg)
    finally:
        signal.signal(signal.SIGALRM, previous)
