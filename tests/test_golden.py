"""The README's example CSVs, rerun through cli.main against the files that
the recorded version wrote (tests/golden).

golden/record.json holds the version and the manifest `env` that wrote the
files, and each example's command.  Every rerun compares its numbers with
the golden file's, each float to a relative 1e-9 (plus 1e-12 absolute) and
every other cell exactly.  Where this machine's `env` equals the record's it
also compares the bytes: numpy's exp and log may differ in the last bit
between CPU dispatch targets, so bytes are promised only there.  Each test
prints which comparison ran.  When outputs move on purpose, the golden
files, record.json and the version change together.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

import bbmlab
from bbmlab import cli

GOLDEN = Path(__file__).parent / "golden"
RECORD = json.loads((GOLDEN / "record.json").read_text())
REL, ABS = 1e-9, 1e-12


def cell_value(cell):
    """An int, a float or the text itself: how a cell is compared."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def assert_same_numbers(got, want):
    """Same header and shape; floats within REL or ABS, every other cell exact."""
    rows, ref = (list(csv.reader(io.StringIO(text))) for text in (got, want))
    assert rows[0] == ref[0]
    assert len(rows) == len(ref)
    for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), 1):
        assert len(row) == len(ref_row), i
        for name, a, b in zip(ref[0], map(cell_value, row), map(cell_value, ref_row)):
            if isinstance(b, float):
                assert isinstance(a, float) and math.isclose(a, b, rel_tol=REL, abs_tol=ABS), \
                    (i, name, a, b)
            else:
                assert a == b and type(a) is type(b), (i, name, a, b)


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """Every example run in one directory, in the record's order (report reads tails).

    A .csv argument names an earlier example's output, and a .json argument a
    config file kept beside the golden files."""
    out = tmp_path_factory.mktemp("golden")
    for name, argv in RECORD["examples"].items():
        argv = [str(out / a) if a.endswith(".csv") else str(GOLDEN / a) if a.endswith(".json")
                else a for a in argv]
        assert cli.main([*argv, "--out", str(out / name)]) == 0, name
    return out


def test_record_is_this_version():
    assert RECORD["version"] == bbmlab.__version__


@pytest.mark.parametrize("name", list(RECORD["examples"]))
def test_example_matches_golden(rerun, name, record_property):
    got, want = (rerun / name).read_text(), (GOLDEN / name).read_text()
    env = json.loads((rerun / f"{name}.manifest.json").read_text())["env"]
    comparison = "bytes and numbers" if env == RECORD["env"] else \
        f"numbers only: env {env} is not the record's {RECORD['env']}"
    record_property("comparison", comparison)
    print(f"{name}: compared {comparison}")
    assert_same_numbers(got, want)
    if env == RECORD["env"]:
        assert got == want


def test_number_comparison_catches_moves():
    want = "alpha,psi,branch_tag\n-0.5,1.25,NO_BRANCH_REGIME\n"
    assert_same_numbers("alpha,psi,branch_tag\n-0.5,1.2500000000001,NO_BRANCH_REGIME\n", want)
    for got in ("alpha,psi,branch_tag\n-0.5,1.2500001,NO_BRANCH_REGIME\n",
                "alpha,psi,branch_tag\n-0.5,1.25,DELAYED_BRANCH_REGIME\n",
                "alpha,psi,tag\n-0.5,1.25,NO_BRANCH_REGIME\n",
                "alpha,psi,branch_tag\n-0.5,1.25,NO_BRANCH_REGIME\n0,1,x\n"):
        with pytest.raises(AssertionError):
            assert_same_numbers(got, want)
