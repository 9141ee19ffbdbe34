import math

from hypothesis import given, strategies as st

from bbmlab.serialize import csv_lines, fmt_float


@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_and_csv_cells(x):
    assert float(fmt_float(x)) == x
    assert math.copysign(1.0, float(fmt_float(x))) == math.copysign(1.0, x)
    header, row = csv_lines("a,b,c,d,e", [("-0.5e3", True, 7, -12, x)])
    assert header == "a,b,c,d,e"
    assert row.split(",") == ["-0.5e3", "True", "7", "-12", fmt_float(x)]
