import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecspike.errors import FixedPointOverflowError, InvalidParameterError
from vecspike.fixedpoint import DEFAULT_FORMAT, FixedPointFormat


def test_default_format():
    assert DEFAULT_FORMAT.total_bits == 24
    assert DEFAULT_FORMAT.frac_bits == 8
    assert DEFAULT_FORMAT.scale == 256
    assert DEFAULT_FORMAT.raw_min == -(2**23)
    assert DEFAULT_FORMAT.raw_max == 2**23 - 1


def test_quantize_rounds_half_to_even():
    fmt = DEFAULT_FORMAT
    assert fmt.quantize(2.5 / 256) == 2
    assert fmt.quantize(3.5 / 256) == 4
    assert fmt.quantize(-2.5 / 256) == -2


def test_quantize_scalar_and_array():
    fmt = DEFAULT_FORMAT
    assert fmt.quantize(1.0) == 256
    raw = fmt.quantize(np.array([0.5, -0.25]))
    assert raw.dtype == np.int64
    assert raw.tolist() == [128, -64]


@given(st.floats(min_value=-1000.0, max_value=1000.0))
def test_quantize_round_trips_within_one_lsb(value):
    fmt = DEFAULT_FORMAT
    raw = fmt.quantize(value)
    assert abs(raw / fmt.scale - value) <= 2.0**-fmt.frac_bits


def test_quantize_overflow_is_a_fault():
    with pytest.raises(FixedPointOverflowError):
        DEFAULT_FORMAT.quantize(40000.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300])
def test_quantize_names_a_value_int64_cannot_hold(value):
    # checked before the int64 cast, whose result would be undefined
    for form in (value, np.array([0.5, value])):
        message = re.escape(f"quantize: {value!r} outside")
        with pytest.raises(FixedPointOverflowError, match=f"^{message}"):
            DEFAULT_FORMAT.quantize(form)


def test_check_raw_bounds():
    fmt = DEFAULT_FORMAT
    fmt.check_raw(fmt.raw_max)
    fmt.check_raw(np.array([fmt.raw_min, 0, fmt.raw_max]))
    with pytest.raises(FixedPointOverflowError):
        fmt.check_raw(fmt.raw_max + 1)
    with pytest.raises(FixedPointOverflowError):
        fmt.check_raw(np.array([0, fmt.raw_min - 1]))


def test_invalid_formats_rejected():
    with pytest.raises(InvalidParameterError):
        FixedPointFormat(total_bits=8, frac_bits=8)
    with pytest.raises(InvalidParameterError):
        FixedPointFormat(total_bits=8, frac_bits=0)
    with pytest.raises(InvalidParameterError):
        FixedPointFormat(total_bits=64, frac_bits=8)


@pytest.mark.parametrize("shift", [4, 8, 56])
def test_shift_left_faults_exactly_where_int64_would_wrap(shift):
    fmt = FixedPointFormat(62, 56)
    limit = 2 ** (63 - shift)
    edges = np.array([-limit, -1, 0, limit - 1])
    assert fmt.shift_left(edges, shift).tolist() == [v * 2**shift for v in edges.tolist()]
    for bad in (limit, -limit - 1):
        with pytest.raises(FixedPointOverflowError, match=f"raw {bad} << {shift}"):
            fmt.shift_left(np.array([0, bad]), shift)


@pytest.mark.parametrize("raw", [np.array([1.9]), 0.9, np.array([True])])
def test_shift_left_refuses_non_integer_raw(raw):
    with pytest.raises(InvalidParameterError, match="^sum: "):
        DEFAULT_FORMAT.shift_left(raw, 8, "sum")
