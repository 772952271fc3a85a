"""The one grammar every reader shares: decoding, text numbers, CSV rows, JSON numbers."""

import itertools
import math
import struct

import numpy as np
import pytest

from pathfuse import ParseError
from pathfuse._read import csv_lines, csv_row, decode, integer, json_number, json_rows, number


def bits(x):
    return struct.pack("<d", x)


def float_or_none(parse, text):
    try:
        return bits(parse(text))
    except ValueError:
        return None


def test_number_equals_float_on_short_ascii_strings():
    alphabet = "01.+-eE \t"
    strings = ["".join(p) for n in range(6) for p in itertools.product(alphabet, repeat=n)]
    assert len(strings) == 66_430
    mismatches = [s for s in strings if float_or_none(number, s) != float_or_none(float, s)]
    assert mismatches == []
    assert sum(float_or_none(number, s) is not None for s in strings) > 1000


@pytest.mark.parametrize("text", ["inf", "-Infinity", "+nan", "NaN", " 1e-3\t", "-.5", "5.", "1E+308"])
def test_number_reads_ascii_spellings_as_float_does(text):
    assert bits(number(text)) == bits(float(text))


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662", "1\xa0", "\u20031", "1\n", "\x1f1", "", "\u0131nf", "0x10"])
def test_number_refuses_what_is_not_an_ascii_decimal(text):
    with pytest.raises(ValueError, match="not a number"):
        number(text)


@pytest.mark.parametrize("text", ["0", "7", "-3", "+12", "007", " 5\t", "123456789012345678901234567890"])
def test_integer_reads_ascii_digits_as_int_does(text):
    assert integer(text) == int(text)


@pytest.mark.parametrize(
    "text", ["1_0", "\u0662", "\u0661_0", "2.0", "1e3", "0x10", "", " ", "+", "1\n", "\u20031", "inf"]
)
def test_integer_refuses_what_is_not_ascii_digits(text):
    with pytest.raises(ValueError, match="not an integer"):
        integer(text)


def test_decode_strips_one_bom_from_str_and_bytes():
    for boms in (0, 1, 2):
        text = "\ufeff" * boms + "x"
        assert decode(text) == decode(text.encode()) == "\ufeff" * max(boms - 1, 0) + "x"
    with pytest.raises(ParseError, match="UTF-8"):
        decode(b"\xff\xfe")


def test_csv_lines_skip_blank_lines_after_the_header():
    assert csv_lines(" h \n1\n\n \t\n2\r\n", "h") == [(2, "1"), (5, "2")]
    for text in ("", "\n", "x\nh\n"):
        with pytest.raises(ParseError, match="line 1: expected header 'h'"):
            csv_lines(text, "h")


def test_csv_row_errors_name_the_line():
    assert csv_row(" 1,\t-2.5e1 ", 2, 4) == [1.0, -25.0]
    for line, message in (("1,2,3", "expected 2 fields"), ("1,1_0", "bad number"), ("1,nan", "non-finite")):
        with pytest.raises(ParseError, match=f"line 9: {message}") as exc:
            csv_row(line, 2, 9)
        assert exc.value.line == 9


def test_json_number_takes_ints_and_floats_only():
    assert json_number(3, "k") == 3.0 and math.copysign(1.0, json_number(-0.0, "k")) < 0
    for value in (True, False, "1.5", None, [1.0], {"a": 1}):
        with pytest.raises(ValueError, match="^config k must be a JSON number, got "):
            json_number(value, "config k")
    with pytest.raises(ValueError, match="^config k is beyond the float range$"):
        json_number(10**400, "config k")


def test_json_rows_names_the_first_bad_row():
    good = [[0, 1.5, -2], (3, 4, 10**30)]
    assert np.array_equal(json_rows(good, 3, "row"), [[0.0, 1.5, -2.0], [3.0, 4.0, 1e30]])
    assert json_rows([], 3, "row").shape == (0, 3)
    for bad in ([1, 2], [1, 2, True], [1, 2, "3"], [1, 2, 10**400], [1, 2, math.nan], "abc", 5, None, {"a": 1, "b": 2, "c": 3}):
        with pytest.raises(ParseError, match="^point 2: expected 3 finite JSON numbers$"):
            json_rows(good + [bad, bad], 3, "point")
