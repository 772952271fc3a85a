"""Input text, as every reader takes it: UTF-8 after one optional BOM, numbers
spelled as ASCII decimals in text (``number``, ``integer``) and as JSON numbers in JSON.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain

import numpy as np

from .errors import ParseError

# Spaces or tabs around an optional sign and digits with an optional point and
# exponent, or inf, infinity or nan in any case.  Over ASCII digits, signs,
# points, e and white space this is exactly what float() accepts.
_NUMBER = re.compile(
    r"[ \t]*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)[ \t]*",
    re.ASCII | re.IGNORECASE,
)

# Spaces or tabs around an optional sign and ASCII digits.
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")

# The exact types json.loads gives numbers; true and false are of type bool.
_JSON_NUMBER_TYPES = {int, float}


def decode(data: bytes | str) -> str:
    """``data`` as text with one leading BOM removed; ParseError on bytes that are not UTF-8."""
    if isinstance(data, str):
        return data.removeprefix("\ufeff")  # one BOM, as utf-8-sig strips
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise ParseError(f"not valid UTF-8: {e}") from None


def number(text: str) -> float:
    """The value of an ASCII decimal; ValueError on other text, such as ``1_0`` or non-ASCII digits."""
    if _NUMBER.fullmatch(text) is None:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def integer(text: str) -> int:
    """The value of ASCII digits with an optional sign; ValueError on other text, such as
    ``1_0``, ``2.0`` or non-ASCII digits."""
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def csv_lines(text: str, header: str) -> list[tuple[int, str]]:
    """(line number, line) of each line after ``header`` that is not blank.

    ParseError at line 1 unless the first line is ``header``, give or take white space.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}", line=1)
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


def csv_row(line: str, width: int, lineno: int) -> list[float]:
    """The ``width`` finite numbers of a comma-separated line; ParseError naming ``lineno``."""
    fields = line.split(",")
    if len(fields) != width:
        raise ParseError(f"expected {width} fields, got {len(fields)}", line=lineno)
    try:
        values = [number(f) for f in fields]
    except ValueError:
        raise ParseError(f"bad number in row: {line!r}", line=lineno) from None
    if not all(map(math.isfinite, values)):
        raise ParseError("non-finite value in row", line=lineno)
    return values


def json_value(data: bytes | str):
    """The JSON value of ``data`` (see ``decode``); ParseError on text that is not JSON."""
    try:
        return json.loads(decode(data))
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno) from None
    except RecursionError:  # arrays or objects nested deeper than the interpreter's stack
        raise ParseError("bad JSON: nested too deeply") from None


def json_number(value, name: str) -> float:
    """A JSON int or float as a float; ValueError naming ``name`` for a bool, any other value
    or an int beyond the float range."""
    if type(value) not in _JSON_NUMBER_TYPES:
        raise ValueError(f"{name} must be a JSON number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


def json_rows(rows: list, width: int, name: str) -> np.ndarray:
    """The ``(len(rows), width)`` float array of rows of ``width`` finite JSON numbers.

    ValueError names the first other row as ``f"{name} {i}"``.
    """
    values = _floats(rows, width)
    if values is None or not np.isfinite(values).all():
        i = next(i for i, row in enumerate(rows) if (v := _floats([row], width)) is None or not np.isfinite(v).all())
        raise ValueError(f"{name} {i}: expected {width} finite JSON numbers")
    return values


def _floats(rows: list, width: int) -> np.ndarray | None:
    """The float array of ``rows`` if each holds ``width`` JSON numbers, else None."""
    try:
        if set(map(len, rows)) <= {width} and set(map(type, chain.from_iterable(rows))) <= _JSON_NUMBER_TYPES:
            return np.array(rows, dtype=float).reshape(-1, width)
    except (TypeError, OverflowError):  # a row with no length; an int beyond the float range
        pass
    return None
