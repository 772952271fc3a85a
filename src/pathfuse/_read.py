"""Input text, as every reader takes it: UTF-8 after one optional BOM, numbers spelled as ASCII
decimals in text (``number``, ``integer``) and as JSON numbers in JSON; and integer and real
arguments that are not bools (``int_value``, ``real_value``)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import re
import warnings
from itertools import chain
from numbers import Real

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

# The bytes of plain numbers in comma-separated rows (see ``plain_rows``).
_NUMBER_BYTES = b"0123456789.,+-eE\n"

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


def int_value(value, message: str) -> int:
    """``value`` as an int if it is a Python or numpy integer but not a bool, else ValueError naming it."""
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{message}, got {value!r}")


def real_value(value, message: str, positive: bool = False) -> float:
    """``value`` as a float if it is a Python or numpy real number but not a bool, and with ``positive``
    a finite one above 0; else ValueError naming it."""
    if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(OverflowError):
            if not positive or 0.0 < float(value) < math.inf:
                return float(value)
    raise ValueError(f"{message}, got {value!r}")


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


def csv_table(data: bytes | str, header: str, width: int) -> np.ndarray:
    """The ``(n, width)`` rows of ``width`` finite numbers after the line ``header``, blank lines skipped.

    ``plain_rows`` reads a plain table in one call; any other input goes to
    ``csv_lines`` and ``csv_row``, which read the same values and raise
    ParseError naming the first bad line.
    """
    rows = plain_rows(data, header, width)
    if rows is None:
        rows = np.array([csv_row(line, width, lineno) for lineno, line in csv_lines(decode(data), header)])
    return rows.reshape(-1, width)


def plain_rows(data: bytes | str, header: str, width: int) -> np.ndarray | None:
    """The rows after the line ``header`` as one ``(n, width)`` array, read by numpy's C reader, or None.

    The table qualifies when, after one optional BOM, its first line is
    exactly ``header`` and the bytes after it hold only ASCII digits,
    ``.,+-eE``, line breaks, spaces and tabs, and each line that is not blank
    holds ``width`` fields; there is at least one row and every value is
    finite.  On those bytes ``number`` accepts exactly what ``float()`` does,
    and ``float()`` and loadtxt both convert a field with
    ``PyOS_string_to_double`` on its stripped text, so every value equals
    ``csv_row``'s.  Rows of unequal width, a CR inside a line and bad numbers
    make loadtxt raise.  ``bytes`` are read in place, without a copy of their
    rows; a str is encoded once.
    """
    data = data.encode(errors="replace") if isinstance(data, str) else data  # text that is not ASCII fails the gate
    start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    body = data.find(b"\n", start) + 1 or len(data)  # where the line after the header starts
    if data[start:body].rstrip(b"\r\n") != header.encode():
        return None
    # what the rows hold besides number bytes, without copying them out
    rest = data.translate(None, _NUMBER_BYTES)[len(data[:body].translate(None, _NUMBER_BYTES)) :]
    if rest.translate(None, b"\r \t"):
        return None
    lines = io.BytesIO(data)  # shares the bytes: nothing is copied
    lines.seek(body)
    if rest:  # csv_lines skips whitespace-only lines; loadtxt reads them as rows
        lines = filter(bytes.strip, lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no rows warn instead of raising
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    return rows if rows.shape[1] == width and np.all(np.isfinite(rows)) else None


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

    ParseError names the first other row as ``f"{name} {i}"``.
    """
    values = _floats(rows, width)
    if values is None or not np.isfinite(values).all():
        i = next(i for i, row in enumerate(rows) if (v := _floats([row], width)) is None or not np.isfinite(v).all())
        raise ParseError(f"{name} {i}: expected {width} finite JSON numbers")
    return values


def _floats(rows: list, width: int) -> np.ndarray | None:
    """The float array of ``rows`` if each holds ``width`` JSON numbers, else None."""
    try:
        if set(map(len, rows)) <= {width} and set(map(type, chain.from_iterable(rows))) <= _JSON_NUMBER_TYPES:
            return np.array(rows, dtype=float).reshape(-1, width)
    except (TypeError, OverflowError):  # a row with no length; an int beyond the float range
        pass
    return None
