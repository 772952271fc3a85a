"""Text of tables from one row template, formatted a column at a time.

The writers format thousands of rows per path, and formatting a row at a time
costs more than the numbers themselves.  So each column is formatted in one
call, a printf-style ``%`` over its hole repeated once per row (``repr`` for a
``%r`` hole), and a table's text is one ``"".join`` of the template's literal
pieces with those strings slice-assigned between them, yielded with no pieces
kept and before the next table is laid out.  A column whose values repeat bit
for bit in the same call is formatted once, until the last table: the layers
of an expanded stack share every column but the lifted ones.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator

import numpy as np

_HOLE = re.compile(r"%[^a-zA-Z%]*[a-zA-Z]")  # one printf-style conversion


def fill_rows(
    row: str, tables: Iterable[np.ndarray], sep: str = "\n", clean: Callable[[str], str] | None = None
) -> Iterator[str]:
    """Yield the text of each 2-D table in ``tables``: ``row`` once per table row, joined by ``sep``.

    ``row`` is a printf-style template with one hole per column, filled left
    to right.  ``%.6f`` gives the same text as ``{:.6f}`` and ``%r`` the same
    as ``repr``.  ``clean`` maps the text of one formatted column, its numbers
    joined by NUL, to the text to write.  A table with no rows gives the empty
    string.
    """
    literals, holes = _HOLE.split(row), _HOLE.findall(row)
    # a row after its first literal: a slot per hole, each followed by the
    # literal after it, the last of which runs on into the next row
    unit = [piece for literal in literals[1:] for piece in (None, literal)]
    unit[-1] += sep + literals[0]
    formatted: dict[tuple[str, bytes], list[str]] = {}
    tables = iter(tables)
    ahead = next(tables, None)  # one table ahead, so the last one is known
    while ahead is not None:
        table, ahead = np.asarray(ahead, dtype=float), next(tables, None)
        n, cells = len(table), [""]
        if n:
            cells = [literals[0], *unit * n]
            cells[-1] = literals[-1]
            for j, hole in enumerate(holes):
                column = table[:, j]
                key = (hole, column.tobytes())
                if key not in formatted:
                    values = column.tolist()
                    if hole == "%r" and not clean:  # repr makes each string once: no text to split
                        formatted[key] = list(map(repr, values))
                    else:
                        text = "\0".join([hole] * n) % tuple(values)
                        formatted[key] = (clean(text) if clean else text).split("\0")
                cells[1 + 2 * j :: 2 * len(holes)] = formatted[key]
            cells = ["".join(cells)]
        if ahead is None:
            formatted.clear()
        yield cells.pop()  # while the caller holds the text, this frame keeps no piece or copy of it
