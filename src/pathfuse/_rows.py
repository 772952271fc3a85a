"""Text of a whole table from one row template.

The writers format thousands of rows per path.  One ``str.format`` call per
row costs more than the numbers themselves, so a table is filled by a single
printf-style ``%`` over its row template repeated once per row.
"""

from __future__ import annotations

import numpy as np


def fill_rows(row: str, values: np.ndarray, sep: str = "\n") -> str:
    """``row`` once per row of the 2-D ``values``, joined by ``sep``.

    ``row`` is a printf-style template with one hole per column, filled left
    to right.  ``%.6f`` gives the same text as ``{:.6f}`` and ``%r`` the same
    as ``repr``.  No rows give the empty string.
    """
    if not len(values):
        return ""
    return sep.join([row] * len(values)) % tuple(np.asarray(values).ravel().tolist())
