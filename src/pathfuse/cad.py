"""Nominal CAD paths: waypoint polylines, arc-length parameters, resampling.

Two interchange formats are accepted:

* CSV with header ``x_mm,y_mm,z_mm``, one waypoint per row, optionally ending
  with a ``# closed=true`` comment line.
* JSON ``{"waypoints": [[x, y, z], ...], "closed": false}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._read import csv_lines, csv_table, decode, json_rows, json_value
from .errors import DegeneratePathError, ParseError
from .geometry import freeze, row_norms

CAD_CSV_HEADER = "x_mm,y_mm,z_mm"

# Consecutive waypoints closer than this merge into one.
MERGE_EPS_MM = 1e-6

# Most points resampling or layer expansion may produce; a larger request is
# refused as bad input before anything is allocated.
MAX_POINTS = 10**6


@dataclass(frozen=True, eq=False)
class CadPath:
    """Waypoint polyline in millimeters, open or closed.

    Construction normalizes the data: consecutive waypoints closer than
    ``MERGE_EPS_MM`` collapse into the first of them, and for closed paths a
    final waypoint that repeats the first is dropped (the closing segment is
    implicit).  At least two distinct waypoints must remain.
    """

    waypoints: np.ndarray
    closed: bool = False

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 3:
            raise DegeneratePathError(f"waypoints must be (n, 3), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise DegeneratePathError("waypoints contain non-finite values")
        # Every point before the first short step is kept, and the per-point
        # loop runs from there.  Each step is measured as segment_lengths
        # measures it, a row norm: a 1-D norm is a dot product, which rounds
        # one ulp apart on about 1 step in 10.
        with np.errstate(over="ignore"):
            step = np.linalg.norm(np.diff(w, axis=0), axis=1)
            short = np.flatnonzero(step < MERGE_EPS_MM)
            keep = list(range(short[0] + 1 if len(short) else len(w)))
            for i in range(len(keep), len(w)):
                if np.linalg.norm(w[i] - w[keep[-1]], axis=-1) >= MERGE_EPS_MM:
                    keep.append(i)
            w = w[keep]
            closed = bool(self.closed)
            if closed and len(w) > 2 and np.linalg.norm(w[-1] - w[0], axis=-1) < MERGE_EPS_MM:
                w = w[:-1]
        if len(w) < 2:
            raise DegeneratePathError(
                "a path needs at least 2 distinct waypoints after deduplication"
            )
        freeze(self, waypoints=w)
        object.__setattr__(self, "closed", closed)

    def __len__(self) -> int:
        return len(self.waypoints)

    def segment_lengths(self) -> np.ndarray:
        """Lengths of every traversed segment, closing one included if closed."""
        return np.linalg.norm(np.diff(traverse(self.waypoints, self.closed), axis=0), axis=1)


def traverse(points: np.ndarray, closed: bool) -> np.ndarray:
    """Polyline vertices in traversal order: a closed one returns to its first point."""
    return np.vstack([points, points[:1]]) if closed else points


def arc_lengths(points: np.ndarray) -> np.ndarray:
    """Arc length from the first vertex of a polyline to each vertex; the last is its length."""
    return np.concatenate([[0.0], row_norms(points[1:] - points[:-1]).cumsum()])


def arc_fraction(cum: np.ndarray) -> np.ndarray:
    """Each of the ``arc_lengths`` ``cum`` of a polyline over its total length.

    Starts at 0 and ends at exactly 1; all zeros for a zero-length polyline.
    """
    return cum / cum[-1] if cum[-1] > 0.0 else np.zeros(len(cum))


def resample_cad(path: CadPath, spacing_mm: float) -> CadPath:
    """Insert intermediate points so adjacent spacing is at most ``spacing_mm``.

    Every original waypoint is kept exactly; each segment is split into
    ``ceil(length / spacing)`` equal pieces, at least one, so a spacing wider
    than the path returns its waypoints.  ``spacing_mm`` must be positive and
    finite, and more than ``MAX_POINTS`` pieces in all raise ValueError.
    """
    if not (0.0 < spacing_mm < math.inf):
        raise ValueError(f"spacing_mm must be positive and finite, got {spacing_mm}")
    loop = traverse(path.waypoints, path.closed)
    with np.errstate(over="ignore", invalid="ignore"):  # a length beyond the float range is over the limit below
        a, d = loop[:-1], np.diff(loop, axis=0)
        pieces = np.maximum(np.ceil(path.segment_lengths() / spacing_mm), 1.0)
    total = float(np.sum(pieces))  # in float, so an infinite or NaN count is over the limit
    if not total <= MAX_POINTS:
        raise ValueError(
            f"resampling at {spacing_mm} mm would make {total:.4g} points; the limit is {MAX_POINTS}"
        )
    pieces = pieces.astype(np.intp)
    seg = np.repeat(np.arange(len(d)), pieces)  # segment of every output point
    i = np.arange(len(seg)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    out = a[seg] + (i / pieces[seg])[:, None] * d[seg]
    out[i == 0] = a  # piece 0 is the waypoint itself: 0.0 * d would unsign a -0.0
    if not path.closed:
        out = np.vstack([out, loop[-1:]])
    return CadPath(out, closed=path.closed)


def _parse_cad_json(text: str) -> tuple[np.ndarray, bool]:
    obj = json_value(text)
    if not isinstance(obj, dict) or "waypoints" not in obj:
        raise ParseError("expected an object with a 'waypoints' array")
    wps = obj["waypoints"]
    if not isinstance(wps, list):
        raise ParseError("'waypoints' must be an array of [x, y, z] triples")
    w = json_rows(wps, 3, "waypoint")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError("'closed' must be a boolean")
    return w, closed


def _parse_cad_csv(text: str) -> tuple[np.ndarray, bool]:
    """Directive lines set ``closed`` and are blanked, which keeps the line numbers;
    ``csv_table`` reads the rest and raises each error with its line."""
    lines = text.splitlines()
    closed = False
    for lineno, line in csv_lines(text, CAD_CSV_HEADER):
        stripped = line.strip()
        if stripped.startswith("#"):
            directive = stripped[1:].strip().replace(" ", "").lower()
            if directive not in ("closed=true", "closed=false"):
                csv_table("\n".join(lines[: lineno - 1]), CAD_CSV_HEADER, 3)  # a bad row above it is the first error
                raise ParseError(f"unknown directive {stripped!r}", line=lineno)
            closed = directive == "closed=true"
            lines[lineno - 1] = ""
    return csv_table("\n".join(lines), CAD_CSV_HEADER, 3), closed


def parse_cad(data: bytes | str) -> CadPath:
    """Parse a CAD path from JSON or CSV, sniffing the format; a file of fewer than two
    waypoints raises DegeneratePathError."""
    text = decode(data)
    waypoints, closed = (_parse_cad_json if text.lstrip()[:1] == "{" else _parse_cad_csv)(text)
    if len(waypoints) < 2:
        raise DegeneratePathError("a path needs at least 2 waypoints")
    return CadPath(waypoints, closed=closed)
