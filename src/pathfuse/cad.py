"""Nominal CAD paths: waypoint polylines, arc-length parameters, resampling.

Two interchange formats are accepted:

* CSV with header ``x_mm,y_mm,z_mm``, one waypoint per row, optionally ending
  with a ``# closed=true`` comment line.
* JSON ``{"waypoints": [[x, y, z], ...], "closed": false}``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePathError, ParseError, ResampleWarning

CAD_CSV_HEADER = "x_mm,y_mm,z_mm"

# Consecutive waypoints closer than this merge into one.
MERGE_EPS_MM = 1e-6


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
        keep = [0]
        for i in range(1, len(w)):
            if np.linalg.norm(w[i] - w[keep[-1]]) >= MERGE_EPS_MM:
                keep.append(i)
        w = w[keep].copy()
        closed = bool(self.closed)
        if closed and len(w) > 2 and np.linalg.norm(w[-1] - w[0]) < MERGE_EPS_MM:
            w = w[:-1]
        if len(w) < 2:
            raise DegeneratePathError(
                "a path needs at least 2 distinct waypoints after deduplication"
            )
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)
        object.__setattr__(self, "closed", closed)

    def __len__(self) -> int:
        return len(self.waypoints)

    def segment_lengths(self) -> np.ndarray:
        """Lengths of every traversed segment, closing one included if closed."""
        return np.linalg.norm(np.diff(traverse(self.waypoints, self.closed), axis=0), axis=1)

    def total_length(self) -> float:
        return float(np.sum(self.segment_lengths()))


def traverse(points: np.ndarray, closed: bool) -> np.ndarray:
    """Polyline vertices in traversal order: a closed one returns to its first point."""
    return np.vstack([points, points[:1]]) if closed else points


def arc_fraction(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length over total arc length at each vertex of a polyline.

    Starts at 0 and ends at exactly 1; all zeros for a zero-length polyline.
    """
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])
    return cum / cum[-1] if cum[-1] > 0.0 else np.zeros(len(cum))


def arc_params(path: CadPath) -> np.ndarray:
    """Normalized arc-length parameter of every traversed point of ``path``.

    The read-only result is non-decreasing, starts at exactly 0 and ends at
    exactly 1.  For an open path there is one entry per waypoint.  For a
    closed path the traversal returns to the start, so a final entry for that
    virtual closing point is included and the result has ``len(path) + 1``
    values.
    """
    params = arc_fraction(traverse(path.waypoints, path.closed))
    params.flags.writeable = False
    return params


def resample_cad(path: CadPath, spacing_mm: float) -> CadPath:
    """Insert intermediate points so adjacent spacing is at most ``spacing_mm``.

    Every original waypoint is kept exactly; each segment is split into
    ``ceil(length / spacing)`` equal pieces.  If the requested spacing exceeds
    the total path length, resampling is pointless: a ResampleWarning is
    emitted and the two endpoints are returned as an open path.
    """
    if not (spacing_mm > 0.0):
        raise ValueError(f"spacing_mm must be positive, got {spacing_mm}")
    if spacing_mm > path.total_length():
        warnings.warn(
            f"spacing {spacing_mm} mm exceeds path length "
            f"{path.total_length():.3f} mm; keeping original waypoints",
            ResampleWarning,
        )
        if path.closed:
            return path  # a loop cannot be coarsened below its corners
        first, last = path.waypoints[0], path.waypoints[-1]
        if np.linalg.norm(last - first) < MERGE_EPS_MM:
            return path  # endpoints coincide; nothing coarser exists
        return CadPath(np.vstack([first, last]), closed=False)

    loop = traverse(path.waypoints, path.closed)
    a, d = loop[:-1], np.diff(loop, axis=0)
    pieces = np.ceil(path.segment_lengths() / spacing_mm).astype(np.intp)
    seg = np.repeat(np.arange(len(d)), pieces)  # segment of every output point
    i = np.arange(len(seg)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    out = a[seg] + (i / pieces[seg])[:, None] * d[seg]
    out[i == 0] = a  # piece 0 is the waypoint itself: 0.0 * d would unsign a -0.0
    if not path.closed:
        out = np.vstack([out, loop[-1:]])
    return CadPath(out, closed=path.closed)


def _parse_cad_json(text: str) -> CadPath:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(obj, dict) or "waypoints" not in obj:
        raise ParseError("expected an object with a 'waypoints' array")
    wps = obj["waypoints"]
    if not isinstance(wps, list):
        raise ParseError("'waypoints' must be an array of [x, y, z] triples")
    for i, wp in enumerate(wps):
        if not (isinstance(wp, list) and len(wp) == 3
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v) for v in wp)):
            raise ParseError(f"waypoint {i} is not a finite [x, y, z] triple")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError("'closed' must be a boolean")
    if len(wps) < 2:
        raise DegeneratePathError("a path needs at least 2 waypoints")
    return CadPath(np.array(wps, dtype=float), closed=closed)


def _parse_cad_csv(text: str) -> CadPath:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CAD_CSV_HEADER:
        raise ParseError(f"expected header {CAD_CSV_HEADER!r}", line=1)
    wps = []
    closed = False
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            directive = stripped[1:].strip().replace(" ", "").lower()
            if directive == "closed=true":
                closed = True
            elif directive == "closed=false":
                closed = False
            else:
                raise ParseError(f"unknown directive {stripped!r}", line=lineno)
            continue
        fields = stripped.split(",")
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line=lineno)
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"bad number in row: {stripped!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite value in row", line=lineno)
        wps.append(vals)
    if len(wps) < 2:
        raise DegeneratePathError("a path needs at least 2 waypoints")
    return CadPath(np.array(wps), closed=closed)


def parse_cad(data: bytes | str) -> CadPath:
    """Parse a CAD path from JSON or CSV, sniffing the format."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}") from None
    else:
        text = data.lstrip("﻿")
    if text.lstrip()[:1] == "{":
        return _parse_cad_json(text)
    return _parse_cad_csv(text)
