"""Nominal CAD paths: waypoint polylines, arc-length parameters, resampling, and the
nearest-segment search that says where each point lands on a polyline.

Two interchange formats are accepted:

* CSV with header ``x_mm,y_mm,z_mm``, one waypoint per row, optionally ending
  with a ``# closed=true`` comment line.
* JSON ``{"waypoints": [[x, y, z], ...], "closed": false}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._read import csv_lines, csv_table, decode, json_rows, json_value, real_value
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
        # The points before the first short step are kept and the per-point loop runs from there;
        # steps are row_norms lengths, as in resample_cad (a dot product rounds 1 step in 10 an ulp apart).
        with np.errstate(over="ignore"):
            short = np.flatnonzero(row_norms(np.diff(w, axis=0)) < MERGE_EPS_MM)
            keep = list(range(short[0] + 1 if len(short) else len(w)))
            for i in range(len(keep), len(w)):
                if row_norms(w[i] - w[keep[-1]]) >= MERGE_EPS_MM:
                    keep.append(i)
            w = w[keep]
            closed = bool(self.closed)
            if closed and len(w) > 2 and row_norms(w[-1] - w[0]) < MERGE_EPS_MM:
                w = w[:-1]
        if len(w) < 2:
            raise DegeneratePathError(
                "a path needs at least 2 distinct waypoints after deduplication"
            )
        freeze(self, waypoints=w)
        object.__setattr__(self, "closed", closed)

    def __len__(self) -> int:
        return len(self.waypoints)


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


_BLOCK = 16  # consecutive segments under one bounding ball
_BOUNDS = 1 << 13  # (point, block) bounds per pass
_PAIRS = 1 << 12  # point-segment pairs per measurement: its work space stays under 0.6 MB


def nearest_segments(points: np.ndarray, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each point lands on a polyline: its distance to the nearest segment, that
    segment's index and the clamped fraction along it of the point's foot.

    Each pair is measured by one formula (``_sq_gaps``).  A point keeps the
    smallest squared gap, then ``sqrt``, and the lowest segment at that gap,
    or its first with a NaN gap (``np.argmin``'s order): a NaN point lands on
    segment 0 at fraction NaN.  Pairs that cannot hold the nearest segment
    are skipped.  The segments go in blocks of ``_BLOCK`` consecutive ones,
    each inside a ball (centre: the middle of its vertices' bounding box;
    radius: the farthest vertex from there), so every segment of a block lies
    at least ``|p-c|-r`` from a point p.  Each point first measures every
    segment of the block with the smallest such lower bound; the nearest
    distance found there, ``ub``, bounds the point's nearest segment from
    above.  Of the other blocks it measures those whose lower bound does not
    exceed ``ub`` by more than a margin: ``1e-12`` times the largest
    coordinate plus ``1e-150``, more than the rounding of the bounds and of
    the measured distances.  So the result is bit-identical to measuring
    every pair.  A NaN bound skips nothing, and neither does a coordinate of
    2**500 or more, where a square could overflow.

    The skip pays when points lie near the polyline compared with a block's
    size.  A pass takes ``min(_BOUNDS // blocks, _PAIRS // _BLOCK)`` points,
    so its (point, block) bounds number at most ``_BOUNDS`` and its nearest
    blocks' pairs at most ``_PAIRS``.  The (point, block) pairs it keeps of
    the other blocks go in fixed slices of ``max(1, _PAIRS // _BLOCK)``, so
    no measurement holds more than ``max(_PAIRS, _BLOCK)`` point-segment
    pairs and memory stays bounded when nothing can be skipped; a point cut
    over slices keeps the smaller gap, and on equal gaps the lower segment.
    Every measurement works in one set of buffers, grown to the largest so
    far: freed after each slice, the work space would be handed back to the
    system and faulted in again by the next one.
    """
    a = poly[:-1]
    d = poly[1:] - a
    dd = np.einsum("ij,ij->i", d, d)

    first = np.arange(0, len(a), _BLOCK)  # block b holds segments first[b]:last[b]
    last = np.minimum(first + _BLOCK, len(a))
    size = last - first
    lo = np.minimum(np.minimum.reduceat(a, first), poly[last])
    hi = np.maximum(np.maximum.reduceat(a, first), poly[last])
    centre = (lo + hi) / 2.0
    radius = np.maximum(
        np.maximum.reduceat(row_norms(a - np.repeat(centre, size, axis=0)), first), row_norms(poly[last] - centre)
    )
    top = np.maximum(np.max(np.abs(poly)), np.max(np.abs(points), initial=0.0))  # NaN if any is
    margin = 1e-12 * top + 1e-150 if top < 2.0**500 else np.inf  # inf: skip nothing

    work = []  # the buffers _sq_gaps works in: p, a, d, p - a, then dd, t, the gaps

    def nearest(pts, pi, bi):
        """The points ``pi`` (ascending) and, for each, the smallest squared gap to the segments
        of its blocks ``bi``, the lowest segment at it (or at its first NaN gap) and its fraction."""
        n = size[bi]
        seg = np.repeat(first[bi] - np.cumsum(n) + n, n) + np.arange(n.sum())
        if not work or len(work[0]) < len(seg):
            work[:] = [np.empty((len(seg), 3)) for _ in range(4)] + [np.empty(len(seg)) for _ in range(3)]
        p, sa, sd, pa, sdd, t, gap = (w[: len(seg)] for w in work)
        for src, idx, buf in ((pts, np.repeat(pi, n), p), (a, seg, sa), (d, seg, sd), (dd, seg, sdd)):
            np.take(src, idx, axis=0, out=buf, mode="clip")  # "clip": no copy of buf; idx is in range
        _sq_gaps(p, sa, sd, sdd, pa, t, gap)
        runs = np.flatnonzero(np.diff(pi, prepend=-1))  # each point's first (point, block) pair
        heads = (np.cumsum(n) - n)[runs]  # and its first point-segment pair
        low = np.minimum.reduceat(gap, heads)
        hit = np.flatnonzero((gap == np.repeat(low, np.diff(heads, append=len(seg)))) | np.isnan(gap))
        at = hit[np.searchsorted(hit, heads)]  # every point has a hit: its minimum, or a NaN
        return pi[runs], low, seg[at], t[at]

    out = np.empty((3, len(points)))  # distance, segment, fraction
    step = max(1, _PAIRS // _BLOCK)  # (point, block) pairs per slice
    chunk = max(1, min(_BOUNDS // len(first), step))
    for start in range(0, len(points), chunk):
        pts = points[start : start + chunk]
        lower = row_norms(pts[:, None, :] - centre) - radius
        every = np.arange(len(pts))
        near = np.argmin(lower, axis=1)
        _, sq, seg, frac = nearest(pts, every, near)
        keep = ~(lower > np.sqrt(sq)[:, None] + margin)
        keep[every, near] = False
        pi, bi = np.nonzero(keep)
        for k in range(0, len(pi), step):
            rows, rest, s, f = nearest(pts, pi[k : k + step], bi[k : k + step])
            new, old = np.fmax(rest, -1.0), np.fmax(sq[rows], -1.0)  # a NaN gap orders first
            take = (new < old) | ((new == old) & (s < seg[rows]))
            seg[rows[take]], frac[rows[take]] = s[take], f[take]
            sq[rows] = np.minimum(sq[rows], rest)
        out[:, start : start + chunk] = np.sqrt(sq), seg, frac
    return out[0], out[1].astype(np.intp), out[2]


def _sq_gaps(p, a, d, dd, pa, t, gap) -> None:
    """Squared gap from each p to the segment a..a+d: clamp the projection, then square each axis.

    A segment whose ``dd`` is not positive (zero length) acts as its point a,
    at fraction 0.  Works in place: ``p``, ``a`` and ``d`` are overwritten,
    ``pa`` (shaped like ``p``) is work space, the clamped fraction is left in
    ``t`` and the gap written to ``gap`` (both shaped like ``dd``).
    """
    np.einsum("ij,ij->i", np.subtract(p, a, out=pa), d, out=t)
    positive = dd > 0.0
    np.clip(np.divide(t, dd, out=t, where=positive), 0.0, 1.0, out=t)
    t[~positive] = 0.0
    g = np.subtract(p, np.add(a, np.multiply(t[:, None], d, out=d), out=a), out=p)
    np.multiply(g, g, out=g)
    np.add(np.add(g[:, 0], g[:, 1], out=gap), g[:, 2], out=gap)


def resample_cad(path: CadPath, spacing_mm: float) -> CadPath:
    """Insert intermediate points so adjacent spacing is at most ``spacing_mm``.

    Every original waypoint is kept exactly; each segment is split into
    ``ceil(length / spacing)`` equal pieces, at least one, so a spacing wider
    than the path returns its waypoints.  ``spacing_mm`` must be positive and
    finite, and more than ``MAX_POINTS`` pieces in all raise ValueError.
    """
    spacing_mm = real_value(spacing_mm, "spacing_mm must be positive and finite", positive=True)
    loop = traverse(path.waypoints, path.closed)
    with np.errstate(over="ignore", invalid="ignore"):  # a length beyond the float range is over the limit below
        a, d = loop[:-1], np.diff(loop, axis=0)
        pieces = np.maximum(np.ceil(row_norms(d) / spacing_mm), 1.0)
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
    if text.lstrip()[:1] == "{":
        waypoints, closed = _parse_cad_json(text)
    else:  # a table with no ``#`` goes to ``csv_table`` as given: one call if it is plain
        waypoints, closed = _parse_cad_csv(text) if "#" in text else (csv_table(data, CAD_CSV_HEADER, 3), False)
    if len(waypoints) < 2:
        raise DegeneratePathError("a path needs at least 2 waypoints")
    return CadPath(waypoints, closed=closed)
