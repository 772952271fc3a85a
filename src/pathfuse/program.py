"""Robot-program emission, kinematic limit checks, and deviation reports.

The neutral program dialect is deliberately tiny so per-vendor translators
stay trivial::

    # comment
    SET_IO TOOL 1
    MOVEL <x> <y> <z> <rx> <ry> <rz> V=<speed>
    SET_IO TOOL 0

Positions are mm, angles degrees, speed mm/s, all with three decimals.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from . import _quat
from ._rows import fill_rows
from .cad import arc_fraction, arc_lengths, traverse
from .errors import FrameMismatchError, ValidationError
from .fusion import FusedPath
from .geometry import row_norms
from .pathml import PROCESS_NUMBERS, Layer, PathMLDocument, Violation, unsign_zeros, validate_document


@dataclass(frozen=True)
class PathLimits:
    """Kinematic limits a path must respect before emission.

    ``max_step_mm`` bounds the jump between consecutive points,
    ``max_orient_step_deg`` bounds the relative rotation between them,
    and the workspace is a sphere.
    """

    max_step_mm: float = 50.0
    max_speed_mm_s: float = 1000.0
    workspace_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    workspace_radius_mm: float = 3000.0
    max_orient_step_deg: float = 30.0

    def __post_init__(self):
        for name in ("max_step_mm", "max_speed_mm_s", "workspace_radius_mm", "max_orient_step_deg"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        c = tuple(float(v) for v in self.workspace_center)
        if len(c) != 3 or not all(math.isfinite(v) for v in c):
            raise ValueError(f"workspace_center must be a finite 3-vector, got {self.workspace_center!r}")
        object.__setattr__(self, "workspace_center", c)


@dataclass(frozen=True)
class LimitViolation:
    """One limit violation, addressed by (layer, track, point) position."""

    layer: int
    track: int
    point: int
    rule: str  # "step" | "orient_step" | "reachability" | "speed"
    measured: float
    limit: float

    def __str__(self) -> str:
        return (
            f"layer {self.layer} track {self.track} point {self.point}: "
            f"{self.rule} {self.measured:.3f} exceeds limit {self.limit:.3f}"
        )


@dataclass(frozen=True)
class ValidationReport:
    """``validate_path``'s verdict on ``doc``: its document rule violations
    (``document``) and the limit violations of its moves (``violations``).
    ``emit_program`` emits ``doc`` only from a report that passed."""

    doc: PathMLDocument
    violations: tuple[LimitViolation, ...]
    document: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not (self.violations or self.document)


def _traverse(doc: PathMLDocument) -> tuple[list[tuple[int, Layer]], np.ndarray, np.ndarray]:
    """The moves of a document in the one order they are checked and emitted.

    Layers go by ``Index`` (a stable sort, so equal indices keep their listing
    order), then tracks as listed, then points.  Returns the layers as
    (position in ``doc.layers``, layer) pairs in that order, every point
    joined into one ``(N, 7)`` array, and each point's (layer position,
    track, point) address as an ``(N, 3)`` integer array.
    """
    layers = sorted(enumerate(doc.layers), key=lambda pair: pair[1].index)
    tracks = [(li, ti, t.points) for li, layer in layers for ti, t in enumerate(layer.tracks)]
    points = np.concatenate([np.empty((0, 7))] + [pts for _, _, pts in tracks])
    li, ti, n = np.array([(li, ti, len(pts)) for li, ti, pts in tracks], dtype=np.intp).reshape(-1, 3).T
    first = np.repeat(np.cumsum(n) - n, n)  # row where each point's track starts
    address = np.column_stack([np.repeat(li, n), np.repeat(ti, n), np.arange(len(points)) - first])
    return layers, points, address


def validate_path(doc: PathMLDocument, limits: PathLimits) -> ValidationReport:
    """Check a document against its rules and every move against kinematic limits.

    ``document`` holds ``validate_document``'s violations, in its order, and
    ``violations`` the limit violations.  The moves are those
    ``emit_program`` emits, in its order: layers by ``Index`` (equal
    indices in listing order), then tracks, then points.
    The pair rules (step, orient_step) apply to every point after the
    program's first, so the moves between tracks and between layers are
    checked too.  Violations come out in that order, and for one point the
    pair rules precede the point rules (reachability, speed).  A violation's
    ``layer`` is the layer's position in ``doc.layers``.  A non-finite field
    is a ``finite`` document violation; a NaN measured from it breaks no limit.
    An orientation step is 4 atan2(|a - b|, |a + b|) of the two points' unit
    quaternions a, b, with b in a's hemisphere: exact at 0 and at a half
    turn, where an arccos of the relative rotation's trace reads a 1e-7
    degree step as 0 and a 179.9999999 degree step as 180.
    """
    rules = ("step", "orient_step", "reachability", "speed")
    limit = (limits.max_step_mm, limits.max_orient_step_deg, limits.workspace_radius_mm, limits.max_speed_mm_s)
    _, pts, address = _traverse(doc)
    # one row per point, one column per rule; NaN where a rule does not apply
    measured = np.full((len(pts), 4), np.nan)
    # inf - inf, cos(inf): NaN, which breaks no limit; a length that overflows is inf, which breaks it
    with np.errstate(over="ignore", invalid="ignore"):
        q = _quat.from_euler_zyx(np.radians(pts[:, 5:2:-1]))  # (rz, ry, rx) columns
        measured[1:, 0] = row_norms(np.diff(pts[:, :3], axis=0))
        measured[1:, 1] = np.degrees(_quat.angles_between(q[:-1], q[1:]))
        measured[:, 2] = row_norms(pts[:, :3] - limits.workspace_center)
    measured[:, 3] = pts[:, 6]
    violations = tuple(
        LimitViolation(*address[pi].tolist(), rules[ri], float(measured[pi, ri]), limit[ri])
        for pi, ri in zip(*np.nonzero(measured > limit))
    )
    return ValidationReport(doc, violations, tuple(validate_document(doc)))


@dataclass(frozen=True)
class RobotProgram:
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_MOVEL = "MOVEL %.3f %.3f %.3f %.3f %.3f %.3f V=%.3f"


def _movel_lines(tracks: Iterable[np.ndarray]) -> list[list[str]]:
    """One MOVEL line per row of each track's ``(n, 7)`` points."""
    return [text.splitlines() for text in fill_rows(_MOVEL, tracks, clean=lambda text: unsign_zeros(text, 3))]


def _comment(text: str) -> str:
    # comments are single lines; collapse anything that would break that
    return "# " + " ".join(str(text).split())


def emit_program(report: ValidationReport) -> RobotProgram:
    """Emit the neutral-dialect program for the document ``report`` checked.

    ``report`` is ``validate_path``'s report on ``report.doc``; emission runs
    no check of its own.  A report that did not pass raises ValidationError
    naming every violation, document rules first, then limits, as ``pathml
    validate`` prints them.  The moves are emitted in the order
    ``validate_path`` checks them (``_traverse``): layers by ``Index`` (equal
    indices in listing order), then tracks, then points.
    Tool-active tracks are wrapped in SET_IO TOOL 1/0.
    """
    if not report.passed:
        raise ValidationError("refusing to emit: " + "; ".join(map(str, report.document + report.violations)))
    doc = report.doc
    layers = _traverse(doc)[0]

    p = doc.process
    lines = [_comment(f"program: {doc.project_name}"), _comment(f"process_type: {p.process_type.value}")]
    for field, attr in PROCESS_NUMBERS:
        v = getattr(p, field)
        if v is not None:  # glue_flow_rate_ml_min: the field and the attribute's unit
            lines.append(_comment(f"{field}_{attr.partition('_')[2]}: " + unsign_zeros(f"{v:.3f}", 3)))
    for k, v in p.extra:
        lines.append(_comment(f"{k}: {v}"))

    moves = iter(_movel_lines(t.points for _, layer in layers for t in layer.tracks))
    for _, layer in layers:
        lines.append(_comment(f"layer: {layer.name}"))
        for track in layer.tracks:
            if track.tool_active:
                lines.append("SET_IO TOOL 1")
            lines.extend(next(moves))
            if track.tool_active:
                lines.append("SET_IO TOOL 0")

    return RobotProgram(tuple(lines))


@dataclass(frozen=True)
class SectionDeviation:
    label: str
    max_deviation_mm: float
    point_count: int


@dataclass(frozen=True)
class DeviationReport:
    """``deviation_report``'s result.  The fields, and ``SectionDeviation``'s,
    are declared in the order ``to_json`` writes them."""

    tolerance_mm: float
    overall_max_mm: float
    within_tolerance: bool
    sections: tuple[SectionDeviation, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


_BLOCK = 16  # consecutive segments under one bounding ball
_BOUNDS = 1 << 13  # (point, block) bounds per pass
_PAIRS = 1 << 12  # point-segment pairs per measurement: its work space stays under 0.6 MB


def _point_to_polyline_mm(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Min distance of each point to any segment of a polyline.

    Each pair is measured by one formula (``_sq_gaps``); each point keeps
    the smallest squared gap, then ``sqrt``.  Pairs that cannot hold the
    nearest segment are skipped.  The segments go in blocks of ``_BLOCK``
    consecutive ones, each inside a ball (centre: the middle of its
    vertices' bounding box; radius: the farthest vertex from there), so
    every segment of a block lies at least ``|p-c|-r`` from a point p.
    Each point first measures every segment of the block with the smallest
    such lower bound; the nearest distance found there, ``ub``, bounds the
    point's nearest segment from above.  Of the other blocks it measures
    those whose lower bound does not exceed ``ub`` by more than a margin:
    ``1e-12`` times the largest coordinate plus ``1e-150``, more than the
    rounding of the bounds and of the measured distances.  So the result is
    bit-identical to measuring every pair.  A NaN bound skips nothing, and
    neither does a coordinate of 2**500 or more, where a square could
    overflow.

    The skip pays when points lie near the polyline compared with a block's
    size.  A pass takes ``min(_BOUNDS // blocks, _PAIRS // _BLOCK)`` points,
    so its (point, block) bounds number at most ``_BOUNDS`` and its nearest
    blocks' pairs at most ``_PAIRS``.  It measures the pairs of the other
    blocks it keeps in slices of whole points, at most ``_PAIRS`` pairs each
    unless one point alone has more, so memory stays bounded when nothing
    can be skipped.  Every measurement gathers into one set of buffers, grown
    to the largest so far, and ``_sq_gaps`` works in them, so slices reuse
    their work space: freed after each slice, it would be handed back to the
    system and faulted in again by the next one.
    """
    a = poly[:-1]
    d = poly[1:] - a
    dd = np.einsum("ij,ij->i", d, d)
    dd_safe = np.where(dd > 0.0, dd, 1.0)  # zero-length segments act as points

    first = np.arange(0, len(a), _BLOCK)  # block b holds segments first[b]:last[b]
    last = np.minimum(first + _BLOCK, len(a))
    size = last - first
    lo = np.minimum(np.minimum.reduceat(a, first), poly[last])
    hi = np.maximum(np.maximum.reduceat(a, first), poly[last])
    centre = (lo + hi) / 2.0
    radius = np.maximum(
        np.maximum.reduceat(_norm(a - np.repeat(centre, size, axis=0)), first), _norm(poly[last] - centre)
    )
    top = np.maximum(np.max(np.abs(poly)), np.max(np.abs(points), initial=0.0))  # NaN if any is
    margin = 1e-12 * top + 1e-150 if top < 2.0**500 else np.inf  # inf: skip nothing

    work = []  # the buffers _sq_gaps works in: p, a, d, p - a, then dd, dd_safe, t

    def min_sq(pts, pi, bi):
        """The points ``pi`` (ascending) and the smallest squared gap of each to the segments of its blocks ``bi``."""
        n = size[bi]
        seg = np.repeat(first[bi] - np.cumsum(n) + n, n) + np.arange(n.sum())
        row = np.repeat(pi, n)
        if not work or len(work[0]) < len(seg):
            work[:] = [np.empty((len(seg), 3)) for _ in range(4)] + [np.empty(len(seg)) for _ in range(3)]
        p, sa, sd, pa, sdd, sdd_safe, t = (w[: len(seg)] for w in work)
        for src, idx, buf in ((pts, row, p), (a, seg, sa), (d, seg, sd), (dd, seg, sdd), (dd_safe, seg, sdd_safe)):
            np.take(src, idx, axis=0, out=buf, mode="clip")  # "clip": no copy of buf; idx is in range
        runs = np.flatnonzero(np.diff(pi, prepend=-1))  # each point's first (point, block) pair
        return pi[runs], np.minimum.reduceat(_sq_gaps(p, sa, sd, sdd, sdd_safe, pa, t), (np.cumsum(n) - n)[runs])

    out = np.empty(len(points))
    chunk = max(1, min(_BOUNDS // len(first), _PAIRS // _BLOCK))
    for start in range(0, len(points), chunk):
        pts = points[start : start + chunk]
        lower = _norm(pts[:, None, :] - centre) - radius
        every = np.arange(len(pts))
        near = np.argmin(lower, axis=1)
        sq = min_sq(pts, every, near)[1]
        keep = ~(lower > np.sqrt(sq)[:, None] + margin)
        keep[every, near] = False
        pi, bi = np.nonzero(keep)
        # cum[k]: the pairs of the points before k; each slice ends at the last point that fits
        cum = np.concatenate([[0.0], np.cumsum(np.bincount(pi, size[bi], len(pts)))])
        p0 = 0
        while p0 < len(pts):
            p1 = max(p0 + 1, int(np.searchsorted(cum, cum[p0] + _PAIRS, side="right")) - 1)
            k0, k1 = np.searchsorted(pi, (p0, p1))
            if k1 > k0:
                rows, rest = min_sq(pts, pi[k0:k1], bi[k0:k1])
                sq[rows] = np.minimum(sq[rows], rest)
            p0 = p1
        out[start : start + chunk] = np.sqrt(sq)
    return out


def _sq_gaps(
    p: np.ndarray, a: np.ndarray, d: np.ndarray, dd: np.ndarray, dd_safe: np.ndarray, pa: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Squared gap from each p to the segment a..a+d: clamp the projection, then square each axis.

    Works in place: ``p``, ``a`` and ``d`` are overwritten, ``pa`` (shaped like
    ``p``) is work space, and the result is written to ``t`` (shaped like ``dd``).
    """
    np.einsum("ij,ij->i", np.subtract(p, a, out=pa), d, out=t)
    np.clip(np.divide(t, dd_safe, out=t), 0.0, 1.0, out=t)
    t[~(dd > 0.0)] = 0.0
    g = np.subtract(p, np.add(a, np.multiply(t[:, None], d, out=d), out=a), out=p)
    np.multiply(g, g, out=g)
    return np.add(np.add(g[:, 0], g[:, 1], out=t), g[:, 2], out=t)


def _norm(v: np.ndarray) -> np.ndarray:
    """Length of each vector along the last axis; a third of ``np.linalg.norm``'s time on these stacks."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


# deviation_report's default tolerance, which the CLI's config keeps too.
TOLERANCE_MM = 4.0


def deviation_report(
    executed: FusedPath,
    nominal: FusedPath,
    section_breaks: tuple[float, ...] = (),
    tolerance_mm: float = TOLERANCE_MM,
) -> DeviationReport:
    """Positional deviation of an executed path from a nominal one.

    Each executed point's deviation is its distance to the nearest point of
    the nominal polyline (closing segments included for closed paths).  The
    search skips only blocks of 16 consecutive segments whose bounding ball
    is provably farther than a segment already measured: each point first
    measures the block whose ball comes nearest, and that distance is its
    upper bound.  So the distances are bit-identical to measuring every
    segment; the search needs no matching of progress, so it holds for any
    executed path.  Points go in passes sized so that their (point, block)
    bounds number at most 2**13, and kept pairs in slices of at most 2**12,
    so memory stays bounded however few blocks can be skipped.  Skipping
    saves most on an executed path that stays near the nominal; one far from
    it costs about what measuring every segment costs.
    Sections split the executed path at the given normalized arc-length
    breaks, which must be strictly increasing and inside (0, 1); deviations
    are reported per section and overall against ``tolerance_mm``.  The
    default tolerance is the 4 mm bound of the most permissive process this
    pipeline targets.
    """
    if executed.frame != nominal.frame:
        raise FrameMismatchError(
            f"paths are in different frames: {executed.frame} vs {nominal.frame}"
        )
    if not (math.isfinite(tolerance_mm) and tolerance_mm > 0.0):
        raise ValueError(f"tolerance_mm must be positive, got {tolerance_mm!r}")
    breaks = tuple(float(b) for b in section_breaks)
    if any(not (0.0 < b < 1.0) for b in breaks):
        raise ValueError(f"section breaks must lie strictly inside (0, 1), got {breaks}")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError(f"section breaks must strictly increase, got {breaks}")

    # coordinates near the float limit give inf or NaN distances, which fail the
    # tolerance check, and NaN progress, which falls in the last section
    with np.errstate(over="ignore", invalid="ignore"):
        devs = _point_to_polyline_mm(executed.positions, traverse(nominal.positions, nominal.closed))
        # executed progress for sectioning; degenerate (zero-length) paths land in section 1
        params = arc_fraction(arc_lengths(traverse(executed.positions, executed.closed)))[: len(executed)]

    idx = np.searchsorted(breaks, params, side="right")  # no breaks: all in section 1
    masks = [idx == s for s in range(len(breaks) + 1)]
    overall = float(np.max(devs))
    return DeviationReport(
        tolerance_mm=float(tolerance_mm),
        overall_max_mm=overall,
        within_tolerance=bool(overall <= tolerance_mm),
        sections=tuple(
            SectionDeviation(f"section_{s}", float(np.max(devs[m], initial=0.0)), int(np.count_nonzero(m)))
            for s, m in enumerate(masks, 1)
        ),
    )
