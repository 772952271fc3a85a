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
from ._read import real_value
from ._rows import fill_rows
from .cad import arc_fraction, arc_lengths, nearest_segments, traverse
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
            object.__setattr__(self, name, real_value(getattr(self, name), f"{name} must be positive and finite", True))
        c = tuple(real_value(v, "workspace_center must hold numbers") for v in self.workspace_center)
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


def _layers(doc: PathMLDocument) -> list[tuple[int, Layer]]:
    """(position in ``doc.layers``, layer) pairs in the order moves are checked and emitted:
    by ``Index``, a stable sort, so equal indices keep their listing order."""
    return sorted(enumerate(doc.layers), key=lambda pair: pair[1].index)


def _traverse(doc: PathMLDocument) -> tuple[np.ndarray, np.ndarray]:
    """The moves of a document in the one order they are checked and emitted.

    Layers in ``_layers`` order, then tracks as listed, then points: every
    point joined into one ``(N, 7)`` array, and each point's (layer position,
    track, point) address as an ``(N, 3)`` integer array.
    """
    tracks = [(li, ti, t.points) for li, layer in _layers(doc) for ti, t in enumerate(layer.tracks)]
    points = np.concatenate([np.empty((0, 7))] + [pts for _, _, pts in tracks])
    li, ti, n = np.array([(li, ti, len(pts)) for li, ti, pts in tracks], dtype=np.intp).reshape(-1, 3).T
    first = np.repeat(np.cumsum(n) - n, n)  # row where each point's track starts
    address = np.column_stack([np.repeat(li, n), np.repeat(ti, n), np.arange(len(points)) - first])
    return points, address


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
    pts, address = _traverse(doc)
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
    ``validate_path`` checks them (``_layers``): layers by ``Index`` (equal
    indices in listing order), then tracks, then points.
    Tool-active tracks are wrapped in SET_IO TOOL 1/0.
    """
    if not report.passed:
        raise ValidationError("refusing to emit: " + "; ".join(map(str, report.document + report.violations)))
    doc = report.doc
    layers = _layers(doc)

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
    the nominal polyline (closing segments included for closed paths), as
    ``cad.nearest_segments`` finds it: bit-identical to measuring every
    segment, in bounded memory, and with no matching of progress, so it holds
    for any executed path.
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
    tolerance_mm = real_value(tolerance_mm, "tolerance_mm must be positive and finite", positive=True)
    breaks = tuple(real_value(b, "section breaks must be numbers") for b in section_breaks)
    if any(not (0.0 < b < 1.0) for b in breaks):
        raise ValueError(f"section breaks must lie strictly inside (0, 1), got {breaks}")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError(f"section breaks must strictly increase, got {breaks}")

    # coordinates near the float limit give inf or NaN distances, which fail the
    # tolerance check, and NaN progress, which falls in the last section
    with np.errstate(over="ignore", invalid="ignore"):
        devs = nearest_segments(executed.positions, traverse(nominal.positions, nominal.closed))[0]
        # executed progress for sectioning; degenerate (zero-length) paths land in section 1
        params = arc_fraction(arc_lengths(traverse(executed.positions, executed.closed)))[: len(executed)]

    idx = np.searchsorted(breaks, params, side="right")  # no breaks: all in section 1
    masks = [idx == s for s in range(len(breaks) + 1)]
    overall = float(np.max(devs))
    return DeviationReport(
        tolerance_mm=tolerance_mm,
        overall_max_mm=overall,
        within_tolerance=bool(overall <= tolerance_mm),
        sections=tuple(
            SectionDeviation(f"section_{s}", float(np.max(devs[m], initial=0.0)), int(np.count_nonzero(m)))
            for s, m in enumerate(masks, 1)
        ),
    )
