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
from dataclasses import dataclass

import numpy as np

from .cad import arc_fraction, traverse
from .errors import FrameMismatchError, ValidationError
from .fusion import FusedPath
from .geometry import rotation_angle, rots_from_euler_zyx
from .pathml import PathMLDocument, unsign_zeros, validate_document


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
    violations: tuple[LimitViolation, ...]

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_path(doc: PathMLDocument, limits: PathLimits) -> ValidationReport:
    """Check every point of a document against kinematic limits.

    Violations come out in traversal order (layers as listed, then tracks,
    then points); for one point the pair rules (step, orient_step) precede
    the point rules (reachability, speed).
    """
    rules = ("step", "orient_step", "reachability", "speed")
    limit = (limits.max_step_mm, limits.max_orient_step_deg, limits.workspace_radius_mm, limits.max_speed_mm_s)
    out: list[LimitViolation] = []
    for li, layer in enumerate(doc.layers):
        for ti, track in enumerate(layer.tracks):
            pts = track.points
            zyx = np.radians(pts[:, 5:2:-1])  # (rz, ry, rx) columns
            if not np.isfinite(zyx).all():
                raise ValueError(f"layer {li} track {ti} has non-finite angles")
            rots = rots_from_euler_zyx(zyx)
            # one row per point, one column per rule; NaN where a rule does not apply
            measured = np.full((len(pts), 4), np.nan)
            measured[1:, 0] = np.linalg.norm(np.diff(pts[:, :3], axis=0), axis=1)
            measured[1:, 1] = np.degrees(rotation_angle(np.swapaxes(rots[:-1], 1, 2) @ rots[1:]))
            measured[:, 2] = np.linalg.norm(pts[:, :3] - limits.workspace_center, axis=1)
            measured[:, 3] = pts[:, 6]
            out.extend(
                LimitViolation(li, ti, int(pi), rules[ri], float(measured[pi, ri]), limit[ri])
                for pi, ri in zip(*np.nonzero(measured > limit))
            )
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class RobotProgram:
    lines: tuple[str, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


_MOVEL = "MOVEL {:.3f} {:.3f} {:.3f} {:.3f} {:.3f} {:.3f} V={:.3f}"


def _comment(text: str) -> str:
    # comments are single lines; collapse anything that would break that
    return "# " + " ".join(str(text).split())


def emit_program(doc: PathMLDocument, validation: ValidationReport | None = None) -> RobotProgram:
    """Emit the neutral-dialect program for a document.

    If a validation report is supplied it must have passed; emission refuses
    to encode a path known to violate limits, and raises ValidationError for
    a document that breaks the document rules.  Layers are emitted in index
    order; tool-active tracks are wrapped in SET_IO TOOL 1/0.
    """
    if validation is not None and not validation.passed:
        raise ValueError(
            f"refusing to emit: validation failed with {len(validation.violations)} violation(s)"
        )
    total_points = sum(len(t.points) for l in doc.layers for t in l.tracks)
    if total_points == 0:
        raise ValueError("document has no points to emit")
    bad = validate_document(doc)
    if bad:
        raise ValidationError("refusing to emit an invalid document: " + "; ".join(str(v) for v in bad))

    p = doc.process
    lines = [_comment(f"program: {doc.project_name}"), _comment(f"process_type: {p.process_type.value}")]
    for label, v in (
        ("glue_flow_rate_ml_min", p.glue_flow_rate),
        ("wire_feed_rate_mm_s", p.wire_feed_rate),
        ("layer_height_mm", p.layer_height),
    ):
        if v is not None:
            lines.append(_comment(f"{label}: " + unsign_zeros(f"{v:.3f}", 3)))
    for k, v in p.extra:
        lines.append(_comment(f"{k}: {v}"))

    for layer in sorted(doc.layers, key=lambda l: l.index):
        lines.append(_comment(f"layer: {layer.name}"))
        for track in layer.tracks:
            if track.tool_active:
                lines.append("SET_IO TOOL 1")
            lines.extend(unsign_zeros(_MOVEL.format(*row), 3) for row in track.points.tolist())
            if track.tool_active:
                lines.append("SET_IO TOOL 0")

    return RobotProgram(tuple(lines))


@dataclass(frozen=True)
class SectionDeviation:
    label: str
    max_deviation_mm: float
    point_count: int

    @property
    def empty(self) -> bool:
        return self.point_count == 0


@dataclass(frozen=True)
class DeviationReport:
    sections: tuple[SectionDeviation, ...]
    overall_max_mm: float
    tolerance_mm: float
    within_tolerance: bool

    def to_json(self) -> str:
        obj = {
            "tolerance_mm": self.tolerance_mm,
            "overall_max_mm": self.overall_max_mm,
            "within_tolerance": self.within_tolerance,
            "sections": [
                {
                    "label": s.label,
                    "max_deviation_mm": s.max_deviation_mm,
                    "point_count": s.point_count,
                }
                for s in self.sections
            ],
        }
        return json.dumps(obj, indent=2) + "\n"


def _point_to_polyline_mm(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Min distance of each point to any segment of a polyline.

    Points go 16 at a time, so the (16, segments, 3) temporaries stay small
    enough to work in cache on long paths.
    """
    chunk = 16
    a = poly[:-1]
    d = poly[1:] - a
    dd = np.einsum("ij,ij->i", d, d)
    dd_safe = np.where(dd > 0.0, dd, 1.0)  # zero-length segments act as points
    out = np.empty(len(points))
    for start in range(0, len(points), chunk):
        p = points[start : start + chunk, None, :]
        t = np.clip(np.einsum("kij,ij->ki", p - a, d) / dd_safe, 0.0, 1.0)
        t = np.where(dd > 0.0, t, 0.0)
        gap = p - (a + t[..., None] * d)
        sq = gap * gap
        out[start : start + chunk] = np.sqrt(np.min(sq[..., 0] + sq[..., 1] + sq[..., 2], axis=1))
    return out


def deviation_report(
    executed: FusedPath,
    nominal: FusedPath,
    section_breaks: tuple[float, ...] = (),
    tolerance_mm: float = 4.0,
) -> DeviationReport:
    """Positional deviation of an executed path from a nominal one.

    Each executed point's deviation is its distance to the nearest point of
    the nominal polyline (closing segments included for closed paths).
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

    devs = _point_to_polyline_mm(executed.positions, traverse(nominal.positions, nominal.closed))

    # executed progress for sectioning; degenerate (zero-length) paths land in section 1
    params = arc_fraction(traverse(executed.positions, executed.closed))[: len(executed)]

    idx = np.searchsorted(np.array(breaks), params, side="right") if breaks else np.zeros(
        len(params), dtype=int
    )
    sections = []
    for s in range(len(breaks) + 1):
        mask = idx == s
        count = int(np.sum(mask))
        sections.append(
            SectionDeviation(
                label=f"section_{s + 1}",
                max_deviation_mm=float(np.max(devs[mask])) if count else 0.0,
                point_count=count,
            )
        )
    overall = float(np.max(devs))
    return DeviationReport(
        sections=tuple(sections),
        overall_max_mm=overall,
        tolerance_mm=float(tolerance_mm),
        within_tolerance=bool(overall <= tolerance_mm),
    )
