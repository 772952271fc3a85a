"""pathfuse: single-shot demonstration + CAD path -> robot program.

A human demonstrates the tool motion once with a tracked handheld sensor;
the nominal geometry comes from CAD.  This package fuses the two (CAD
positions, demonstrated orientations and speeds), expresses the result in
robot-base coordinates, serializes it as a PathML XML document, checks it
against kinematic limits, and emits a neutral robot program.
"""

from .errors import (
    DegeneratePathError,
    FrameMismatchError,
    ParseError,
    PathfuseError,
    SchemaError,
    ValidationError,
)
from .geometry import (
    CalibrationSet,
    Frame,
    Transform4,
    compose,
    rot_from_fixed_xyz,
)
from .demo import (
    PoseSeries,
    TrackerErrorModel,
    filter_outliers,
    format_demo_csv,
    parse_demo,
    synth_demo,
)
from .cad import CadPath, parse_cad, resample_cad
from .fusion import (
    FusedPath,
    fuse,
    fuse_capture,
    fused_path_from_json,
    fused_path_to_json,
    to_robot_frame,
)
from .pathml import (
    Layer,
    PathMLDocument,
    ProcessParameters,
    ProcessType,
    Track,
    Violation,
    build_document,
    expand_layers,
    parse_xml,
    validate_document,
    write_xml,
)
from .program import (
    DeviationReport,
    LimitViolation,
    PathLimits,
    RobotProgram,
    SectionDeviation,
    ValidationReport,
    deviation_report,
    emit_program,
    validate_path,
)

__version__ = "0.1.0"

__all__ = [
    "CadPath",
    "CalibrationSet",
    "DegeneratePathError",
    "DeviationReport",
    "Frame",
    "FrameMismatchError",
    "FusedPath",
    "Layer",
    "LimitViolation",
    "ParseError",
    "PathLimits",
    "PathMLDocument",
    "PathfuseError",
    "PoseSeries",
    "ProcessParameters",
    "ProcessType",
    "RobotProgram",
    "SchemaError",
    "SectionDeviation",
    "Track",
    "TrackerErrorModel",
    "Transform4",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "build_document",
    "compose",
    "deviation_report",
    "emit_program",
    "expand_layers",
    "filter_outliers",
    "format_demo_csv",
    "fuse",
    "fuse_capture",
    "fused_path_from_json",
    "fused_path_to_json",
    "parse_cad",
    "parse_demo",
    "parse_xml",
    "resample_cad",
    "rot_from_fixed_xyz",
    "synth_demo",
    "to_robot_frame",
    "validate_document",
    "validate_path",
    "write_xml",
]
