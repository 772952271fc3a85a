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
    ResampleWarning,
    SchemaError,
    TimeParameterizationWarning,
    ValidationError,
)
from .geometry import (
    CalibrationSet,
    Frame,
    Transform4,
    compose,
    rot_from_fixed_xyz,
    rotation_angle,
    wrap_angle,
)
from .demo import (
    PoseSeries,
    TrackerErrorModel,
    downsample,
    estimate_speed,
    filter_outliers,
    format_demo_csv,
    parse_demo,
    path_parameters,
    synth_demo,
)
from .cad import CadPath, arc_params, parse_cad, resample_cad
from .fusion import (
    FusedPath,
    fuse,
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
    "ResampleWarning",
    "RobotProgram",
    "SchemaError",
    "SectionDeviation",
    "TimeParameterizationWarning",
    "Track",
    "TrackerErrorModel",
    "Transform4",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "arc_params",
    "build_document",
    "compose",
    "deviation_report",
    "downsample",
    "emit_program",
    "estimate_speed",
    "expand_layers",
    "filter_outliers",
    "format_demo_csv",
    "fuse",
    "fused_path_from_json",
    "fused_path_to_json",
    "parse_cad",
    "parse_demo",
    "parse_xml",
    "path_parameters",
    "resample_cad",
    "rot_from_fixed_xyz",
    "rotation_angle",
    "synth_demo",
    "to_robot_frame",
    "validate_document",
    "validate_path",
    "wrap_angle",
    "write_xml",
]
