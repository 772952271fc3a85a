"""Command-line interface.

Subcommands cover the full pipeline: synthesize a demonstration, fuse it with
a CAD path, wrap the result as a PathML document, validate/expand/emit that
document, and compare an executed path against the nominal one.

Exit codes: 0 success, 1 a validation/report judged the data bad, 2 unusable
input or usage errors.  Outputs are deterministic; diagnostics go to stderr,
data to ``-o`` files or stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._read import integer, json_number, json_rows, json_value, number
from .cad import parse_cad, resample_cad
from .demo import (
    FILTER_K,
    FILTER_WINDOW,
    TrackerErrorModel,
    filter_outliers,
    format_demo_csv,
    parse_demo,
    synth_demo,
)
from .errors import PathfuseError
from .fusion import MIN_ARC_MM, fuse, fused_path_from_json, fused_path_to_json, to_robot_frame
from .geometry import CalibrationSet, Frame, Transform4, rot_from_fixed_xyz
from .pathml import (
    PROCESS_NUMBERS,
    ProcessParameters,
    build_document,
    expand_layers,
    parse_xml,
    xml_chunks,
)
from .program import TOLERANCE_MM, PathLimits, deviation_report, emit_program, validate_path

CONFIG_ENV = "PATHFUSE_CONFIG"


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for the fuse/emit/report pipeline, loadable from JSON.

    ``resample_spacing_mm`` of None skips CAD resampling.  The capture is
    fused at its full rate; ``fusion.fuse`` smooths it over a fixed window.
    """

    filter_window: int = FILTER_WINDOW
    filter_k: float = FILTER_K
    resample_spacing_mm: float | None = None
    limits: PathLimits = field(default_factory=PathLimits)
    tolerance_mm: float = TOLERANCE_MM
    process: ProcessParameters | None = None


def _require_keys(obj: dict, allowed: Sequence[str], where: str) -> None:
    for k in obj:
        if k not in allowed:
            raise ValueError(f"unknown {where} key {k!r} (known: {', '.join(allowed)})")


def _section(obj: dict, key: str, allowed: Sequence[str]) -> dict:
    """The config object under ``key``, empty where absent, with only ``allowed`` keys."""
    section = obj.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {key!r} must be an object")
    _require_keys(section, allowed, f"config {key}")
    return section


def load_config(data: bytes | str) -> PipelineConfig:
    """Parse pipeline configuration JSON: numbers are JSON numbers, ``filter.window``
    a JSON integer; a null resampling spacing or process number is absent."""
    obj = json_value(data)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    _require_keys(obj, ("filter", "resample_spacing_mm", "limits", "tolerance_mm", "process"), "config")
    kwargs = {}
    f = _section(obj, "filter", ("window", "k"))
    if "window" in f:
        if type(f["window"]) is not int:
            raise ValueError("config filter.window must be a JSON integer")
        kwargs["filter_window"] = f["window"]
    if "k" in f:
        kwargs["filter_k"] = json_number(f["k"], "config filter.k")
    if obj.get("resample_spacing_mm") is not None:
        kwargs["resample_spacing_mm"] = json_number(obj["resample_spacing_mm"], "config resample_spacing_mm")
    if "tolerance_mm" in obj:
        kwargs["tolerance_mm"] = json_number(obj["tolerance_mm"], "config tolerance_mm")

    lim = _section(obj, "limits", ("max_step_mm", "max_speed_mm_s", "workspace_center",
                                   "workspace_radius_mm", "max_orient_step_deg"))
    limits = {k: json_number(v, f"config limits.{k}") for k, v in lim.items() if k != "workspace_center"}
    if "workspace_center" in lim:
        center = lim["workspace_center"]
        if not isinstance(center, list):
            raise ValueError("config limits.workspace_center must be an array of 3 numbers")
        limits["workspace_center"] = tuple(json_number(v, "config limits.workspace_center") for v in center)
    kwargs["limits"] = PathLimits(**limits)

    if "process" in obj:
        p = _section(obj, "process", ("process_type", *(name for name, _ in PROCESS_NUMBERS), "extra"))
        if "process_type" not in p:
            raise ValueError("config process requires 'process_type'")
        extra = p.get("extra", {})
        if not isinstance(extra, dict):
            raise ValueError("config process.extra must be an object")
        numbers = {k: None if v is None else json_number(v, f"config process.{k}")
                   for k, v in p.items() if k not in ("process_type", "extra")}
        kwargs["process"] = ProcessParameters(p["process_type"], extra=extra, **numbers)
    return PipelineConfig(**kwargs)


def load_calibration(data: bytes | str) -> CalibrationSet:
    """Parse calibration JSON: the fixed robot<-world and world<-receiver poses.

    Layout::

        {"t_r_f": {"translation_mm": [x, y, z],
                   "rotation_deg_fixed_xyz": [rx, ry, rz]},
         "t_f_s": {...}}
    """
    obj = json_value(data)
    if not isinstance(obj, dict):
        raise ValueError("calibration must be a JSON object")
    _require_keys(obj, ("t_r_f", "t_f_s"), "calibration")

    def _load(key: str, parent: Frame, child: Frame) -> Transform4:
        if key not in obj:
            raise ValueError(f"calibration is missing {key!r}")
        entry = obj[key]
        if not isinstance(entry, dict):
            raise ValueError(f"calibration {key!r} must be an object")
        _require_keys(entry, ("translation_mm", "rotation_deg_fixed_xyz"), f"calibration {key}")
        try:
            t, deg = json_rows([entry["translation_mm"], entry["rotation_deg_fixed_xyz"]], 3, "vector")
        except (KeyError, ValueError):
            raise ValueError(
                f"calibration {key!r} translation_mm and rotation_deg_fixed_xyz must be finite 3-vectors"
            ) from None
        rx, ry, rz = np.radians(deg)
        return Transform4(rot_from_fixed_xyz(rx, ry, rz), t, parent, child)

    return CalibrationSet(_load("t_r_f", Frame.R, Frame.F), _load("t_f_s", Frame.F, Frame.S))


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _write_out(path: str | None, data: bytes | str | Iterable[bytes]) -> None:
    """Write ``data``, or each bytes chunk of it as it comes, to ``path`` or to stdout."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    chunks = [data] if isinstance(data, bytes) else data
    if path is None and hasattr(sys.stdout, "buffer"):  # the bytes, not re-encoded in the locale's encoding
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    elif path is None:  # a text stream with no byte layer, such as io.StringIO
        sys.stdout.writelines(chunk.decode("utf-8") for chunk in chunks)
    else:
        with open(path, "wb") as f:
            f.writelines(chunks)


def _config_from(args) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if not path:
        return PipelineConfig()
    return load_config(_read(path))


def _parse_vector3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'x,y,z', got {text!r}")
    v = np.array([number(p) for p in parts])
    big = float(np.abs(v).max())
    if not 0.0 < big < math.inf:
        raise ValueError(f"direction must be finite and nonzero, got {text!r}")
    v = v / big  # the largest component is now 1: the squares in the norm neither overflow nor vanish
    return v / float(np.linalg.norm(v))


def _parse_extras(items: Sequence[str]) -> tuple[tuple[str, str], ...]:
    out = []
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"--extra needs KEY=VALUE, got {item!r}")
        out.append((key, value))
    return tuple(out)


def _cmd_synth(args) -> int:
    truth = fused_path_from_json(_read(args.truth))
    if truth.frame != Frame.S:
        raise ValueError("truth path must be in the receiver frame (S) for capture simulation")
    model = TrackerErrorModel(
        z_bias_max=args.z_bias_max,
        z_bias_range=args.z_bias_range,
        xy_noise_sigma=args.xy_noise,
        orient_noise_sigma=args.orient_noise,
        spike_rate=args.spike_rate,
        seed=args.seed,
    )
    series = synth_demo(truth, model, args.rate)
    _write_out(args.output, format_demo_csv(series))
    return 0


def _cmd_fuse(args) -> int:
    config = _config_from(args)
    cad = parse_cad(_read(args.cad))
    series = parse_demo(_read(args.demo))
    calib = load_calibration(_read(args.calib))

    series = filter_outliers(series, config.filter_window, config.filter_k)
    if config.resample_spacing_mm is not None:
        cad = resample_cad(cad, config.resample_spacing_mm)

    fused = fuse(cad, series)
    if fused.time_parameterized:
        print(f"note: the demonstration travels under {MIN_ARC_MM:g} mm; matched to CAD by normalized time",
              file=sys.stderr)
    robot = to_robot_frame(fused, calib)
    _write_out(args.output, fused_path_to_json(robot))
    return 0


def _cmd_pathml_gen(args) -> int:
    fused = fused_path_from_json(_read(args.fused))
    config = _config_from(args)
    base = config.process

    process_type = args.process_type or (base.process_type.value if base else None)
    if process_type is None:
        raise ValueError("--process-type is required (or a 'process' block in the config)")

    flags = {name: getattr(args, name) for name, _ in PROCESS_NUMBERS}
    numbers = {name: getattr(base, name, None) if v is None else v for name, v in flags.items()}  # flags win
    extra = _parse_extras(args.extra) if args.extra else getattr(base, "extra", ())
    process = ProcessParameters(process_type, extra=extra, **numbers)
    doc = build_document(fused, process, args.project)
    _write_out(args.output, xml_chunks(doc))
    return 0


def _validated(args, out):
    """Parse ``args.file`` and check it once with the config's limits; print
    the document violations, then the limit violations, to ``out``."""
    report = validate_path(parse_xml(_read(args.file)), _config_from(args).limits)
    for v in report.document + report.violations:
        print(v, file=out)
    return report


def _cmd_pathml_validate(args) -> int:
    report = _validated(args, sys.stdout)
    return 0 if report.passed else 1


def _cmd_pathml_expand(args) -> int:
    doc = parse_xml(_read(args.file))
    direction = _parse_vector3(args.direction)
    out = expand_layers(doc, args.layers, direction)
    _write_out(args.output, xml_chunks(out))
    return 0


def _cmd_emit(args) -> int:
    report = _validated(args, sys.stderr)
    if not report.passed:
        return 1
    _write_out(args.output, emit_program(report).text)
    return 0


def _cmd_report(args) -> int:
    executed = fused_path_from_json(_read(args.executed))
    nominal = fused_path_from_json(_read(args.nominal))
    config = _config_from(args)
    tolerance = args.tolerance if args.tolerance is not None else config.tolerance_mm
    sections = ()
    if args.sections:
        sections = tuple(map(number, args.sections.split(",")))
    rep = deviation_report(executed, nominal, sections, tolerance)
    _write_out(args.output, rep.to_json())
    return 0 if rep.within_tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathfuse",
        description="Fuse demonstrated tool motion with CAD paths into robot programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="simulate a tracker capture of a true path")
    p.add_argument("--truth", required=True, help="fused-path JSON, frame S")
    p.add_argument("--rate", type=number, required=True, help="sample rate in Hz")
    p.add_argument("--z-bias-max", type=number, default=60.0)
    p.add_argument("--z-bias-range", type=number, default=800.0)
    p.add_argument("--xy-noise", type=number, default=2.0)
    p.add_argument("--orient-noise", type=number, default=1.0)
    p.add_argument("--spike-rate", type=number, default=0.0)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fuse", help="fuse a demonstration with a CAD path")
    p.add_argument("--cad", required=True)
    p.add_argument("--demo", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fuse)

    pathml = sub.add_parser("pathml", help="PathML document operations")
    psub = pathml.add_subparsers(dest="pathml_command", required=True)

    p = psub.add_parser("gen", help="wrap a robot-frame fused path as PathML")
    p.add_argument("--fused", required=True)
    p.add_argument("--project", required=True)
    p.add_argument("--process-type", choices=["adhesive", "welding", "other"])
    for name, attr in PROCESS_NUMBERS:  # --glue-flow-rate, in the unit of GlueFlowRate_ml_min: ml/min
        p.add_argument("--" + name.replace("_", "-"), type=number, help=attr.partition("_")[2].replace("_", "/"))
    p.add_argument("--extra", action="append", metavar="KEY=VALUE")
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pathml_gen)

    p = psub.add_parser("validate", help="check a document and its moves as emit does")
    p.add_argument("file")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_pathml_validate)

    p = psub.add_parser("expand", help="replicate a single layer into a stack")
    p.add_argument("file")
    p.add_argument("--layers", type=integer, required=True)
    p.add_argument("--direction", default="0,0,1", metavar="X,Y,Z",
                   help="stacking direction: any finite nonzero vector, normalized (default 0,0,1)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pathml_expand)

    p = sub.add_parser("emit", help="emit a neutral robot program")
    p.add_argument("file")
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_emit)

    p = sub.add_parser("report", help="deviation of an executed path from nominal")
    p.add_argument("--executed", required=True)
    p.add_argument("--nominal", required=True)
    p.add_argument("--sections", help="comma-separated breaks in (0,1)")
    p.add_argument("--tolerance", type=number, help="mm")
    p.add_argument("--config")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_report)

    return parser


# parse_args keeps no state in the parser, so one build serves every call.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (PathfuseError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
