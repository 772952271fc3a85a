"""Fuse demonstrated orientations and speeds with nominal CAD positions.

The demonstrator cannot place the handheld sensor as accurately as CAD data
places the part, but the orientation and pacing of a practiced human motion
are exactly what a robot program needs.  Fusion therefore keeps CAD waypoint
positions bit-for-bit and borrows orientation and speed from the
demonstration, matched by normalized path progress.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _quat
from .errors import FrameMismatchError, ParseError, TimeParameterizationWarning
from .cad import CadPath, arc_params, traverse
from .demo import PoseSeries, estimate_speed, path_parameters
from .geometry import CalibrationSet, Frame, compose, euler_zyx_from_rots, rots_from_euler_zyx


@dataclass(frozen=True, eq=False)
class FusedPath:
    """Robot-ready path: positions, orientations (rx, ry, rz radians), speeds.

    ``closed`` paths materialize the return to the first position as an
    explicit final point.  ``time_parameterized`` records that the source
    demonstration was matched by time rather than arc length; it is an
    in-memory diagnostic and is not serialized.
    """

    positions: np.ndarray
    orientations: np.ndarray
    speeds: np.ndarray
    frame: Frame
    closed: bool = False
    time_parameterized: bool = False

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float).copy()
        o = np.asarray(self.orientations, dtype=float).copy()
        v = np.asarray(self.speeds, dtype=float).reshape(-1).copy()
        n = len(v)
        if n < 2:
            raise ValueError("a fused path needs at least 2 points")
        if p.shape != (n, 3) or o.shape != (n, 3):
            raise ValueError(
                f"shape mismatch: {n} speeds, positions {p.shape}, orientations {o.shape}"
            )
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(o)) and np.all(np.isfinite(v))):
            raise ValueError("fused path contains non-finite values")
        if np.any(v < 0.0):
            raise ValueError("speeds must be >= 0")
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame, got {self.frame!r}")
        for a in (p, o, v):
            a.flags.writeable = False
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "orientations", o)
        object.__setattr__(self, "speeds", v)

    def __len__(self) -> int:
        return len(self.speeds)


def fuse(cad: CadPath, demo: PoseSeries) -> FusedPath:
    """Combine CAD positions with demonstrated orientation and speed.

    Output points are the CAD waypoints verbatim (plus the closing point for
    closed paths).  Each point's orientation comes from spherically blending
    the two demonstration samples bracketing the same normalized progress;
    speed interpolates linearly.  The result is expressed in the tracker
    receiver frame, like the demonstration itself.
    """
    demo_params, time_based = path_parameters(demo.positions, demo.t)
    if time_based:
        warnings.warn(
            "demonstration travel is below the arc-length threshold; "
            "matching by normalized time instead",
            TimeParameterizationWarning,
        )

    cad_u = arc_params(cad)
    positions = traverse(cad.waypoints, cad.closed)

    # (psi, theta, phi) reversed is the robot's fixed-axis (rx, ry, rz)
    orientations = _quat.interpolate_zyx(demo_params, demo.orientations, cad_u)[:, ::-1]

    speeds = np.interp(cad_u, demo_params, estimate_speed(demo))

    return FusedPath(
        positions=positions,
        orientations=orientations,
        speeds=speeds,
        frame=Frame.S,
        closed=cad.closed,
        time_parameterized=time_based,
    )


def to_robot_frame(path: FusedPath, calib: CalibrationSet) -> FusedPath:
    """Re-express a receiver-frame path in robot-base coordinates."""
    if path.frame != Frame.S:
        raise FrameMismatchError(f"expected a path in frame S, got {path.frame}")

    t_r_s = compose(calib.t_r_f, calib.t_f_s)
    r, t = t_r_s.rotation, t_r_s.translation
    positions = path.positions @ r.T + t
    rotations = r @ rots_from_euler_zyx(path.orientations[:, ::-1])
    orientations = euler_zyx_from_rots(rotations)[:, ::-1]

    return FusedPath(
        positions=positions,
        orientations=orientations,
        speeds=path.speeds,
        frame=Frame.R,
        closed=path.closed,
        time_parameterized=path.time_parameterized,
    )


def fused_path_to_json(path: FusedPath) -> str:
    """Serialize to the fused-path JSON interchange form (degrees, mm)."""
    points = []
    for i in range(len(path)):
        x, y, z = path.positions[i]
        rx, ry, rz = (math.degrees(a) for a in path.orientations[i])
        points.append(
            {
                "x_mm": x, "y_mm": y, "z_mm": z,
                "rx_deg": rx, "ry_deg": ry, "rz_deg": rz,
                "v_mm_s": float(path.speeds[i]),
            }
        )
    obj = {"frame": path.frame.value, "closed": path.closed, "points": points}
    return json.dumps(obj, indent=2) + "\n"


def fused_path_from_json(data: bytes | str) -> FusedPath:
    """Parse the fused-path JSON interchange form."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno) from None

    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    frame = obj.get("frame")
    if frame not in (Frame.S.value, Frame.R.value):
        raise ParseError(f"frame must be 'S' or 'R', got {frame!r}")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise ParseError("'closed' must be a boolean")
    points = obj.get("points")
    if not isinstance(points, list) or len(points) < 2:
        raise ParseError("'points' must be an array of at least 2 entries")

    keys = ("x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg", "v_mm_s")
    rows = []
    for i, pt in enumerate(points):
        if not isinstance(pt, dict):
            raise ParseError(f"point {i} is not an object")
        try:
            row = [float(pt[k]) for k in keys]
        except KeyError as e:
            raise ParseError(f"point {i} is missing {e.args[0]!r}") from None
        except (TypeError, ValueError):
            raise ParseError(f"point {i} has a non-numeric field") from None
        if not all(math.isfinite(v) for v in row):
            raise ParseError(f"point {i} has a non-finite field")
        rows.append(row)

    arr = np.array(rows)
    return FusedPath(
        positions=arr[:, 0:3],
        orientations=np.radians(arr[:, 3:6]),
        speeds=arr[:, 6],
        frame=Frame(frame),
        closed=closed,
    )
