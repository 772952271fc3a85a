"""Fuse demonstrated orientations and speeds with nominal CAD positions.

The demonstrator cannot place the handheld sensor as accurately as CAD data
places the part, but the orientation and pacing of a practiced human motion
are exactly what a robot program needs.  Fusion therefore keeps CAD waypoint
positions bit-for-bit and borrows orientation and speed from the
demonstration, matched by normalized path progress.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import _quat
from ._read import json_rows, json_value
from ._rows import fill_rows
from .errors import FrameMismatchError, ParseError, TimeParameterizationWarning
from .cad import CadPath, arc_params, traverse
from .demo import PoseSeries, path_parameters
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


# Width in seconds of the window ``fuse`` fits a line over around each capture
# sample, about 25 samples at 100 Hz and 60 at 240 Hz.  A wider window averages
# more noise away but flattens faster hand motion: 0.25 s damps a 1 Hz swing by a tenth.
SMOOTH_WINDOW_S = 0.25


def fuse(cad: CadPath, demo: PoseSeries) -> FusedPath:
    """Combine CAD positions with demonstrated orientation and speed.

    Output points are the CAD waypoints verbatim (plus the closing point for
    closed paths).  The capture is smoothed by a least-squares line in time over
    each sample's ``SMOOTH_WINDOW_S`` window (a degree-1 Savitzky-Golay filter,
    Savitzky & Golay 1964): fitted positions give the normalized progress and
    their slope the speed, normalized fitted quaternions the orientation (a
    windowed chordal rotation mean, Markley et al. 2007).  Each CAD point blends
    the two fitted samples bracketing its progress; the result is in receiver frame S.
    """
    t = demo.t
    lo, hi = _windows(t, SMOOTH_WINDOW_S)
    fitted, slopes = _line_fit(t, demo.positions, lo, hi)
    demo_params, time_based = path_parameters(fitted, t)
    if time_based:
        msg = "demonstration travel is below the arc-length threshold; matching by normalized time instead"
        warnings.warn(msg, TimeParameterizationWarning)

    cad_u = arc_params(cad)
    positions = traverse(cad.waypoints, cad.closed)

    j, frac = _quat.bracket(demo_params, cad_u)
    at, m = np.concatenate([j, j + 1]), len(j)  # each CAD point's two samples
    q = _fit_rotations(t, demo.orientations, lo, hi, at)
    # (psi, theta, phi) reversed is the robot's fixed-axis (rx, ry, rz)
    orientations = _quat.to_euler_zyx(_quat.slerp(q[:m], q[m:], frac))[:, ::-1]

    v = np.linalg.norm(slopes[at], axis=1)
    speeds = v[:m] + frac * (v[m:] - v[:m])

    return FusedPath(
        positions=positions,
        orientations=orientations,
        speeds=speeds,
        frame=Frame.S,
        closed=cad.closed,
        time_parameterized=time_based,
    )


def _windows(t: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples ``lo[i]:hi[i]`` of the ``width``-second window around each ``t[i]``: centred
    where the series allows, moved inside it near the ends (never shrunk), the
    whole series when shorter, and at least 2 samples."""
    start = np.maximum(np.minimum(t - width / 2.0, t[-1] - width), t[0])
    lo = np.searchsorted(t, start)
    hi = np.minimum(np.maximum(np.searchsorted(t, start + width, side="right"), lo + 2), len(t))
    return np.minimum(lo, hi - 2), hi


def _line_fit(t, x, lo, hi, at=slice(None)):
    """Value and slope at ``t[at]`` of the least-squares line through samples ``lo[at]:hi[at]``.

    ``x`` is (n, c); each window holds 2 or more distinct times.  Window means come from
    prefix sums taken about the middle sample, so a call costs O(n) whatever the window.
    """
    n, c = x.shape
    tc, x0 = t - t[n // 2], x[n // 2]
    sums = np.zeros((2 * c + 2, n + 1))  # row by row, prefix sums of t, t^2, x and t x
    sums[0, 1:], sums[1, 1:] = tc, tc * tc
    np.subtract(x.T, x0[:, None], out=sums[2 : 2 + c, 1:])
    np.multiply(tc, sums[2 : 2 + c, 1:], out=sums[2 + c :, 1:])
    lo, hi = lo[at], hi[at]
    np.cumsum(sums, axis=1, out=sums)
    means = (np.take(sums, hi, axis=1) - np.take(sums, lo, axis=1)) / (hi - lo)
    t_bar, x_bar = means[0], means[2 : 2 + c]
    slope = (means[2 + c :] - t_bar * x_bar) / (means[1] - t_bar * t_bar)
    return (x0[:, None] + x_bar + slope * (tc[at] - t_bar)).T, slope.T


def _fit_rotations(t, angles_zyx, lo, hi, at) -> np.ndarray:
    """(len(at), 4) unit quaternions of the fitted orientation at samples ``at``.

    The chordal fit is exact only at a window's centre, so samples with an end
    window fit rotation vectors about its middle sample: exact for a steady turn.
    """
    q = _quat.make_continuous(_quat.from_euler_zyx(angles_zyx))
    fit = _line_fit(t, q, lo, hi, at)[0]
    fit /= np.linalg.norm(fit, axis=1, keepdims=True)
    for a, b in {(lo[0], hi[0]), (lo[-1], hi[-1])}:
        end = (lo[at] == a) & (hi[at] == b)
        mid = q[(a + b - 1) // 2]
        rel = _quat.to_rotvec(_quat.mul(mid * [1.0, -1.0, -1.0, -1.0], q[a:b]))
        vec = _line_fit(t[a:b], rel, lo[a:b] - a, hi[a:b] - a, at[end] - a)[0]
        fit[end] = _quat.mul(mid, _quat.from_rotvec(vec))
    return fit


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


_JSON_KEYS = ("x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg", "v_mm_s")

# One point of json.dumps(..., indent=2)'s layout; json writes a float as its repr.
_JSON_POINT = "    {\n" + ",\n".join(f'      "{k}": %r' for k in _JSON_KEYS) + "\n    }"


def fused_path_to_json(path: FusedPath) -> str:
    """Serialize to the fused-path JSON interchange form (degrees, mm)."""
    rows = np.column_stack([path.positions, np.degrees(path.orientations), path.speeds])
    head = '{\n  "frame": "%s",\n  "closed": %s,\n  "points": [\n' % (path.frame.value, json.dumps(path.closed))
    return head + fill_rows(_JSON_POINT, rows, ",\n") + "\n  ]\n}\n"


def fused_path_from_json(data: bytes | str) -> FusedPath:
    """Parse the fused-path JSON interchange form."""
    obj = json_value(data)
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

    fields, rows = itemgetter(*_JSON_KEYS), []
    for i, pt in enumerate(points):
        if not isinstance(pt, dict):
            raise ParseError(f"point {i} is not an object")
        try:
            rows.append(fields(pt))
        except KeyError as e:
            raise ParseError(f"point {i} is missing {e.args[0]!r}") from None
    try:
        arr = json_rows(rows, len(_JSON_KEYS), "point")
    except ValueError as e:
        raise ParseError(str(e)) from None
    return FusedPath(
        positions=arr[:, 0:3],
        orientations=np.radians(arr[:, 3:6]),
        speeds=arr[:, 6],
        frame=Frame(frame),
        closed=closed,
    )
