"""Fuse demonstrated orientations and speeds with nominal CAD positions.

The demonstrator cannot place the handheld sensor as accurately as CAD data
places the part, but the orientation and pacing of a practiced human motion
are exactly what a robot program needs.  Fusion therefore keeps CAD waypoint
positions bit-for-bit and borrows orientation and speed from the
demonstration, matched by normalized path progress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import _quat
from ._read import json_rows, json_value
from ._rows import fill_rows
from .errors import FrameMismatchError, ParseError
from .cad import CadPath, arc_fraction, arc_lengths, traverse
from .demo import PoseSeries
from .geometry import CalibrationSet, Frame, compose, euler_zyx_from_rots, row_norms, rots_from_euler_zyx


@dataclass(frozen=True, eq=False)
class FusedPath:
    """Robot-ready path: positions, orientations (rx, ry, rz radians), speeds.

    ``closed`` paths materialize the return to the first position as an
    explicit final point.  ``time_parameterized`` is the one record that
    ``fuse`` matched the demonstration to CAD by normalized time, because it
    travels under ``MIN_ARC_MM``; it is kept in memory only, not serialized.
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
        if not (np.isfinite(p).all() and np.isfinite(o).all() and np.isfinite(v).all()):
            raise ValueError("fused path contains non-finite values")
        if (v < 0.0).any():
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

# Under this much travel of the fitted capture, ``fuse`` matches by time, not arc length.
MIN_ARC_MM = 1.0


def fuse(cad: CadPath, demo: PoseSeries) -> FusedPath:
    """Combine CAD positions with demonstrated orientation and speed.

    Output points are the CAD waypoints verbatim (plus the closing point for
    closed paths).  The capture is smoothed by a least-squares line in time over
    each sample's ``SMOOTH_WINDOW_S`` window (a degree-1 Savitzky-Golay filter,
    Savitzky & Golay 1964): fitted positions give the progress (normalized arc
    length as on the CAD, or normalized time under ``MIN_ARC_MM`` of travel, which
    ``time_parameterized`` records) and their slope the speed, normalized fitted
    quaternions the orientation (a windowed chordal rotation mean, Markley et al.
    2007).  Each CAD point blends the two fitted samples bracketing its progress,
    whose orientations alone are fitted; the result is in receiver frame S.
    """
    t = demo.t
    lo, hi = _windows(t, SMOOTH_WINDOW_S)
    fitted, slopes = _line_fit(t, demo.positions, lo, hi)
    demo_params, time_based = _progress(fitted, t)
    positions = traverse(cad.waypoints, cad.closed)

    j, frac = _quat.bracket(demo_params, arc_fraction(arc_lengths(positions)))
    at, m = np.concatenate([j, j + 1]), len(j)  # each CAD point's two samples
    v = row_norms(slopes[at])
    speeds = v[:m] + frac * (v[m:] - v[:m])
    del fitted, slopes, demo_params  # frees the position fit's working array before the orientation fit

    q = _fit_rotations(t, demo.orientations, lo, hi, at)
    # (psi, theta, phi) reversed is the robot's fixed-axis (rx, ry, rz)
    orientations = _quat.to_euler_zyx(_quat.slerp(q[:m], q[m:], frac))[:, ::-1]

    return FusedPath(
        positions=positions,
        orientations=orientations,
        speeds=speeds,
        frame=Frame.S,
        closed=cad.closed,
        time_parameterized=time_based,
    )


def _progress(fitted: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalized progress of each fitted sample, from exactly 0 to exactly 1, and
    whether it is normalized time: arc length over total, or time where the
    total is under ``MIN_ARC_MM`` (a near-stationary capture)."""
    cum = arc_lengths(fitted)
    if cum[-1] < MIN_ARC_MM:
        return (t - t[0]) / (t[-1] - t[0]), True
    return arc_fraction(cum), False


def _windows(t: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples ``lo[i]:hi[i]`` of the ``width``-second window around each ``t[i]``: centred
    where the series allows, moved inside it near the ends (never shrunk), the
    whole series when shorter, and at least 2 samples."""
    start = np.maximum(np.minimum(t - width / 2.0, t[-1] - width), t[0])
    lo = t.searchsorted(start)
    hi = np.minimum(np.maximum(t.searchsorted(start + width, side="right"), lo + 2), len(t))
    return np.minimum(lo, hi - 2), hi


def _line_fit(t, x, lo, hi, at=slice(None)):
    """Value and slope at each ``t[at]`` of the least-squares line through samples ``lo:hi``.

    ``x`` is (n, c); ``lo`` and ``hi`` give each evaluated sample's window, which holds 2 or
    more distinct times.  Window means come from prefix sums taken about the middle sample,
    so a call costs O(n) in the samples it is given, whatever the window.

    Working memory, for m evaluated samples: the ``(2c + 2, n + 1)`` prefix sums, the
    ``(2c + 2, m)`` window means gathered at ``hi``, and while the sums at ``lo`` are
    subtracted, that ``(2c + 2, m)`` gather; the sums are freed before the means are
    divided.  Slope and value are then written into the means' rows, with one ``(c, m)``
    product alive at a time, and both outputs are views of the means.
    """
    n, c = x.shape
    tc, x0 = t - t[n // 2], x[n // 2]
    sums = np.zeros((2 * c + 2, n + 1))  # row by row, prefix sums of t, t^2, x and t x
    sums[0, 1:], sums[1, 1:] = tc, tc * tc
    np.subtract(x.T, x0[:, None], out=sums[2 : 2 + c, 1:])
    np.multiply(tc, sums[2 : 2 + c, 1:], out=sums[2 + c :, 1:])
    sums.cumsum(axis=1, out=sums)
    means = sums.take(hi, axis=1)
    means -= sums.take(lo, axis=1)
    del sums
    means /= hi - lo
    t_bar, x_bar, tx_bar = means[0], means[2 : 2 + c], means[2 + c :]
    var = np.subtract(means[1], t_bar * t_bar, out=means[1])
    slope = np.divide(np.subtract(tx_bar, t_bar * x_bar, out=tx_bar), var, out=tx_bar)
    fit = np.add(np.add(x0[:, None], x_bar, out=x_bar), slope * (tc[at] - t_bar), out=x_bar)
    return fit.T, slope.T


def _fit_rotations(t, angles_zyx, lo, hi, at) -> np.ndarray:
    """(len(at), 4) unit quaternions of the fitted orientation at samples ``at``, from
    only the samples inside their windows (each window is contiguous among those);
    when the windows cover the whole capture, its arrays are read as they are.

    The chordal fit is exact only at a window's centre, so samples with an end
    window fit rotation vectors about its middle sample: exact for a steady turn.
    """
    lo_at, hi_at = lo[at], hi[at]
    ends = [(lo_at == a) & (hi_at == b) for a, b in {(lo[0], hi[0]), (lo[-1], hi[-1])}]
    # how many windows of ``at`` hold each sample: +1 where one starts, -1 where one ends
    held = (np.bincount(lo_at, minlength=len(t) + 1) - np.bincount(hi_at, minlength=len(t) + 1)).cumsum()[:-1]
    if not held.all():  # gather the samples read and place the windows among them
        read = np.flatnonzero(held)
        lo_at, hi_at, at = (read.searchsorted(i) for i in (lo_at, hi_at, at))
        t, angles_zyx = t[read], angles_zyx[read]
    del held
    q = _quat.make_continuous(_quat.from_euler_zyx(angles_zyx))
    fit = _line_fit(t, q, lo_at, hi_at, at)[0]
    fit /= row_norms(fit)[:, None]
    for end in ends:
        if not end.any():
            continue
        a, b = lo_at[end][0], hi_at[end][0]
        mid = q[(a + b - 1) // 2]
        rel = _quat.to_rotvec(_quat.mul(mid * [1.0, -1.0, -1.0, -1.0], q[a:b]))
        vec = _line_fit(t[a:b], rel, lo_at[end] - a, hi_at[end] - a, at[end] - a)[0]
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
    return head + next(fill_rows(_JSON_POINT, [rows], ",\n")) + "\n  ]\n}\n"


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
