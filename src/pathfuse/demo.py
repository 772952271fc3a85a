"""Demonstration capture: pose-stream I/O, outlier filtering, resampling.

A demonstration is a time-stamped stream of 6-DOF poses from a handheld
magnetic-tracker sensor.  The CSV layout is one header line ::

    t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg

followed by one row per sample.  Azimuth/elevation/roll are the tracker's
intrinsic z-y'-x'' angles; they are converted to radians on parse and back to
degrees on write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _quat
from .cad import arc_fraction
from .errors import ParseError, ValidationError
from .geometry import wrap_angle

if TYPE_CHECKING:
    from .fusion import FusedPath

DEMO_CSV_HEADER = "t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg"

# Consistency factor relating the median absolute deviation to a Gaussian sigma.
MAD_SCALE = 1.4826

# Below this much total travel, arc length is meaningless; fall back to time.
MIN_ARC_MM = 1.0

# Position glitches injected by the synthetic tracker, worst case seen on hardware.
SPIKE_MAGNITUDE_MM = 100.0


@dataclass(frozen=True, eq=False)
class PoseSeries:
    """A demonstration as columnar arrays.

    ``orientations`` columns are (psi, theta, phi) radians, matching the
    az/el/roll order of the CSV.  Timestamps must strictly increase and at
    least two samples are required.
    """

    t: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1).copy()
        n = len(t)
        p = np.asarray(self.positions, dtype=float).copy()
        o = np.asarray(self.orientations, dtype=float).copy()
        if n < 2:
            raise ValidationError("a pose series needs at least 2 samples")
        if p.shape != (n, 3) or o.shape != (n, 3):
            raise ValidationError(
                f"shape mismatch: t has {n} samples, positions {p.shape}, "
                f"orientations {o.shape}"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p)) and np.all(np.isfinite(o))):
            raise ValidationError("pose series contains non-finite values")
        if np.any(np.diff(t) <= 0.0):
            bad = int(np.argmax(np.diff(t) <= 0.0)) + 1
            raise ValidationError(f"timestamps must strictly increase (sample {bad})")
        for a in (t, p, o):
            a.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "orientations", o)

    def __len__(self) -> int:
        return len(self.t)


def parse_demo(data: bytes | str) -> PoseSeries:
    """Parse demonstration CSV text.  Raises ParseError/ValidationError."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as e:
            raise ParseError(f"not valid UTF-8: {e}") from None
    else:
        text = data.lstrip("﻿")

    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    if lines[0].strip() != DEMO_CSV_HEADER:
        raise ParseError(f"expected header {DEMO_CSV_HEADER!r}", line=1)

    t, pos, orient = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ParseError(f"expected 7 fields, got {len(fields)}", line=lineno)
        try:
            vals = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"bad number in row: {line!r}", line=lineno) from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError("non-finite value in row", line=lineno)
        if t and vals[0] <= t[-1]:
            raise ValidationError(
                f"timestamps must strictly increase (line {lineno}: "
                f"{vals[0]!r} after {t[-1]!r})"
            )
        t.append(vals[0])
        pos.append(vals[1:4])
        orient.append([math.radians(v) for v in vals[4:7]])

    if len(t) < 2:
        raise ValidationError("a demonstration needs at least 2 samples")
    return PoseSeries(np.array(t), np.array(pos), np.array(orient))


def format_demo_csv(series: PoseSeries) -> bytes:
    """Render a series back to CSV bytes (9 decimals, LF line endings)."""
    out = [DEMO_CSV_HEADER]
    for i in range(len(series)):
        x, y, z = series.positions[i]
        az, el, roll = (math.degrees(a) for a in series.orientations[i])
        out.append(
            f"{series.t[i]:.9f},{x:.9f},{y:.9f},{z:.9f},"
            f"{az:.9f},{el:.9f},{roll:.9f}"
        )
    return ("\n".join(out) + "\n").encode("utf-8")


def _hampel(x: np.ndarray, window: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Rolling medians and outlier flags for one channel.

    Returns (medians, flags).  A sample is flagged when it sits more than
    ``k * MAD_SCALE * mad`` from the window median.  Edge windows are
    truncated to what exists.
    """
    n = len(x)
    h = window // 2
    med = np.empty(n)
    mad = np.empty(n)
    wins = sliding_window_view(x, window)
    core = np.median(wins, axis=1)
    med[h : n - h] = core
    mad[h : n - h] = np.median(np.abs(wins - core[:, None]), axis=1)
    for i in list(range(h)) + list(range(n - h, n)):
        w = x[max(0, i - h) : min(n, i + h + 1)]
        m = np.median(w)
        med[i] = m
        mad[i] = np.median(np.abs(w - m))
    flags = np.abs(x - med) > k * MAD_SCALE * mad
    return med, flags


def filter_outliers(series: PoseSeries, window: int = 11, k: float = 3.0) -> PoseSeries:
    """Hampel-filter every channel; flagged samples take the window median.

    Angle channels are unwrapped before the filter sees them so a stream
    hovering around +/-pi is not mistaken for spikes; replacement values are
    wrapped back to (-pi, pi].  Samples that are not flagged are returned
    bit-for-bit unchanged.
    """
    window = int(window)
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    if not (k > 0.0):
        raise ValueError(f"k must be positive, got {k}")

    pos = series.positions.copy()
    for c in range(3):
        med, flags = _hampel(series.positions[:, c], window, k)
        pos[flags, c] = med[flags]

    orient = series.orientations.copy()
    for c in range(3):
        unwrapped = np.unwrap(series.orientations[:, c])
        med, flags = _hampel(unwrapped, window, k)
        orient[flags, c] = wrap_angle(med[flags])

    return PoseSeries(series.t, pos, orient)


def estimate_speed(series: PoseSeries) -> np.ndarray:
    """Per-sample speed (mm/s) from central differences of position.

    One-sided differences are used at the two ends.
    """
    p = series.positions
    t = series.t
    n = len(series)
    v = np.empty(n)
    if n > 2:
        dt = (t[2:] - t[:-2])[:, None]
        v[1:-1] = np.linalg.norm((p[2:] - p[:-2]) / dt, axis=1)
    v[0] = np.linalg.norm(p[1] - p[0]) / (t[1] - t[0])
    v[-1] = np.linalg.norm(p[-1] - p[-2]) / (t[-1] - t[-2])
    return v


def path_parameters(positions: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalized progress in [0, 1] for each sample.

    Progress is cumulative arc length over total arc length.  When the total
    travel is below ``MIN_ARC_MM`` (a near-stationary capture) normalized time
    is used instead; the second return value says which happened (True means
    time).  The result is non-decreasing with first value 0 and last value 1.
    """
    positions = np.asarray(positions, dtype=float)
    t = np.asarray(t, dtype=float)
    if float(np.sum(np.linalg.norm(np.diff(positions, axis=0), axis=1))) < MIN_ARC_MM:
        return (t - t[0]) / (t[-1] - t[0]), True
    return arc_fraction(positions), False


def downsample(series: PoseSeries, target_count: int) -> PoseSeries:
    """Reduce a series to ``target_count`` samples spaced uniformly in progress.

    Positions and timestamps interpolate linearly; orientations interpolate by
    spherical blending between the bracketing samples.  The first and last
    samples are kept exactly.  ``target_count == len(series)`` returns the
    series unchanged.
    """
    target_count = int(target_count)
    if target_count < 2 or target_count > len(series):
        raise ValueError(
            f"target_count must be in [2, {len(series)}], got {target_count}"
        )
    if target_count == len(series):
        return series

    params, _ = path_parameters(series.positions, series.t)
    u = np.linspace(0.0, 1.0, target_count)

    t_new = np.interp(u, params, series.t)
    pos_new = np.column_stack(
        [np.interp(u, params, series.positions[:, c]) for c in range(3)]
    )

    orient_new = _quat.interpolate_zyx(params, series.orientations, u)

    # endpoints are copied verbatim, not interpolated
    t_new[0], t_new[-1] = series.t[0], series.t[-1]
    pos_new[0], pos_new[-1] = series.positions[0], series.positions[-1]
    orient_new[0], orient_new[-1] = series.orientations[0], series.orientations[-1]

    return PoseSeries(t_new, pos_new, orient_new)


@dataclass(frozen=True)
class TrackerErrorModel:
    """Error model for the synthetic tracker.

    Defaults follow the bench characterization of the capture hardware: the z
    reading acquires a distance-dependent bias that grows linearly and
    saturates at ``z_bias_max`` once the sensor is ``z_bias_range`` from the
    field source, x/y carry Gaussian noise of a couple of millimeters, and
    orientation channels jitter by about a degree.
    """

    z_bias_max: float = 60.0
    z_bias_range: float = 800.0
    xy_noise_sigma: float = 2.0
    orient_noise_sigma: float = 1.0  # degrees
    spike_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.z_bias_max < 0.0:
            raise ValueError(f"z_bias_max must be >= 0, got {self.z_bias_max}")
        if not (self.z_bias_range > 0.0):
            raise ValueError(f"z_bias_range must be positive, got {self.z_bias_range}")
        if self.xy_noise_sigma < 0.0 or self.orient_noise_sigma < 0.0:
            raise ValueError("noise sigmas must be >= 0")
        if not (0.0 <= self.spike_rate <= 1.0):
            raise ValueError(f"spike_rate must be in [0, 1], got {self.spike_rate}")


def synth_demo(truth: "FusedPath", model: TrackerErrorModel, rate_hz: float) -> PoseSeries:
    """Simulate a tracker capture of a true tool path.

    The path is traversed at its stored speeds (each segment at the mean of
    its endpoint speeds) and sampled at ``rate_hz``; the final waypoint is
    always included as the last sample.  Tracker errors are then applied:
    distance-dependent z bias, Gaussian x/y and orientation noise, and
    occasional position spikes of ``SPIKE_MAGNITUDE_MM`` on one axis.
    Output is deterministic for a fixed model (seeded generator).
    """
    if not (rate_hz > 0.0):
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    pts = truth.positions
    if np.any(truth.speeds <= 0.0):
        raise ValueError("truth speeds must be positive to traverse the path")

    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    seg_v = (truth.speeds[:-1] + truth.speeds[1:]) / 2.0
    t_wp = np.concatenate([[0.0], np.cumsum(seg / seg_v)])
    total_t = float(t_wp[-1])
    if total_t <= 0.0:
        raise ValueError("truth path has no extent to traverse")

    ts = np.arange(0.0, total_t, 1.0 / rate_hz)
    if total_t - ts[-1] > 1e-12 * max(1.0, total_t):
        ts = np.concatenate([ts, [total_t]])
    else:
        ts[-1] = total_t

    clean_pos = np.column_stack([np.interp(ts, t_wp, pts[:, c]) for c in range(3)])

    # truth orientations are robot-style (rx, ry, rz); the tracker reports
    # the same rotations as (psi, theta, phi) = (rz, ry, rx)
    orient = _quat.interpolate_zyx(t_wp, truth.orientations[:, ::-1], ts)

    rng = np.random.default_rng(model.seed)
    n = len(ts)
    noisy = clean_pos.copy()

    dist = np.linalg.norm(clean_pos, axis=1)
    noisy[:, 2] += model.z_bias_max * np.minimum(dist / model.z_bias_range, 1.0)
    noisy[:, 0] += rng.normal(0.0, model.xy_noise_sigma, n)
    noisy[:, 1] += rng.normal(0.0, model.xy_noise_sigma, n)
    orient = orient + rng.normal(0.0, math.radians(model.orient_noise_sigma), (n, 3))

    if model.spike_rate > 0.0:
        flags = rng.random(n) < model.spike_rate
        for i in np.flatnonzero(flags):
            axis = int(rng.integers(0, 3))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            noisy[i, axis] += sign * SPIKE_MAGNITUDE_MM

    return PoseSeries(ts, noisy, orient)
