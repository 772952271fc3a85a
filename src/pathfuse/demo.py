"""Demonstration capture: pose-stream I/O, outlier filtering, synthesis.

A demonstration is a time-stamped stream of 6-DOF poses from a handheld
magnetic-tracker sensor.  The CSV layout is one header line ::

    t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg

followed by one row per sample.  Azimuth/elevation/roll are the tracker's
intrinsic z-y'-x'' angles; they are converted to radians on parse and back to
degrees on write.  Smoothing, and the speed it yields, belong to ``fusion.fuse``.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _quat
from ._read import csv_lines, csv_row, decode
from ._rows import fill_rows
from .cad import MAX_POINTS, arc_fraction, arc_lengths
from .errors import ValidationError
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

# Most windows ``_hampel`` sorts in one pass, over all channels.  Passes are
# bounded because one sort of a whole six-channel 28k-sample capture was slower
# than six per-channel sorts; 2**11 to 2**14 read the same within noise on a
# 2-core Xeon (2 MB L2 per core).  At the default window of 11 a pass is 0.7 MB.
_PASS_WINDOWS = 2**13


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
    """Parse demonstration CSV text.  Raises ParseError/ValidationError.

    A plain capture is read by numpy's C text reader in one call: the exact
    header line after an optional BOM, then only ASCII digits, ``.,+-eE``,
    line breaks, spaces and tabs; seven fields on each line that is not blank,
    two or more rows, finite values and strictly increasing time.  Any other
    input goes to the line reader, which raises every error with its line.
    """
    series = _read_plain(data)
    return series if series is not None else _parse_lines(data)


_NUMBER_BYTES = b"0123456789.,+-eE\n"


def _read_plain(data: bytes | str) -> PoseSeries | None:
    """The series of a plain capture (see ``parse_demo``), or None.

    On the gate's bytes ``_read.number`` accepts exactly what ``float()`` does,
    and ``float()`` and loadtxt both convert such a field with
    ``PyOS_string_to_double`` on its stripped text; ``np.radians`` matches
    ``math.radians`` bit for bit, so the series equals the line reader's.  Rows
    of unequal width, a CR inside a line and bad numbers make loadtxt raise.
    """
    if isinstance(data, str):
        data = data.encode(errors="replace")  # text that is not ASCII fails the gate
    head, _, body = data.removeprefix(b"\xef\xbb\xbf").partition(b"\n")
    rest = body.translate(None, _NUMBER_BYTES)
    if head.rstrip(b"\r") != DEMO_CSV_HEADER.encode() or rest.translate(None, b"\r \t"):
        return None
    lines = io.BytesIO(body)
    if rest:  # the line reader skips whitespace-only lines; loadtxt reads them as rows
        lines = filter(bytes.strip, lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns instead of raising
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    t = rows[:, 0]
    if rows.shape[1] != 7 or len(rows) < 2 or not (np.all(np.isfinite(rows)) and np.all(t[1:] > t[:-1])):
        return None
    return PoseSeries(t, rows[:, 1:4], np.radians(rows[:, 4:7]))


def _parse_lines(data: bytes | str) -> PoseSeries:
    """Read the rows after the header one line at a time, skipping blank lines."""
    t, pos, orient = [], [], []
    for lineno, line in csv_lines(decode(data), DEMO_CSV_HEADER):
        vals = csv_row(line, 7, lineno)
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
    """Render a series back to CSV bytes (9 decimals, LF line endings); ValueError on an angle
    beyond the float range in degrees, which ``parse_demo`` would refuse."""
    with np.errstate(over="ignore"):  # such a row raises just below
        rows = np.column_stack([series.t, series.positions, np.degrees(series.orientations)])
    if not np.isfinite(rows).all():
        raise ValueError("an orientation in degrees is beyond the float range")
    return f"{DEMO_CSV_HEADER}\n{fill_rows(','.join(['%.9f'] * 7), rows)}\n".encode()


def _hampel(x: np.ndarray, window: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Rolling medians and outlier flags for each row of a ``(c, n)`` array.

    Returns (medians, flags), both ``(c, n)``.  A sample is flagged when it
    sits more than ``k * MAD_SCALE * mad`` from its window median.  Windows
    lie within one row and are truncated at its ends.  Medians and flags
    equal ``np.median``'s bit for bit (``tests/oracles.hampel``, row by row).

    The full windows (h = window // 2 on each side) are sorted in passes of
    at most ``_PASS_WINDOWS`` windows over all rows, each pass transposed to
    ``(window, c, block)`` so that order statistic ``j`` of every window is
    ``s[j]``, c contiguous rows; ``s[h]`` is the median ``m``.  The MAD is
    the smallest half-width around ``m`` that holds h + 1 samples, and any
    h + 1 consecutive sorted samples include ``m``, so it is the minimum over
    j = 0..h of ``max(m - s[j], s[j + h] - m)``: h + 1 elementwise passes,
    with no absolute deviations formed.  The 2h truncated edge windows of
    every row are padded with NaN to full length and sorted in one array
    (NaN sorts last); their median and MAD are read from each window's
    middle index or indices.
    """
    c, n = x.shape
    h = window // 2
    full = sliding_window_view(x, window, axis=1)
    med, mad = np.empty((c, n)), np.empty((c, n))
    block = max(1, _PASS_WINDOWS // c)
    for lo in range(h, n - h, block):
        hi = min(lo + block, n - h)
        s = np.sort(full[:, lo - h : hi - h].transpose(2, 0, 1), axis=0)
        # ``+ 0.0`` turns a -0.0 into 0.0 as np.median's mean, which sums from 0.0, does.
        m = s[h] + 0.0
        d = s[2 * h] - m  # the j = h term: m - s[h] is 0
        for j in range(h):
            np.minimum(d, np.maximum(m - s[j], s[j + h] - m), out=d)
        med[:, lo:hi], mad[:, lo:hi] = m, d

    # the windows centred on the first and last h samples, NaN beyond either end
    ends = np.full((c, 2, 3 * h), np.nan)
    ends[:, 0, h:], ends[:, 1, : 2 * h] = x[:, : 2 * h], x[:, n - 2 * h :]
    edges = np.sort(sliding_window_view(ends, window, axis=2).reshape(c, 2 * h, window), axis=2)
    lengths = np.r_[h + 1 : window, window - 1 : h : -1]  # samples each edge window holds
    edge_med = _sorted_median(edges, lengths)
    edge_mad = _sorted_median(np.sort(np.abs(edges - edge_med[..., None]), axis=2), lengths)
    med[:, :h], med[:, n - h :] = edge_med[:, :h], edge_med[:, h:]
    mad[:, :h], mad[:, n - h :] = edge_mad[:, :h], edge_mad[:, h:]
    flags = np.abs(x - med) > k * MAD_SCALE * mad
    return med, flags


def _sorted_median(s: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.median`` of the first ``lengths[i]`` values of each sorted ``s[..., i, :]``.

    np.median takes the mean of the middle one or two values, and np.mean
    sums from 0.0: an odd row gives ``a + 0.0`` and an even row
    ``(a + 0.0 + b) / 2``, which is -0.0 where a + b underflows below zero
    and inf where it overflows.
    """
    rows = np.arange(len(lengths))
    a = s[..., rows, (lengths - 1) // 2]
    b = s[..., rows, lengths // 2]
    even = lengths % 2 == 0
    out = a + 0.0
    out[..., even] = (a[..., even] + 0.0 + b[..., even]) / 2
    return out


# filter_outliers' defaults, which the CLI's config keeps too.
FILTER_WINDOW = 11
FILTER_K = 3.0


def filter_outliers(series: PoseSeries, window: int = FILTER_WINDOW, k: float = FILTER_K) -> PoseSeries:
    """Hampel-filter every channel; flagged samples take the window median.

    The three positions and three unwrapped angles go through one ``_hampel``
    call as the rows of a ``(6, n)`` array.  Angles are unwrapped so a stream
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

    med, flags = _hampel(np.vstack([series.positions.T, np.unwrap(series.orientations.T)]), window, k)
    pos, orient = series.positions.copy(), series.orientations.copy()
    for c in range(3):
        pos[flags[c], c] = med[c, flags[c]]
        orient[flags[c + 3], c] = wrap_angle(med[c + 3, flags[c + 3]])

    return PoseSeries(series.t, pos, orient)


def path_parameters(positions: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normalized progress in [0, 1] for each sample.

    Progress is cumulative arc length over total arc length.  When the total
    travel is below ``MIN_ARC_MM`` (a near-stationary capture) normalized time
    is used instead; the second return value says which happened (True means
    time).  The result is non-decreasing with first value 0 and last value 1.
    """
    cum = arc_lengths(np.asarray(positions, dtype=float))
    if cum[-1] < MIN_ARC_MM:
        t = np.asarray(t, dtype=float)
        return (t - t[0]) / (t[-1] - t[0]), True
    return arc_fraction(cum), False


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
        for f in fields(self):
            if f.name != "seed" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    Output is deterministic for a fixed model (seeded generator).  A rate
    that would make more than ``MAX_POINTS`` samples raises ValueError
    before the samples are allocated.
    """
    if not (0.0 < rate_hz < math.inf):
        raise ValueError(f"rate_hz must be positive and finite, got {rate_hz}")
    pts = truth.positions
    if np.any(truth.speeds <= 0.0):
        raise ValueError("truth speeds must be positive to traverse the path")

    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    seg_v = (truth.speeds[:-1] + truth.speeds[1:]) / 2.0
    t_wp = np.concatenate([[0.0], np.cumsum(seg / seg_v)])
    total_t = float(t_wp[-1])
    if total_t <= 0.0:
        raise ValueError("truth path has no extent to traverse")

    step = 1.0 / rate_hz
    samples = total_t / step + 1.0  # np.arange makes ceil(total_t / step), the last sample may add one
    if not samples <= MAX_POINTS:
        raise ValueError(f"sampling at {rate_hz} Hz would make {samples:.4g} samples; the limit is {MAX_POINTS}")
    ts = np.arange(0.0, total_t, step)
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
    noisy[:, 2] += model.z_bias_max * (np.minimum(dist, model.z_bias_range) / model.z_bias_range)
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
