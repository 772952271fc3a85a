"""Demonstration capture: pose-stream I/O, outlier filtering, synthesis.

A demonstration is a time-stamped stream of 6-DOF poses from a handheld
magnetic-tracker sensor.  The CSV layout is one header line ::

    t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg

followed by one row per sample.  Azimuth/elevation/roll are the tracker's
intrinsic z-y'-x'' angles; they are converted to radians on parse and back to
degrees on write.  Smoothing, the speed it yields and progress along the path
belong to ``fusion.fuse``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _quat, _read
from ._read import csv_lines, csv_row, decode, int_value
from ._rows import fill_rows
from .cad import MAX_POINTS
from .errors import ValidationError
from .geometry import freeze, row_norms

if TYPE_CHECKING:
    from .fusion import FusedPath

DEMO_CSV_HEADER = "t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg"

# Consistency factor relating the median absolute deviation to a Gaussian sigma.
MAD_SCALE = 1.4826

# Position glitches injected by the synthetic tracker, worst case seen on hardware.
SPIKE_MAGNITUDE_MM = 100.0

# Most windows ``_hampel`` sorts in one pass, over all channels.  At the default
# window of 11 a pass's buffer is 0.8 MB.  On the 28k-sample capture (2-core
# Xeon, 2 MB L2 per core) 2**13 and 2**14 read the same within noise; 2**11
# took 1.6x and 2**16 1.3x as long.  Passes are counted in windows, not buffer
# values, because every compare-exchange is a call per pass: the value budget
# best at window 11 (2**17, 1 MB) made window 101 take 1.6x as long.
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
        t, p, o = freeze(self, t=np.ravel(self.t), positions=self.positions, orientations=self.orientations)
        n = len(t)
        if n < 2:
            raise ValidationError("a pose series needs at least 2 samples")
        if p.shape != (n, 3) or o.shape != (n, 3):
            raise ValidationError(
                f"shape mismatch: t has {n} samples, positions {p.shape}, "
                f"orientations {o.shape}"
            )
        if not (np.isfinite(t).all() and np.isfinite(p).all() and np.isfinite(o).all()):
            raise ValidationError("pose series contains non-finite values")
        back = t[1:] - t[:-1] <= 0.0
        if back.any():
            bad = int(back.argmax()) + 1
            raise ValidationError(f"timestamps must strictly increase (sample {bad})")

    def __len__(self) -> int:
        return len(self.t)


def parse_demo(data: bytes | str) -> PoseSeries:
    """Parse demonstration CSV text.  Raises ParseError/ValidationError.

    ``_read.plain_rows`` reads a plain capture in one call of numpy's C text
    reader, in place for ``bytes``, and its rows are kept when there are two
    or more and their time strictly increases.  Any other input is read a
    line at a time by ``csv_lines`` and ``csv_row``, which raise the first
    fault in line order: a bad row, or a time that does not increase on the
    row above it.  A capture of fewer than two rows raises last.
    """
    rows = _read.plain_rows(data, DEMO_CSV_HEADER, 7)
    if rows is None or len(rows) < 2 or not (rows[1:, 0] > rows[:-1, 0]).all():
        rows = []
        for lineno, line in csv_lines(decode(data), DEMO_CSV_HEADER):
            row = csv_row(line, 7, lineno)
            if rows and not row[0] > rows[-1][0]:
                raise ValidationError(
                    f"timestamps must strictly increase (line {lineno}: {row[0]!r} after {rows[-1][0]!r})"
                )
            rows.append(row)
        if len(rows) < 2:
            raise ValidationError("a demonstration needs at least 2 samples")
        rows = np.array(rows)
    return PoseSeries(rows[:, 0], rows[:, 1:4], np.radians(rows[:, 4:7]))


def format_demo_csv(series: PoseSeries) -> bytes:
    """Render a series back to CSV bytes (9 decimals, LF line endings); ValueError on an angle
    beyond the float range in degrees, which ``parse_demo`` would refuse."""
    with np.errstate(over="ignore"):  # such a row raises just below
        rows = np.column_stack([series.t, series.positions, np.degrees(series.orientations)])
    if not np.isfinite(rows).all():
        raise ValueError("an orientation in degrees is beyond the float range")
    return f"{DEMO_CSV_HEADER}\n{next(fill_rows(','.join(['%.9f'] * 7), [rows]))}\n".encode()


def _hampel(x: np.ndarray, window: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Rolling medians and outlier flags for each row of a ``(c, n)`` array.

    Returns (medians, flags), both ``(c, n)``.  A sample is flagged when it
    sits more than ``k * MAD_SCALE * mad`` from its window median.  Windows
    lie within one row and are truncated at its ends.  Medians and flags
    equal ``np.median``'s bit for bit (``tests/oracles.hampel``, row by row).

    The full windows (h = window // 2 on each side) go in passes of at most
    ``_PASS_WINDOWS`` windows over all rows.  A pass copies its ``window``
    shifted views into the first rows of one ``(window + 1, c, block)``
    buffer, and ``_network_sort`` sorts them with whole-row minima and maxima
    (Batcher's network: 38 compare-exchanges at the default window of 11,
    O(w log^2 w) in general, where ``np.sort`` sorts each window by itself).
    Order statistic ``j`` of every window is then row ``s[j]``, ``s[h]`` is the
    median ``m``, and the spare row holds ``m`` with -0.0 made 0.0.  The MAD
    is the smallest half-width around ``m`` that holds h + 1 samples, and any
    h + 1 consecutive sorted samples include ``m``, so it is the minimum over
    j = 0..h of ``max(m - s[j], s[j + h] - m)``: h + 1 terms, each a few
    whole-row passes over the sorted rows, written into rows no longer
    needed, with no absolute deviations formed.  The pass then flags its
    samples, writing ``|x - m|`` and ``k * MAD_SCALE * mad`` into two more of
    those rows, so no MAD outlives its pass.  The 2h truncated edge windows
    of every row are padded with NaN to full length and sorted in one array
    (NaN sorts last); their median and MAD are read from each window's
    middle index or indices.

    Working memory: the only full-length arrays a call holds are ``x`` and the
    two outputs.  The pass buffer holds at most ``(window + 1) * _PASS_WINDOWS``
    values and the edge arrays ``(c, 2h, window)``, whatever n is.
    """
    c, n = x.shape
    h = window // 2
    limit = k * MAD_SCALE
    full = _sliding_windows(x, window)
    med, flags = np.empty((c, n)), np.empty((c, n), dtype=bool)
    block = max(1, _PASS_WINDOWS // c)
    buf = np.empty((window + 1, c, min(block, n - 2 * h)))
    for lo in range(h, n - h, block):
        hi = min(lo + block, n - h)
        buf[:window, :, : hi - lo] = full[:, lo - h : hi - h].transpose(2, 0, 1)
        s = _network_sort(list(buf[..., : hi - lo]))
        # ``+ 0.0`` turns a -0.0 into 0.0 as np.median's mean, which sums from 0.0, does.
        m = np.add(s[h], 0.0, out=s[window])
        d = np.subtract(s[2 * h], m, out=s[2 * h])  # the j = h term: m - s[h] is 0
        for j in range(h):  # rows s[j] and s[j + h] are not read again
            np.subtract(m, s[j], out=s[j])
            np.subtract(s[j + h], m, out=s[j + h])
            np.minimum(d, np.maximum(s[j], s[j + h], out=s[j]), out=d)
        med[:, lo:hi] = m
        dev = np.abs(np.subtract(x[:, lo:hi], m, out=s[0]), out=s[0])
        np.greater(dev, np.multiply(limit, d, out=s[1]), out=flags[:, lo:hi])

    # the windows centred on the first and last h samples, NaN beyond either end
    ends = np.full((c, 2, 3 * h), np.nan)
    ends[:, 0, h:], ends[:, 1, : 2 * h] = x[:, : 2 * h], x[:, n - 2 * h :]
    edges = np.sort(_sliding_windows(ends, window).reshape(c, 2 * h, window), axis=2)
    lengths = np.r_[h + 1 : window, window - 1 : h : -1]  # samples each edge window holds
    edge_med = _sorted_median(edges, lengths)
    edge_mad = _sorted_median(np.sort(np.abs(edges - edge_med[..., None]), axis=2), lengths)
    centres = ends[:, :, h : 2 * h].reshape(c, 2 * h)  # x[:, :h] and x[:, n - h :]
    edge_flags = np.abs(centres - edge_med) > limit * edge_mad
    med[:, :h], med[:, n - h :] = edge_med[:, :h], edge_med[:, h:]
    flags[:, :h], flags[:, n - h :] = edge_flags[:, :h], edge_flags[:, h:]
    return med, flags


def _sliding_windows(a: np.ndarray, window: int) -> np.ndarray:
    """``sliding_window_view(a, window, axis=-1)``: the same read-only view, made by
    ``as_strided`` without the argument handling that costs more than the view on short rows."""
    shape = (*a.shape[:-1], a.shape[-1] - window + 1, window)
    return as_strided(a, shape, (*a.strides, a.strides[-1]), writeable=False)


def _network_sort(rows: list[np.ndarray]) -> list[np.ndarray]:
    """Sort ``window`` rows elementwise in place with ``_sorting_network(window)``.

    ``rows`` holds the window's values in its first ``window`` arrays and a
    spare array last, all of one shape.  Returns the same arrays reordered:
    order statistic j is ``rows[j]`` of the result, and the last array is
    the spare, free for scratch.  Minima and maxima are exact, so each
    column comes out as ``np.sort`` sorts it, except that a compare-exchange
    of -0.0 and 0.0 may give both outputs one sign.
    """
    steps, order = _sorting_network(len(rows) - 1)
    for a, b, spare in steps:
        np.minimum(rows[a], rows[b], out=rows[spare])
        np.maximum(rows[a], rows[b], out=rows[b])
    return [rows[r] for r in order]


@functools.cache
def _sorting_network(window: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """Batcher's odd-even merge sort of ``window`` values, as steps on ``window + 1`` rows.

    The network for the next power of two is pruned to the compare-exchanges
    between its first ``window`` inputs: the others would hold +inf, which
    no compare-exchange moves.  Rows 0..window-1 hold the inputs and row
    ``window`` is spare.  A step ``(a, b, spare)`` puts the minimum of rows
    a and b into row ``spare`` and the maximum into row b; row a is then the
    spare.  Returns the steps and ``order``: order statistic j ends in row
    ``order[j]``, and ``order[window]`` is the spare row.  ``filter_outliers``'
    window bound keeps the cache to at most 50 networks.
    """
    size = 1 << (window - 1).bit_length()
    row, spare, steps = list(range(window)), window, []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, min(j + k, window - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        steps.append((row[i], row[i + k], spare))
                        row[i], spare = spare, row[i]
            k //= 2
        p *= 2
    return tuple(steps), (*row, spare)


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

# Widest window filter_outliers takes: 0.42 s at 240 Hz and 1 s at 100 Hz, far
# past any glitch the filter is meant for (fuse's smoothing window is 0.25 s).
# Its network has 1,121 compare-exchanges and its edge-window sort holds 0.5 MB
# for six channels; a window of 20,001 would allocate 18 GiB there.
MAX_FILTER_WINDOW = 101


def filter_outliers(series: PoseSeries, window: int = FILTER_WINDOW, k: float = FILTER_K) -> PoseSeries:
    """Hampel-filter every channel; flagged samples take the window median.

    The three positions and three unwrapped angles go through one ``_hampel``
    call as the rows of a ``(6, n)`` array.  Angles are unwrapped so a stream
    hovering around +/-pi is not mistaken for spikes; replacement values are
    wrapped back to (-pi, pi].  Samples that are not flagged are returned
    bit-for-bit unchanged.  The window is odd, at least 3 and at most
    ``MAX_FILTER_WINDOW``; anything else raises ValueError.
    """
    window = _filter_window(len(series), window, k)
    med, flags = _hampel(np.vstack([series.positions.T, _unwrap(series.orientations.T)]), window, k)
    pos, orient = series.positions.copy(), series.orientations.copy()
    np.copyto(pos, med[:3].T, where=flags[:3].T)
    bad = flags[3:].T
    orient[bad] = _wrap_angle(med[3:].T[bad])
    del med, flags, bad  # before the series copies pos and orient
    return PoseSeries(series.t, pos, orient)


def _filter_window(n: int, window: int, k: float) -> int:
    """``window`` as an int, or ValueError where ``filter_outliers`` of ``n`` samples refuses it or ``k``:
    a window that is not a Python or numpy integer is refused, not truncated, and a bool for either."""
    window = int_value(window, "window must be an odd integer >= 3")
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 3, got {window}")
    if window > MAX_FILTER_WINDOW:
        raise ValueError(f"window must be at most {MAX_FILTER_WINDOW}, got {window}")
    if window > n:
        raise ValueError(f"window {window} exceeds series length {n}")
    if isinstance(k, (bool, np.bool_)):
        raise ValueError(f"k must be a number, got {k!r}")
    if not (k > 0.0):
        raise ValueError(f"k must be positive, got {k}")
    return window


def _filtered(values: np.ndarray, window: int, k: float, read=slice(None), angles: bool = False) -> np.ndarray:
    """``filter_outliers``' (n, 3) positions from ``values``, or with ``angles`` its orientations,
    at samples ``read`` (sorted indices, or ``slice(None)`` for all).  Angles are unwrapped whole,
    as there.  ``_hampel`` gets only the runs of read samples and ``window // 2`` samples either side
    (clipped at the series ends; all samples if under a window), so each read sample keeps its window."""
    x, at = (_unwrap(values.T) if angles else np.ascontiguousarray(values.T)), read
    if not isinstance(read, slice):
        h, n = window // 2, len(values)  # read samples within h of each: +1 h before each one, -1 h past it
        near = np.bincount(np.maximum(read - h, 0), minlength=n + 1) - np.bincount(
            np.minimum(read + h + 1, n), minlength=n + 1)
        if len(runs := np.flatnonzero(near.cumsum()[:-1])) >= window:
            x, at = x[:, runs], runs.searchsorted(read)
    med, flags = _hampel(x, window, k)
    out, bad = values[read].copy(), flags[:, at].T
    out[bad] = _wrap_angle(med[:, at].T[bad]) if angles else med[:, at].T[bad]
    return out


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap float angles to the interval (-pi, pi]."""
    r = np.mod(a + np.pi, 2.0 * np.pi) - np.pi
    # mod maps odd multiples of pi to -pi; the convention here is +pi.
    return np.where(r == -np.pi, np.pi, r)


def _unwrap(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p)`` along the last axis, bit for bit, with ``np.mod`` taken only where needed.

    np.unwrap corrects each step of at least pi by ``mod(step + pi, 2 pi) - pi
    - step`` (pi, not -pi, for a positive step that lands on -pi) and every
    other step by 0, then adds the running sum of the corrections to every
    sample after the first, which turns a -0.0 there into 0.0.  Steps under
    pi are the rule, so only the others go through ``np.mod``.
    """
    step = p[..., 1:] - p[..., :-1]
    big = ~(np.abs(step) < math.pi)  # as np.unwrap's ``abs(dd) < discont``: a NaN step is corrected
    jump = step[big]
    wrapped = np.mod(jump + math.pi, 2 * math.pi) - math.pi
    wrapped[(wrapped == -math.pi) & (jump > 0)] = math.pi
    correction = np.zeros_like(step)
    correction[big] = wrapped - jump
    out = p.copy()
    out[..., 1:] += correction.cumsum(axis=-1)
    return out


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
    before the samples are allocated, and so does an ``xy_noise_sigma``
    whose draw leaves the float range.

    The noise-free traversal (sample times, positions, orientations and
    distances from the origin) depends on the truth and the rate alone, so
    it is kept for the next call: a Monte Carlo sweep redraws only the noise
    for each seed.  It is keyed by the bytes of the truth's positions,
    orientations and speeds and by ``rate_hz``, so a truth changed in place
    is traversed afresh; one traversal is kept, the last one made.  The
    checks on the rate, the speeds, the extent and the sample count run on
    every call, before the traversal is looked up.
    """
    if not (0.0 < rate_hz < math.inf):
        raise ValueError(f"rate_hz must be positive and finite, got {rate_hz}")
    if (truth.speeds <= 0.0).any():
        raise ValueError("truth speeds must be positive to traverse the path")
    total_t = float(_waypoint_times(truth.positions, truth.speeds)[-1])
    if total_t <= 0.0:
        raise ValueError("truth path has no extent to traverse")
    step = 1.0 / rate_hz
    samples = total_t / step + 1.0  # np.arange makes ceil(total_t / step), the last sample may add one
    if not samples <= MAX_POINTS:
        raise ValueError(f"sampling at {rate_hz} Hz would make {samples:.4g} samples; the limit is {MAX_POINTS}")
    ts, clean_pos, orient, dist = _traversal(
        truth.positions.tobytes(), truth.orientations.tobytes(), truth.speeds.tobytes(), rate_hz
    )

    rng = np.random.default_rng(model.seed)
    n = len(ts)
    noisy = clean_pos.copy()
    noisy[:, 2] += model.z_bias_max * (np.minimum(dist, model.z_bias_range) / model.z_bias_range)
    with np.errstate(over="ignore"):  # such a draw raises just below
        noisy[:, 0] += rng.normal(0.0, model.xy_noise_sigma, n)
        noisy[:, 1] += rng.normal(0.0, model.xy_noise_sigma, n)
    if not np.isfinite(noisy[:, :2]).all():
        raise ValueError(f"xy_noise_sigma {model.xy_noise_sigma} draws x/y noise beyond the float range")
    orient = orient + rng.normal(0.0, math.radians(model.orient_noise_sigma), (n, 3))

    if model.spike_rate > 0.0:
        flags = rng.random(n) < model.spike_rate
        for i in np.flatnonzero(flags):
            axis = int(rng.integers(0, 3))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            noisy[i, axis] += sign * SPIKE_MAGNITUDE_MM

    return PoseSeries(ts, noisy, orient)


def _waypoint_times(pts: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """Time at which a traversal at the segments' mean endpoint speeds reaches each waypoint."""
    seg = row_norms(pts[1:] - pts[:-1])
    seg_v = (speeds[:-1] + speeds[1:]) / 2.0
    return np.concatenate([[0.0], (seg / seg_v).cumsum()])


@functools.lru_cache(maxsize=1, typed=True)
def _traversal(
    positions: bytes, orientations: bytes, speeds: bytes, rate_hz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only sample times, noise-free positions, (psi, theta, phi) orientations
    and distances from the origin of the truth whose array bytes are given, at
    ``rate_hz``.  ``typed`` keeps a rate of another type, whose step may round
    differently, from reading this rate's traversal.
    """
    pts = np.frombuffer(positions).reshape(-1, 3)
    t_wp = _waypoint_times(pts, np.frombuffer(speeds))
    total_t = float(t_wp[-1])
    ts = np.arange(0.0, total_t, 1.0 / rate_hz)
    if total_t - ts[-1] > 1e-12 * max(1.0, total_t):
        ts = np.concatenate([ts, [total_t]])
    else:
        ts[-1] = total_t

    clean_pos = np.column_stack([np.interp(ts, t_wp, pts[:, c]) for c in range(3)])
    # truth orientations are robot-style (rx, ry, rz); the tracker reports
    # the same rotations as (psi, theta, phi) = (rz, ry, rx)
    orient = _quat.interpolate_zyx(t_wp, np.frombuffer(orientations).reshape(-1, 3)[:, ::-1], ts)
    traversal = ts, clean_pos, orient, row_norms(clean_pos)
    for a in traversal:
        a.flags.writeable = False
    return traversal
