"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions with no imports
from the package under test, so a bug there cannot hide behind itself.
"""

import json
import math

import numpy as np


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_intrinsic_zyx(psi, theta, phi):
    """Intrinsic z-y'-x'': successive rotations about the moving axes."""
    return rot_z(psi) @ rot_y(theta) @ rot_x(phi)


def rot_extrinsic_xyz(rx, ry, rz):
    """Extrinsic X-Y-Z: rotations about the fixed axes, x first."""
    return rot_z(rz) @ rot_y(ry) @ rot_x(rx)


def rand_rotation(rng):
    return rot_intrinsic_zyx(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-math.pi, math.pi),
    )


def hom(r, t):
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


def apply_hom(m, p):
    v = m @ np.array([p[0], p[1], p[2], 1.0])
    return v[:3]


def point_to_segment(p, a, b):
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    d = b - a
    dd = float(d @ d)
    if dd == 0.0:
        return float(np.linalg.norm(p - a))
    t = min(max(float((p - a) @ d) / dd, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


def point_to_polyline(p, poly):
    poly = np.asarray(poly, dtype=float)
    return min(point_to_segment(p, poly[i], poly[i + 1]) for i in range(len(poly) - 1))


def point_to_polyline_all_pairs(points, poly):
    """Min distance of each point to any segment of a polyline, measuring every pair.

    16 points at a time against every segment: the clamped projection, the
    smallest squared gap, then ``sqrt``.
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


def cad_waypoints(points, closed, eps=1e-6):
    """Waypoints of a CAD polyline after merging, one waypoint at a time, or None.

    A waypoint closer than ``eps`` to the last one kept merges into it; a
    closed path then drops a last waypoint within ``eps`` of its first.  None
    when fewer than two waypoints remain.
    """
    w = np.asarray(points, dtype=float)
    keep = [0]
    for i in range(1, len(w)):
        if np.linalg.norm(w[i] - w[keep[-1]]) >= eps:
            keep.append(i)
    w = w[keep]
    if closed and len(w) > 2 and np.linalg.norm(w[-1] - w[0]) < eps:
        w = w[:-1]
    return w if len(w) >= 2 else None


def polyline_length(poly):
    poly = np.asarray(poly, dtype=float)
    return float(np.sum(np.linalg.norm(np.diff(poly, axis=0), axis=1)))


def split_polyline(points, closed, spacing):
    """Vertices with every segment cut into ceil(length / spacing) equal pieces.

    One segment at a time; a closed polyline includes its closing segment and
    does not repeat the first vertex at the end.
    """
    points = np.asarray(points, dtype=float)
    loop = np.vstack([points, points[:1]]) if closed else points
    out = []
    for a, b in zip(loop[:-1], loop[1:]):
        out.append(a)
        pieces = math.ceil(float(np.linalg.norm(b - a)) / spacing)
        for i in range(1, pieces):
            out.append(a + (i / pieces) * (b - a))
    if not closed:
        out.append(points[-1])
    return np.array(out)


def quat_mul(a, b):
    """Hamilton product of [w, x, y, z] quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_intrinsic_zyx(psi, theta, phi):
    """Quaternion of Rz(psi) Ry(theta) Rx(phi): the three axis quaternions in order."""

    def about(axis, a):
        q = np.zeros(4)
        q[0], q[axis] = math.cos(a / 2.0), math.sin(a / 2.0)
        return q

    return quat_mul(quat_mul(about(3, psi), about(2, theta)), about(1, phi))


def quat_to_rot(q):
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def quat_matrices(q):
    """(m, 3, 3) rotation matrices of (m, 4) quaternions, normalized first: through
    ``euler_zyx_from_rots`` the reference ``_quat.to_euler_zyx`` must equal bit for bit."""
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


def slerp(qa, qb, u):
    """Shoemake's slerp in power form, qa (qa^-1 qb)^u, along the shorter arc."""
    qa = np.asarray(qa, dtype=float) / np.linalg.norm(qa)
    qb = np.asarray(qb, dtype=float) / np.linalg.norm(qb)
    rel = quat_mul(qa * np.array([1.0, -1.0, -1.0, -1.0]), qb)
    if rel[0] < 0.0:
        rel = -rel  # q and -q are one rotation; the shorter arc has w >= 0
    s = float(np.linalg.norm(rel[1:]))
    if s == 0.0:
        return qa
    half = math.atan2(s, rel[0])
    step = np.concatenate([[math.cos(u * half)], math.sin(u * half) * rel[1:] / s])
    return quat_mul(qa, step)


def make_continuous(qs):
    """Walk a quaternion chain, negating each one that points away from its aligned predecessor."""
    out = [np.array(q, dtype=float) for q in qs]
    for i in range(1, len(out)):
        if float(out[i - 1] @ out[i]) < 0.0:
            out[i] = -out[i]
    return np.array(out)


def rotation_distance(ra, rb):
    """Angle in radians between two rotations, accurate near zero.

    ||Ra - Rb||_F = 2 sqrt(2) sin(angle / 2).
    """
    chord = float(np.linalg.norm(np.asarray(ra) - np.asarray(rb))) / (2.0 * math.sqrt(2.0))
    return 2.0 * math.asin(min(1.0, chord))


def validate_path(doc, limits):
    """Per-point kinematic limit check, walking every point in program order.

    Layers go by index, equal indices in listing order, then tracks, then
    points.  Returns (layer, track, point, rule, measured) tuples in that
    order, with the layer's listing position; for one point the pair rules
    (step, orient_step) come before the point rules (reachability, speed).
    The previous point carries across tracks and layers, so only the
    program's first point has no pair rules.  Rows are (x, y, z, rx, ry, rz,
    speed) with fixed X-Y-Z angles in degrees.
    """
    center = np.asarray(limits.workspace_center, dtype=float)
    out = []
    prev = None
    by_index = sorted(range(len(doc.layers)), key=lambda li: (doc.layers[li].index, li))
    for li in by_index:
        for ti, track in enumerate(doc.layers[li].tracks):
            for pi, (x, y, z, rx, ry, rz, v) in enumerate(np.asarray(track.points).tolist()):
                pos = np.array([x, y, z])
                rot = rot_extrinsic_xyz(math.radians(rx), math.radians(ry), math.radians(rz))
                if prev is not None:
                    step = float(np.linalg.norm(pos - prev[0]))
                    if step > limits.max_step_mm:
                        out.append((li, ti, pi, "step", step))
                    turn = math.degrees(rotation_distance(prev[1], rot))
                    if turn > limits.max_orient_step_deg:
                        out.append((li, ti, pi, "orient_step", turn))
                reach = float(np.linalg.norm(pos - center))
                if reach > limits.workspace_radius_mm:
                    out.append((li, ti, pi, "reachability", reach))
                if v > limits.max_speed_mm_s:
                    out.append((li, ti, pi, "speed", v))
                prev = (pos, rot)
    return out


def demo_csv(t, positions, orientations):
    """Demonstration CSV bytes, one f-string per row: 9 decimals, angles in degrees."""
    out = ["t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg"]
    for ti, (x, y, z), angles in zip(np.asarray(t).tolist(), np.asarray(positions).tolist(),
                                     np.asarray(orientations).tolist()):
        az, el, roll = (math.degrees(a) for a in angles)
        out.append(f"{ti:.9f},{x:.9f},{y:.9f},{z:.9f},{az:.9f},{el:.9f},{roll:.9f}")
    return ("\n".join(out) + "\n").encode("utf-8")


def hampel(x, window, k, scale=1.4826):
    """Hampel filter of one channel, one window at a time with np.median.

    Windows are centred and truncated at the ends.  Returns (medians, flags);
    a sample is flagged when it lies more than k * scale * MAD from its median.
    """
    x = np.asarray(x, dtype=float)
    h = window // 2
    med, flags = np.empty(len(x)), np.zeros(len(x), dtype=bool)
    for i in range(len(x)):
        w = x[max(0, i - h) : i + h + 1]
        med[i] = np.median(w)
        flags[i] = abs(x[i] - med[i]) > k * scale * np.median(np.abs(w - med[i]))
    return med, flags


POINT_ATTRS = ("X_mm", "Y_mm", "Z_mm", "RX_deg", "RY_deg", "RZ_deg", "Velocity_mm_s")


def pathml_points(points):
    """The Point elements of one PathML track, one ``str.format`` per point.

    Six decimals, and a number that prints as -0.000000 is written 0.000000.
    """
    element = "\n".join(
        ['          <InternalElement Name="Point_{}">']
        + [f'            <Attribute Name="{name}"><Value>{{:.6f}}</Value></Attribute>' for name in POINT_ATTRS]
        + ["          </InternalElement>"]
    )
    return "\n".join(
        element.format(k, *row).replace("-0.000000", "0.000000") for k, row in enumerate(np.asarray(points).tolist())
    )


def movel_lines(points):
    """MOVEL lines of one track, one ``str.format`` per point; -0.000 is written 0.000."""
    line = "MOVEL {:.3f} {:.3f} {:.3f} {:.3f} {:.3f} {:.3f} V={:.3f}"
    return [line.format(*row).replace("-0.000", "0.000") for row in np.asarray(points).tolist()]


def fused_path_json(positions, orientations, speeds, frame, closed):
    """Fused-path JSON built as a dict, one per point, and written by ``json.dumps(indent=2)``.

    Orientations are radians and are written in degrees.
    """
    points = [
        {
            "x_mm": x, "y_mm": y, "z_mm": z,
            "rx_deg": math.degrees(rx), "ry_deg": math.degrees(ry), "rz_deg": math.degrees(rz),
            "v_mm_s": v,
        }
        for (x, y, z), (rx, ry, rz), v in zip(
            np.asarray(positions).tolist(), np.asarray(orientations).tolist(), np.asarray(speeds).tolist()
        )
    ]
    return json.dumps({"frame": frame, "closed": closed, "points": points}, indent=2) + "\n"


def line_fit(t, x, width):
    """Value and slope at each t[i] of np.polyfit(t, x, 1) over the window of t[i].

    The window is every sample within ``width`` seconds starting at
    t[i] - width / 2, moved to start no earlier than t[0] and end no later
    than t[-1] (the whole series when it is shorter than ``width``); a window
    holding t[i] alone takes the next sample too, or the one before at the end.
    """
    n = len(t)
    values, slopes = [], []
    for i in range(n):
        start = max(min(t[i] - width / 2.0, t[-1] - width), t[0])
        members = [k for k in range(n) if start <= t[k] <= start + width]
        if len(members) == 1:
            members = [i, i + 1] if i + 1 < n else [i - 1, i]
        slope, intercept = np.polyfit(t[members], x[members], 1)
        values.append(slope * t[i] + intercept)
        slopes.append(slope)
    return np.array(values), np.array(slopes)
