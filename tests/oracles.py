"""Independent reference implementations used as test oracles.

Everything here is written from the textbook definitions with no imports
from the package under test, so a bug there cannot hide behind itself.
"""

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
    """Per-point kinematic limit check, walking every point in order.

    Returns (layer, track, point, rule, measured) tuples in traversal order;
    for one point the pair rules (step, orient_step) come before the point
    rules (reachability, speed), and a track's first point has no pair rules.
    Rows are (x, y, z, rx, ry, rz, speed) with fixed X-Y-Z angles in degrees.
    """
    center = np.asarray(limits.workspace_center, dtype=float)
    out = []
    for li, layer in enumerate(doc.layers):
        for ti, track in enumerate(layer.tracks):
            prev = None
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
