"""Internal unit-quaternion helpers for orientation interpolation.

Quaternions are float arrays in [w, x, y, z] order.  This module is an
implementation detail of the fusion, capture-synthesis and path-validation code;
orientations in the public API are always Euler angles or rotation matrices.

``interpolate_zyx`` is one vectorized pass: ``bracket`` each query, ``slerp``
along the shorter arc (Shoemake 1985), and read angles with ``to_euler_zyx``.
"""

from __future__ import annotations

import numpy as np

from .geometry import euler_zyx_from_entries, row_norms

# Above this quaternion dot the endpoints are nearly parallel and slerp
# blends linearly, avoiding a division by sin(~0).
_PARALLEL_DOT = 1.0 - 1e-12


# a[_MUL_INDEX] * _MUL_SIGN is the matrix M with a b = b M for a = (w, x, y, z)
_MUL_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_MUL_SIGN = np.array([[1.0, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]])


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products a b_i of one quaternion ``a`` with the rows of (m, 4) ``b``."""
    return b @ (a[_MUL_INDEX] * _MUL_SIGN)


def from_euler_zyx(angles: np.ndarray) -> np.ndarray:
    """(n, 4) quaternions q_z(psi) q_y(theta) q_x(phi), in closed form, of (n, 3) angles (radians)."""
    half = np.asarray(angles, dtype=float) / 2.0
    cz, cy, cx = np.cos(half).T
    sz, sy, sx = np.sin(half).T
    q = np.empty((len(half), 4))
    q[:, 0] = cz * cy * cx + sz * sy * sx
    q[:, 1] = cz * cy * sx - sz * sy * cx
    q[:, 2] = cz * sy * cx + sz * cy * sx
    q[:, 3] = sz * cy * cx - cz * sy * sx
    return q


def to_rotvec(q: np.ndarray) -> np.ndarray:
    """(m, 3) rotation vectors (angle times unit axis) of (m, 4) unit quaternions."""
    s = row_norms(q[:, 1:])
    scale = np.divide(2.0 * np.arctan2(s, q[:, 0]), s, out=np.zeros_like(s), where=s > 0.0)
    return q[:, 1:] * scale[:, None]


def from_rotvec(r: np.ndarray) -> np.ndarray:
    """(m, 4) unit quaternions of (m, 3) rotation vectors."""
    half = row_norms(r) / 2.0
    scale = np.divide(np.sin(half), 2.0 * half, out=np.full_like(half, 0.5), where=half > 0.0)  # sin(half) / |r|
    return np.column_stack([np.cos(half), r * scale[:, None]])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def angles_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,) angles in [0, pi] of the rotations from the rows of (m, 4) unit quaternions ``a`` to those of ``b``.

    Each ``b`` row is put in its ``a`` row's hemisphere (q and -q are one
    rotation), then Kahan's angle between unit vectors, 2 atan2(|a - b|, |a + b|),
    is doubled: exact at 0 and at a half turn, where an arccos loses digits.
    """
    b = b * np.where(_dot(a, b) < 0.0, -1.0, 1.0)[:, None]
    return 4.0 * np.arctan2(row_norms(a - b), row_norms(a + b))


def make_continuous(qs: np.ndarray) -> np.ndarray:
    """Flip signs along an (n, 4) quaternion sequence so neighbors sit in one hemisphere.

    q and -q encode the same rotation; interpolation needs the representative
    chain to be sign-consistent.  Equivalent to walking the chain and negating
    q[i] whenever its dot with the already-aligned q[i-1] is negative: the sign
    of q[i] is the product of the signs of the raw neighbor dots, except that
    a zero dot leaves q[i] unflipped and restarts the product there.
    """
    qs = np.array(qs, dtype=float)
    d = _dot(qs[:-1], qs[1:])
    flips = np.concatenate([[0], (d < 0.0).cumsum()])
    restart = np.concatenate([[True], d == 0.0])
    since = flips - np.maximum.accumulate(np.where(restart, flips, 0))
    qs[since % 2 == 1] *= -1.0
    return qs


def slerp(qa: np.ndarray, qb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Spherical interpolation, row by row, at fractions ``u``.

    Rows come from a ``make_continuous`` chain, so each pair's dot is >= 0
    and the arc between them is the shorter one.  ``u <= 0`` and ``u >= 1``
    return the endpoints as given; interior rows come back normalized.
    """
    dot = _dot(qa, qb)
    omega = np.arccos(np.minimum(1.0, dot))
    s = np.sin(omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        wa = np.sin((1.0 - u) * omega) / s
        wb = np.sin(u * omega) / s
    w = u[:, None]
    q = np.where(
        (dot > _PARALLEL_DOT)[:, None],
        qa + w * (qb - qa),
        wa[:, None] * qa + wb[:, None] * qb,
    )
    q = q / row_norms(q)[:, None]
    q = np.where((u <= 0.0)[:, None], qa, q)
    return np.where((u >= 1.0)[:, None], qb, q)


def to_euler_zyx(q: np.ndarray) -> np.ndarray:
    """(m, 3) z-y'-x'' angles of (m, 4) quaternions, normalized first.

    Equal bit for bit to ``euler_zyx_from_rots`` of the quaternions' rotation
    matrices, gimbal lock included, but only the seven entries the angles read
    are formed.  A normalized quaternion's matrix is a rotation by
    construction, so what is left to check is that the normalized components
    are finite: a zero, NaN or infinite row raises ValueError.
    """
    with np.errstate(invalid="ignore", divide="ignore"):  # such rows raise just below
        q = q / row_norms(q)[:, None]
    if not np.isfinite(q).all():
        raise ValueError("quaternion has no unit form: a row is zero or not finite")
    w, x, y, z = q.T
    return euler_zyx_from_entries(
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    )


def bracket(params: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment ``j`` (samples j, j + 1) of each query ``u`` and its fraction within it.

    ``params`` is the (n,) non-decreasing parameter of the samples (n >= 2).  A query's
    segment starts at the last sample whose parameter is <= it, clamped to the first and
    last segments; fractions are clipped to [0, 1], and a zero-width segment gives 1.
    """
    j = np.minimum(np.maximum(params.searchsorted(u, side="right") - 1, 0), len(params) - 2)
    lo = params[j]
    denom = params[j + 1] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom > 0.0, np.minimum(np.maximum((u - lo) / denom, 0.0), 1.0), 1.0)
    return j, frac


def interpolate_zyx(params: np.ndarray, angles_zyx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(m, 3) z-y'-x'' angles at the m queries ``u`` (see ``bracket``), slerped
    between the (n, 3) sample angles ``angles_zyx``."""
    quats = make_continuous(from_euler_zyx(angles_zyx))
    j, frac = bracket(np.asarray(params, dtype=float), np.asarray(u, dtype=float))
    return to_euler_zyx(slerp(quats[j], quats[j + 1], frac))
