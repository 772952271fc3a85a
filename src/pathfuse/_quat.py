"""Internal unit-quaternion helpers for orientation interpolation.

Quaternions are float arrays in [w, x, y, z] order.  This module is an
implementation detail of the fusion and resampling code; orientations in the
public API are always Euler angles or rotation matrices.

``interpolate_zyx`` is the one orientation-interpolation kernel: given sample
parameters, the z-y'-x'' angles at those samples and a batch of query
parameters, it returns the angles at every query in one vectorized pass
(bracket search, shortest-arc slerp after Shoemake 1985, matrix stack and
batched Euler extraction).
"""

from __future__ import annotations

import numpy as np

from .geometry import euler_zyx_from_rots

# Above this quaternion dot the endpoints are nearly parallel and slerp
# blends linearly, avoiding a division by sin(~0).
_PARALLEL_DOT = 1.0 - 1e-12


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product; broadcasts over leading axes."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def from_euler_zyx(angles: np.ndarray) -> np.ndarray:
    """Quaternions for intrinsic z-y'-x'' angles.

    ``angles`` is (..., 3) in (psi, theta, phi) order, radians.
    """
    angles = np.asarray(angles, dtype=float)
    half = angles / 2.0
    cz, sz = np.cos(half[..., 0]), np.sin(half[..., 0])
    cy, sy = np.cos(half[..., 1]), np.sin(half[..., 1])
    cx, sx = np.cos(half[..., 2]), np.sin(half[..., 2])
    zero = np.zeros_like(cz)
    qz = np.stack([cz, zero, zero, sz], axis=-1)
    qy = np.stack([cy, zero, sy, zero], axis=-1)
    qx = np.stack([cx, sx, zero, zero], axis=-1)
    return mul(mul(qz, qy), qx)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


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
    flips = np.concatenate([[0], np.cumsum(d < 0.0)])
    restart = np.concatenate([[True], d == 0.0])
    since = flips - np.maximum.accumulate(np.where(restart, flips, 0))
    qs[since % 2 == 1] *= -1.0
    return qs


def _slerp(qa: np.ndarray, qb: np.ndarray, u: np.ndarray) -> np.ndarray:
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
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    q = np.where((u <= 0.0)[:, None], qa, q)
    return np.where((u >= 1.0)[:, None], qb, q)


def _matrices(q: np.ndarray) -> np.ndarray:
    """(m, 3, 3) rotation matrices for (m, 4) quaternions, normalized first."""
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


def interpolate_zyx(params: np.ndarray, angles_zyx: np.ndarray, u: np.ndarray) -> np.ndarray:
    """z-y'-x'' angles at progress values ``u``, slerped between samples.

    ``params`` is the (n,) non-decreasing parameter of each sample (n >= 2)
    and ``angles_zyx`` the (n, 3) (psi, theta, phi) angles there.  Each query
    is bracketed by the last sample whose parameter is <= it, clamped to the
    first and last segments; its fraction within the bracket is clipped to
    [0, 1], and a zero-width bracket takes its upper sample.  Returns (m, 3)
    angles for the m queries, extracted as ``euler_zyx_from_rots`` does.
    """
    params = np.asarray(params, dtype=float)
    u = np.asarray(u, dtype=float)
    quats = make_continuous(from_euler_zyx(angles_zyx))
    j = np.clip(np.searchsorted(params, u, side="right") - 1, 0, len(params) - 2)
    lo = params[j]
    denom = params[j + 1] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom > 0.0, np.clip((u - lo) / denom, 0.0, 1.0), 1.0)
    return euler_zyx_from_rots(_matrices(_slerp(quats[j], quats[j + 1], frac)))
