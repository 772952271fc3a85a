"""Rigid-body math: Euler conventions, rotations, rigid transforms, frames.

Conventions used throughout the package:

* Angles are radians internally.  Degrees appear only at file and CLI
  boundaries.
* Translations are millimeters.
* Euler angles are intrinsic z-y'-x'' triples (yaw ``psi``, pitch ``theta``,
  roll ``phi``), the order reported by the magnetic tracker.  The equivalent
  rotation matrix is ``Rz(psi) @ Ry(theta) @ Rx(phi)``.  The functions take
  and return stacks: ``(..., 3)`` angles, ``(..., 3, 3)`` matrices.
* Robot controllers want fixed-axis (extrinsic) X-Y-Z angles.  Rotating about
  the fixed axes in x, y, z order by (rx, ry, rz) produces the same matrix as
  the intrinsic z-y'-x'' sequence with psi=rz, theta=ry, phi=rx, so the two
  conventions exchange by swapping the angle order.
* Records hold their arrays as read-only float64 copies, which ``freeze`` sets.

Frames:

* ``F`` - world (tracker field source)
* ``S`` - tracker receiver
* ``R`` - robot base
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FrameMismatchError

# Tolerance for R^T R = I and det R = 1 checks.
ORTHONORMAL_TOL = 1e-9

# |cos(theta)| below this counts as gimbal lock.
GIMBAL_EPS = 1e-7


class Frame(str, Enum):
    """Coordinate frame tags for transforms."""

    F = "F"  # world / field source
    S = "S"  # tracker receiver
    R = "R"  # robot base


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean length of each vector along the last axis of a float array.

    Equal bit for bit to ``np.linalg.norm(x, axis=-1)``, whose own formula for
    one axis this is, without the Python-level cost of its argument handling.
    """
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def freeze(record, **arrays) -> tuple[np.ndarray, ...]:
    """Set each named field of the frozen dataclass ``record`` to a read-only float64 copy; return the copies."""
    for name, a in arrays.items():
        a = arrays[name] = np.array(a, dtype=float)
        a.setflags(write=False)
        object.__setattr__(record, name, a)
    return tuple(arrays.values())


def rots_from_euler_zyx(angles: np.ndarray) -> np.ndarray:
    """Rotation matrices (..., 3, 3) for (..., 3) intrinsic z-y'-x'' angles.

    Angles are (psi, theta, phi) radians; closed form of
    ``Rz(psi) @ Ry(theta) @ Rx(phi)``.
    """
    a = np.asarray(angles, dtype=float)
    (cz, cy, cx), (sz, sy, sx) = np.cos(a).T, np.sin(a).T
    m = np.empty(a.shape[:-1] + (3, 3))
    m[..., 0, 0] = cz * cy
    m[..., 0, 1] = cz * sy * sx - sz * cx
    m[..., 0, 2] = cz * sy * cx + sz * sx
    m[..., 1, 0] = sz * cy
    m[..., 1, 1] = sz * sy * sx + cz * cx
    m[..., 1, 2] = sz * sy * cx - cz * sx
    m[..., 2, 0] = -sy
    m[..., 2, 1] = cy * sx
    m[..., 2, 2] = cy * cx
    return m


def euler_zyx_from_rots(r: np.ndarray) -> np.ndarray:
    """Intrinsic z-y'-x'' angles (m, 3) as (psi, theta, phi) for an (m, 3, 3) stack.

    theta is taken in [-pi/2, pi/2].  At gimbal lock (|cos theta| < 1e-7)
    the roll/yaw split is ambiguous; phi is set to 0 and the whole z-axis
    rotation is reported as psi.  The whole stack is checked as rotations
    first; one bad matrix raises ValueError.
    """
    rt = check_rotations(r).T  # rt[j, i] is entry (i, j) of every matrix
    return euler_zyx_from_entries(rt[0, 0], rt[1, 0], rt[0, 1], rt[1, 1], rt[0, 2], rt[1, 2], rt[2, 2])


def euler_zyx_from_entries(r00, r01, r10, r11, r20, r21, r22) -> np.ndarray:
    """(m, 3) angles as ``euler_zyx_from_rots`` gives them, from the seven (m,) entries
    ``r[i, j]`` of a rotation stack that they depend on.  The entries are not checked."""
    # r20 = -sin(theta); the hypot keeps cos(theta) >= 0.
    theta = np.arctan2(-r20, np.hypot(r21, r22))
    lock = np.cos(theta) < GIMBAL_EPS
    psi = np.where(lock, np.arctan2(-r01, r11), np.arctan2(r10, r00))
    phi = np.where(lock, 0.0, np.arctan2(r21, r22))
    return np.stack([psi, theta, phi], axis=-1)


def rot_from_fixed_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix for extrinsic (fixed-axis) X-Y-Z angles in radians.

    Identical to the intrinsic z-y'-x'' matrix with the angle order swapped.
    """
    return rots_from_euler_zyx(np.array([rz, ry, rx]))


def orthonormality_error(r: np.ndarray) -> float:
    """max(|R^T R - I|) plus any determinant defect, as a single scalar.

    For a (..., 3, 3) stack it is the worst value over the stack.
    """
    r = np.asarray(r, dtype=float)
    err = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max()
    return float(max(err, np.abs(np.linalg.det(r) - 1.0).max()))


def check_rotations(r: np.ndarray) -> np.ndarray:
    """Validate an (m, 3, 3) stack of rotation matrices; returns it as float64."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError(f"rotations must be (m, 3, 3), got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("rotation contains non-finite entries")
    err = orthonormality_error(r)
    if err > ORTHONORMAL_TOL:
        raise ValueError(f"matrix is not a rotation (error {err:.3e} > {ORTHONORMAL_TOL:.1e})")
    return r


@dataclass(frozen=True, eq=False)
class Transform4:
    """Rigid transform: rotation plus translation, optionally frame-tagged.

    ``parent`` and ``child`` name the frames: the transform maps child
    coordinates into parent coordinates.  Untagged transforms (None) compose
    freely; tagged ones must chain consistently.
    """

    rotation: np.ndarray
    translation: np.ndarray
    parent: Frame | None = None
    child: Frame | None = None

    def __post_init__(self):
        r, t = freeze(self, rotation=self.rotation, translation=np.reshape(self.translation, 3))
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
        check_rotations(r[None])
        if not np.all(np.isfinite(t)):
            raise ValueError("translation contains non-finite entries")


def compose(a: Transform4, b: Transform4) -> Transform4:
    """a then b: first map by b, then by a (matrix product a @ b).

    Frame tags propagate when they chain (a.child == b.parent); any other
    combination yields an untagged result rather than an error, since mixed
    tagged/untagged algebra is common in intermediate math.
    """
    r = a.rotation @ b.rotation
    t = a.rotation @ b.translation + a.translation
    if a.child is not None and a.child == b.parent:
        return Transform4(r, t, a.parent, b.child)
    return Transform4(r, t, None, None)


@dataclass(frozen=True)
class CalibrationSet:
    """The two fixed transforms of the capture setup.

    ``t_r_f`` maps world into robot-base coordinates; ``t_f_s`` maps receiver
    into world coordinates.  Both must be tagged accordingly.
    """

    t_r_f: Transform4
    t_f_s: Transform4

    def __post_init__(self):
        if (self.t_r_f.parent, self.t_r_f.child) != (Frame.R, Frame.F):
            raise FrameMismatchError(
                f"t_r_f must be tagged (R, F), got "
                f"({self.t_r_f.parent}, {self.t_r_f.child})"
            )
        if (self.t_f_s.parent, self.t_f_s.child) != (Frame.F, Frame.S):
            raise FrameMismatchError(
                f"t_f_s must be tagged (F, S), got "
                f"({self.t_f_s.parent}, {self.t_f_s.child})"
            )
