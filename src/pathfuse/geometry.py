"""Rigid-body math: Euler conventions, rotations, homogeneous transforms, frames.

Conventions used throughout the package:

* Angles are radians internally.  Degrees appear only at file and CLI
  boundaries.
* Translations are millimeters.
* ``EulerZyx`` holds intrinsic z-y'-x'' angles (yaw ``psi``, pitch ``theta``,
  roll ``phi``), the order reported by the magnetic tracker.  The equivalent
  rotation matrix is ``Rz(psi) @ Ry(theta) @ Rx(phi)``.
* Robot controllers want fixed-axis (extrinsic) X-Y-Z angles.  Rotating about
  the fixed axes in x, y, z order by (rx, ry, rz) produces the same matrix as
  the intrinsic z-y'-x'' sequence with psi=rz, theta=ry, phi=rx, so the two
  conventions exchange by swapping the angle order.

Frames:

* ``F`` - world (tracker field source)
* ``S`` - tracker receiver
* ``R`` - robot base
* ``E`` - tracker sensor held by the demonstrator
"""

from __future__ import annotations

import math
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
    E = "E"  # handheld sensor


@dataclass(frozen=True)
class EulerZyx:
    """Intrinsic z-y'-x'' Euler angles in radians (yaw, pitch, roll)."""

    psi: float
    theta: float
    phi: float

    def __post_init__(self):
        for name in ("psi", "theta", "phi"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"EulerZyx.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    def as_array(self) -> np.ndarray:
        return np.array([self.psi, self.theta, self.phi])


def wrap_angle(a):
    """Wrap angles (scalar or array) to the interval (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    r = np.mod(a + np.pi, 2.0 * np.pi) - np.pi
    # mod maps odd multiples of pi to -pi; the convention here is +pi.
    r = np.where(r == -np.pi, np.pi, r)
    if r.ndim == 0:
        return float(r)
    return r


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


def rot_from_euler_zyx(angles: EulerZyx) -> np.ndarray:
    """Rotation matrix for intrinsic z-y'-x'' angles (see ``rots_from_euler_zyx``)."""
    return rots_from_euler_zyx(angles.as_array())


def _euler_zyx(r: np.ndarray) -> tuple:
    """(psi, theta, phi) for a checked 3x3 rotation or (m, 3, 3) stack of them."""
    rt = r.T  # rt[j, i] is entry (i, j) of every matrix
    # r[2,0] = -sin(theta); the hypot keeps cos(theta) >= 0.
    theta = np.arctan2(-rt[0, 2], np.hypot(rt[1, 2], rt[2, 2]))
    lock = np.cos(theta) < GIMBAL_EPS
    psi = np.where(lock, np.arctan2(-rt[1, 0], rt[1, 1]), np.arctan2(rt[0, 1], rt[0, 0]))
    phi = np.where(lock, 0.0, np.arctan2(rt[1, 2], rt[2, 2]))
    return psi, theta, phi


def euler_zyx_from_rots(r: np.ndarray) -> np.ndarray:
    """Intrinsic z-y'-x'' angles (m, 3) as (psi, theta, phi) for an (m, 3, 3) stack.

    theta is taken in [-pi/2, pi/2].  At gimbal lock (|cos theta| < 1e-7)
    the roll/yaw split is ambiguous; phi is set to 0 and the whole z-axis
    rotation is reported as psi.  The whole stack is checked as rotations
    first; one bad matrix raises ValueError.
    """
    return np.stack(_euler_zyx(check_rotations(r)), axis=-1)


def euler_zyx_from_rot(r: np.ndarray) -> EulerZyx:
    """Recover intrinsic z-y'-x'' angles from one rotation matrix.

    Same convention as ``euler_zyx_from_rots``.
    """
    return EulerZyx(*_euler_zyx(check_rotation(r)))


def rot_from_fixed_xyz(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix for extrinsic (fixed-axis) X-Y-Z angles in radians.

    Identical to the intrinsic z-y'-x'' matrix with the angle order swapped.
    """
    return rot_from_euler_zyx(EulerZyx(rz, ry, rx))


def robot_angles_fixed_xyz(r: np.ndarray) -> tuple[float, float, float]:
    """Extrinsic X-Y-Z angles (rx, ry, rz) in radians for a rotation matrix."""
    e = euler_zyx_from_rot(r)
    return (e.phi, e.theta, e.psi)


def orthonormality_error(r: np.ndarray) -> float:
    """max(|R^T R - I|) plus any determinant defect, as a single scalar.

    For a (..., 3, 3) stack it is the worst value over the stack.
    """
    r = np.asarray(r, dtype=float)
    err = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max()
    return float(max(err, np.abs(np.linalg.det(r) - 1.0).max()))


def check_rotation(r: np.ndarray, tol: float = ORTHONORMAL_TOL) -> np.ndarray:
    """Validate a 3x3 rotation matrix; returns it as float64."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    return check_rotations(r[None], tol)[0]


def check_rotations(r: np.ndarray, tol: float = ORTHONORMAL_TOL) -> np.ndarray:
    """Validate an (m, 3, 3) stack of rotation matrices; returns it as float64."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 3 or r.shape[1:] != (3, 3):
        raise ValueError(f"rotations must be (m, 3, 3), got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("rotation contains non-finite entries")
    err = orthonormality_error(r)
    if err > tol:
        raise ValueError(f"matrix is not a rotation (error {err:.3e} > {tol:.1e})")
    return r


def rotation_angle(r: np.ndarray) -> float | np.ndarray:
    """Angle in radians of the rotation encoded by ``r``, in [0, pi].

    A float for one 3x3 matrix, an (m,) array for an (m, 3, 3) stack.
    """
    r = np.asarray(r, dtype=float)
    c = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    angle = np.arccos(np.clip(c, -1.0, 1.0))
    return float(angle) if angle.ndim == 0 else angle


@dataclass(frozen=True, eq=False)
class Transform4:
    """Rigid transform: rotation plus translation, optionally frame-tagged.

    ``parent`` and ``child`` name the frames so that ``apply`` maps child
    coordinates into parent coordinates.  Untagged transforms (None) compose
    freely; tagged ones must chain consistently.
    """

    rotation: np.ndarray
    translation: np.ndarray
    parent: Frame | None = None
    child: Frame | None = None

    def __post_init__(self):
        r = check_rotation(self.rotation).copy()
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        if not np.all(np.isfinite(t)):
            raise ValueError("translation contains non-finite entries")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity(parent: Frame | None = None, child: Frame | None = None) -> "Transform4":
        return Transform4(np.eye(3), np.zeros(3), parent, child)

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Map a point (3,) or points (n,3) from the child frame to the parent."""
        p = np.asarray(p, dtype=float)
        return p @ self.rotation.T + self.translation

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @staticmethod
    def from_matrix(
        m: np.ndarray, parent: Frame | None = None, child: Frame | None = None
    ) -> "Transform4":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"homogeneous matrix must be 4x4, got {m.shape}")
        if not np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0]):
            raise ValueError("bottom row of a homogeneous transform must be (0,0,0,1)")
        return Transform4(m[:3, :3], m[:3, 3], parent, child)


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


def invert(t: Transform4) -> Transform4:
    """Inverse transform; swaps the frame tags."""
    r_inv = t.rotation.T
    return Transform4(r_inv, -(r_inv @ t.translation), t.child, t.parent)


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


def chain_to_robot(calib: CalibrationSet, t_s_e: Transform4) -> Transform4:
    """Express a sensor pose (receiver frame) in robot-base coordinates.

    T_R_E = T_R_F . T_F_S . T_S_E
    """
    if (t_s_e.parent, t_s_e.child) != (Frame.S, Frame.E):
        raise FrameMismatchError(
            f"sensor pose must be tagged (S, E), got ({t_s_e.parent}, {t_s_e.child})"
        )
    return compose(compose(calib.t_r_f, calib.t_f_s), t_s_e)
