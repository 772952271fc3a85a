import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pathfuse import (
    CalibrationSet,
    Frame,
    FrameMismatchError,
    Transform4,
    compose,
    rot_from_fixed_xyz,
    rotation_angle,
)
from pathfuse.geometry import (
    euler_zyx_from_rots,
    orthonormality_error,
    row_norms,
    rots_from_euler_zyx,
)

angles = st.floats(-math.pi, math.pi)
pitches = st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)


def _angles_of(r):
    """(psi, theta, phi) of one rotation matrix, through the batched extraction."""
    return euler_zyx_from_rots(r[None])[0]


class TestEuler:
    def test_matrix_matches_reference_product(self):
        rng = np.random.default_rng(7)
        triples = rng.uniform(-math.pi, math.pi, (300, 3))
        got = rots_from_euler_zyx(triples)
        for (psi, theta, phi), r in zip(triples, got):
            want = oracles.rot_intrinsic_zyx(psi, theta, phi)
            assert np.max(np.abs(r - want)) < 1e-14

    @given(angles, pitches, angles)
    def test_round_trip(self, psi, theta, phi):
        back = _angles_of(rots_from_euler_zyx(np.array([psi, theta, phi])))
        for got, want in zip(back, (psi, theta, phi)):
            assert math.isclose(got, want, abs_tol=1e-9)

    @given(angles, st.floats(-math.pi, math.pi), angles)
    def test_recovered_angles_recompose(self, psi, theta, phi):
        # outside the principal pitch range the angles differ
        # but must encode the same rotation
        r = oracles.rot_intrinsic_zyx(psi, theta, phi)
        assert np.max(np.abs(rots_from_euler_zyx(_angles_of(r)) - r)) < 1e-9

    def test_pitch_comes_back_in_principal_range(self):
        rng = np.random.default_rng(3)
        stack = np.array([oracles.rand_rotation(rng) for _ in range(100)])
        theta = euler_zyx_from_rots(stack)[:, 1]
        assert np.all((-math.pi / 2 <= theta) & (theta <= math.pi / 2))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gimbal_lock_sets_roll_to_zero(self, sign):
        r = oracles.rot_intrinsic_zyx(0.4, sign * math.pi / 2, 0.9)
        e = _angles_of(r)
        assert e[2] == 0.0
        assert np.max(np.abs(rots_from_euler_zyx(e) - r)) < 1e-9

    def test_fixed_xyz_equals_swapped_intrinsic(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rx, ry, rz = rng.uniform(-math.pi, math.pi, 3)
            got = rot_from_fixed_xyz(rx, ry, rz)
            assert np.max(np.abs(got - oracles.rot_extrinsic_xyz(rx, ry, rz))) < 1e-12

    def test_robot_angles_invert_fixed_xyz(self):
        # robot (rx, ry, rz) are the extracted (psi, theta, phi) reversed
        rng = np.random.default_rng(13)
        stack = np.array([oracles.rand_rotation(rng) for _ in range(200)])
        for (rx, ry, rz), r in zip(euler_zyx_from_rots(stack)[:, ::-1], stack):
            assert np.max(np.abs(oracles.rot_extrinsic_xyz(rx, ry, rz) - r)) < 1e-9


def check_rotation(r):
    """Transform4's check of its rotation."""
    return Transform4(r, np.zeros(3)).rotation


class TestRotationChecks:
    def test_accepts_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            check_rotation(oracles.rand_rotation(rng))

    def test_rejects_scaled(self):
        with pytest.raises(ValueError):
            check_rotation(np.eye(3) * 1.001)

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        assert orthonormality_error(m) > 1e-9  # det defect
        with pytest.raises(ValueError):
            check_rotation(m)

    def test_rejects_bad_shape_and_nan(self):
        with pytest.raises(ValueError, match="rotation must be 3x3"):
            check_rotation(np.eye(4))
        m = np.eye(3)
        m[0, 0] = math.nan
        with pytest.raises(ValueError):
            check_rotation(m)

    def test_rotation_angle_known_values(self):
        assert rotation_angle(np.eye(3)) == 0.0
        assert math.isclose(rotation_angle(oracles.rot_z(1.2)), 1.2, abs_tol=1e-12)
        assert math.isclose(rotation_angle(oracles.rot_x(math.pi)), math.pi, abs_tol=1e-12)

    def test_rotation_angle_of_a_stack(self):
        rng = np.random.default_rng(5)
        stack = np.array([oracles.rand_rotation(rng) for _ in range(20)])
        got = rotation_angle(stack)
        assert isinstance(rotation_angle(stack[0]), float)
        assert got.shape == (20,)
        assert got.tolist() == [rotation_angle(r) for r in stack]
        ref = [oracles.rotation_distance(np.eye(3), r) for r in stack]
        assert np.max(np.abs(got - ref)) < 1e-7
        assert rotation_angle(np.empty((0, 3, 3))).shape == (0,)


@pytest.mark.parametrize("width", range(2, 8))
def test_row_norms_are_numpys_bit_for_bit(width):
    rng = np.random.default_rng(width)
    x = rng.standard_normal((3000, width)) * 10.0 ** rng.uniform(-300.0, 300.0, (3000, 1))
    x[::101, -1] = np.nan
    with np.errstate(over="ignore"):  # rows past 1.3e154 overflow to inf in both
        got, want = row_norms(x), np.linalg.norm(x, axis=1)
    assert np.isinf(got).any() and np.isnan(got).any() and (got < 1e-150).any()
    assert got.tobytes() == want.tobytes()


def _hom(t):
    return oracles.hom(t.rotation, t.translation)


def _identity(parent=None, child=None):
    return Transform4(np.eye(3), np.zeros(3), parent, child)


class TestTransform4:
    def test_rejects_invalid_rotation(self):
        with pytest.raises(ValueError):
            Transform4(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Transform4(np.eye(3), [1.0, math.nan, 0.0])

    def test_arrays_are_read_only(self):
        tf = _identity()
        with pytest.raises(ValueError):
            tf.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            tf.translation[0] = 2.0


class TestComposeInvert:
    def test_compose_matches_matmul(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3))
            b = Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3))
            assert np.max(np.abs(_hom(compose(a, b)) - _hom(a) @ _hom(b))) < 1e-9

    def test_compose_propagates_consistent_tags(self):
        c = compose(_identity(Frame.R, Frame.F), _identity(Frame.F, Frame.S))
        assert (c.parent, c.child) == (Frame.R, Frame.S)

    def test_compose_drops_inconsistent_tags(self):
        c = compose(_identity(Frame.R, Frame.F), _identity(Frame.S, Frame.R))
        assert (c.parent, c.child) == (None, None)


class TestCalibrationChain:
    def test_requires_correct_tags(self):
        ok = _identity(Frame.R, Frame.F)
        bad = _identity(Frame.F, Frame.R)
        with pytest.raises(FrameMismatchError):
            CalibrationSet(bad, _identity(Frame.F, Frame.S))
        with pytest.raises(FrameMismatchError):
            CalibrationSet(ok, _identity(Frame.S, Frame.F))
