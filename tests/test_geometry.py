import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from pathfuse import (
    CalibrationSet,
    EulerZyx,
    Frame,
    FrameMismatchError,
    Transform4,
    chain_to_robot,
    compose,
    euler_zyx_from_rot,
    invert,
    robot_angles_fixed_xyz,
    rot_from_euler_zyx,
    rot_from_fixed_xyz,
    rotation_angle,
    wrap_angle,
)
from pathfuse.geometry import check_rotation, orthonormality_error

angles = st.floats(-math.pi, math.pi)
pitches = st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)


class TestEuler:
    def test_matrix_matches_reference_product(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            psi, theta, phi = rng.uniform(-math.pi, math.pi, 3)
            got = rot_from_euler_zyx(EulerZyx(psi, theta, phi))
            want = oracles.rot_intrinsic_zyx(psi, theta, phi)
            assert np.max(np.abs(got - want)) < 1e-14

    @given(angles, pitches, angles)
    def test_round_trip(self, psi, theta, phi):
        e = EulerZyx(psi, theta, phi)
        back = euler_zyx_from_rot(rot_from_euler_zyx(e))
        assert math.isclose(back.psi, psi, abs_tol=1e-9)
        assert math.isclose(back.theta, theta, abs_tol=1e-9)
        assert math.isclose(back.phi, phi, abs_tol=1e-9)

    @given(angles, st.floats(-math.pi, math.pi), angles)
    def test_recovered_angles_recompose(self, psi, theta, phi):
        # outside the principal pitch range the angles differ
        # but must encode the same rotation
        r = oracles.rot_intrinsic_zyx(psi, theta, phi)
        e = euler_zyx_from_rot(r)
        assert np.max(np.abs(rot_from_euler_zyx(e) - r)) < 1e-9

    def test_pitch_comes_back_in_principal_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = oracles.rand_rotation(rng)
            e = euler_zyx_from_rot(r)
            assert -math.pi / 2 <= e.theta <= math.pi / 2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gimbal_lock_sets_roll_to_zero(self, sign):
        r = oracles.rot_intrinsic_zyx(0.4, sign * math.pi / 2, 0.9)
        e = euler_zyx_from_rot(r)
        assert e.phi == 0.0
        assert np.max(np.abs(rot_from_euler_zyx(e) - r)) < 1e-9

    def test_fixed_xyz_equals_swapped_intrinsic(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            rx, ry, rz = rng.uniform(-math.pi, math.pi, 3)
            got = rot_from_fixed_xyz(rx, ry, rz)
            assert np.max(np.abs(got - oracles.rot_extrinsic_xyz(rx, ry, rz))) < 1e-12

    def test_robot_angles_invert_fixed_xyz(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            r = oracles.rand_rotation(rng)
            rx, ry, rz = robot_angles_fixed_xyz(r)
            assert np.max(np.abs(oracles.rot_extrinsic_xyz(rx, ry, rz) - r)) < 1e-9

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            EulerZyx(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            EulerZyx(0.0, math.inf, 0.0)


class TestWrap:
    @given(st.floats(-1e6, 1e6))
    def test_wrap_lands_in_half_open_interval(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same angle up to a full turn
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-6)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-6)

    def test_boundary_convention(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(0.0) == 0.0

    def test_array_input(self):
        w = wrap_angle(np.array([0.0, 3 * math.pi, -3 * math.pi]))
        assert np.allclose(w, [0.0, math.pi, math.pi])


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
        with pytest.raises(ValueError):
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


class TestTransform4:
    def test_apply_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            r = oracles.rand_rotation(rng)
            t = rng.uniform(-500, 500, 3)
            p = rng.uniform(-500, 500, 3)
            tf = Transform4(r, t)
            want = oracles.apply_hom(oracles.hom(r, t), p)
            assert np.max(np.abs(tf.apply(p) - want)) < 1e-9

    def test_apply_batch(self):
        tf = Transform4(oracles.rot_z(0.3), [1.0, 2.0, 3.0])
        pts = np.arange(12.0).reshape(4, 3)
        got = tf.apply(pts)
        for i in range(4):
            assert np.allclose(got[i], tf.apply(pts[i]))

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(19)
        tf = Transform4(oracles.rand_rotation(rng), [4.0, -5.0, 6.0], Frame.R, Frame.F)
        back = Transform4.from_matrix(tf.as_matrix(), Frame.R, Frame.F)
        assert np.array_equal(back.rotation, tf.rotation)
        assert np.array_equal(back.translation, tf.translation)
        assert tf.as_matrix()[3].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_from_matrix_rejects_bad_bottom_row(self):
        m = np.eye(4)
        m[3, 0] = 1e-9
        with pytest.raises(ValueError):
            Transform4.from_matrix(m)

    def test_rejects_invalid_rotation(self):
        with pytest.raises(ValueError):
            Transform4(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            Transform4(np.eye(3), [1.0, math.nan, 0.0])

    def test_arrays_are_read_only(self):
        tf = Transform4.identity()
        with pytest.raises(ValueError):
            tf.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            tf.translation[0] = 2.0

    def test_identity(self):
        tf = Transform4.identity(Frame.R, Frame.F)
        assert np.array_equal(tf.as_matrix(), np.eye(4))
        assert (tf.parent, tf.child) == (Frame.R, Frame.F)


class TestComposeInvert:
    def test_compose_matches_matmul(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3))
            b = Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3))
            want = oracles.hom(a.rotation, a.translation) @ oracles.hom(b.rotation, b.translation)
            assert np.max(np.abs(compose(a, b).as_matrix() - want)) < 1e-9

    def test_compose_propagates_consistent_tags(self):
        a = Transform4.identity(Frame.R, Frame.F)
        b = Transform4.identity(Frame.F, Frame.S)
        c = compose(a, b)
        assert (c.parent, c.child) == (Frame.R, Frame.S)

    def test_compose_drops_inconsistent_tags(self):
        a = Transform4.identity(Frame.R, Frame.F)
        b = Transform4.identity(Frame.S, Frame.E)
        c = compose(a, b)
        assert (c.parent, c.child) == (None, None)

    def test_invert_gives_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            t = Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3))
            ident = compose(t, invert(t)).as_matrix()
            assert np.max(np.abs(ident - np.eye(4))) < 1e-12

    def test_invert_swaps_tags(self):
        t = Transform4.identity(Frame.F, Frame.S)
        assert (invert(t).parent, invert(t).child) == (Frame.S, Frame.F)


class TestCalibrationChain:
    def _calib(self, rng):
        return CalibrationSet(
            Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3), Frame.R, Frame.F),
            Transform4(oracles.rand_rotation(rng), rng.uniform(-100, 100, 3), Frame.F, Frame.S),
        )

    def test_requires_correct_tags(self):
        ok = Transform4.identity(Frame.R, Frame.F)
        bad = Transform4.identity(Frame.F, Frame.R)
        with pytest.raises(FrameMismatchError):
            CalibrationSet(bad, Transform4.identity(Frame.F, Frame.S))
        with pytest.raises(FrameMismatchError):
            CalibrationSet(ok, Transform4.identity(Frame.S, Frame.F))

    def test_chain_matches_matrix_product(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            calib = self._calib(rng)
            t_s_e = Transform4(
                oracles.rand_rotation(rng), rng.uniform(-100, 100, 3), Frame.S, Frame.E
            )
            got = chain_to_robot(calib, t_s_e)
            want = (
                oracles.hom(calib.t_r_f.rotation, calib.t_r_f.translation)
                @ oracles.hom(calib.t_f_s.rotation, calib.t_f_s.translation)
                @ oracles.hom(t_s_e.rotation, t_s_e.translation)
            )
            assert np.max(np.abs(got.as_matrix() - want)) < 1e-9
            assert (got.parent, got.child) == (Frame.R, Frame.E)

    def test_chain_rejects_untagged_pose(self):
        rng = np.random.default_rng(37)
        calib = self._calib(rng)
        with pytest.raises(FrameMismatchError):
            chain_to_robot(calib, Transform4.identity())
        with pytest.raises(FrameMismatchError):
            chain_to_robot(calib, Transform4.identity(Frame.E, Frame.S))
