"""The batched orientation-interpolation kernel against textbook oracles."""

import bisect
import math

import numpy as np
import pytest

import oracles
from pathfuse._quat import from_euler_zyx, from_rotvec, interpolate_zyx, make_continuous, mul, to_rotvec
from pathfuse.geometry import euler_zyx_from_rots

HALF_PI = math.pi / 2.0


def _oracle_rot(params, angles, u):
    """Rotation at ``u``: the last sample at or below it (clamped to a segment), slerped."""
    j = min(max(bisect.bisect_right(list(params), u) - 1, 0), len(params) - 2)
    lo, hi = params[j], params[j + 1]
    frac = 1.0 if hi <= lo else min(max((u - lo) / (hi - lo), 0.0), 1.0)
    qa = oracles.quat_intrinsic_zyx(*angles[j])
    qb = oracles.quat_intrinsic_zyx(*angles[j + 1])
    return oracles.quat_to_rot(oracles.slerp(qa, qb, frac))


def _worst_error(params, angles, u):
    got = interpolate_zyx(params, angles, u)
    assert got.shape == (len(u), 3)
    return max(
        oracles.rotation_distance(oracles.rot_intrinsic_zyx(*g), _oracle_rot(params, angles, ui))
        for g, ui in zip(got, u)
    )


def _queries(params, extra=()):
    """Queries at 0, 1, every sample parameter, between them and outside [0, 1]."""
    inner = np.linspace(0.0, 1.0, 41)
    return np.concatenate([[0.0, 1.0, -0.25, 1.25], params, inner, extra])


class TestInterpolateZyx:
    def test_random_chain(self):
        rng = np.random.default_rng(3)
        n = 25
        params = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
        angles = np.column_stack(
            [
                rng.uniform(-math.pi, math.pi, n),
                rng.uniform(-1.4, 1.4, n),
                rng.uniform(-math.pi, math.pi, n),
            ]
        )
        assert _worst_error(params, angles, _queries(params, rng.uniform(0, 1, 200))) < 1e-12

    def test_antipodal_pairs(self):
        # yaw +pi and -pi are one rotation with opposite quaternions
        params = np.array([0.0, 0.5, 1.0])
        angles = np.array([[math.pi, 0.3, 0.0], [-math.pi, 0.3, 0.0], [math.pi, 0.3, 0.0]])
        qs = from_euler_zyx(angles)
        assert qs[0] @ qs[1] < -0.999
        u = _queries(params)
        assert _worst_error(params, angles, u) < 1e-12
        # no spin through 360 degrees in between: every query is the one rotation
        rots = [oracles.rot_intrinsic_zyx(*a) for a in interpolate_zyx(params, angles, u)]
        want = oracles.rot_intrinsic_zyx(*angles[0])
        assert max(oracles.rotation_distance(r, want) for r in rots) < 1e-12

    def test_half_turn_apart(self):
        params = np.array([0.0, 1.0])
        angles = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.pi - 1e-9]])
        assert _worst_error(params, angles, _queries(params)) < 1e-12

    def test_near_parallel_pairs(self):
        params = np.array([0.0, 0.3, 1.0])
        base = np.array([0.4, -0.2, 1.1])
        angles = np.array([base, base + 1e-9, base - 2e-9])
        qs = make_continuous(from_euler_zyx(angles))
        assert qs[0] @ qs[1] > 1.0 - 1e-12  # the linear-blend case
        assert _worst_error(params, angles, _queries(params)) < 1e-12

    def test_repeated_params(self):
        params = np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.6, 1.0, 1.0])
        rng = np.random.default_rng(5)
        angles = rng.uniform(-1.2, 1.2, (len(params), 3))
        assert _worst_error(params, angles, _queries(params)) < 1e-12

    def test_exact_sample_params_return_samples(self):
        params = np.array([0.0, 0.2, 0.7, 1.0])
        angles = np.array([[0.1, 0.2, 0.3], [-0.5, 0.4, 2.0], [3.0, -1.0, -2.5], [0.0, 0.0, 0.0]])
        got = interpolate_zyx(params, angles, params)
        assert np.max(np.abs(got - angles)) < 1e-12

    def test_gimbal_lock(self):
        params = np.array([0.0, 0.4, 0.5, 1.0])
        angles = np.array(
            [[0.3, HALF_PI, 0.0], [1.2, HALF_PI, -0.7], [-0.4, -HALF_PI, 0.5], [2.0, -HALF_PI, 1.0]]
        )
        # the segment between the two locks crosses theta = 0 and stays far from them
        u = _queries(params, [0.1, 0.2, 0.3, 0.8, 0.9])
        assert _worst_error(params, angles, u) < 1e-12
        got = interpolate_zyx(params, angles, np.array([0.0, 0.2, 0.9]))
        assert np.array_equal(got[:, 2], [0.0, 0.0, 0.0])  # roll folded into yaw
        assert np.allclose(np.abs(got[:, 1]), HALF_PI)


class TestAlgebra:
    def test_from_euler_matches_product_of_axis_quaternions(self):
        rng = np.random.default_rng(14)
        angles = rng.uniform(-7.0, 7.0, (200, 3))
        want = np.array([oracles.quat_intrinsic_zyx(*a) for a in angles])
        assert np.max(np.abs(from_euler_zyx(angles) - want)) < 1e-15

    def test_mul_matches_hamilton_product(self):
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=4), rng.normal(size=(50, 4))
        want = np.array([oracles.quat_mul(a, bi) for bi in b])
        assert np.max(np.abs(mul(a, b) - want)) < 1e-14

    def test_rotation_vectors_round_trip(self):
        rng = np.random.default_rng(16)
        r = rng.normal(size=(200, 3))
        r *= (rng.uniform(0.0, 3.1, 200) / np.linalg.norm(r, axis=1))[:, None]  # angles below pi
        r[0] = 0.0
        q = from_rotvec(r)
        assert np.max(np.abs(np.linalg.norm(q, axis=1) - 1.0)) < 1e-15
        assert np.max(np.abs(to_rotvec(q) - r)) < 1e-14
        want = oracles.quat_intrinsic_zyx(0.7, 0.0, 0.0)  # 0.7 rad about z
        assert np.max(np.abs(from_rotvec(np.array([[0.0, 0.0, 0.7]]))[0] - want)) < 1e-15


class TestMakeContinuous:
    def test_matches_sequential_walk_bitwise(self):
        rng = np.random.default_rng(11)
        qs = rng.normal(size=(400, 4))
        qs /= np.linalg.norm(qs, axis=1, keepdims=True)
        qs[rng.random(400) < 0.5] *= -1.0
        assert np.array_equal(make_continuous(qs), oracles.make_continuous(qs))

    def test_zero_dot_restarts_the_chain(self):
        # flip, then a quarter-turn quaternion with a zero dot, then flips again
        qs = np.array(
            [[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, -1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 1.0, 0]]
        )
        got = make_continuous(qs)
        assert np.array_equal(got, oracles.make_continuous(qs))
        assert np.array_equal(got[:, :2].sum(axis=1), [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])

    def test_pairs_of_angles_sequence(self):
        rng = np.random.default_rng(12)
        angles = np.cumsum(rng.normal(0.0, 1.5, (300, 3)), axis=0)
        qs = from_euler_zyx(angles)
        assert np.array_equal(make_continuous(qs), oracles.make_continuous(qs))


class TestBatchedExtraction:
    def test_one_bad_matrix_rejects_the_stack(self):
        rng = np.random.default_rng(13)
        stack = np.array([oracles.rand_rotation(rng) for _ in range(20)])
        euler_zyx_from_rots(stack)
        for bad in (stack[7] * 1.001, stack[7] @ np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)):
            broken = stack.copy()
            broken[7] = bad
            with pytest.raises(ValueError):
                euler_zyx_from_rots(broken)

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            euler_zyx_from_rots(np.eye(3))
        with pytest.raises(ValueError):
            euler_zyx_from_rots(np.zeros((2, 4, 4)))
