import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import long_capture, noise_study, traced_peak
from pathfuse import (
    CadPath,
    CalibrationSet,
    Frame,
    FrameMismatchError,
    FusedPath,
    ParseError,
    PoseSeries,
    TrackerErrorModel,
    Transform4,
    filter_outliers,
    fuse,
    fused_path_from_json,
    fused_path_to_json,
    resample_cad,
    synth_demo,
    to_robot_frame,
)
from pathfuse import _quat, fusion
from pathfuse.fusion import SMOOTH_WINDOW_S, _fit_rotations, _line_fit, _windows

SQUARE = np.array([[0.0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]])


def ramp_demo(n=50, length=400.0, az_end=1.2):
    """Straight-line sweep with orientation linear in arc length."""
    t = np.linspace(0.0, 4.0, n)
    pos = np.column_stack([np.linspace(0, length, n), np.zeros(n), np.zeros(n)])
    az = np.linspace(0.0, az_end, n)
    return PoseSeries(t, pos, np.column_stack([az, np.zeros(n), np.zeros(n)]))


class TestFuse:
    def test_positions_are_cad_bitwise_open(self):
        cad = CadPath(np.array([[0, 0, 0], [150.0, 0, 0], [150.0, 80.0, 0]]))
        fused = fuse(cad, ramp_demo())
        assert fused.positions.tobytes() == cad.waypoints.tobytes()
        assert not fused.closed
        assert fused.frame is Frame.S

    def test_long_capture_holds_three_window_sum_arrays_at_most(self):
        # tracemalloc peaks in (6, n) float arrays of a 28,011-sample capture,
        # measured with Python 3.11 and numpy 2.4: 4.5 with the line fit's
        # gathers written into one array, 4.8 with a fresh array per step
        demo, waypoints = long_capture()
        cad = CadPath(waypoints)
        fuse(cad, demo)
        peak, _ = traced_peak(lambda: fuse(cad, demo))
        assert peak < 5.0 * demo.positions.nbytes * 2

    def test_dense_cad_fits_orientations_after_the_position_fit_is_freed(self):
        # 4.5 (6, n) arrays under 1,169 CAD points, the position fit's own peak;
        # 5.6 with the position fit's working array alive through the orientation fit
        demo, waypoints = long_capture()
        cad = resample_cad(CadPath(waypoints), 2.0)
        fuse(cad, demo)
        peak, _ = traced_peak(lambda: fuse(cad, demo))
        assert peak < 5.0 * demo.positions.nbytes * 2

    def test_closed_path_appends_closing_point(self):
        cad = CadPath(SQUARE, closed=True)
        fused = fuse(cad, ramp_demo())
        assert len(fused) == 5
        assert np.array_equal(fused.positions[:4], SQUARE)
        assert np.array_equal(fused.positions[4], SQUARE[0])
        assert fused.closed

    def test_orientation_follows_arc_ramp(self):
        # demo rotates about z linearly along its arc; cad points at known
        # arc fractions must pick up the matching angles
        cad = CadPath(np.array([[0, 0, 0], [25.0, 0, 0], [100.0, 0, 0]]))
        fused = fuse(cad, ramp_demo(az_end=1.2))
        want = np.array([0.0, 0.25 * 1.2, 1.2])
        assert np.max(np.abs(fused.orientations[:, 2] - want)) < 1e-9

    def test_orientation_blend_linear_case(self):
        # rotation purely about z, angle linear in arc length: every CAD point,
        # between samples or at the ends, must sit on the same angular ramp
        n = 11
        t = np.linspace(0.0, 1.0, n)
        pos = np.column_stack([100.0 * t, np.zeros(n), np.zeros(n)])
        az = np.linspace(0.0, 1.2, n)
        demo = PoseSeries(t, pos, np.column_stack([az, np.zeros(n), np.zeros(n)]))
        cad = CadPath(np.column_stack([np.linspace(0.0, 100.0, 5), np.zeros(5), np.zeros(5)]))
        fused = fuse(cad, demo)
        assert np.max(np.abs(fused.orientations[:, 2] - np.linspace(0.0, 1.2, 5))) < 1e-9

    def test_speed_interpolated_from_demo(self):
        n = 41
        t = np.linspace(0.0, 2.0, n)
        pos = np.column_stack([100.0 * t, np.zeros(n), np.zeros(n)])  # 100 mm/s
        demo = PoseSeries(t, pos, np.zeros((n, 3)))
        cad = CadPath(np.array([[0, 0, 0], [50.0, 0, 0], [200.0, 0, 0]]))
        fused = fuse(cad, demo)
        assert np.max(np.abs(fused.speeds - 100.0)) < 1e-6

    def test_stationary_demo_falls_back_to_time(self):
        n = 20
        demo = PoseSeries(np.linspace(0, 1, n), np.zeros((n, 3)), np.zeros((n, 3)))
        cad = CadPath(np.array([[0, 0, 0], [10.0, 0, 0]]))
        fused = fuse(cad, demo)
        assert fused.time_parameterized

    def test_fused_path_validation(self):
        with pytest.raises(Exception):
            FusedPath(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(1), Frame.S)
        with pytest.raises(ValueError):
            FusedPath(np.zeros((3, 3)), np.zeros((3, 3)), np.array([1.0, -1.0, 1.0]), Frame.S)
        with pytest.raises(Exception):
            FusedPath(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3), "S")


class TestLineFit:
    """The prefix-sum line fit against np.polyfit over each sample's window."""

    @pytest.mark.parametrize(
        "t",
        [
            np.arange(400) / 100.0,  # uniform, 100 Hz
            50.0 + np.cumsum(np.random.default_rng(1).uniform(0.002, 0.008, 400)),  # jittered
            np.array([0.0, 2.0]),  # 2 samples, each alone in its window
            np.arange(12) / 100.0,  # shorter than the window
            np.array([0.0, 0.01, 0.5, 0.51, 2.0, 2.01, 2.02]),  # windows of 1 to 3 samples
        ],
    )
    def test_matches_per_window_polyfit(self, t):
        # the sums are centred prefix sums, not per-window ones, so the fit
        # agrees to rounding: 1e-9 of the data's range, and of range / window
        # for the slope
        x = np.cumsum(np.random.default_rng(len(t)).normal(0.0, 10.0, (len(t), 4)), axis=0)
        value, slope = _line_fit(t, x, *_windows(t, SMOOTH_WINDOW_S))
        want_value, want_slope = oracles.line_fit(t, x, SMOOTH_WINDOW_S)
        scale = np.ptp(x, axis=0)
        assert np.all(np.abs(value - want_value) <= 1e-9 * scale)
        assert np.all(np.abs(slope - want_slope) <= 1e-9 * scale / SMOOTH_WINDOW_S)

    @pytest.mark.parametrize("n", [5000, 12, 2])
    def test_in_place_arithmetic_is_the_expression_form_bit_for_bit(self, n):
        # the polyfit comparison above allows rounding; this one catches a sum taken in another order
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.002, 0.006, n))
        x = np.cumsum(rng.normal(0.0, 10.0, (n, 3)), axis=0)
        lo, hi = _windows(t, SMOOTH_WINDOW_S)
        at = np.unique(rng.integers(0, n, max(2, n // 7)))
        for args in [(lo, hi), (lo[at], hi[at], at)]:
            got, want = _line_fit(t, x, *args), oracles.line_fit_by_prefix_sums(t, x, *args)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_end_windows_move_without_shrinking(self):
        t = np.arange(100) / 100.0
        lo, hi = _windows(t, 0.25)
        assert np.all(hi - lo >= 25)
        assert lo[0] == lo[12] == 0 and hi[-1] == hi[-13] == 100


def weave_capture(closed=False, seconds=8.0, rate=240.0, seed=0):
    """A noisy capture along a line, or once around a circle, whose tool turns and weaves."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    s = t / t[-1]
    if closed:
        pos = np.column_stack([100.0 * np.cos(2 * np.pi * s), 100.0 * np.sin(2 * np.pi * s), np.zeros_like(s)])
    else:
        pos = np.column_stack([400.0 * s, np.zeros_like(s), np.zeros_like(s)])
    yaw = 2 * np.pi * s if closed else 0.8 * s
    turns = np.column_stack([yaw, 0.3 * np.sin(3 * np.pi * t), 0.2 + 0.1 * np.cos(1.4 * np.pi * t)])
    return PoseSeries(t, pos + rng.normal(0.0, 0.5, pos.shape), turns + rng.normal(0.0, 0.01, turns.shape))


def sparse_cad(closed):
    if closed:
        a = np.arange(8) * np.pi / 4
        return CadPath(np.column_stack([100.0 * np.cos(a), 100.0 * np.sin(a), np.zeros(8)]), closed=True)
    return CadPath(np.column_stack([np.linspace(0.0, 400.0, 6), np.zeros(6), np.zeros(6)]))


def fit_call(monkeypatch, cad, demo):
    """The arguments and the result of fuse's one ``_fit_rotations`` call."""
    calls = []

    def spy(*args):
        calls.append((args, _fit_rotations(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fusion, "_fit_rotations", spy)
    fuse(cad, demo)
    (call,) = calls
    return call


def read_samples(lo, hi, at):
    """The samples inside the windows of ``at``."""
    return set().union(*(range(lo[i], hi[i]) for i in at))


def geodesic(qa, qb):
    return np.array([oracles.rotation_distance(oracles.quat_to_rot(a), oracles.quat_to_rot(b)) for a, b in zip(qa, qb)])


def full_series_fit(t, angles_zyx, lo, hi, at):
    """``_fit_rotations``' arithmetic with every sample of the capture converted and summed."""
    q = _quat.make_continuous(_quat.from_euler_zyx(angles_zyx))
    fit = _line_fit(t, q, lo[at], hi[at], at)[0]
    fit /= np.linalg.norm(fit, axis=1, keepdims=True)
    for a, b in {(lo[0], hi[0]), (lo[-1], hi[-1])}:
        end = (lo[at] == a) & (hi[at] == b)
        mid = q[(a + b - 1) // 2]
        rel = _quat.to_rotvec(_quat.mul(mid * [1.0, -1.0, -1.0, -1.0], q[a:b]))
        vec = _line_fit(t[a:b], rel, lo[at][end] - a, hi[at][end] - a, at[end] - a)[0]
        fit[end] = _quat.mul(mid, _quat.from_rotvec(vec))
    return fit


class TestFitOnReadSamples:
    """The orientation fit converts and sums only the samples inside the windows it reads."""

    @pytest.mark.parametrize("closed", [False, True])
    def test_sparse_cad_matches_the_window_by_window_oracle(self, monkeypatch, closed):
        (t, angles, lo, hi, at), got = fit_call(monkeypatch, sparse_cad(closed), weave_capture(closed))
        assert len(read_samples(lo, hi, at)) < len(t) / 2
        assert np.max(geodesic(got, oracles.fitted_rotations(t, angles, lo, hi, at))) < 1e-12

    @pytest.mark.parametrize("ends", ["first", "last", "both"])
    def test_samples_of_the_moved_end_windows(self, ends):
        demo = weave_capture(seed=3)
        t, n = demo.t, len(demo.t)
        lo, hi = _windows(t, SMOOTH_WINDOW_S)
        at = np.array({"first": [3, 4], "last": [n - 5, n - 4], "both": [3, 4, n - 5, n - 4]}[ends])
        assert {(lo[i], hi[i]) for i in at} <= {(lo[0], hi[0]), (lo[-1], hi[-1])}
        got = _fit_rotations(t, demo.orientations, lo, hi, at)
        assert np.max(geodesic(got, oracles.fitted_rotations(t, demo.orientations, lo, hi, at))) < 1e-12

    def test_every_sample_read_is_the_full_series_fit_bit_for_bit(self, monkeypatch):
        demo = weave_capture(seconds=2.0, rate=100.0, seed=5)
        cad = CadPath(np.column_stack([np.linspace(0.0, 400.0, 60), np.zeros(60), np.zeros(60)]))
        (t, angles, lo, hi, at), got = fit_call(monkeypatch, cad, demo)
        assert read_samples(lo, hi, at) == set(range(len(t)))
        assert got.tobytes() == full_series_fit(t, angles, lo, hi, at).tobytes()

    def test_every_sample_read_holds_no_gathered_copy(self, monkeypatch):
        # tracemalloc peaks in (n, 3) angle arrays of the 28,011-sample capture under
        # 1,169 CAD points, measured with Python 3.11 and numpy 2.4: 5.6 reading the
        # capture's own arrays, 7.5 gathering them through an index of every sample
        demo, waypoints = long_capture()
        (t, angles, lo, hi, at), _ = fit_call(monkeypatch, resample_cad(CadPath(waypoints), 2.0), demo)
        assert read_samples(lo, hi, at) == set(range(len(t)))
        peak, _ = traced_peak(lambda: _fit_rotations(t, angles, lo, hi, at))
        assert peak < 6.5 * angles.nbytes

    def test_converts_no_sample_outside_the_read_windows(self, monkeypatch):
        sizes, convert = [], _quat.from_euler_zyx
        monkeypatch.setattr(_quat, "from_euler_zyx", lambda angles: sizes.append(len(angles)) or convert(angles))
        (t, _, lo, hi, at), _ = fit_call(monkeypatch, sparse_cad(False), weave_capture(seed=1))
        assert sizes and max(sizes) <= len(read_samples(lo, hi, at)) < len(t)


def make_calib(seed=0):
    rng = np.random.default_rng(seed)
    t_r_f = Transform4(oracles.rand_rotation(rng), rng.uniform(-500, 500, 3), Frame.R, Frame.F)
    t_f_s = Transform4(oracles.rand_rotation(rng), rng.uniform(-500, 500, 3), Frame.F, Frame.S)
    return CalibrationSet(t_r_f, t_f_s)


class TestRobotFrame:
    def test_matches_homogeneous_oracle(self):
        cad = CadPath(SQUARE)
        fused = fuse(cad, ramp_demo())
        calib = make_calib(3)
        robot = to_robot_frame(fused, calib)
        assert robot.frame is Frame.R
        m_chain = oracles.hom(calib.t_r_f.rotation, calib.t_r_f.translation) @ oracles.hom(
            calib.t_f_s.rotation, calib.t_f_s.translation
        )
        for i in range(len(fused)):
            rx, ry, rz = fused.orientations[i]
            r_s_e = oracles.rot_extrinsic_xyz(rx, ry, rz)
            m = m_chain @ oracles.hom(r_s_e, fused.positions[i])
            assert np.max(np.abs(robot.positions[i] - m[:3, 3])) < 1e-9
            got = oracles.rot_extrinsic_xyz(*robot.orientations[i])
            assert np.max(np.abs(got - m[:3, :3])) < 1e-9

    def test_identity_calibration_is_noop(self):
        fused = fuse(CadPath(SQUARE), ramp_demo())
        calib = CalibrationSet(
            Transform4(np.eye(3), np.zeros(3), Frame.R, Frame.F),
            Transform4(np.eye(3), np.zeros(3), Frame.F, Frame.S),
        )
        robot = to_robot_frame(fused, calib)
        assert np.max(np.abs(robot.positions - fused.positions)) < 1e-12
        assert np.max(np.abs(robot.orientations - fused.orientations)) < 1e-12
        assert np.array_equal(robot.speeds, fused.speeds)
        assert robot.closed == fused.closed

    def test_rejects_wrong_frame(self):
        fused = fuse(CadPath(SQUARE), ramp_demo())
        calib = make_calib()
        robot = to_robot_frame(fused, calib)
        with pytest.raises(FrameMismatchError):
            to_robot_frame(robot, calib)

    def test_calibration_tags_enforced(self):
        r = np.eye(3)
        good_rf = Transform4(r, np.zeros(3), Frame.R, Frame.F)
        good_fs = Transform4(r, np.zeros(3), Frame.F, Frame.S)
        with pytest.raises(FrameMismatchError):
            CalibrationSet(good_fs, good_fs)
        with pytest.raises(FrameMismatchError):
            CalibrationSet(good_rf, Transform4(r, np.zeros(3)))


class TestJson:
    def _fused(self):
        return fuse(CadPath(SQUARE, closed=True), ramp_demo())

    def test_round_trip(self):
        path = self._fused()
        back = fused_path_from_json(fused_path_to_json(path))
        assert back.frame is path.frame
        assert back.closed == path.closed
        assert np.max(np.abs(back.positions - path.positions)) < 1e-12
        assert np.max(np.abs(back.orientations - path.orientations)) < 1e-12
        assert np.max(np.abs(back.speeds - path.speeds)) < 1e-12

    def test_robot_frame_round_trip(self):
        path = to_robot_frame(fuse(CadPath(SQUARE), ramp_demo()), make_calib(5))
        back = fused_path_from_json(fused_path_to_json(path).encode())
        assert back.frame is Frame.R
        assert np.max(np.abs(back.positions - path.positions)) < 1e-12

    def test_json_shape(self):
        doc = json.loads(fused_path_to_json(self._fused()))
        assert doc["frame"] == "S"
        assert doc["closed"] is True
        pt = doc["points"][0]
        assert set(pt) == {"x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg", "v_mm_s"}

    @pytest.mark.parametrize("closed", [False, True])
    def test_matches_dict_writer(self, closed):
        edge = [-0.0, 5e-7, -5e-7, 5e-4, -5e-4, 1e15, 0.1, 1e-300]
        positions = np.array([edge[:3], edge[3:6], edge[5:8]])
        orientations = np.radians([edge[5:8], edge[:3], [-180.0, 90.0, 359.9]])
        speeds = np.array([0.0, 5e-7, 1e15])
        for frame in (Frame.S, Frame.R):
            path = FusedPath(positions, orientations, speeds, frame, closed=closed)
            want = oracles.fused_path_json(positions, orientations, speeds, frame.value, closed)
            assert fused_path_to_json(path) == want

    def test_columns_equal_but_for_a_zero_sign_are_written_apart(self):
        # x and z are the same column bit for bit; y and the speeds differ from them only in sign
        zeros = np.zeros(4)
        positions = np.column_stack([-zeros, zeros, -zeros])
        orientations = np.column_stack([zeros, -zeros, zeros])
        path = FusedPath(positions, orientations, zeros, Frame.R)
        want = oracles.fused_path_json(positions, orientations, zeros, "R", False)
        assert fused_path_to_json(path) == want and '"y_mm": 0.0' in want and '"x_mm": -0.0' in want

    @settings(deadline=None, max_examples=60)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 12), st.just(7)), elements=st.floats(-1e16, 1e16)))
    def test_matches_dict_writer_hypothesis(self, rows):
        positions, orientations, speeds = rows[:, :3], rows[:, 3:6] / 1e13, np.abs(rows[:, 6])
        path = FusedPath(positions, orientations, speeds, Frame.R)
        assert fused_path_to_json(path) == oracles.fused_path_json(positions, orientations, speeds, "R", False)

    def test_angles_stored_in_degrees(self):
        path = FusedPath(
            np.array([[0.0, 0, 0], [1.0, 0, 0]]),
            np.array([[0.0, 0, math.pi / 2], [0.0, 0, math.pi / 2]]),
            np.array([10.0, 10.0]),
            Frame.S,
        )
        doc = json.loads(fused_path_to_json(path))
        assert math.isclose(doc["points"][0]["rz_deg"], 90.0)

    def test_parse_errors(self):
        good = json.loads(fused_path_to_json(self._fused()))
        bad_docs = []
        d = dict(good)
        d["frame"] = "Q"
        bad_docs.append(d)
        d = dict(good)
        del d["points"]
        bad_docs.append(d)
        d = dict(good)
        d["points"] = good["points"][:1]
        bad_docs.append(d)
        d = dict(good)
        d["points"] = [dict(p) for p in good["points"]]
        del d["points"][0]["x_mm"]
        bad_docs.append(d)
        d = dict(good)
        d["points"] = [dict(p) for p in good["points"]]
        d["points"][1]["y_mm"] = "wide"
        bad_docs.append(d)
        d = dict(good)
        d["closed"] = "yes"
        bad_docs.append(d)
        for doc in bad_docs:
            with pytest.raises(ParseError):
                fused_path_from_json(json.dumps(doc))
        with pytest.raises(ParseError):
            fused_path_from_json("{not json")
        with pytest.raises(ParseError):
            fused_path_from_json("[1,2]")

    @pytest.mark.parametrize("boms", [1, 2])
    def test_str_and_bytes_strip_the_same_boms(self, boms):
        # one BOM is stripped from either input type; a second is not JSON
        plain = fused_path_to_json(self._fused())
        text = "\ufeff" * boms + plain
        for data in (text, text.encode()):
            if boms == 1:
                back = fused_path_from_json(data)
                assert fused_path_to_json(back) == fused_path_to_json(fused_path_from_json(plain))
            else:
                with pytest.raises(ParseError, match="bad JSON"):
                    fused_path_from_json(data)

    def test_json_strings_and_bools_are_not_numbers(self):
        good = json.loads(fused_path_to_json(self._fused()))
        for value in ("1.5", " 2 ", True, None, [1.0]):
            d = dict(good, points=[dict(p) for p in good["points"]])
            d["points"][2]["v_mm_s"] = value
            with pytest.raises(ParseError, match="point 2: expected 7 finite JSON numbers"):
                fused_path_from_json(json.dumps(d))

    def test_negative_speed_rejected(self):
        doc = json.loads(fused_path_to_json(self._fused()))
        doc["points"][0]["v_mm_s"] = -5.0
        with pytest.raises(ValueError):
            fused_path_from_json(json.dumps(doc))


# scripts/noise_study.py's grid at 2 seeds, 100 Hz: (truth, xy sigma mm,
# orientation sigma deg, spike rate) -> (mean and max fused orientation error
# in degrees, max speed error in mm/s), each the measured value rounded up at
# the third decimal; the noise-free line cell keeps 0.001, not the 0 it
# measures, so that a last-bit difference between numpy builds cannot fail it.
# The speed error without xy noise is the 60 mm z bias: it tilts the line's
# track by 0.075 mm/mm, which reads as 100.281 mm/s.  These bounds may be
# tightened as fusion improves; they must never be loosened.
NOISE_BOUNDS_DEG = {
    ("line", 0.0, 0.0, 0.0): (0.001, 0.001, 0.281),
    ("line", 0.0, 0.0, 0.02): (0.009, 0.009, 0.591),
    ("line", 0.0, 0.5, 0.0): (0.323, 0.392, 0.281),
    ("line", 0.0, 0.5, 0.02): (0.326, 0.390, 0.591),
    ("line", 0.0, 1.0, 0.0): (0.692, 0.784, 0.281),
    ("line", 0.0, 1.0, 0.02): (0.691, 0.782, 0.591),
    ("line", 0.0, 2.0, 0.0): (1.384, 1.569, 0.281),
    ("line", 0.0, 2.0, 0.02): (1.384, 1.567, 0.591),
    ("line", 1.0, 0.0, 0.0): (0.114, 0.120, 5.048),
    ("line", 1.0, 0.0, 0.02): (0.109, 0.111, 4.987),
    ("line", 1.0, 0.5, 0.0): (0.361, 0.379, 5.048),
    ("line", 1.0, 0.5, 0.02): (0.361, 0.380, 4.987),
    ("line", 1.0, 1.0, 0.0): (0.732, 0.768, 5.048),
    ("line", 1.0, 1.0, 0.02): (0.733, 0.769, 4.987),
    ("line", 1.0, 2.0, 0.0): (1.430, 1.554, 5.048),
    ("line", 1.0, 2.0, 0.02): (1.430, 1.556, 4.987),
    ("line", 2.0, 0.0, 0.0): (0.227, 0.261, 10.537),
    ("line", 2.0, 0.0, 0.02): (0.212, 0.231, 10.460),
    ("line", 2.0, 0.5, 0.0): (0.404, 0.421, 10.537),
    ("line", 2.0, 0.5, 0.02): (0.400, 0.419, 10.460),
    ("line", 2.0, 1.0, 0.0): (0.767, 0.778, 10.537),
    ("line", 2.0, 1.0, 0.02): (0.768, 0.776, 10.460),
    ("line", 2.0, 2.0, 0.0): (1.466, 1.541, 10.537),
    ("line", 2.0, 2.0, 0.02): (1.467, 1.545, 10.460),
    ("circle", 0.0, 0.0, 0.0): (0.002, 0.002, 0.096),
    ("circle", 0.0, 0.0, 0.02): (0.012, 0.016, 0.749),
    ("circle", 0.0, 0.5, 0.0): (0.450, 0.520, 0.096),
    ("circle", 0.0, 0.5, 0.02): (0.450, 0.520, 0.749),
    ("circle", 0.0, 1.0, 0.0): (0.892, 1.039, 0.096),
    ("circle", 0.0, 1.0, 0.02): (0.892, 1.039, 0.749),
    ("circle", 0.0, 2.0, 0.0): (1.976, 2.082, 0.096),
    ("circle", 0.0, 2.0, 0.02): (1.976, 2.082, 0.749),
    ("circle", 1.0, 0.0, 0.0): (0.116, 0.136, 6.314),
    ("circle", 1.0, 0.0, 0.02): (0.117, 0.134, 6.388),
    ("circle", 1.0, 0.5, 0.0): (0.450, 0.520, 6.314),
    ("circle", 1.0, 0.5, 0.02): (0.450, 0.520, 6.388),
    ("circle", 1.0, 1.0, 0.0): (0.892, 1.039, 6.314),
    ("circle", 1.0, 1.0, 0.02): (0.892, 1.039, 6.388),
    ("circle", 1.0, 2.0, 0.0): (1.976, 2.082, 6.314),
    ("circle", 1.0, 2.0, 0.02): (1.976, 2.082, 6.388),
    ("circle", 2.0, 0.0, 0.0): (0.227, 0.259, 12.061),
    ("circle", 2.0, 0.0, 0.02): (0.228, 0.254, 13.667),
    ("circle", 2.0, 0.5, 0.0): (0.450, 0.520, 12.061),
    ("circle", 2.0, 0.5, 0.02): (0.450, 0.520, 13.667),
    ("circle", 2.0, 1.0, 0.0): (0.892, 1.039, 12.061),
    ("circle", 2.0, 1.0, 0.02): (0.892, 1.039, 13.667),
    ("circle", 2.0, 2.0, 0.0): (1.976, 2.082, 12.061),
    ("circle", 2.0, 2.0, 0.02): (1.976, 2.082, 13.667),
}


def test_noise_study_within_pinned_bounds():
    study = noise_study()
    truths = {name: (truth, cad) for name, truth, cad in study.truths()}
    assert {key[0] for key in NOISE_BOUNDS_DEG} == set(truths)
    worse = []
    for (name, xy, orient, spike), (mean_bound, max_bound, speed_bound) in NOISE_BOUNDS_DEG.items():
        truth, cad = truths[name]
        mean_err, max_err, speed_err, pinned = study.one_cell(truth, cad, xy, orient, spike, [0, 1], 100.0)
        if not (pinned and mean_err <= mean_bound and max_err <= max_bound and speed_err <= speed_bound):
            worse.append((name, xy, orient, spike, pinned, mean_err, max_err, speed_err))
    assert not worse, f"cells off CAD or above their bounds: {worse}"


# numpy functions that reach a ufunc or an array method through Python-level argument
# handling, and the name of the module each is looked up in
NUMPY_WRAPPERS = [(np.linalg, "norm"), (np, "all"), (np, "any"), (np, "diff"), (np, "clip"), (np, "searchsorted"),
                  (np, "cumsum"), (np, "take"), (np.lib.stride_tricks, "sliding_window_view")]


def test_capture_path_calls_ufuncs_and_array_methods_directly(monkeypatch):
    # on the noise study's 401-sample captures a wrapper call costs about as much as
    # the arithmetic it reaches; the capture path calls what the wrapper ends in
    (_, truth, cad), _ = noise_study().truths()
    model = TrackerErrorModel(z_bias_max=60.0, xy_noise_sigma=2.0, orient_noise_sigma=1.0, spike_rate=0.02, seed=1)
    called = []
    for module, name in NUMPY_WRAPPERS:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.split(".")[0] == "pathfuse":
                called.append(f"{caller}: {_name}")
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "pathfuse"]:
            if getattr(mod, name, None) is real:  # imported by name
                monkeypatch.setattr(mod, name, spy)
    fused = fuse(cad, filter_outliers(synth_demo(truth, model, 100.0)))
    assert len(fused) == len(cad)
    assert called == []
