"""Acceptance suite: one test per contract requirement, tolerances pinned.

Each test prints a single ACCEPTANCE PASS line on success so the suite log
doubles as a checklist.
"""

import json
import math
import time

import numpy as np

import oracles
from pathfuse import (
    CadPath,
    CalibrationSet,
    Frame,
    FusedPath,
    Layer,
    PathLimits,
    PathMLDocument,
    PoseSeries,
    ProcessParameters,
    Track,
    TrackerErrorModel,
    Transform4,
    compose,
    expand_layers,
    filter_outliers,
    fuse,
    fused_path_to_json,
    parse_xml,
    rot_from_fixed_xyz,
    synth_demo,
    to_robot_frame,
    validate_document,
    validate_path,
    write_xml,
)
from pathfuse.cli import main
from pathfuse.geometry import euler_zyx_from_rots, rots_from_euler_zyx


def _pass(label):
    print(f"ACCEPTANCE PASS: {label}")


def test_01_euler_round_trip_accuracy_and_speed():
    """10,000 random triples with |pitch| <= 85 deg: max per-angle error < 1e-9 rad, < 1 s."""
    rng = np.random.default_rng(101)
    n = 10_000
    psis = rng.uniform(-math.pi, math.pi, n)
    thetas = rng.uniform(-math.radians(85.0), math.radians(85.0), n)
    phis = rng.uniform(-math.pi, math.pi, n)
    triples = np.column_stack([psis, thetas, phis])
    start = time.perf_counter()
    back = euler_zyx_from_rots(rots_from_euler_zyx(triples))
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(back - triples)))
    assert worst < 1e-9, f"worst angle error {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _pass(f"euler round trip (max err {worst:.2e}, {elapsed * 1e3:.0f} ms)")


def test_02_intrinsic_extrinsic_equivalence():
    """10,000 triples: fixed-XYZ composition equals intrinsic ZYX matrix < 1e-12."""
    rng = np.random.default_rng(202)
    triples = rng.uniform(-math.pi, math.pi, (10_000, 3))  # (rx, ry, rz) rows
    intrinsic = rots_from_euler_zyx(triples[:, ::-1])
    worst = 0.0
    for (rx, ry, rz), r in zip(triples, intrinsic):
        reference = oracles.rot_extrinsic_xyz(rx, ry, rz)
        fixed = rot_from_fixed_xyz(rx, ry, rz)
        worst = max(
            worst,
            float(np.max(np.abs(r - reference))),
            float(np.max(np.abs(fixed - reference))),
        )
    assert worst < 1e-12, f"worst element error {worst:.3e}"
    _pass(f"rotation convention equivalence (max err {worst:.2e})")


def _hom(t):
    return oracles.hom(t.rotation, t.translation)


def test_03_transform_algebra():
    """1,000 transforms: compose vs 4x4 oracle < 1e-9, robot<-world<-receiver chain included."""
    rng = np.random.default_rng(303)
    worst_compose = 0.0
    worst_chain = 0.0
    for _ in range(1000):
        a = Transform4(oracles.rand_rotation(rng), rng.uniform(-1000, 1000, 3))
        b = Transform4(oracles.rand_rotation(rng), rng.uniform(-1000, 1000, 3))
        worst_compose = max(worst_compose, float(np.max(np.abs(_hom(compose(a, b)) - _hom(a) @ _hom(b)))))

        # the transform to_robot_frame applies to every receiver-frame point
        t_r_f = Transform4(oracles.rand_rotation(rng), rng.uniform(-1000, 1000, 3), Frame.R, Frame.F)
        t_f_s = Transform4(oracles.rand_rotation(rng), rng.uniform(-1000, 1000, 3), Frame.F, Frame.S)
        p = rng.uniform(-1000, 1000, 3)
        t_r_s = compose(t_r_f, t_f_s)
        assert (t_r_s.parent, t_r_s.child) == (Frame.R, Frame.S)
        want = _hom(t_r_f) @ _hom(t_f_s)
        worst_chain = max(
            worst_chain,
            float(np.max(np.abs(_hom(t_r_s) - want))),
            float(np.max(np.abs(t_r_s.rotation @ p + t_r_s.translation - oracles.apply_hom(want, p)))),
        )
    assert worst_compose < 1e-9, f"compose defect {worst_compose:.3e}"
    assert worst_chain < 1e-9, f"chain defect {worst_chain:.3e}"
    _pass(f"transform algebra (compose {worst_compose:.2e}, chain {worst_chain:.2e})")


def _line_truth(n=5, length=400.0):
    pos = np.column_stack([np.linspace(0.0, length, n), np.zeros(n), np.zeros(n)])
    ang = np.column_stack([np.zeros(n), np.zeros(n), np.linspace(0.0, math.pi / 2, n)])
    return FusedPath(pos, ang, np.full(n, 100.0), Frame.S)


def _identity_calib():
    return CalibrationSet(
        Transform4(np.eye(3), np.zeros(3), Frame.R, Frame.F),
        Transform4(np.eye(3), np.zeros(3), Frame.F, Frame.S),
    )


def test_04_zero_noise_end_to_end():
    """Zero error model, capture -> filter -> fuse -> robot frame: orientations < 1e-6 rad,
    positions bitwise equal to the CAD waypoints, < 5 s."""
    start = time.perf_counter()
    truth = _line_truth()
    cad = CadPath(truth.positions)
    model = TrackerErrorModel(z_bias_max=0.0, xy_noise_sigma=0.0, orient_noise_sigma=0.0)
    series = filter_outliers(synth_demo(truth, model, 200.0))
    robot = to_robot_frame(fuse(cad, series), _identity_calib())
    elapsed = time.perf_counter() - start

    assert robot.frame is Frame.R
    assert robot.positions.tobytes() == cad.waypoints.tobytes()
    worst = float(np.max(np.abs(robot.orientations - truth.orientations)))
    assert worst < 1e-6, f"orientation error {worst:.3e} rad"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _pass(f"zero-noise end-to-end (orient err {worst:.2e} rad, {elapsed:.2f} s)")


def test_05_position_immunity_to_z_bias():
    """60 mm peak z bias in the capture leaves fused positions bitwise equal to CAD."""
    truth = _line_truth()
    cad = CadPath(truth.positions)
    model = TrackerErrorModel(z_bias_max=60.0, xy_noise_sigma=0.0, orient_noise_sigma=0.0)
    series = filter_outliers(synth_demo(truth, model, 200.0))
    bias_seen = float(np.max(np.abs(series.positions[:, 2])))
    assert bias_seen > 1.0, "fixture sanity: bias must actually distort the capture"
    fused = fuse(cad, series)
    assert fused.positions.tobytes() == cad.waypoints.tobytes()
    _pass(f"position immunity to z bias (max residual bias {bias_seen:.1f} mm)")


def test_06_outlier_filter_on_spiked_fixture():
    """1,000 samples, 2% spikes >= 10x channel MAD: >= 95% corrected, <= 1% clean modified."""
    n, spike_mag = 1000, 100.0
    rng = np.random.default_rng(606)
    t = np.arange(n) * 0.01
    # steady sweep with gentle curvature, like a hand-guided tool pass;
    # jitter is small against the motion, as a tracker at close range behaves
    clean = np.column_stack(
        [
            60.0 * t + 15.0 * np.sin(0.8 * t),
            40.0 * t - 10.0 * np.cos(0.6 * t),
            20.0 * t + 4.0 * np.sin(1.2 * t),
        ]
    )
    noisy = clean + rng.normal(0.0, 0.3, (n, 3))
    spike_at = np.sort(rng.choice(n, size=20, replace=False))
    signs = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    spiked = noisy.copy()
    spiked[spike_at, 2] += signs * spike_mag

    # channel MAD at the filter's scale: the median over sliding windows of
    # the in-window median absolute deviation (the trend itself dominates a
    # whole-channel MAD, which says nothing about outlier visibility)
    z = spiked[:, 2]
    windows = np.lib.stride_tricks.sliding_window_view(z, 11)
    window_mads = np.median(np.abs(windows - np.median(windows, axis=1, keepdims=True)), axis=1)
    channel_mad = float(np.median(window_mads))
    assert spike_mag >= 10.0 * channel_mad, "fixture premise: spikes >= 10x channel MAD"

    series = PoseSeries(t, spiked, np.zeros((n, 3)))
    filtered = filter_outliers(series, window=11, k=3.0)

    corrected = np.abs(filtered.positions[spike_at, 2] - clean[spike_at, 2]) < 0.1 * spike_mag
    clean_mask = np.ones(n, dtype=bool)
    clean_mask[spike_at] = False
    modified = np.any(filtered.positions[clean_mask] != spiked[clean_mask], axis=1)

    assert corrected.mean() >= 0.95, f"only {corrected.sum()}/20 spikes corrected"
    assert modified.mean() <= 0.01, f"{modified.sum()} clean samples modified"
    _pass(
        f"outlier filter ({corrected.sum()}/20 spikes corrected, "
        f"{modified.sum()} clean samples touched)"
    )


def _random_grid_doc(rng):
    def num(lo=-1e6, hi=1e6):
        return round(float(rng.uniform(lo, hi)), 6)

    pool = list("abcXYZ 0189_-.<>&\"'\n\t;") + ["é"]

    def name(prefix):
        return prefix + "".join(rng.choice(pool) for _ in range(int(rng.integers(1, 9))))

    process = ProcessParameters(
        process_type=str(rng.choice(["adhesive", "welding", "other"])),
        glue_flow_rate=num(0.1, 100.0),
        wire_feed_rate=num(0.1, 100.0),
        layer_height=num(0.1, 10.0),
        extra=tuple((f"k{i}_{int(rng.integers(0, 999))}", name("v")) for i in range(int(rng.integers(0, 4)))),
    )
    layers = []
    for li in range(int(rng.integers(1, 4))):
        tracks = []
        for ti in range(int(rng.integers(1, 3))):
            points = [
                (num(), num(), num(), num(), num(), num(), abs(num()))
                for _ in range(int(rng.integers(2, 5)))
            ]
            tracks.append(Track(f"t{ti}_{name('')}", points, bool(rng.random() < 0.5)))
        layers.append(Layer(f"l{li}_{name('')}", li, tuple(tracks)))
    return PathMLDocument(name("p"), process, tuple(layers))


def test_07_pathml_round_trip_and_canonical_bytes():
    """100 randomized documents: write -> parse == original; writer is byte-deterministic."""
    rng = np.random.default_rng(707)
    for i in range(100):
        doc = _random_grid_doc(rng)
        data = write_xml(doc)
        assert parse_xml(data) == doc, f"document {i} did not survive the round trip"
        assert write_xml(doc) == data, f"document {i} serialized differently twice"
    _pass("canonical round trip (100 randomized documents)")


def test_08_multi_layer_expansion_offsets():
    """5 layers, 2 mm height, direction (0,0,1): layer k offset exactly k*2 mm within 1e-12;
    the base is open, so odd layers run it backwards, each point at the speed of the
    forward move out of it and the first at the approach speed."""
    points = [(float(x), float(x) * 0.5, 1.0, 0.0, 0.0, 10.0 * x, 40.0 + x) for x in range(4)]
    doc = PathMLDocument(
        "stack",
        ProcessParameters("welding", wire_feed_rate=8.0, layer_height=2.0),
        (Layer("Layer_0", 0, (Track("Track_0", points, True),)),),
    )
    out = expand_layers(doc, 5, (0.0, 0.0, 1.0))
    assert len(out.layers) == 5
    assert validate_document(out) == []
    base = doc.layers[0].tracks[0].points[:, :3]
    worst = 0.0
    for k, layer in enumerate(out.layers):
        assert layer.index == k
        got = layer.tracks[0].points[:, :3]
        offset = got - (base[::-1] if k % 2 else base)
        want = np.array([0.0, 0.0, 2.0 * k])
        worst = max(worst, float(np.max(np.abs(offset - want))))
        speeds = [40.0, 43.0, 42.0, 41.0] if k % 2 else [40.0, 41.0, 42.0, 43.0]
        assert layer.tracks[0].points[:, 6].tolist() == speeds
    assert worst < 1e-12, f"offset error {worst:.3e} mm"
    _pass(f"multi-layer expansion (max offset error {worst:.2e} mm)")


def test_09_deviation_report_sectioned_square():
    """Square with one edge offset 2 mm: that section reports 2.0 +/- 1e-9 mm;
    identical paths report 0; default tolerance is 4 mm."""
    from pathfuse import deviation_report

    def path(pts, closed=False):
        arr = np.asarray(pts, dtype=float)
        return FusedPath(arr, np.zeros((len(arr), 3)), np.full(len(arr), 50.0), Frame.R, closed=closed)

    nominal = path([[0, 0, 0], [100.0, 0, 0], [100.0, 100.0, 0], [0.0, 100.0, 0]], closed=True)
    executed = path(
        [
            [0.0, -2.0, 0],
            [100.0, -2.0, 0],
            [100.0, 0.0, 0],
            [100.0, 100.0, 0],
            [0.0, 100.0, 0],
            [0.0, 0.0, 0],
        ]
    )
    breaks = (101.0 / 402.0, 202.0 / 402.0, 302.0 / 402.0)
    rep = deviation_report(executed, nominal, section_breaks=breaks)
    assert rep.tolerance_mm == 4.0
    assert abs(rep.sections[0].max_deviation_mm - 2.0) <= 1e-9
    for s in rep.sections[1:]:
        assert s.max_deviation_mm <= 1e-9
    assert abs(rep.overall_max_mm - 2.0) <= 1e-9
    assert rep.within_tolerance

    same = deviation_report(nominal, nominal)
    assert same.overall_max_mm == 0.0
    _pass("sectioned deviation report (offset edge -> 2.000 mm)")


def test_10_limit_validation_exact_accounting():
    """100 randomized documents with k injected violations each (k in 1..10):
    exactly k violations reported at the right points with the right rules."""
    rng = np.random.default_rng(1010)
    limits = PathLimits(
        max_step_mm=50.0, max_speed_mm_s=1000.0, workspace_radius_mm=900.0,
        max_orient_step_deg=30.0,
    )
    n = 30

    def build(pos, rz, v):
        points = np.column_stack([pos, np.zeros((n, 2)), rz, v])
        return PathMLDocument(
            "probe", ProcessParameters("other"), (Layer("L0", 0, (Track("T0", points, True),)),)
        )

    base_pos = np.column_stack([10.0 * np.arange(n), np.zeros(n), np.zeros(n)])
    base = build(base_pos, np.zeros(n), np.full(n, 50.0))
    assert validate_path(base, limits).passed, "fixture sanity: base document must be clean"

    for doc_i in range(100):
        pos = base_pos.copy()
        rz = np.zeros(n)
        v = np.full(n, 50.0)
        expected = []

        k = int(rng.integers(1, 11))
        budget = k
        if budget >= 2 and rng.random() < 0.3:
            pos[n - 1, 0] += 1000.0  # one far point: step in + unreachable
            expected += [("step", n - 1), ("reachability", n - 1)]
            budget -= 2
        counts = rng.multinomial(budget, [1 / 3] * 3)
        for rule, cnt in zip(("speed", "step", "orient_step"), counts):
            if cnt == 0:
                continue
            idxs = rng.choice(np.arange(1, n - 2), size=cnt, replace=False)
            for i in sorted(int(j) for j in idxs):
                if rule == "speed":
                    v[i] = 1500.0
                elif rule == "step":
                    pos[i:, 1] += 60.0  # suffix shift: one oversized jump
                else:
                    rz[i:] += 60.0  # suffix twist: one oversized turn
                expected.append((rule, i))

        report = validate_path(build(pos, rz, v), limits)
        got = sorted((x.rule, x.point) for x in report.violations)
        assert all(x.layer == 0 and x.track == 0 for x in report.violations)
        assert got == sorted(expected), f"document {doc_i}: {got} != {sorted(expected)}"
        assert len(report.violations) == k
    _pass("limit validation exact accounting (100 randomized documents)")


CHAIN_CAD = "x_mm,y_mm,z_mm\n0,0,0\n100,0,0\n200,0,0\n300,0,0\n400,0,0\n"
CHAIN_CALIB = {
    "t_r_f": {"translation_mm": [10.0, 20.0, 30.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 90.0]},
    "t_f_s": {"translation_mm": [1.0, 2.0, 3.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 0.0]},
}
CHAIN_CONFIG = {
    "resample_spacing_mm": 25.0,
    "limits": {"max_step_mm": 50.0, "max_orient_step_deg": 30.0},
}


def _run_chain(root):
    root.mkdir(exist_ok=True)
    truth = root / "truth.json"
    truth.write_text(fused_path_to_json(_line_truth()))
    (root / "cad.csv").write_text(CHAIN_CAD)
    (root / "calib.json").write_text(json.dumps(CHAIN_CALIB))
    (root / "config.json").write_text(json.dumps(CHAIN_CONFIG))
    steps = [
        ["synth", "--truth", str(truth), "--rate", "100", "--z-bias-max", "20",
         "--xy-noise", "0.5", "--seed", "11", "-o", str(root / "demo.csv")],
        ["fuse", "--cad", str(root / "cad.csv"), "--demo", str(root / "demo.csv"),
         "--calib", str(root / "calib.json"), "--config", str(root / "config.json"),
         "-o", str(root / "fused.json")],
        ["pathml", "gen", "--fused", str(root / "fused.json"), "--project", "part",
         "--process-type", "adhesive", "--glue-flow-rate", "12", "--layer-height", "2",
         "-o", str(root / "doc.aml")],
        ["pathml", "expand", str(root / "doc.aml"), "--layers", "3", "-o", str(root / "stack.aml")],
        ["emit", str(root / "stack.aml"), "--config", str(root / "config.json"),
         "-o", str(root / "prog.txt")],
        ["report", "--executed", str(root / "fused.json"), "--nominal", str(root / "fused.json"),
         "--sections", "0.25,0.5", "-o", str(root / "report.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"pipeline step failed: {argv[0]}"
    return ["demo.csv", "fused.json", "doc.aml", "stack.aml", "prog.txt", "report.json"]


def test_11_cli_determinism_and_exit_contract(tmp_path, capsys):
    """Pipeline run twice -> bit-identical artifacts; >= 20 malformed inputs all exit 2."""
    artifacts = _run_chain(tmp_path / "a")
    _run_chain(tmp_path / "b")
    for name in artifacts:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    good_cad = str(tmp_path / "a" / "cad.csv")
    good_demo = str(tmp_path / "a" / "demo.csv")
    good_calib = str(tmp_path / "a" / "calib.json")
    good_fused = str(tmp_path / "a" / "fused.json")
    doc_text = (tmp_path / "a" / "doc.aml").read_text()

    header = "t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg"
    demo_lines = (tmp_path / "a" / "demo.csv").read_text().splitlines(keepends=True)
    fused_doc = json.loads((tmp_path / "a" / "fused.json").read_text())

    def demo_with(x):  # the capture with the x of its first sample spelled ``x``
        fields = demo_lines[1].split(",")
        return "".join(demo_lines[:1] + [",".join(fields[:1] + [x] + fields[2:])] + demo_lines[2:]).encode()

    def fused_with(y):  # the fused path with the y of its second point set to ``y``
        points = [dict(p) for p in fused_doc["points"]]
        points[1]["y_mm"] = y
        return json.dumps(dict(fused_doc, points=points)).encode()

    corpus = [
        # (file name, content, argv using the file)
        ("demo_header.csv", b"time,x\n0,1\n", ["fuse", "--demo"]),
        ("demo_fields.csv", f"{header}\n0,0,0,0,0,0,0\n1,2,3\n".encode(), ["fuse", "--demo"]),
        ("demo_float.csv", f"{header}\n0,0,x,0,0,0,0\n1,0,0,0,0,0,0\n".encode(), ["fuse", "--demo"]),
        ("demo_nonmono.csv", f"{header}\n0,0,0,0,0,0,0\n1,1,0,0,0,0,0\n0.5,2,0,0,0,0,0\n".encode(), ["fuse", "--demo"]),
        ("demo_short.csv", f"{header}\n0,0,0,0,0,0,0\n".encode(), ["fuse", "--demo"]),
        ("demo_empty.csv", b"", ["fuse", "--demo"]),
        ("demo_binary.csv", b"\xff\xfe\x00\x01", ["fuse", "--demo"]),
        ("cad_header.csv", b"a,b,c\n0,0,0\n1,1,1\n", ["fuse", "--cad"]),
        ("cad_number.csv", b"x_mm,y_mm,z_mm\n0,0,zero\n1,1,1\n", ["fuse", "--cad"]),
        ("cad_arity.csv", b"x_mm,y_mm,z_mm\n0,0\n1,1,1\n", ["fuse", "--cad"]),
        ("cad_directive.csv", b"x_mm,y_mm,z_mm\n# loop=yes\n0,0,0\n1,1,1\n", ["fuse", "--cad"]),
        ("cad_degenerate.csv", b"x_mm,y_mm,z_mm\n5,5,5\n5,5,5\n", ["fuse", "--cad"]),
        ("cad_truncated.json", b"{", ["fuse", "--cad"]),
        ("cad_arity.json", b'{"waypoints": [[1, 2], [3, 4]]}', ["fuse", "--cad"]),
        ("calib_missing.json", b'{"t_r_f": {"translation_mm": [0,0,0], "rotation_deg_fixed_xyz": [0,0,0]}}', ["fuse", "--calib"]),
        ("calib_vector.json", json.dumps({"t_r_f": {"translation_mm": [0, 0], "rotation_deg_fixed_xyz": [0, 0, 0]}, "t_f_s": CHAIN_CALIB["t_f_s"]}).encode(), ["fuse", "--calib"]),
        ("calib_unknown.json", json.dumps(dict(CHAIN_CALIB, t_x_y={})).encode(), ["fuse", "--calib"]),
        ("calib_not_json.json", b"nope", ["fuse", "--calib"]),
        ("config_unknown.json", b'{"filter_windw": 5}', ["fuse", "--config"]),
        ("config_window.json", b'{"filter": {"window": 4}}', ["fuse", "--config"]),
        # fuse smooths the full-rate capture; the old downsampling key is unknown
        ("config_downsample.json", b'{"downsample_target": 200}', ["fuse", "--config"]),
        # JSON values of the wrong type must not escape as a TypeError
        ("config_window_null.json", b'{"filter": {"window": null}}', ["emit", "--config"]),
        ("config_center.json", b'{"limits": {"workspace_center": 5}}', ["emit", "--config"]),
        ("config_step_null.json", b'{"limits": {"max_step_mm": null}}', ["emit", "--config"]),
        ("config_extra.json", b'{"process": {"process_type": "adhesive", "extra": 5}}', ["emit", "--config"]),
        ("fused_missing.json", json.dumps({"frame": "R", "closed": False, "points": [{"x_mm": 0}]}).encode(), ["gen", "--fused"]),
        ("fused_frame.json", (tmp_path / "a" / "fused.json").read_text().replace('"R"', '"Q"').encode(), ["gen", "--fused"]),
        ("fused_short.json", json.dumps({"frame": "R", "closed": False, "points": json.loads((tmp_path / "a" / "fused.json").read_text())["points"][:1]}).encode(), ["gen", "--fused"]),
        ("xml_malformed.aml", b"<CAEXFile>\n  <broken\n</CAEXFile>", ["validate"]),
        ("xml_root.aml", doc_text.replace("CAEXFile", "RootFile").encode(), ["validate"]),
        ("xml_process.aml", doc_text.replace('<Attribute Name="ProcessType"><Value>adhesive</Value></Attribute>', "").encode(), ["validate"]),
        # numbers are ASCII decimals in text and JSON numbers in JSON, in every reader
        ("demo_underscore.csv", demo_with("1_0"), ["fuse", "--demo"]),
        ("demo_arabic_digits.csv", demo_with("\u0661\u0662"), ["fuse", "--demo"]),
        ("cad_underscore.csv", CHAIN_CAD.replace("\n100,", "\n1_00,").encode(), ["fuse", "--cad"]),
        ("cad_arabic_digits.csv", CHAIN_CAD.replace("\n100,", "\n\u0661\u0660\u0660,").encode(), ["fuse", "--cad"]),
        ("fused_string.json", fused_with("1.5"), ["gen", "--fused"]),
        ("fused_bool.json", fused_with(True), ["gen", "--fused"]),
        ("config_k_bool.json", b'{"filter": {"k": true}}', ["emit", "--config"]),
        ("config_window_float.json", b'{"filter": {"window": 5.9}}', ["emit", "--config"]),
        ("config_tolerance_string.json", b'{"tolerance_mm": "4"}', ["emit", "--config"]),
        ("calib_string.json", json.dumps(dict(CHAIN_CALIB, t_f_s={"translation_mm": ["1", 0, 0], "rotation_deg_fixed_xyz": [0, 0, 0]})).encode(), ["fuse", "--calib"]),
        ("xml_underscore.aml", doc_text.replace('"LayerHeight_mm"><Value>2.000000<', '"LayerHeight_mm"><Value>1_0<').encode(), ["validate"]),
    ]
    assert len(corpus) >= 20

    for fname, content, argv_kind in corpus:
        path = tmp_path / fname
        path.write_bytes(content)
        if argv_kind[0] == "fuse":
            argv = ["fuse", "--cad", good_cad, "--demo", good_demo, "--calib", good_calib]
            if argv_kind[1] == "--config":
                argv += ["--config", str(path)]
            else:
                argv[argv.index(argv_kind[1]) + 1] = str(path)
        elif argv_kind[0] == "emit":
            argv = ["emit", str(tmp_path / "a" / "doc.aml"), "--config", str(path)]
        elif argv_kind[0] == "gen":
            argv = ["pathml", "gen", "--fused", str(path), "--project", "p", "--process-type", "other"]
        else:
            argv = ["pathml", "validate", str(path)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, f"{fname}: expected exit 2, got {code}"
        if fname == "config_downsample.json":
            assert "downsample_target" in err, err

    # wrong usage is also part of the exit contract
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    _pass(f"CLI determinism and exit contract ({len(corpus)} malformed inputs)")
